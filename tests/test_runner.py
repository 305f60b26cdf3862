"""Experiment runner tests: determinism, caching, fairness plumbing."""

import dataclasses

import pytest

from repro.config.presets import small_machine
from repro.exec import SimJob
from repro.metrics.fairness import harmonic_weighted_ipc
from repro.experiments.runner import (
    clear_solo_cache,
    default_warmup,
    simulate_benchmark,
    simulate_mix,
    simulate_mix_with_fairness,
    solo_ipc,
    thread_traces,
)

CFG = small_machine()
FAST = dict(max_insns=1500, seed=0, warmup=2000)


class TestSimulateMix:
    def test_returns_populated_result(self):
        r = simulate_mix(["gzip", "parser"], CFG, **FAST)
        assert r.benchmarks == ("gzip", "parser")
        assert r.scheduler == CFG.scheduler
        assert r.iq_size == CFG.iq_size
        assert r.throughput_ipc > 0
        assert r.cycles > 0

    def test_deterministic(self):
        a = simulate_mix(["gzip", "parser"], CFG, **FAST)
        b = simulate_mix(["gzip", "parser"], CFG, **FAST)
        assert a.cycles == b.cycles
        assert a.committed == b.committed

    def test_seed_changes_outcome(self):
        a = simulate_mix(["gzip"], CFG, max_insns=1500, seed=0, warmup=2000)
        b = simulate_mix(["gzip"], CFG, max_insns=1500, seed=9, warmup=2000)
        assert a.cycles != b.cycles

    def test_stops_at_budget(self):
        r = simulate_mix(["gzip", "mcf"], CFG, **FAST)
        assert max(r.committed) >= FAST["max_insns"]

    def test_single_benchmark_wrapper(self):
        r = simulate_benchmark("gzip", CFG, **FAST)
        assert r.num_threads == 1


class TestTraceSeeding:
    def test_duplicate_benchmarks_get_distinct_traces(self):
        traces = thread_traces(["gzip", "gzip"], 1000, seed=0, warmup=500)
        assert traces[0] is not traces[1]
        assert traces[0].op != traces[1].op

    def test_slot_trace_matches_solo_trace(self):
        """A benchmark's first in-mix occurrence replays the same trace
        as its single-thread baseline (required for weighted IPC)."""
        in_mix = thread_traces(["parser", "gzip"], 1000, 0, 500)[1]
        wait = thread_traces(["gzip"], 1000, 0, 500)[0]
        assert in_mix is wait

    def test_default_warmup_scales(self):
        assert default_warmup(1000) >= 1000
        assert default_warmup(100_000) == 100_000


class TestFairness:
    def setup_method(self):
        clear_solo_cache()

    def test_fairness_in_sane_range(self):
        _, fairness = simulate_mix_with_fairness(
            ["gzip", "parser"], CFG, max_insns=1500, seed=0
        )
        # Each thread runs no faster than alone (modulo small cache
        # interactions), so the metric lives in (0, ~1.2].
        assert 0.0 < fairness < 1.3

    def test_solo_cache_reuse(self):
        clear_solo_cache()
        a = solo_ipc("gzip", CFG, max_insns=1500, seed=0)
        b = solo_ipc("gzip", CFG, max_insns=1500, seed=0)
        assert a == b

    def test_solo_cache_distinguishes_configs(self):
        a = solo_ipc("gzip", CFG, max_insns=1500, seed=0)
        b = solo_ipc("gzip", CFG.replace(iq_size=8), max_insns=1500, seed=0)
        assert a != b

    @pytest.mark.parametrize("fields", [
        dict(warmup=0),
        dict(warmup=2000, max_cycles=300),
    ], ids=["warmup", "max_cycles"])
    def test_fairness_job_keeps_warmup_and_max_cycles(self, fields):
        mix = ("gzip", "parser")
        plain = SimJob(mix, CFG, max_insns=1500, seed=0, **fields)
        fair = dataclasses.replace(plain, with_fairness=True)
        payload = fair.run()
        # The mix runs as the plain job does...
        assert payload.result == plain.run().result
        # ...and so does every single-thread baseline.
        alone = [
            simulate_benchmark(b, CFG.replace(scheduler="traditional"),
                               max_insns=1500, seed=0, **fields)
            .throughput_ipc
            for b in mix
        ]
        assert payload.fairness == harmonic_weighted_ipc(
            payload.result.per_thread_ipc, alone
        )
