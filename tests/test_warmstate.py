"""Warm-state memo: a core built from memoised warm state must be
indistinguishable from one built cold.

``SMTProcessor`` warms its caches and branch predictors once per
``(traces, warmup, cfg.mem, cfg.bp)`` key in a process and copies that
state into every later core with the same key. These tests enforce the
invariant that licenses the copy — byte-identical ``PipelineStats`` and
identical final cache/predictor state on a hit — plus the key, the
isolation of the stored snapshot from the cores built from it, the
sanitized path and threads sharing the memo. The FIFO bound is tested
in tests/test_smt_core.py, among the mutation oracle's pinned tests.
"""

import sys
import threading
from dataclasses import asdict, replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.pipeline.smt_core as smt_core
from repro.config.presets import small_machine, tiny_machine
from repro.experiments.runner import thread_traces
from repro.pipeline.smt_core import SMTProcessor, clear_warm_state_cache

from tests.trace_builder import TraceBuilder

SCHEDULERS = ("traditional", "2op_block", "2op_ooo", "2op_ooo_filtered")
INSNS = 500


@pytest.fixture(autouse=True)
def cold_memo():
    clear_warm_state_cache()
    yield
    clear_warm_state_cache()


@pytest.fixture
def builds(monkeypatch):
    """Counts cold warm-state builds (``_install_residency`` calls)."""
    count = [0]
    install = SMTProcessor._install_residency

    def counting(core):
        count[0] += 1
        install(core)

    monkeypatch.setattr(SMTProcessor, "_install_residency", counting)
    return count


def warm_state(core):
    """A copy of everything the warm path writes, as comparable data."""
    h = core.hierarchy
    caches = [(tuple(map(tuple, c._sets)), c.accesses, c.misses)
              for c in (h.l1i, h.l1d, h.l2)]
    predictors = []
    for ts in core.threads:
        p = ts.predictor
        predictors.append((
            ts.fetch_idx, p.branches, p.mispredicts,
            bytes(p.gshare._table), p.gshare._history, p.gshare.lookups,
            p.gshare.hits, tuple(map(tuple, p.btb._sets)), p.btb.lookups,
            p.btb.hits,
        ))
    return caches, predictors


def assert_identical(a, b):
    assert a == b
    assert asdict(a) == asdict(b)
    assert repr(a) == repr(b)


def build_and_run(cfg, traces, warmup):
    core = SMTProcessor(cfg, traces, warmup=warmup)
    start = warm_state(core)
    stats = core.run(INSNS, 200_000)
    return start, stats, warm_state(core)


class TestHitEqualsCold:
    @given(
        mix=st.lists(
            st.sampled_from(["gzip", "mcf", "parser", "vortex", "ammp",
                             "art"]),
            min_size=1, max_size=3,
        ),
        iq_size=st.sampled_from([4, 8, 16]),
        scheduler=st.sampled_from(SCHEDULERS),
        seed=st.integers(min_value=0, max_value=3),
        warmup=st.sampled_from([0, 1, 200, 700]),
    )
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_point_identical(self, mix, iq_size, scheduler, seed,
                                    warmup):
        """Any (mix, IQ size, scheduler, seed, warmup) point gives the
        same start state, stats and final state on a hit as cold."""
        cfg = small_machine(iq_size=iq_size, scheduler=scheduler)
        traces = thread_traces(mix, INSNS, seed=seed, warmup=warmup)
        clear_warm_state_cache()
        cold = build_and_run(cfg, traces, warmup)
        (entry,) = smt_core._WARM_STATE.values()
        hit = build_and_run(cfg, traces, warmup)
        # A miss would have replaced the entry.
        assert list(smt_core._WARM_STATE.values()) == [entry]
        assert cold[0] == hit[0]
        assert_identical(cold[1], hit[1])
        assert cold[2] == hit[2]

    def test_other_scheduler_and_iq_size_hit(self, builds):
        traces = thread_traces(["parser", "vortex"], INSNS, 0, 300)
        SMTProcessor(small_machine(), traces, warmup=300)
        for scheduler in SCHEDULERS:
            cfg = small_machine(iq_size=8, scheduler=scheduler)
            SMTProcessor(cfg, traces, warmup=300)
        assert builds[0] == 1


class TestSnapshotIsolation:
    def test_back_to_back_hits_identical(self):
        cfg = small_machine(scheduler="2op_ooo")
        traces = thread_traces(["gzip", "mcf"], INSNS, 0, 400)
        SMTProcessor(cfg, traces, warmup=400)  # the miss
        first = build_and_run(cfg, traces, 400)
        second = build_and_run(cfg, traces, 400)
        assert first[0] == second[0]
        assert_identical(first[1], second[1])
        assert first[2] == second[2]

    def test_running_a_core_leaves_snapshot_unchanged(self):
        cfg = small_machine()
        traces = thread_traces(["gzip", "mcf"], INSNS, 0, 400)
        pristine = warm_state(SMTProcessor(cfg, traces, warmup=400))
        a = SMTProcessor(cfg, traces, warmup=400)
        b = SMTProcessor(cfg, traces, warmup=400)
        a.run(INSNS)
        assert warm_state(a) != pristine  # the run did move a's state
        assert warm_state(b) == pristine
        assert warm_state(SMTProcessor(cfg, traces, warmup=400)) == pristine
        # Each hit got its own mutable copies.
        assert all(x is not y for x, y in zip(a.hierarchy.l2._sets,
                                              b.hierarchy.l2._sets))
        pa, pb = a.threads[0].predictor, b.threads[0].predictor
        assert pa.gshare._table is not pb.gshare._table
        assert all(x is not y for x, y in zip(pa.btb._sets, pb.btb._sets))


class TestKey:
    @pytest.fixture
    def base(self, builds):
        cfg = small_machine()
        traces = thread_traces(["parser", "gzip"], INSNS, 0, 300)
        SMTProcessor(cfg, traces, warmup=300)
        assert builds[0] == 1
        return cfg, traces

    def test_different_mem_misses(self, base, builds):
        cfg, traces = base
        mem = replace(cfg.mem, memory_latency=cfg.mem.memory_latency + 1)
        SMTProcessor(cfg.replace(mem=mem), traces, warmup=300)
        assert builds[0] == 2

    def test_different_bp_misses(self, base, builds):
        cfg, traces = base
        bp = replace(cfg.bp, history_bits=cfg.bp.history_bits - 1)
        SMTProcessor(cfg.replace(bp=bp), traces, warmup=300)
        assert builds[0] == 2

    def test_different_warmup_misses(self, base, builds):
        cfg, traces = base
        SMTProcessor(cfg, traces, warmup=299)
        assert builds[0] == 2

    def test_equal_but_distinct_trace_misses(self, base, builds):
        cfg, traces = base
        copy = replace(traces[1])
        assert copy is not traces[1]
        SMTProcessor(cfg, [traces[0], copy], warmup=300)
        assert builds[0] == 2

    def test_thread_order_is_part_of_the_key(self, base, builds):
        cfg, traces = base
        SMTProcessor(cfg, traces[::-1], warmup=300)
        assert builds[0] == 2

    def test_entry_pins_its_traces(self, base):
        _, traces = base
        (entry,) = smt_core._WARM_STATE.values()
        assert all(a is b for a, b in zip(entry.traces, traces))


class TestSanitizedHit:
    def test_sanitized_core_on_a_hit_matches_cold(self):
        plain = small_machine(scheduler="2op_ooo")
        sanitized = plain.replace(sanitize=True, sanitize_interval=16)
        traces = thread_traces(["parser", "vortex"], INSNS, 0, 400)
        cold = build_and_run(sanitized, traces, 400)
        clear_warm_state_cache()
        SMTProcessor(plain, traces, warmup=400)  # entry from a plain core
        hit = build_and_run(sanitized, traces, 400)
        assert hit[1].sanitizer_checks > 0
        assert cold[0] == hit[0]
        assert_identical(cold[1], hit[1])
        assert cold[2] == hit[2]


def distinct_trace(i):
    """A short trace whose warm caches and predictor differ with ``i``."""
    tb = TraceBuilder()
    for j in range(6):
        tb.branch(taken=bool((i >> (j % 2)) & 1), target=4096,
                  pc=256 * i + 4 * j)
    tb.load(dest=1, addr=4096 * (i + 1)).nops(8)
    return tb.build(warm_addrs=[8192 * (i + 1)])


class TestBound:
    def test_threads_sharing_the_memo(self, monkeypatch):
        """More threads than cores build cores on four keys through a
        two-entry memo, so lookups, builds and evictions interleave.
        Every core must still start from its key's cold state."""
        monkeypatch.setattr(smt_core, "_WARM_STATE_MAX", 2)
        cfg = tiny_machine()
        traces = [distinct_trace(i) for i in range(4)]
        cold = [warm_state(SMTProcessor(cfg, [t], warmup=6)) for t in traces]
        assert len({repr(c) for c in cold}) == len(cold)
        clear_warm_state_cache()
        errors, mismatches = [], []

        def worker(offset):
            try:
                for i in range(40):
                    k = (i + offset) % len(traces)
                    core = SMTProcessor(cfg, [traces[k]], warmup=6)
                    if warm_state(core) != cold[k]:
                        mismatches.append(k)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n,))
                       for n in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and mismatches == []
        assert len(smt_core._WARM_STATE) <= 2

    def test_clear_empties_the_memo(self):
        SMTProcessor(tiny_machine(), [TraceBuilder().nops(4).build()])
        assert smt_core._WARM_STATE
        clear_warm_state_cache()
        assert not smt_core._WARM_STATE
