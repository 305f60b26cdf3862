"""End-to-end integration tests on generated workloads.

These run the real trace generator through the real pipeline at small
scale, checking the cross-cutting invariants the figure experiments rely
on.
"""

import pytest

from repro.config.presets import paper_machine
from repro.experiments.runner import simulate_mix, thread_traces
from repro.pipeline.smt_core import SMTProcessor

FAST = dict(max_insns=2000, seed=0, warmup=3000)


class TestGeneratedWorkloads:
    @pytest.mark.parametrize("sched", ["traditional", "2op_block",
                                       "2op_ooo", "2op_ooo_filtered"])
    def test_two_thread_mix_runs_clean(self, sched):
        cfg = paper_machine(scheduler=sched)
        r = simulate_mix(["equake", "gzip"], cfg, **FAST)
        assert r.throughput_ipc > 0
        assert all(c > 0 for c in r.committed)

    def test_four_thread_mix_runs_clean(self):
        cfg = paper_machine(scheduler="2op_ooo")
        r = simulate_mix(["mgrid", "equake", "art", "lucas"], cfg, **FAST)
        assert r.num_threads == 4
        assert r.throughput_ipc > 0

    def test_invariants_hold_mid_run(self):
        cfg = paper_machine(scheduler="2op_ooo", iq_size=32, sanitize=True,
                            sanitize_interval=37)
        traces = thread_traces(["parser", "vortex"], 2000, 0, 3000)
        core = SMTProcessor(cfg, traces, warmup=3000)
        for _ in range(600):
            core.step()
        assert core.stats.sanitizer_checks > 0

    def test_identical_streams_across_schedulers(self):
        """All schedulers must fetch the same architectural stream; the
        per-thread committed counts at a fixed budget may differ (they
        run for different cycle counts) but the committed instructions
        are a prefix of the same trace — check via total progress and
        fetch determinism."""
        counts = {}
        for sched in ("traditional", "2op_block", "2op_ooo"):
            cfg = paper_machine(scheduler=sched)
            r = simulate_mix(["equake", "gzip"], cfg, **FAST)
            counts[sched] = r
        # The budget thread always reaches the budget.
        for r in counts.values():
            assert max(r.committed) >= FAST["max_insns"]

    def test_2op_shows_expected_ordering_on_low_ilp_pair(self):
        """The paper's central 2-thread result at this repo's default
        calibration: traditional >= 2op_ooo > 2op_block (throughput) on
        a memory-bound pair with a 64-entry queue."""
        results = {}
        for sched in ("traditional", "2op_block", "2op_ooo"):
            cfg = paper_machine(iq_size=64, scheduler=sched)
            results[sched] = simulate_mix(
                ["equake", "lucas"], cfg, max_insns=4000, seed=0
            ).throughput_ipc
        assert results["2op_block"] < results["2op_ooo"]
        assert results["2op_block"] < results["traditional"]
        assert results["2op_ooo"] > 0.9 * results["traditional"]

    def test_warmup_changes_results(self):
        cfg = paper_machine()
        cold = simulate_mix(["gzip"], cfg, max_insns=2000, seed=0, warmup=1)
        warm = simulate_mix(["gzip"], cfg, max_insns=2000, seed=0,
                            warmup=20_000)
        assert warm.throughput_ipc > cold.throughput_ipc

    def test_wedge_detection_is_quiet_on_healthy_runs(self):
        cfg = paper_machine(scheduler="2op_ooo")
        simulate_mix(["mcf"], cfg, max_insns=1500, seed=0, warmup=3000)


class TestStatsConsistency:
    def test_extras_match_recomputation(self):
        cfg = paper_machine(scheduler="2op_block", iq_size=32)
        traces = thread_traces(["equake", "lucas"], 2000, 0, 3000)
        core = SMTProcessor(cfg, traces, warmup=3000)
        stats = core.run(2000)
        assert stats.all_blocked_2op_cycles <= stats.no_dispatch_cycles
        assert stats.issued >= stats.committed_total
        assert stats.renamed >= stats.dispatched
        assert stats.iq_residency_count <= stats.issued

    def test_dab_only_for_ooo_buffer_mode(self):
        for sched, has_dab in (("traditional", False), ("2op_block", False),
                               ("2op_ooo", True)):
            cfg = paper_machine(scheduler=sched)
            traces = thread_traces(["gzip"], 500, 0, 600)
            core = SMTProcessor(cfg, traces, warmup=600)
            assert (core.dab is not None) == has_dab

    def test_watchdog_only_in_watchdog_mode(self):
        cfg = paper_machine(scheduler="2op_ooo", deadlock_mode="watchdog")
        traces = thread_traces(["gzip"], 500, 0, 600)
        core = SMTProcessor(cfg, traces, warmup=600)
        assert core.watchdog is not None
        assert core.dab is None
