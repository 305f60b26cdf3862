"""Stat-accounting and boundary invariants seeded by mutation analysis.

Each test here kills specific mutants that survived the first full
``python -m repro.analysis mutate src/repro/pipeline`` run — faults
that keep the simulator running and the headline stats digests
(cycles/committed/extras) well-formed while silently corrupting the
secondary counters the paper's stall-attribution figures are built
from. See docs/analysis.md, "Baseline and survivor triage". Little's
law on the issue queue, a conservation law over the same counters,
is pinned here too.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.config.presets import paper_machine, small_machine
from repro.experiments.runner import thread_traces
from repro.isa.opcodes import OP_INTERVAL, OpClass
from repro.pipeline.fu import FunctionalUnitPool
from repro.pipeline.lsq import LoadStoreQueue
from repro.pipeline.rob import ReorderBuffer
from repro.pipeline.smt_core import SMTProcessor
from repro.pipeline.thread import ThreadState
from tests.trace_builder import TraceBuilder, record_fetched


def mixed_trace(n=300):
    tb = TraceBuilder()
    for i in range(n):
        k = i % 5
        if k == 0:
            tb.load(dest=1 + (i % 6), addr=0x1000 + (i % 8) * 8)
        elif k == 1:
            tb.ialu(dest=1 + (i % 6), src1=1 + ((i + 1) % 6))
        elif k == 2:
            tb.store(src1=1 + (i % 6), addr=0x1000 + (i % 8) * 8)
        elif k == 3:
            tb.ialu(dest=1 + (i % 6), src1=1 + ((i + 2) % 6),
                    src2=1 + ((i + 3) % 6))
        else:
            tb.branch(src1=1 + (i % 6))
    return tb.build()


# ----------------------------------------------------------------------
# conservation: Little's law on the issue queue
# ----------------------------------------------------------------------
class TestLittlesLaw:
    @pytest.mark.parametrize("ff", [True, False], ids=["ff", "no-ff"])
    @pytest.mark.parametrize("sched", ["traditional", "2op_block",
                                       "2op_ooo"])
    @pytest.mark.parametrize("mix", [
        ("parser", "vortex"), ("mcf", "gcc", "art", "equake"),
    ], ids=["2T", "4T"])
    def test_occupancy_integral_is_residency_plus_time_still_queued(
            self, mix, sched, ff):
        """Summed over cycles, the IQ's occupancy equals the residency
        of every IQ issue plus the time the entries still in the IQ
        have waited so far: each entry is counted once per cycle it
        holds, whichever stage, fast-forward span or DAB rescue ends
        its stay. The sanitizer checks the same law on the way."""
        traces = thread_traces(list(mix), 4000, 0, 2000)
        cfg = paper_machine(scheduler=sched, iq_size=32, sanitize=True)
        core = SMTProcessor(cfg, traces, warmup=2000, fast_forward=ff)
        stats = core.run(4000)
        assert stats.sanitizer_checks > 0
        queued = sum(core.cycle - instr.dispatch_cycle
                     for ts in core.threads for instr in ts.rob
                     if instr.in_iq)
        assert queued > 0
        assert stats.iq_occupancy_integral == (stats.iq_residency_sum
                                               + queued)
        if sched == "2op_ooo" and len(mix) == 4:
            assert stats.dab_issues > 0  # DAB issues are covered


# ----------------------------------------------------------------------
# issue/dispatch/residency accounting identities
# ----------------------------------------------------------------------
class TestIssueAccounting:
    @pytest.mark.parametrize("sched", ["traditional", "2op_block",
                                       "2op_ooo"])
    def test_counters_balance_on_a_drained_flushless_run(self, sched):
        """In a drained run with no watchdog flushes, every committed
        instruction was dispatched exactly once and issued exactly
        once, and IQ residency samples cover exactly the non-DAB
        issues."""
        cfg = small_machine(scheduler=sched)
        core = SMTProcessor(cfg, [mixed_trace(), mixed_trace(200)])
        s = core.run(20_000)
        assert s.watchdog_flushes == 0
        assert s.committed_total == 500
        assert s.dispatched == s.committed_total
        assert s.issued == s.committed_total
        assert s.iq_residency_count == s.issued - s.dab_issues
        # Dispatch and issue are distinct pipeline stages: nothing can
        # issue on its dispatch cycle, so every sample is >= 1 cycle.
        assert s.iq_residency_sum >= s.iq_residency_count

    def test_observed_issues_match_the_counters_exactly(self):
        """The fetched instructions' issue records recompute issued /
        iq_residency_{sum,count} independently; the stats must agree
        exactly (catches dropped *and* doubled increments)."""
        core = SMTProcessor(small_machine(iq_size=8), [mixed_trace(120)])
        instrs = record_fetched(core)
        s = core.run(10_000)
        issued = [i for i in instrs if i.issued]
        # The traditional scheduler has no DAB: every issue is an IQ issue.
        assert s.dab_issues == 0
        assert s.issued == len(issued) == 120
        assert s.iq_residency_sum == sum(
            i.issue_cycle - i.dispatch_cycle for i in issued
        )
        assert s.iq_residency_count == len(issued)

    def test_long_miss_classification_is_exact(self):
        """Only L2 misses are long misses, and a memory access sits
        *exactly* on the ``extra >= memory_latency`` boundary: cold
        4 KiB-strided loads must all be flagged, warmed L1 hits must
        not (catches both off-by-one directions and the swapped
        comparison on the IQ issue path; the DAB path has its own test
        in tests/test_smt_core.py)."""
        tb = TraceBuilder()
        for i in range(8):
            tb.load(dest=1 + (i % 4), addr=0x200000 + i * 4096)
        for _ in range(10):
            tb.load(dest=5, addr=0x500)
        core = SMTProcessor(small_machine(), [tb.build(warm_addrs=[0x500])])
        instrs = record_fetched(core)
        s = core.run(10_000)
        assert s.committed_total == 18
        assert sum(i.long_miss for i in instrs) == 8
        # The gauge balances: each of the 8 increments was paired
        # with exactly one writeback decrement.
        assert core.threads[0].pending_long_misses == 0

    def test_rotation_starts_at_the_current_cycle_thread(self):
        """Round-robin priority rotation: on cycle ``c`` the rotation
        leads with thread ``c % nthreads`` (a phase shift starves the
        paper's fairness assumption)."""
        traces = [mixed_trace(8) for _ in range(3)]
        core = SMTProcessor(small_machine(), traces)
        for c in range(4):
            assert [ts.tid for ts in core._rotations[c % 3]] == [
                (c + i) % 3 for i in range(3)
            ]

    def test_pending_long_misses_drain_back_to_zero(self):
        """Every long-miss load increments the per-thread gauge at
        issue and decrements it at writeback: a drained pipeline must
        land on exactly zero (a dropped increment goes negative, a
        doubled one stays positive)."""
        tb = TraceBuilder()
        for i in range(40):
            tb.load(dest=1 + (i % 4), addr=0x100000 + i * 4096)
            tb.ialu(dest=5, src1=1 + (i % 4))
        core = SMTProcessor(small_machine(), [tb.build()])
        s = core.run(10_000)
        assert s.committed_total == 80
        assert all(ts.pending_long_misses == 0 for ts in core.threads)
        # The scenario actually exercised the gauge: cold 4 KiB-strided
        # loads must long-miss.
        assert s.iq_residency_count > 0

    def test_dispatch_stall_attribution_is_pinned(self):
        """Deterministic tiny-IQ pileup: a long-miss load with 30
        dependents on a 4-entry IQ. The stall attribution counters are
        exact (a dropped or doubled increment moves them)."""
        tb = TraceBuilder()
        tb.load(dest=1, addr=0x90000)
        for i in range(30):
            tb.ialu(dest=2 + (i % 4), src1=1)
        core = SMTProcessor(small_machine(iq_size=4), [tb.build()])
        s = core.run(10_000)
        assert s.committed_total == 31
        assert s.watchdog_flushes == 0
        assert s.no_dispatch_cycles == 101
        assert s.iq_full_dispatch_stalls == 101

    def test_watchdog_flush_count_is_exact(self):
        """The §4 watchdog scenario flushes exactly twice — not
        'at least once' (a doubled counter would report four)."""
        tb = TraceBuilder()
        tb.load(dest=1, addr=0x10000)
        tb.load(dest=2, addr=0x20000)
        for i in range(10):
            tb.ialu(dest=3 + (i % 4), src1=1, src2=2)
        cfg = small_machine(scheduler="2op_ooo", deadlock_mode="watchdog",
                            watchdog_cycles=20)
        core = SMTProcessor(cfg, [tb.build()])
        s = core.run(10_000)
        assert s.committed_total == 12
        assert s.watchdog_flushes == 2


# ----------------------------------------------------------------------
# structure boundary conditions
# ----------------------------------------------------------------------
class TestStructureBoundaries:
    def test_rob_capacity_guard_is_exact(self):
        with pytest.raises(ValueError):
            ReorderBuffer(0)
        assert ReorderBuffer(1).capacity == 1

    def test_lsq_capacity_guard_is_exact(self):
        with pytest.raises(ValueError):
            LoadStoreQueue(0)
        assert LoadStoreQueue(1).capacity == 1

    def test_rob_flags_duplicate_tseq_as_order_violation(self):
        """Program order is *strict*: a repeated tseq is a violation,
        not a tie."""
        rob = ReorderBuffer(4)
        rob.allocate(SimpleNamespace(tseq=1))
        rob.allocate(SimpleNamespace(tseq=2))
        assert rob.first_order_violation() is None
        rob.allocate(SimpleNamespace(tseq=2))
        bad = rob.first_order_violation()
        assert bad is not None and bad.tseq == 2

    def test_fu_frees_exactly_at_the_boundary_cycle(self):
        """A claimed unit is busy through ``free_at - 1`` and usable
        again *at* ``free_at`` — both off-by-one directions checked."""
        fu = FunctionalUnitPool(small_machine())
        op = int(OpClass.IALU)
        claimed = 0
        while fu.try_claim(op, 0):
            claimed += 1
        assert claimed > 0
        free_at = OP_INTERVAL[op]
        assert free_at > 0
        assert not fu.available(op, free_at - 1)
        assert fu.available(op, free_at)
        assert fu.try_claim(op, free_at)

    def test_lsq_forwards_only_strictly_older_stores(self):
        lsq = LoadStoreQueue(8)
        lsq.allocate(SimpleNamespace(tseq=5, is_store=True, addr=0x40))
        newer = SimpleNamespace(tseq=6, is_store=False, addr=0x40)
        same = SimpleNamespace(tseq=5, is_store=False, addr=0x40)
        assert lsq.can_forward(newer) is True
        assert lsq.can_forward(same) is False

    def test_flush_resumes_from_the_oldest_inflight_instruction(self):
        """With an empty ROB the front-end pipe holds the oldest
        squashed instruction; fetch must rewind to it (min, not
        max)."""
        cfg = small_machine()
        ts = ThreadState(0, mixed_trace(50), cfg)
        ts.fetch_idx = 10
        ts.pipe.append((3, SimpleNamespace(tseq=3)))
        resume = ts.flush_inflight(resume_cycle=20)
        assert resume == 3
        assert ts.fetch_idx == 3
