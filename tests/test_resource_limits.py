"""Structural-resource corner cases: every back-pressure path of the
pipeline exercised in isolation."""

import pytest

from repro.config.presets import small_machine, tiny_machine
from repro.isa.opcodes import OpClass
from repro.pipeline.smt_core import SMTProcessor
from tests.trace_builder import TraceBuilder


def run(trace, cfg, max_insns=10_000):
    core = SMTProcessor(cfg, [trace] if not isinstance(trace, list) else trace)
    stats = core.run(max_insns)
    return core, stats


class TestIssueWidth:
    def test_issue_width_caps_per_cycle_issues(self):
        """More ready instructions than issue width: completion must be
        spread over ceil(n/width) cycles."""
        cfg = small_machine()  # 4-wide
        trace = TraceBuilder().nops(64).build()
        core = SMTProcessor(cfg, [trace])
        issues_per_cycle = {}
        issue = core._issue

        def counting(cycle):
            before = core.stats.issued
            issue(cycle)
            issues_per_cycle[cycle] = core.stats.issued - before

        core._issue = counting
        core.run(10_000)
        assert sum(issues_per_cycle.values()) == 64
        assert max(issues_per_cycle.values()) <= cfg.issue_width


class TestCommitWidth:
    def test_commit_width_caps_retirement(self):
        cfg = small_machine()
        trace = TraceBuilder().nops(64).build()
        core = SMTProcessor(cfg, [trace])
        prev = 0
        while not core.threads[0].drained:
            core.step()
            now = core.stats.committed_total
            assert now - prev <= cfg.commit_width
            prev = now


class TestRobFull:
    def test_rob_full_stalls_rename_not_correctness(self):
        """A memory-missing head instruction lets the ROB fill behind it;
        everything must still retire in order afterwards."""
        cfg = tiny_machine()  # 8-entry ROB
        tb = TraceBuilder()
        tb.load(dest=1, addr=0x100000)  # miss at the head
        tb.nops(30)                     # far more than the ROB holds
        core, stats = run(tb.build(), cfg)
        assert stats.committed_total == 31
        # The window never exceeded its capacity (validate() checks this
        # structurally, but assert the high-water mark explicitly).
        assert len(core.threads[0].rob) == 0


class TestLsqFull:
    def test_lsq_full_stalls_memory_ops(self):
        cfg = tiny_machine()  # 4-entry LSQ
        tb = TraceBuilder()
        tb.load(dest=1, addr=0x100000)  # long miss holds LSQ entries
        for i in range(12):
            tb.load(dest=2 + (i % 3), addr=0x40 + 8 * i)
        core, stats = run(tb.build(), cfg)
        assert stats.committed_total == 13

    def test_non_memory_ops_unaffected_by_lsq(self):
        cfg = tiny_machine()
        trace = TraceBuilder().nops(40).build()
        _, stats = run(trace, cfg)
        assert stats.committed_total == 40


class TestPhysRegExhaustion:
    def test_rename_stalls_until_commit_frees_registers(self):
        """tiny_machine has 48 int physical registers, 31 of which back
        the architectural state: only 17 in-flight destinations fit. A
        long stream of dest-writing instructions behind a miss must
        stall rename and then recover."""
        cfg = tiny_machine()
        tb = TraceBuilder()
        tb.load(dest=1, addr=0x100000)
        for i in range(40):
            tb.ialu(dest=2 + (i % 20))
        core, stats = run(tb.build(), cfg)
        assert stats.committed_total == 41
        # Free list must be whole again after the drain.
        assert len(core.renamer.int_free) == (
            cfg.int_phys_regs - 31  # architectural mappings still held
        )


class TestFuContention:
    def test_divider_contention_defers_but_preserves_oldest_first(self):
        """Five divides on four divider units: the fifth must wait the
        full occupancy interval, younger adds may pass it."""
        cfg = small_machine()
        tb = TraceBuilder()
        for _ in range(5):
            tb.add(OpClass.IDIV, dest=1)
        tb.ialu(dest=2)  # independent add can issue around the divides
        core, stats = run(tb.build(), cfg)
        assert stats.committed_total == 6

    def test_heavy_div_stream_throughput_is_interval_bound(self):
        """IDIV occupies its unit for 19 cycles; 4 units bound steady
        throughput to ~4/19 per cycle."""
        cfg = small_machine()
        tb = TraceBuilder()
        for _ in range(40):
            tb.add(OpClass.IDIV, dest=1)
        _, stats = run(tb.build(), cfg)
        assert stats.throughput_ipc < 0.35


class TestDispatchBufferDepth:
    def test_shallow_buffer_limits_ooo_lookahead(self):
        """With a 2-deep dispatch buffer the OOO scheduler can only jump
        one instruction past an NDI; with a deep buffer it overlaps the
        next miss. Deeper lookahead must not be slower."""
        def trace():
            tb = TraceBuilder()
            for ep in range(8):
                base = 0x100000 * (ep + 1)
                tb.load(dest=1, addr=base)
                tb.load(dest=2, addr=base + 0x8000)
                tb.ialu(dest=3, src1=1, src2=2)
                for i in range(10):
                    tb.ialu(dest=4 + (i % 4))
            return tb.build()

        shallow = small_machine(scheduler="2op_ooo", dispatch_buffer_depth=2)
        deep = small_machine(scheduler="2op_ooo", dispatch_buffer_depth=32)
        _, s_shallow = run(trace(), shallow)
        _, s_deep = run(trace(), deep)
        assert s_deep.cycles <= s_shallow.cycles


class TestTraceExhaustion:
    def test_thread_drains_when_trace_ends_midflight(self):
        t0 = TraceBuilder().nops(10).build()
        t1 = TraceBuilder().nops(500).build()
        cfg = small_machine()
        core = SMTProcessor(cfg, [t0, t1])
        stats = core.run(10_000)
        assert stats.committed[0] == 10
        assert stats.committed[1] == 500
        assert core.threads[0].drained and core.threads[1].drained
