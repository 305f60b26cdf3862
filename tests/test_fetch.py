"""Fetch-stage unit tests: I-Count ordering, fetch breaks, stalls."""

from repro.config.presets import small_machine
from repro.frontend.icount import icount_order, round_robin_order
from repro.pipeline.dynamic import DynInstr
from repro.pipeline.smt_core import SMTProcessor
from tests.trace_builder import TraceBuilder, record_fetched


class FakeThread:
    def __init__(self, tid, icount):
        self.tid = tid
        self.icount = icount


class TestOrderingPolicies:
    def test_icount_prefers_fewest_inflight(self):
        threads = [FakeThread(0, 10), FakeThread(1, 2), FakeThread(2, 5)]
        order = icount_order(threads, cycle=0)
        assert [t.tid for t in order] == [1, 2, 0]

    def test_icount_rotates_ties(self):
        threads = [FakeThread(0, 3), FakeThread(1, 3)]
        first = icount_order(threads, cycle=0)[0].tid
        second = icount_order(threads, cycle=1)[0].tid
        assert {first, second} == {0, 1}

    def test_round_robin_rotates(self):
        threads = [FakeThread(i, 0) for i in range(3)]
        assert [t.tid for t in round_robin_order(threads, 0)] == [0, 1, 2]
        assert [t.tid for t in round_robin_order(threads, 1)] == [1, 2, 0]

    def test_single_thread(self):
        threads = [FakeThread(0, 0)]
        assert icount_order(threads, 5) == threads
        assert round_robin_order(threads, 5) == threads


class TestFetchBehaviour:
    def test_fetched_instructions_match_the_reference_constructor(self):
        """The fetch loop writes each ``DynInstr`` field by hand; every
        field must equal what ``DynInstr.__init__`` builds from the same
        trace row (prediction state aside: fetch adds it to branches)."""
        tb = TraceBuilder()
        tb.ialu(dest=1, src1=2, src2=3)
        tb.load(dest=4, src1=1, addr=0x40)
        tb.store(src1=4, src2=1, addr=0x80)
        tb.branch(src1=4, target=0x100)
        trace = tb.build()
        core = SMTProcessor(small_machine(), [trace])
        fetched = record_fetched(core)
        core.step()
        assert [instr.tseq for instr in fetched] == [0, 1, 2, 3]
        for idx, instr in enumerate(fetched):
            ref = DynInstr(
                tid=0, seq=idx, tseq=idx, op=trace.op[idx],
                pc=trace.pc[idx], addr=trace.addr[idx],
                taken=trace.taken[idx], target=trace.target[idx],
                dest_l=trace.dest[idx], src1_l=trace.src1[idx],
                src2_l=trace.src2[idx], fetch_cycle=0,
            )
            for name in DynInstr.__slots__:
                if name not in ("prediction", "mispredicted"):
                    assert getattr(instr, name) == getattr(ref, name), name
            assert (instr.prediction is not None) == instr.is_branch

    def test_fetch_width_respected(self):
        cfg = small_machine()  # fetch_width 4
        trace = TraceBuilder().nops(100).build()
        core = SMTProcessor(cfg, [trace])
        core.step()
        assert core.stats.fetched <= cfg.fetch_width

    def test_two_thread_limit(self):
        cfg = small_machine()
        traces = [TraceBuilder().nops(50).build() for _ in range(3)]
        core = SMTProcessor(cfg, traces)
        core.step()
        fetched_threads = sum(
            1 for n in core.stats.fetched_per_thread if n > 0
        )
        assert fetched_threads <= cfg.fetch_threads_per_cycle

    def test_taken_branch_breaks_fetch_group(self):
        """A predicted-taken branch ends its thread's fetch group; train
        the predictor via warmup so the prediction is actually taken."""
        tb = TraceBuilder()
        for _ in range(50):
            tb.branch(taken=True, target=0, pc=0)
            tb.ialu(pc=0 + 4)  # fall-through instruction never reached
        # Build a loop-shaped trace: branch at pc0 -> target 0.
        trace = tb.build()
        cfg = small_machine()
        core = SMTProcessor(cfg, [trace], warmup=60)
        core.step()
        # At most one branch fetched in the first group once predicted
        # taken (and never more than fetch width).
        assert core.stats.fetched <= cfg.fetch_width

    def test_icache_miss_stalls_thread(self):
        trace = TraceBuilder().nops(20).build(warm_code=False)
        cfg = small_machine()
        core = SMTProcessor(cfg, [trace])
        core.step()
        ts = core.threads[0]
        assert core.stats.fetched == 0  # first access misses everything
        assert ts.stalled_until > 0

    def test_pipe_capacity_backpressure(self):
        """With rename hard-blocked (no ROB progress), fetch stops once
        the front-end pipe fills."""
        cfg = small_machine()
        trace = TraceBuilder().nops(500).build()
        core = SMTProcessor(cfg, [trace])
        ts = core.threads[0]
        for _ in range(100):
            core.fetch_unit.fetch_cycle(core, core.cycle)
            core.cycle += 1
        assert len(ts.pipe) <= ts.pipe_capacity


class TestRoundRobinConfig:
    def test_round_robin_machine_runs(self):
        cfg = small_machine(fetch_policy="round_robin")
        traces = [TraceBuilder().nops(80).build() for _ in range(2)]
        core = SMTProcessor(cfg, traces)
        stats = core.run(10_000)
        assert stats.committed_total == 160


class TestStallPolicy:
    def _miss_bound_trace(self):
        tb = TraceBuilder()
        for i in range(30):
            tb.load(dest=1, addr=0x100000 * (i + 1))  # memory miss each
            tb.ialu(dest=2, src1=1)
        return tb.build()

    def test_stall_gates_fetch_during_misses(self):
        cfg = small_machine(fetch_policy="stall")
        core = SMTProcessor(cfg, [self._miss_bound_trace()])
        stats = core.run(10_000)
        assert stats.committed_total == 60  # still completes

    def test_stall_protects_partner_thread(self):
        fast = TraceBuilder().nops(3000).build()
        results = {}
        for policy in ("round_robin", "stall"):
            cfg = small_machine(fetch_policy=policy)
            core = SMTProcessor(cfg, [self._miss_bound_trace(), fast])
            stats = core.run(10_000)
            results[policy] = stats.committed[1]
        # Gating the miss-bound thread leaves at least as much front-end
        # and queue capacity for the healthy thread.
        assert results["stall"] >= results["round_robin"]

    def test_pending_miss_counter_returns_to_zero(self):
        cfg = small_machine(fetch_policy="stall")
        core = SMTProcessor(cfg, [self._miss_bound_trace()])
        core.run(10_000)
        assert core.threads[0].pending_long_misses == 0


class TestDabExclusiveConfig:
    def test_dab_exclusive_machine_runs(self):
        from repro.config.presets import paper_machine
        from repro.experiments.runner import simulate_mix

        cfg = paper_machine(iq_size=32, scheduler="2op_ooo",
                            dab_exclusive=True)
        r = simulate_mix(["equake", "gzip"], cfg, max_insns=1200,
                         warmup=2000)
        assert r.throughput_ipc > 0
