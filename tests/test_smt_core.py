"""Cycle-accurate behaviour tests of the SMT core on hand-built traces."""

import pytest

from repro.config.presets import small_machine, tiny_machine
from repro.isa.opcodes import OpClass
import repro.pipeline.smt_core as smt_core
from repro.pipeline.smt_core import SMTProcessor, clear_warm_state_cache
from tests.trace_builder import TraceBuilder, record_fetched


def run_core(traces, cfg=None, max_insns=10_000):
    cfg = cfg or small_machine()
    core = SMTProcessor(cfg, traces if isinstance(traces, list) else [traces])
    stats = core.run(max_insns)
    return core, stats


def run_recorded(trace, cfg=None, max_insns=10_000):
    """Run one thread; returns (every fetched instruction, stats)."""
    core = SMTProcessor(cfg or small_machine(), [trace])
    fetched = record_fetched(core)
    return fetched, core.run(max_insns)


class TestBasicExecution:
    def test_empty_chain_completes(self):
        trace = TraceBuilder().nops(20).build()
        core, stats = run_core(trace)
        assert stats.committed_total == 20
        assert core.threads[0].drained

    def test_stop_after_budget(self):
        trace = TraceBuilder().nops(50).build()
        _, stats = run_core(trace, max_insns=10)
        assert stats.committed[0] >= 10

    def test_independent_instructions_reach_machine_width(self):
        trace = TraceBuilder().nops(400).build()
        _, stats = run_core(trace)
        # 4-wide small machine on dependence-free code: close to width.
        assert stats.throughput_ipc > 3.0

    def test_serial_chain_runs_at_one_ipc(self):
        tb = TraceBuilder()
        for i in range(200):
            tb.ialu(dest=1 + (i % 8), src1=1 + ((i - 1) % 8) if i else -1)
        core, stats = run_core(tb.build())
        # Fully serial single-cycle chain: one instruction per cycle plus
        # pipeline fill.
        assert 0.8 < stats.throughput_ipc <= 1.05

    def test_rejects_empty_thread_list(self):
        with pytest.raises(ValueError):
            SMTProcessor(small_machine(), [])

    def test_rejects_bad_warmup(self):
        trace = TraceBuilder().nops(10).build()
        with pytest.raises(ValueError):
            SMTProcessor(small_machine(), [trace], warmup=10)

    def test_rejects_bad_budget(self):
        trace = TraceBuilder().nops(10).build()
        core = SMTProcessor(small_machine(), [trace])
        with pytest.raises(ValueError):
            core.run(0)
        for max_cycles in (0, -5):
            with pytest.raises(ValueError, match="max_cycles"):
                core.run(10, max_cycles=max_cycles)
        assert core.stats.cycles == 0


class TestDependenceTiming:
    def test_back_to_back_dependent_issue(self):
        """A single-cycle producer wakes its consumer for the next cycle."""
        tb = TraceBuilder()
        tb.nops(1)
        tb.ialu(dest=1)           # producer
        tb.ialu(dest=2, src1=1)   # consumer
        instrs, _ = run_recorded(tb.build())
        producer = instrs[1]
        consumer = instrs[2]
        assert consumer.issue_cycle == producer.issue_cycle + 1

    def test_multicycle_producer_delays_consumer(self):
        tb = TraceBuilder()
        tb.add(OpClass.IMUL, dest=1)      # latency 3
        tb.ialu(dest=2, src1=1)
        instrs, _ = run_recorded(tb.build())
        mul, consumer = instrs[0], instrs[1]
        assert consumer.issue_cycle == mul.issue_cycle + 3

    def test_load_miss_latency_reaches_consumer(self):
        cfg = small_machine()
        tb = TraceBuilder()
        tb.load(dest=1, addr=0x4000)      # cold -> memory latency
        tb.ialu(dest=2, src1=1)
        instrs, _ = run_recorded(tb.build(), cfg)
        load, consumer = instrs[0], instrs[1]
        expected = load.issue_cycle + 2 + cfg.mem.memory_latency
        assert consumer.issue_cycle == expected

    def test_warm_load_is_fast(self):
        cfg = small_machine()
        tb = TraceBuilder()
        tb.load(dest=1, addr=0x40)
        tb.ialu(dest=2, src1=1)
        instrs, _ = run_recorded(tb.build(warm_addrs=[0x40]), cfg)
        load, consumer = instrs[0], instrs[1]
        assert consumer.issue_cycle == load.issue_cycle + 2

    def test_store_forwarding_avoids_cache_miss(self):
        cfg = small_machine()
        tb = TraceBuilder()
        tb.ialu(dest=1)
        tb.store(src1=1, addr=0x4000)
        tb.load(dest=2, addr=0x4000)     # forwarded from the store
        tb.ialu(dest=3, src1=2)
        instrs, stats = run_recorded(tb.build(), cfg)
        load = instrs[2]
        assert load.forwarded
        assert stats.store_forwards == 1
        consumer = instrs[3]
        assert consumer.issue_cycle == load.issue_cycle + 2


class TestFrontEnd:
    def test_frontend_depth_delay(self):
        """First instruction cannot issue before the front end drains."""
        cfg = small_machine()
        trace = TraceBuilder().nops(5).build()
        instrs, _ = run_recorded(trace, cfg)
        first = instrs[0]
        assert first.fetch_cycle == 0
        # fetch at 0, rename at depth-1, dispatch >= depth, issue > dispatch
        assert first.issue_cycle >= cfg.frontend_depth

    def test_mispredicted_branch_stalls_fetch_until_resolution(self):
        tb = TraceBuilder()
        tb.branch(taken=True, target=8, pc=0)   # cold predictor+BTB
        tb.ialu(dest=1, pc=8)
        instrs, _ = run_recorded(tb.build())
        branch, after = instrs[0], instrs[1]
        assert branch.mispredicted
        # The next instruction is fetched only after the branch resolves.
        assert after.fetch_cycle > branch.complete_cycle

    def test_correctly_predicted_not_taken_has_no_bubble(self):
        tb = TraceBuilder()
        # Train the same (not-taken) branch repeatedly: after warmup the
        # fetch stream should be contiguous.
        for _ in range(60):
            tb.branch(taken=False, pc=0x100)
            tb.ialu(dest=1, pc=0x104)
        instrs, stats = run_recorded(tb.build())
        later = [i for i in instrs if i.seq > 100 and i.is_branch]
        assert any(not b.mispredicted for b in later)
        assert stats.branch_mispredict_rate < 0.5

    def test_icount_counts_are_consistent(self):
        trace = TraceBuilder().nops(50).build()
        core, _ = run_core(trace)
        core.validate()


class TestMultiThread:
    def test_two_threads_share_the_machine(self):
        t0 = TraceBuilder().nops(300).build()
        t1 = TraceBuilder().nops(300).build()
        core, stats = run_core([t0, t1])
        assert stats.committed[0] > 0 and stats.committed[1] > 0

    def test_stalled_thread_does_not_block_the_other(self):
        """Thread 0 is a serial chain of memory misses; thread 1 is
        dependence-free. Thread 1 must make far more progress."""
        slow = TraceBuilder()
        for i in range(100):
            slow.load(dest=1, src1=1 if i else -1, addr=0x10000 * (i + 1))
        fast = TraceBuilder().nops(2000).build()
        core, stats = run_core([slow.build(), fast])
        assert stats.committed[1] > stats.committed[0] * 5

    def test_commit_is_per_thread_in_order(self):
        t0 = TraceBuilder().nops(100).build()
        t1 = TraceBuilder().nops(100).build()
        core, _ = run_core([t0, t1])
        # Completion may be out of order; commit order is asserted
        # structurally by ReorderBuffer, checked via validate().
        core.validate()

    def test_determinism(self):
        def one_run():
            t0 = TraceBuilder().nops(200).build()
            t1 = TraceBuilder().nops(200).build()
            _, stats = run_core([t0, t1])
            return stats.cycles, tuple(stats.committed)
        assert one_run() == one_run()


class TestSchedulerBehaviour:
    def _blocking_trace(self):
        """A 2-non-ready instruction behind two miss loads, with
        independent work piled up behind it."""
        tb = TraceBuilder()
        tb.load(dest=1, addr=0x10000)
        tb.load(dest=2, addr=0x20000)
        tb.ialu(dest=3, src1=1, src2=2)  # NDI until a load returns
        for i in range(40):
            tb.ialu(dest=4 + (i % 4))     # independent HDIs
        return tb.build()

    def test_2op_block_blocks_thread(self):
        cfg = small_machine(scheduler="2op_block")
        core, stats = run_core(self._blocking_trace(), cfg)
        assert stats.blocked_2op_cycles[0] > 0
        assert stats.all_blocked_2op_cycles > 0

    def test_traditional_never_2op_blocks(self):
        cfg = small_machine(scheduler="traditional")
        _, stats = run_core(self._blocking_trace(), cfg)
        assert stats.all_blocked_2op_cycles == 0

    def test_ooo_dispatches_hdis_past_the_ndi(self):
        cfg = small_machine(scheduler="2op_ooo")
        core, stats = run_core(self._blocking_trace(), cfg)
        assert stats.ooo_dispatched > 0

    def test_ooo_faster_than_2op_block_on_recurring_ndis(self):
        """2OP_BLOCK stalls at every NDI, serialising the cache misses;
        out-of-order dispatch lets the next episode's miss loads issue
        under the shadow of the current one (memory-level parallelism),
        so the same trace finishes in far fewer cycles."""
        tb = TraceBuilder()
        for ep in range(20):
            base = 0x100000 * (ep + 1)
            tb.load(dest=1, addr=base)            # cold miss
            tb.load(dest=2, addr=base + 0x8000)   # cold miss
            tb.ialu(dest=3, src1=1, src2=2)       # NDI for ~the full miss
            for i in range(12):
                tb.ialu(dest=4 + (i % 4))         # independent HDIs
        trace = tb.build()
        _, block = run_core(trace, small_machine(scheduler="2op_block"))
        _, ooo = run_core(trace, small_machine(scheduler="2op_ooo"))
        assert block.committed_total == ooo.committed_total == len(trace.op)
        assert ooo.cycles < 0.8 * block.cycles

    def test_all_schedulers_commit_everything(self):
        trace = self._blocking_trace()
        for sched in ("traditional", "2op_block", "2op_ooo",
                      "2op_ooo_filtered"):
            _, stats = run_core(trace, small_machine(scheduler=sched))
            assert stats.committed_total == len(trace.op)

    def test_reduced_iq_never_holds_two_nonready(self):
        """The IssueQueue asserts the comparator budget internally; a
        full 2op run exercising it must not raise."""
        run_core(self._blocking_trace(), small_machine(scheduler="2op_block"))


class TestDeadlockMachinery:
    def test_dab_takes_rob_oldest_when_iq_full(self):
        """Construct the §4 deadlock scenario directly: the ROB-oldest
        instruction is denied an IQ entry that is held by a younger
        dependent dispatched out of order."""
        from repro.pipeline.dynamic import DynInstr

        cfg = tiny_machine(scheduler="2op_ooo", iq_size=1,
                           deadlock_buffer_size=1)
        trace = TraceBuilder().nops(4).build()
        core = SMTProcessor(cfg, [trace])
        ts = core.threads[0]

        def di(seq, src1_p=-1):
            d = DynInstr(tid=0, seq=seq, tseq=seq, op=int(OpClass.IALU),
                         pc=0, addr=0, taken=False, target=0, dest_l=-1,
                         src1_l=-1, src2_l=-1, fetch_cycle=0)
            d.src1_p = src1_p
            return d

        head = di(0)                 # ready, undispatched, ROB oldest
        waiter = di(1, src1_p=5)     # younger, waits on a pending reg
        core.renamer.ready[5] = 0
        ts.rob.allocate(head)
        ts.rob.allocate(waiter)
        core.iq.insert(waiter, 0)    # occupies the single IQ entry
        ts.dispatch_buffer = [head]
        ts.icount = 2

        core._dispatch(cycle=0)
        assert core.dab is not None
        assert head.in_dab
        assert core.stats.dab_inserts == 1

        # DAB instructions take precedence at select time.
        core._issue(cycle=1)
        assert head.issued
        assert core.stats.dab_issues == 1

    @pytest.mark.parametrize("in_dab, in_iq, dab_issues, left", [
        (3, 0, 2, 1),   # more ready DAB entries than issue width
        (1, 1, 1, 0),   # the DAB issue leaves one slot for the IQ
    ], ids=["dab-over-width", "dab-then-iq"])
    def test_dab_issue_is_bounded_by_issue_width(self, in_dab, in_iq,
                                                 dab_issues, left):
        """Ready DAB entries issue first, at most ``issue_width`` per
        cycle, and the IQ gets whatever width is left."""
        from repro.pipeline.dynamic import DynInstr

        cfg = tiny_machine(scheduler="2op_ooo", deadlock_buffer_size=3)
        core = SMTProcessor(cfg, [TraceBuilder().nops(4).build()])
        instrs = [
            DynInstr(tid=0, seq=seq, tseq=seq, op=int(OpClass.IALU), pc=0,
                     addr=0, taken=False, target=0, dest_l=-1, src1_l=-1,
                     src2_l=-1, fetch_cycle=0)
            for seq in range(in_dab + in_iq)
        ]
        for instr in instrs[:in_dab]:
            core.dab.insert(instr, 0)
        for instr in instrs[in_dab:]:
            core.iq.insert(instr, 0)
        core.threads[0].icount = len(instrs)

        core._issue(cycle=1)
        assert core.stats.dab_issues == dab_issues
        assert core.stats.issued == cfg.issue_width == 2
        assert len(core.dab.entries) == left

    @pytest.mark.parametrize("cold", [True, False], ids=["cold", "warm"])
    def test_dab_issued_load_accesses_memory_and_wakes_dependents(self, cold):
        """The §4 rescue end to end: two cold loads feed an NDI load,
        and its four dependents dispatch past it and fill the 4-entry
        IQ. Once the loads commit, the NDI is ROB-oldest with no IQ
        entry free, so it issues from the DAB. That issue must charge
        the cache access, set and release the long-miss gauge, and wake
        the dependents at the load's latency."""
        cfg = small_machine(scheduler="2op_ooo", iq_size=4)
        addr = 0x40000
        tb = TraceBuilder()
        tb.load(dest=1, addr=0x10000)
        tb.load(dest=2, addr=0x20000)
        tb.add(OpClass.LOAD, dest=3, src1=1, src2=2, addr=addr)  # NDI
        for i in range(4):
            tb.ialu(dest=4 + i, src1=3)
        core = SMTProcessor(cfg, [tb.build(warm_addrs=[] if cold else [addr])])
        instrs = record_fetched(core)
        stats = core.run(10_000)
        assert stats.dab_issues == 1
        assert stats.issued == stats.committed_total == 7
        load, first_dependent = instrs[2], instrs[3]
        assert load.long_miss == cold
        latency = 2 + cfg.mem.memory_latency if cold else 2
        assert first_dependent.issue_cycle == load.issue_cycle + latency
        assert core.threads[0].pending_long_misses == 0

    def test_watchdog_flush_recovers_progress(self):
        """All-NDI pileup with a tiny watchdog: the pipeline flushes and
        still commits the full trace correctly."""
        tb = TraceBuilder()
        tb.load(dest=1, addr=0x10000)
        tb.load(dest=2, addr=0x20000)
        for i in range(10):
            tb.ialu(dest=3 + (i % 4), src1=1, src2=2)  # all NDIs
        cfg = small_machine(scheduler="2op_ooo", deadlock_mode="watchdog",
                            watchdog_cycles=20)
        core, stats = run_core(tb.build(), cfg)
        assert stats.watchdog_flushes >= 1
        assert stats.committed_total == 12

    def test_buffer_mode_runs_without_flushes(self):
        trace = TraceBuilder().nops(100).build()
        cfg = small_machine(scheduler="2op_ooo", deadlock_mode="buffer")
        _, stats = run_core(trace, cfg)
        assert stats.watchdog_flushes == 0


class TestInvariants:
    @pytest.mark.parametrize("sched", ["traditional", "2op_block",
                                       "2op_ooo"])
    def test_validate_holds_throughout_run(self, sched):
        cfg = small_machine(scheduler=sched)
        t0 = self._mixed_trace()
        t1 = self._mixed_trace()
        core = SMTProcessor(cfg, [t0, t1])
        for _ in range(400):
            core.step()
            if core.cycle % 7 == 0:
                core.validate()

    @staticmethod
    def _mixed_trace():
        tb = TraceBuilder()
        for i in range(150):
            kind = i % 5
            if kind == 0:
                tb.load(dest=1 + (i % 4), addr=(i * 64) % 0x8000)
            elif kind == 1:
                tb.ialu(dest=5 + (i % 4), src1=1 + (i % 4))
            elif kind == 2:
                tb.store(src1=5 + (i % 4), addr=(i * 32) % 0x4000)
            elif kind == 3:
                tb.ialu(dest=9 + (i % 4), src1=5 + (i % 4), src2=1 + (i % 4))
            else:
                tb.ialu(dest=13 + (i % 4))
        return tb.build()

    def test_conservation_of_instructions(self):
        trace = self._mixed_trace()
        core, stats = run_core(trace)
        assert stats.fetched >= stats.renamed >= stats.committed_total
        assert stats.issued >= stats.committed_total
        assert stats.committed_total == len(trace.op)


class TestWarmStateMemo:
    """The memo bound. Its other tests are in tests/test_warmstate.py;
    this one sits among the mutation oracle's pinned tests, which see
    nothing else of a bound off by one."""

    def test_fifo_eviction_at_the_bound(self, monkeypatch):
        clear_warm_state_cache()
        builds = [0]  # cold builds: _install_residency calls
        install = SMTProcessor._install_residency

        def counting(core):
            builds[0] += 1
            install(core)

        monkeypatch.setattr(SMTProcessor, "_install_residency", counting)
        cfg = tiny_machine()
        limit = smt_core._WARM_STATE_MAX
        traces = [TraceBuilder().nops(8).build() for _ in range(limit + 1)]
        try:
            for trace in traces:
                SMTProcessor(cfg, [trace])
            assert len(smt_core._WARM_STATE) == limit
            assert builds[0] == limit + 1
            SMTProcessor(cfg, [traces[1]])  # oldest survivor: a hit
            assert builds[0] == limit + 1
            SMTProcessor(cfg, [traces[0]])  # evicted first: a miss
            assert builds[0] == limit + 2
            assert len(smt_core._WARM_STATE) == limit
        finally:
            clear_warm_state_cache()

    def test_memo_is_read_and_written_under_its_lock(self, monkeypatch):
        """Cores may be built on threads (tests/test_warmstate.py), so
        every lookup and store of the memo must hold its lock."""
        lock = smt_core._WARM_STATE_LOCK

        class Guarded(dict):
            def get(self, *args):
                assert lock.locked(), "memo read without its lock"
                return super().get(*args)

            def __setitem__(self, key, value):
                assert lock.locked(), "memo written without its lock"
                super().__setitem__(key, value)

        memo = Guarded()
        monkeypatch.setattr(smt_core, "_WARM_STATE", memo)
        builds = [0]
        install = SMTProcessor._install_residency

        def counting(core):
            builds[0] += 1
            install(core)

        monkeypatch.setattr(SMTProcessor, "_install_residency", counting)
        cfg = tiny_machine()
        trace = TraceBuilder().nops(8).build()
        SMTProcessor(cfg, [trace])  # a miss: looked up, then stored
        SMTProcessor(cfg, [trace])  # a hit
        assert builds[0] == 1
        assert len(memo) == 1
