"""The SMT processor cycle loop.

Stages are evaluated back-to-front every cycle so same-cycle structural
constraints resolve without moving an instruction through two stages in
one cycle::

    commit -> writeback events -> issue (select) -> dispatch -> rename -> fetch

Timing model (see DESIGN.md §5):

* an instruction fetched at cycle ``C`` reaches rename no earlier than
  ``C + frontend_depth - 1`` (the 5-stage front end of Table 1);
* a producer selected at cycle ``C`` with execution latency ``L`` wakes
  its consumers at ``C + L`` (full bypass: back-to-back issue for
  single-cycle ops) and retires-eligible at ``C + regread_stages + L``;
* loads resolve their cache access at select time (the trace provides
  the address), extending both wakeup and completion by the miss
  penalty; store-to-load forwarding takes the L1-hit path;
* branches resolve at completion; a misprediction stalls the thread's
  fetch from prediction time until resolution + redirect penalty.
"""

from __future__ import annotations

import threading
from heapq import heappop, heappush

from repro.analysis.contracts import stage_contract
from repro.config.machine import MachineConfig
from repro.core.deadlock import DeadlockAvoidanceBuffer, WatchdogTimer
from repro.core.iq import IssueQueue
from repro.core.scheduler import make_dispatch_policy
from repro.isa.opcodes import OP_FU, OP_INTERVAL, OP_LATENCY, OpClass
from repro.isa.registers import FP_BASE, REG_FP_ZERO, REG_INT_ZERO
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.dynamic import DynInstr
from repro.pipeline.fastforward import FastForward
from repro.pipeline.fu import FunctionalUnitPool
from repro.pipeline.stats import PipelineStats
from repro.pipeline.thread import ThreadState
from repro.rename.map_table import NO_PREG
from repro.rename.renamer import RenameUnit
from repro.trace.generator import Trace

#: Upper bound on ready-heap entries examined per select cycle. The FU
#: pools of Table 1 are wide enough that deeper scans never issue more;
#: bounding the scan keeps pathological cycles O(width).
_SELECT_SCAN_LIMIT = 64

#: Cycles without a single commit before the simulator declares itself
#: wedged (a model bug — the deadlock-avoidance machinery should make
#: this unreachable).
_WEDGE_LIMIT = 250_000

#: Period (power of two) of the HDI pile-up sampling (§4 statistic).
_HDI_SAMPLE_MASK = 15


class SMTProcessor:
    """Cycle-level SMT core executing one trace per hardware thread."""

    def __init__(self, cfg: MachineConfig, traces: list[Trace],
                 warmup: int = 0, fast_forward: bool = True) -> None:
        if not traces:
            raise ValueError("need at least one thread trace")
        if warmup < 0 or any(warmup >= len(t) for t in traces):
            raise ValueError(
                f"warmup ({warmup}) must be non-negative and shorter than "
                "every trace"
            )
        self.cfg = cfg
        self.num_threads = len(traces)
        self.renamer = RenameUnit(cfg, self.num_threads)
        self.iq = IssueQueue(
            cfg.iq_size, cfg.iq_comparators_per_entry, self.renamer.ready
        )
        self.policy = make_dispatch_policy(cfg)
        # Exact-type test: subclasses of the traditional policy must not
        # take the inlined dispatch fast path in ``_dispatch``.
        from repro.core.dispatch import InOrderDispatch

        self._policy_inorder = type(self.policy) is InOrderDispatch
        self.dab: DeadlockAvoidanceBuffer | None = None
        self.watchdog: WatchdogTimer | None = None
        if self.policy.supports_ooo:
            if cfg.deadlock_mode == "buffer":
                self.dab = DeadlockAvoidanceBuffer(cfg.deadlock_buffer_size)
            else:
                self.watchdog = WatchdogTimer(cfg.watchdog_cycles)
        self.hierarchy = MemoryHierarchy(cfg.mem)
        self.fu = FunctionalUnitPool(cfg)
        self.threads = [
            ThreadState(tid, trace, cfg) for tid, trace in enumerate(traces)
        ]
        # All n cyclic rotations of the thread list, precomputed once;
        # the stages index them by ``cycle % n`` instead of building a
        # fresh list three times per cycle.
        n = self.num_threads
        threads = self.threads
        self._rotations: tuple[tuple[ThreadState, ...], ...] = tuple(
            tuple(threads[(start + i) % n] for i in range(n))
            for start in range(n)
        )
        self._nrot = n
        self.stats = PipelineStats(num_threads=self.num_threads)
        from repro.frontend.fetch import FetchUnit

        self.fetch_unit = FetchUnit(cfg)
        # Width/latency knobs are frozen at construction; the stage loops
        # read these plain attributes instead of chasing cfg.* per cycle.
        self._commit_width = cfg.commit_width
        self._issue_width = cfg.issue_width
        self._dispatch_width = cfg.dispatch_width
        self._decode_width = cfg.decode_width
        self._buf_depth = cfg.dispatch_buffer_depth
        self._regread = cfg.regread_stages
        self._mem_latency = cfg.mem.memory_latency
        self._redirect_penalty = cfg.mispredict_redirect_penalty
        self._dab_exclusive = cfg.dab_exclusive
        self.cycle = 0
        self._seq = 0
        #: cycle -> physical registers becoming ready (wakeup broadcast).
        self._wake_events: dict[int, list[int]] = {}
        #: cycle -> instructions finishing execution (completion).
        self._done_events: dict[int, list[DynInstr]] = {}
        self._last_commit_cycle = 0
        self._events_fired = False
        self.sanitizer = None
        if cfg.sanitize:
            # Imported lazily: the analysis layer sits above the pipeline
            # and costs nothing when sanitizing is off.
            from repro.analysis.sanitizer import PipelineSanitizer

            self.sanitizer = PipelineSanitizer(self)
        #: Idle-cycle fast-forward engine (None = always step). Running
        #: with it on or off produces byte-identical ``PipelineStats``
        #: (enforced by tests/test_fastforward.py); off exists for that
        #: equivalence check and for debugging.
        self.ff: FastForward | None = (
            FastForward(self, _WEDGE_LIMIT, _HDI_SAMPLE_MASK)
            if fast_forward else None
        )
        # Cache the stage bound methods in the instance dict: step()
        # then pays one attribute lookup per stage per cycle instead of
        # a fresh descriptor bind. Lookup still happens at call time, so
        # per-instance wrappers intercept: the repro.perf stage timers,
        # the sanitizer's contract checks and the tests' observers.
        for name in ("_commit", "_apply_events", "_issue", "_dispatch",
                     "_rename"):
            setattr(self, name, getattr(self, name))
        self._fetch_cycle = self.fetch_unit.fetch_cycle
        if self.sanitizer is not None:
            # Wrap the cached stage callables with the stage-contract
            # shadow checks (same mechanism as the perf stage timers;
            # must run after the caching loop above).
            self.sanitizer.install_contract_checks()
        # Warm caches and predictors, memoised per process.
        self._warm_start(traces, warmup)
        self.hierarchy.reset_stats()

    # ------------------------------------------------------------------
    # warmup
    # ------------------------------------------------------------------
    def _install_residency(self) -> None:
        """Pre-touch each trace's steady-state resident lines (code and
        data) so reduced-scale simulations do not start from pathological
        all-cold caches; see ``Trace.warm_addrs``."""
        hierarchy = self.hierarchy
        for ts in self.threads:
            hierarchy.warm_inst(ts.trace.warm_pcs)
            hierarchy.warm_data(ts.trace.warm_addrs)

    def _warm_up(self, warmup: int) -> None:
        """Functionally replay the first ``warmup`` trace instructions of
        each thread through the branch predictors and caches, then start
        timing simulation after them.

        The paper fast-forwards each benchmark to its SimPoint region
        before measuring, so its tables/figures describe *warm*
        microarchitectural state; at the reduced instruction budgets of a
        pure-Python reproduction, cold predictors and caches would
        otherwise dominate every number (see DESIGN.md §2).
        """
        branch_op = int(OpClass.BRANCH)
        load_op = int(OpClass.LOAD)
        store_op = int(OpClass.STORE)
        line_shift = self.cfg.mem.l1i.line_bytes.bit_length() - 1
        for ts in self.threads:
            trace = ts.trace
            predictor = ts.predictor
            hierarchy = self.hierarchy
            ops = trace.op
            pcs = trace.pc
            last_block = -1
            for i in range(warmup):
                pc = pcs[i]
                block = pc >> line_shift
                if block != last_block:
                    hierarchy.access_inst(pc)
                    last_block = block
                op = ops[i]
                if op == branch_op:
                    pred = predictor.predict(
                        pc, trace.taken[i], trace.target[i]
                    )
                    predictor.resolve(
                        pc, trace.taken[i], trace.target[i], pred
                    )
                elif op == load_op or op == store_op:
                    hierarchy.access_data(trace.addr[i])
            ts.fetch_idx = warmup
            predictor.branches = 0
            predictor.mispredicts = 0
            predictor.gshare.lookups = 0
            predictor.gshare.hits = 0
            predictor.btb.lookups = 0
            predictor.btb.hits = 0

    # ------------------------------------------------------------------
    # stages
    # ------------------------------------------------------------------
    @stage_contract(
        "commit",
        reads=("core", "config", "instr"),
        writes=("rob", "lsq", "free_list", "memory", "thread", "stats",
                "core"),
    )
    def _commit(self, cycle: int) -> None:  # repro: hot
        budget = self._commit_width
        stats = self.stats
        committed = stats.committed
        renamer = self.renamer
        # Inlined RenameUnit.release: the pool boundary test replaces
        # FreeList.owns, the deque append replaces FreeList.release.
        fp_base = renamer.fp_free._base
        int_append = renamer.int_free._free.append
        fp_append = renamer.fp_free._free.append
        access_data = self.hierarchy.access_data
        total = 0
        rotations = self._rotations
        for ts in rotations[cycle % self._nrot]:
            if budget <= 0:
                break
            entries = ts.rob._entries
            lsq = ts.lsq
            n = 0
            while budget > 0 and entries:
                head = entries[0]
                if not head.completed:
                    break
                entries.popleft()
                old = head.old_dest_p
                if old >= 0:
                    if old >= fp_base:
                        fp_append(old)
                    else:
                        int_append(old)
                if head.is_load or head.is_store:
                    lsq.count -= 1  # inlined LoadStoreQueue.release
                    if head.is_store:
                        seqs = lsq._stores.get(head.addr)
                        if seqs:
                            # Stores commit in program order: head is ours.
                            del seqs[0]
                            if not seqs:
                                del lsq._stores[head.addr]
                        # Retirement write; timing charged at issue already.
                        access_data(head.addr)
                n += 1
                budget -= 1
            if n:
                ts.committed += n
                committed[ts.tid] += n
                total += n
        if total:
            stats.committed_total += total
            self._last_commit_cycle = cycle

    @stage_contract(
        "writeback",
        reads=("core", "config"),
        writes=("events", "ready", "iq", "thread", "predictor", "instr",
                "core", "stats"),
    )
    def _apply_events(self, cycle: int) -> None:  # repro: hot
        wakes = self._wake_events.pop(cycle, None)
        dones = self._done_events.pop(cycle, None)
        # Consumed by FastForward: an event changes ready bits or
        # completion flags without moving a progress counter, so the
        # cycle after one is never a safe skip origin.
        self._events_fired = wakes is not None or dones is not None
        if wakes:
            ready = self.renamer.ready
            iq = self.iq
            waiting = iq.waiting
            heap = iq.ready_heap
            for p in wakes:
                ready[p] = 1
                waiters = waiting.pop(p, None)  # inlined IssueQueue.wakeup
                if waiters:
                    for instr in waiters:
                        nw = instr.num_waiting - 1
                        instr.num_waiting = nw
                        if nw == 0 and instr.in_iq:
                            heappush(heap, (instr.seq, instr))
        if dones:
            threads = self.threads
            for instr in dones:
                instr.completed = True
                instr.complete_cycle = cycle
                if instr.long_miss:
                    threads[instr.tid].pending_long_misses -= 1
                if instr.is_branch:
                    ts = threads[instr.tid]
                    ts.predictor.resolve(
                        instr.pc, instr.taken, instr.target, instr.prediction
                    )
                    if instr.mispredicted and ts.wait_branch is instr:
                        ts.wait_branch = None
                        stall = cycle + self._redirect_penalty
                        if stall > ts.stalled_until:
                            ts.stalled_until = stall

    def _start_execution(self, instr: DynInstr, cycle: int) -> None:  # repro: hot
        """Issue ``instr`` from the deadlock-avoidance buffer. ``_issue``
        inlines these steps for IQ issues and adds a residency sample."""
        instr.issued = True
        instr.issue_cycle = cycle
        ts = self.threads[instr.tid]
        ts.icount -= 1
        self.stats.issued += 1
        extra = 0
        if instr.is_load:
            if ts.lsq.can_forward(instr):
                instr.forwarded = True
            else:
                extra = self.hierarchy.access_data(instr.addr).extra_latency
                if extra >= self._mem_latency:
                    instr.long_miss = True
                    ts.pending_long_misses += 1
        wake_at = cycle + OP_LATENCY[instr.op] + extra
        done_at = wake_at + self._regread
        if instr.dest_p >= 0:
            events = self._wake_events
            bucket = events.get(wake_at)
            if bucket is None:
                events[wake_at] = [instr.dest_p]  # repro: noqa[RPR008] — bucket birth
            else:
                bucket.append(instr.dest_p)
        events = self._done_events
        bucket = events.get(done_at)
        if bucket is None:
            events[done_at] = [instr]  # repro: noqa[RPR008] — event-bucket birth
        else:
            bucket.append(instr)

    @stage_contract(
        "issue",
        reads=("core", "config", "ready", "rob"),
        writes=("fu", "iq", "thread", "lsq", "memory", "events", "stats",
                "dab", "instr"),
    )
    def _issue(self, cycle: int) -> None:  # repro: hot
        budget = self._issue_width
        fu = self.fu
        dab = self.dab
        if dab is not None and dab.entries:
            # Deadlock-avoidance instructions take precedence (§4); their
            # sources are ready by construction.
            try_claim = fu.try_claim
            start = self._start_execution
            remaining: list[DynInstr] = []  # repro: noqa[RPR008] — rare DAB path
            for instr in dab.entries:
                if budget > 0 and try_claim(instr.op, cycle):
                    instr.in_dab = False
                    budget -= 1
                    self.stats.dab_issues += 1
                    start(instr, cycle)
                else:
                    remaining.append(instr)
            dab.entries = remaining
            if self._dab_exclusive and dab.entries:
                # Paper §4 simple arbitration: while the deadlock buffer
                # is occupied, IQ selection is disabled this cycle.
                return
        if budget <= 0:
            return
        heap = self.iq.ready_heap
        if not heap:
            return
        iq = self.iq
        fu_units = fu._units
        issued_per_class = fu.issued_per_class
        threads = self.threads
        stats = self.stats
        access_data = self.hierarchy.access_data
        mem_latency = self._mem_latency
        regread = self._regread
        wake_events = self._wake_events
        done_events = self._done_events
        deferred = None
        scanned = 0
        issued_n = 0
        resid_sum = 0
        while heap and budget > 0 and scanned < _SELECT_SCAN_LIMIT:
            item = heappop(heap)
            instr = item[1]
            scanned += 1
            if not instr.in_iq:
                continue
            op = instr.op
            # Inlined FunctionalUnitPool.try_claim.
            fuc = OP_FU[op]
            units = fu_units[fuc]
            claimed = False
            i = 0
            for free_at in units:
                if free_at <= cycle:
                    units[i] = cycle + OP_INTERVAL[op]
                    issued_per_class[fuc] += 1
                    claimed = True
                    break
                i += 1
            if claimed:
                instr.in_iq = False  # inlined IssueQueue.remove_on_issue
                iq.occupancy -= 1
                budget -= 1
                # Inlined _start_execution plus the residency sample.
                instr.issued = True
                instr.issue_cycle = cycle
                ts = threads[instr.tid]
                ts.icount -= 1
                issued_n += 1
                resid_sum += cycle - instr.dispatch_cycle
                extra = 0
                if instr.is_load:
                    # Inlined LoadStoreQueue.can_forward.
                    lsq = ts.lsq
                    seqs = lsq._stores.get(instr.addr)
                    if seqs and seqs[0] < instr.tseq:
                        lsq.forwards += 1
                        instr.forwarded = True
                    else:
                        extra = access_data(instr.addr).extra_latency
                        if extra >= mem_latency:
                            instr.long_miss = True
                            ts.pending_long_misses += 1
                wake_at = cycle + OP_LATENCY[op] + extra
                dest = instr.dest_p
                if dest >= 0:
                    bucket = wake_events.get(wake_at)
                    if bucket is None:
                        # repro: noqa[RPR008] on bucket births: one
                        # list per event cycle, amortised.
                        wake_events[wake_at] = [dest]  # repro: noqa[RPR008]
                    else:
                        bucket.append(dest)
                done_at = wake_at + regread
                bucket = done_events.get(done_at)
                if bucket is None:
                    done_events[done_at] = [instr]  # repro: noqa[RPR008]
                else:
                    bucket.append(instr)
            elif deferred is None:
                deferred = [item]  # repro: noqa[RPR008] — lazy; only on FU conflicts
            else:
                deferred.append(item)
        if issued_n:
            stats.issued += issued_n
            stats.iq_residency_sum += resid_sum
            stats.iq_residency_count += issued_n
        if deferred:
            for item in deferred:
                heappush(heap, item)

    @stage_contract(
        "dispatch",
        reads=("core", "config", "rob", "ready"),
        writes=("iq", "thread", "dab", "watchdog", "stats", "instr"),
    )
    def _dispatch(self, cycle: int) -> None:  # repro: hot
        budget = self._dispatch_width
        total = 0
        threads = self.threads
        for ts in threads:
            ts.blocked_2op = False
        rotations = self._rotations
        order = rotations[cycle % self._nrot]
        policy = self.policy
        if self._policy_inorder:
            # Inlined InOrderDispatch.dispatch_thread (the exact class,
            # not a subclass): program order, no admission predicate.
            iq = self.iq
            capacity = iq.capacity
            for ts in order:
                if budget <= 0:
                    break
                buf = ts.dispatch_buffer
                n = capacity - iq.occupancy
                if budget < n:
                    n = budget
                if len(buf) < n:
                    n = len(buf)
                if n > 0:
                    iq.insert_slice(buf, n, cycle)
                    del buf[:n]
                    budget -= n
                    total += n
        else:
            dispatch_thread = policy.dispatch_thread
            for ts in order:
                if budget <= 0:
                    break
                n = dispatch_thread(self, ts, cycle, budget)
                budget -= n
                total += n
        dab = self.dab
        if dab is not None and self.iq.free_slots == 0:
            # Paper §4: an instruction that is ROB-oldest and denied an IQ
            # entry moves to the deadlock-avoidance buffer.
            for ts in order:
                if not dab.has_space:
                    break
                buf = ts.dispatch_buffer
                if buf and ts.rob.head is buf[0]:
                    instr = buf.pop(0)
                    dab.insert(instr, cycle)
                    self.stats.dab_inserts += 1
                    total += 1
        stats = self.stats
        stats.dispatched += total
        for ts in threads:
            if ts.blocked_2op:
                stats.blocked_2op_cycles[ts.tid] += 1
        if total == 0:
            # Attribute the stall to the 2OP restriction only for threads
            # that could otherwise make forward progress: a thread whose
            # ROB is already full is window-saturated and would stall
            # under the traditional scheduler as well, so leftover NDIs
            # in its buffer are not the cause (paper §3 statistic).
            any_buffered = False
            any_relevant = False
            all_blocked = True
            for ts in threads:
                if not ts.dispatch_buffer:
                    continue
                any_buffered = True
                if ts.rob.full:
                    continue
                any_relevant = True
                if all_blocked and not (
                    ts.blocked_2op or policy.scan_blocked(self, ts)
                ):
                    all_blocked = False
            if any_buffered:
                stats.no_dispatch_cycles += 1
            if any_relevant:
                if all_blocked:
                    stats.all_blocked_2op_cycles += 1
                elif self.iq.free_slots == 0:
                    stats.iq_full_dispatch_stalls += 1
        if policy.needs_reduced_iq and (cycle & _HDI_SAMPLE_MASK) == 0:
            samples, dispatchable = self._sample_hdi()
            stats.hdi_piled_samples += samples
            stats.hdi_piled_dispatchable += dispatchable
        watchdog = self.watchdog
        if watchdog is not None:
            if total:
                watchdog.note_dispatch()
            else:
                for ts in threads:
                    if len(ts.rob):
                        if watchdog.tick():
                            # Watchdog recovery squashes *everything*:
                            # exempt from the dispatch contract and the
                            # hot closure — it fires at most once per
                            # watchdog period.
                            self._flush_all(cycle)  # repro: noqa[RPR009,RPR011]
                        break

    def _sample_hdi(self) -> tuple[int, int]:  # repro: hot
        """Sample the §4 statistic: of the instructions piled up behind
        the first NDI of each thread, how many are themselves
        dispatchable (HDIs)?

        Returns ``(samples, dispatchable)`` deltas instead of mutating
        the stats block so the fast-forward engine can scale one sample
        by the number of sampling points inside a skipped span.
        """
        iq = self.iq
        samples = 0
        dispatchable = 0
        for ts in self.threads:
            buf = ts.dispatch_buffer
            first_ndi = -1
            for i, instr in enumerate(buf):
                if iq.nonready_count(instr) >= 2:
                    first_ndi = i
                    break
            if first_ndi < 0:
                continue
            for j in range(first_ndi + 1, len(buf)):
                samples += 1
                if iq.nonready_count(buf[j]) < 2:
                    dispatchable += 1
        return samples, dispatchable

    @stage_contract(
        "rename",
        reads=("core", "config"),
        writes=("thread", "rob", "lsq", "map_table", "free_list", "ready",
                "stats", "instr"),
    )
    def _rename(self, cycle: int) -> None:  # repro: hot
        budget = self._decode_width
        renamer = None
        depth = self._buf_depth
        total = 0
        rotations = self._rotations
        for ts in rotations[(cycle + 1) % self._nrot]:
            if budget <= 0:
                break
            pipe = ts.pipe
            if not pipe or pipe[0][0] > cycle:
                continue
            if renamer is None:
                # Hoisted lazily: idle rename cycles skip these lookups.
                renamer = self.renamer
                maps = renamer.maps
                ready = renamer.ready
                int_free = renamer.int_free._free
                fp_free = renamer.fp_free._free
            buf = ts.dispatch_buffer
            rob = ts.rob
            rob_entries = rob._entries
            lsq = ts.lsq
            lsq_cap = lsq.capacity
            table_map = maps[ts.tid]._map
            append = buf.append
            popleft = pipe.popleft
            rob_append = rob_entries.append
            # Tracked locally: this loop is the only writer of either.
            buf_room = depth - len(buf)
            rob_room = rob.capacity - len(rob_entries)
            while budget > 0 and pipe:
                head = pipe[0]
                if head[0] > cycle:
                    break
                if buf_room <= 0 or rob_room <= 0:
                    break
                instr = head[1]
                is_mem = instr.is_load or instr.is_store
                if is_mem and lsq.count >= lsq_cap:
                    break
                # Inlined RenameUnit.rename (+ can_rename): map table and
                # free lists accessed directly; RenameUnit.rename stays
                # the reference form. Source lookups are unconditional:
                # zero registers are pinned to NO_PREG in the map table,
                # and NO_REG (-1) indexes the last entry — the FP zero
                # register, also NO_PREG (see RenameMapTable).
                dest = instr.dest_l
                src1_p = table_map[instr.src1_l]
                src2_p = table_map[instr.src2_l]
                if dest < 0 or dest == REG_INT_ZERO or dest == REG_FP_ZERO:
                    dest_p = NO_PREG
                    old_p = NO_PREG
                else:
                    free = fp_free if dest >= FP_BASE else int_free
                    if not free:
                        break  # destination free list exhausted
                    dest_p = free.popleft()  # inlined FreeList.allocate
                    ready[dest_p] = 0
                    old_p = table_map[dest]
                    table_map[dest] = dest_p
                popleft()
                instr.dest_p = dest_p
                instr.old_dest_p = old_p
                instr.src1_p = src1_p
                instr.src2_p = src2_p
                instr.rename_cycle = cycle
                rob_append(instr)  # inlined ReorderBuffer.allocate
                if is_mem:
                    # Inlined LoadStoreQueue.allocate (capacity verified
                    # above; program-order watermark kept for sanitizer).
                    tseq = instr.tseq
                    if tseq <= lsq.last_alloc_tseq:
                        lsq.alloc_order_ok = False
                    else:
                        lsq.last_alloc_tseq = tseq
                    lsq.count += 1
                    if instr.is_store:
                        stores = lsq._stores
                        addr = instr.addr
                        seqs = stores.get(addr)
                        if seqs is None:
                            # One list per distinct store address.
                            stores[addr] = [tseq]  # repro: noqa[RPR008]
                        else:
                            seqs.append(tseq)
                append(instr)
                buf_room -= 1
                rob_room -= 1
                budget -= 1
                total += 1
        if total:
            self.stats.renamed += total

    def _flush_all(self, cycle: int) -> None:
        """Watchdog recovery: squash everything in flight and refetch
        from each thread's oldest uncommitted instruction."""
        resume = cycle + 1
        for ts in self.threads:
            ts.flush_inflight(resume)
        self.iq.reset()
        if self.dab is not None:
            self.dab.clear()
        self._wake_events.clear()
        self._done_events.clear()
        self.fu.reset()
        self.renamer.reset()
        self.stats.watchdog_flushes += 1

    # ------------------------------------------------------------------
    # invariants (used by the test suite; not called on the hot path)
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check cross-structure invariants; raises ``AssertionError``.

        Intended for tests and debugging — it walks every in-flight
        instruction, so it is far too slow to run per cycle in
        experiments. For periodic in-run checking with structured
        failures, enable ``MachineConfig.sanitize`` instead
        (:mod:`repro.analysis.sanitizer`).
        """
        in_iq = 0
        for ts in self.threads:
            pipe_n = len(ts.pipe)
            buf_n = len(ts.dispatch_buffer)
            iq_n = sum(1 for instr in ts.rob if instr.in_iq)
            dab_n = sum(1 for instr in ts.rob if instr.in_dab)
            in_iq += iq_n
            assert ts.icount == pipe_n + buf_n + iq_n + dab_n, (
                f"thread {ts.tid}: icount {ts.icount} != "
                f"{pipe_n}+{buf_n}+{iq_n}+{dab_n}"
            )
            assert len(ts.rob) <= ts.rob.capacity
            assert ts.lsq.count <= ts.lsq.capacity
            for instr in ts.dispatch_buffer:
                assert not instr.in_iq and not instr.issued, (
                    f"buffered instruction already scheduled: {instr!r}"
                )
            prev = -1
            for instr in ts.rob:
                assert instr.tseq > prev, "ROB out of program order"
                prev = instr.tseq
        assert in_iq == self.iq.occupancy, (
            f"IQ occupancy {self.iq.occupancy} != {in_iq} in-flight entries"
        )
        for tag, waiters in self.iq.waiting.items():
            for instr in waiters:
                if instr.in_iq:
                    assert instr.num_waiting > 0, (
                        f"IQ entry waits on ready tag {tag}: {instr!r}"
                    )
        if self.dab is not None:
            assert len(self.dab.entries) <= self.dab.size
            for instr in self.dab.entries:
                assert instr.in_dab and not instr.issued

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------
    def step(self) -> None:  # repro: hot
        """Advance the machine by one cycle."""
        cycle = self.cycle
        self._commit(cycle)
        self._apply_events(cycle)
        self._issue(cycle)
        self._dispatch(cycle)
        self._rename(cycle)
        self._fetch_cycle(self, cycle)
        iq = self.iq
        iq.occupancy_integral += iq.occupancy  # inlined IssueQueue.tick()
        self.stats.cycles += 1
        self.cycle = cycle + 1
        sanitizer = self.sanitizer
        if sanitizer is not None and cycle % sanitizer.interval == 0:
            # Interval-amortised; off the hot closure by construction.
            sanitizer.check(cycle)  # repro: noqa[RPR009]

    def run(self, max_insns: int, max_cycles: int = 5_000_000,
            ) -> PipelineStats:
        """Simulate until any thread commits ``max_insns`` instructions
        (the paper's stopping rule), every trace drains, or ``max_cycles``
        elapse. Returns the finalised statistics block."""
        if max_insns <= 0:
            raise ValueError(f"max_insns must be positive, got {max_insns}")
        if max_cycles <= 0:
            raise ValueError(f"max_cycles must be positive, got {max_cycles}")
        threads = self.threads
        stats = self.stats
        step = self.step
        ff = self.ff
        # Progress fingerprint: if no stage moved an instruction during a
        # step, the next cycle is a fast-forward candidate. Counters only
        # grow, so an unchanged sum means all five unchanged — and the
        # stop conditions below (commit budget reached, all threads
        # drained) depend only on state those counters guard, so they
        # are re-evaluated only when the fingerprint moves.
        progress = (
            stats.fetched + stats.renamed + stats.dispatched
            + stats.issued + stats.committed_total
        )
        while self.cycle < max_cycles:
            step()
            if self.cycle - self._last_commit_cycle > _WEDGE_LIMIT:
                raise RuntimeError(
                    f"no commits for {_WEDGE_LIMIT} cycles at cycle "
                    f"{self.cycle} — scheduler deadlock (model bug)"
                )
            new = (
                stats.fetched + stats.renamed + stats.dispatched
                + stats.issued + stats.committed_total
            )
            if new != progress:
                progress = new
                done = False
                for ts in threads:
                    if ts.committed >= max_insns:
                        done = True
                        break
                if done:
                    break
                alive = False
                for ts in threads:
                    # Inlined ThreadState.drained.
                    if (
                        ts.fetch_idx < ts.trace_len
                        or ts.pipe
                        or ts.dispatch_buffer
                        or ts.rob._entries
                    ):
                        alive = True
                        break
                if not alive:
                    break
            elif ff is not None:
                ff.try_skip(max_cycles)
        self._finalize()
        return self.stats

    def _finalize(self) -> None:
        stats = self.stats
        stats.iq_occupancy_integral = self.iq.occupancy_integral
        for ts in self.threads:
            stats.branch_lookups += ts.predictor.branches
            stats.branch_mispredicts += ts.predictor.mispredicts
            stats.store_forwards += ts.lsq.forwards
        stats.l1d_accesses = self.hierarchy.l1d.accesses
        stats.l1d_misses = self.hierarchy.l1d.misses
        stats.l2_accesses = self.hierarchy.l2.accesses
        stats.l2_misses = self.hierarchy.l2.misses
        if self.dab is not None:
            stats.dab_inserts = self.dab.inserts

    # Kept below the hot methods so their source spans, and with them the
    # mutant ids in results/mutation_baseline.json, stay put.
    def _warm_start(self, traces: list[Trace], warmup: int) -> None:
        """Bring the caches and branch predictors to their post-warmup
        state.

        On a memo miss this runs :meth:`_install_residency` and
        :meth:`_warm_up` and stores a copy of the result; on a hit it
        copies the stored state into this core's fresh structures and
        neither method runs. The entry may also have been imported from
        disk (:func:`import_warm_state`). All paths leave byte-identical
        state, so ``PipelineStats`` cannot tell them apart
        (``tests/test_warmstate.py``).
        """
        key = _memo_key(self.cfg, traces, warmup)
        with _WARM_STATE_LOCK:
            state = _WARM_STATE.get(key)
        if state is not None:
            state.restore(self, warmup)
            return
        self._install_residency()
        if warmup:
            self._warm_up(warmup)
        # Cores may be built on threads; two may race to build one key,
        # and both then store the same state.
        _remember(key, _WarmState.capture(self, traces))


# ----------------------------------------------------------------------
# warm-state memo
# ----------------------------------------------------------------------
class _WarmState:
    """Immutable copy of one core's warm caches and branch predictors.

    Holds the L1I/L1D/L2 tag stores and, per thread, the gshare counter
    table and history register plus the BTB. The access and lookup
    counters are not kept: the warm path zeroes them afterwards, and
    those of a freshly built core start at zero.
    """

    __slots__ = ("traces", "caches", "predictors")

    def __init__(self, traces: tuple[Trace, ...], caches: tuple,
                 predictors: tuple) -> None:
        #: Pins the trace objects whose ids key this entry, so no id can
        #: be reused by a new trace while the entry exists.
        self.traces = traces
        self.caches = caches
        self.predictors = predictors

    @classmethod
    def capture(cls, core: SMTProcessor, traces: list[Trace]) -> _WarmState:
        h = core.hierarchy
        predictors = [ts.predictor for ts in core.threads]
        return cls(
            tuple(traces),
            tuple(tuple(map(tuple, c._sets)) for c in (h.l1i, h.l1d, h.l2)),
            tuple((bytes(p.gshare._table), p.gshare._history,
                   tuple(map(tuple, p.btb._sets))) for p in predictors),
        )

    def restore(self, core: SMTProcessor, warmup: int) -> None:
        """Copy the state into ``core``'s freshly built structures, as
        ``_install_residency`` + ``_warm_up(warmup)`` would leave them."""
        h = core.hierarchy
        for cache, sets in zip((h.l1i, h.l1d, h.l2), self.caches):
            cache._sets = list(map(list, sets))
        for ts, (table, history, btb_sets) in zip(core.threads,
                                                  self.predictors):
            gshare = ts.predictor.gshare
            gshare._table = bytearray(table)
            gshare._history = history
            ts.predictor.btb._sets = list(map(list, btb_sets))
            ts.fetch_idx = warmup

    def export(self) -> dict[str, bytes | list[int]]:
        """The state as flat columns, for storing on disk.

        Each set-associative structure becomes a ``*_ways`` column (the
        fill of every set, in order) and its entries laid end to end,
        MRU first within a set: the three caches in ``cache_*``, every
        thread's BTB in ``btb_*``. ``gshare`` is the threads' counter
        tables back to back, ``history`` their history registers.
        """
        sets = [ways for level in self.caches for ways in level]
        btb_sets = [ways for _, _, btb in self.predictors for ways in btb]
        btb = [entry for ways in btb_sets for entry in ways]
        return {
            "cache_ways": list(map(len, sets)),
            "cache_tags": [tag for ways in sets for tag in ways],
            "gshare": b"".join(table for table, _, _ in self.predictors),
            "history": [history for _, history, _ in self.predictors],
            "btb_ways": list(map(len, btb_sets)),
            "btb_tags": [tag for tag, _ in btb],
            "btb_targets": [target for _, target in btb],
        }

    @classmethod
    def from_export(cls, cfg: MachineConfig, traces: list[Trace],
                    flat: dict[str, bytes | list[int]]) -> _WarmState:
        """Inverse of :meth:`export` for a core of ``cfg`` running
        ``traces``; raises ValueError unless every column fits: each
        cache's set count and associativity, the gshare table length
        and history width, and the BTB's sets and ways, per thread."""
        if sorted(flat) != sorted(_EXPORT_COLUMNS):
            raise ValueError(f"columns {sorted(flat)} are not "
                             f"{sorted(_EXPORT_COLUMNS)}")
        n = len(traces)
        bp = cfg.bp
        levels = (cfg.mem.l1i, cfg.mem.l1d, cfg.mem.l2)
        caches = _unflatten(
            flat["cache_tags"], flat["cache_ways"],
            [(level.num_sets, level.assoc) for level in levels],
        )
        if len(flat["btb_tags"]) != len(flat["btb_targets"]):
            raise ValueError("BTB tag and target columns differ in length")
        btbs = _unflatten(
            list(zip(flat["btb_tags"], flat["btb_targets"])),
            flat["btb_ways"],
            [(bp.btb_entries // bp.btb_assoc, bp.btb_assoc)] * n,
        )
        table, history = flat["gshare"], flat["history"]
        entries = bp.gshare_entries
        if len(table) != n * entries or len(history) != n:
            raise ValueError(f"gshare state is not {n} x {entries} entries")
        if any(not 0 <= h < 1 << bp.history_bits for h in history):
            raise ValueError(f"history wider than {bp.history_bits} bits")
        return cls(
            tuple(traces), tuple(caches),
            tuple((bytes(table[t * entries:(t + 1) * entries]), history[t],
                   btbs[t]) for t in range(n)),
        )


#: The columns of :meth:`_WarmState.export`.
_EXPORT_COLUMNS = ("cache_ways", "cache_tags", "gshare", "history",
                   "btb_ways", "btb_tags", "btb_targets")


def _unflatten(entries: list, ways: list[int],
               shapes: list[tuple[int, int]]) -> list[tuple]:
    """Cut ``entries`` into sets of ``ways[i]`` entries, and the sets
    into one structure per ``(sets, associativity)`` in ``shapes``;
    raises ValueError when the fills do not fit those shapes."""
    if len(ways) != sum(sets for sets, _ in shapes):
        raise ValueError(f"{len(ways)} set fills for shapes {shapes}")
    if sum(ways) != len(entries):
        raise ValueError("set fills do not add up to the entries")
    structures = []
    fills = iter(ways)
    pos = 0
    for sets, assoc in shapes:
        cut = []
        for _ in range(sets):
            fill = next(fills)
            if not 0 <= fill <= assoc:
                raise ValueError(f"a set holds {fill} of {assoc} ways")
            cut.append(tuple(entries[pos:pos + fill]))
            pos += fill
        structures.append(tuple(cut))
    return structures


#: Warm state by ``(trace ids in thread order, warmup, cfg.mem, cfg.bp)``,
#: everything ``_install_residency`` and ``_warm_up`` read. The scheduler
#: and IQ size are not in the key, and the runner's slot-trace memo hands
#: every grid point of a mix the same trace objects, so a sweep warms
#: each mix once per process. A forked pool worker starts from the
#: parent's (usually empty) memo; when the pool has a ``cache_dir``, the
#: runner imports the mix's stored snapshot before building the core
#: and stores the state of a cold build
#: (:mod:`repro.exec.tracestore`), so each mix is warmed once per cache.
#: FIFO eviction.
_WARM_STATE: dict[tuple, _WarmState] = {}
_WARM_STATE_MAX = 32
_WARM_STATE_LOCK = threading.Lock()


def _memo_key(cfg: MachineConfig, traces: list[Trace], warmup: int) -> tuple:
    return (tuple(map(id, traces)), warmup, cfg.mem, cfg.bp)


def _remember(key: tuple, state: _WarmState) -> None:
    """The one way into the memo: FIFO-bounded, under its lock."""
    with _WARM_STATE_LOCK:
        if len(_WARM_STATE) >= _WARM_STATE_MAX:
            _WARM_STATE.pop(next(iter(_WARM_STATE)), None)
        _WARM_STATE[key] = state


def warm_state_cached(cfg: MachineConfig, traces: list[Trace],
                      warmup: int) -> bool:
    """Whether a core of ``cfg`` on ``traces`` would start from the memo."""
    with _WARM_STATE_LOCK:
        return _WARM_STATE.get(_memo_key(cfg, traces, warmup)) is not None


def export_warm_state(cfg: MachineConfig, traces: list[Trace],
                      warmup: int) -> dict[str, bytes | list[int]] | None:
    """:meth:`_WarmState.export` of the memoised state a core of ``cfg``
    on ``traces`` starts from, or None when none is memoised."""
    with _WARM_STATE_LOCK:
        state = _WARM_STATE.get(_memo_key(cfg, traces, warmup))
    return None if state is None else state.export()


def import_warm_state(cfg: MachineConfig, traces: list[Trace], warmup: int,
                      flat: dict[str, bytes | list[int]]) -> None:
    """Memoise an exported state, so the next core of ``cfg`` on
    ``traces`` starts from it; raises ValueError when ``flat`` does not
    fit ``cfg`` and ``traces`` (see :meth:`_WarmState.from_export`)."""
    _remember(_memo_key(cfg, traces, warmup),
              _WarmState.from_export(cfg, traces, flat))


def clear_warm_state_cache() -> None:
    """Drop memoised warm state (tests)."""
    with _WARM_STATE_LOCK:
        _WARM_STATE.clear()
