"""The fetch stage.

Per cycle, up to ``fetch_threads_per_cycle`` (2) threads share the
``fetch_width`` (8) fetch bandwidth, selected by the configured policy
(I-Count by default). A thread's fetch group ends at:

* a predicted-taken branch (fetch break),
* a mispredicted branch — the thread then stalls until the branch
  resolves (trace-driven simulation fetches no wrong-path instructions;
  the misprediction cost is the resolution bubble plus redirect penalty
  plus front-end refill),
* an instruction-cache miss (the thread stalls for the fill latency),
* a full front-end pipe (back-pressure from rename), or
* trace exhaustion.
"""

from __future__ import annotations

from repro.analysis.contracts import stage_contract
from repro.config.machine import MachineConfig
from repro.frontend.icount import icount_order, round_robin_order
from repro.isa.opcodes import OpClass
from repro.pipeline.dynamic import DynInstr
from repro.rename.map_table import NO_PREG

_new_instance = object.__new__
_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)
_BRANCH = int(OpClass.BRANCH)


class FetchUnit:
    """Shared SMT fetch stage."""

    __slots__ = ("cfg", "_order", "_stall_gate")

    def __init__(self, cfg: MachineConfig) -> None:
        self.cfg = cfg
        self._order = (
            icount_order if cfg.fetch_policy == "icount" else round_robin_order
        )
        self._stall_gate = cfg.fetch_policy == "stall"

    # ------------------------------------------------------------------
    @stage_contract(
        "fetch",
        reads=("config",),
        writes=("thread", "predictor", "memory", "stats", "core", "instr"),
    )
    def fetch_cycle(self, core, cycle: int) -> int:  # repro: hot
        """Run one fetch cycle; returns instructions fetched."""
        stall_gate = self._stall_gate
        candidates = None
        for ts in core.threads:
            # STALL policy [15]: no fetch while a memory miss is pending.
            if (
                ts.fetch_idx < ts.trace_len
                and cycle >= ts.stalled_until
                and ts.wait_branch is None
                and len(ts.pipe) < ts.pipe_capacity
                and not (stall_gate and ts.pending_long_misses)
            ):
                if candidates is None:
                    candidates = [ts]  # repro: noqa[RPR008] — lazy
                else:
                    candidates.append(ts)
        if candidates is None:
            return 0
        cfg = self.cfg
        if len(candidates) > 1:
            candidates = self._order(candidates, cycle)
            del candidates[cfg.fetch_threads_per_cycle:]
        budget = cfg.fetch_width
        fetched = 0
        fetch_thread = self._fetch_thread
        for ts in candidates:
            if budget <= 0:
                break
            n = fetch_thread(core, ts, cycle, budget)
            budget -= n
            fetched += n
        return fetched

    # ------------------------------------------------------------------
    def _fetch_thread(self, core, ts, cycle: int, budget: int) -> int:  # repro: hot
        trace = ts.trace
        idx = ts.fetch_idx
        # One icache probe per fetch group (line-granular behaviour is
        # dominated by the group head on these large lines).
        res = core.hierarchy.access_inst(trace.pc[idx])
        if res.extra_latency:
            ts.stalled_until = cycle + res.extra_latency
            return 0
        exit_cycle = cycle + self.cfg.frontend_depth - 1
        t_op, t_pc, t_addr = trace.op, trace.pc, trace.addr
        t_taken, t_target = trace.taken, trace.target
        t_dest, t_src1, t_src2 = trace.dest, trace.src1, trace.src2
        pipe_append = ts.pipe.append
        predict = ts.predictor.predict
        limit = ts.trace_len
        room = ts.pipe_capacity - len(ts.pipe)
        if room < budget:
            budget = room
        if limit - idx < budget:
            budget = limit - idx
        tid = ts.tid
        seq = core._seq
        n = 0
        while n < budget:
            # DynInstr.__init__ written out field by field (that method
            # stays the reference constructor): one allocation per fetched
            # instruction makes the call overhead itself measurable.
            instr = _new_instance(DynInstr)
            instr.tid = tid
            instr.seq = seq
            instr.tseq = idx
            op = t_op[idx]
            instr.op = op
            pc = t_pc[idx]
            instr.pc = pc
            instr.addr = t_addr[idx]
            taken = t_taken[idx]
            instr.taken = taken
            target = t_target[idx]
            instr.target = target
            instr.dest_l = t_dest[idx]
            instr.src1_l = t_src1[idx]
            instr.src2_l = t_src2[idx]
            instr.is_load = op == _LOAD
            instr.is_store = op == _STORE
            is_branch = op == _BRANCH
            instr.is_branch = is_branch
            instr.prediction = None
            instr.mispredicted = False
            instr.dest_p = NO_PREG
            instr.old_dest_p = NO_PREG
            instr.src1_p = NO_PREG
            instr.src2_p = NO_PREG
            instr.in_iq = False
            instr.in_dab = False
            instr.num_waiting = 0
            instr.issued = False
            instr.completed = False
            instr.was_ndi_blocked = False
            instr.ooo_dispatched = False
            instr.skipped_ndis = 0
            instr.ndi_dependent = False
            instr.fetch_cycle = cycle
            instr.rename_cycle = -1
            instr.dispatch_cycle = -1
            instr.issue_cycle = -1
            instr.complete_cycle = -1
            instr.forwarded = False
            instr.long_miss = False
            seq += 1
            idx += 1
            pipe_append((exit_cycle, instr))
            n += 1
            if is_branch:
                pred = predict(pc, taken, target)
                instr.prediction = pred
                if pred.mispredicted:
                    instr.mispredicted = True
                    ts.wait_branch = instr
                    break
                if taken:
                    break  # fetch break at a predicted-taken branch
        core._seq = seq
        ts.fetch_idx = idx
        ts.icount += n
        stats = core.stats
        stats.fetched += n
        stats.fetched_per_thread[tid] += n
        return n
