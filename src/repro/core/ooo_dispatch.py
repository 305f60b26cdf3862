"""2OP_BLOCK with out-of-order dispatch — the paper's proposal (§4).

The dispatch stage scans the thread's buffer of renamed instructions in
program order. Non-dispatchable instructions (two distinct non-ready
source tags) are skipped but stay buffered; *hidden dispatchable
instructions* (HDIs) behind them enter the issue queue out of program
order. Register renaming and ROB/LSQ allocation already happened in
program order, so all true dependences are preserved.

The ``filtered`` variant models the paper's idealized ablation: HDIs that
directly or transitively depend on a prior (still-buffered) NDI are *not*
dispatched out of order. The paper measures this perfect, zero-overhead
filter to gain only ≈1.2 % IPC, justifying the blind design; we keep the
variant so the ablation can be regenerated.
"""

from __future__ import annotations

from repro.core.dispatch import DispatchPolicy


class OutOfOrderDispatch(DispatchPolicy):
    """Scan-past-NDIs dispatch (optionally NDI-dependence filtered)."""

    needs_reduced_iq = True
    supports_ooo = True
    max_nonready_sources = 1

    def __init__(self, filtered: bool = False) -> None:
        self.filtered = filtered

    def dispatch_thread(self, core, ts, cycle: int, budget: int) -> int:
        iq = core.iq
        buf = ts.dispatch_buffer
        if not buf:
            return 0
        stats = core.stats
        n = 0
        ndis_seen = 0
        # Dests transitively fed by a prior NDI; allocated lazily — most
        # dispatch scans see no NDI at all.
        tainted: set[int] | None = None
        dispatched: list[int] | None = None
        hit_resource_limit = False
        for i, instr in enumerate(buf):
            if n >= budget or iq.occupancy >= iq.capacity:
                hit_resource_limit = True
                break
            if iq.nonready_count(instr) >= 2:
                ndis_seen += 1
                instr.was_ndi_blocked = True
                if instr.dest_p >= 0:
                    if tainted is None:
                        tainted = {instr.dest_p}  # lazy: once an NDI is seen
                    else:
                        tainted.add(instr.dest_p)
                continue
            ndi_dep = tainted is not None and (
                instr.src1_p in tainted or instr.src2_p in tainted
            )
            if self.filtered and ndi_dep:
                # Idealized filter: hold NDI-dependent HDIs in the buffer.
                if instr.dest_p >= 0:
                    tainted.add(instr.dest_p)
                continue
            if ndis_seen:
                instr.ooo_dispatched = True
                instr.skipped_ndis = ndis_seen
                instr.ndi_dependent = ndi_dep
                stats.ooo_dispatched += 1
                if ndi_dep:
                    stats.ooo_ndi_dependent += 1
            if ndi_dep and instr.dest_p >= 0:
                tainted.add(instr.dest_p)
            iq.insert(instr, cycle)
            if dispatched is None:
                dispatched = [i]  # lazy: only once something dispatches
            else:
                dispatched.append(i)
            n += 1
        if n == 0 and not hit_resource_limit:
            # Scanned the whole buffer and found nothing dispatchable:
            # blocked purely by the 2OP restriction.
            ts.blocked_2op = True
        if dispatched:
            # Guarded by `if dispatched`: pays only on cycles that moved
            # at least one instruction past an NDI.
            keep = set(dispatched)
            ts.dispatch_buffer = [
                ins for j, ins in enumerate(buf) if j not in keep
            ]
        return n

    def scan_blocked(self, core, ts) -> bool:
        buf = ts.dispatch_buffer
        if not buf:
            return False
        iq = core.iq
        if self.filtered:
            # Cold diagnostic path: runs only on zero-dispatch cycles.
            tainted: set[int] = set()
            for instr in buf:
                if iq.nonready_count(instr) >= 2:
                    if instr.dest_p >= 0:
                        tainted.add(instr.dest_p)
                    continue
                if instr.src1_p in tainted or instr.src2_p in tainted:
                    if instr.dest_p >= 0:
                        tainted.add(instr.dest_p)
                    continue
                return False
            return True
        for instr in buf:
            if iq.nonready_count(instr) < 2:
                return False
        return True
