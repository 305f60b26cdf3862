"""Idle-cycle fast-forward for the SMT core.

Long L2-miss episodes leave every thread stalled: no stage can move an
instruction, yet the plain cycle loop still pays for a full
commit/issue/dispatch/rename/fetch scan per cycle. This module teaches
:class:`~repro.pipeline.smt_core.SMTProcessor` to recognise those dead
spans and jump over them in one step.

The contract is exact equivalence, not approximation: running with the
engine on or off produces **byte-identical** :class:`PipelineStats`
(enforced by ``tests/test_fastforward.py``). That works because a cycle
in which no stage made progress leaves the machine frozen — ready bits,
buffers, ROBs, the IQ and the free list can only change through a small
set of future events:

* a wakeup broadcast (``_wake_events``) or completion (``_done_events``),
* a front-end pipe arrival (``pipe[0][0]`` reaching rename),
* a fetch stall expiring (``stalled_until``; branch waits and long-miss
  gates resolve at completion events, already covered),
* a functional unit freeing while ready instructions wait to issue.

Until the earliest such event, every cycle replays the last stepped one
exactly, and its statistics deltas (IQ occupancy integral, no-dispatch
and 2OP-blocked counters, periodic HDI samples, watchdog countdown) are
constant — so the engine multiplies them by the span length instead of
stepping. The jump is additionally capped so that cycles with
non-replicable side effects are always stepped for real:

* the watchdog expiry cycle (its tick triggers a pipeline flush),
* the wedge-detector horizon (the no-commit RuntimeError must fire at
  the same cycle),
* sanitizer ticks (each check must observe the window at its exact
  cycle and bump ``stats.sanitizer_checks``),
* ``max_cycles``.

**Precondition:** :meth:`try_skip` may only be called directly after a
step in which no stage moved an instruction (the run loop's progress
fingerprint). That guarantees there is no half-consumed work — no
completed ROB heads waiting on commit width, no partially-drained
dispatch buffer — that could make the next cycle differ from the last.
"""

from __future__ import annotations

from repro.isa.opcodes import OP_FU


class FastForward:
    """Dead-span detector and bulk-accountant for one ``SMTProcessor``.

    The engine keeps no reference to its core: the run loop passes the
    core in. The core owns the engine, so a back reference would make
    every core cyclic garbage, pinning its traces until the collector
    runs.
    """

    __slots__ = ("wedge_limit", "hdi_mask", "skips", "cycles_skipped")

    def __init__(self, wedge_limit: int, hdi_mask: int) -> None:
        self.wedge_limit = wedge_limit
        self.hdi_mask = hdi_mask
        #: number of successful jumps (telemetry for repro.perf).
        self.skips = 0
        #: total cycles bulk-accounted instead of stepped.
        self.cycles_skipped = 0

    # ------------------------------------------------------------------
    def try_skip(self, core, max_cycles: int) -> int:
        """Jump to the next actionable cycle; returns cycles skipped.

        Must only be called right after a zero-progress step (see module
        docstring). Returns 0 when the very next cycle could make
        progress (or a cap forbids skipping), leaving the core untouched.
        """
        if core._events_fired:
            # The step just taken applied a wakeup or completion: ready
            # bits / completed flags changed even though no progress
            # counter moved, so the next cycle may commit or dispatch.
            return 0
        cycle = core.cycle  # next cycle the run loop would step
        target = self._next_active_cycle(core, cycle, max_cycles)
        if target <= cycle:
            return 0
        span = target - cycle
        self._account(core, cycle, span)
        core.cycle = target
        self.skips += 1
        self.cycles_skipped += span
        return span

    # ------------------------------------------------------------------
    def _next_active_cycle(self, core, cycle: int, max_cycles: int) -> int:
        """Earliest cycle ≥ ``cycle`` that must be stepped for real."""
        # Hard caps first: cycles at which a real step has side effects
        # that bulk accounting cannot replicate.
        horizon = core._last_commit_cycle + self.wedge_limit
        if max_cycles < horizon:
            horizon = max_cycles
        sanitizer = core.sanitizer
        if sanitizer is not None:
            interval = sanitizer.interval
            rem = cycle % interval
            tick = cycle if rem == 0 else cycle + (interval - rem)
            if tick < horizon:
                horizon = tick
        watchdog = core.watchdog
        if watchdog is not None:
            # Dead cycles tick the watchdog whenever any thread holds ROB
            # entries; the expiry tick flushes the pipeline, so that
            # cycle must be stepped for real.
            for ts in core.threads:
                if len(ts.rob):
                    expiry = cycle + watchdog.remaining - 1
                    if expiry < horizon:
                        horizon = expiry
                    break
        for ts in core.threads:
            head = ts.rob.head
            if head is not None and head.completed:
                # Retirement is due: the commit stage will move it on
                # the very next step (defensive — the events_fired gate
                # in try_skip already forces a real step here).
                return cycle
        if horizon <= cycle:
            return cycle
        target = horizon

        # Scheduled events: wakeups and completions.
        events = core._wake_events
        if events:
            t = min(events)
            if t <= cycle:
                return cycle
            if t < target:
                target = t
        events = core._done_events
        if events:
            t = min(events)
            if t <= cycle:
                return cycle
            if t < target:
                target = t

        # Structural issue stalls: ready work waiting for a functional
        # unit wakes up when the unit frees. Union the FU classes of
        # everything eligible to issue (DAB entries and live ready-heap
        # entries) and take the earliest free time of their units.
        waiting_classes = None
        dab = core.dab
        if dab is not None and dab.entries:
            waiting_classes = {OP_FU[instr.op] for instr in dab.entries}
        for _, instr in core.iq.ready_heap:
            if not instr.in_iq:
                # Stale heap entry: per-cycle selection scans prune these
                # one at a time; refuse to skip rather than model it.
                return cycle
            if waiting_classes is None:
                waiting_classes = {OP_FU[instr.op]}
            else:
                waiting_classes.add(OP_FU[instr.op])
        if waiting_classes is not None:
            units = core.fu._units
            for fc in waiting_classes:
                for free_at in units[fc]:
                    if free_at <= cycle:
                        return cycle
                    if free_at < target:
                        target = free_at

        # Front end: pipe arrivals enable rename; an expiring fetch
        # stall makes a thread a fetch candidate again. (All other fetch
        # gates — branch waits, long-miss gates, pipe back-pressure —
        # open only at completion or rename activity, covered above.)
        stall_gate = core.fetch_unit._stall_gate
        for ts in core.threads:
            pipe = ts.pipe
            if pipe:
                t = pipe[0][0]
                # A head that already arrived is rename-blocked by frozen
                # state; only a future arrival is an event.
                if t == cycle:
                    return cycle
                if cycle < t < target:
                    target = t
            if (
                ts.fetch_idx < ts.trace_len
                and ts.wait_branch is None
                and len(pipe) < ts.pipe_capacity
                and not (stall_gate and ts.pending_long_misses)
            ):
                t = ts.stalled_until
                if t <= cycle:
                    return cycle  # thread can fetch right now
                if t < target:
                    target = t
        return target

    # ------------------------------------------------------------------
    def _account(self, core, cycle: int, span: int) -> None:
        """Book ``span`` dead cycles exactly as stepping each would."""
        stats = core.stats
        stats.cycles += span
        iq = core.iq
        iq.occupancy_integral += iq.occupancy * span

        # Dispatch-stall attribution: replicate the total==0 branch of
        # ``_dispatch``. The blocked_2op flags still hold the values the
        # last stepped cycle computed, and the frozen state makes every
        # skipped cycle recompute exactly those.
        threads = core.threads
        policy = core.policy
        any_buffered = False
        any_relevant = False
        all_blocked = True
        for ts in threads:
            if ts.blocked_2op:
                stats.blocked_2op_cycles[ts.tid] += span
            if not ts.dispatch_buffer:
                continue
            any_buffered = True
            if ts.rob.full:
                continue
            any_relevant = True
            if all_blocked and not (
                ts.blocked_2op or policy.scan_blocked(core, ts)
            ):
                all_blocked = False
        if any_buffered:
            stats.no_dispatch_cycles += span
        if any_relevant:
            if all_blocked:
                stats.all_blocked_2op_cycles += span
            elif iq.free_slots == 0:
                stats.iq_full_dispatch_stalls += span

        # HDI pile-up sampling: one frozen-state sample scaled by the
        # number of sampling points inside the span.
        if policy.needs_reduced_iq:
            mask = self.hdi_mask
            period = mask + 1
            first = (cycle + mask) & ~mask
            if first < cycle + span:
                points = (cycle + span - 1 - first) // period + 1
                samples, dispatchable = core._sample_hdi()
                if samples:
                    stats.hdi_piled_samples += samples * points
                    stats.hdi_piled_dispatchable += dispatchable * points

        # Watchdog: every skipped cycle would have ticked if some thread
        # held ROB entries. The horizon cap guarantees remaining stays
        # >= 1, so the expiry tick happens in a real step.
        watchdog = core.watchdog
        if watchdog is not None:
            for ts in threads:
                if len(ts.rob):
                    watchdog.remaining -= span
                    break
