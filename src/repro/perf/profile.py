"""Profiling for the cycle loop: cProfile plus per-stage wall-clock.

Two passes over fresh cores of the same configuration:

1. **cProfile** — function-level hotspots (``tottime``-sorted). This is
   the view that drives slimming work: in CPython the pure call
   overhead of the per-cycle stage functions dominates, so the win is
   usually fewer calls, not faster ones.
2. **Stage timers** — the six per-cycle stage callables are wrapped
   with accumulating timers, giving a commit/issue/dispatch/rename/
   fetch/events breakdown without profiler distortion. This works
   because :class:`~repro.pipeline.smt_core.SMTProcessor`'s ``step()``
   looks each stage up on the core at call time, so a wrapper set as an
   instance attribute shadows the class's method and intercepts every
   call ``step()`` makes.

Fast-forwarded (skipped) spans never enter the wrappers, so the stage
seconds describe exactly the cycles that were actually stepped.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import time  # repro: noqa[RPR001] — the perf harness measures wall clock
import weakref
from dataclasses import dataclass

from repro.analysis.contracts import STAGE_CALLABLES
from repro.config.presets import paper_machine
from repro.experiments.runner import thread_traces
from repro.perf.bench import DEFAULT_INSNS, DEFAULT_MIX, DEFAULT_WARMUP
from repro.pipeline.smt_core import SMTProcessor

#: The per-cycle callables ``step()`` looks up on the core —
#: the same registry the stage contracts and the sanitizer shadow
#: checks hang off, so a renamed or added stage updates all three.
STAGE_NAMES: tuple[str, ...] = tuple(STAGE_CALLABLES)


@dataclass(frozen=True)
class Hotspot:
    """One cProfile row (``tottime``-sorted)."""

    function: str
    calls: int
    tottime: float
    cumtime: float


@dataclass(frozen=True)
class ProfileReport:
    """Everything ``python -m repro.perf profile`` prints."""

    cycles: int
    committed: int
    elapsed_s: float
    cycles_per_s: float
    stage_seconds: dict[str, float]
    hotspots: list[Hotspot]
    stats_text: str

    def as_dict(self) -> dict[str, object]:
        return {
            "cycles": int(self.cycles),
            "committed": int(self.committed),
            "elapsed_s": float(self.elapsed_s),
            "cycles_per_s": float(self.cycles_per_s),
            "stage_seconds": {k: float(v)
                              for k, v in self.stage_seconds.items()},
            "hotspots": [
                {
                    "function": h.function,
                    "calls": int(h.calls),
                    "tottime": float(h.tottime),
                    "cumtime": float(h.cumtime),
                }
                for h in self.hotspots
            ],
        }


def install_stage_timers(core: SMTProcessor) -> dict[str, float]:
    """Shadow ``core``'s stage callables with accumulating timers, set
    as instance attributes (the class's methods stay untouched).

    Returns a live dict (stage name -> seconds) that keeps updating as
    the core runs. The wrappers forward ``*args`` untouched, so both
    the ``(cycle)`` stages and the ``(core, cycle)`` fetch entry work.

    A stage that is a method of the class is wrapped as the class's
    function, reached through a weak reference to the core, so the
    timers add no reference cycle: a timed core is freed by reference
    counting as soon as its last user drops it, like an untimed one. A
    stage already set on the instance (``_fetch_cycle``, or a
    sanitizer shadow check) is wrapped as it is. A sanitized core stays
    cyclic by design, because ``PipelineSanitizer.core`` holds it.
    """
    seconds = {name: 0.0 for name in STAGE_NAMES}
    perf_counter = time.perf_counter
    ref = weakref.ref(core)
    for name in STAGE_NAMES:
        inner = vars(core).get(name)
        method = getattr(type(core), name) if inner is None else None

        def timed(*args, _inner=inner, _method=method, _name=name):
            t0 = perf_counter()  # repro: noqa[RPR001] — stage timer
            out = (_inner(*args) if _method is None
                   else _method(ref(), *args))
            seconds[_name] += perf_counter() - t0  # repro: noqa[RPR001]
            return out

        setattr(core, name, timed)
    return seconds


def _fresh_core(benchmarks: tuple[str, ...], scheduler: str,
                max_insns: int, warmup: int) -> SMTProcessor:
    cfg = paper_machine(scheduler=scheduler)
    traces = thread_traces(list(benchmarks), max_insns, seed=0,
                           warmup=warmup)
    return SMTProcessor(cfg, traces, warmup=warmup)


def profile_run(
    benchmarks: tuple[str, ...] = DEFAULT_MIX,
    scheduler: str = "traditional",
    max_insns: int = DEFAULT_INSNS,
    warmup: int = DEFAULT_WARMUP,
    top: int = 15,
) -> ProfileReport:
    """Profile one simulation; see the module docstring for the passes."""
    # Pass 1: cProfile for function-level hotspots.
    core = _fresh_core(benchmarks, scheduler, max_insns, warmup)
    prof = cProfile.Profile()
    prof.enable()
    core.run(max_insns)
    prof.disable()
    rows = [
        Hotspot(
            function=pstats.func_std_string(func),
            calls=nc,
            tottime=tt,
            cumtime=ct,
        )
        for func, (_cc, nc, tt, ct, _callers) in
        pstats.Stats(prof).stats.items()
    ]
    rows.sort(key=lambda h: h.tottime, reverse=True)
    text = io.StringIO()
    pstats.Stats(prof, stream=text).sort_stats("tottime").print_stats(top)

    # Pass 2: undistorted stage breakdown on a fresh core.
    core = _fresh_core(benchmarks, scheduler, max_insns, warmup)
    stage_seconds = install_stage_timers(core)
    perf_counter = time.perf_counter
    t0 = perf_counter()  # repro: noqa[RPR001] — timing the simulator
    stats = core.run(max_insns)
    elapsed = perf_counter() - t0  # repro: noqa[RPR001]
    return ProfileReport(
        cycles=stats.cycles,
        committed=stats.committed_total,
        elapsed_s=elapsed,
        cycles_per_s=stats.cycles / elapsed if elapsed > 0 else 0.0,
        stage_seconds=stage_seconds,
        hotspots=rows[:top],
        stats_text=text.getvalue(),
    )
