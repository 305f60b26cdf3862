"""The traced pass: spans around each layer's public entry points.

Every wrapper is installed from this file; nothing under ``src/`` knows
it is being traced. Each layer is named after the module it times:

=======  ==============================================================
layer    entry points
=======  ==============================================================
trace    ``repro.experiments.runner.thread_traces``, and
         ``generate_trace`` as bound in ``runner``
warm     ``SMTProcessor.__init__``, with ``_install_residency`` and
         ``_warm_up`` wrapped on the class
core     ``SMTProcessor.run``, plus ``repro.perf.profile
         .install_stage_timers`` on each new core
exec     ``execute_jobs``, ``SimJob.run``, ``ResultCache.get``/``put``,
         ``RunJournal.record``/``record_done``/``record_queued``
=======  ==============================================================

A span records its name, start, end, the span that caused it and the
job's content hash as its request id. Spans stay in memory; a forked
pool worker appends its own to a per-pid file when its job ends, and
the owning process merges those files when the repetition ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

from benchmarks.e2e.clock import now

LAYERS = ("trace", "warm", "core", "exec")

_STAGES = ("fetch", "rename", "dispatch", "issue", "writeback", "commit")

#: Every per-layer metric the traced pass reports, with its unit.
LAYER_UNITS: dict[str, str] = {
    "trace.calls": "count",
    "trace.lookups": "count",
    "trace.generated": "count",
    "trace.memo_hit_ratio": "ratio",
    "trace.busy_s": "s",
    "trace.insns_per_s": "insn/s",
    "trace.self_s": "s",
    "warm.calls": "count",
    "warm.busy_s": "s",
    "warm.residency_s": "s",
    "warm.replay_s": "s",
    "warm.self_s": "s",
    "core.calls": "count",
    "core.busy_s": "s",
    "core.cycles": "count",
    "core.committed": "count",
    "core.cycles_per_s": "cycle/s",
    "core.ff_skip_ratio": "ratio",
    **{f"core.stage.{stage}_s": "s" for stage in _STAGES},
    "core.self_s": "s",
    "exec.jobs": "count",
    "exec.simulated": "count",
    "exec.cached": "count",
    "exec.retried": "count",
    "exec.failed": "count",
    "exec.cache_gets": "count",
    "exec.cache_hit_ratio": "ratio",
    "exec.cache_get_share": "ratio",
    "exec.cache_put_share": "ratio",
    "exec.journal_share": "ratio",
    "exec.job_busy_s": "s",
    "exec.workers": "count",
    "exec.wall_s": "s",
    "exec.slot_utilisation": "ratio",
    "exec.overhead_s": "s",
    "exec.self_s": "s",
    "model.cycles": "count",
    "model.committed": "count",
    "model.ipc_hmean": "insn/cycle",
    "model.no_dispatch_frac": "ratio",
    "model.iq_full_stalls": "count",
    "model.dab_inserts": "count",
    "tracing.overhead": "ratio",
}


@dataclass(slots=True)
class Span:
    id: str
    parent: str | None
    name: str
    start: float
    end: float
    req: str | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one process and the workers it forks."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.owner = os.getpid()
        self.spans: list[Span] = []
        #: Open spans, innermost last, as (span id, request id). A forked
        #: worker inherits the stack, so its spans name the parent's
        #: open execute_jobs span as their cause.
        self._stack: list[tuple[str, str | None]] = []
        self._ids = itertools.count()
        #: Stage timer dicts of constructed cores not yet run, by id().
        self._timers: dict[int, dict[str, float]] = {}

    @contextmanager
    def span(self, name: str, req: str | None = None):
        """Record a span around the body; yields its attrs dict."""
        parent, parent_req = self._stack[-1] if self._stack else (None, None)
        sid = f"{os.getpid()}.{next(self._ids)}"
        req = parent_req if req is None else req
        attrs: dict = {}
        self._stack.append((sid, req))
        start = now()
        try:
            yield attrs
        finally:
            end = now()
            self._stack.pop()
            self.spans.append(Span(sid, parent, name, start, end, req, attrs))

    def flush_worker(self) -> None:
        """In a forked worker, append this process's spans to its file.

        Pool workers leave through ``os._exit``, so this runs when each
        job ends rather than at exit.
        """
        pid = os.getpid()
        if pid == self.owner:
            return
        prefix = f"{pid}."
        with open(self.out_dir / f"spans-{self.owner}-{pid}.jsonl", "a",
                  encoding="utf-8") as fh:
            for s in self.spans:
                if s.id.startswith(prefix):
                    fh.write(json.dumps(asdict(s)) + "\n")
        self.spans.clear()

    def collect(self) -> list[Span]:
        """This process's spans plus every worker file, which is removed."""
        spans = list(self.spans)
        for path in sorted(self.out_dir.glob(f"spans-{self.owner}-*.jsonl")):
            spans += load_spans(path)
            path.unlink()
        return spans


def dump_spans(spans: list[Span], path: Path) -> None:
    """Write ``spans`` as JSON lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(asdict(s)) + "\n")


def load_spans(path: Path) -> list[Span]:
    with open(path, encoding="utf-8") as fh:
        return [Span(**json.loads(line)) for line in fh]


def _spanned(tracer: Tracer, owner, attr: str, name: str, req=None) -> None:
    """Replace ``owner.attr`` with a wrapper recording span ``name``;
    ``req`` maps the call's arguments to its request id."""
    inner = getattr(owner, attr)

    @functools.wraps(inner)
    def wrapper(*args, **kwargs):
        with tracer.span(name, None if req is None else req(*args, **kwargs)):
            return inner(*args, **kwargs)

    setattr(owner, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points for the life of this process."""
    import repro.exec as rexec
    from repro.analysis.contracts import STAGE_CALLABLES
    from repro.exec.cache import ResultCache
    from repro.exec.jobs import SimJob
    from repro.exec.journal import RunJournal
    from repro.experiments import runner
    from repro.perf.profile import install_stage_timers
    from repro.pipeline.smt_core import SMTProcessor

    # -- exec ------------------------------------------------------------
    _spanned(tracer, rexec, "execute_jobs", "exec")
    _spanned(tracer, ResultCache, "get", "exec.cache_get",
             lambda cache, job: job.content_hash())
    _spanned(tracer, ResultCache, "put", "exec.cache_put",
             lambda cache, job, payload: job.content_hash())
    _spanned(tracer, RunJournal, "record", "exec.journal",
             lambda journal, event, job_hash=None, **fields: job_hash)
    _spanned(tracer, RunJournal, "record_done", "exec.journal",
             lambda journal, job_hash, payload: job_hash)
    _spanned(tracer, RunJournal, "record_queued", "exec.journal",
             lambda journal, job, job_hash: job_hash)

    job_run = SimJob.run

    @functools.wraps(job_run)
    def run_job(job):
        try:
            with tracer.span("exec.job", job.content_hash()):
                return job_run(job)
        finally:
            tracer.flush_worker()

    SimJob.run = run_job

    # -- trace -----------------------------------------------------------
    thread_traces = runner.thread_traces

    @functools.wraps(thread_traces)
    def traced_thread_traces(benchmarks, *args, **kwargs):
        with tracer.span("trace") as attrs:
            attrs["lookups"] = len(benchmarks)
            return thread_traces(benchmarks, *args, **kwargs)

    runner.thread_traces = traced_thread_traces

    generate = runner.generate_trace

    @functools.wraps(generate)
    def traced_generate(name, length, *args, **kwargs):
        with tracer.span("trace.generate") as attrs:
            attrs["length"] = length
            return generate(name, length, *args, **kwargs)

    runner.generate_trace = traced_generate

    # -- warm ------------------------------------------------------------
    _spanned(tracer, SMTProcessor, "_install_residency", "warm.residency")
    _spanned(tracer, SMTProcessor, "_warm_up", "warm.replay")
    init = SMTProcessor.__init__

    @functools.wraps(init)
    def traced_init(core, *args, **kwargs):
        with tracer.span("warm"):
            init(core, *args, **kwargs)
        tracer._timers[id(core)] = install_stage_timers(core)

    SMTProcessor.__init__ = traced_init

    # -- core ------------------------------------------------------------
    core_run = SMTProcessor.run

    @functools.wraps(core_run)
    def traced_run(core, *args, **kwargs):
        with tracer.span("core") as attrs:
            stats = core_run(core, *args, **kwargs)
        timers = tracer._timers.pop(id(core), {})
        attrs.update(
            cycles=stats.cycles,
            committed=stats.committed_total,
            ff_skipped=core.ff.cycles_skipped if core.ff is not None else 0,
            no_dispatch_cycles=stats.no_dispatch_cycles,
            iq_full_stalls=stats.iq_full_dispatch_stalls,
            dab_inserts=stats.dab_inserts,
            stages={STAGE_CALLABLES[k]: v for k, v in timers.items()},
        )
        return stats

    SMTProcessor.run = traced_run


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")  # the furthest end counted so far
    for start, end in sorted(intervals):
        lo = max(start, reach)
        if end > lo:
            total += end - lo
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Span id -> its duration minus the part its child spans cover.

    Children of one span can overlap (two pool workers under one
    execute_jobs span), so the covered part is the union of their
    intervals, clipped to the parent's.
    """
    kids: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append(s)
    return {
        s.id: s.duration - _covered([
            (max(c.start, s.start), min(c.end, s.end)) for c in kids[s.id]
        ])
        for s in spans
    }


def layer_metrics(spans: list[Span], rep: dict,
                  workers: int) -> dict[str, float]:
    """Every :data:`LAYER_UNITS` metric but ``tracing.overhead``.

    ``rep`` is the repetition's record from ``run_rep``, which carries
    the ExecReport counts.
    """
    self_s = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def busy(name: str) -> float:
        return sum(s.duration for s in by_name[name])

    def own(name: str) -> float:
        return sum(self_s[s.id] for s in by_name[name])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {
        f"{layer}.self_s": sum(self_s[s.id] for s in spans
                               if s.name.split(".")[0] == layer)
        for layer in LAYERS
    }
    lookups = sum(s.attrs["lookups"] for s in by_name["trace"])
    generated = by_name["trace.generate"]
    out.update({
        "trace.calls": len(by_name["trace"]),
        "trace.lookups": lookups,
        "trace.generated": len(generated),
        "trace.memo_hit_ratio": 1.0 - ratio(len(generated), lookups),
        "trace.busy_s": busy("trace"),
        "trace.insns_per_s": ratio(sum(s.attrs["length"] for s in generated),
                                   busy("trace.generate")),
        "warm.calls": len(by_name["warm"]),
        "warm.busy_s": busy("warm"),
        "warm.residency_s": busy("warm.residency"),
        "warm.replay_s": busy("warm.replay"),
    })

    runs = [s.attrs for s in by_name["core"]]
    cycles = sum(a["cycles"] for a in runs)
    out.update({
        "core.calls": len(runs),
        "core.busy_s": busy("core"),
        "core.cycles": cycles,
        "core.committed": sum(a["committed"] for a in runs),
        "core.cycles_per_s": ratio(cycles, busy("core")),
        "core.ff_skip_ratio": ratio(sum(a["ff_skipped"] for a in runs),
                                    cycles),
    })
    for stage in _STAGES:
        out[f"core.stage.{stage}_s"] = sum(a["stages"].get(stage, 0.0)
                                           for a in runs)

    gets = len(by_name["exec.cache_get"])
    exec_wall = busy("exec")
    out.update({
        "exec.jobs": rep["jobs"],
        "exec.simulated": rep["simulated"],
        "exec.cached": rep["cached"],
        "exec.retried": rep["retried"],
        "exec.failed": rep["failed"],
        "exec.cache_gets": gets,
        "exec.cache_hit_ratio": ratio(rep["cached"], gets),
        # Shares of the executor's wall time. Journal spans nest
        # (record_done calls record); their self times add up to the
        # outermost spans' durations.
        "exec.cache_get_share": ratio(busy("exec.cache_get"), exec_wall),
        "exec.cache_put_share": ratio(busy("exec.cache_put"), exec_wall),
        "exec.journal_share": ratio(own("exec.journal"), exec_wall),
        "exec.job_busy_s": busy("exec.job"),
        "exec.workers": workers,
        "exec.wall_s": exec_wall,
        "exec.slot_utilisation": ratio(busy("exec.job"), workers * exec_wall),
        "exec.overhead_s": own("exec"),
    })

    # The modelled design's statistics, from the PipelineStats each run()
    # returned: SimResult.extras lacks the no-dispatch and IQ-full counts.
    ipcs = [a["committed"] / a["cycles"] for a in runs if a["committed"]]
    out.update({
        "model.cycles": cycles,
        "model.committed": out["core.committed"],
        "model.ipc_hmean": ratio(len(ipcs), sum(1.0 / x for x in ipcs)),
        "model.no_dispatch_frac": ratio(
            sum(a["no_dispatch_cycles"] for a in runs), cycles),
        "model.iq_full_stalls": sum(a["iq_full_stalls"] for a in runs),
        "model.dab_inserts": sum(a["dab_inserts"] for a in runs),
    })
    return out
