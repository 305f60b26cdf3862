"""The four benchmark workloads and one repetition of each.

A workload is one or more grids of the paper's evaluation, each
submitted as a single closed-loop batch to the public
:func:`repro.exec.execute_jobs`: the caller submits the whole grid and
waits for all of it. Every grid uses :func:`paper_machine` and passes
the benchmark's root seed into ``SimJob.seed``, so the seed is the only
input that varies between runs.

:func:`run_rep` executes one repetition inside the current process.
The ``run`` command starts every repetition in a fresh subprocess, so
per-process memos such as the runner's slot-trace memo start cold, as
they do in a user's run.
"""

from __future__ import annotations

import hashlib
import os
import resource
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

import repro.exec as rexec
from repro.config.presets import paper_machine
from repro.exec import ExecutionError, ExecutorConfig, SimJob, jobs_for_grid
from repro.exec.cache import encode_job_result
from repro.experiments.sweep import PAPER_SCHEDULERS
from repro.util.encoding import stable_dumps
from repro.workloads.mixes import mixes_for_threads

from benchmarks.e2e import hostspeed
from benchmarks.e2e.clock import now
from benchmarks.e2e.tracing import Span, Tracer

#: Where runs leave spans and the pool workload's scratch cache; its own
#: .gitignore keeps the contents out of the repository.
OUT_DIR = Path(__file__).resolve().parent / "out"

#: The benchmark's default root seed; seed 1 is held out from tuning.
DEFAULT_SEED = 0

SCALES = ("full", "smoke")


@dataclass(frozen=True)
class Grid:
    """One execute_jobs batch: schedulers x IQ sizes x the first mixes
    of the paper's table for ``threads`` threads."""

    threads: int
    mixes: int
    iq_sizes: tuple[int, ...]
    insns: int
    #: Functional warmup per thread; None keeps the runner's default.
    warmup: int | None = None
    schedulers: tuple[str, ...] = PAPER_SCHEDULERS

    def jobs(self, seed: int) -> list[SimJob]:
        keyed = jobs_for_grid(
            mixes_for_threads(self.threads)[:self.mixes], paper_machine(),
            self.schedulers, self.iq_sizes, self.insns, seed,
        )
        return [replace(job, warmup=self.warmup) for _, job in keyed]

    def smoke(self) -> "Grid":
        """At most 6 points of 500 instructions: plumbing, not timing."""
        return replace(self, mixes=min(self.mixes, 2),
                       iq_sizes=self.iq_sizes[:1], insns=500, warmup=1000)


@dataclass(frozen=True)
class Workload:
    name: str
    #: Batches submitted one after another, each waited for in full.
    phases: tuple[Grid, ...]
    #: Worker processes given to execute_jobs.
    workers: int = 1
    #: Give the batches one fresh result cache and run journal.
    cached: bool = False


_FIG3 = Grid(threads=2, mixes=6, iq_sizes=(32, 64, 96), insns=8000)

#: Why each workload exists is recorded in BENCHMARK.json and README.md.
FULL_WORKLOADS: dict[str, Workload] = {
    # The committed EXPERIMENTS.md figure scale; balanced across layers.
    "fig3": Workload("fig3", (_FIG3,)),
    # Bound by the core loop: long runs, short warmup.
    "core-long": Workload("core-long", (
        Grid(threads=4, mixes=2, iq_sizes=(64,), insns=40_000,
             warmup=4000),
    )),
    # Bound by setup: many short points behind the default warmup.
    "short-grid": Workload("short-grid", (
        Grid(threads=3, mixes=6, iq_sizes=(32, 64, 96, 128), insns=1000),
    )),
    # `make figures` in miniature: Figure 1's 2T slice, then Figure 3,
    # through one fresh cache on forked workers (jobs = nproc = 2).
    "figures-pool": Workload("figures-pool", (
        replace(_FIG3, schedulers=("traditional", "2op_block")),
        _FIG3,
    ), workers=2, cached=True),
}


def workloads(scale: str) -> dict[str, Workload]:
    """The workloads at ``scale`` (``full`` or ``smoke``)."""
    if scale == "full":
        return FULL_WORKLOADS
    if scale != "smoke":
        raise ValueError(f"unknown scale {scale!r}; expected one of {SCALES}")
    return {
        name: replace(wl, phases=tuple(g.smoke() for g in wl.phases))
        for name, wl in FULL_WORKLOADS.items()
    }


def results_digest(results) -> str:
    """SHA-256 over the ordered canonical encodings of ``results``."""
    h = hashlib.sha256()
    for r in results:
        h.update(stable_dumps(encode_job_result(r)).encode("utf-8"))
    return h.hexdigest()


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _check_results(grid: Grid, results) -> list[str]:
    """Invariants any correct result obeys, whatever the seed."""
    errors = []
    for r in results:
        res = r.result
        if res.cycles <= 0 or max(res.committed) < grid.insns:
            errors.append(
                f"{'+'.join(res.benchmarks)} @ {res.scheduler}/iq"
                f"{res.iq_size}: stopped at {max(res.committed)} of "
                f"{grid.insns} insns after {res.cycles} cycles"
            )
    return errors


def run_rep(wl: Workload, seed: int, spawned_at: float, tracer: Tracer,
            setup_only: bool = False) -> tuple[dict[str, object], list[Span]]:
    """Run one repetition of ``wl``; returns its measurements and the
    spans ``tracer`` recorded.

    ``hostspeed.install(tracer)`` must have been called. The times are
    rescaled to the host's nominal speed (see :mod:`hostspeed`), with
    the time the speed samples took taken out. ``setup_s`` runs from
    ``spawned_at`` (the parent's monotonic clock when it started this
    process; Linux shares that clock across processes) to the first
    execute_jobs call. It covers imports, configs, the SimJob lists and
    their content hashes. With ``setup_only`` the repetition stops
    there, and ``setup_s`` is its only measurement.
    """
    phases = [grid.jobs(seed) for grid in wl.phases]
    distinct = {job.content_hash() for jobs in phases for job in jobs}
    total = sum(len(jobs) for jobs in phases)
    executor = ExecutorConfig(jobs=wl.workers)
    scratch = OUT_DIR / f"{wl.name}-{os.getpid()}"
    if wl.cached:
        shutil.rmtree(scratch, ignore_errors=True)
        executor = ExecutorConfig(jobs=wl.workers,
                                  cache_dir=scratch / "cache",
                                  journal_dir=scratch / "journal")

    if setup_only:
        setup = now() - spawned_at
        speed = hostspeed.measure([])
        return {"jobs": 0, "setup_s": setup * speed.wall, "errors": []}, []

    simulated_insns = 0

    def on_progress(event) -> None:
        nonlocal simulated_insns
        if event.outcome == "simulated":
            simulated_insns += sum(event.payload.result.committed)

    results, reports, errors = [], [], []
    cpu0 = _cpu_s()
    t0 = now()
    try:
        for jobs in phases:
            # Looked up at call time so the traced pass's wrapper applies.
            out, report = rexec.execute_jobs(jobs, executor, on_progress)
            results.append(out)
            reports.append(report)
    except ExecutionError as exc:
        reports.append(exc.report)
        errors.append(str(exc).splitlines()[0])
    wall = now() - t0
    cpu = _cpu_s() - cpu0
    spans = tracer.collect()
    speed = hostspeed.measure(spans)
    # Pool workers sample side by side, so their samples hold up the
    # batch for about their sum over the workers.
    wall_s = (wall - speed.sampled_wall_s / wl.workers) * speed.wall
    rec: dict[str, object] = dict(
        jobs=total,
        setup_s=(t0 - spawned_at) * speed.wall,
        wall_s=wall_s,
        cpu_s=(cpu - speed.sampled_cpu_s) * speed.cpu,
        peak_rss_mb=_peak_rss_mb(),
        sim_insns_per_s=simulated_insns / wall_s,
        host_speed=speed.wall,
        simulated=sum(r.simulated for r in reports),
        cached=sum(r.cached for r in reports),
        retried=sum(r.retried for r in reports),
        failed=sum(r.failed for r in reports),
        phase_digests=[results_digest(out) for out in results],
        digest=results_digest([r for out in results for r in out]),
    )
    shutil.rmtree(scratch, ignore_errors=True)
    for grid, out in zip(wl.phases, results):
        errors += _check_results(grid, out)
    if not errors and (rec["simulated"] != len(distinct)
                       or rec["cached"] != total - len(distinct)):
        errors.append(
            f"expected {len(distinct)} simulated and "
            f"{total - len(distinct)} cached, got {rec['simulated']} "
            f"and {rec['cached']}"
        )
    rec["errors"] = errors
    return rec, spans
