"""Job-lifecycle state machine for grid execution.

:func:`repro.exec.pool.execute_jobs` has two runners: in-process and
the forked worker farm. Both need the same lifecycle — journal replay,
the warm-cache pass, per-transition journalling, retry accounting,
result caching and progress events — so it lives here as
:class:`JobLedger`, and each runner only decides where and when a job
runs.

A ledger owns one batch of jobs and guarantees, regardless of which
runner executes them:

* **replay first** — :meth:`open` replays any previously-journalled
  ``done`` records (resume), then consults the
  :class:`~repro.exec.cache.ResultCache`, so completed grid points are
  never recomputed;
* **every transition journalled** — ``queued``/``started``/``retried``/
  ``done``/``failed``/``interrupted`` records are appended (fsync'd)
  before the runner moves on, so a crash loses nothing and
  ``python -m repro.exec resume <run-id>`` works on a journal written
  by either runner;
* **results land once** — :meth:`complete` caches (for
  :class:`~repro.exec.jobs.SimJob` results), records and emits in one
  step, keeping :class:`ExecReport` counts consistent with the journal;
* **per-run cache counters** — on :meth:`summarize` the hit/miss
  counts of the run are persisted next to the cache
  (``<cache root>/runs/<run-id>.json``), feeding
  ``python -m repro.exec cache stats``.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.exec.cache import ResultCache
from repro.exec.jobs import JobResult, SimJob
from repro.exec.journal import RunJournal


@dataclass(slots=True)
class ExecReport:
    """Counts accumulated over one batch of jobs."""

    total: int = 0
    #: Jobs satisfied from the result cache without simulating.
    cached: int = 0
    #: Jobs replayed from a prior run's journal without simulating.
    resumed: int = 0
    #: Jobs actually simulated (in-process or in a worker).
    simulated: int = 0
    #: Jobs that exhausted their retry budget.
    failed: int = 0
    #: Crashed/hung/timed-out attempts that were retried.
    retried: int = 0
    #: Journal id of this run; None when journalling is off.
    run_id: str | None = None
    #: Terminal :class:`JobFailure` records, in resolution order.
    #: Raised inside :class:`~repro.exec.pool.ExecutionError` normally;
    #: the caller's to inspect under ``tolerate_failures``.
    job_failures: list = field(default_factory=list)

    @property
    def completed(self) -> int:
        """Jobs resolved so far (cached + resumed + simulated + failed)."""
        return self.cached + self.resumed + self.simulated + self.failed


@dataclass(frozen=True, slots=True)
class ExecProgress:
    """One progress event: the job that just resolved, plus counts."""

    job: SimJob
    payload: JobResult | None
    #: "cached" | "resumed" | "simulated" | "failed"
    outcome: str
    report: ExecReport


@dataclass(frozen=True, slots=True)
class JobFailure:
    """Terminal failure of one job after retries."""

    job: SimJob
    message: str


ProgressFn = Callable[[ExecProgress], None]


class JobLedger:
    """Job-lifecycle bookkeeping for one batch, however it executes.

    The runner (in-process or forked pool) decides *where* and *when*
    each pending job runs; the ledger decides what that means for the
    journal, the cache, the report and the progress stream. Transitions
    are methods: :meth:`start`, :meth:`retry`, :meth:`complete`,
    :meth:`fail`, :meth:`interrupt`.
    """

    def __init__(self, jobs: Sequence, *,
                 hashes: Sequence[str] | None = None,
                 cache: ResultCache | None = None,
                 journal: RunJournal | None = None,
                 resume: bool = False,
                 retries: int = 1,
                 progress: ProgressFn | None = None) -> None:
        self.jobs = list(jobs)
        self.hashes = (list(hashes) if hashes is not None
                       else [job.content_hash() for job in self.jobs])
        self.cache = cache
        self.journal = journal
        self.resume = resume
        self.retries = retries
        self.progress = progress
        self.report = ExecReport(total=len(self.jobs))
        if journal is not None:
            self.report.run_id = journal.run_id
        self.results: list[object | None] = [None] * len(self.jobs)
        self._opened = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _emit(self, idx: int, payload: object | None,
              outcome: str) -> None:
        if self.progress is not None:
            self.progress(ExecProgress(
                job=self.jobs[idx], payload=payload, outcome=outcome,
                report=self.report,
            ))

    def open(self) -> list[int]:
        """Journal the batch header, replay, and run the cache pass.

        Returns the indices still pending (to be executed by the
        runner), in submission order.
        """
        self._opened = True
        journal = self.journal
        replayed = (journal.completed_results()
                    if journal is not None and self.resume else {})
        if journal is not None:
            journal.record("run-start", run_id=self.report.run_id,
                           total=len(self.jobs), resume=self.resume,
                           schema=1)
            for job, job_hash in zip(self.jobs, self.hashes):
                journal.record_queued(job, job_hash)

        pending: list[int] = []
        for idx, job in enumerate(self.jobs):
            prior = replayed.get(self.hashes[idx])
            if prior is not None:
                self.results[idx] = prior
                self.report.resumed += 1
                if journal is not None:
                    journal.record("resumed", self.hashes[idx])
                self._emit(idx, prior, "resumed")
                continue
            # The disk cache's schema is SimJob/JobResult-shaped; other
            # job kinds bring their own store (see the WorkJob
            # docstring).
            hit = (self.cache.get(job)
                   if self.cache is not None and isinstance(job, SimJob)
                   else None)
            if hit is not None:
                self.results[idx] = hit
                self.report.cached += 1
                if journal is not None:
                    journal.record("cached", self.hashes[idx])
                self._emit(idx, hit, "cached")
            else:
                pending.append(idx)
        return pending

    # ------------------------------------------------------------------
    # per-job transitions
    # ------------------------------------------------------------------
    def start(self, idx: int, attempt: int) -> None:
        """An execution attempt of job ``idx`` has begun."""
        if self.journal is not None:
            self.journal.record("started", self.hashes[idx],
                                attempt=attempt)

    def retry(self, idx: int, attempt: int, error: str | None) -> bool:
        """A failed attempt: consume retry budget if any remains.

        Returns True (and records the retry) when the runner should
        re-execute the job with ``attempt + 1``; False when the budget
        is exhausted and the runner must call :meth:`fail`.
        """
        if attempt >= self.retries:
            return False
        self.report.retried += 1
        if self.journal is not None:
            self.journal.record("retried", self.hashes[idx],
                                attempt=attempt, error=error)
        return True

    def complete(self, idx: int, payload: object) -> None:
        """Job ``idx`` produced ``payload``: cache, journal, emit."""
        if self.cache is not None and isinstance(payload, JobResult):
            self.cache.put(self.jobs[idx], payload)
        self.results[idx] = payload
        self.report.simulated += 1
        if self.journal is not None:
            self.journal.record_done(self.hashes[idx], payload)
        self._emit(idx, payload, "simulated")

    def fail(self, idx: int, error: str | None) -> None:
        """Job ``idx`` failed terminally (budget exhausted)."""
        message = error or "worker died"
        self.report.job_failures.append(
            JobFailure(job=self.jobs[idx], message=message)
        )
        self.report.failed += 1
        if self.journal is not None:
            self.journal.record("failed", self.hashes[idx], error=error)
        self._emit(idx, None, "failed")

    def interrupt(self, idx: int, attempt: int | None = None) -> None:
        """Job ``idx`` was in flight when the run was interrupted."""
        if self.journal is not None:
            if attempt is None:
                self.journal.record("interrupted", self.hashes[idx])
            else:
                self.journal.record("interrupted", self.hashes[idx],
                                    attempt=attempt)

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        """Whether every job has resolved (completed or failed)."""
        return self.report.completed >= self.report.total

    def summarize(self) -> None:
        """Record the ``run-end`` summary and persist cache counters.

        Called once on normal completion (an interrupted run has no
        summary — that is how resume knows it is incomplete).
        """
        r = self.report
        if self.journal is not None:
            self.journal.record(
                "run-end", cached=r.cached, resumed=r.resumed,
                simulated=r.simulated, failed=r.failed,
                retried=r.retried,
            )
        if self.cache is not None and r.run_id is not None:
            self.cache.record_run(
                r.run_id, hits=r.cached,
                misses=r.total - r.cached - r.resumed, total=r.total,
            )

    def close(self) -> None:
        """Close the journal fd (safe to call repeatedly)."""
        if self.journal is not None:
            self.journal.close()
