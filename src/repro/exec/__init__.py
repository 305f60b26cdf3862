"""Parallel grid-execution engine: caching, journalling, fault tolerance.

The evaluation pipeline's bottleneck stage is the grid runner: the
paper's grid (schedulers x IQ sizes x mixes x thread counts) is
embarrassingly parallel, and identical grid points recur across figures.
This subsystem makes every sweep parallel, incremental, and — like the
paper's dispatch engine with its deadlock-avoidance buffer and watchdog
timer — guaranteed to make forward progress under faults:

* :mod:`repro.exec.jobs`    — :class:`SimJob`, a grid point as picklable,
  content-hashable data, and :class:`WorkJob`, the generic job kind
  that lets non-simulation workloads (mutation analysis) ride the same
  farm;
* :mod:`repro.exec.cache`   — :class:`ResultCache`, an on-disk
  content-addressed store with atomic writes, payload checksums and
  corrupt-entry quarantine;
* :mod:`repro.exec.journal` — :class:`RunJournal`, an optional
  fsync'd log of every job transition;
* :mod:`repro.exec.ledger`  — :class:`JobLedger`, the job lifecycle
  both runners share: the cache pass first, so an interrupted or
  repeated grid rerun with the same ``cache_dir`` simulates only the
  points the cache lacks;
* :mod:`repro.exec.chaos`   — :class:`ChaosConfig`, seeded deterministic
  fault injection (worker kills/hangs, delivery faults, cache
  corruption) for testing all of the above;
* :mod:`repro.exec.pool`    — :func:`execute_jobs`, a forked worker farm
  with longest-job-first ordering, per-job timeouts, a heartbeat
  watchdog for hung workers, bounded retry and orphan reaping, falling
  back to in-process execution when ``jobs=1`` or the platform lacks
  ``fork``.

See ``docs/exec.md`` for architecture and the determinism guarantee,
``docs/robustness.md`` for the fault-tolerance contract.
"""

from repro.exec.cache import (
    DEFAULT_CACHE_DIR,
    SCHEMA_VERSION,
    CacheStats,
    ResultCache,
    VerifyReport,
    default_cache_dir,
)
from repro.exec.chaos import CHAOS_EXIT_CODE, ChaosConfig, ChaosError
from repro.exec.jobs import JobResult, SimJob, WorkJob, jobs_for_grid
from repro.exec.journal import (
    DEFAULT_JOURNAL_DIR,
    RunJournal,
    default_journal_dir,
)
from repro.exec.ledger import JobLedger, derive_run_id
from repro.exec.pool import (
    ExecProgress,
    ExecReport,
    ExecutionError,
    ExecutorConfig,
    JobFailure,
    execute_jobs,
    fork_available,
    live_worker_count,
)

__all__ = [
    "CHAOS_EXIT_CODE",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_JOURNAL_DIR",
    "SCHEMA_VERSION",
    "CacheStats",
    "ChaosConfig",
    "ChaosError",
    "ExecProgress",
    "ExecReport",
    "ExecutionError",
    "ExecutorConfig",
    "JobFailure",
    "JobLedger",
    "JobResult",
    "ResultCache",
    "RunJournal",
    "SimJob",
    "VerifyReport",
    "WorkJob",
    "default_cache_dir",
    "default_journal_dir",
    "derive_run_id",
    "execute_jobs",
    "fork_available",
    "jobs_for_grid",
    "live_worker_count",
]
