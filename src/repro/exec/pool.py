"""Parallel grid execution with caching, timeouts, retry and chaos.

:func:`execute_jobs` is the single entry point every sweep, figure
driver and benchmark routes through. It

* drives a :class:`~repro.exec.ledger.JobLedger` — the job-lifecycle
  state machine both local runners share — which replays any
  previously-journalled results first (``resume``), then consults the
  :class:`~repro.exec.cache.ResultCache` (when one is configured), so
  an interrupted or warm rerun performs zero re-simulation of
  completed grid points;
* runs the remaining jobs either in-process (``jobs=1``, a single
  pending job, or a platform without ``fork``) or on a farm of forked
  worker processes, scheduling **longest job first** so one straggler
  does not serialise the tail of the grid;
* enforces a per-job wall-clock timeout, detects *hung* (no longer
  heartbeating) workers within one poll interval via a per-worker
  heartbeat pipe, escalates ``terminate -> kill``, and retries crashed,
  hung or timed-out workers a bounded number of times;
* appends one fsync'd record per job transition to the run journal
  (when configured), terminates children and flushes the journal on
  ``KeyboardInterrupt`` before re-raising, and reaps any orphaned
  worker at interpreter exit;
* optionally injects deterministic faults (worker kills/hangs, delivery
  delay/duplication, cache corruption) from a seeded
  :class:`~repro.exec.chaos.ChaosConfig` — the test-enforced invariant
  is that a chaotic run's results are byte-identical to a fault-free
  run's.

Determinism: workers only ever *compute* — each job is an independent
pure function of its content (see :mod:`repro.exec.jobs`), results are
reassembled in submission order, and nothing about scheduling order,
worker count, cache state, or injected faults can leak into a result
value. A grid executed with ``jobs=8`` is byte-identical to ``jobs=1``;
the test suite enforces this.

The wall clock is read for *harness* concerns only (timeouts,
heartbeats, progress) — never inside simulation code — hence the
targeted RPR001 suppression on the import below.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from multiprocessing.connection import wait as _conn_wait
from pathlib import Path
from time import (  # repro: noqa[RPR001]
    monotonic as _monotonic,
    sleep as _sleep,
)

from repro.exec.cache import ResultCache, default_cache_dir
from repro.exec.chaos import CHAOS_EXIT_CODE, ChaosConfig, ChaosError
from repro.exec.jobs import JobResult, SimJob
from repro.exec.journal import RunJournal, derive_run_id, journal_dir_from_env
from repro.exec.ledger import (
    ExecProgress,
    ExecReport,
    JobFailure,
    JobLedger,
    ProgressFn,
)

__all__ = [
    "ExecProgress",
    "ExecReport",
    "ExecutionError",
    "ExecutorConfig",
    "JobFailure",
    "ProgressFn",
    "execute_jobs",
    "fork_available",
    "live_worker_count",
]

#: Poll interval for the farm's event loop (seconds). Workers signal
#: completion through pipes, so this only bounds timeout/watchdog
#: detection lag.
_POLL_SECONDS = 0.05

#: Grace between SIGTERM and SIGKILL when escalating on a stuck worker.
_TERM_GRACE_SECONDS = 1.0

#: Default heartbeat period for workers (the parent tolerates a
#: configurable multiple of this before declaring a worker hung).
_HEARTBEAT_SECONDS = 0.1

#: Default hung-worker grace (seconds of heartbeat silence). Generous:
#: the heartbeat thread ticks every 0.1 s regardless of how slow the
#: simulation is, so only a genuinely stuck process goes silent.
_DEFAULT_WATCHDOG_SECONDS = 30.0

#: Workers spawned by this process that have not yet been joined;
#: :func:`_reap_orphans` sweeps it at interpreter exit so no simulation
#: child can outlive the harness.
_LIVE_WORKERS: set = set()

#: Guards _LIVE_WORKERS, which every execute_jobs call in the process
#: shares: once one runs off the main thread, another pool,
#: live_worker_count or the atexit sweep can touch the set concurrently.
_LIVE_LOCK = threading.Lock()


@dataclass(frozen=True, slots=True)
class ExecutorConfig:
    """How a grid should be executed.

    ``jobs=1`` (the default) runs in-process with no behavioural change
    from the historical serial path; ``jobs>1`` forks worker processes.
    """

    jobs: int = 1
    #: Directory of the content-addressed result cache; None disables
    #: caching entirely.
    cache_dir: str | Path | None = None
    #: Per-job wall-clock limit in seconds (process mode only; a job
    #: cannot be interrupted in-process). None means unlimited.
    timeout: float | None = None
    #: How many *additional* attempts a crashed, hung or timed-out job
    #: gets before it is reported as failed.
    retries: int = 1
    #: Directory of the crash-safe run journal; None disables
    #: journalling (and hence resume).
    journal_dir: str | Path | None = None
    #: Journal file name; None derives a content-addressed id from the
    #: batch (same grid -> same journal).
    run_id: str | None = None
    #: Replay completed results from an existing journal instead of
    #: rotating it aside and starting fresh.
    resume: bool = False
    #: Deterministic fault injection; None runs faithfully.
    chaos: ChaosConfig | None = None
    #: Declare a worker hung when its heartbeat pipe has been silent
    #: this many seconds (process mode only); None disables the
    #: watchdog. Distinct from ``timeout``: a slow-but-computing worker
    #: keeps heartbeating and only ``timeout`` can reap it, while a
    #: hung worker stops beating and is reaped within roughly this
    #: grace period regardless of how generous ``timeout`` is.
    watchdog: float | None = _DEFAULT_WATCHDOG_SECONDS
    #: Return instead of raise when jobs fail terminally: results come
    #: back *positionally* (one slot per input job, ``None`` where the
    #: job failed) and the failures are on ``report.job_failures``. For
    #: workloads where individual failures are data, not errors —
    #: mutation analysis treats a crashing mutant as a kill.
    tolerate_failures: bool = False

    def __post_init__(self) -> None:
        # Reject here, not in the farm: a non-positive timeout or
        # watchdog would fail every pooled job as timed out or hung.
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")
        if self.retries < 0:
            raise ValueError(
                f"retries must be non-negative, got {self.retries}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(
                f"timeout must be positive (None disables it), "
                f"got {self.timeout}"
            )
        if self.watchdog is not None and self.watchdog <= 0:
            raise ValueError(
                f"watchdog must be positive (None disables it), "
                f"got {self.watchdog}"
            )

    @classmethod
    def from_env(cls, default_cache: bool = False) -> "ExecutorConfig":
        """Build from the ``REPRO_*`` execution knobs.

        ``REPRO_JOBS`` / ``REPRO_CACHE`` / ``REPRO_CACHE_DIR`` as
        before (``REPRO_CACHE=1`` — or ``default_cache=True`` — enables
        the cache at its default root, ``REPRO_CACHE=0`` disables it
        either way); ``REPRO_JOURNAL`` (``1`` or a directory) enables
        the run journal; ``REPRO_RESUME=1`` resumes from it;
        ``REPRO_CHAOS`` configures fault injection (see
        :mod:`repro.exec.chaos`); ``REPRO_WATCHDOG`` overrides the hung
        -worker grace in seconds (``0`` disables).
        """
        jobs = int(os.environ.get("REPRO_JOBS", "1"))
        cache_flag = os.environ.get("REPRO_CACHE")
        if cache_flag is None:
            cached = default_cache
        else:
            cached = cache_flag != "0"
        watchdog_env = os.environ.get("REPRO_WATCHDOG")
        watchdog: float | None = _DEFAULT_WATCHDOG_SECONDS
        if watchdog_env is not None:
            watchdog = float(watchdog_env) or None
        return cls(
            jobs=jobs,
            cache_dir=default_cache_dir() if cached else None,
            journal_dir=journal_dir_from_env(),
            resume=os.environ.get("REPRO_RESUME", "0") not in ("", "0"),
            chaos=ChaosConfig.from_env(),
            watchdog=watchdog,
        )

    def with_cache_dir(self, cache_dir: str | Path | None) -> "ExecutorConfig":
        """Copy with a different cache root (benchmarks, tests)."""
        return replace(self, cache_dir=cache_dir)


class ExecutionError(RuntimeError):
    """Raised when any job of a grid fails terminally."""

    def __init__(self, failures: Sequence[JobFailure],
                 report: ExecReport) -> None:
        self.failures = list(failures)
        self.report = report
        lines = [f"{len(self.failures)} job(s) failed:"]
        for f in self.failures:
            lines.append(f"  {f.job.describe()}: {f.message}")
        super().__init__("\n".join(lines))


def fork_available() -> bool:
    """Whether this platform can fork worker processes."""
    return "fork" in multiprocessing.get_all_start_methods()


def live_worker_count() -> int:
    """Workers currently alive (diagnostics/tests; 0 after any clean
    or interrupted :func:`execute_jobs` return)."""
    with _LIVE_LOCK:
        procs = list(_LIVE_WORKERS)
    return sum(1 for proc in procs if proc.is_alive())


def execute_jobs(jobs: Sequence[SimJob],
                 executor: ExecutorConfig | None = None,
                 progress: ProgressFn | None = None,
                 ) -> tuple[list[JobResult], ExecReport]:
    """Execute a batch of grid points; returns results in input order.

    Raises :class:`ExecutionError` if any job fails terminally (crash,
    hang or timeout beyond the retry budget, or an exception raised by
    the simulation itself). On ``KeyboardInterrupt`` all workers are
    terminated, in-flight jobs are journalled as ``interrupted``, and
    the interrupt is re-raised — a later ``resume`` run picks up
    exactly the incomplete remainder.
    """
    cfg = executor if executor is not None else ExecutorConfig()
    cache = (ResultCache(cfg.cache_dir, chaos=cfg.chaos)
             if cfg.cache_dir is not None else None)
    hashes = [job.content_hash() for job in jobs]
    journal: RunJournal | None = None
    if cfg.journal_dir is not None:
        run_id = cfg.run_id or derive_run_id(hashes)
        journal = RunJournal(cfg.journal_dir, run_id, resume=cfg.resume)

    ledger = JobLedger(
        jobs, hashes=hashes, cache=cache, journal=journal,
        resume=cfg.resume, retries=cfg.retries, progress=progress,
    )
    try:
        pending = ledger.open()
        use_processes = (
            cfg.jobs > 1 and len(pending) > 1 and fork_available()
        )
        runner = _run_in_processes if use_processes else _run_in_process
        runner(pending, cfg, ledger)
        ledger.summarize()
    finally:
        ledger.close()

    report = ledger.report
    if report.job_failures and not cfg.tolerate_failures:
        raise ExecutionError(report.job_failures, report)
    if cfg.tolerate_failures:
        # Positional: one slot per input job, None where it failed.
        return list(ledger.results), report
    return [r for r in ledger.results if r is not None], report


# ----------------------------------------------------------------------
# in-process execution (jobs=1, single pending job, or fork-less host)
# ----------------------------------------------------------------------
def _run_in_process(pending, cfg, ledger: JobLedger) -> None:
    # Submission order is preserved so callers see progress stream in
    # grid order; timeouts cannot be enforced without a worker process.
    # Chaos kills become raised ChaosErrors here — there is no worker
    # process to sacrifice, but the retry path is exercised identically.
    jobs, hashes = ledger.jobs, ledger.hashes
    for idx in pending:
        job = jobs[idx]
        job_hash = hashes[idx]
        payload = None
        attempt = 0
        while True:
            ledger.start(idx, attempt)
            try:
                if cfg.chaos is not None and cfg.chaos.should_kill(
                    job_hash, attempt
                ):
                    raise ChaosError("chaos: injected in-process crash")
                payload = job.run()
                break
            except KeyboardInterrupt:
                ledger.interrupt(idx)
                raise
            except Exception as exc:  # noqa: BLE001 - reported to caller
                message = f"{type(exc).__name__}: {exc}"
                if ledger.retry(idx, attempt, message):
                    attempt += 1
                    continue
                ledger.fail(idx, message)
                break
        if payload is not None:
            ledger.complete(idx, payload)


# ----------------------------------------------------------------------
# forked worker farm
# ----------------------------------------------------------------------
def _heartbeat_loop(conn, interval: float, stop: threading.Event) -> None:
    """Worker-side heartbeat: tick until told to stop or the parent
    goes away."""
    try:
        while not stop.wait(interval):
            conn.send(1)
    except (BrokenPipeError, OSError):  # repro: noqa[RPR007]
        # The parent closed its end (job finished or run tearing
        # down); nothing left to signal.
        pass


def _worker_main(job: SimJob, job_hash: str, attempt: int, conn, hb_conn,
                 hb_interval: float, chaos: ChaosConfig | None) -> None:
    """Worker entry point: run one job, ship the outcome, exit.

    When chaos is configured this is also where worker-side faults are
    enacted: a hang stops the heartbeat thread (so the parent watchdog,
    not the timeout, must catch it), a kill is a hard ``os._exit``
    either before or after computing, and delivery may be delayed or
    duplicated — all decided deterministically from the chaos seed.
    """
    stop = threading.Event()
    if hb_conn is not None:
        threading.Thread(
            target=_heartbeat_loop, args=(hb_conn, hb_interval, stop),
            daemon=True,
        ).start()
    try:
        kill_point = None
        if chaos is not None:
            kill_point = chaos.kill_point(job_hash, attempt)
            if chaos.should_hang(job_hash, attempt):
                stop.set()  # a hung worker stops making progress
                _sleep(chaos.hang_seconds)
            slow = chaos.slow_delay(job_hash, attempt)
            if slow > 0.0:
                # Heartbeat-but-slow: the beat thread keeps ticking, so
                # only the per-job timeout (never the watchdog) applies.
                _sleep(slow)
            if kill_point == "early":
                os._exit(CHAOS_EXIT_CODE)
        payload = job.run()
        if chaos is not None:
            if kill_point == "late":
                os._exit(CHAOS_EXIT_CODE)
            delay = chaos.delivery_delay(job_hash, attempt)
            if delay > 0.0:
                _sleep(delay)
        conn.send(("ok", payload))
        if chaos is not None and chaos.should_duplicate(job_hash, attempt):
            conn.send(("ok", payload))
    except BaseException as exc:  # noqa: BLE001 - serialised to parent
        try:
            conn.send(("err", f"{type(exc).__name__}: {exc}"))
        except Exception:  # repro: noqa[RPR007] — parent gone; exit quietly
            pass
    finally:
        stop.set()
        conn.close()
        if hb_conn is not None:
            hb_conn.close()


def _reap(proc) -> None:
    """Stop one worker for good: terminate, then kill if it lingers."""
    if proc.is_alive():
        proc.terminate()
        proc.join(_TERM_GRACE_SECONDS)
        if proc.is_alive():
            proc.kill()
            proc.join()
    else:
        proc.join()
    with _LIVE_LOCK:
        _LIVE_WORKERS.discard(proc)


def _reap_orphans() -> None:
    """Interpreter-exit sweep: no worker may outlive the harness."""
    with _LIVE_LOCK:
        procs = list(_LIVE_WORKERS)
    for proc in procs:
        _reap(proc)


atexit.register(_reap_orphans)


@dataclass(slots=True)
class _Running:
    idx: int
    attempt: int
    proc: multiprocessing.process.BaseProcess
    conn: object
    hb: object | None
    started: float
    last_beat: float
    done: bool = field(default=False)


def _run_in_processes(pending, cfg, ledger: JobLedger) -> None:
    ctx = multiprocessing.get_context("fork")
    jobs, hashes = ledger.jobs, ledger.hashes
    # Longest job first: dispatch the expensive grid points before the
    # cheap ones so the final workers drain short tails, minimising
    # makespan (classic LPT list scheduling).
    queue = sorted(
        pending, key=lambda i: (-jobs[i].cost_estimate(), i)
    )
    queue.reverse()  # pop() takes from the end
    width = max(1, min(cfg.jobs, len(queue)))
    running: list[_Running] = []
    hb_interval = (min(_HEARTBEAT_SECONDS, cfg.watchdog / 4)
                   if cfg.watchdog is not None else _HEARTBEAT_SECONDS)

    def _spawn(idx: int, attempt: int) -> None:
        recv, send = ctx.Pipe(duplex=False)
        hb_recv, hb_send = (ctx.Pipe(duplex=False)
                            if cfg.watchdog is not None else (None, None))
        proc = ctx.Process(
            target=_worker_main,
            args=(jobs[idx], hashes[idx], attempt, send, hb_send,
                  hb_interval, cfg.chaos),
            daemon=True,
        )
        proc.start()
        with _LIVE_LOCK:
            _LIVE_WORKERS.add(proc)
        send.close()  # parent keeps only the read ends
        if hb_send is not None:
            hb_send.close()
        now = _monotonic()
        running.append(_Running(
            idx=idx, attempt=attempt, proc=proc, conn=recv, hb=hb_recv,
            started=now, last_beat=now,
        ))
        ledger.start(idx, attempt)

    def _close_slot(slot: _Running, forced: bool) -> None:
        slot.conn.close()
        if slot.hb is not None:
            slot.hb.close()
        if forced:
            _reap(slot.proc)
        else:
            slot.proc.join()
            with _LIVE_LOCK:
                _LIVE_WORKERS.discard(slot.proc)
        running.remove(slot)

    def _finish(slot: _Running, payload: JobResult | None,
                error: str | None, forced: bool = False) -> None:
        _close_slot(slot, forced)
        if payload is not None:
            ledger.complete(slot.idx, payload)
            return
        if ledger.retry(slot.idx, slot.attempt, error):
            _spawn(slot.idx, slot.attempt + 1)
            return
        ledger.fail(slot.idx, error)

    try:
        while queue or running:
            while queue and len(running) < width:
                _spawn(queue.pop(), attempt=0)

            waitable = [slot.conn for slot in running]
            waitable += [slot.hb for slot in running if slot.hb is not None]
            ready = set(_conn_wait(waitable, timeout=_POLL_SECONDS))
            now = _monotonic()
            for slot in list(running):
                if slot.hb is not None and slot.hb in ready:
                    try:
                        while slot.hb.poll(0):
                            slot.hb.recv()
                            slot.last_beat = now
                    except (EOFError, OSError):
                        # Worker exited; its result pipe (EOF or data)
                        # resolves the slot below or next poll.
                        slot.hb.close()
                        slot.hb = None
                if slot.conn in ready:
                    try:
                        kind, value = slot.conn.recv()
                    except (EOFError, OSError):
                        slot.proc.join()
                        code = slot.proc.exitcode
                        _finish(
                            slot, None,
                            "worker crashed before reporting "
                            f"(exit code {code})",
                        )
                        continue
                    if kind == "ok":
                        _finish(slot, value, None)
                    else:
                        _finish(slot, None, str(value))
                elif (
                    cfg.timeout is not None
                    and now - slot.started > cfg.timeout
                ):
                    _finish(
                        slot, None,
                        f"timed out after {cfg.timeout:g}s",
                        forced=True,
                    )
                elif (
                    cfg.watchdog is not None
                    and slot.hb is not None
                    and now - slot.last_beat > cfg.watchdog
                ):
                    _finish(
                        slot, None,
                        "worker hung (no heartbeat for "
                        f"{cfg.watchdog:g}s)",
                        forced=True,
                    )
    except BaseException:
        # Ctrl-C (or any other escape): terminate and join every child,
        # journal the in-flight jobs as interrupted so a resume run
        # re-executes exactly them, then re-raise. The journal's
        # per-record fsync means completed work is already durable.
        for slot in list(running):
            slot.conn.close()
            if slot.hb is not None:
                slot.hb.close()
            _reap(slot.proc)
            ledger.interrupt(slot.idx, slot.attempt)
        running.clear()
        raise
