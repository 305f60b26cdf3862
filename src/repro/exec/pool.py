"""Parallel grid execution with caching, timeouts, retry and chaos.

:func:`execute_jobs` is the single entry point every sweep, figure
driver and benchmark routes through. It

* drives a :class:`~repro.exec.ledger.JobLedger` — the job-lifecycle
  state machine both local runners share — which first consults the
  :class:`~repro.exec.cache.ResultCache` (when one is configured), so
  an interrupted or warm rerun with the same ``cache_dir`` performs
  zero re-simulation of completed grid points;
* runs the remaining jobs either in-process (``jobs=1``, a single
  pending job, or a platform without ``fork``) or on ``jobs`` worker
  processes forked once for the call, which receive pickled jobs over
  a pipe. An idle worker takes the **longest** pending job, so one
  straggler does not serialise the tail of the grid, and prefers the
  mix it already holds, so it reuses that mix's slot traces and warm
  state (:class:`_Backlog`);
* enforces a per-job wall-clock timeout, detects *hung* (no longer
  heartbeating) workers within one poll interval via a per-worker
  heartbeat pipe, escalates ``terminate -> kill``, and retries a job
  whose worker crashed, hung, timed out or raised a bounded number of
  times. The failure model is per job: a failed attempt retires its
  worker, and the retry runs on a fresh fork;
* appends one fsync'd record per job transition to the run journal
  (when configured), terminates children and journals the in-flight
  jobs on ``KeyboardInterrupt`` before re-raising, and reaps any
  orphaned worker at interpreter exit;
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
from dataclasses import dataclass, replace
from multiprocessing.connection import wait as _conn_wait
from pathlib import Path
from time import (  # repro: noqa[RPR001]
    monotonic as _monotonic,
    sleep as _sleep,
)

from repro.exec.cache import ResultCache, default_cache_dir
from repro.exec.chaos import CHAOS_EXIT_CODE, ChaosConfig, ChaosError
from repro.exec.jobs import JobResult, SimJob
from repro.exec.journal import journal_dir_from_env
from repro.exec.ledger import (
    ExecProgress,
    ExecReport,
    JobFailure,
    JobLedger,
    ProgressFn,
)
from repro.exec.tracestore import trace_store
from repro.pipeline.smt_core import clear_warm_state_cache

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

#: How often an idle worker checks that its parent is still alive: a
#: parent killed outright cannot send the stop message.
_ORPHAN_POLL_SECONDS = 1.0

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
    #: Directory of the run journal (a transition log named by the
    #: batch's content-derived run id); None disables journalling.
    journal_dir: str | Path | None = None
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
        the run journal; ``REPRO_CHAOS`` configures fault injection (see
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
    the interrupt is re-raised. With a ``cache_dir``, every
    :class:`SimJob` that completed before it is already cached, so a
    rerun with the same cache simulates exactly the remainder.
    """
    cfg = executor if executor is not None else ExecutorConfig()
    cache = (ResultCache(cfg.cache_dir, chaos=cfg.chaos)
             if cfg.cache_dir is not None else None)
    ledger = JobLedger(
        jobs, cache=cache, journal_dir=cfg.journal_dir,
        retries=cfg.retries, progress=progress,
    )
    try:
        pending = ledger.open()
        use_processes = (
            cfg.jobs > 1 and len(pending) > 1 and fork_available()
        )
        runner = _run_in_processes if use_processes else _run_in_process
        # Forked workers load slot traces from <cache_dir>/traces and
        # store the ones they generate; they inherit the setting. In
        # process, the runner's memo already serves every repeat.
        with trace_store(cfg.cache_dir if use_processes else None):
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
def _trace_group(job, job_hash: str) -> object:
    """The key of the slot traces and warm state ``job`` runs on.

    :class:`SimJob` grid points of one mix (benchmarks, seed, budget and
    warmup) share both, whatever their scheduler and IQ size. Any other
    job is a group of its own.
    """
    if isinstance(job, SimJob):
        return (job.benchmarks, job.seed, job.max_insns, job.warmup)
    return job_hash


def _forget_traces() -> None:
    """Drop this process's slot-trace and warm-state memos."""
    # Imported here: the runner imports repro.exec.
    from repro.experiments.runner import clear_slot_trace_cache

    clear_slot_trace_cache()
    clear_warm_state_cache()


class _Backlog:
    """Pending jobs by :func:`_trace_group`, each group longest first."""

    def __init__(self, pending: Sequence[int], jobs: Sequence,
                 hashes: Sequence[str]) -> None:
        self._rank = {i: (-jobs[i].cost_estimate(), i) for i in pending}
        self.group_of = {i: _trace_group(jobs[i], hashes[i])
                         for i in pending}
        self._groups: dict[object, list[int]] = {}
        for idx in sorted(pending, key=self._rank.__getitem__):
            self._groups.setdefault(self.group_of[idx], []).append(idx)
        self._count = len(pending)
        #: Groups one of whose jobs has finished, so the stores hold
        #: their slot traces and warm state.
        self._settled: set = set()

    def __len__(self) -> int:
        return self._count

    def settle(self, idx: int) -> None:
        """Job ``idx`` finished (completed, or failed for good)."""
        self._settled.add(self.group_of[idx])

    def take(self, held: object, others: set) -> int | None:
        """Pop the next job for an idle worker holding group ``held``
        while other workers hold ``others``; None means it waits.

        The longest job of the first of these that has one: the
        worker's own group, whose traces it holds; a group no other
        worker holds; a group whose first job has finished, whose
        traces it can load. Waiting otherwise keeps two workers from
        building one mix's traces and warm state at once.
        """
        groups = self._groups
        for eligible in (
            [held] if held in groups else [],
            [g for g in groups if g not in others],
            [g for g in groups if g in self._settled],
        ):
            if eligible:
                group = min(eligible, key=lambda g: self._rank[groups[g][0]])
                queue = groups[group]
                idx = queue.pop(0)
                if not queue:
                    del groups[group]
                self._count -= 1
                return idx
        return None


def _heartbeat_loop(conn, interval: float, stop: threading.Event,
                    mute: threading.Event) -> None:
    """Worker-side heartbeat: tick, except while muted, until told to
    stop or the parent goes away."""
    try:
        while not stop.wait(interval):
            if not mute.is_set():
                conn.send(1)
    except (BrokenPipeError, OSError):  # repro: noqa[RPR007]
        # The parent closed its end (worker retired or run tearing
        # down); nothing left to signal.
        pass


def _worker_main(conn, hb_conn, hb_interval: float,
                 chaos: ChaosConfig | None) -> None:
    """Worker entry point: run the jobs the parent sends over ``conn``
    until it sends None, goes away, or an attempt fails.

    A job arrives as ``(idx, attempt, job, job_hash)``, and its outcome
    goes back tagged with ``(idx, attempt)``. On a job of another
    :func:`_trace_group` than the last, the worker first drops its
    slot-trace and warm-state memos, so it holds one mix at a time.
    """
    stop = threading.Event()
    mute = threading.Event()
    if hb_conn is not None:
        threading.Thread(
            target=_heartbeat_loop, args=(hb_conn, hb_interval, stop, mute),
            daemon=True,
        ).start()
    parent = os.getppid()
    held = None
    try:
        while True:
            while not conn.poll(_ORPHAN_POLL_SECONDS):
                if os.getppid() != parent:
                    return  # the parent died without stopping us
            task = conn.recv()
            if task is None:
                return
            idx, attempt, job, job_hash = task
            group = _trace_group(job, job_hash)
            if held is not None and group != held:
                _forget_traces()
            held = group
            if not _run_attempt(conn, idx, attempt, job, job_hash, chaos,
                                mute):
                return
    except (EOFError, OSError, KeyboardInterrupt):  # repro: noqa[RPR007]
        # The parent closed the pipe or is tearing the run down; it
        # accounts for any job in flight.
        pass
    finally:
        stop.set()
        conn.close()
        if hb_conn is not None:
            hb_conn.close()


def _run_attempt(conn, idx: int, attempt: int, job, job_hash: str,
                 chaos: ChaosConfig | None, mute: threading.Event) -> bool:
    """Run one attempt and send its outcome; False when it failed, which
    retires the worker.

    When chaos is configured this is also where worker-side faults are
    enacted: a hang mutes the heartbeat thread (so the parent watchdog,
    not the timeout, must catch it), a kill is a hard ``os._exit``
    either before or after computing, and delivery may be delayed or
    duplicated — all decided deterministically from the chaos seed.
    """
    try:
        kill_point = None
        if chaos is not None:
            kill_point = chaos.kill_point(job_hash, attempt)
            if chaos.should_hang(job_hash, attempt):
                mute.set()  # a hung worker stops making progress
                _sleep(chaos.hang_seconds)
                mute.clear()
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
        conn.send((idx, attempt, "ok", payload))
        if chaos is not None and chaos.should_duplicate(job_hash, attempt):
            conn.send((idx, attempt, "ok", payload))
        return True
    except BaseException as exc:  # noqa: BLE001 - serialised to parent
        try:
            conn.send((idx, attempt, "err", f"{type(exc).__name__}: {exc}"))
        except Exception:  # repro: noqa[RPR007] — parent gone; exit quietly
            pass
        return False


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
class _Worker:
    proc: multiprocessing.process.BaseProcess
    #: Duplex: jobs go out, tagged outcomes come back.
    conn: object
    hb: object | None
    #: The :func:`_trace_group` of the last job it was sent.
    group: object = None
    #: The job in flight and its attempt; ``idx`` is None while idle.
    idx: int | None = None
    attempt: int = 0
    started: float = 0.0
    last_beat: float = 0.0


def _run_in_processes(pending, cfg, ledger: JobLedger) -> None:
    ctx = multiprocessing.get_context("fork")
    jobs, hashes = ledger.jobs, ledger.hashes
    backlog = _Backlog(pending, jobs, hashes)
    width = max(1, min(cfg.jobs, len(backlog)))
    workers: list[_Worker] = []
    hb_interval = (min(_HEARTBEAT_SECONDS, cfg.watchdog / 4)
                   if cfg.watchdog is not None else _HEARTBEAT_SECONDS)

    def _spawn() -> _Worker:
        conn, child_conn = ctx.Pipe()
        hb_recv, hb_send = (ctx.Pipe(duplex=False)
                            if cfg.watchdog is not None else (None, None))
        proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, hb_send, hb_interval, cfg.chaos),
            daemon=True,
        )
        proc.start()
        with _LIVE_LOCK:
            _LIVE_WORKERS.add(proc)
        child_conn.close()  # parent keeps only its own ends
        if hb_send is not None:
            hb_send.close()
        worker = _Worker(proc=proc, conn=conn, hb=hb_recv)
        workers.append(worker)
        return worker

    def _close(worker: _Worker) -> None:
        worker.conn.close()
        if worker.hb is not None:
            worker.hb.close()

    def _retire(worker: _Worker) -> None:
        workers.remove(worker)
        _close(worker)
        _reap(worker.proc)

    def _assign(worker: _Worker, idx: int, attempt: int) -> None:
        worker.idx, worker.attempt = idx, attempt
        worker.group = backlog.group_of[idx]
        worker.started = worker.last_beat = _monotonic()
        ledger.start(idx, attempt)
        try:
            worker.conn.send((idx, attempt, jobs[idx], hashes[idx]))
        except OSError:
            _crashed(worker)

    def _crashed(worker: _Worker) -> None:
        worker.proc.join()
        if worker.idx is None:
            # Died between jobs: nothing to retry, and the loop replaces
            # it while work remains.
            _retire(worker)
            return
        _failed(worker, "worker crashed before reporting "
                        f"(exit code {worker.proc.exitcode})")

    def _failed(worker: _Worker, error: str) -> None:
        # Any failed attempt retires its worker, whatever state the job
        # left it in; a retry runs on a fresh fork.
        idx, attempt = worker.idx, worker.attempt
        _retire(worker)
        if ledger.retry(idx, attempt, error):
            _assign(_spawn(), idx, attempt + 1)
            return
        backlog.settle(idx)
        ledger.fail(idx, error)

    def _deliver(worker: _Worker, message) -> None:
        idx, attempt, kind, value = message
        if idx != worker.idx or attempt != worker.attempt:
            return  # a duplicate or late delivery of a resolved attempt
        if kind != "ok":
            _failed(worker, str(value))
            return
        worker.idx = None
        backlog.settle(idx)
        ledger.complete(idx, value)

    try:
        while backlog or any(w.idx is not None for w in workers):
            # Fork the workers, and replace retired ones while work is
            # left for them; in a fault-free run this forks once each.
            busy = sum(w.idx is not None for w in workers)
            while len(workers) < min(width, len(backlog) + busy):
                _spawn()
            for worker in list(workers):
                if worker.idx is None:
                    idx = backlog.take(
                        worker.group,
                        {w.group for w in workers if w is not worker},
                    )
                    if idx is not None:
                        _assign(worker, idx, attempt=0)

            waitable = [w.conn for w in workers]
            waitable += [w.hb for w in workers if w.hb is not None]
            ready = set(_conn_wait(waitable, timeout=_POLL_SECONDS))
            now = _monotonic()
            for worker in list(workers):
                if worker.hb is not None and worker.hb in ready:
                    try:
                        while worker.hb.poll(0):
                            worker.hb.recv()
                            worker.last_beat = now
                    except (EOFError, OSError):
                        # Worker exited; its job pipe (EOF or data)
                        # resolves it below or next poll.
                        worker.hb.close()
                        worker.hb = None
                if worker.conn in ready:
                    try:
                        message = worker.conn.recv()
                    except (EOFError, OSError):
                        _crashed(worker)
                        continue
                    _deliver(worker, message)
                elif worker.idx is None:
                    continue
                elif (
                    cfg.timeout is not None
                    and now - worker.started > cfg.timeout
                ):
                    _failed(worker, f"timed out after {cfg.timeout:g}s")
                elif (
                    cfg.watchdog is not None
                    and worker.hb is not None
                    and now - worker.last_beat > cfg.watchdog
                ):
                    _failed(
                        worker,
                        f"worker hung (no heartbeat for {cfg.watchdog:g}s)",
                    )
        for worker in workers:
            try:
                worker.conn.send(None)
            except OSError:  # repro: noqa[RPR007] — already gone; joined below
                pass
        for worker in workers:
            _close(worker)
            worker.proc.join()
            with _LIVE_LOCK:
                _LIVE_WORKERS.discard(worker.proc)
        workers.clear()
    except BaseException:
        # Ctrl-C (or any other escape): terminate and join every child,
        # journal the in-flight jobs as interrupted, then re-raise.
        # Completed jobs are already in the cache, so a rerun with it
        # re-executes exactly the in-flight and never-started ones.
        for worker in workers:
            _close(worker)
            _reap(worker.proc)
            if worker.idx is not None:
                ledger.interrupt(worker.idx, worker.attempt)
        workers.clear()
        raise
