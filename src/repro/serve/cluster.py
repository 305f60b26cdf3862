"""In-process cluster harness: one server, N forked loopback workers.

The smoke command, CI and the test suite all need a real distributed
topology — separate worker *processes* talking to a real socket server
— without any deployment machinery. :class:`LocalCluster` provides it
as a context manager::

    with LocalCluster(workers=2, cache_dir=..., journal_dir=...) as c:
        results, report = SweepClient(c.url).execute(jobs)

The server runs its own asyncio loop on a daemon thread; workers are
forked processes (like the local farm's) each running a
:class:`~repro.serve.worker.WorkerAgent` against the loopback address.
With ``respawn=True`` a supervisor thread restarts any worker that
dies — which is exactly what chaos worker-kills need: the replacement
attaches under a fresh name, the hash ring re-shards, and the sweep
still completes byte-identically. A worker that keeps dying (e.g. the
server is draining and waves every attach off) is respawned with
capped exponential backoff rather than in a tight flap loop; a worker
that stays up resets the backoff.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import threading
from pathlib import Path
from time import monotonic as _monotonic, sleep as _sleep  # repro: noqa[RPR001]

from repro.exec.chaos import ChaosConfig
from repro.serve.server import SweepServer
from repro.serve.worker import run_worker

#: Default for ``attach_timeout``: how long __enter__ waits for the
#: fleet to attach before failing.
_ATTACH_TIMEOUT = 30.0

#: Supervisor poll period for dead workers; also the base of the
#: respawn backoff.
_RESPAWN_POLL = 0.1

#: Ceiling on the per-worker respawn backoff.
_RESPAWN_BACKOFF_CAP = 2.0

#: A worker that survives this long is considered healthy: the next
#: respawn starts from the base backoff again.
_RESPAWN_HEALTHY_AFTER = 1.0


def _worker_process(url: str, slots: int, name: str,
                    chaos: ChaosConfig | None) -> None:
    run_worker(url, slots=slots, name=name, chaos=chaos)


class LocalCluster:
    """Context manager owning a sweep server plus loopback workers."""

    def __init__(self, workers: int = 2, *,
                 slots: int = 1,
                 cache_dir: str | Path | None = None,
                 journal_dir: str | Path | None = None,
                 retries: int = 8,
                 timeout: float | None = 60.0,
                 heartbeat_grace: float = 5.0,
                 chaos: ChaosConfig | None = None,
                 rotate_bytes: int | None = None,
                 respawn: bool = False,
                 attach_timeout: float = _ATTACH_TIMEOUT,
                 drain_grace: float | None = None) -> None:
        self.num_workers = workers
        self.slots = slots
        self.chaos = chaos
        self.respawn = respawn
        self.attach_timeout = attach_timeout
        server_kwargs: dict = {}
        if drain_grace is not None:
            server_kwargs["drain_grace"] = drain_grace
        self.server = SweepServer(
            cache_dir=cache_dir, journal_dir=journal_dir,
            retries=retries, timeout=timeout,
            heartbeat_grace=heartbeat_grace, chaos=chaos,
            rotate_bytes=rotate_bytes, **server_kwargs,
        )
        self.url: str = ""
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._procs: list = []
        #: proc -> (spawn time, backoff to apply if it dies quickly).
        self._spawn_info: dict = {}
        self._spawned = 0
        self._stop = threading.Event()
        self._supervisor: threading.Thread | None = None
        #: Guards _procs/_spawn_info/_spawned: the respawn supervisor
        #: thread and the harness thread (__enter__/_teardown) both
        #: mutate them.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _spawn_worker(self, backoff: float = _RESPAWN_POLL) -> None:
        ctx = multiprocessing.get_context("fork")
        with self._lock:
            self._spawned += 1
            name = f"w{self._spawned}"
        # Forked outside the lock: the child must never inherit it in
        # the locked state (RPR016).
        proc = ctx.Process(
            target=_worker_process,
            args=(self.url, self.slots, name, self.chaos),
            daemon=True,
        )
        proc.start()
        with self._lock:
            self._procs.append(proc)
            self._spawn_info[proc] = (_monotonic(), backoff)

    def _supervise(self) -> None:
        """Respawn dead workers so chaos kills cause churn, not
        starvation — with capped exponential backoff per flapping
        worker so a refusing/draining server is probed gently, not
        hammered."""
        pending: list[tuple[float, float]] = []  # (due time, backoff)
        while not self._stop.wait(_RESPAWN_POLL):
            now = _monotonic()
            with self._lock:
                procs = list(self._procs)
            for proc in procs:
                if proc.is_alive():
                    continue
                proc.join()
                with self._lock:
                    self._procs.remove(proc)
                    born, backoff = self._spawn_info.pop(
                        proc, (now, _RESPAWN_POLL))
                if now - born >= _RESPAWN_HEALTHY_AFTER:
                    # Lived long enough to count as healthy: the
                    # replacement starts from the base backoff.
                    pending.append((now, _RESPAWN_POLL))
                else:
                    pending.append((
                        now + backoff,
                        min(backoff * 2.0, _RESPAWN_BACKOFF_CAP),
                    ))
            due = [p for p in pending if p[0] <= now]
            pending = [p for p in pending if p[0] > now]
            for _, next_backoff in due:
                self._spawn_worker(next_backoff)

    def _attached_workers(self) -> int:
        assert self._loop is not None
        fut = asyncio.run_coroutine_threadsafe(
            _count_workers(self.server), self._loop
        )
        return fut.result(timeout=5.0)

    # ------------------------------------------------------------------
    def __enter__(self) -> "LocalCluster":
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, daemon=True,
            name="sweep-server",
        )
        self._thread.start()
        port = asyncio.run_coroutine_threadsafe(
            self.server.start(), self._loop
        ).result(timeout=10.0)
        self.url = f"http://127.0.0.1:{port}"
        for _ in range(self.num_workers):
            self._spawn_worker()
        deadline = _monotonic() + self.attach_timeout
        while self._attached_workers() < self.num_workers:
            if _monotonic() > deadline:
                self._teardown()
                raise TimeoutError(
                    f"only {self._attached_workers()} of "
                    f"{self.num_workers} workers attached within "
                    f"{self.attach_timeout:g}s"
                )
            _sleep(0.02)
        if self.respawn:
            self._supervisor = threading.Thread(
                target=self._supervise, daemon=True,
                name="worker-supervisor",
            )
            self._supervisor.start()
        return self

    def drain(self, grace: float | None = None) -> dict:
        """Drain the server from the harness thread (see
        :meth:`SweepServer.drain`); workers exit on the shutdown frame
        and, with ``respawn=True``, their replacements are waved off
        by the draining server and backed off by the supervisor."""
        assert self._loop is not None
        fut = asyncio.run_coroutine_threadsafe(
            self.server.drain(grace), self._loop
        )
        return fut.result(timeout=(grace or self.server.drain_grace) + 30.0)

    def _teardown(self) -> None:
        self._stop.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=5.0)
            self._supervisor = None
        with self._lock:
            procs = list(self._procs)
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
                if proc.is_alive():
                    proc.kill()
                    proc.join()
            else:
                proc.join()
        with self._lock:
            self._procs.clear()
            self._spawn_info.clear()
        if self._loop is not None:
            asyncio.run_coroutine_threadsafe(
                self.server.stop(), self._loop
            ).result(timeout=10.0)
            self._loop.call_soon_threadsafe(self._loop.stop)
            if self._thread is not None:
                self._thread.join(timeout=5.0)
                self._thread = None
            self._loop.close()
            self._loop = None

    def __exit__(self, *exc_info: object) -> None:
        self._teardown()


async def _count_workers(server: SweepServer) -> int:
    # Runs on the server's loop, so reading its state is race-free.
    return len(server.workers)
