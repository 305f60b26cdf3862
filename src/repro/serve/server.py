"""The sweep server: submissions in, sharded jobs out, results shared.

One :class:`SweepServer` owns four pieces of state, all mutated from a
single asyncio event loop (no locks):

* ``sweeps`` — one :class:`Sweep` per submission batch, keyed by the
  content-derived run id (:func:`repro.exec.journal.derive_run_id`).
  Two clients submitting the same grid concurrently get the *same*
  sweep object — the second submission attaches to the in-flight run.
  Each sweep drives its own :class:`~repro.exec.ledger.JobLedger`, so
  cache replay, journalling, retry accounting and progress events work
  exactly as they do for the single-host executor.
* ``jobs`` — the cross-sweep dedup table, keyed by job content hash.
  However many sweeps want a grid point, it executes at most once; each
  waiting (sweep, index) pair is resolved when the result lands.
* ``workers`` — the attached fleet. Each job goes to its consistent
  hash ring owner (:func:`~repro.serve.policy.ring_assign`). A worker
  that disconnects, stops heartbeating or blows its job deadline has
  its in-flight jobs requeued through the normal retry budget — worker
  churn is just another fault.
* shared stores — one :class:`~repro.exec.cache.ResultCache` (the
  schema-v2 checksummed store doubles as the cluster-wide shared
  cache; a re-submitted grid is served from it without touching a
  worker) and one :class:`~repro.exec.journal.RunJournal` per sweep
  (the fsync'd journal doubles as the replication log: a server restart
  followed by re-submission — or ``{"resume": "<run-id>"}`` — replays
  completed grid points with zero re-simulation).

Graceful drain (``POST /v1/admin/drain`` or SIGTERM; see
docs/distributed.md "Drain, health and retry"): stop accepting
submissions (503 with ``Retry-After``), let dispatched jobs finish
against a deadline, journal the remainder as ``interrupted``, send
workers the ``shutdown`` frame — a restart + resubmission then replays
every completed point with zero re-simulation, the crash invariant
extended to clean restarts. ``GET /v1/health`` reports queue depth,
worker liveness and drain state.

Failure model (see docs/distributed.md): results are **exactly-once**
— attempts are at-least-once (dropped frames, dead workers and
deadlines re-dispatch; duplicate and late result frames for a resolved
hash are discarded), but a job's effect lands once because jobs are
pure functions of their content and the dedup table resolves each hash
a single time per sweep index. Every result frame is checksummed with
the same digest the on-disk cache uses; a corrupt frame is treated as
lost, never believed.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from pathlib import Path
from time import monotonic as _monotonic  # repro: noqa[RPR001]

from repro.exec.cache import ResultCache, encode_job_result
from repro.exec.chaos import ChaosConfig
from repro.exec.jobs import JobResult, jobs_for_grid
from repro.exec.journal import RunJournal, derive_run_id
from repro.exec.ledger import ExecProgress, JobLedger
from repro.serve.http import (
    ProtocolError,
    Request,
    read_request,
    send_error,
    send_json,
    start_stream,
)
from repro.serve.policy import ring_assign
from repro.serve.protocol import (
    FrameError,
    decode_result_frame,
    job_from_fingerprint,
    read_frame,
    send_frame,
)

#: Default grace (seconds of heartbeat silence) before a worker is
#: declared dead and its in-flight jobs re-shard.
DEFAULT_HEARTBEAT_GRACE = 5.0

#: Period of the deadline/heartbeat sweep task.
_TICK_SECONDS = 0.05

#: Default drain grace: how long dispatched jobs get to finish before
#: the remainder is journalled as ``interrupted``.
DEFAULT_DRAIN_GRACE = 10.0


def _encode_body(payload: object) -> tuple[object, str]:
    """(JSON-safe body, kind) for a resolved payload — the same
    discrimination the journal and the wire protocol use."""
    if isinstance(payload, JobResult):
        return encode_job_result(payload), "sim"
    return payload, "raw"


@dataclass(slots=True)
class Sweep:
    """One submission batch and its ledger-driven lifecycle."""

    sweep_id: str
    ledger: JobLedger
    #: Event history (replayed to every ``/events`` subscriber).
    events: list[dict] = field(default_factory=list)
    #: Live subscriber queues; a ``None`` item ends the stream.
    queues: list[asyncio.Queue] = field(default_factory=list)
    finished: bool = False
    #: Set when a drain journalled the sweep's remainder as
    #: ``interrupted`` — it will never finish on this server; a
    #: resubmission after restart resumes it.
    interrupted: bool = False

    def emit(self, event: dict) -> None:
        self.events.append(event)
        for q in self.queues:
            q.put_nowait(event)

    def end_streams(self) -> None:
        for q in self.queues:
            q.put_nowait(None)
        self.queues.clear()


@dataclass(slots=True)
class _JobState:
    """Cross-sweep execution state of one content hash."""

    job: object
    #: "queued" | "dispatched" | "done" | "failed"
    status: str = "queued"
    attempt: int = 0
    worker: str | None = None
    deadline: float | None = None
    payload: object | None = None
    error: str | None = None
    #: (sweep, index-in-that-sweep) pairs awaiting this hash.
    waiters: list[tuple[Sweep, int]] = field(default_factory=list)


@dataclass(slots=True)
class _Worker:
    """One attached worker connection."""

    name: str
    slots: int
    pid: int
    writer: asyncio.StreamWriter
    last_beat: float
    in_flight: set[str] = field(default_factory=set)


class SweepServer:
    """Asyncio HTTP/JSON job server for distributed sweeps.

    ``await start()`` binds and returns the port; ``await stop()``
    tears everything down. All handlers run on the caller's loop.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 cache_dir: str | Path | None = None,
                 journal_dir: str | Path | None = None,
                 retries: int = 1,
                 timeout: float | None = None,
                 heartbeat_grace: float = DEFAULT_HEARTBEAT_GRACE,
                 chaos: ChaosConfig | None = None,
                 rotate_bytes: int | None = None,
                 drain_grace: float = DEFAULT_DRAIN_GRACE) -> None:
        self.host = host
        self.port = port
        self.cache = (ResultCache(cache_dir, chaos=chaos)
                      if cache_dir is not None else None)
        self.journal_dir = (Path(journal_dir)
                            if journal_dir is not None else None)
        self.retries = retries
        self.timeout = timeout
        self.heartbeat_grace = heartbeat_grace
        self.chaos = chaos
        self.rotate_bytes = rotate_bytes
        self.drain_grace = drain_grace

        self.sweeps: dict[str, Sweep] = {}
        self.jobs: dict[str, _JobState] = {}
        self.workers: dict[str, _Worker] = {}
        #: "serving" | "draining" | "drained".
        self.state = "serving"
        self._wake = asyncio.Event()
        self._server: asyncio.Server | None = None
        self._tasks: list[asyncio.Task] = []
        self._worker_seq = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> int:
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]  # repro: noqa[RPR017] — rebinds port 0 to the OS-assigned port once, before any handler can run
        self._tasks = [
            asyncio.ensure_future(self._dispatch_loop()),
            asyncio.ensure_future(self._tick_loop()),
        ]
        return self.port

    async def serve_forever(self) -> None:
        await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        for task in self._tasks:
            task.cancel()
        self._tasks = []
        for w in list(self.workers.values()):
            try:
                await send_frame(w.writer, {"type": "shutdown"})
            except (ConnectionError, OSError):  # repro: noqa[RPR007]
                pass  # already gone; nothing to shut down
            w.writer.close()
        self.workers.clear()
        # Claim-then-close: the attribute is cleared *before* the
        # await, so a re-entrant stop() sees None instead of closing
        # the same server twice across the suspension point.
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        for sweep in self.sweeps.values():
            if not sweep.finished:
                # In-flight ledger: the fsync'd journal already holds
                # every completed transition; just release the fd.
                sweep.ledger.close()

    # ------------------------------------------------------------------
    # submissions
    # ------------------------------------------------------------------
    def submit(self, jobs: list, run_id: str | None = None,
               resume: bool = False) -> Sweep:
        """Create (or attach to) the sweep executing ``jobs``."""
        hashes = [job.content_hash() for job in jobs]
        sweep_id = run_id or derive_run_id(hashes)
        existing = self.sweeps.get(sweep_id)
        if existing is not None and not existing.finished:
            return existing

        journal = None
        if self.journal_dir is not None:
            path = self.journal_dir / f"{sweep_id}.jsonl"
            journal = RunJournal(
                self.journal_dir, sweep_id,
                # The journal is the replication log: if a prior server
                # (or a single-host run) journalled this grid, resume
                # it instead of rotating its completed work aside.
                resume=resume or path.exists(),
                rotate_bytes=self.rotate_bytes,
            )

        sweep = Sweep(sweep_id=sweep_id, ledger=JobLedger(
            jobs, hashes=hashes, cache=self.cache, journal=journal,
            resume=journal is not None, retries=self.retries,
            progress=None,
        ))
        # Bind the progress stream after construction so the callback
        # can close over the sweep object itself.
        sweep.ledger.progress = lambda ev: self._emit_progress(sweep, ev)
        self.sweeps[sweep_id] = sweep
        sweep.emit({"event": "sweep-start", "sweep": sweep_id,
                    "total": len(jobs)})

        pending = sweep.ledger.open()
        for idx in pending:
            self._enqueue(sweep, idx)
        self._check_sweep(sweep)
        self._wake.set()
        return sweep

    def _enqueue(self, sweep: Sweep, idx: int) -> None:
        job_hash = sweep.ledger.hashes[idx]
        job = sweep.ledger.jobs[idx]
        st = self.jobs.get(job_hash)
        if st is None or st.status == "failed":
            # Fresh hash — or a hash that failed terminally for an
            # earlier sweep: a new submission buys a fresh budget.
            st = _JobState(job=job)
            self.jobs[job_hash] = st
        if st.status == "done":
            # Dedup hit against a batch resolved earlier this session
            # (covers WorkJobs and cache-less servers; disk-cache hits
            # were already taken in ledger.open()).
            sweep.ledger.complete(idx, st.payload)
            return
        st.waiters.append((sweep, idx))

    def _emit_progress(self, sweep: Sweep, ev: ExecProgress) -> None:
        event: dict[str, object] = {
            "event": ev.outcome,
            "job": ev.job.content_hash(),
            "completed": ev.report.completed,
            "total": ev.report.total,
        }
        if ev.payload is not None:
            body, kind = _encode_body(ev.payload)
            event["body"] = body
            event["body_kind"] = kind
        sweep.emit(event)

    def _check_sweep(self, sweep: Sweep) -> None:
        if sweep.finished or not sweep.ledger.done:
            return
        sweep.ledger.summarize()
        sweep.ledger.close()
        sweep.finished = True
        sweep.emit({"event": "sweep-end", "sweep": sweep.sweep_id,
                    "report": sweep.ledger.report.as_dict()})
        for q in sweep.queues:
            q.put_nowait(None)
        sweep.queues.clear()

    # ------------------------------------------------------------------
    # job resolution
    # ------------------------------------------------------------------
    def _resolve(self, st: _JobState, job_hash: str,
                 payload: object) -> None:
        """A valid result landed for ``job_hash``: fan out to waiters."""
        if st.worker is not None:
            w = self.workers.get(st.worker)
            if w is not None:
                w.in_flight.discard(job_hash)
        st.status = "done"
        st.payload = payload
        st.worker = None
        st.deadline = None
        waiters, st.waiters = st.waiters, []
        for sweep, idx in waiters:
            sweep.ledger.complete(idx, payload)
        for sweep, _ in waiters:
            self._check_sweep(sweep)
        self._wake.set()

    def _attempt_failed(self, st: _JobState, job_hash: str,
                        error: str) -> None:
        """One attempt died (crash, deadline, lost frame): retry or
        fail through every waiting ledger's budget."""
        if st.worker is not None:
            w = self.workers.get(st.worker)
            if w is not None:
                w.in_flight.discard(job_hash)
        st.worker = None
        st.deadline = None
        retryable = st.attempt < self.retries
        for sweep, idx in st.waiters:
            if retryable:
                sweep.ledger.retry(idx, st.attempt, error)
            else:
                sweep.ledger.fail(idx, error)
        if retryable:
            st.attempt += 1
            st.status = "queued"
            self._wake.set()
            return
        st.status = "failed"
        st.error = error
        waiters, st.waiters = st.waiters, []
        for sweep, _ in waiters:
            self._check_sweep(sweep)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            await self._dispatch_once()

    async def _dispatch_once(self) -> None:
        if self.state != "serving":
            # Draining: in-flight jobs may finish, nothing new starts.
            return
        # Dict order is first-enqueue order, so jobs go out as submitted.
        queued = [h for h, st in self.jobs.items() if st.status == "queued"]
        for job_hash in queued:
            if not self.workers:
                return  # the fleet left across a dispatch await
            st = self.jobs[job_hash]
            if st.status != "queued":
                continue
            # A busy ring owner leaves the job queued rather than
            # migrating it: placement stability over utilisation.
            w = self.workers[ring_assign(job_hash, list(self.workers))]
            if len(w.in_flight) < w.slots:
                await self._dispatch_to(w, st, job_hash)

    async def _dispatch_to(self, w: _Worker, st: _JobState,
                           job_hash: str) -> None:
        st.status = "dispatched"
        st.worker = w.name
        if self.timeout is not None:
            st.deadline = _monotonic() + self.timeout
        w.in_flight.add(job_hash)
        for sweep, idx in st.waiters:
            sweep.ledger.start(idx, st.attempt)
        frame = {
            "type": "job",
            "hash": job_hash,
            "attempt": st.attempt,
            "fingerprint": st.job.fingerprint_payload(),
            "timeout": self.timeout,
        }
        try:
            # A chaos "drop" here means the worker never hears about
            # the job — the deadline sweep re-dispatches the attempt,
            # exactly like a lost packet would play out.
            await send_frame(w.writer, frame, chaos=self.chaos,
                             site="serve-dispatch", key=job_hash,
                             attempt=st.attempt)
        except (ConnectionError, OSError):
            await self._drop_worker(w, "connection lost")

    # ------------------------------------------------------------------
    # worker fleet
    # ------------------------------------------------------------------
    async def _serve_worker(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        try:
            hello = await read_frame(reader)
        except FrameError:
            writer.close()
            return
        if (hello is None or hello.get("type") != "hello"
                or not _is_int(hello.get("slots", 1))
                or not _is_int(hello.get("pid", 0))):
            writer.close()
            return
        self._worker_seq += 1
        name = str(hello.get("name") or f"worker-{self._worker_seq}")
        old = self.workers.get(name)
        if old is not None:
            # A reconnect under the same name supersedes the old link.
            await self._drop_worker(old, "superseded")
        w = _Worker(
            name=name, slots=max(1, hello.get("slots", 1)),
            pid=hello.get("pid", 0), writer=writer,
            last_beat=_monotonic(),
        )
        self.workers[name] = w
        self._wake.set()
        try:
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break
                kind = frame.get("type")
                if kind == "heartbeat":
                    w.last_beat = _monotonic()
                elif kind == "result":
                    self._on_result(frame)
                elif kind == "job-error":
                    self._on_job_error(frame)
        except (FrameError, ConnectionError, OSError):  # repro: noqa[RPR007]
            pass  # treated identically to a clean disconnect below
        finally:
            await self._drop_worker(w, "disconnected")

    async def _drop_worker(self, w: _Worker, reason: str) -> None:
        if self.workers.get(w.name) is w:
            del self.workers[w.name]
        w.writer.close()
        if self.state == "drained":
            # Drain already journalled every unresolved job as
            # interrupted and closed the ledgers — a straggling
            # disconnect must not write retry records to them.
            w.in_flight.clear()
            return
        for job_hash in list(w.in_flight):
            st = self.jobs.get(job_hash)
            if (st is not None and st.status == "dispatched"
                    and st.worker == w.name):
                self._attempt_failed(
                    st, job_hash, f"worker {w.name} {reason}"
                )
        w.in_flight.clear()
        self._wake.set()

    def _on_result(self, frame: dict) -> None:
        job_hash = str(frame.get("hash", ""))
        st = self.jobs.get(job_hash)
        if st is None or st.status in ("done", "failed"):
            return  # duplicate or late delivery: already resolved
        payload = decode_result_frame(frame)
        if payload is None:
            # Checksum mismatch: the frame is corrupt and therefore
            # *lost*, never believed. Re-dispatch the current attempt
            # if this was it; stale corrupt frames are just ignored.
            if (st.status == "dispatched"
                    and frame.get("attempt") == st.attempt):
                self._attempt_failed(st, job_hash,
                                     "corrupt result frame")
            return
        # A late result from a superseded attempt is still a valid
        # result — jobs are pure functions of their content.
        self._resolve(st, job_hash, payload)

    def _on_job_error(self, frame: dict) -> None:
        job_hash = str(frame.get("hash", ""))
        st = self.jobs.get(job_hash)
        if (st is None or st.status != "dispatched"
                or frame.get("attempt") != st.attempt):
            return  # stale error for an attempt we already gave up on
        self._attempt_failed(
            st, job_hash, str(frame.get("error") or "job failed")
        )

    async def _tick_loop(self) -> None:
        while True:
            await asyncio.sleep(_TICK_SECONDS)
            now = _monotonic()
            for w in list(self.workers.values()):
                if now - w.last_beat > self.heartbeat_grace:
                    await self._drop_worker(w, "stopped heartbeating")
            for job_hash, st in list(self.jobs.items()):
                if (st.status == "dispatched" and st.deadline is not None
                        and now > st.deadline):
                    self._attempt_failed(
                        st, job_hash,
                        f"timed out after {self.timeout:g}s",
                    )
            self._wake.set()

    # ------------------------------------------------------------------
    # health and drain
    # ------------------------------------------------------------------
    def health(self) -> dict[str, object]:
        """The ``GET /v1/health`` report."""
        now = _monotonic()
        queued = sum(1 for st in self.jobs.values()
                     if st.status == "queued")
        dispatched = sum(1 for st in self.jobs.values()
                         if st.status == "dispatched")
        return {
            "state": self.state,
            "queue": {
                "queued": queued,
                "dispatched": dispatched,
                "unresolved": queued + dispatched,
            },
            "workers": [
                {"name": w.name, "slots": w.slots, "pid": w.pid,
                 "in_flight": len(w.in_flight),
                 "beat_age": round(now - w.last_beat, 3),
                 "alive": now - w.last_beat <= self.heartbeat_grace}
                for w in self.workers.values()
            ],
            "sweeps": {
                "total": len(self.sweeps),
                "running": sum(1 for s in self.sweeps.values()
                               if not s.finished and not s.interrupted),
                "interrupted": sum(1 for s in self.sweeps.values()
                                   if s.interrupted),
            },
        }

    async def drain(self, grace: float | None = None) -> dict:
        """Gracefully wind the server down under load.

        Stops accepting submissions (they answer 503), stops
        dispatching queued jobs, gives already-dispatched jobs
        ``grace`` seconds (default ``drain_grace``) to finish — their
        results journal as ``done`` exactly as in normal operation —
        then journals every still-unresolved job as ``interrupted``,
        ends all event streams, and sends every worker the ``shutdown``
        frame. Because the journal is the replication log, a restarted
        server given the same submissions replays all completed points
        with zero re-simulation and executes only the remainder.

        Idempotent: a second call returns the summary immediately.
        """
        if self.state == "drained":
            return {"state": self.state, "interrupted": 0, "finished": 0}
        self.state = "draining"
        grace = self.drain_grace if grace is None else grace
        # noqa[RPR010] on the clock reads: the grace deadline is
        # operational wall-clock (how long an operator waits), never
        # simulation state — results are journalled, not timed.
        deadline = _monotonic() + grace  # repro: noqa[RPR010] — drain grace is operational time
        finished = 0
        while _monotonic() < deadline:  # repro: noqa[RPR010] — drain grace is operational time
            if not any(st.status == "dispatched"
                       for st in self.jobs.values()):
                break
            await asyncio.sleep(_TICK_SECONDS)

        interrupted = 0
        for st in self.jobs.values():
            if st.status not in ("queued", "dispatched"):
                finished += 1
                continue
            interrupted += 1
            for sweep, idx in st.waiters:
                sweep.ledger.interrupt(idx, st.attempt or None)
        for sweep in self.sweeps.values():
            if sweep.finished:
                continue
            sweep.interrupted = True
            sweep.emit({"event": "sweep-interrupted",
                        "sweep": sweep.sweep_id,
                        "completed": sweep.ledger.report.completed,
                        "total": sweep.ledger.report.total})
            sweep.end_streams()
            # No run-end record: that absence is how a resubmission
            # knows the journal is an incomplete run to resume.
            sweep.ledger.close()
        for w in list(self.workers.values()):
            try:
                await send_frame(w.writer, {"type": "shutdown"})
            except (ConnectionError, OSError):  # repro: noqa[RPR007]
                pass  # worker already gone; drain proceeds
            w.writer.close()
        self.workers.clear()
        self.state = "drained"  # repro: noqa[RPR017] — drain() is the only writer of state after start; concurrent drains converge on the same value
        return {"state": self.state, "interrupted": interrupted,
                "finished": finished}

    # ------------------------------------------------------------------
    # HTTP surface
    # ------------------------------------------------------------------
    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            try:
                req = await read_request(reader)
            except ProtocolError as exc:
                await send_error(writer, 400, str(exc))
                return
            if req is None:
                return
            if req.method == "POST" and req.path == "/v1/workers/attach":
                if self.state != "serving":
                    # A draining server wants fewer workers, not more:
                    # upgrade, then immediately wave the worker off so
                    # its supervisor backs off instead of flapping.
                    await start_stream(writer)
                    await send_frame(writer, {"type": "shutdown"})
                    return
                # Upgrade: this connection becomes the worker link and
                # outlives the handler's request/response framing.
                await start_stream(writer)
                await self._serve_worker(reader, writer)
                return
            await self._route(req, reader, writer)
        except (ConnectionError, OSError):  # repro: noqa[RPR007]
            pass  # peer vanished mid-response; nothing to salvage
        finally:
            writer.close()

    async def _route(self, req: Request, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        if req.method == "POST" and req.path == "/v1/sweeps":
            await self._post_sweeps(req, writer)
            return
        if req.method == "POST" and req.path == "/v1/admin/drain":
            await self._post_drain(req, writer)
            return
        if req.method == "GET":
            if req.path == "/v1/health":
                await self._get_health(writer)
                return
            if req.path == "/v1/cache":
                if self.cache is None:
                    await send_error(writer, 404,
                                     "server runs without a cache")
                    return
                await send_json(writer, 200,
                                self.cache.stats().as_dict())
                return
            parts = req.path.strip("/").split("/")
            if len(parts) >= 3 and parts[:2] == ["v1", "sweeps"]:
                sweep = self.sweeps.get(parts[2])
                if sweep is None:
                    await send_error(writer, 404,
                                     f"no sweep {parts[2]}")
                    return
                if len(parts) == 3:
                    await self._get_sweep(sweep, writer)
                    return
                if len(parts) == 4 and parts[3] == "events":
                    await self._get_events(sweep, writer)
                    return
                if len(parts) == 4 and parts[3] == "results":
                    await self._get_results(sweep, writer)
                    return
        await send_error(writer, 404, f"no route {req.method} {req.path}")

    async def _post_sweeps(self, req: Request,
                           writer: asyncio.StreamWriter) -> None:
        if self.state != "serving":
            await send_error(
                writer, 503, f"server is {self.state}; not accepting "
                "submissions — resubmit to the replacement server",
                headers={"Retry-After": "1"}, state=self.state,
            )
            return
        try:
            payload = req.json()
        except ProtocolError as exc:
            await send_error(writer, 400, str(exc))
            return
        if not isinstance(payload, dict):
            await send_error(writer, 400, "submission must be an object")
            return
        try:
            jobs, run_id, resume = self._jobs_from_submission(payload)
        except (KeyError, TypeError, ValueError) as exc:
            await send_error(writer, 400, f"bad submission: {exc}")
            return
        if not jobs:
            await send_error(writer, 400, "submission contains no jobs")
            return
        attached = run_id in self.sweeps if run_id is not None else (
            derive_run_id([j.content_hash() for j in jobs]) in self.sweeps
        )
        sweep = self.submit(jobs, run_id=run_id, resume=resume)
        await send_json(writer, 202, {
            "sweep": sweep.sweep_id,
            "total": sweep.ledger.report.total,
            "status": "done" if sweep.finished else "running",
            "attached": attached,
        })

    async def _post_drain(self, req: Request,
                          writer: asyncio.StreamWriter) -> None:
        grace: float | None = None
        if req.body:
            try:
                payload = req.json()
            except ProtocolError as exc:
                await send_error(writer, 400, str(exc))
                return
            if isinstance(payload, dict) and "grace" in payload:
                try:
                    grace = float(payload["grace"])
                except (TypeError, ValueError):
                    await send_error(writer, 400,
                                     "grace must be a number")
                    return
        summary = await self.drain(grace)
        await send_json(writer, 200, summary)

    async def _get_health(self, writer: asyncio.StreamWriter) -> None:
        await send_json(writer, 200, self.health())

    def _jobs_from_submission(
        self, payload: dict
    ) -> tuple[list, str | None, bool]:
        """Expand one POST body into jobs (+ run id for resumes).

        Three vocabularies: ``{"jobs": [fingerprint, ...]}`` (what the
        remote client ships), ``{"grid": {...}}`` (the ``run_sweep``
        grid vocabulary, expanded server-side), and
        ``{"resume": "<run-id>"}`` (rebuild the batch from the journal
        — the replication log — of an interrupted run).
        """
        if "resume" in payload:
            run_id = str(payload["resume"])
            if self.journal_dir is None:
                raise ValueError("server runs without a journal; "
                                 "nothing to resume from")
            path = self.journal_dir / f"{run_id}.jsonl"
            loaded = RunJournal(self.journal_dir, run_id, resume=True)
            jobs = loaded.queued_jobs()
            loaded.close()
            if not jobs:
                raise ValueError(f"journal {path} records no jobs")
            return jobs, run_id, True
        if "jobs" in payload:
            fps = payload["jobs"]
            if not isinstance(fps, list):
                raise ValueError('"jobs" must be a list of fingerprints')
            return [job_from_fingerprint(fp) for fp in fps], None, False
        if "grid" in payload:
            return _expand_grid(payload["grid"]), None, False
        raise ValueError('expected "jobs", "grid" or "resume"')

    async def _get_sweep(self, sweep: Sweep,
                         writer: asyncio.StreamWriter) -> None:
        report = sweep.ledger.report
        await send_json(writer, 200, {
            "sweep": sweep.sweep_id,
            "status": "done" if sweep.finished else "running",
            "completed": report.completed,
            "total": report.total,
            "report": report.as_dict(),
        })

    async def _get_events(self, sweep: Sweep,
                          writer: asyncio.StreamWriter) -> None:
        await start_stream(writer)
        for event in list(sweep.events):
            await send_frame(writer, event)
        # An interrupted sweep will never emit again on this server:
        # end after the replay instead of parking the subscriber.
        if not sweep.finished and not sweep.interrupted:
            queue: asyncio.Queue = asyncio.Queue()
            sweep.queues.append(queue)
            try:
                while True:
                    event = await queue.get()
                    if event is None:
                        break
                    await send_frame(writer, event)
            finally:
                if queue in sweep.queues:
                    sweep.queues.remove(queue)

    async def _get_results(self, sweep: Sweep,
                           writer: asyncio.StreamWriter) -> None:
        if not sweep.finished:
            await send_error(writer, 409,
                             f"sweep {sweep.sweep_id} still running")
            return
        encoded: list[dict | None] = []
        for payload in sweep.ledger.results:
            if payload is None:
                encoded.append(None)
                continue
            body, kind = _encode_body(payload)
            encoded.append({"body": body, "body_kind": kind})
        await send_json(writer, 200, {
            "sweep": sweep.sweep_id,
            "report": sweep.ledger.report.as_dict(),
            "results": encoded,
        })


def _is_int(value: object) -> bool:
    """Whether a decoded JSON value is an integer (``true`` is not)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _expand_grid(grid: object) -> list:
    """Server-side expansion of the ``run_sweep`` grid vocabulary:
    machine profile by name, mixes by name (or thread count),
    schedulers x IQ sizes x mixes via the same
    :func:`~repro.exec.jobs.jobs_for_grid` every local sweep uses."""
    from repro.config import presets
    from repro.workloads.mixes import mixes_for_threads

    if not isinstance(grid, dict):
        raise ValueError("grid must be an object")
    profiles = {
        "paper": presets.paper_machine,
        "small": presets.small_machine,
        "tiny": presets.tiny_machine,
    }
    profile = str(grid.get("profile", "small"))
    if profile not in profiles:
        raise ValueError(f"unknown profile {profile!r}; "
                         f"choices: {', '.join(sorted(profiles))}")
    threads = int(grid.get("threads", 2))
    mixes = list(mixes_for_threads(threads))
    if "mixes" in grid:
        wanted = {str(m) for m in grid["mixes"]}
        by_name = {m.name: m for m in mixes}
        unknown = wanted - set(by_name)
        if unknown:
            raise ValueError(
                f"unknown mixes for threads={threads}: "
                f"{', '.join(sorted(unknown))}"
            )
        mixes = [m for m in mixes if m.name in wanted]
    keyed = jobs_for_grid(
        mixes,
        profiles[profile](),
        tuple(str(s) for s in grid.get("schedulers",
                                       ("traditional", "2op_ooo"))),
        tuple(int(q) for q in grid.get("iq_sizes", (16,))),
        int(grid.get("max_insns", 2000)),
        int(grid.get("seed", 0)),
        with_fairness=bool(grid.get("with_fairness", False)),
    )
    return [job for _, job in keyed]
