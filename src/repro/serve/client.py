"""Synchronous client for the sweep server.

:class:`SweepClient` is the glue that makes remote execution invisible
to callers: :meth:`SweepClient.execute` has the same contract as the
local half of :func:`repro.exec.pool.execute_jobs` — submit the batch,
stream progress, fetch ordered results, return
``(payloads, ExecReport)`` — so setting ``ExecutorConfig(server=...)``
(or ``REPRO_SERVER``) is the *only* change a sweep, figure driver or
benchmark needs to run on a cluster.

Built on stdlib ``http.client`` (the callers are synchronous; no
event loop to integrate with). Each call is one request; the event
stream holds its connection open and yields NDJSON records until the
server reports ``sweep-end``.

Every request retries connection failures and 503 (a draining server)
with deterministic seeded exponential backoff (:class:`RetryPolicy`),
honouring the server's ``Retry-After``, and raises the last
:class:`ServerError` after ``RetryPolicy.attempts`` tries. Other error
statuses (400, 404, 409) raise at once: retrying cannot help. The
event stream survives mid-stream connection drops by reconnecting and
skipping the replayed history.
"""

from __future__ import annotations

import http.client
import json
from collections.abc import Iterator
from dataclasses import dataclass
from time import sleep as _sleep  # repro: noqa[RPR001]

from repro.exec.chaos import ChaosConfig
from repro.exec.jobs import JobResult
from repro.exec.ledger import (
    ExecProgress,
    ExecReport,
    JobFailure,
    ProgressFn,
)
from repro.serve.protocol import job_from_fingerprint
from repro.serve.worker import parse_server_url
from repro.util.rng import make_rng


class ServerError(RuntimeError):
    """The server answered with an error status (or not at all).

    ``status`` is the HTTP status when the server answered (None for
    connection-level failures); ``retry_after`` is the server's
    suggested wait in seconds when it sent one (a draining server's
    503).
    """

    def __init__(self, message: str, *, status: int | None = None,
                 retry_after: float | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


class SweepInterrupted(ServerError):
    """The sweep was interrupted server-side (graceful drain) and will
    not finish on this server. Resubmitting the same grid — to a
    restarted server sharing the journal directory — resumes it with
    zero re-simulation."""


def _request(server: str, method: str, path: str,
             payload: object | None = None,
             timeout: float | None = None) -> dict:
    host, port = parse_server_url(server)
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload, sort_keys=True,
                              separators=(",", ":"))
            headers["Content-Type"] = "application/json"
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        data = resp.read()
        try:
            decoded = json.loads(data.decode("utf-8")) if data else {}
        except (ValueError, UnicodeDecodeError) as exc:
            raise ServerError(
                f"{method} {path}: non-JSON response "
                f"(status {resp.status}): {data[:200]!r}"
            ) from exc
        if resp.status >= 400:
            message = (decoded.get("error", data[:200])
                       if isinstance(decoded, dict) else data[:200])
            retry_after: float | None = None
            header = resp.getheader("Retry-After")
            if header is not None:
                try:
                    retry_after = float(header)
                except ValueError:
                    retry_after = None
            raise ServerError(
                f"{method} {path}: {resp.status} {message}",
                status=resp.status, retry_after=retry_after,
            )
        if not isinstance(decoded, dict):
            raise ServerError(f"{method} {path}: expected an object")
        return decoded
    except (ConnectionError, OSError, http.client.HTTPException) as exc:
        raise ServerError(
            f"{method} {path}: cannot reach sweep server at "
            f"{server}: {exc}"
        ) from exc
    finally:
        conn.close()


def _stream_events(server: str, sweep_id: str,
                   timeout: float | None = None) -> Iterator[dict]:
    """Yield the sweep's NDJSON progress events over one connection;
    ends after ``sweep-end`` (or on server EOF)."""
    host, port = parse_server_url(server)
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", f"/v1/sweeps/{sweep_id}/events")
        resp = conn.getresponse()
        if resp.status != 200:
            raise ServerError(
                f"GET /v1/sweeps/{sweep_id}/events: {resp.status}"
            )
        buf = b""
        while True:
            chunk = resp.read1(64 * 1024)
            if not chunk:
                return
            buf += chunk
            while b"\n" in buf:
                line, _, buf = buf.partition(b"\n")
                if not line.strip():
                    continue
                event = json.loads(line.decode("utf-8"))
                yield event
                if event.get("event") == "sweep-end":
                    return
    except (ConnectionError, OSError, http.client.HTTPException) as exc:
        raise ServerError(
            f"event stream for sweep {sweep_id} broke: {exc}"
        ) from exc
    finally:
        conn.close()


def _decode_body(entry: dict) -> object:
    from repro.exec.cache import decode_job_result

    if entry.get("body_kind", "sim") == "sim":
        return decode_job_result(entry["body"])
    return entry["body"]


def _report_from_dict(raw: dict) -> ExecReport:
    report = ExecReport(
        total=int(raw.get("total", 0)),
        cached=int(raw.get("cached", 0)),
        resumed=int(raw.get("resumed", 0)),
        simulated=int(raw.get("simulated", 0)),
        failed=int(raw.get("failed", 0)),
        retried=int(raw.get("retried", 0)),
        run_id=raw.get("run_id"),
    )
    for failure in raw.get("failures", []):
        # The submitted job itself, rebuilt from its fingerprint, so a
        # remote failure keys (content_hash) exactly like a local one.
        report.job_failures.append(JobFailure(
            job=job_from_fingerprint(failure["fingerprint"]),
            message=str(failure.get("message", "failed remotely")),
        ))
    return report


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Deterministic seeded exponential backoff with jitter.

    The delay for attempt ``n`` is ``min(cap, base * 2**n)`` scaled by
    a jitter factor drawn from ``make_rng(seed, "client-backoff",
    server, n)`` — a pure function of (seed, server, attempt), so two
    runs of the same client behave identically while clients with
    different seeds desynchronise instead of retrying in lockstep (the
    thundering-herd fix).
    """

    #: Total tries per logical request (first try included).
    attempts: int = 5
    #: First retry delay in seconds; doubles each retry.
    base: float = 0.05
    #: Ceiling on any single delay.
    cap: float = 2.0
    #: Fraction of the delay randomised away: the actual delay is
    #: uniform in ``[delay * (1 - jitter), delay]``.
    jitter: float = 0.5
    #: Root seed for the jitter stream.
    seed: int = 0

    def delay(self, server: str, attempt: int) -> float:
        raw = min(self.cap, self.base * (2.0 ** attempt))
        u = float(make_rng(self.seed, "client-backoff", server,
                           attempt).random())
        return raw * (1.0 - self.jitter * u)


def _retryable(exc: ServerError) -> bool:
    """Whether a failure means the server is unreachable or draining
    (connection failure, 503) as opposed to a semantic error (400,
    404, 409... — retrying cannot help, the server is plainly alive)."""
    return exc.status in (None, 503)


class SweepClient:
    """Synchronous client for one sweep server.

    Every request retries with :class:`RetryPolicy` backoff on
    connection failures and 503, honouring the server's
    ``Retry-After`` when it exceeds the computed backoff; the event
    stream reconnects after mid-stream drops and skips the server's
    replayed history (exactly-once delivery to the caller).

    Safe to retry by construction: sweep ids are content-derived, so a
    resubmitted POST attaches to the live sweep instead of forking a
    duplicate.

    ``sleep`` is injectable for tests; ``chaos`` applies the
    ``net_refuse`` client-connect fault deterministically.
    """

    def __init__(self, server: str, *,
                 retry: RetryPolicy | None = None,
                 timeout: float | None = None,
                 sleep=_sleep,
                 chaos: ChaosConfig | None = None) -> None:
        self.server = server
        self.retry = retry if retry is not None else RetryPolicy()
        self.timeout = timeout
        self._sleep = sleep
        self.chaos = chaos

    # -- request machinery ---------------------------------------------
    def _call(self, method: str, path: str,
              payload: object | None = None) -> dict:
        attempt = 0
        while True:
            try:
                if (self.chaos is not None
                        and self.chaos.should_refuse(
                            "client-connect", path, attempt)):
                    raise ServerError(
                        f"{method} {path}: connection refused (chaos)"
                    )
                return _request(self.server, method, path, payload,
                                timeout=self.timeout)
            except ServerError as exc:
                if (not _retryable(exc)
                        or attempt + 1 >= self.retry.attempts):
                    raise
                delay = self.retry.delay(self.server, attempt)
                if exc.retry_after is not None:
                    delay = max(delay, float(exc.retry_after))
                self._sleep(delay)
            attempt += 1

    # -- thin endpoint wrappers ----------------------------------------
    def submit(self, payload: dict) -> dict:
        """POST one submission (``jobs``/``grid``/``resume``
        vocabulary); returns the server's ``{"sweep": ..., "status":
        ...}`` reply."""
        return self._call("POST", "/v1/sweeps", payload)

    def sweep_status(self, sweep_id: str) -> dict:
        return self._call("GET", f"/v1/sweeps/{sweep_id}")

    def health(self) -> dict:
        """The server's ``/v1/health`` report (state, queue depth,
        worker liveness, sweep counts)."""
        return self._call("GET", "/v1/health")

    def cache_stats(self) -> dict:
        """The server's shared-cache report (same structure as
        ``python -m repro.exec cache stats --json``)."""
        return self._call("GET", "/v1/cache")

    def drain(self, grace: float | None = None) -> dict:
        """Ask the server to drain gracefully (see
        ``POST /v1/admin/drain``)."""
        body = {} if grace is None else {"grace": grace}
        return self._call("POST", "/v1/admin/drain", body)

    def stream_events(self, sweep_id: str) -> Iterator[dict]:
        """Yield the sweep's events; reconnects on mid-stream drops.

        The server replays the full event history to every subscriber,
        so after a reconnect the first ``seen`` events are skipped —
        the caller observes each event exactly once, in order. Ends
        cleanly after ``sweep-end`` or ``sweep-interrupted``.
        """
        seen = 0
        failures = 0
        while True:
            emitted = 0
            try:
                for event in _stream_events(self.server, sweep_id,
                                            timeout=self.timeout):
                    emitted += 1
                    if emitted <= seen:
                        continue  # replayed history after reconnect
                    seen += 1
                    failures = 0
                    yield event
                    kind = event.get("event")
                    if kind in ("sweep-end", "sweep-interrupted"):
                        return
                return  # server ended the stream without a terminator
            except ServerError as exc:
                if not _retryable(exc) and exc.status != 404:
                    raise
                # 404 is retryable here: a drained server's replacement
                # may not have seen the resubmission yet.
                failures += 1
                if failures >= self.retry.attempts:
                    raise
                self._sleep(self.retry.delay(
                    f"{self.server}/events", failures))

    def fetch_results(self, sweep_id: str,
                      ) -> tuple[list[object | None], ExecReport]:
        """Ordered (positional) decoded results + final report of a
        finished sweep."""
        reply = self._call("GET", f"/v1/sweeps/{sweep_id}/results")
        results: list[object | None] = []
        for entry in reply.get("results", []):
            results.append(None if entry is None
                           else _decode_body(entry))
        return results, _report_from_dict(reply.get("report", {}))

    # -- executor-shaped entry points ----------------------------------
    def execute(self, jobs, progress: ProgressFn | None = None,
                ) -> tuple[list[object | None], ExecReport]:
        """Run a batch on the server; local-executor-shaped return.

        Results come back positionally (one slot per job, None where it
        failed terminally), decoded through the byte-stable codec — so
        a remote sweep is indistinguishable from a local one to the
        caller. Job outcomes on the event stream become
        :class:`ExecProgress` callbacks.

        Raises :class:`SweepInterrupted` if the server drained before
        the sweep finished (resubmit — to the restarted server — to
        resume), and :class:`ServerError` once the retry budget gives
        up on the server.
        """
        jobs = list(jobs)
        fingerprints = [job.fingerprint_payload() for job in jobs]
        reply = self.submit({"jobs": fingerprints})
        sweep_id = str(reply["sweep"])
        by_hash = {job.content_hash(): job for job in jobs}
        running = ExecReport(total=len(jobs), run_id=sweep_id)
        for event in self.stream_events(sweep_id):
            kind = event.get("event")
            if kind == "sweep-interrupted":
                raise SweepInterrupted(
                    f"sweep {sweep_id} was interrupted by a server "
                    f"drain; resubmit to resume from the journal"
                )
            if (progress is None or kind not in
                    ("cached", "resumed", "simulated", "failed")):
                continue
            setattr(running, kind, getattr(running, kind) + 1)
            job = by_hash.get(str(event.get("job", "")))
            if job is None:
                continue
            payload = _decode_body(event) if "body" in event else None
            progress(ExecProgress(
                job=job,
                payload=(payload if isinstance(payload, JobResult)
                         else None),
                outcome=str(kind),
                report=running,
            ))
        return self.fetch_results(sweep_id)

    def resume(self, run_id: str,
               ) -> tuple[list[object | None], ExecReport]:
        """Resume an interrupted run from the server's journal."""
        reply = self.submit({"resume": run_id})
        sweep_id = str(reply["sweep"])
        for _ in self.stream_events(sweep_id):
            pass
        return self.fetch_results(sweep_id)
