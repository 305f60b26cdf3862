"""Worker-link wire protocol: checksummed NDJSON frames.

The server and its workers exchange newline-delimited JSON *frames*
over one long-lived duplex stream (opened by ``POST /v1/workers/attach``
and upgraded away from HTTP). Frame types:

server -> worker
    ``{"type": "job", "hash": h, "attempt": n, "fingerprint": {...},
    "timeout": t | null}``
        Execute one job. ``fingerprint`` is the job's own
        reconstruction payload (see ``SimJob.fingerprint_payload``), so
        the worker needs no shared filesystem.
    ``{"type": "shutdown"}``
        Detach and exit. Sent when the server stops, at the end of a
        graceful drain (after the grace window and the ``interrupted``
        journal records), and — immediately after upgrade — to any
        worker that attaches while the server is draining or drained,
        so supervisors back their respawns off instead of flapping.

worker -> server
    ``{"type": "hello", "name": ..., "slots": n, "pid": ...}``
        First frame after attach. ``slots`` and ``pid`` must be
        integers; otherwise the server closes the link unregistered.
    ``{"type": "result", "hash": h, "attempt": n, "body": {...},
    "checksum": ...}``
        A completed job. ``body`` is the byte-stable encoded result
        (the cache codec), ``checksum`` is ``hash_payload(body)`` —
        the same schema-v2 integrity check the on-disk cache applies,
        extended over the wire. A frame whose checksum does not match
        is treated as lost: the server re-dispatches the attempt.
    ``{"type": "job-error", "hash": h, "attempt": n, "error": ...}``
        The job raised; the server decides retry-vs-fail.
    ``{"type": "heartbeat", "t": monotonic}``
        Liveness, sent every :data:`HEARTBEAT_PERIOD` seconds. Silence
        past the server's grace window marks the worker dead and
        re-shards its in-flight jobs.

Every frame is one ``json.dumps(sort_keys=True)`` line — human-greppable
and byte-stable. :func:`send_frame` is the single chaos injection point
for *network* faults: with a :class:`~repro.exec.chaos.ChaosConfig`
carrying ``net_drop``/``net_dup``/``net_delay`` it can drop, duplicate
or delay any frame, keyed deterministically by (site, job hash,
attempt) exactly like the executor's delivery faults — so a chaotic
cluster run is reproducible from the seed alone.
"""

from __future__ import annotations

import asyncio
import json

from repro.exec.chaos import ChaosConfig
from repro.exec.jobs import JobResult, SimJob, WorkJob, hash_payload

#: Seconds between worker heartbeat frames.
HEARTBEAT_PERIOD = 0.5

#: Longest single NDJSON frame we will buffer (an encoded SimJob result
#: is a few KB; this leaves three orders of magnitude of headroom).
MAX_FRAME_BYTES = 8 * 1024 * 1024


class FrameError(ValueError):
    """A peer sent bytes that are not a well-formed frame."""


def job_from_fingerprint(fp: dict):
    """Rebuild a job from its fingerprint payload, dispatching on the
    ``kind`` discriminator (absent = historical SimJob)."""
    if fp.get("kind") == "work":
        return WorkJob.from_fingerprint(fp)
    return SimJob.from_fingerprint(fp)


def encode_result_frame(job_hash: str, attempt: int,
                        payload: object) -> dict:
    """Frame a completed job's payload for transport.

    :class:`JobResult` payloads use the cache codec (float-normalised,
    byte-stable — what makes a remote result indistinguishable from a
    local one); raw (WorkJob) payloads embed verbatim, discriminated by
    ``body_kind`` like the journal does.
    """
    from repro.exec.cache import encode_job_result

    if isinstance(payload, JobResult):
        body: object = encode_job_result(payload)
        kind = "sim"
    else:
        body = payload
        kind = "raw"
    return {
        "type": "result",
        "hash": job_hash,
        "attempt": attempt,
        "body": body,
        "body_kind": kind,
        "checksum": hash_payload({"body": body}),
    }


def decode_result_frame(frame: dict) -> object | None:
    """Verify and decode a ``result`` frame's payload.

    Returns the decoded payload, or **None when the checksum does not
    match** — the caller must treat that frame as never delivered (the
    attempt is re-dispatched), mirroring how the cache quarantines a
    corrupt entry rather than serving it.
    """
    from repro.exec.cache import decode_job_result

    body = frame.get("body")
    if frame.get("checksum") != hash_payload({"body": body}):
        return None
    if frame.get("body_kind", "sim") == "sim":
        return decode_job_result(body)
    return body


def frame_bytes(frame: dict) -> bytes:
    """One frame as its canonical NDJSON line."""
    return (json.dumps(frame, sort_keys=True,
                       separators=(",", ":")) + "\n").encode("utf-8")


async def send_frame(writer: asyncio.StreamWriter, frame: dict, *,
                     chaos: ChaosConfig | None = None,
                     site: str = "", key: str = "",
                     attempt: int = 0) -> None:
    """Write one frame, applying deterministic network chaos.

    Faults are keyed by (site, key, attempt): a dropped dispatch is
    dropped again on replay of the same attempt, but the *next* attempt
    goes through — the same convergence contract as the executor's
    delivery faults, so chaotic runs terminate.
    """
    if chaos is not None and chaos.net_enabled:
        delay = chaos.net_delay(site, key, attempt)
        if delay > 0.0:
            await asyncio.sleep(delay)
        fault = chaos.net_fault(site, key, attempt)
        if fault == "drop":
            return
        if fault == "dup":
            writer.write(frame_bytes(frame))
    writer.write(frame_bytes(frame))
    await writer.drain()


async def read_frame(reader: asyncio.StreamReader) -> dict | None:
    """Read one frame; None on EOF at a frame boundary."""
    buf = b""
    while True:
        try:
            buf = await reader.readuntil(b"\n")
            break
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None
            raise FrameError("stream closed mid-frame") from exc
        except asyncio.LimitOverrunError as exc:
            # Frame longer than the StreamReader buffer: drain in
            # chunks up to our own (much larger) cap.
            chunk = await reader.read(exc.consumed)
            buf += chunk
            if len(buf) > MAX_FRAME_BYTES:
                raise FrameError("frame too large") from exc
            rest = await _read_line_chunked(reader, buf)
            if rest is None:
                raise FrameError("stream closed mid-frame") from exc
            buf = rest
            break
    try:
        frame = json.loads(buf.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise FrameError(f"malformed frame: {buf[:120]!r}") from exc
    if not isinstance(frame, dict) or "type" not in frame:
        raise FrameError(f"frame without a type: {buf[:120]!r}")
    return frame


async def _read_line_chunked(reader: asyncio.StreamReader,
                             prefix: bytes) -> bytes | None:
    buf = prefix
    while b"\n" not in buf:
        chunk = await reader.read(64 * 1024)
        if not chunk:
            return None
        buf += chunk
        if len(buf) > MAX_FRAME_BYTES:
            raise FrameError("frame too large")
    line, _, _rest = buf.partition(b"\n")
    return line + b"\n"
