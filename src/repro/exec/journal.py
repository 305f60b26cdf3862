"""Crash-safe run journal: one fsync'd JSON line per job transition.

While a grid executes, :func:`repro.exec.execute_jobs` appends a record
to ``results/journal/<run-id>.jsonl`` at every job transition::

    {"event": "run-start", "run_id": ..., "total": N, ...}
    {"event": "queued",  "job": "<hash>", "fingerprint": {...}}
    {"event": "started", "job": "<hash>", "attempt": 0}
    {"event": "done",    "job": "<hash>", "payload": {...}}   # full result
    {"event": "cached" | "resumed" | "retried" | "failed" | "interrupted", ...}
    {"event": "run-end", "simulated": ..., "cached": ..., ...}

Every line is written with ``O_APPEND`` + ``fsync`` before the executor
moves on, so the journal is exactly as complete as the work that
actually happened — a worker crash, a ``kill -9``, or a Ctrl-C cannot
lose a completed job or invent an incomplete one. A torn final line
(the one write a crash can interrupt) is detected and ignored on load.

Because ``done`` records embed the full encoded result, the journal
alone is sufficient to resume: ``python -m repro.exec resume <run-id>``
(or ``ExecutorConfig(resume=True)``) replays completed results with
**zero re-simulation** and re-executes only the incomplete remainder.
``queued`` records embed each job's fingerprint, so the resume CLI can
rebuild the grid without the original driver script.

Run ids are content-derived (a hash of the batch's job hashes), so the
same grid always journals to the same file; starting a *fresh* run of a
grid whose journal already exists atomically moves the old journal
aside to ``<run-id>.jsonl.1`` first.
"""

from __future__ import annotations

import json
import os
from collections.abc import Sequence
from pathlib import Path

from repro.exec.cache import decode_job_result, encode_job_result
from repro.exec.jobs import JobResult, SimJob, WorkJob, hash_payload

#: Journal line-format version, recorded in ``run-start``.
JOURNAL_SCHEMA = 1

#: Default journal root, relative to the current working directory.
DEFAULT_JOURNAL_DIR = Path("results") / "journal"


def default_journal_dir() -> Path:
    """Journal root honouring the ``REPRO_JOURNAL`` environment knob
    (``REPRO_JOURNAL=1`` selects this default; any other non-zero value
    is itself the directory)."""
    env = os.environ.get("REPRO_JOURNAL", "")
    if env not in ("", "0", "1"):
        return Path(env)
    return DEFAULT_JOURNAL_DIR


def journal_dir_from_env() -> Path | None:
    """Journal directory selected by ``REPRO_JOURNAL``, or None when
    journalling is off (unset or ``0``)."""
    env = os.environ.get("REPRO_JOURNAL", "").strip()
    if env in ("", "0"):
        return None
    return default_journal_dir()


def derive_run_id(job_hashes: Sequence[str]) -> str:
    """Deterministic run id for a batch: a digest over its job hashes.

    The id depends only on *what* is being executed, so re-running the
    same grid finds (and can resume) its own journal without the caller
    tracking ids.
    """
    return hash_payload({"jobs": list(job_hashes)})[:16]


class RunJournal:
    """Append-only transition log for one run id.

    ``resume=True`` loads the existing journal (completed results,
    queued fingerprints) and appends to it; ``resume=False`` rotates any
    existing file aside and starts fresh.
    """

    def __init__(self, root: str | Path, run_id: str,
                 resume: bool = False) -> None:
        self.root = Path(root)
        self.run_id = run_id
        self.path = self.root / f"{run_id}.jsonl"
        self.root.mkdir(parents=True, exist_ok=True)
        #: job hash -> decoded result, from prior ``done`` records.
        self._completed: dict[str, object] = {}
        #: job hash -> fingerprint payload, in first-queued order.
        self._fingerprints: dict[str, dict] = {}
        self._seq = 0
        if self.path.exists():
            if resume:
                self._load()
            else:
                os.replace(self.path, self.path.with_name(
                    self.path.name + ".1"
                ))
        self._fd: int | None = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )

    # ------------------------------------------------------------------
    def _load(self) -> None:
        """Replay an existing journal.

        Tolerates exactly the damage a crash can cause: a torn final
        line (no trailing newline / truncated JSON) is skipped and
        truncated from disk. Any *earlier* malformed line means outside
        interference and raises.
        """
        blob = self.path.read_bytes()
        lines = blob.split(b"\n")
        parsed = 0
        for i, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                rec = json.loads(line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as exc:
                if i == len(lines) - 1:
                    # A crash mid-write leaves exactly one torn,
                    # newline-less fragment at the tail. Drop it from
                    # disk too, or the records this resume appends
                    # would concatenate onto it and damage the journal
                    # for every later load.
                    os.truncate(self.path, len(blob) - len(line))
                    break
                raise ValueError(
                    f"journal {self.path} is damaged at line {i + 1}"
                ) from exc
            self._absorb(rec)
            parsed += 1
        self._seq = parsed

    def _absorb(self, rec: dict) -> None:
        event = rec.get("event")
        job = rec.get("job")
        if event == "queued" and job is not None:
            self._fingerprints.setdefault(job, rec.get("fingerprint"))
        elif event == "done" and job is not None:
            if rec.get("payload_kind", "sim") == "sim":
                self._completed[job] = decode_job_result(rec["payload"])
            else:
                # Generic (WorkJob) results are journalled verbatim.
                self._completed[job] = rec["payload"]

    # ------------------------------------------------------------------
    def record(self, event: str, job_hash: str | None = None,
               **fields: object) -> None:
        """Append one fsync'd transition record."""
        if self._fd is None:
            raise ValueError("journal is closed")
        rec: dict[str, object] = {"seq": self._seq, "event": event}
        if job_hash is not None:
            rec["job"] = job_hash
        rec.update(fields)
        line = json.dumps(rec, sort_keys=True,
                          separators=(",", ":")) + "\n"
        os.write(self._fd, line.encode("utf-8"))
        os.fsync(self._fd)
        self._seq += 1
        self._absorb(rec)

    def record_queued(self, job, job_hash: str) -> None:
        """Record a queued job with its reconstruction fingerprint."""
        self.record("queued", job_hash,
                    fingerprint=job.fingerprint_payload())

    def record_done(self, job_hash: str, payload: object) -> None:
        """Record a completed job with its full encoded result.

        :class:`JobResult` payloads go through the cache's codec;
        anything else (a :class:`~repro.exec.jobs.WorkJob` return) must
        already be JSON-safe and is embedded verbatim, discriminated by
        ``payload_kind`` so replay decodes each record correctly.
        """
        if isinstance(payload, JobResult):
            self.record("done", job_hash,
                        payload=encode_job_result(payload))
        else:
            self.record("done", job_hash, payload=payload,
                        payload_kind="raw")

    # ------------------------------------------------------------------
    def completed_results(self) -> dict[str, object]:
        """Results of every job this journal has seen complete."""
        return dict(self._completed)

    def queued_jobs(self) -> list:
        """Reconstruct every queued job, in first-queued order.

        The fingerprint's ``kind`` discriminator selects the job class;
        historical journals (no ``kind``) are all :class:`SimJob`.
        """
        out = []
        for fp in self._fingerprints.values():
            if fp is None:
                continue
            if fp.get("kind") == "work":
                out.append(WorkJob.from_fingerprint(fp))
            else:
                out.append(SimJob.from_fingerprint(fp))
        return out

    def close(self) -> None:
        """Close the journal fd (records already on disk stay put)."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
