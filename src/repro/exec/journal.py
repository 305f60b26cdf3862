"""Crash-safe run journal: one fsync'd JSON line per job transition.

While a grid executes with a ``journal_dir``, :func:`repro.exec
.execute_jobs` appends a record to ``results/journal/<run-id>.jsonl`` at
every job transition::

    {"event": "run-start", "run_id": ..., "total": N, "schema": 2}
    {"event": "queued",  "job": "<hash>"}
    {"event": "started", "job": "<hash>", "attempt": 0}
    {"event": "done",    "job": "<hash>"}
    {"event": "cached" | "retried" | "failed" | "interrupted", ...}
    {"event": "run-end", "simulated": ..., "cached": ..., ...}

Every line is written with ``O_APPEND`` + ``fsync`` before the executor
moves on, so the journal is exactly as complete as the work that
actually happened. It is a transition log for people and tools to read;
nothing in this package reads it back. Finished results live in the
result cache: an interrupted or repeated grid rerun with the same
``cache_dir`` simulates only the points the cache lacks.

Run ids are content-derived (:func:`repro.exec.ledger.derive_run_id`),
so the same grid always journals to the same file; starting a run of a
grid whose journal already exists atomically moves the old journal
aside to ``<run-id>.jsonl.1`` first.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

#: Journal line-format version, recorded in ``run-start``. Version 2
#: dropped the fingerprint from ``queued`` and the result from ``done``.
JOURNAL_SCHEMA = 2

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


class RunJournal:
    """Append-only transition log for one run id.

    Opening a run id whose journal exists rotates the old file aside
    and starts fresh.
    """

    def __init__(self, root: str | Path, run_id: str) -> None:
        self.root = Path(root)
        self.run_id = run_id
        self.path = self.root / f"{run_id}.jsonl"
        self.root.mkdir(parents=True, exist_ok=True)
        self._seq = 0
        if self.path.exists():
            os.replace(self.path, self.path.with_name(
                self.path.name + ".1"
            ))
        self._fd: int | None = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )

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

    def record_queued(self, job, job_hash: str) -> None:
        """Record that ``job`` (hashing to ``job_hash``) is queued."""
        self.record("queued", job_hash)

    def record_done(self, job_hash: str, payload: object) -> None:
        """Record that a job completed. The journal keeps no result;
        the cache keeps :class:`~repro.exec.jobs.JobResult` payloads."""
        self.record("done", job_hash)

    def close(self) -> None:
        """Close the journal fd (records already on disk stay put)."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
