"""Content-addressed on-disk result store with integrity checking.

Layout: one JSON file per grid point, ``<root>/<content-hash>.json``.
The default root is ``results/cache`` (override with ``REPRO_CACHE_DIR``
or per :class:`ResultCache` instance).

Each entry records:

* ``schema`` — :data:`~repro.exec.schema.SCHEMA_VERSION`. Bumped
  whenever the entry format, the simulator's observable behaviour or
  the trace generator's output changes; entries with any other value
  are treated as misses, so stale results self-invalidate instead of
  silently corrupting figures.
* ``repro_version`` — the package version that produced the entry, a
  second self-invalidation guard across releases.
* ``key`` — the job's content hash (must match the filename and the
  requesting job; a mismatch means a corrupt or hand-edited entry).
* ``job`` — the job's fingerprint payload, for human inspection.
* ``result`` / ``fairness`` — the stored :class:`SimResult` fields.
* ``checksum`` — SHA-256 over the canonical encoding of the payload
  fields, so a torn, truncated, or bit-rotted entry is *detected*, not
  silently served.

Writes are atomic (write to a same-directory temp file, then
``os.replace``), so a crashed or parallel writer can never leave a
half-written entry behind — readers see either the old entry or the new
one.

Damage handling distinguishes two cases on read:

* **stale** (schema or version mismatch) — a plain miss; the entry is
  recomputed and overwritten in place;
* **corrupt** (unparseable, checksum or key mismatch) — the entry is
  *quarantined*: atomically renamed to ``<hash>.corrupt`` so the damage
  stays visible (``cache stats`` counts quarantined files, ``cache
  verify`` sweeps the whole store) while the executor recomputes.

The slot traces and warm cache/predictor state forked pool jobs build
are stored beside the entries, under ``<root>/traces/`` and
``<root>/warm/``, with the same ``schema`` and ``repro_version``
guards; :mod:`repro.exec.tracestore` owns those directories, and
``stats`` and ``clear`` call its helpers.

Floats survive the round trip exactly: ``json`` serialises Python floats
with ``repr``, which round-trips IEEE-754 doubles bit-for-bit, so a
cached :class:`SimResult` compares equal to a freshly simulated one.

Fault injection: construct with ``chaos=``:class:`~repro.exec.chaos.
ChaosConfig` (or let the executor pass it through) and entry writes are
deterministically truncated/corrupted with the configured probability —
the integrity machinery above is what makes this survivable.

CLI::

    python -m repro.exec cache stats
    python -m repro.exec cache verify
    python -m repro.exec cache clear
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.metrics.ipc import SimResult

from repro.exec import tracestore
from repro.exec.chaos import ChaosConfig
from repro.exec.jobs import JobResult, SimJob, hash_payload
from repro.exec.schema import SCHEMA_VERSION, repro_version

#: Default cache root, relative to the current working directory.
DEFAULT_CACHE_DIR = Path("results") / "cache"

#: Suffix quarantined (corrupt) entries are renamed to.
CORRUPT_SUFFIX = ".corrupt"


def default_cache_dir() -> Path:
    """Cache root honouring the ``REPRO_CACHE_DIR`` environment knob."""
    env = os.environ.get("REPRO_CACHE_DIR")
    return Path(env) if env else DEFAULT_CACHE_DIR


@dataclass(frozen=True, slots=True)
class CacheStats:
    """Aggregate numbers for ``repro.exec cache stats``."""

    root: str
    entries: int
    total_bytes: int
    #: Quarantined ``*.corrupt`` files awaiting inspection/deletion.
    corrupt: int = 0
    #: Per-kind breakdown ``(kind, entries, bytes)``: ``sim`` for
    #: :class:`SimJob` results, the fingerprint ``kind`` for other job
    #: classes (e.g. ``work``), and ``mutation`` for the mutation
    #: engine's per-layer outcome store under ``<root>/mutation/``.
    by_kind: tuple[tuple[str, int, int], ...] = ()
    #: Cache hits summed over the persisted per-run counter files
    #: (``<root>/runs/<run-id>.json``, written at the end of every
    #: journalled run).
    hits: int = 0
    #: Cache misses (jobs a run had to execute) over the same files.
    misses: int = 0
    #: How many per-run counter files the totals aggregate.
    runs: int = 0

    def as_dict(self) -> dict[str, object]:
        """JSON-safe form (``cache stats --json``)."""
        return {
            "root": self.root,
            "entries": self.entries,
            "total_bytes": self.total_bytes,
            "corrupt": self.corrupt,
            "by_kind": [
                {"kind": k, "entries": n, "bytes": b}
                for k, n, b in self.by_kind
            ],
            "hits": self.hits,
            "misses": self.misses,
            "runs": self.runs,
        }


@dataclass(frozen=True, slots=True)
class VerifyReport:
    """Outcome of a full-store integrity sweep (``cache verify``)."""

    checked: int
    ok: int
    #: Schema/version mismatches: valid files awaiting recomputation.
    stale: int
    #: Entries failing integrity checks, moved to ``*.corrupt``.
    quarantined: int


class ResultCache:
    """Content-addressed store of :class:`JobResult` values."""

    def __init__(self, root: str | Path | None = None,
                 chaos: ChaosConfig | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        #: Fault-injection policy applied on write (None = writes are
        #: faithful). Reads never inject: detection is the point.
        self.chaos = chaos

    # ------------------------------------------------------------------
    def path_for(self, job: SimJob) -> Path:
        """Entry path for a job (exists or not)."""
        return self.root / f"{job.content_hash()}.json"

    def get(self, job: SimJob) -> JobResult | None:
        """Stored result for ``job``, or None on miss.

        Never raises: a missing or stale entry is a plain miss; a
        *corrupt* entry (bad JSON, checksum/key mismatch) is quarantined
        to ``<hash>.corrupt`` and then reads as a miss, so a poisoned
        entry costs one recomputation plus a visible quarantine file,
        not a crashed sweep.
        """
        key = job.content_hash()
        path = self.root / f"{key}.json"
        try:
            blob = path.read_bytes()
        except OSError:  # repro: noqa[RPR007] — absent entry: ordinary miss
            return None
        state, payload = self._validate(key, blob)
        if state == "ok":
            return payload
        if state == "corrupt":
            self._quarantine(path)
        return None

    def _validate(self, key: str,
                  blob: bytes) -> tuple[str, JobResult | None]:
        """Classify an entry's bytes: ("ok", payload) / ("stale", None)
        / ("corrupt", None)."""
        try:
            entry = json.loads(blob.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return "corrupt", None
        if not isinstance(entry, dict):
            return "corrupt", None
        if entry.get("schema") != SCHEMA_VERSION:
            return "stale", None
        if entry.get("repro_version") != repro_version():
            return "stale", None
        if entry.get("key") != key:
            return "corrupt", None
        body = {
            "result": entry.get("result"),
            "fairness": entry.get("fairness"),
        }
        try:
            if entry.get("checksum") != hash_payload(body):
                return "corrupt", None
            return "ok", decode_job_result(body)
        except (KeyError, TypeError, ValueError):
            return "corrupt", None

    def _quarantine(self, path: Path) -> Path:
        """Atomically move a damaged entry aside as ``<hash>.corrupt``."""
        target = path.with_suffix(CORRUPT_SUFFIX)
        try:
            os.replace(path, target)
        except OSError:  # repro: noqa[RPR007] — lost a benign race
            # A concurrent reader quarantined the same entry first;
            # either way the bad file is out of the namespace.
            pass
        return target

    def put(self, job: SimJob, payload: JobResult) -> Path:
        """Atomically persist ``payload`` under the job's content hash."""
        self.root.mkdir(parents=True, exist_ok=True)
        key = job.content_hash()
        path = self.root / f"{key}.json"
        body = encode_job_result(payload)
        entry = {
            "schema": SCHEMA_VERSION,
            "repro_version": repro_version(),
            "key": key,
            "job": job.fingerprint_payload(),
            "checksum": hash_payload(body),
            **body,
        }
        blob = json.dumps(entry, sort_keys=True, indent=1).encode("utf-8")
        if self.chaos is not None:
            blob = self.chaos.corrupt_bytes(key, blob)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        tmp.write_bytes(blob)
        os.replace(tmp, path)
        return path

    # ------------------------------------------------------------------
    # per-run hit/miss counters
    # ------------------------------------------------------------------
    def record_run(self, run_id: str, hits: int, misses: int,
                   total: int) -> Path:
        """Persist one run's hit/miss counters under ``runs/<run-id>``.

        Written (atomically, like entries) at the end of every
        journalled run by :meth:`repro.exec.ledger.JobLedger.summarize`;
        ``stats`` aggregates them so hit rates survive across
        processes and are visible to ``cache stats``.
        Re-running the same grid overwrites its own counter file (run
        ids are content-derived), so warm reruns update rather than
        double-count.
        """
        runs = self.root / "runs"
        runs.mkdir(parents=True, exist_ok=True)
        path = runs / f"{run_id}.json"
        blob = json.dumps(
            {"run_id": run_id, "hits": int(hits), "misses": int(misses),
             "total": int(total)},
            sort_keys=True, separators=(",", ":"),
        ).encode("utf-8")
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        tmp.write_bytes(blob)
        os.replace(tmp, path)
        return path

    # ------------------------------------------------------------------
    def stats(self) -> CacheStats:
        """Entry count, footprint, quarantine count, per-kind breakdown
        and aggregated per-run hit/miss counters."""
        entries = 0
        total = 0
        corrupt = 0
        by_kind: dict[str, list[int]] = {}
        hits = misses = runs = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                entries += 1
                size = path.stat().st_size
                total += size
                kind = self._entry_kind(path)
                bucket = by_kind.setdefault(kind, [0, 0])
                bucket[0] += 1
                bucket[1] += size
            corrupt = sum(1 for _ in self.root.glob(f"*{CORRUPT_SUFFIX}"))
            # The mutation engine's per-layer outcome store and the
            # slot-trace and warm-state stores live in subdirectories;
            # each counts as its own kind.
            if (self.root / "mutation").is_dir():
                bucket = by_kind.setdefault("mutation", [0, 0])
                for path in (self.root / "mutation").rglob("*.json"):
                    bucket[0] += 1
                    bucket[1] += path.stat().st_size
            for kind, size in tracestore.footprint(self.root).items():
                by_kind[kind] = list(size)
            for path in (self.root / "runs").glob("*.json"):
                try:
                    rec = json.loads(path.read_text(encoding="utf-8"))
                except (OSError, ValueError):  # repro: noqa[RPR007] — torn counter file: skip
                    continue
                hits += int(rec.get("hits", 0))
                misses += int(rec.get("misses", 0))
                runs += 1
        return CacheStats(
            root=str(self.root), entries=entries, total_bytes=total,
            corrupt=corrupt,
            by_kind=tuple(
                (kind, n, size)
                for kind, (n, size) in sorted(by_kind.items())
            ),
            hits=hits, misses=misses, runs=runs,
        )

    def _entry_kind(self, path: Path) -> str:
        """Job kind of one stored entry, from its recorded fingerprint.

        :class:`SimJob` fingerprints predate the ``kind`` discriminator
        and have none; anything unreadable counts as ``unknown`` (the
        integrity sweep, not stats, judges corruption).
        """
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
            job = entry.get("job")
            if isinstance(job, dict):
                return str(job.get("kind", "sim"))
        except (OSError, ValueError):  # repro: noqa[RPR007] — stats never raise on damage
            pass
        return "unknown"

    def verify(self) -> VerifyReport:
        """Integrity-sweep every entry; quarantine the corrupt ones.

        Unlike :meth:`get`, this checks entries without knowing the
        requesting job: the recorded ``key`` must match the filename and
        the checksum must match the payload.
        """
        checked = ok = stale = quarantined = 0
        if self.root.is_dir():
            for path in sorted(self.root.glob("*.json")):
                checked += 1
                try:
                    blob = path.read_bytes()
                except OSError:  # repro: noqa[RPR007] — deleted underneath us
                    continue
                state, _ = self._validate(path.stem, blob)
                if state == "ok":
                    ok += 1
                elif state == "stale":
                    stale += 1
                else:
                    self._quarantine(path)
                    quarantined += 1
        return VerifyReport(checked=checked, ok=ok, stale=stale,
                            quarantined=quarantined)

    def clear(self, corrupt: bool = True) -> int:
        """Delete every entry, the slot-trace and warm-state stores and,
        by default, every quarantined file; returns how many files were
        removed.

        The mutation engine's ``mutation/`` store and the ``runs/``
        counters are kept.
        """
        removed = 0
        if self.root.is_dir():
            patterns = ["*.json"] + ([f"*{CORRUPT_SUFFIX}"] if corrupt
                                     else [])
            for pattern in patterns:
                for path in self.root.glob(pattern):
                    path.unlink(missing_ok=True)
                    removed += 1
            removed += tracestore.clear(self.root)
        return removed


# ----------------------------------------------------------------------
# (de)serialisation
# ----------------------------------------------------------------------
def encode_job_result(payload: JobResult) -> dict[str, object]:
    """Encode a :class:`JobResult` as the JSON-safe payload body shared
    by cache entries and journal ``done`` records."""
    result = payload.result
    return {
        "result": {
            "benchmarks": list(result.benchmarks),
            "scheduler": result.scheduler,
            "iq_size": result.iq_size,
            "cycles": int(result.cycles),
            "committed": [int(c) for c in result.committed],
            # Normalised to float so encoding a fresh result and
            # re-encoding a decoded one are byte-identical (extras may
            # hold ints in memory; decode always yields floats).
            "extras": {str(k): float(v)
                       for k, v in result.extras.items()},
        },
        "fairness": (None if payload.fairness is None
                     else float(payload.fairness)),
    }


def decode_job_result(body: dict[str, object]) -> JobResult:
    """Inverse of :func:`encode_job_result`."""
    raw = body["result"]
    if not isinstance(raw, dict):
        raise TypeError("result field is not an object")
    result = SimResult(
        benchmarks=tuple(raw["benchmarks"]),
        scheduler=str(raw["scheduler"]),
        iq_size=int(raw["iq_size"]),
        cycles=int(raw["cycles"]),
        committed=tuple(int(c) for c in raw["committed"]),
        extras={str(k): float(v) for k, v in dict(raw["extras"]).items()},
    )
    fairness = body.get("fairness")
    return JobResult(
        result=result,
        fairness=None if fairness is None else float(fairness),
    )
