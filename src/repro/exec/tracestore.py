"""Content-addressed on-disk store of slot traces, beside the result cache.

:mod:`repro.exec.pool` forks one process per job, so the runner's
in-process slot-trace memo dies with each child. While
:func:`~repro.exec.pool.execute_jobs` runs forked workers with a
``cache_dir``, :func:`repro.experiments.runner.thread_traces` consults
this store between its memo and the generator: a miss generates the
trace and writes it here, and the next job, in any process, loads it
instead. In-process runs leave the store off: the memo already serves
every repeat there, so each write would be pure cost.

Layout: ``<cache_dir>/traces/<key>.npz``, one ``np.savez_compressed``
archive per trace, holding every :class:`~repro.trace.generator.Trace`
list as an int64 column (``taken`` as bool) plus a ``meta`` string of
JSON:

* the file name ``key`` is a SHA-256 over exactly the generator's
  inputs: the profile's fingerprint, the length and the derived trace
  seed;
* ``schema`` and ``repro_version`` are the stamp the result cache
  records too (:mod:`repro.exec.schema`), so one rule invalidates both
  stores (docs/exec.md, "Invalidation rules");
* ``key``, ``name`` and ``seed`` must match the request;
* ``checksum`` is a SHA-256 over every column's dtype and bytes, plus
  the name and the seed.

The store is disposable. Reads use ``allow_pickle=False``, and any
error or mismatch is a miss: the caller regenerates the trace and
overwrites the entry. There is no quarantine. Writes are atomic (a
same-directory temp file with the pid in its name, then
``os.replace``). This module alone knows the layout: the result
cache's ``stats`` and ``clear`` call :func:`footprint` and
:func:`clear`.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path

import numpy as np

from repro.exec.jobs import hash_payload
from repro.exec.schema import SCHEMA_VERSION, repro_version
from repro.trace.generator import Trace
from repro.trace.profiles import get_profile

#: The store's subdirectory of a cache root, and its entry suffix.
TRACE_DIR = "traces"
_SUFFIX = ".npz"

#: Per-instruction columns of a trace, then its warm-address lists; the
#: checksum covers them in this order.
_INSN_COLUMNS = ("op", "dest", "src1", "src2", "pc", "addr", "taken",
                 "target")
_COLUMNS = _INSN_COLUMNS + ("warm_addrs", "warm_pcs")

#: The active store, set by :func:`trace_store`. A context variable
#: rather than an argument: :meth:`SimJob.run` takes none, and a
#: fork-started worker inherits the value of the thread that forked it.
_ACTIVE: ContextVar["TraceStore | None"] = ContextVar(
    "repro_trace_store", default=None
)


def _dtype(column: str) -> type:
    return np.bool_ if column == "taken" else np.int64


def _checksum(columns: dict[str, np.ndarray], name: str, seed: int) -> str:
    h = hashlib.sha256()
    for column in _COLUMNS:
        arr = columns[column]
        h.update(f"{column}:{arr.dtype.str}:{arr.size}:".encode("ascii"))
        h.update(arr.tobytes())
    h.update(f"{name}:{seed}".encode("utf-8"))
    return h.hexdigest()


def _columns(trace: Trace) -> dict[str, np.ndarray]:
    return {c: np.asarray(getattr(trace, c), dtype=_dtype(c))
            for c in _COLUMNS}


def trace_checksum(trace: Trace) -> str:
    """The checksum a stored copy of ``trace`` records."""
    return _checksum(_columns(trace), trace.name, trace.seed)


def trace_key(name: str, length: int, seed: int) -> str:
    """Store key of ``generate_trace(name, length, seed)``."""
    return hash_payload({
        "profile": get_profile(name).fingerprint(),
        "length": length,
        "seed": seed,
    })


class TraceStore:
    """Slot traces under one directory, keyed by :func:`trace_key`."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def path_for(self, name: str, length: int, seed: int) -> Path:
        """Entry path of one trace (exists or not)."""
        return self.root / f"{trace_key(name, length, seed)}{_SUFFIX}"

    def get(self, name: str, length: int, seed: int) -> Trace | None:
        """The stored trace, equal to ``generate_trace(name, length,
        seed)``, or None when absent, stale or damaged."""
        path = self.path_for(name, length, seed)
        try:
            with np.load(path, allow_pickle=False) as npz:
                meta = json.loads(str(npz["meta"]))
                columns = {c: npz[c] for c in _COLUMNS}
        except Exception:  # repro: noqa[RPR007] — a miss: the caller regenerates
            return None
        expected = {
            "schema": SCHEMA_VERSION,
            "repro_version": repro_version(),
            "key": path.stem,
            "name": name,
            "seed": seed,
        }
        if not isinstance(meta, dict) or any(
            meta.get(field) != value for field, value in expected.items()
        ):
            return None
        for column, arr in columns.items():
            if arr.dtype != _dtype(column) or arr.ndim != 1:
                return None
            if column in _INSN_COLUMNS and arr.size != length:
                return None
        if meta.get("checksum") != _checksum(columns, name, seed):
            return None
        return Trace(name=name, seed=seed,
                     **{c: arr.tolist() for c, arr in columns.items()})

    def put(self, trace: Trace) -> Path:
        """Atomically store ``trace``, replacing any entry for its key."""
        columns = _columns(trace)
        path = self.path_for(trace.name, len(trace), trace.seed)
        meta = {
            "schema": SCHEMA_VERSION,
            "repro_version": repro_version(),
            "key": path.stem,
            "name": trace.name,
            "seed": trace.seed,
            "checksum": _checksum(columns, trace.name, trace.seed),
        }
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            # A file object, not a path: np.savez_compressed would
            # append its suffix to the temp name.
            with open(tmp, "wb") as fh:
                np.savez_compressed(
                    fh, meta=np.array(json.dumps(meta, sort_keys=True)),
                    **columns,
                )
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        return path


def footprint(cache_dir: str | Path) -> tuple[int, int] | None:
    """``(entries, bytes)`` of the store under ``cache_dir``, or None
    when it has no store directory."""
    root = Path(cache_dir) / TRACE_DIR
    if not root.is_dir():
        return None
    sizes = [path.stat().st_size for path in root.glob(f"*{_SUFFIX}")]
    return len(sizes), sum(sizes)


def clear(cache_dir: str | Path) -> int:
    """Delete the store under ``cache_dir``, stray temp files included;
    returns how many files were removed."""
    root = Path(cache_dir) / TRACE_DIR
    if not root.is_dir():
        return 0
    removed = 0
    for path in root.iterdir():
        path.unlink(missing_ok=True)
        removed += 1
    root.rmdir()
    return removed


@contextmanager
def trace_store(cache_dir: str | Path | None) -> Iterator[None]:
    """Make ``<cache_dir>/traces`` the active store for the body; a None
    ``cache_dir`` leaves no store active."""
    store = None if cache_dir is None else TraceStore(
        Path(cache_dir) / TRACE_DIR
    )
    token = _ACTIVE.set(store)
    try:
        yield
    finally:
        _ACTIVE.reset(token)


def active_trace_store() -> TraceStore | None:
    """The store :func:`trace_store` activated, if any."""
    return _ACTIVE.get()
