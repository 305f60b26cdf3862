"""Content-addressed on-disk stores of slot traces and warm state,
beside the result cache.

:mod:`repro.exec.pool` forks one process per job, so the runner's
in-process memos of slot traces and of warm cache/predictor state die
with each child. While :func:`~repro.exec.pool.execute_jobs` runs
forked workers with a ``cache_dir``, the runner consults two stores
here:

* :func:`repro.experiments.runner.thread_traces` looks a slot trace up
  in :class:`TraceStore` between its memo and the generator: a miss
  generates the trace and writes it here, and the next job, in any
  process, loads it instead;
* :func:`repro.experiments.runner.simulate_mix` loads the mix's warm
  state from :class:`WarmStore` into the core's memo before it builds
  the core, and stores what a cold build captured.

In-process runs leave both stores off: the memos already serve every
repeat there, so each write would be pure cost.

Layout, one uncompressed ``np.savez`` archive per entry: zlib made a
trace write cost more than generating the trace, and slowed every
load. ``np.load`` opens zlib-compressed archives too, so an entry an
earlier version wrote compressed is still served.

* ``<cache_dir>/traces/<key>.npz`` holds every
  :class:`~repro.trace.generator.Trace` list as an int64 column
  (``taken`` as bool). The ``key`` is a SHA-256 over exactly the
  generator's inputs: the profile's fingerprint, the length and the
  derived trace seed (:func:`trace_key`). ``name`` and ``seed`` are
  recorded and must match the request.
* ``<cache_dir>/warm/<key>.npz`` holds the columns of
  ``_WarmState.export`` in :mod:`repro.pipeline.smt_core`, as int64,
  or uint8 for the gshare tables. The ``key`` is a SHA-256 over the
  slots' trace keys in thread order, the warmup length and the memory
  and branch-predictor configs (:func:`warm_key`): everything the warm
  state depends on, so one entry serves every scheduler and IQ size of
  a mix. ``threads`` is recorded and must match the request.

Every entry also records a ``meta`` string of JSON:

* ``schema`` and ``repro_version`` are the stamp the result cache
  records too (:mod:`repro.exec.schema`), so one rule invalidates all
  three stores (docs/exec.md, "Invalidation rules");
* ``key`` must match the file name;
* ``checksum`` is a SHA-256 over every array's name, dtype, size and
  bytes, plus, for a trace, its name and seed.

The stores are disposable. Reads use ``allow_pickle=False``, and any
error or mismatch is a miss, as is a warm entry whose shapes do not fit
the machine: the caller rebuilds and overwrites the entry. There is no
quarantine. Writes are atomic (a same-directory temp file with the pid
in its name, then ``os.replace``). This module alone knows the layout:
the result cache's ``stats`` and ``clear`` call :func:`footprint` and
:func:`clear`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path

import numpy as np

from repro.config.machine import MachineConfig
from repro.exec.jobs import hash_payload
from repro.exec.schema import SCHEMA_VERSION, repro_version
from repro.pipeline.smt_core import export_warm_state, import_warm_state
from repro.trace.generator import Trace
from repro.trace.profiles import get_profile

#: The stores' subdirectories of a cache root, by the kind ``cache
#: stats`` reports, and their entry suffix.
TRACE_DIR = "traces"
WARM_DIR = "warm"
_DIRS = {"trace": TRACE_DIR, "warm": WARM_DIR}
_SUFFIX = ".npz"

#: Per-instruction columns of a trace, then its warm-address lists; the
#: checksum covers them in this order.
_INSN_COLUMNS = ("op", "dest", "src1", "src2", "pc", "addr", "taken",
                 "target")
_COLUMNS = _INSN_COLUMNS + ("warm_addrs", "warm_pcs")

#: The cache root whose stores are active, set by :func:`trace_store`.
#: A context variable rather than an argument: :meth:`SimJob.run` takes
#: none, and a fork-started worker inherits the value of the thread that
#: forked it.
_ACTIVE: ContextVar[Path | None] = ContextVar(
    "repro_trace_store", default=None
)


def _dtype(column: str) -> type:
    return np.bool_ if column == "taken" else np.int64


def _digest(arrays: Iterable[tuple[str, np.ndarray]], tail: str) -> str:
    h = hashlib.sha256()
    for name, arr in arrays:
        h.update(f"{name}:{arr.dtype.str}:{arr.size}:".encode("ascii"))
        h.update(arr.tobytes())
    h.update(tail.encode("utf-8"))
    return h.hexdigest()


def _checksum(columns: dict[str, np.ndarray], name: str, seed: int) -> str:
    return _digest(((c, columns[c]) for c in _COLUMNS), f"{name}:{seed}")


def _stamp(key: str, **fields: object) -> dict[str, object]:
    """The meta fields an entry under ``key`` must record."""
    return {"schema": SCHEMA_VERSION, "repro_version": repro_version(),
            "key": key, **fields}


def _read(path: Path, expected: dict[str, object],
          ) -> tuple[dict, dict[str, np.ndarray]] | None:
    """An entry's meta and arrays, or None when it is absent, unreadable
    or records a field other than ``expected``."""
    try:
        with np.load(path, allow_pickle=False) as npz:
            meta = json.loads(str(npz["meta"]))
            arrays = {k: npz[k] for k in npz.files if k != "meta"}
    except Exception:  # repro: noqa[RPR007] — a miss: the caller rebuilds
        return None
    if not isinstance(meta, dict) or any(
        meta.get(field) != value for field, value in expected.items()
    ):
        return None
    return meta, arrays


def _write(path: Path, meta: dict[str, object],
           arrays: dict[str, np.ndarray]) -> Path:
    """Atomically write one entry, replacing any at ``path``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        # A file object, not a path: np.savez would append its suffix
        # to the temp name.
        with open(tmp, "wb") as fh:
            np.savez(fh, meta=np.array(json.dumps(meta, sort_keys=True)),
                     **arrays)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


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
        entry = _read(path, _stamp(path.stem, name=name, seed=seed))
        if entry is None:
            return None
        meta, columns = entry
        if sorted(columns) != sorted(_COLUMNS):
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
        meta = _stamp(path.stem, name=trace.name, seed=trace.seed,
                      checksum=_checksum(columns, trace.name, trace.seed))
        return _write(path, meta, columns)


def _warm_arrays(flat: dict[str, bytes | list[int]]) -> dict[str, np.ndarray]:
    return {
        name: (np.frombuffer(column, dtype=np.uint8)
               if isinstance(column, bytes)
               else np.asarray(column, dtype=np.int64))
        for name, column in flat.items()
    }


def _warm_digest(arrays: dict[str, np.ndarray]) -> str:
    return _digest(sorted(arrays.items()), "")


def warm_checksum(flat: dict[str, bytes | list[int]]) -> str:
    """The checksum a stored copy of a warm-state export records."""
    return _warm_digest(_warm_arrays(flat))


def warm_key(trace_keys: Sequence[str], warmup: int,
             cfg: MachineConfig) -> str:
    """Store key of the warm state of a core of ``cfg`` whose slots run
    the traces under ``trace_keys`` (:func:`trace_key`, in thread order)
    after ``warmup`` instructions. The scheduler and IQ size are not in
    it: they do not touch the caches or predictors during warm-up."""
    return hash_payload({
        "traces": list(trace_keys),
        "warmup": warmup,
        "mem": dataclasses.asdict(cfg.mem),
        "bp": dataclasses.asdict(cfg.bp),
    })


class WarmStore:
    """Warm-state snapshots under one directory, keyed by
    :func:`warm_key`."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        """Entry path of one snapshot (exists or not)."""
        return self.root / f"{key}{_SUFFIX}"

    def get(self, key: str,
            threads: int) -> dict[str, bytes | list[int]] | None:
        """The stored export of a ``threads``-thread core's warm state,
        or None when absent, stale or damaged."""
        entry = _read(self.path_for(key), _stamp(key, threads=threads))
        if entry is None:
            return None
        meta, arrays = entry
        if meta.get("checksum") != _warm_digest(arrays):
            return None
        flat: dict[str, bytes | list[int]] = {}
        for name, arr in arrays.items():
            if arr.ndim != 1 or arr.dtype not in (np.uint8, np.int64):
                return None
            flat[name] = (arr.tobytes() if arr.dtype == np.uint8
                          else arr.tolist())
        return flat

    def put(self, key: str, threads: int,
            flat: dict[str, bytes | list[int]]) -> Path:
        """Atomically store an export, replacing any entry for ``key``."""
        arrays = _warm_arrays(flat)
        meta = _stamp(key, threads=threads,
                      checksum=_warm_digest(arrays))
        return _write(self.path_for(key), meta, arrays)

    def load(self, key: str, cfg: MachineConfig, traces: list[Trace],
             warmup: int) -> bool:
        """Memoise the stored snapshot for a core of ``cfg`` on
        ``traces``; False on a miss, including an entry whose shapes do
        not fit ``cfg``."""
        flat = self.get(key, len(traces))
        if flat is None:
            return False
        try:
            import_warm_state(cfg, traces, warmup, flat)
        except ValueError:  # repro: noqa[RPR007] — a misfit entry is a miss
            return False
        return True

    def save(self, key: str, cfg: MachineConfig, traces: list[Trace],
             warmup: int) -> None:
        """Store the memoised warm state of a core of ``cfg`` on
        ``traces``, as a cold build left it."""
        flat = export_warm_state(cfg, traces, warmup)
        if flat is not None:
            self.put(key, len(traces), flat)


def footprint(cache_dir: str | Path) -> dict[str, tuple[int, int]]:
    """``(entries, bytes)`` of each store under ``cache_dir`` that has a
    directory, by kind (``trace``, ``warm``)."""
    sizes = {}
    for kind, name in _DIRS.items():
        root = Path(cache_dir) / name
        if root.is_dir():
            files = [p.stat().st_size for p in root.glob(f"*{_SUFFIX}")]
            sizes[kind] = (len(files), sum(files))
    return sizes


def clear(cache_dir: str | Path) -> int:
    """Delete the stores under ``cache_dir``, stray temp files included;
    returns how many files were removed."""
    removed = 0
    for name in _DIRS.values():
        root = Path(cache_dir) / name
        if not root.is_dir():
            continue
        for path in root.iterdir():
            path.unlink(missing_ok=True)
            removed += 1
        root.rmdir()
    return removed


@contextmanager
def trace_store(cache_dir: str | Path | None) -> Iterator[None]:
    """Make the stores under ``cache_dir`` (``traces/`` and ``warm/``)
    active for the body; a None ``cache_dir`` leaves none active."""
    token = _ACTIVE.set(None if cache_dir is None else Path(cache_dir))
    try:
        yield
    finally:
        _ACTIVE.reset(token)


def active_trace_store() -> TraceStore | None:
    """The slot-trace store :func:`trace_store` activated, if any."""
    root = _ACTIVE.get()
    return None if root is None else TraceStore(root / TRACE_DIR)


def active_warm_store() -> WarmStore | None:
    """The warm-state store :func:`trace_store` activated, if any."""
    root = _ACTIVE.get()
    return None if root is None else WarmStore(root / WARM_DIR)
