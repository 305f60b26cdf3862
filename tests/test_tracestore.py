"""Tests of the on-disk slot-trace store (``repro.exec.tracestore``).

Covers the round trip (a loaded trace equals the generated one, Python
types included), the format (both stores write uncompressed archives,
and an entry in the older zlib format is still served), damage handling
(a bit flip never serves a different trace; a stale, misplaced or
truncated entry is regenerated and overwritten), activation (only while
``execute_jobs`` runs forked workers with a ``cache_dir``), and the
payoff: a cold cached grid on forked workers generates each distinct
slot trace once.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.experiments.runner as runner
from repro.config.presets import small_machine
from repro.exec import (
    SCHEMA_VERSION,
    ExecutorConfig,
    ResultCache,
    execute_jobs,
    jobs_for_grid,
)
from repro.exec.cache import encode_job_result
from repro.exec.tracestore import (
    TraceStore,
    WarmStore,
    active_trace_store,
    trace_store,
)
from repro.experiments.runner import clear_slot_trace_cache, thread_traces
from repro.pipeline.smt_core import (
    SMTProcessor,
    clear_warm_state_cache,
    export_warm_state,
)
from repro.trace.generator import Trace, generate_trace
from repro.trace.profiles import ALL_BENCHMARKS
from repro.util.encoding import stable_dumps
from repro.util.rng import derive_seed
from repro.workloads.mixes import TWO_THREAD_MIXES


@pytest.fixture(autouse=True)
def cold_memos():
    clear_slot_trace_cache()
    clear_warm_state_cache()
    yield
    clear_slot_trace_cache()
    clear_warm_state_cache()


def assert_same_trace(got: Trace, want: Trace) -> None:
    """Equal field for field, with the same Python type per value."""
    assert got == want
    for f in dataclasses.fields(Trace):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, list):
            assert [type(v) for v in a] == [type(v) for v in b], f.name
        else:
            assert type(a) is type(b), f.name


@pytest.fixture
def count_generations(monkeypatch, tmp_path):
    """Count real generations, including those in forked workers: each
    appends a line to a file, and the fixture returns a reader."""
    log = tmp_path / "generated.log"
    log.touch()
    generate = runner.generate_trace

    def counted(name, length, seed):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{name} {length} {seed}\n")
        return generate(name, length, seed)

    monkeypatch.setattr(runner, "generate_trace", counted)
    return lambda: log.read_text(encoding="utf-8").splitlines()


# ----------------------------------------------------------------------
# round trip and damage
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(ALL_BENCHMARKS),
       occurrence=st.integers(0, 3),
       seed=st.integers(0, 2**32),
       length=st.integers(1, 1500))
def test_loaded_trace_equals_generated(tmp_path_factory, name, occurrence,
                                       seed, length):
    store = TraceStore(tmp_path_factory.mktemp("traces"))
    trace_seed = derive_seed(seed, "slot", name, occurrence)
    trace = generate_trace(name, length, trace_seed)
    store.put(trace)
    assert_same_trace(store.get(name, length, trace_seed), trace)
    assert store.get(name, length + 1, trace_seed) is None
    assert store.get(name, length, trace_seed + 1) is None


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """One stored trace: (store, trace, the entry's bytes)."""
    store = TraceStore(tmp_path_factory.mktemp("flip"))
    trace = generate_trace("gcc", 600, 11)
    path = store.put(trace)
    return store, trace, path.read_bytes()


@settings(max_examples=100, deadline=None)
@given(position=st.integers(0, 2**40))
def test_bit_flip_never_serves_a_different_trace(stored, position):
    store, trace, blob = stored
    bit = position % (len(blob) * 8)
    flipped = bytearray(blob)
    flipped[bit // 8] ^= 1 << (bit % 8)
    store.path_for(trace.name, len(trace), trace.seed).write_bytes(
        bytes(flipped)
    )
    got = store.get(trace.name, len(trace), trace.seed)
    assert got is None or got == trace


def _rewrite(path, meta_changes=None, column=None) -> None:
    """Re-save an entry as a valid archive in the older
    ``np.savez_compressed`` format, with its meta updated by
    ``meta_changes`` or the first value of ``column`` changed; with
    neither, only the format changes."""
    with np.load(path, allow_pickle=False) as npz:
        arrays = {k: npz[k] for k in npz.files}
    meta = json.loads(str(arrays.pop("meta")))
    meta.update(meta_changes or {})
    if column is not None:
        arrays[column][0] += 1
    with open(path, "wb") as fh:
        np.savez_compressed(fh, meta=np.array(json.dumps(meta)), **arrays)


def compress_types(archive) -> set[int]:
    """The ``zipfile`` compression methods of an archive's members."""
    with zipfile.ZipFile(archive) as zf:
        return {info.compress_type for info in zf.infolist()}


def test_put_survives_a_second_writer_of_the_key(tmp_path, monkeypatch):
    """Two pools sharing a cache may store one slot trace at once: a
    second put landing inside the first one's os.replace must not take
    the first writer's temp file."""
    store = TraceStore(tmp_path)
    trace = generate_trace("gcc", 300, 1)
    real_replace = os.replace
    interleaved = []

    def replace(src, dst):
        if not interleaved:
            interleaved.append(src)
            store.put(trace)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    path = store.put(trace)
    assert interleaved, "the second writer never ran"
    assert_same_trace(store.get(trace.name, len(trace), trace.seed), trace)
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_both_stores_write_uncompressed_archives(stored, tmp_path):
    _, _, blob = stored
    assert compress_types(io.BytesIO(blob)) == {zipfile.ZIP_STORED}
    cfg = small_machine()
    traces = thread_traces(["gzip", "mcf"], 400, 0, 300)
    SMTProcessor(cfg, traces, warmup=300)
    path = WarmStore(tmp_path).put("k", len(traces),
                                   export_warm_state(cfg, traces, 300))
    assert compress_types(path) == {zipfile.ZIP_STORED}


def test_compressed_entry_is_still_served(tmp_path, count_generations):
    # Entries written in the older np.savez_compressed format stay
    # valid: np.load opens both kinds of archive.
    args = (["gcc"], 500, 3, 0)
    with trace_store(tmp_path):
        [trace] = thread_traces(*args)
    [path] = (tmp_path / "traces").glob("*.npz")
    _rewrite(path)  # the same entry, re-saved with np.savez_compressed
    assert compress_types(path) == {zipfile.ZIP_DEFLATED}
    store = TraceStore(tmp_path / "traces")
    assert_same_trace(store.get(trace.name, len(trace), trace.seed), trace)
    clear_slot_trace_cache()
    with trace_store(tmp_path):
        [loaded] = thread_traces(*args)
    assert_same_trace(loaded, trace)
    assert len(count_generations()) == 1  # loaded, not regenerated


def _misplace(path) -> None:
    # Another trace's valid entry under this trace's key.
    other = TraceStore(path.parent.parent / "other").put(
        generate_trace("gzip", 300, 5)
    )
    path.write_bytes(other.read_bytes())


def _truncate(path) -> None:
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


@pytest.mark.parametrize("damage", [
    lambda p: _rewrite(p, {"schema": SCHEMA_VERSION + 1}),
    lambda p: _rewrite(p, {"repro_version": "0.0.0-stale"}),
    _misplace,
    _truncate,
    # A well-formed archive whose column no longer matches the checksum.
    lambda p: _rewrite(p, column="addr"),
], ids=["stale-schema", "stale-version", "wrong-key", "truncated",
        "edited-column"])
def test_damaged_entry_is_regenerated_and_overwritten(
        tmp_path, count_generations, damage):
    args = (["gcc"], 500, 3, 0)
    with trace_store(tmp_path):
        [trace] = thread_traces(*args)
    [path] = (tmp_path / "traces").glob("*.npz")
    clear_slot_trace_cache()
    with trace_store(tmp_path):
        assert thread_traces(*args) == [trace]
    assert len(count_generations()) == 1  # loaded, not regenerated

    damage(path)
    clear_slot_trace_cache()
    with trace_store(tmp_path):
        [again] = thread_traces(*args)
    assert_same_trace(again, trace)
    assert len(count_generations()) == 2
    # The regenerated trace replaced the damaged entry.
    store = TraceStore(tmp_path / "traces")
    assert_same_trace(store.get(trace.name, len(trace), trace.seed), trace)
    assert [p.name for p in store.root.iterdir()] == [path.name]


# ----------------------------------------------------------------------
# activation and the forked pool
# ----------------------------------------------------------------------
CFG = small_machine()
INSNS = 400


def grid_jobs():
    # Three mixes, mix-innermost: a mix recurs only after two other
    # jobs have finished, so its traces are stored before it is
    # dispatched again.
    keyed = jobs_for_grid(
        TWO_THREAD_MIXES[:3], CFG, ("traditional", "2op_block"), (8, 16),
        INSNS, 0,
    )
    return [dataclasses.replace(job, warmup=1000) for _, job in keyed]


def canon(results) -> list[str]:
    return [stable_dumps(encode_job_result(r)) for r in results]


def test_no_store_outside_a_cached_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert active_trace_store() is None
    jobs = grid_jobs()[:3]
    execute_jobs(jobs, ExecutorConfig(jobs=1))
    execute_jobs(jobs, ExecutorConfig(jobs=2))
    thread_traces(["gcc"], 300, 0, 0)
    assert not list(tmp_path.rglob("traces"))
    assert active_trace_store() is None


def test_in_process_cached_run_stores_no_traces(tmp_path,
                                                 count_generations):
    # In process, the runner's memo serves every repeat, so a stored
    # trace would never be read back.
    jobs = grid_jobs()
    _, report = execute_jobs(
        jobs, ExecutorConfig(jobs=1, cache_dir=tmp_path / "cache")
    )
    assert report.simulated == len(jobs)
    assert len(count_generations()) == 6
    assert not (tmp_path / "cache" / "traces").exists()
    assert active_trace_store() is None


def test_cold_pool_generates_each_slot_trace_once(tmp_path,
                                                  count_generations):
    jobs = grid_jobs()
    serial, _ = execute_jobs(jobs, ExecutorConfig(jobs=1))
    clear_slot_trace_cache()
    clear_warm_state_cache()
    serial_generated = len(count_generations())

    cache_dir = tmp_path / "cache"
    pooled, report = execute_jobs(
        jobs, ExecutorConfig(jobs=2, cache_dir=cache_dir)
    )
    assert report.simulated == len(jobs)
    assert canon(pooled) == canon(serial)
    # One generation per distinct slot trace: the serial run's memo
    # count, now across the 2 forked workers.
    generated = count_generations()[serial_generated:]
    assert len(generated) == len(set(generated)) == serial_generated == 6
    stored = sorted((cache_dir / "traces").iterdir())
    assert len(stored) == 6
    assert all(p.suffix == ".npz" for p in stored)
    kinds = {k: n for k, n, _ in ResultCache(cache_dir).stats().by_kind}
    assert kinds == {"sim": len(jobs), "trace": 6, "warm": 3}


def test_pool_worker_keeps_its_mix_across_jobs(tmp_path, monkeypatch):
    """A worker keeps the slot traces of the mix it holds, and takes up
    each mix at most once: 2 workers x 3 mixes x 2 slots bound the
    store lookups of 12 jobs, where a fresh process per job makes 24."""
    log = tmp_path / "lookups.log"
    log.touch()
    get = TraceStore.get

    def counted(self, name, length, seed):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{name} {seed}\n")
        return get(self, name, length, seed)

    monkeypatch.setattr(TraceStore, "get", counted)
    jobs = grid_jobs()
    _, report = execute_jobs(
        jobs, ExecutorConfig(jobs=2, cache_dir=tmp_path / "cache")
    )
    assert report.simulated == len(jobs) == 12
    lookups = log.read_text(encoding="utf-8").splitlines()
    assert 6 <= len(lookups) <= 2 * 3 * 2
