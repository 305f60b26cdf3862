"""Tests of the on-disk warm-state store (``repro.exec.tracestore.WarmStore``).

Covers the round trip (a core built from a stored-and-loaded snapshot
is indistinguishable from a cold one), damage handling (a bit flip
never serves a different snapshot; a stale, misplaced, truncated or
misshapen entry is rebuilt cold and overwritten), the pin that ties the
warm model to the schema version, activation (only while
``execute_jobs`` runs forked workers with a ``cache_dir``), and the
payoff: a cold cached grid on forked workers warms each mix once.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.pipeline.smt_core as smt_core
from repro.config.presets import paper_machine, small_machine
from repro.exec import SCHEMA_VERSION, ExecutorConfig, execute_jobs
from repro.exec.tracestore import WarmStore, trace_store, warm_checksum
from repro.experiments.runner import (
    clear_slot_trace_cache,
    simulate_mix,
    thread_traces,
)
from repro.pipeline.smt_core import (
    SMTProcessor,
    clear_warm_state_cache,
    export_warm_state,
    import_warm_state,
    warm_state_cached,
)
from repro.workloads.mixes import THREE_THREAD_MIXES

from tests.test_tracestore import canon, grid_jobs
from tests.test_warmstate import SCHEDULERS, assert_identical, build_and_run

INSNS = 500


def clear_memos() -> None:
    """What a fresh process starts from: no memoised traces or warm
    state."""
    clear_slot_trace_cache()
    clear_warm_state_cache()


@pytest.fixture(autouse=True)
def cold_memos():
    clear_memos()
    yield
    clear_memos()


@pytest.fixture
def count_builds(monkeypatch, tmp_path):
    """Count cold warm-state builds (``_install_residency`` calls),
    including those in forked workers: each appends the mix's slot
    traces to a file, and the fixture returns a reader."""
    log = tmp_path / "builds.log"
    log.touch()
    install = SMTProcessor._install_residency

    def counted(core):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(" ".join(f"{ts.trace.name}:{ts.trace.seed}"
                              for ts in core.threads) + "\n")
        install(core)

    monkeypatch.setattr(SMTProcessor, "_install_residency", counted)
    return lambda: log.read_text(encoding="utf-8").splitlines()


# ----------------------------------------------------------------------
# round trip
# ----------------------------------------------------------------------
@given(
    mix=st.lists(
        st.sampled_from(["gzip", "mcf", "parser", "vortex", "ammp", "art",
                         "swim"]),
        min_size=1, max_size=4,
    ),
    scheduler=st.sampled_from(SCHEDULERS),
    seed=st.integers(min_value=0, max_value=3),
    warmup=st.sampled_from([0, 1, 200, 700]),
)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_core_from_a_stored_snapshot_equals_cold(tmp_path_factory, mix,
                                                 scheduler, seed, warmup):
    """A core whose warm state was stored, then loaded into a fresh
    memo for new (equal) trace objects, gives the same start state,
    stats and final state as a cold core."""
    clear_memos()
    # Registers enough to back four threads' architectural state.
    cfg = small_machine(scheduler=scheduler, int_phys_regs=192,
                        fp_phys_regs=192)
    store = WarmStore(tmp_path_factory.mktemp("warm"))
    traces = thread_traces(mix, INSNS, seed, warmup)
    cold = build_and_run(cfg, traces, warmup)
    store.put("k", len(traces), export_warm_state(cfg, traces, warmup))

    clear_memos()  # a new worker: new trace objects, empty memo
    loaded = thread_traces(mix, INSNS, seed, warmup)
    assert all(a is not b for a, b in zip(loaded, traces))
    assert store.load("k", cfg, loaded, warmup)
    assert warm_state_cached(cfg, loaded, warmup)
    (entry,) = smt_core._WARM_STATE.values()
    hit = build_and_run(cfg, loaded, warmup)
    # A cold build would have replaced the entry.
    assert list(smt_core._WARM_STATE.values()) == [entry]
    assert cold[0] == hit[0]
    assert_identical(cold[1], hit[1])
    assert cold[2] == hit[2]


def test_import_rejects_another_machine():
    small = small_machine()
    traces = thread_traces(["gzip", "mcf"], INSNS, 0, 300)
    SMTProcessor(small, traces, warmup=300)
    flat = export_warm_state(small, traces, 300)
    with pytest.raises(ValueError):
        import_warm_state(paper_machine(), traces, 300, flat)
    with pytest.raises(ValueError):
        import_warm_state(small, traces[:1], 300, flat)


# ----------------------------------------------------------------------
# the pin
# ----------------------------------------------------------------------
#: ``warm_checksum`` per cache schema of the warm state of the first
#: three-thread mix on ``paper_machine`` after 3,000 warm-up
#: instructions (1,000-instruction budget, seed 0). Stored snapshots
#: outlive a change to the caches, the predictors, residency install or
#: warm-up replay unless SCHEMA_VERSION moves with it (docs/exec.md,
#: "Invalidation rules").
PINNED_WARM_STATE = {
    2: "76e7e048801739de3d9dec79630b98ca87026b3f05ba0f9c71a4821521576234",
}


def test_warm_state_is_pinned_to_the_schema_version():
    cfg = paper_machine()
    traces = thread_traces(THREE_THREAD_MIXES[0].benchmarks, 1000, 0, 3000)
    SMTProcessor(cfg, traces, warmup=3000)
    digest = warm_checksum(export_warm_state(cfg, traces, 3000))
    assert digest == PINNED_WARM_STATE.get(SCHEMA_VERSION), (
        "the warm state a core starts from changed: bump SCHEMA_VERSION "
        "in repro/exec/schema.py and pin the new checksum here"
    )


# ----------------------------------------------------------------------
# damage
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """One stored snapshot: (store, export, the entry's bytes)."""
    clear_memos()
    cfg = small_machine()
    traces = thread_traces(["gcc", "mcf"], INSNS, 11, 300)
    SMTProcessor(cfg, traces, warmup=300)
    flat = export_warm_state(cfg, traces, 300)
    store = WarmStore(tmp_path_factory.mktemp("flip"))
    path = store.put("k", 2, flat)
    clear_memos()
    return store, flat, path.read_bytes()


@settings(max_examples=100, deadline=None)
@given(position=st.integers(0, 2**40))
def test_bit_flip_never_serves_a_different_snapshot(stored, position):
    store, flat, blob = stored
    bit = position % (len(blob) * 8)
    flipped = bytearray(blob)
    flipped[bit // 8] ^= 1 << (bit % 8)
    store.path_for("k").write_bytes(bytes(flipped))
    got = store.get("k", 2)
    assert got is None or got == flat


MIX = ("parser", "vortex")
WARMUP = 400


def run_point(cache_dir):
    with trace_store(cache_dir):
        return simulate_mix(MIX, small_machine(), INSNS, 0, warmup=WARMUP)


def _rewrite(path, meta_changes) -> None:
    """Re-save an entry as a valid archive with its meta updated."""
    with np.load(path, allow_pickle=False) as npz:
        arrays = {k: npz[k] for k in npz.files}
    meta = json.loads(str(arrays.pop("meta")))
    meta.update(meta_changes)
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(meta)), **arrays)


def _misplace(path) -> None:
    # Another mix's valid entry under this mix's key.
    other = path.parent.parent / "other"
    with trace_store(other):
        simulate_mix(("gzip", "mcf"), small_machine(), INSNS, 0,
                     warmup=WARMUP)
    [entry] = (other / "warm").iterdir()
    path.write_bytes(entry.read_bytes())


def _truncate(path) -> None:
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _overfill(path) -> None:
    # A checksummed entry whose first L1I set holds one way too many.
    store = WarmStore(path.parent)
    flat = store.get(path.stem, len(MIX))
    extra = small_machine().mem.l1i.assoc + 1 - flat["cache_ways"][0]
    flat["cache_ways"][0] += extra
    flat["cache_tags"][:0] = range(10**9, 10**9 + extra)
    store.put(path.stem, len(MIX), flat)


@pytest.mark.parametrize("damage", [
    lambda p: _rewrite(p, {"schema": SCHEMA_VERSION + 1}),
    lambda p: _rewrite(p, {"repro_version": "0.0.0-stale"}),
    _misplace,
    lambda p: _rewrite(p, {"threads": len(MIX) + 1}),
    _truncate,
    _overfill,
], ids=["stale-schema", "stale-version", "wrong-key", "wrong-threads",
        "truncated", "overfull-set"])
def test_damaged_snapshot_is_rebuilt_and_overwritten(tmp_path, count_builds,
                                                     damage):
    cache_dir = tmp_path / "cache"
    first = run_point(cache_dir)
    [path] = (cache_dir / "warm").iterdir()
    want = WarmStore(path.parent).get(path.stem, len(MIX))
    assert want is not None
    def builds():  # of MIX; _misplace builds another mix
        return sum(b.startswith(f"{MIX[0]}:") for b in count_builds())

    clear_memos()
    assert run_point(cache_dir) == first
    assert builds() == 1  # loaded, not rebuilt

    damage(path)
    clear_memos()
    assert run_point(cache_dir) == first
    assert builds() == 2
    # The cold build replaced the damaged entry.
    assert WarmStore(path.parent).get(path.stem, len(MIX)) == want
    assert [p.name for p in path.parent.iterdir()] == [path.name]


def test_memo_hit_stores_nothing(tmp_path, count_builds):
    # The entry is written after a cold build only: a core that starts
    # from the memo leaves the store alone.
    traces = thread_traces(MIX, INSNS, 0, WARMUP)
    SMTProcessor(small_machine(), traces, warmup=WARMUP)
    run_point(tmp_path)
    assert len(count_builds()) == 1
    assert not (tmp_path / "warm").exists()


# ----------------------------------------------------------------------
# activation and the forked pool
# ----------------------------------------------------------------------
def test_in_process_cached_run_stores_no_snapshot(tmp_path, count_builds):
    jobs = grid_jobs()
    _, report = execute_jobs(
        jobs, ExecutorConfig(jobs=1, cache_dir=tmp_path / "cache")
    )
    assert report.simulated == len(jobs)
    assert len(count_builds()) == 3  # the memo serves every repeat
    assert not (tmp_path / "cache" / "warm").exists()


def test_cold_pool_warms_each_mix_once(tmp_path, count_builds):
    jobs = grid_jobs()
    serial, _ = execute_jobs(jobs, ExecutorConfig(jobs=1))
    clear_memos()
    serial_builds = len(count_builds())

    cache_dir = tmp_path / "cache"
    pooled, report = execute_jobs(
        jobs, ExecutorConfig(jobs=2, cache_dir=cache_dir)
    )
    assert report.simulated == len(jobs)
    assert canon(pooled) == canon(serial)
    # One cold build per mix, as in the serial run, now across the 2
    # forked workers.
    built = count_builds()[serial_builds:]
    assert len(built) == len(set(built)) == serial_builds == 3
    stored = sorted((cache_dir / "warm").iterdir())
    assert len(stored) == 3
    assert all(p.suffix == ".npz" for p in stored)

