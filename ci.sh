#!/usr/bin/env bash
# CI gate, in order:
#   - tier-1 tests;
#   - the end-to-end benchmark's tests at smoke scale, which check the
#     golden result digests (benchmarks/e2e);
#   - lint: ruff (when installed) and the repro.analysis pass;
#   - a pinned 25-mutant mutation smoke;
#   - a short fully-sanitized end-to-end simulation;
#   - a 2-worker sweep smoke asserting the cold run forks exactly its
#     2 workers and stores one slot trace per mix slot and one
#     warm-state snapshot per mix, all as uncompressed archives, the
#     result cache serves a warm rerun in full with no fork, and
#     `cache stats` counts that rerun's hits;
#   - a chaos smoke asserting a fault-injected sweep (worker
#     kills/hangs, cache corruption) matches the fault-free golden run;
#   - a perf gate that fails on a >15% cycles/s regression vs
#     BENCH_sim_speed.json.
set -euo pipefail
cd "$(dirname "$0")"
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== end-to-end benchmark tests (smoke scale, golden digests) =="
# benchmarks/e2e is outside tier-1's testpaths; under 30 s.
python -m pytest benchmarks/e2e -q

echo "== lint: ruff (generic hygiene) =="
if command -v ruff >/dev/null 2>&1; then
    ruff check src tests benchmarks
else
    echo "ruff not installed; skipping (pip install .[lint])"
fi

echo "== lint: repro.analysis (simulator-specific rules) =="
python -m repro.analysis lint src/repro benchmarks

echo "== mutation smoke (pinned 25-mutant sample, 2 workers) =="
# Measures the detection power of the runtime oracles: a deterministic
# sample of microarchitecture-aware mutants injected into the pipeline
# functions that mutate.TARGETS lists, each of which must be killed by
# the sanitizer → stats → tests cascade or explicitly allowlisted in
# results/mutation_baseline.json (docs/analysis.md).
python -m repro.analysis mutate src/repro/pipeline \
    --sample 25 --seed 2006 --jobs 2 --require-all-killed

echo "== sanitized smoke simulation (2-thread mix, 5000 cycles) =="
python - <<'PY'
from repro.config.presets import paper_machine
from repro.experiments.runner import thread_traces
from repro.pipeline.smt_core import SMTProcessor

cfg = paper_machine(scheduler="2op_ooo").replace(
    sanitize=True, sanitize_interval=16
)
traces = thread_traces(["parser", "vortex"], 6000, seed=0, warmup=2000)
core = SMTProcessor(cfg, traces, warmup=2000)
stats = core.run(max_insns=6000, max_cycles=5000)
contract_checks = core.sanitizer.contract_checks
assert stats.sanitizer_checks > 0, "sanitizer never ran"
assert contract_checks > 0, "stage-contract checks never ran"
assert stats.committed_total > 0, "nothing committed"
print(
    f"ok: {stats.cycles} cycles, {stats.committed_total} committed, "
    f"{stats.sanitizer_checks} sanitizer checks, {contract_checks} "
    "stage-contract checks, no violations"
)
PY

echo "== parallel sweep smoke (2 workers, then warm cache) =="
python - <<'PY'
import os
import tempfile
import zipfile
from pathlib import Path

from repro.config.presets import small_machine
from repro.exec import ExecutorConfig, ResultCache
from repro.experiments.sweep import run_sweep
from repro.workloads.mixes import TWO_THREAD_MIXES

kwargs = dict(
    mixes=TWO_THREAD_MIXES[:2], base_config=small_machine(),
    schedulers=("traditional", "2op_ooo"), iq_sizes=(8, 16),
    max_insns=500, seed=0,
)
# Every process this one forks: the pool's workers live for the whole
# execute_jobs call, so a fault-free run forks exactly one per worker.
forks = []
os.register_at_fork(after_in_parent=lambda: forks.append(None))


def listing(root):
    return sorted(p.name for p in root.iterdir())


def compressed(root):
    """The archives under root with a member not stored uncompressed."""
    found = []
    for path in sorted(root.iterdir()):
        with zipfile.ZipFile(path) as zf:
            if any(i.compress_type != zipfile.ZIP_STORED
                   for i in zf.infolist()):
                found.append(path.name)
    return found


with tempfile.TemporaryDirectory() as cache_dir:
    traces = Path(cache_dir) / "traces"
    snapshots = Path(cache_dir) / "warm"
    ex = ExecutorConfig(jobs=2, cache_dir=cache_dir)
    cold = run_sweep(**kwargs, executor=ex)
    cold_forks = len(forks)
    # One stored trace per slot: 2 two-thread mixes x 2 slots.
    stored = listing(traces)
    assert len(stored) == 4 and all(n.endswith(".npz") for n in stored), (
        f"expected 4 stored slot traces and no temp files, got {stored}"
    )
    # One warm snapshot per mix: its schedulers and IQ sizes share it.
    warmed = listing(snapshots)
    assert len(warmed) == 2 and all(n.endswith(".npz") for n in warmed), (
        f"expected 2 warm snapshots and no temp files, got {warmed}"
    )
    # Both stores write plain np.savez archives: no zlib on the pool's
    # hot path.
    packed = compressed(traces) + compressed(snapshots)
    assert not packed, f"compressed store entries: {packed}"
    warm = run_sweep(**kwargs, executor=ex)
    warm_forks = len(forks) - cold_forks
    assert listing(traces) == stored, "warm rerun changed the trace store"
    assert listing(snapshots) == warmed, "warm rerun changed the warm store"
    # Every cached run records its counters, journal or not. Both runs
    # share one content-derived run id, so the warm run's counters
    # replace the cold run's.
    stats = ResultCache(cache_dir).stats()
    counters = (stats.runs, stats.hits, stats.misses)
    assert counters == (1, len(cold.results), 0), (
        f"cache stats (runs, hits, misses) = {counters}"
    )
assert cold_forks == 2, f"cold run forked {cold_forks} processes, not 2"
assert warm_forks == 0, f"warm rerun forked {warm_forks} processes"
assert cold.exec_report.simulated == len(cold.results), "cold run not cold"
assert warm.exec_report.simulated == 0, "warm rerun re-simulated"
assert warm.exec_report.cached == len(cold.results), "warm rerun missed cache"
assert warm.results == cold.results, "cache changed results"
print(
    f"ok: {len(cold.results)}-point grid on {cold_forks} forked workers "
    f"stored {len(stored)} slot traces and {len(warmed)} warm snapshots "
    f"uncompressed; warm rerun forked none and served "
    f"{warm.exec_report.cached}/"
    f"{warm.exec_report.total} from cache, 0 simulations; cache stats "
    f"counted {stats.hits} hits over {stats.runs} run"
)
PY

echo "== chaos smoke (worker kills + hangs + cache corruption) =="
# Deterministic fault injection: the chaotic run must finish and be
# byte-identical to the fault-free golden run (docs/robustness.md).
REPRO_CHAOS="kill=0.3,hang=0.05,corrupt=0.5,delay=0.2,dup=0.2,seed=7" \
    python -m repro.exec chaos-smoke

echo "== perf gate (cycles/s vs BENCH_sim_speed.json) =="
# Fails on a >15% throughput regression against the committed baseline
# (docs/performance.md). Refresh deliberately with:
#   python -m repro.perf bench --update-baseline
python -m repro.perf gate

echo "CI OK"
