#!/usr/bin/env bash
# CI gate, in order:
#   - tier-1 tests;
#   - the end-to-end benchmark's tests at smoke scale, which check the
#     golden result digests (benchmarks/e2e);
#   - lint: ruff (when installed) and the repro.analysis pass;
#   - whole-program flow analysis (call-graph hotness, determinism
#     taint, stage contracts, worker pickle safety);
#   - a pinned 25-mutant mutation smoke;
#   - a short fully-sanitized end-to-end simulation;
#   - a 2-worker sweep smoke asserting the cold run stores one slot
#     trace per mix slot and one warm-state snapshot per mix, all as
#     uncompressed archives, and the result cache serves a warm rerun
#     in full;
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

echo "== flow: repro.analysis (whole-program rules RPR009-RPR012) =="
# Interprocedural pass: transitive hot closure, determinism taint,
# stage access contracts, worker pickle safety. Accepted findings are
# pinned in results/flow_baseline.json (picked up automatically).
python -m repro.analysis flow src/repro

echo "== mutation smoke (pinned 25-mutant sample, 2 workers) =="
# Measures the detection power of everything above: a deterministic
# sample of microarchitecture-aware mutants injected into the pipeline
# hot closure, each of which must be killed by the static → sanitizer
# → stats → tests cascade or explicitly allowlisted in
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
assert stats.sanitizer_checks > 0, "sanitizer never ran"
assert stats.committed_total > 0, "nothing committed"
print(
    f"ok: {stats.cycles} cycles, {stats.committed_total} committed, "
    f"{stats.sanitizer_checks} sanitizer checks, no violations"
)
PY

echo "== parallel sweep smoke (2 workers, then warm cache) =="
python - <<'PY'
import tempfile
import zipfile
from pathlib import Path

from repro.config.presets import small_machine
from repro.exec import ExecutorConfig
from repro.experiments.sweep import run_sweep
from repro.workloads.mixes import TWO_THREAD_MIXES

kwargs = dict(
    mixes=TWO_THREAD_MIXES[:2], base_config=small_machine(),
    schedulers=("traditional", "2op_ooo"), iq_sizes=(8, 16),
    max_insns=500, seed=0,
)
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
    assert listing(traces) == stored, "warm rerun changed the trace store"
    assert listing(snapshots) == warmed, "warm rerun changed the warm store"
assert cold.exec_report.simulated == len(cold.results), "cold run not cold"
assert warm.exec_report.simulated == 0, "warm rerun re-simulated"
assert warm.exec_report.cached == len(cold.results), "warm rerun missed cache"
assert warm.results == cold.results, "cache changed results"
print(
    f"ok: {len(cold.results)}-point grid on 2 workers stored "
    f"{len(stored)} slot traces and {len(warmed)} warm snapshots "
    f"uncompressed; warm rerun served {warm.exec_report.cached}/"
    f"{warm.exec_report.total} from cache, 0 simulations"
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
