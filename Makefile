# Developer entry points. `make ci` mirrors what ci.sh enforces.

PYTHONPATH := src
export PYTHONPATH

.PHONY: test lint mutate mutate-smoke sanitize-smoke \
	bench-sanitizer figures figures-parallel cache-clear cache-verify \
	chaos-smoke profile perf-bench \
	perf-gate ci

test:
	python -m pytest -x -q

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; skipping (pip install .[lint])"; \
	fi
	python -m repro.analysis lint src/repro benchmarks

# Full mutation run over the pipeline functions in mutate.TARGETS:
# every operator at every site, pushed through the sanitizer → stats →
# tests oracle cascade (docs/analysis.md). Slow (minutes);
# cached outcomes make re-runs cheap. Gate against
# results/mutation_baseline.json; refresh deliberately with:
#   python -m repro.analysis mutate src/repro/pipeline --update-baseline
mutate:
	python -m repro.analysis mutate src/repro/pipeline --jobs 8

# The CI slice: a pinned deterministic 25-mutant sample that must be
# 100% killed-or-allowlisted.
mutate-smoke:
	python -m repro.analysis mutate src/repro/pipeline \
		--sample 25 --seed 2006 --jobs 2 --require-all-killed

figures:
	python -m pytest benchmarks/ --benchmark-only -q

# Same figures on 4 workers with the result cache on: cold runs scale
# with cores, reruns only simulate what changed (see docs/exec.md).
figures-parallel:
	REPRO_JOBS=4 REPRO_CACHE=1 python -m pytest benchmarks/ \
		--benchmark-only -q

cache-clear:
	python -m repro.exec cache clear

cache-verify:
	python -m repro.exec cache verify

# Assert the headline robustness invariant: a sweep under injected
# worker kills/hangs and cache corruption matches the fault-free run
# byte for byte (see docs/robustness.md).
chaos-smoke:
	REPRO_CHAOS="kill=0.3,hang=0.05,corrupt=0.5,delay=0.2,dup=0.2,seed=7" \
		python -m repro.exec chaos-smoke

# cProfile hotspots + per-stage wall-clock breakdown of the cycle loop
# (docs/performance.md).
profile:
	python -m repro.perf profile

perf-bench:
	python -m repro.perf bench

# Fail when simulator throughput regresses >15% against the committed
# BENCH_sim_speed.json baseline. Refresh deliberately with:
#   python -m repro.perf bench --update-baseline
perf-gate:
	python -m repro.perf gate

sanitize-smoke:
	python -m repro.experiments.cli mix parser vortex \
		--scheduler 2op_ooo --sanitize --insns 2000

bench-sanitizer:
	python -m pytest benchmarks/bench_sanitizer_overhead.py \
		--benchmark-only -q -s

ci:
	./ci.sh
