"""Shared scaffolding for the reproduction benchmarks.

Every bench regenerates one table/figure of the paper at a reduced scale
(the paper simulates 100M instructions per thread on a compiled
simulator; this is pure Python). Scale knobs:

* ``REPRO_BENCH_INSNS``  — committed instructions per thread
  (default 8000),
* ``REPRO_BENCH_MIXES``  — mixes per workload table (default 6 of 12),
* ``REPRO_BENCH_IQS``    — comma-separated IQ sizes
  (default ``32,64,96``).

Set ``REPRO_BENCH_INSNS=20000 REPRO_BENCH_MIXES=12
REPRO_BENCH_IQS=32,48,64,96,128`` for a full-fidelity (slow) run.

Execution knobs (see ``docs/exec.md`` and ``docs/robustness.md``):

* ``REPRO_JOBS``       — worker processes per grid (default 1),
* ``REPRO_CACHE``      — ``0`` disables the content-addressed result
  cache (default on: a warm rerun of ``make figures`` performs zero
  simulation, and a rerun of an interrupted one simulates only the
  grid points it had not finished),
* ``REPRO_CACHE_DIR``  — cache root (default ``results/cache``),
* ``REPRO_JOURNAL``    — ``1`` (or a directory) journals every grid's
  job transitions to a log,
* ``REPRO_CHAOS``      — deterministic fault injection, e.g.
  ``kill=0.3,corrupt=0.5,seed=7`` (results are guaranteed unchanged),
* ``REPRO_WATCHDOG``   — hung-worker grace in seconds (``0`` disables).

Rendered outputs are written to ``results/`` next to this directory and
echoed to stdout (visible with ``pytest -s``).
"""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path

from repro.exec import ExecutorConfig

#: Instructions committed per thread in each simulation.
INSNS = int(os.environ.get("REPRO_BENCH_INSNS", "8000"))

#: Mixes taken from each of the paper's workload tables.
MIXES = int(os.environ.get("REPRO_BENCH_MIXES", "6"))

#: IQ sizes swept.
IQ_SIZES = tuple(
    int(x) for x in os.environ.get("REPRO_BENCH_IQS", "32,64,96").split(",")
)

SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: Grid-execution policy every reproduction bench routes through: all
#: ``REPRO_*`` execution knobs (workers, cache, journal, chaos,
#: watchdog), with cache and journal roots anchored under ``results/``
#: next to this directory rather than the current working directory.
EXECUTOR = ExecutorConfig.from_env(default_cache=True)
if EXECUTOR.cache_dir is not None and "REPRO_CACHE_DIR" not in os.environ:
    EXECUTOR = EXECUTOR.with_cache_dir(RESULTS_DIR / "cache")
if EXECUTOR.journal_dir is not None and os.environ.get("REPRO_JOURNAL") == "1":
    EXECUTOR = dataclasses.replace(
        EXECUTOR, journal_dir=RESULTS_DIR / "journal"
    )


def write_result(name: str, text: str) -> None:
    """Persist a rendered reproduction table and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n=== {name} ===\n{text}")


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    Reproduction benches are minutes-long simulations; statistical
    repetition belongs to the micro benches (bench_sim_speed), not here.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
