"""Constants and CLI plumbing shared by the analysis tools.

The lint pass's vocabulary lives here: which files are the core cycle
loop, and which library entry points read wall-clock time or entropy.
So do file discovery and the exit-code vocabulary that ``lint``,
``mutate`` and ``python -m repro.perf gate`` share. The module is
dependency-free, so each tool imports it without pulling in the others.
"""

from __future__ import annotations

from pathlib import Path

#: Exit-code vocabulary shared by every baseline-gated CLI
#: (``lint``/``mutate``/``perf gate``): 0 clean, 1 regression
#: (new findings / surviving mutants / slower than the blessed number),
#: 2 usage error, 3 *stale baseline* (the committed baseline records
#: findings that no longer occur — refresh it with the printed
#: ``--update-baseline`` command).
EXIT_CLEAN = 0
EXIT_REGRESSION = 1
EXIT_USAGE = 2
EXIT_STALE_BASELINE = 3

#: Files (path suffixes) that *are* the core cycle loop. RPR004 allows
#: cross-thread state mutation only here. ``fastforward.py`` bulk-mutates
#: thread state (watchdog countdowns, stall attribution) while skipping
#: idle spans, so it is part of the loop by construction.
CYCLE_LOOP_FILES: tuple[str, ...] = (
    "pipeline/smt_core.py",
    "pipeline/fastforward.py",
)

#: Wall-clock entry points flagged by RPR001 when called.
WALLCLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.clock_gettime", "time.clock_gettime_ns",
    "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
})

#: Entropy entry points: never deterministic, not even with a seed.
ENTROPY_CALLS = frozenset({
    "os.urandom", "uuid.uuid4",
})


# ----------------------------------------------------------------------
# file discovery
# ----------------------------------------------------------------------
def iter_python_files(root: Path):
    """Yield the .py files under ``root`` (or ``root`` itself), sorted."""
    if root.is_file():
        yield root
        return
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" not in path.parts:
            yield path
