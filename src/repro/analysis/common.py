"""Constants and CLI plumbing shared by the analysis tools.

The lint pass's vocabulary lives here: which files are the core cycle
loop, and which library entry points read wall-clock time or entropy.
So does the command-line plumbing: file discovery,
``--select``/``--ignore`` rule filtering, ``--changed-only`` discovery
of files changed against the git merge-base, and the exit-code
vocabulary that ``lint``, ``mutate`` and ``python -m repro.perf gate``
share. The module is dependency-free, so each tool imports it without
pulling in the others.
"""

from __future__ import annotations

import subprocess
import sys
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


def changed_python_files(base: str = "main") -> frozenset[Path] | None:
    """Python files changed versus ``git merge-base HEAD <base>``.

    Covers committed, staged, unstaged and untracked changes, resolved
    to absolute paths. Returns None when git is unavailable or the
    merge-base cannot be computed (not a repository, unknown ref) — the
    caller should fall back to analysing everything rather than
    silently analysing nothing.
    """
    def _git(*args: str) -> list[str] | None:
        try:
            proc = subprocess.run(
                ("git", *args), capture_output=True, text=True, check=False
            )
        except OSError:  # repro: noqa[RPR007] — no git binary; caller falls back
            return None
        if proc.returncode != 0:
            return None
        return proc.stdout.splitlines()

    top = _git("rev-parse", "--show-toplevel")
    if not top:
        return None
    root = Path(top[0])
    merge_base = _git("merge-base", "HEAD", base)
    if not merge_base:
        return None
    listed = _git("diff", "--name-only", merge_base[0], "--")
    untracked = _git("ls-files", "--others", "--exclude-standard")
    if listed is None or untracked is None:
        return None
    return frozenset(
        (root / name).resolve()
        for name in (*listed, *untracked)
        if name.endswith(".py")
    )


def restrict_to_changed(paths: list[Path],
                        base: str = "main") -> list[Path] | None:
    """Narrow command-line roots to the files changed vs the merge-base.

    Returns the changed .py files that live under (or are) one of the
    given roots — possibly an empty list, meaning "nothing to analyse" —
    or None when git state is unavailable (with a warning on stderr),
    in which case the caller should analyse the full roots.
    """
    changed = changed_python_files(base)
    if changed is None:
        print(
            "warning: --changed-only could not resolve "
            f"`git merge-base HEAD {base}`; analysing everything",
            file=sys.stderr,
        )
        return None
    out: list[Path] = []
    for root in paths:
        resolved = root.resolve()
        for path in sorted(changed):
            if path == resolved or resolved in path.parents:
                out.append(path)
    return sorted(set(out))


# ----------------------------------------------------------------------
# rule filtering (--select / --ignore)
# ----------------------------------------------------------------------
def parse_codes(text: str | None) -> frozenset[str] | None:
    """Parse a comma-separated ``--select``/``--ignore`` code list."""
    if text is None:
        return None
    codes = frozenset(
        c.strip().upper() for c in text.split(",") if c.strip()
    )
    return codes or None


def filter_by_code(violations, select: frozenset[str] | None,
                   ignore: frozenset[str] | None):
    """Apply ``--select`` (keep only) then ``--ignore`` (drop) filters.

    ``RPR000`` (file does not parse) survives ``--ignore`` — a broken
    tree must never be reported clean — but an explicit ``--select``
    that omits it is honoured.
    """
    out = violations
    if select is not None:
        out = [v for v in out if v.code in select]
    if ignore is not None:
        out = [v for v in out if v.code == "RPR000" or v.code not in ignore]
    return list(out)
