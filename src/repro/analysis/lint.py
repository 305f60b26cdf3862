"""Custom AST lint pass with simulator-specific rules.

The generic Python linters cannot know that this codebase is a
*deterministic* cycle-level simulator whose statistics feed paper
figures. This pass encodes those domain rules:

========  ==============================================================
code      rule
========  ==============================================================
RPR001    no wall-clock or ``random``-module calls in simulation code —
          all randomness must derive from :mod:`repro.util.rng` so a
          (seed, config, workload) triple replays bit-identically
RPR002    no mutable default arguments (shared state across calls is a
          classic source of cross-run nondeterminism)
RPR003    every ``stats.<name>`` counter incremented or assigned must be
          declared on :class:`repro.pipeline.stats.PipelineStats` —
          undeclared counters silently vanish from reports
RPR004    no cross-thread state mutation (``<x>.threads[i].attr = ...``)
          outside the core cycle loop (``pipeline/smt_core.py``) — SMT
          stages must go through the per-thread ``ThreadState`` handed
          to them, or thread isolation silently breaks
RPR005    no floating-point accumulation into cycle/IPC counters —
          cycle counts are exact integers; float drift would corrupt
          every derived IPC figure
RPR006    benchmarks must route simulation through the
          :mod:`repro.exec` executor — direct ``SMTProcessor`` /
          ``simulate_mix`` calls inside ``benchmarks/`` bypass the
          worker pool and the result cache, silently serialising the
          grid and recomputing cached points (micro-benches that time
          the simulator core itself suppress this deliberately)
RPR007    no silently-swallowed exceptions — an ``except`` body that
          neither raises, calls anything, nor records state hides
          faults the chaos suite is designed to surface; the few
          deliberate swallows (absent cache entry, heartbeat pipe
          closed by a dead parent) carry a noqa explaining why
RPR008    no list/dict/set allocation in a function marked
          ``# repro: hot`` — those run every simulated cycle, where
          CPython allocation and call overhead dominate throughput
          (docs/performance.md); the deliberate ones (rare-path or
          amortised buffers, event-bucket creation) carry a noqa
          explaining why
========  ==============================================================

A violation on line ``L`` is suppressed by a trailing
``# repro: noqa[CODE]`` (or ``# repro: noqa[CODE1,CODE2]``) comment on
that line; a bare ``# repro: noqa`` suppresses every rule on the line.
``RPR000`` reports files that fail to parse and cannot be suppressed.

The whole-program rules RPR009-RPR012 live in
:mod:`repro.analysis.flow` and run as the ``flow`` subcommand.

Usage::

    python -m repro.analysis lint src/repro           # human output
    python -m repro.analysis lint src/repro --json    # machine output
    python -m repro.analysis flow src/repro           # whole-program

Exit status is 0 when clean and 1 when any violation is reported.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.analysis.common import (
    CYCLE_LOOP_FILES,
    ENTROPY_CALLS,
    EXIT_CLEAN,
    EXIT_REGRESSION,
    EXIT_USAGE,
    WALLCLOCK_CALLS,
    filter_by_code,
    iter_python_files,
    parse_codes,
    restrict_to_changed,
)
from repro.util.encoding import stable_dumps

__all__ = [
    "LINT_RULES", "Violation", "lint_source", "lint_paths",
    "iter_python_files", "main",
]

#: code -> one-line description (kept in sync with docs/analysis.md).
LINT_RULES: dict[str, str] = {
    "RPR000": "file does not parse (reported, never suppressed)",
    "RPR001": "wall-clock/random call outside repro.util.rng",
    "RPR002": "mutable default argument",
    "RPR003": "undeclared PipelineStats counter",
    "RPR004": "cross-thread state mutation outside the core cycle loop",
    "RPR005": "floating-point accumulation into a cycle/ipc counter",
    "RPR006": "direct simulator call in benchmarks/ bypassing repro.exec",
    "RPR007": "except block silently swallows the exception",
    "RPR008": "container allocation in a `# repro: hot` function",
}

#: Files (path suffixes) allowed to call numpy's RNG machinery directly.
_RNG_EXEMPT = ("util/rng.py",)

#: Simulation entry points RPR006 flags when called from benchmarks/;
#: grids there must go through ``repro.exec.execute_jobs`` (or a driver
#: such as ``run_sweep`` that routes through it).
_DIRECT_SIM_CALLS = frozenset({
    "SMTProcessor", "simulate_mix", "simulate_mix_with_fairness",
    "simulate_benchmark",
})

#: Wall-clock / entropy entry points flagged by RPR001 when called
#: (shared with the RPR010 taint pass; see repro.analysis.common).
_WALLCLOCK_CALLS = WALLCLOCK_CALLS
_ENTROPY_CALLS = ENTROPY_CALLS

#: Constructors of mutable objects flagged by RPR002 as defaults.
_MUTABLE_CTORS = frozenset({
    "list", "dict", "set", "bytearray", "deque", "defaultdict", "Counter",
    "OrderedDict", "collections.deque", "collections.defaultdict",
    "collections.Counter", "collections.OrderedDict",
})

#: Counter names RPR005 protects (exact token match within the name).
_CYCLE_COUNTER_RE = re.compile(r"(?:^|_)(?:cycles?|ipc)(?:_|$)")

#: Constructor calls RPR008 flags inside hot functions (the mutable
#: containers plus ``sorted``, which materialises a fresh list).
_HOT_ALLOC_CALLS = _MUTABLE_CTORS | {"sorted"}

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[([A-Za-z0-9_,\s]+)\])?")

#: Marker declaring a function per-cycle hot (RPR008 scope).
_HOT_RE = re.compile(r"#\s*repro:\s*hot\b")


@dataclass(frozen=True)
class Violation:
    """One lint finding, pointing at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def as_dict(self) -> dict[str, object]:
        return asdict(self)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _dotted(node: ast.AST) -> str | None:
    """Render an ``a.b.c`` attribute chain, or None for non-name bases."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _hot_lines(source: str) -> frozenset[int]:
    """Line numbers carrying a ``# repro: hot`` marker."""
    return frozenset(
        lineno
        for lineno, text in enumerate(source.splitlines(), start=1)
        if _HOT_RE.search(text)
    )


def _noqa_map(source: str) -> dict[int, frozenset[str] | None]:
    """Line -> suppressed codes (None means "all codes")."""
    out: dict[int, frozenset[str] | None] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        m = _NOQA_RE.search(text)
        if not m:
            continue
        if m.group(1) is None:
            out[lineno] = None
        else:
            out[lineno] = frozenset(
                c.strip().upper() for c in m.group(1).split(",") if c.strip()
            )
    return out


def is_hot_def(node: ast.FunctionDef | ast.AsyncFunctionDef,
               hot_lines: frozenset[int]) -> bool:
    """Whether any signature line of ``node`` carries ``# repro: hot``.

    The marker trails the ``def`` line or, for wrapped signatures, the
    closing line of the argument list — both sit strictly before the
    first body statement. Shared with the flow pass, which seeds its
    transitive hot closure (RPR009) from the same marker.
    """
    if not hot_lines:
        return False
    sig_end = node.body[0].lineno if node.body else node.lineno + 1
    sig_end = max(sig_end, node.lineno + 1)
    return any(line in hot_lines for line in range(node.lineno, sig_end))


def iter_container_allocations(node: ast.FunctionDef | ast.AsyncFunctionDef):
    """Yield ``(ast_node, kind)`` for each container allocation in the
    body of ``node`` — the RPR008 vocabulary, shared with RPR009's scan
    of hot-closure callees."""
    for stmt in node.body:
        for sub in ast.walk(stmt):
            kind = None
            if isinstance(sub, ast.List):
                kind = "list display"
            elif isinstance(sub, ast.Dict):
                kind = "dict display"
            elif isinstance(sub, ast.Set):
                kind = "set display"
            elif isinstance(sub, (ast.ListComp, ast.SetComp, ast.DictComp)):
                kind = "comprehension"
            elif isinstance(sub, ast.GeneratorExp):
                kind = "generator expression"
            elif isinstance(sub, ast.Call):
                ctor = _dotted(sub.func)
                if ctor in _HOT_ALLOC_CALLS:
                    kind = f"{ctor}() call"
            if kind is not None:
                yield sub, kind


def _is_float_producing(node: ast.AST) -> bool:
    """Whether evaluating ``node`` plausibly yields a float (RPR005)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, float):
            return True
        if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Div):
            return True
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "float"
        ):
            return True
    return False


def _thread_subscript_base(node: ast.AST) -> bool:
    """Whether an assignment target reaches through ``<x>.threads[i]``."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Subscript):
            base = _dotted(node.value)
            if base is not None and (
                base == "threads" or base.endswith(".threads")
            ):
                return True
        node = node.value
    return False


def _target_counter_name(node: ast.AST) -> str | None:
    """Name of the variable/attribute an (aug)assignment targets."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _handler_swallows(body: list[ast.stmt]) -> bool:
    """Whether an except body discards the exception without acting on it.

    A body "acts" as soon as it raises, calls anything, binds or mutates
    state, or branches — any of those can observe/record the fault. What
    remains is the inert vocabulary: ``pass``/``continue``/``break``,
    bare constant expressions (docstrings, ``...``), and ``return`` of a
    constant (RPR007).
    """
    for stmt in body:
        if isinstance(stmt, (ast.Pass, ast.Continue, ast.Break)):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue
        if isinstance(stmt, ast.Return) and (
            stmt.value is None or isinstance(stmt.value, ast.Constant)
        ):
            continue
        return False
    return True


def _stats_attr(node: ast.AST) -> str | None:
    """Counter name when ``node`` targets ``<...>stats.<name>`` (RPR003)."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if not isinstance(node, ast.Attribute):
        return None
    base = _dotted(node.value)
    if base is None:
        return None
    last = base.rsplit(".", 1)[-1]
    return node.attr if last == "stats" else None


def discover_declared_counters(roots: list[Path]) -> frozenset[str] | None:
    """Parse ``pipeline/stats.py`` under any root for PipelineStats fields.

    Returns None when no stats module is found (RPR003 is then skipped —
    e.g. when linting a fixture directory).
    """
    for root in roots:
        candidates: list[Path] = []
        if root.is_dir():
            candidates = sorted(root.glob("**/pipeline/stats.py"))
        elif root.name == "stats.py":
            candidates = [root]
        for candidate in candidates:
            declared = _declared_counters_from_source(
                candidate.read_text(encoding="utf-8")
            )
            if declared is not None:
                return declared
    return None


def _declared_counters_from_source(source: str) -> frozenset[str] | None:
    try:
        tree = ast.parse(source)
    except SyntaxError:  # repro: noqa[RPR007] — RPR000 reports it instead
        return None
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "PipelineStats":
            names: set[str] = set()
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    names.add(stmt.target.id)
                elif isinstance(stmt, ast.Assign):
                    for tgt in stmt.targets:
                        if isinstance(tgt, ast.Name):
                            names.add(tgt.id)
            return frozenset(names)
    return None


# ----------------------------------------------------------------------
# the per-file visitor
# ----------------------------------------------------------------------
class _FileLinter(ast.NodeVisitor):
    """Collects violations of RPR001-RPR005 for one parsed module."""

    def __init__(self, rel_path: str,
                 declared_counters: frozenset[str] | None,
                 hot_lines: frozenset[int] = frozenset()) -> None:
        self.rel_path = rel_path
        self.declared_counters = declared_counters
        self.hot_lines = hot_lines
        self.violations: list[Violation] = []
        norm = rel_path.replace("\\", "/")
        self._rng_exempt = norm.endswith(_RNG_EXEMPT)
        self._in_cycle_loop = norm.endswith(CYCLE_LOOP_FILES)
        self._in_benchmarks = "benchmarks" in norm.split("/")[:-1]

    # -- plumbing -------------------------------------------------------
    def _flag(self, node: ast.AST, code: str, message: str) -> None:
        self.violations.append(Violation(
            path=self.rel_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=code,
            message=message,
        ))

    # -- RPR001: determinism --------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        if not self._rng_exempt:
            for alias in node.names:
                top = alias.name.split(".", 1)[0]
                if top in ("random", "time"):
                    self._flag(
                        node, "RPR001",
                        f"import of {alias.name!r} in simulation code; "
                        "derive randomness/timing from repro.util.rng",
                    )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if not self._rng_exempt and node.module is not None:
            top = node.module.split(".", 1)[0]
            if top in ("random", "time"):
                self._flag(
                    node, "RPR001",
                    f"import from {node.module!r} in simulation code; "
                    "derive randomness/timing from repro.util.rng",
                )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if not self._rng_exempt:
            dotted = _dotted(node.func)
            if dotted is not None:
                if dotted.startswith("random.") or ".random." in dotted:
                    self._flag(
                        node, "RPR001",
                        f"call to {dotted}() bypasses the seeded "
                        "repro.util.rng derivation",
                    )
                elif dotted in _WALLCLOCK_CALLS:
                    self._flag(
                        node, "RPR001",
                        f"wall-clock call {dotted}() makes simulation "
                        "output time-dependent",
                    )
                elif dotted in _ENTROPY_CALLS:
                    self._flag(
                        node, "RPR001",
                        f"entropy call {dotted}() is nondeterministic "
                        "even under a fixed seed; derive randomness "
                        "from repro.util.rng",
                    )
        if self._in_benchmarks:
            dotted = _dotted(node.func)
            if (
                dotted is not None
                and dotted.rsplit(".", 1)[-1] in _DIRECT_SIM_CALLS
            ):
                self._flag(
                    node, "RPR006",
                    f"direct {dotted}() call in benchmarks/ bypasses the "
                    "repro.exec executor (worker pool + result cache); "
                    "route the grid through execute_jobs/run_sweep",
                )
        self.generic_visit(node)

    # -- RPR002: mutable defaults ---------------------------------------
    def _check_defaults(self, node: ast.FunctionDef | ast.AsyncFunctionDef,
                        ) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set))
            if not mutable and isinstance(default, ast.Call):
                ctor = _dotted(default.func)
                mutable = ctor in _MUTABLE_CTORS
            if mutable:
                self._flag(
                    default, "RPR002",
                    f"mutable default argument in {node.name}(); "
                    "use None and construct inside the body",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self._check_hot_allocations(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self._check_hot_allocations(node)
        self.generic_visit(node)

    # -- RPR008: per-cycle allocations in hot functions ------------------
    def _check_hot_allocations(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> None:
        if not is_hot_def(node, self.hot_lines):
            return
        for sub, kind in iter_container_allocations(node):
            self._flag(
                sub, "RPR008",
                f"{kind} in hot function {node.name}() allocates "
                "every simulated cycle; hoist it off the per-cycle "
                "path, or mark a deliberate rare-path/amortised "
                "allocation with '# repro: noqa[RPR008] — why'",
            )

    # -- RPR003/004/005: assignments ------------------------------------
    def _check_assign_target(self, node: ast.AST, target: ast.AST,
                             value: ast.AST | None, augmented: bool) -> None:
        counter = _stats_attr(target)
        if (
            counter is not None
            and self.declared_counters is not None
            and counter not in self.declared_counters
        ):
            self._flag(
                node, "RPR003",
                f"stats counter {counter!r} is not declared on "
                "PipelineStats; add the field or fix the typo",
            )
        if not self._in_cycle_loop and _thread_subscript_base(target):
            self._flag(
                node, "RPR004",
                "cross-thread state mutation outside the core cycle "
                "loop; operate on the ThreadState passed to this stage",
            )
        if augmented and value is not None:
            name = _target_counter_name(target)
            if (
                name is not None
                and _CYCLE_COUNTER_RE.search(name)
                and _is_float_producing(value)
            ):
                self._flag(
                    node, "RPR005",
                    f"floating-point accumulation into counter {name!r}; "
                    "cycle/ipc counters must stay exact integers",
                )

    # -- RPR007: swallowed exceptions -----------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if _handler_swallows(node.body):
            caught = _dotted(node.type) if node.type is not None else None
            if caught is None and isinstance(node.type, ast.Tuple):
                names = [_dotted(e) for e in node.type.elts]
                if all(n is not None for n in names):
                    caught = "(" + ", ".join(names) + ")"
            what = f"except {caught}" if caught else "bare except"
            self._flag(
                node, "RPR007",
                f"{what} swallows the exception without raising, "
                "logging or recording anything; handle it, or mark a "
                "deliberate swallow with '# repro: noqa[RPR007] — why'",
            )
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_assign_target(node, target, None, augmented=False)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_assign_target(
            node, node.target, node.value,
            augmented=isinstance(node.op, (ast.Add, ast.Sub)),
        )
        self.generic_visit(node)


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def lint_source(source: str, path: str = "<string>",
                declared_counters: frozenset[str] | None = None,
                ) -> list[Violation]:
    """Lint one module's source text; returns unsuppressed violations."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [Violation(
            path=path, line=exc.lineno or 1, col=exc.offset or 0,
            code="RPR000", message=f"syntax error: {exc.msg}",
        )]
    linter = _FileLinter(path, declared_counters, _hot_lines(source))
    linter.visit(tree)
    noqa = _noqa_map(source)
    out = []
    for v in linter.violations:
        codes = noqa.get(v.line, frozenset())
        if codes is None or v.code in codes:
            continue
        out.append(v)
    out.sort(key=lambda v: (v.line, v.col, v.code))
    return out


def lint_paths(paths: list[Path],
               declared_counters: frozenset[str] | None = None,
               ) -> list[Violation]:
    """Lint every Python file under the given files/directories."""
    if declared_counters is None:
        declared_counters = discover_declared_counters(paths)
    violations: list[Violation] = []
    for root in paths:
        for path in iter_python_files(root):
            violations.extend(lint_source(
                path.read_text(encoding="utf-8"),
                path=str(path),
                declared_counters=declared_counters,
            ))
    return violations


def _add_shared_flags(p: argparse.ArgumentParser) -> None:
    """Flags common to the lint and flow CLIs (see docs/analysis.md)."""
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="emit machine-readable JSON on stdout")
    p.add_argument("--select", default=None, metavar="CODES",
                   help="comma-separated rule codes to report "
                        "(e.g. RPR001,RPR007); default: all")
    p.add_argument("--ignore", default=None, metavar="CODES",
                   help="comma-separated rule codes to suppress")
    p.add_argument("--changed-only", action="store_true",
                   help="only analyse files changed vs "
                        "`git merge-base HEAD <base>`")
    p.add_argument("--base", default="main", metavar="REF",
                   help="base ref for --changed-only (default: main)")


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.analysis`` entry point; returns the exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="simulator-specific static analysis (see docs/analysis.md)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("lint", help="run the per-file AST lint pass")
    p.add_argument("paths", nargs="+", type=Path,
                   help="files or directories to lint")
    _add_shared_flags(p)
    f = sub.add_parser(
        "flow", help="run the whole-program flow pass (RPR009-RPR012)"
    )
    f.add_argument("paths", nargs="+", type=Path,
                   help="package roots to analyse (e.g. src/repro)")
    _add_shared_flags(f)
    f.add_argument("--baseline", type=Path, default=None,
                   help="suppress findings recorded in this baseline "
                        "file (default: results/flow_baseline.json at "
                        "the repository root, when present)")
    f.add_argument("--no-baseline", action="store_true",
                   help="ignore any baseline, report everything")
    f.add_argument("--update-baseline", action="store_true",
                   help="rewrite the baseline file with the current "
                        "findings and exit 0")
    m = sub.add_parser(
        "mutate",
        help="mutation analysis: measure oracle detection power",
    )
    from repro.analysis.mutate import add_mutate_args

    add_mutate_args(m)
    args = parser.parse_args(argv)

    for path in args.paths:
        if not path.exists():
            print(f"error: no such path: {path}", file=sys.stderr)
            return EXIT_USAGE
    if args.command == "flow":
        # Imported here: the flow engine is heavier than the per-file
        # pass and `lint` invocations shouldn't pay for it.
        from repro.analysis.flow import run_flow_cli

        return run_flow_cli(args)
    if args.command == "mutate":
        from repro.analysis.mutate import run_mutate_cli

        return run_mutate_cli(args)
    paths = list(args.paths)
    # RPR003 needs the PipelineStats declarations even when the change
    # set does not include pipeline/stats.py itself.
    declared = discover_declared_counters(paths)
    if args.changed_only:
        narrowed = restrict_to_changed(paths, args.base)
        if narrowed is not None:
            paths = narrowed
    violations = filter_by_code(
        lint_paths(paths, declared_counters=declared) if paths else [],
        parse_codes(args.select), parse_codes(args.ignore),
    )
    if args.as_json:
        sys.stdout.write(stable_dumps(
            {
                "violations": [v.as_dict() for v in violations],
                "count": len(violations),
                "rules": LINT_RULES,
            },
        ))
    else:
        for v in violations:
            print(v.render())
        if violations:
            print(f"{len(violations)} violation(s) found")
    return EXIT_REGRESSION if violations else EXIT_CLEAN


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
