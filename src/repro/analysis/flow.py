"""Whole-program flow analysis: rules RPR009-RPR012.

The per-file lint pass (:mod:`repro.analysis.lint`) cannot see
properties that only emerge *across* modules: a helper called from a
``# repro: hot`` loop that allocates on every cycle, a wall-clock read
laundered through two layers of utility functions into simulation
code, or a pipeline stage quietly touching architectural state it does
not own. This module parses every module under the given roots once,
builds a project-wide symbol table and call graph — resolving imports,
methods by class-attribute lookup (a name-based CHA), local aliases of
bound methods (``fetch_thread = self._fetch_thread``) and the
instance-attribute callables the perf layer wraps
(``self._fetch_cycle = self.fetch_unit.fetch_cycle``) — and runs four
interprocedural rules on top of it:

========  ==============================================================
code      rule
========  ==============================================================
RPR009    transitive hot closure — every function reachable from a
          ``# repro: hot`` site inherits hotness, so per-cycle
          container allocations hiding in callees are flagged (the
          RPR008 vocabulary, applied across call edges). A
          ``# repro: noqa[RPR009]`` on a *call* line prunes that edge
          from the closure (e.g. the interval-amortised sanitizer
          check); on an *allocation* line it suppresses the finding
RPR010    determinism taint — wall-clock/entropy/unseeded-RNG sources
          (``time.*``, ``os.urandom``, ``uuid.uuid4``, bare
          ``random``) propagate callee-to-caller through the call
          graph; flagged at every call edge where simulation code
          (the ``repro`` sub-packages in ``common.SIM_PACKAGES``)
          reaches a tainted helper outside it. A deliberate
          wall-clock site blessed with ``noqa[RPR001]`` still seeds
          taint — laundering through a helper is exactly what this
          rule exists to catch; only ``noqa[RPR010]`` on the source
          line kills the seed
RPR011    stage access contracts — each ``@stage_contract`` declared
          in :mod:`repro.analysis.contracts` is verified statically:
          every attribute access in the stage's transitive call
          closure must resolve to a declared resource (writes within
          ``writes``, reads within ``reads | writes``). The runtime
          sanitizer enforces the *same* declarations dynamically
RPR012    fork/pickle safety — arguments shipped to ``repro.exec``
          workers (``SimJob(...)`` payloads, ``execute_jobs`` calls)
          must not contain lambdas, functions nested inside another
          function, or handle-holding objects (open files, locks,
          sockets, subprocesses): they either fail to pickle or
          silently duplicate OS state across ``fork()``
========  ==============================================================

Usage::

    python -m repro.analysis flow src/repro
    python -m repro.analysis flow src/repro --json
    python -m repro.analysis flow src/repro --baseline results/flow_baseline.json
    python -m repro.analysis flow src/repro --update-baseline

Suppression is the lint pass's ``# repro: noqa[CODE]`` comment, at the
lines described above. Deliberate findings that predate the rule can
instead live in ``results/flow_baseline.json`` (written byte-stably by
``--update-baseline``); the CLI applies the committed baseline by
default so gradual adoption never blocks CI.
"""

from __future__ import annotations

import ast
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.common import (
    CYCLE_LOOP_FILES,
    EXIT_CLEAN,
    EXIT_REGRESSION,
    EXIT_STALE_BASELINE,
    EXIT_USAGE,
    SIM_PACKAGES,
    TAINT_SOURCE_CALLS,
    filter_by_code,
    iter_python_files,
    parse_codes,
    restrict_to_changed,
)
from repro.analysis.contracts import (
    ANCHOR_ATTRS,
    CLASS_RESOURCES,
    MUTATOR_METHODS,
    RESOURCES,
    TERMINAL_RESOURCES,
)
from repro.analysis.lint import (
    Violation,
    _dotted,
    _hot_lines,
    _noqa_map,
    is_hot_def,
    iter_container_allocations,
)
from repro.util.encoding import stable_dumps

#: code -> one-line description (kept in sync with docs/analysis.md).
FLOW_RULES: dict[str, str] = {
    "RPR009": "per-cycle allocation in the transitive hot closure",
    "RPR010": "wall-clock/entropy taint reaches simulation code",
    "RPR011": "pipeline stage touches state outside its @stage_contract",
    "RPR012": "unpicklable/fork-unsafe payload shipped to exec workers",
}

#: Call targets whose arguments cross the worker fork/pickle boundary.
_SHIP_CALLS = frozenset({"SimJob", "execute_jobs"})

#: Constructors of objects that hold OS handles (RPR012).
_HANDLE_CTORS = frozenset({
    "open", "socket.socket", "threading.Lock", "threading.RLock",
    "threading.Event", "threading.Condition", "threading.Semaphore",
    "sqlite3.connect", "subprocess.Popen",
})

#: Depth bound for alias-chain expansion (cycles are also guarded by a
#: visited set; the bound caps pathological chains).
_ALIAS_DEPTH = 8

#: Stdlib container vocabulary. Name-based CHA is too eager for these:
#: ``stores.get(addr)`` on a plain dict must not resolve to
#: ``ResultCache.get``. A generic-named call only reaches a project
#: method when the receiver's resource matches the candidate class's
#: resource (see :meth:`_FuncScanner._cha_edges`).
_GENERIC_METHODS = frozenset({
    "append", "appendleft", "extend", "insert", "pop", "popleft",
    "remove", "clear", "add", "discard", "update", "setdefault",
    "sort", "reverse", "get", "keys", "values", "items", "copy",
})


# ----------------------------------------------------------------------
# symbol table
# ----------------------------------------------------------------------
@dataclass
class FuncInfo:
    """One function or method in the analysed tree."""

    uid: str            # "<rel path>:<qualname>"
    rel: str            # path relative to its root (posix)
    path: str           # path as given on the command line
    module: "ModuleInfo"
    name: str
    qual: str           # Class.method / func / outer.<locals>.inner
    cls: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef
    hot: bool
    nested: dict[str, "FuncInfo"] = field(default_factory=dict)
    enclosing: "FuncInfo | None" = None  # the def this one is nested in
    # filled by the scan pass:
    edges: list[tuple["FuncInfo", int]] = field(default_factory=list)
    accesses: list[tuple[str, bool, int, int]] = field(
        default_factory=list
    )  # (resource, is_write, line, col)
    taint_seeds: list[tuple[str, int]] = field(default_factory=list)
    contract: tuple[str, frozenset[str], frozenset[str]] | None = None


@dataclass
class ModuleInfo:
    """One parsed module."""

    path: str
    rel: str
    dotted: str
    tree: ast.Module
    noqa: dict[int, frozenset[str] | None]
    hot_lines: frozenset[int]
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FuncInfo] = field(default_factory=dict)
    classes: dict[str, dict[str, FuncInfo]] = field(default_factory=dict)
    class_attr_aliases: dict[str, dict[str, list[ast.expr]]] = field(
        default_factory=dict
    )

    @property
    def is_sim(self) -> bool:
        parts = self.rel.split("/")
        return (
            any(p in SIM_PACKAGES for p in parts[:-1])
            or self.rel.endswith(CYCLE_LOOP_FILES)
        )


class Project:
    """The whole-program symbol table and call graph."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}        # rel -> module
        self.by_dotted: dict[str, ModuleInfo] = {}
        self.methods_by_name: dict[str, list[FuncInfo]] = {}
        self.funcs: dict[str, FuncInfo] = {}
        self.parse_errors: list[Violation] = []

    # -- construction ---------------------------------------------------
    def add_source(self, source: str, path: str, rel: str,
                   dotted: str) -> None:
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            self.parse_errors.append(Violation(
                path=path, line=exc.lineno or 1, col=exc.offset or 0,
                code="RPR000", message=f"syntax error: {exc.msg}",
            ))
            return
        mod = ModuleInfo(
            path=path, rel=rel, dotted=dotted, tree=tree,
            noqa=_noqa_map(source), hot_lines=_hot_lines(source),
        )
        self.modules[rel] = mod
        self.by_dotted[dotted] = mod
        self._collect_imports(mod)
        self._collect_defs(mod)

    def _collect_imports(self, mod: ModuleInfo) -> None:
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        mod.imports[alias.asname] = alias.name
                    else:
                        top = alias.name.split(".", 1)[0]
                        mod.imports[top] = top
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    pkg = mod.dotted.split(".")
                    pkg = pkg[:len(pkg) - node.level]
                    base = ".".join(pkg + ([base] if base else []))
                for alias in node.names:
                    local = alias.asname or alias.name
                    mod.imports[local] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )

    def _collect_defs(self, mod: ModuleInfo) -> None:
        def add_func(node, cls: str | None, qual: str,
                     owner: FuncInfo | None) -> FuncInfo:
            info = FuncInfo(
                uid=f"{mod.rel}:{qual}", rel=mod.rel, path=mod.path,
                module=mod, name=node.name, qual=qual, cls=cls,
                node=node, hot=is_hot_def(node, mod.hot_lines),
                enclosing=owner,
            )
            info.contract = _contract_from_decorators(node)
            self.funcs[info.uid] = info
            mod.functions[qual] = info
            if cls is not None and owner is None:
                self.methods_by_name.setdefault(node.name, []).append(info)
                mod.classes[cls][node.name] = info
            if owner is not None:
                owner.nested[node.name] = info
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    add_func(stmt, cls, f"{qual}.<locals>.{stmt.name}",
                             info)
            return info

        for stmt in mod.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                add_func(stmt, None, stmt.name, None)
            elif isinstance(stmt, ast.ClassDef):
                mod.classes[stmt.name] = {}
                aliases = mod.class_attr_aliases.setdefault(stmt.name, {})
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                        add_func(sub, stmt.name,
                                 f"{stmt.name}.{sub.name}", None)
                # self.<attr> = <expr> assignments anywhere in the class
                # body: the instance-attribute callables (fetch policy,
                # cached stage methods) resolve through these.
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.Assign):
                        targets, value = sub.targets, sub.value
                    elif (isinstance(sub, ast.AnnAssign)
                            and sub.value is not None):
                        targets, value = [sub.target], sub.value
                    else:
                        continue
                    for tgt in targets:
                        if (
                            isinstance(tgt, ast.Attribute)
                            and isinstance(tgt.value, ast.Name)
                            and tgt.value.id == "self"
                        ):
                            aliases.setdefault(tgt.attr, []).append(
                                value
                            )

    # -- lookups --------------------------------------------------------
    def resolve_module(self, dotted: str) -> ModuleInfo | None:
        mod = self.by_dotted.get(dotted)
        if mod is not None:
            return mod
        suffix = "." + dotted
        for name in sorted(self.by_dotted):
            if name.endswith(suffix):
                return self.by_dotted[name]
        return None

    def resolve_symbol(self, origin: str) -> FuncInfo | None:
        """Resolve a dotted import origin to a project function.

        ``pkg.mod.func`` hits the module-level function; ``pkg.mod.Cls``
        hits ``Cls.__init__`` when defined (class instantiation).
        """
        if "." not in origin:
            return None
        mod_name, sym = origin.rsplit(".", 1)
        mod = self.resolve_module(mod_name)
        if mod is None:
            return None
        fn = mod.functions.get(sym)
        if fn is not None:
            return fn
        methods = mod.classes.get(sym)
        if methods is not None:
            return methods.get("__init__")
        return None

    def cha(self, method: str) -> list[FuncInfo]:
        """All project methods with this name (name-based CHA)."""
        return self.methods_by_name.get(method, [])


def _contract_from_decorators(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> tuple[str, frozenset[str], frozenset[str]] | None:
    """Statically read a ``@stage_contract(...)`` decorator."""
    for dec in node.decorator_list:
        if not isinstance(dec, ast.Call):
            continue
        name = _dotted(dec.func) or ""
        if name.rsplit(".", 1)[-1] != "stage_contract":
            continue
        if not dec.args or not isinstance(dec.args[0], ast.Constant):
            continue
        stage = str(dec.args[0].value)
        reads: frozenset[str] = frozenset()
        writes: frozenset[str] = frozenset()
        for kw in dec.keywords:
            if not isinstance(kw.value, (ast.Tuple, ast.List, ast.Set)):
                continue
            names = frozenset(
                str(e.value) for e in kw.value.elts
                if isinstance(e, ast.Constant)
            )
            if kw.arg == "reads":
                reads = names
            elif kw.arg == "writes":
                writes = names
        return stage, reads, writes
    return None


# ----------------------------------------------------------------------
# per-function scanning: aliases, accesses, call edges, taint seeds
# ----------------------------------------------------------------------
def _collect_aliases(fn: FuncInfo) -> dict[str, list[ast.expr]]:
    """Local name -> candidate defining expressions (flow-insensitive)."""
    aliases: dict[str, list[ast.expr]] = {}
    for stmt in ast.walk(fn.node):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if stmt is not fn.node:
                continue
        if isinstance(stmt, ast.Assign):
            if len(stmt.targets) == 1 and isinstance(stmt.targets[0],
                                                     ast.Name):
                aliases.setdefault(stmt.targets[0].id, []).append(
                    stmt.value
                )
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name) and stmt.value is not None:
                aliases.setdefault(stmt.target.id, []).append(stmt.value)
        elif isinstance(stmt, ast.For):
            if isinstance(stmt.target, ast.Name):
                # The loop variable belongs to the iterated container's
                # resource (an element of it).
                aliases.setdefault(stmt.target.id, []).append(stmt.iter)
    return aliases


class _Chainer:
    """Expands expressions into attribute chains through local aliases."""

    def __init__(self, aliases: dict[str, list[ast.expr]]) -> None:
        self.aliases = aliases

    def chains(self, expr: ast.expr, _depth: int = 0,
               _visiting: frozenset[str] = frozenset(),
               ) -> list[tuple[str, tuple[str, ...]]]:
        """All ``(base, attr_parts)`` chains ``expr`` may denote."""
        if _depth > _ALIAS_DEPTH:
            return []
        if isinstance(expr, ast.Name):
            if expr.id in self.aliases and expr.id not in _visiting:
                out = []
                seen = _visiting | {expr.id}
                for defn in self.aliases[expr.id]:
                    out.extend(self.chains(defn, _depth + 1, seen))
                if out:
                    return out
            return [(expr.id, ())]
        if isinstance(expr, ast.Attribute):
            return [
                (base, parts + (expr.attr,))
                for base, parts in self.chains(expr.value, _depth + 1,
                                               _visiting)
            ]
        if isinstance(expr, ast.Subscript):
            # Element access: same resource as the container.
            return self.chains(expr.value, _depth + 1, _visiting)
        if isinstance(expr, ast.Call):
            # The result of ``X.m(...)`` belongs to X's resource (e.g.
            # ``events.pop(cycle)`` hands out events contents). A call
            # on a bare name has no chain.
            out = []
            for base, parts in self.chains(expr.func, _depth + 1,
                                           _visiting):
                if len(parts) >= 2:
                    out.append((base, parts[:-1]))
            return out
        if isinstance(expr, ast.IfExp):
            return (self.chains(expr.body, _depth + 1, _visiting)
                    + self.chains(expr.orelse, _depth + 1, _visiting))
        if isinstance(expr, ast.BoolOp):
            out = []
            for v in expr.values:
                out.extend(self.chains(v, _depth + 1, _visiting))
            return out
        if isinstance(expr, (ast.NamedExpr,)):
            return self.chains(expr.value, _depth + 1, _visiting)
        return []


def _resolve_resource(base: str, parts: tuple[str, ...],
                      cls: str | None) -> str | None:
    """Map one attribute chain to a contract resource (or None)."""
    res = ANCHOR_ATTRS.get(base) if base != "self" else None
    if res in TERMINAL_RESOURCES:
        return res
    for p in parts:
        anchor = ANCHOR_ATTRS.get(p)
        if anchor is not None:
            res = anchor
            if res in TERMINAL_RESOURCES:
                break
    if res is not None:
        return res
    if base == "self" and cls is not None:
        return CLASS_RESOURCES.get(cls)
    return None


def _canonical_call(expr: ast.expr, mod: ModuleInfo) -> str | None:
    """Dotted call target with its first segment resolved via imports."""
    dotted = _dotted(expr)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    origin = mod.imports.get(head)
    if origin is None:
        return dotted
    return f"{origin}.{rest}" if rest else origin


class _FuncScanner(ast.NodeVisitor):
    """One pass over a function body: accesses, edges, taint seeds."""

    def __init__(self, project: Project, fn: FuncInfo) -> None:
        self.project = project
        self.fn = fn
        self.mod = fn.module
        self.chainer = _Chainer(_collect_aliases(fn))
        self._access_seen: set[tuple[str, bool, int, int]] = set()
        self._edge_seen: set[tuple[str, int]] = set()

    def run(self) -> None:
        for stmt in self.fn.node.body:
            self.visit(stmt)

    # -- recording ------------------------------------------------------
    def _record(self, node: ast.AST, expr: ast.expr, write: bool) -> None:
        for base, parts in self.chainer.chains(expr):
            res = _resolve_resource(base, parts, self.fn.cls)
            if res is None:
                continue
            key = (res, write, getattr(node, "lineno", 1),
                   getattr(node, "col_offset", 0))
            if key not in self._access_seen:
                self._access_seen.add(key)
                self.fn.accesses.append(key)

    def _edge(self, callee: FuncInfo | None, node: ast.AST) -> None:
        if callee is None:
            return
        key = (callee.uid, getattr(node, "lineno", 1))
        if key not in self._edge_seen:
            self._edge_seen.add(key)
            self.fn.edges.append((callee, key[1]))

    # -- skip nested scopes (they are their own FuncInfo) ---------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        pass

    # -- assignments ----------------------------------------------------
    def _write_target(self, node: ast.AST, target: ast.expr) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._write_target(node, elt)
            return
        if isinstance(target, ast.Starred):
            self._write_target(node, target.value)
            return
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            self._record(target, target, write=True)
            self._visit_spine_children(target)
        # A bare Name target is a local rebind, not a resource write.

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._write_target(node, target)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._write_target(node, node.target)
        if node.value is not None:
            self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._write_target(node, node.target)
        self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._write_target(node, target)

    # -- loads ----------------------------------------------------------
    def _visit_spine_children(self, node: ast.expr) -> None:
        """Visit the non-chain children along an attribute spine
        (subscript indices, call arguments)."""
        while isinstance(node, (ast.Attribute, ast.Subscript, ast.Call)):
            if isinstance(node, ast.Subscript):
                self.visit(node.slice)
                node = node.value
            elif isinstance(node, ast.Call):
                for arg in node.args:
                    self.visit(arg)
                for kw in node.keywords:
                    self.visit(kw.value)
                node = node.func
            else:
                node = node.value

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._record(node, node, write=False)
        self._visit_spine_children(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        self._record(node, node, write=False)
        self._visit_spine_children(node)

    def visit_Name(self, node: ast.Name) -> None:
        # A bare name only touches a resource through an alias.
        if node.id in self.chainer.aliases:
            self._record(node, node, write=False)

    # -- calls ----------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        self._handle_call(node)
        for arg in node.args:
            self.visit(arg)
        for kw in node.keywords:
            self.visit(kw.value)

    def _handle_call(self, node: ast.Call) -> None:
        func = node.func
        canonical = _canonical_call(func, self.mod)
        if canonical is not None and _is_taint_source(canonical):
            self.fn.taint_seeds.append((canonical, node.lineno))
        if isinstance(func, ast.Attribute):
            method = func.attr
            # Receiver resource: a mutator call writes it.
            write = method in MUTATOR_METHODS
            for base, parts in self.chainer.chains(func.value):
                res = _resolve_resource(base, parts, self.fn.cls)
                if res is not None:
                    key = (res, write, node.lineno, node.col_offset)
                    if key not in self._access_seen:
                        self._access_seen.add(key)
                        self.fn.accesses.append(key)
            self._resolve_method_call(node, func)
            self._visit_spine_children(func.value)
            if isinstance(func.value, ast.Name):
                self.visit_Name(func.value)
        elif isinstance(func, ast.Name):
            self._resolve_name_call(node, func.id)
        else:
            self.visit(func)

    def _resolve_method_call(self, node: ast.Call,
                             func: ast.Attribute) -> None:
        method = func.attr
        base = func.value
        # Module-qualified call through an import: exact resolution.
        if isinstance(base, ast.Name) and base.id in self.mod.imports:
            origin = f"{self.mod.imports[base.id]}.{method}"
            target = self.project.resolve_symbol(origin)
            if target is not None:
                self._edge(target, node)
                return
            if self.project.resolve_module(
                self.mod.imports[base.id]
            ) is None:
                return  # external module: no edge
        if isinstance(base, ast.Name) and base.id == "self":
            cls = self.fn.cls
            if cls is not None:
                own = self.mod.classes.get(cls, {}).get(method)
                if own is not None:
                    self._edge(own, node)
                    return
                for target in self._class_attr_targets(cls, method):
                    self._edge(target, node)
                if self.mod.class_attr_aliases.get(cls, {}).get(method):
                    return
        self._cha_edges(node, method, self._receiver_resources(base))

    def _receiver_resources(self, base: ast.expr) -> set[str]:
        """Resources the call receiver may resolve to (for CHA typing)."""
        out: set[str] = set()
        for b, parts in self.chainer.chains(base):
            res = _resolve_resource(b, parts, self.fn.cls)
            if res is not None:
                out.add(res)
        return out

    def _cha_edges(self, node: ast.AST, method: str,
                   recv: set[str]) -> None:
        """Name-based CHA, typed by the receiver's resolved resource:
        a candidate from a class mapped to a different resource is a
        name collision, not a call target; a generic container method
        resolves only to same-resource classes (a plain list/dict
        receiver has no project edges at all)."""
        generic = method in _GENERIC_METHODS
        for target in self.project.cha(method):
            cls_res = CLASS_RESOURCES.get(target.cls)
            if recv:
                if cls_res is not None:
                    if cls_res not in recv:
                        continue
                elif generic:
                    continue
            elif generic:
                continue
            self._edge(target, node)

    def _class_attr_targets(self, cls: str, attr: str) -> list[FuncInfo]:
        """Resolve ``self.<attr>(...)`` through ``self.<attr> = <expr>``
        assignments collected from the class body."""
        out: list[FuncInfo] = []
        for expr in self.mod.class_attr_aliases.get(cls, {}).get(attr, ()):
            for leaf in _leaf_exprs(expr):
                if isinstance(leaf, ast.Name):
                    target = self._name_target(leaf.id)
                    if target is not None:
                        out.append(target)
                elif isinstance(leaf, ast.Attribute):
                    out.extend(self.project.cha(leaf.attr))
        return out

    def _name_target(self, name: str) -> FuncInfo | None:
        # A def nested in this function or in any function enclosing
        # it, so a nested helper's call to its sibling resolves.
        scope: FuncInfo | None = self.fn
        while scope is not None:
            fn = scope.nested.get(name)
            if fn is not None:
                return fn
            scope = scope.enclosing
        origin = self.mod.imports.get(name)
        if origin is not None:
            return self.project.resolve_symbol(origin)
        target = self.mod.functions.get(name)
        if target is not None:
            return target
        methods = self.mod.classes.get(name)
        if methods is not None:
            return methods.get("__init__")
        return None

    def _resolve_name_call(self, node: ast.Call, name: str) -> None:
        if name in ("heappush", "heappop", "heapify"):
            # heapq mutates its first argument in place.
            if node.args:
                self._record(node, node.args[0], write=True)
            return
        if name in self.chainer.aliases:
            # Bound method hoisted into a local: resolve like a method
            # call through the alias chains.
            for base, parts in self.chainer.chains(
                ast.Name(id=name, ctx=ast.Load())
            ):
                if not parts:
                    continue
                method = parts[-1]
                res = _resolve_resource(base, parts[:-1], self.fn.cls)
                if res is not None:
                    write = method in MUTATOR_METHODS
                    key = (res, write, node.lineno, node.col_offset)
                    if key not in self._access_seen:
                        self._access_seen.add(key)
                        self.fn.accesses.append(key)
                if base == "self" and self.fn.cls is not None:
                    own = self.mod.classes.get(self.fn.cls, {}).get(method)
                    if own is not None:
                        self._edge(own, node)
                        continue
                    targets = self._class_attr_targets(self.fn.cls, method)
                    if targets:
                        for target in targets:
                            self._edge(target, node)
                        continue
                self._cha_edges(node, method,
                                set() if res is None else {res})
            return
        self._edge(self._name_target(name), node)


def _leaf_exprs(expr: ast.expr) -> list[ast.expr]:
    """Unfold conditional expressions to their leaves."""
    if isinstance(expr, ast.IfExp):
        return _leaf_exprs(expr.body) + _leaf_exprs(expr.orelse)
    if isinstance(expr, ast.BoolOp):
        out: list[ast.expr] = []
        for v in expr.values:
            out.extend(_leaf_exprs(v))
        return out
    return [expr]


def _is_taint_source(canonical: str) -> bool:
    return (
        canonical in TAINT_SOURCE_CALLS
        or canonical.startswith("random.")
    )


# ----------------------------------------------------------------------
# the four rules
# ----------------------------------------------------------------------
def _edge_suppressed(fn: FuncInfo, line: int, code: str) -> bool:
    codes = fn.module.noqa.get(line, frozenset())
    return codes is None or code in codes


def _closure(project: Project, seeds: list[FuncInfo], code: str,
             ) -> dict[str, tuple[FuncInfo, str | None]]:
    """BFS over call edges from ``seeds``; ``noqa[code]`` on a call
    line prunes that edge. Returns uid -> (func, provenance chain)."""
    reached: dict[str, tuple[FuncInfo, str | None]] = {
        s.uid: (s, s.qual) for s in seeds
    }
    frontier = list(seeds)
    while frontier:
        fn = frontier.pop()
        chain = reached[fn.uid][1]
        for callee, line in fn.edges:
            if callee.uid in reached:
                continue
            if _edge_suppressed(fn, line, code):
                continue
            reached[callee.uid] = (callee, f"{chain} -> {callee.qual}")
            frontier.append(callee)
    return reached


def _check_hot_closure(project: Project) -> list[Violation]:
    """RPR009: allocations in functions transitively reachable from a
    ``# repro: hot`` marker."""
    seeds = [fn for fn in project.funcs.values() if fn.hot]
    reached = _closure(project, seeds, "RPR009")
    out: list[Violation] = []
    for fn, chain in reached.values():
        if fn.hot:
            continue  # RPR008 already covers marker-carrying functions
        for sub, kind in iter_container_allocations(fn.node):
            out.append(Violation(
                path=fn.path, line=sub.lineno, col=sub.col_offset,
                code="RPR009",
                message=(
                    f"{kind} in {fn.qual}() allocates every simulated "
                    f"cycle — the function is hot via {chain}; hoist "
                    "the allocation, prune the call edge, or mark "
                    "'# repro: noqa[RPR009] — why'"
                ),
            ))
    return out


def _check_taint(project: Project) -> list[Violation]:
    """RPR010: determinism taint propagated callee-to-caller."""
    # Seed functions: direct wall-clock/entropy/bare-random callers.
    # noqa[RPR010] on the source line kills the seed; noqa[RPR001]
    # does not (see the module docstring).
    tainted: dict[str, str] = {}  # uid -> provenance description
    frontier: list[FuncInfo] = []
    for fn in project.funcs.values():
        for canonical, line in fn.taint_seeds:
            if _edge_suppressed(fn, line, "RPR010"):
                continue
            tainted[fn.uid] = f"{fn.qual}() calls {canonical}()"
            frontier.append(fn)
            break
    # Reverse adjacency, then propagate to callers.
    callers: dict[str, list[FuncInfo]] = {}
    for fn in project.funcs.values():
        for callee, _line in fn.edges:
            callers.setdefault(callee.uid, []).append(fn)
    while frontier:
        fn = frontier.pop()
        for caller in callers.get(fn.uid, ()):
            if caller.uid in tainted:
                continue
            tainted[caller.uid] = f"{caller.qual}() -> {tainted[fn.uid]}"
            frontier.append(caller)
    # Findings: the frontier edges where simulation code reaches a
    # tainted function outside the simulation packages.
    out: list[Violation] = []
    for fn in project.funcs.values():
        if not fn.module.is_sim:
            continue
        for callee, line in fn.edges:
            if callee.module.is_sim or callee.uid not in tainted:
                continue
            out.append(Violation(
                path=fn.path, line=line, col=0, code="RPR010",
                message=(
                    f"{fn.qual}() reaches a nondeterministic source "
                    f"through {tainted[callee.uid]}; pass the value in "
                    "explicitly or mark '# repro: noqa[RPR010] — why'"
                ),
            ))
    return out


def _check_contracts(project: Project) -> list[Violation]:
    """RPR011: every access in a stage's closure obeys its contract."""
    out: list[Violation] = []
    for stage_fn in project.funcs.values():
        if stage_fn.contract is None:
            continue
        stage, reads, writes = stage_fn.contract
        may_read = reads | writes
        reached = _closure(project, [stage_fn], "RPR011")
        seen: set[tuple[str, int, str, bool]] = set()
        for fn, _chain in reached.values():
            for res, is_write, line, col in fn.accesses:
                if is_write and res not in writes:
                    key = (fn.path, line, res, True)
                    if key in seen:
                        continue
                    seen.add(key)
                    out.append(Violation(
                        path=fn.path, line=line, col=col, code="RPR011",
                        message=(
                            f"stage '{stage}' writes '{res}' "
                            f"({RESOURCES.get(res, res)}) in {fn.qual}() "
                            "but its @stage_contract does not declare "
                            "that resource writable; extend the contract "
                            "or mark '# repro: noqa[RPR011] — why'"
                        ),
                    ))
                elif not is_write and res not in may_read:
                    key = (fn.path, line, res, False)
                    if key in seen:
                        continue
                    seen.add(key)
                    out.append(Violation(
                        path=fn.path, line=line, col=col, code="RPR011",
                        message=(
                            f"stage '{stage}' reads '{res}' "
                            f"({RESOURCES.get(res, res)}) in {fn.qual}() "
                            "outside its @stage_contract; extend the "
                            "contract or mark "
                            "'# repro: noqa[RPR011] — why'"
                        ),
                    ))
    return out


class _ShipScanner(ast.NodeVisitor):
    """RPR012: fork/pickle safety of worker-shipped payloads."""

    def __init__(self, project: Project, mod: ModuleInfo) -> None:
        self.project = project
        self.mod = mod
        self.violations: list[Violation] = []
        self._nested: list[set[str]] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        inner = {
            s.name for s in ast.walk(node)
            if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
            and s is not node
        }
        self._nested.append(inner)
        self.generic_visit(node)
        self._nested.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node: ast.Call) -> None:
        canonical = _canonical_call(node.func, self.mod) or ""
        name = canonical.rsplit(".", 1)[-1]
        if name == "SimJob":
            # Every constructor argument rides to the worker.
            for arg in list(node.args) + [kw.value for kw in
                                          node.keywords]:
                self._check_payload(name, arg)
        elif name == "execute_jobs":
            # Only the job list crosses the boundary; progress/event
            # callbacks stay in the parent process.
            shipped = list(node.args[:1]) + [
                kw.value for kw in node.keywords if kw.arg == "jobs"
            ]
            for arg in shipped:
                self._check_payload(name, arg)
        self.generic_visit(node)

    def _flag(self, node: ast.AST, target: str, what: str) -> None:
        self.violations.append(Violation(
            path=self.mod.path, line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0), code="RPR012",
            message=(
                f"{what} in the {target}() payload crosses the "
                "repro.exec fork/pickle boundary; ship plain data "
                "(str/int/tuple/dataclass) or mark "
                "'# repro: noqa[RPR012] — why'"
            ),
        ))

    def _check_payload(self, target: str, arg: ast.expr) -> None:
        nested_names = set().union(*self._nested) if self._nested else set()
        for sub in ast.walk(arg):
            if isinstance(sub, ast.Lambda):
                self._flag(sub, target, "a lambda")
            elif isinstance(sub, ast.Name) and sub.id in nested_names:
                self._flag(sub, target,
                           f"nested function '{sub.id}' (closure)")
            elif isinstance(sub, ast.Call):
                ctor = _canonical_call(sub.func, self.mod)
                if ctor in _HANDLE_CTORS:
                    self._flag(sub, target,
                               f"a handle-holding {ctor}() object")


def _check_ship_safety(project: Project) -> list[Violation]:
    out: list[Violation] = []
    for mod in project.modules.values():
        scanner = _ShipScanner(project, mod)
        scanner.visit(mod.tree)
        out.extend(scanner.violations)
    return out


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def build_project(paths: list[Path],
                  overrides: dict[str, str] | None = None) -> Project:
    """Parse every module under the given roots into one Project.

    ``overrides`` maps resolved file paths to replacement source text;
    the mutation engine uses it to analyse an in-memory mutant of one
    module against the rest of the tree as it exists on disk.
    """
    project = Project()
    for root in paths:
        root = Path(root)
        for path in iter_python_files(root):
            if root.is_file():
                rel = path.name
                dotted = path.stem
            else:
                rel = path.relative_to(root).as_posix()
                parts = [root.name] + rel[:-3].split("/")
                if parts[-1] == "__init__":
                    parts = parts[:-1]
                dotted = ".".join(parts)
            source = None
            if overrides is not None:
                source = overrides.get(str(path.resolve()))
            if source is None:
                source = path.read_text(encoding="utf-8")
            project.add_source(source, str(path), rel, dotted)
    for fn in list(project.funcs.values()):
        _FuncScanner(project, fn).run()
    return project


def _apply_noqa(project: Project,
                violations: list[Violation]) -> list[Violation]:
    by_path = {mod.path: mod.noqa for mod in project.modules.values()}
    out = []
    for v in violations:
        codes = by_path.get(v.path, {}).get(v.line, frozenset())
        if codes is None or v.code in codes:
            continue
        out.append(v)
    out.sort(key=lambda v: (v.path, v.line, v.col, v.code, v.message))
    return out


def flow_paths(paths: list[Path],
               baseline: dict[str, object] | None = None,
               overrides: dict[str, str] | None = None,
               ) -> list[Violation]:
    """Run RPR009-RPR012 over the given roots; returns findings that
    are neither noqa-suppressed nor recorded in ``baseline``."""
    project = build_project(paths, overrides=overrides)
    violations = list(project.parse_errors)
    violations += _apply_noqa(project, (
        _check_hot_closure(project)
        + _check_taint(project)
        + _check_contracts(project)
        + _check_ship_safety(project)
    ))
    if baseline:
        violations, _stale = split_baseline(violations, baseline)
    return violations


def split_baseline(
    violations: list[Violation], baseline: dict[str, object],
) -> tuple[list[Violation], list[tuple[str, str, str]]]:
    """Partition findings against a baseline.

    Returns ``(new, stale)``: the violations not recorded in the
    baseline (regressions), and the baseline fingerprints that no
    finding matched any more (stale entries — the accepted debt was
    paid down and the baseline should be refreshed).
    """
    known = {
        (str(f["path"]), str(f["code"]), str(f["message"]))
        for f in baseline.get("findings", ())
    }
    seen = {(v.path, v.code, v.message) for v in violations}
    new = [v for v in violations if (v.path, v.code, v.message) not in known]
    stale = sorted(known - seen)
    return new, stale


def encode_baseline(violations: list[Violation]) -> dict[str, object]:
    """Baseline body: line-free fingerprints, so accepted findings do
    not churn when unrelated edits move them around a file."""
    findings = sorted(
        {(v.path, v.code, v.message) for v in violations}
    )
    return {
        "version": 1,
        "findings": [
            {"path": p, "code": c, "message": m} for p, c, m in findings
        ],
    }


def default_baseline_path() -> Path:
    """``results/flow_baseline.json`` at the repository root (three
    levels above this package in a source checkout)."""
    return Path(__file__).resolve().parents[3] / "results" \
        / "flow_baseline.json"


def load_baseline(path: Path) -> dict[str, object]:
    return json.loads(path.read_text(encoding="utf-8"))


def run_flow_cli(args) -> int:
    """Back end of ``python -m repro.analysis flow`` (see lint.main)."""
    baseline_path = args.baseline
    if baseline_path is None and not args.no_baseline:
        candidate = default_baseline_path()
        if candidate.exists():
            baseline_path = candidate
    baseline = None
    if baseline_path is not None and not args.no_baseline \
            and not args.update_baseline:
        if not baseline_path.exists():
            print(f"error: no such baseline: {baseline_path}",
                  file=sys.stderr)
            return EXIT_USAGE
        baseline = load_baseline(baseline_path)
    violations = flow_paths(args.paths)
    if args.update_baseline:
        path = args.baseline or default_baseline_path()
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(stable_dumps(encode_baseline(violations)),
                        encoding="utf-8")
        print(f"wrote {len(violations)} finding(s) to {path}")
        return EXIT_CLEAN
    stale: list[tuple[str, str, str]] = []
    if baseline is not None:
        violations, stale = split_baseline(violations, baseline)
    # --select/--ignore/--changed-only narrow what is *reported*; the
    # analysis itself stays whole-program (closures need every module).
    select = parse_codes(args.select)
    ignore = parse_codes(args.ignore)
    filtered_view = (select is not None or ignore is not None
                     or args.changed_only)
    violations = filter_by_code(violations, select, ignore)
    if args.changed_only:
        narrowed = restrict_to_changed(list(args.paths), args.base)
        if narrowed is not None:
            keep = {str(p) for p in narrowed}
            keep |= {str(p.resolve()) for p in narrowed}
            violations = [
                v for v in violations
                if v.path in keep or str(Path(v.path).resolve()) in keep
            ]
    rebaseline_cmd = (
        "python -m repro.analysis flow "
        + " ".join(str(p) for p in args.paths)
        + " --update-baseline"
    )
    if args.as_json:
        sys.stdout.write(stable_dumps({
            "violations": [v.as_dict() for v in violations],
            "count": len(violations),
            "rules": FLOW_RULES,
            "baseline": str(baseline_path) if baseline else None,
            "stale_baseline": [
                {"path": p, "code": c, "message": m} for p, c, m in stale
            ],
        }))
    else:
        for v in violations:
            print(v.render())
        if violations:
            print(f"{len(violations)} violation(s) found")
            print("accept deliberately (refreshes the baseline):\n  "
                  f"{rebaseline_cmd}")
    if violations:
        return EXIT_REGRESSION
    # Only a full, unfiltered view can judge the baseline stale: a
    # narrowed report simply cannot see every recorded finding.
    if stale and not filtered_view:
        if not args.as_json:
            print(f"stale baseline: {len(stale)} recorded finding(s) "
                  "no longer occur:")
            for path, code, message in stale:
                print(f"  {path}: {code} {message}")
            print(f"refresh it:\n  {rebaseline_cmd}")
        return EXIT_STALE_BASELINE
    return EXIT_CLEAN
