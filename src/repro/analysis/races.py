"""Whole-program static concurrency analysis (RPR014-RPR016).

The exec runtime runs code in several execution contexts: forked pool
workers with heartbeat threads, the parent's pool loop, and the atexit
reaper; the simulator's warm-state memo may be filled from threads.
The byte-identity guarantee rests on those contexts never tearing each
other's state. This pass makes that class of defect a CI regression
instead of a production incident.

It layers on the flow engine's project symbol table and call graph
(:mod:`repro.analysis.flow`) and runs in three phases:

1. **Context inference** — classify every function into the execution
   contexts that may run it: ``main`` (sync entry points), ``thread``
   (reached from ``threading.Thread(target=...)``, ``run_in_executor``,
   ``asyncio.to_thread``, executor ``.submit``), ``async`` (coroutine
   bodies and their sync callees — a *sync* caller of an ``async def``
   only creates the coroutine, so that edge never propagates context),
   ``handler`` (atexit/signal callbacks), and ``fork``
   (``Process(target=...)`` children — a separate address space, so
   fork never counts toward sharing).

2. **Lockset computation** — a flow-sensitive walk of every function
   body tracking the *must*-held and *may*-held lock sets through
   ``with lock:`` regions, explicit ``acquire()``/``release()`` pairs,
   and branch joins (must = intersection, may = union), followed by an
   interprocedural fixpoint that pushes locksets across call edges
   (a callee's entry lockset is the intersection over its call sites).

3. **Three graph rules** over the result::

       RPR014  shared state (class attrs of context-escaping classes,
               module globals) written from >= 2 contexts with no lock
               common to every access (Eraser-style lockset analysis)
       RPR015  cycle in the acquired-while-holding lock-order graph
               (potential deadlock)
       RPR016  fork/Process spawn while a lock may be held, or a
               thread/lock/handle-holding object inherited by the
               forked child

Ergonomics match flow: ``# repro: noqa[RPR01x] — why`` suppression
(on an access, acquisition or fork site), a committed
line-free baseline at ``results/races_baseline.json`` with
``--update-baseline`` and stale detection, ``--json`` via
``stable_dumps``, and the shared exit-code vocabulary.
"""

from __future__ import annotations

import ast
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.common import (
    EXIT_CLEAN,
    EXIT_REGRESSION,
    EXIT_STALE_BASELINE,
    EXIT_USAGE,
    filter_by_code,
    parse_codes,
    restrict_to_changed,
)
from repro.analysis.flow import (
    FuncInfo,
    ModuleInfo,
    Project,
    _apply_noqa,
    _canonical_call,
    _edge_suppressed,
    build_project,
    encode_baseline,
    load_baseline,
    split_baseline,
)
from repro.analysis.lint import Violation, _dotted
from repro.util.encoding import stable_dumps

#: code -> one-line description (kept in sync with docs/analysis.md).
RACES_RULES: dict[str, str] = {
    "RPR014": "shared state written from >= 2 contexts with no "
              "consistent lockset",
    "RPR015": "lock-order cycle across contexts (potential deadlock)",
    "RPR016": "fork while a lock may be held, or unsafe state "
              "inherited by a forked child",
}

#: The execution-context vocabulary, in display order.
CONTEXT_KINDS = ("main", "thread", "async", "handler", "fork")

#: Constructors whose result is a lock (lockset member + RPR015 node).
_LOCK_CTORS = frozenset({
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Semaphore", "threading.BoundedSemaphore",
    "asyncio.Lock", "asyncio.Condition", "asyncio.Semaphore",
    "asyncio.BoundedSemaphore",
    "multiprocessing.Lock", "multiprocessing.RLock",
    "multiprocessing.Condition", "multiprocessing.Semaphore",
})

#: Constructors of synchronisation primitives: attributes so typed are
#: guards/signals, not guarded data, and leave the shared-state set.
_SYNC_CTORS = _LOCK_CTORS | frozenset({
    "threading.Event", "asyncio.Event", "multiprocessing.Event",
    "threading.Barrier",
    "queue.Queue", "queue.LifoQueue", "queue.PriorityQueue",
    "queue.SimpleQueue",
    "asyncio.Queue", "asyncio.LifoQueue", "asyncio.PriorityQueue",
    "multiprocessing.Queue", "multiprocessing.JoinableQueue",
})

#: Name heuristic for locks: matches ``_lock``, ``send_lock``,
#: ``_LIVE_LOCK``, ``mutex`` — but not ``lockout`` or ``blocked``.
_LOCKISH_RE = re.compile(r"(^|_)(lock|mutex)(_|$)", re.IGNORECASE)

#: Container mutators: ``X.add(...)`` is a *write* to X. Deliberately
#: the stdlib vocabulary only (contracts.MUTATOR_METHODS also names
#: project methods like ``release`` that collide with lock protocol).
_MUTATORS = frozenset({
    "append", "appendleft", "extend", "insert", "pop", "popleft",
    "popitem", "remove", "clear", "add", "discard", "update",
    "setdefault", "sort", "reverse",
})

#: Constructors whose result must not cross a fork into a child
#: process: live threads, locks, loops, sockets, executors, handles.
_UNSAFE_INHERIT_CTORS = frozenset({
    "threading.Thread", "threading.Lock", "threading.RLock",
    "threading.Condition", "threading.Event", "threading.Semaphore",
    "threading.BoundedSemaphore",
    "asyncio.new_event_loop", "asyncio.get_event_loop",
    "concurrent.futures.ThreadPoolExecutor",
    "concurrent.futures.ProcessPoolExecutor",
    "socket.socket", "socket.create_connection",
    "open", "sqlite3.connect", "subprocess.Popen",
})

#: Methods assumed not to constitute dispatch for __init__ resolution.
_INIT_NAMES = ("__init__", "__post_init__")


# ----------------------------------------------------------------------
# phase 1: execution-context inference
# ----------------------------------------------------------------------
@dataclass
class ContextMap:
    """Which execution contexts may run each function."""

    #: kind -> root functions (uids, sorted).
    roots: dict[str, tuple[str, ...]]
    #: uid -> frozenset of context kinds that may execute it.
    kinds: dict[str, frozenset[str]]
    #: (rel, class) pairs whose bound methods escape into another
    #: context (``Thread(target=self._supervise)`` etc.) — only their
    #: instance attributes are race candidates.
    escaping: frozenset[tuple[str, str]]

    def kinds_of(self, fn: FuncInfo) -> frozenset[str]:
        return self.kinds.get(fn.uid, frozenset())


def _own_nodes(node: ast.AST):
    """All AST nodes of a function body, excluding nested defs."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        sub = stack.pop()
        yield sub
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                            ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(sub))


def _resolve_callable(expr: ast.expr, fn: FuncInfo | None,
                      mod: ModuleInfo,
                      project: Project) -> FuncInfo | None:
    """Resolve a callback expression to a project function.

    Deliberately conservative: bare names, ``self.method``, and
    imported ``pkg.func`` resolve; arbitrary ``obj.method`` does not
    (name-based CHA would over-root wildly here).
    """
    if isinstance(expr, ast.Name):
        name = expr.id
        if fn is not None and name in fn.nested:
            return fn.nested[name]
        got = mod.functions.get(name)
        if got is not None:
            return got
        if name in mod.classes:
            return mod.classes[name].get("__init__")
        origin = mod.imports.get(name)
        if origin is not None:
            return project.resolve_symbol(origin)
        return None
    if isinstance(expr, ast.Attribute):
        if (isinstance(expr.value, ast.Name) and expr.value.id == "self"
                and fn is not None and fn.cls is not None):
            return mod.classes.get(fn.cls, {}).get(expr.attr)
        canonical = _canonical_call(expr, mod)
        if canonical is not None:
            return project.resolve_symbol(canonical)
    return None


def _registration_target(call: ast.Call,
                         mod: ModuleInfo) -> tuple[str, ast.expr] | None:
    """(kind, callback expr) when ``call`` registers a context root."""
    canonical = _canonical_call(call.func, mod) or ""
    dotted = _dotted(call.func) or ""
    last = canonical.rsplit(".", 1)[-1]

    def kw(name: str) -> ast.expr | None:
        for k in call.keywords:
            if k.arg == name:
                return k.value
        return None

    def arg(idx: int) -> ast.expr | None:
        return call.args[idx] if len(call.args) > idx else None

    if last == "Thread":
        target = kw("target") or arg(1)
        if target is not None:
            return ("thread", target)
    if canonical == "asyncio.to_thread" and arg(0) is not None:
        return ("thread", arg(0))
    if dotted.endswith(".run_in_executor") and arg(1) is not None:
        return ("thread", arg(1))
    if dotted.endswith(".submit") and arg(0) is not None:
        return ("thread", arg(0))
    if last == "Process":
        target = kw("target") or arg(1)
        if target is not None:
            return ("fork", target)
    if canonical == "atexit.register" and arg(0) is not None:
        return ("handler", arg(0))
    if canonical == "signal.signal" and arg(1) is not None:
        return ("handler", arg(1))
    if dotted.endswith(".add_signal_handler") and arg(1) is not None:
        return ("handler", arg(1))
    return None


def _context_closure(project: Project,
                     roots: list[FuncInfo]) -> set[str]:
    """BFS over call edges; ``noqa[RPR014]`` on a call line prunes the
    edge, and sync -> async edges never propagate (calling a coroutine
    function only creates the coroutine — it runs on the loop)."""
    reached = {fn.uid for fn in roots}
    frontier = list(roots)
    while frontier:
        fn = frontier.pop()
        for callee, line in fn.edges:
            if callee.uid in reached:
                continue
            if _edge_suppressed(fn, line, "RPR014"):
                continue
            if (isinstance(callee.node, ast.AsyncFunctionDef)
                    and not isinstance(fn.node, ast.AsyncFunctionDef)):
                continue
            reached.add(callee.uid)
            frontier.append(callee)
    return reached


def infer_contexts(project: Project) -> ContextMap:
    """Infer the execution-context map for a built project."""
    roots: dict[str, list[FuncInfo]] = {k: [] for k in CONTEXT_KINDS}
    seen_roots: dict[str, set[str]] = {k: set() for k in CONTEXT_KINDS}
    escaping: set[tuple[str, str]] = set()

    def add_root(kind: str, fn: FuncInfo | None,
                 via_self: str | None) -> None:
        if fn is None:
            return
        if fn.uid not in seen_roots[kind]:
            seen_roots[kind].add(fn.uid)
            roots[kind].append(fn)
        if via_self is not None:
            escaping.add((fn.rel, via_self))

    def scan_calls(nodes, fn: FuncInfo | None, mod: ModuleInfo) -> None:
        for node in nodes:
            if not isinstance(node, ast.Call):
                continue
            reg = _registration_target(node, mod)
            if reg is None:
                continue
            kind, target = reg
            via_self = None
            if (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and fn is not None and fn.cls is not None):
                via_self = fn.cls
            add_root(kind, _resolve_callable(target, fn, mod, project),
                     via_self)

    for mod in project.modules.values():
        # module top level (``atexit.register(_reap_orphans)`` style)
        top = [stmt for stmt in mod.tree.body
               if not isinstance(stmt, (ast.FunctionDef,
                                        ast.AsyncFunctionDef,
                                        ast.ClassDef))]
        nodes: list[ast.AST] = []
        for stmt in top:
            nodes.extend(ast.walk(stmt))
        scan_calls(nodes, None, mod)
    for fn in project.funcs.values():
        scan_calls(_own_nodes(fn.node), fn, fn.module)

    # async context: every coroutine body.
    for fn in project.funcs.values():
        if isinstance(fn.node, ast.AsyncFunctionDef):
            if fn.uid not in seen_roots["async"]:
                seen_roots["async"].add(fn.uid)
                roots["async"].append(fn)

    # main context: sync top-of-callgraph functions that are not
    # registered anywhere else (entry points, CLI commands, __enter__).
    special = set().union(*(seen_roots[k] for k in
                            ("thread", "fork", "handler", "async")))
    has_caller: set[str] = set()
    for fn in project.funcs.values():
        for callee, _line in fn.edges:
            has_caller.add(callee.uid)
    for fn in project.funcs.values():
        if isinstance(fn.node, ast.AsyncFunctionDef):
            continue
        if ".<locals>." in fn.qual:
            continue
        if fn.uid in special or fn.uid in has_caller:
            continue
        seen_roots["main"].add(fn.uid)
        roots["main"].append(fn)

    kinds: dict[str, set[str]] = {}
    for kind in CONTEXT_KINDS:
        for uid in _context_closure(project,
                                    sorted(roots[kind],
                                           key=lambda f: f.uid)):
            kinds.setdefault(uid, set()).add(kind)
    return ContextMap(
        roots={k: tuple(sorted(seen_roots[k])) for k in CONTEXT_KINDS},
        kinds={uid: frozenset(ks) for uid, ks in kinds.items()},
        escaping=frozenset(escaping),
    )


# ----------------------------------------------------------------------
# phase 2: lockset computation
# ----------------------------------------------------------------------
class _LockIndex:
    """Project-wide typing of locks, sync primitives, and globals."""

    def __init__(self, project: Project) -> None:
        #: rel -> names assigned at module top level.
        self.mod_globals: dict[str, set[str]] = {}
        #: (rel, name) -> canonical ctor of the top-level assignment.
        self.global_ctors: dict[tuple[str, str], set[str]] = {}
        #: (rel, cls, attr) -> canonical ctors seen in ``self.X = ...``.
        self.attr_ctors: dict[tuple[str, str, str], set[str]] = {}
        for mod in project.modules.values():
            for stmt in mod.tree.body:
                if isinstance(stmt, ast.Assign):
                    targets, value = stmt.targets, stmt.value
                elif (isinstance(stmt, ast.AnnAssign)
                        and stmt.value is not None):
                    targets, value = [stmt.target], stmt.value
                else:
                    continue
                for tgt in targets:
                    if not isinstance(tgt, ast.Name):
                        continue
                    self.mod_globals.setdefault(mod.rel,
                                                set()).add(tgt.id)
                    if isinstance(value, ast.Call):
                        canon = _canonical_call(value.func, mod)
                        if canon is not None:
                            self.global_ctors.setdefault(
                                (mod.rel, tgt.id), set()).add(canon)
            for cls, attrs in mod.class_attr_aliases.items():
                for attr, exprs in attrs.items():
                    for expr in exprs:
                        if not isinstance(expr, ast.Call):
                            continue
                        canon = _canonical_call(expr.func, mod)
                        if canon is not None:
                            self.attr_ctors.setdefault(
                                (mod.rel, cls, attr), set()).add(canon)

    def _typed(self, ctors: set[str] | None,
               vocab: frozenset[str]) -> bool:
        return bool(ctors) and bool(ctors & vocab)

    def is_lock_attr(self, rel: str, cls: str, attr: str) -> bool:
        return bool(_LOCKISH_RE.search(attr)) or self._typed(
            self.attr_ctors.get((rel, cls, attr)), _LOCK_CTORS)

    def is_sync_attr(self, rel: str, cls: str, attr: str) -> bool:
        return bool(_LOCKISH_RE.search(attr)) or self._typed(
            self.attr_ctors.get((rel, cls, attr)), _SYNC_CTORS)

    def is_lock_global(self, rel: str, name: str) -> bool:
        return bool(_LOCKISH_RE.search(name)) or self._typed(
            self.global_ctors.get((rel, name)), _LOCK_CTORS)

    def is_sync_global(self, rel: str, name: str) -> bool:
        return bool(_LOCKISH_RE.search(name)) or self._typed(
            self.global_ctors.get((rel, name)), _SYNC_CTORS)


def _lock_id(expr: ast.expr, fn: FuncInfo,
             index: _LockIndex) -> str | None:
    """Stable identity of a lock expression, or None if not a lock.

    ``self._lock`` -> ``Cls._lock`` (instances of one class conflate —
    the useful static approximation); module global -> ``mod._lock``;
    any other dotted lock-named chain keeps its source text.
    """
    mod = fn.module
    if (isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self" and fn.cls is not None):
        if index.is_lock_attr(fn.rel, fn.cls, expr.attr):
            return f"{fn.cls}.{expr.attr}"
        return None
    dotted = _dotted(expr)
    if dotted is None:
        return None
    last = dotted.rsplit(".", 1)[-1]
    if isinstance(expr, ast.Name):
        if index.is_lock_global(fn.rel, dotted):
            return f"{mod.dotted}.{dotted}"
        if _LOCKISH_RE.search(dotted):
            return f"{mod.dotted}.{dotted}"
        return None
    if _LOCKISH_RE.search(last):
        return dotted
    return None


@dataclass
class _FnLocks:
    """Flow-sensitive lockset facts for one function."""

    #: line -> locks held on *every* path reaching it (local only).
    line_must: dict[int, frozenset[str]] = field(default_factory=dict)
    #: line -> locks held on *some* path reaching it (local only).
    line_may: dict[int, frozenset[str]] = field(default_factory=dict)
    #: (lock, locally may-held while acquiring, line) per acquisition.
    acquisitions: list[tuple[str, frozenset[str], int]] = field(
        default_factory=list)
    #: interprocedural entry locksets (fixpoint result).
    entry_must: frozenset[str] = frozenset()
    entry_may: frozenset[str] = frozenset()

    def must_at(self, line: int) -> frozenset[str]:
        return self.entry_must | self.line_must.get(line, frozenset())

    def may_at(self, line: int) -> frozenset[str]:
        return self.entry_may | self.line_may.get(line, frozenset())


class _LockWalker:
    """One pass over a function body tracking held locksets."""

    def __init__(self, fn: FuncInfo, index: _LockIndex) -> None:
        self.fn = fn
        self.index = index
        self.out = _FnLocks()

    def run(self) -> _FnLocks:
        self._walk(self.fn.node.body, frozenset(), frozenset())
        return self.out

    def _mark(self, first: int, last: int, must: frozenset[str],
              may: frozenset[str]) -> None:
        for line in range(first, last + 1):
            if line not in self.out.line_must:
                self.out.line_must[line] = must
                self.out.line_may[line] = may

    def _acquire_release(self, stmt: ast.stmt, must: frozenset[str],
                         may: frozenset[str],
                         ) -> tuple[frozenset[str], frozenset[str]]:
        """Explicit ``X.acquire()`` / ``X.release()`` statements."""
        value = None
        if isinstance(stmt, ast.Expr):
            value = stmt.value
        elif isinstance(stmt, ast.Assign):
            value = stmt.value
        if not (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)):
            return must, may
        lock = _lock_id(value.func.value, self.fn, self.index)
        if lock is None:
            return must, may
        if value.func.attr == "acquire":
            self.out.acquisitions.append((lock, may, stmt.lineno))
            return must | {lock}, may | {lock}
        if value.func.attr == "release":
            return must - {lock}, may - {lock}
        return must, may

    def _walk(self, body: list[ast.stmt], must: frozenset[str],
              may: frozenset[str],
              ) -> tuple[frozenset[str], frozenset[str]]:
        inter = frozenset.intersection
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue  # nested defs walk as their own FuncInfo
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                self._mark(stmt.lineno, stmt.lineno, must, may)
                held_must, held_may = must, may
                acquired: set[str] = set()
                for item in stmt.items:
                    lock = _lock_id(item.context_expr, self.fn,
                                    self.index)
                    if lock is None:
                        continue
                    self.out.acquisitions.append(
                        (lock, held_may, stmt.lineno))
                    held_must |= {lock}
                    held_may |= {lock}
                    acquired.add(lock)
                exit_must, exit_may = self._walk(stmt.body, held_must,
                                                 held_may)
                # with-exit releases what the with acquired; explicit
                # acquire()s made inside the body persist past it.
                must = (exit_must - acquired) | (must & acquired)
                may = (exit_may - acquired) | (may & acquired)
            elif isinstance(stmt, ast.If):
                self._mark(stmt.lineno, stmt.lineno, must, may)
                m1, y1 = self._walk(stmt.body, must, may)
                m2, y2 = self._walk(stmt.orelse, must, may)
                must, may = m1 & m2, y1 | y2
            elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                self._mark(stmt.lineno, stmt.lineno, must, may)
                mb, yb = self._walk(stmt.body, must, may)
                mo, yo = self._walk(stmt.orelse, must, may)
                must, may = must & mb & mo, may | yb | yo
            elif isinstance(stmt, ast.Try):
                mb, yb = self._walk(stmt.body, must, may)
                if stmt.orelse:
                    mb, yb = self._walk(stmt.orelse, mb, yb)
                exits_m, exits_y = [mb], [yb]
                for handler in stmt.handlers:
                    mh, yh = self._walk(handler.body, must, may)
                    exits_m.append(mh)
                    exits_y.append(yh)
                must = inter(*exits_m)
                may = frozenset().union(*exits_y)
                if stmt.finalbody:
                    must, may = self._walk(stmt.finalbody, must, may)
            elif isinstance(stmt, ast.Match):
                self._mark(stmt.lineno, stmt.lineno, must, may)
                exits_m, exits_y = [must], [may]
                for case in stmt.cases:
                    mc, yc = self._walk(case.body, must, may)
                    exits_m.append(mc)
                    exits_y.append(yc)
                must = inter(*exits_m)
                may = frozenset().union(*exits_y)
            else:
                end = getattr(stmt, "end_lineno", None) or stmt.lineno
                self._mark(stmt.lineno, end, must, may)
                must, may = self._acquire_release(stmt, must, may)
        return must, may


def _lockset_edge_ok(caller: FuncInfo, callee: FuncInfo) -> bool:
    """Lockset propagation skips sync -> async edges (coroutine
    creation runs nothing; the body runs on the loop, lock-free)."""
    return not (isinstance(callee.node, ast.AsyncFunctionDef)
                and not isinstance(caller.node, ast.AsyncFunctionDef))


def compute_locksets(project: Project, ctx: ContextMap,
                     index: _LockIndex) -> dict[str, _FnLocks]:
    """Per-function locksets plus the interprocedural entry fixpoint."""
    locks = {fn.uid: _LockWalker(fn, index).run()
             for fn in project.funcs.values()}
    # Entry locksets: intersection (must) / union (may) over call
    # sites. Context roots are pinned to the empty set — a fresh
    # thread, handler, or task starts holding nothing.
    pinned = set()
    for kind in CONTEXT_KINDS:
        pinned.update(ctx.roots[kind])
    entry_must: dict[str, frozenset[str] | None] = {
        uid: (frozenset() if uid in pinned else None) for uid in locks
    }
    entry_may: dict[str, frozenset[str]] = {
        uid: frozenset() for uid in locks
    }
    changed = True
    while changed:
        changed = False
        for fn in project.funcs.values():
            fl = locks[fn.uid]
            base_must = entry_must[fn.uid] or frozenset()
            base_may = entry_may[fn.uid]
            for callee, line in fn.edges:
                if callee.uid not in locks:
                    continue
                if not _lockset_edge_ok(fn, callee):
                    continue
                cs_must = base_must | fl.line_must.get(line, frozenset())
                cs_may = base_may | fl.line_may.get(line, frozenset())
                cur = entry_must[callee.uid]
                if callee.uid in pinned:
                    new = frozenset()
                else:
                    new = cs_must if cur is None else cur & cs_must
                if new != cur:
                    entry_must[callee.uid] = new
                    changed = True
                more = entry_may[callee.uid] | cs_may
                if more != entry_may[callee.uid]:
                    entry_may[callee.uid] = more
                    changed = True
    for uid, fl in locks.items():
        fl.entry_must = entry_must[uid] or frozenset()
        fl.entry_may = entry_may[uid]
    return locks


# ----------------------------------------------------------------------
# phase 3a: shared mutable state and its accesses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Access:
    """One read or write of a shared-state candidate variable."""

    var: tuple          # ("attr", rel, cls, name) | ("global", rel, name)
    display: str
    write: bool
    fn_uid: str
    line: int
    col: int


def _local_names(fn: FuncInfo) -> tuple[set[str], set[str]]:
    """(locals, declared-global names) of a function body."""
    declared: set[str] = set()
    local: set[str] = set()
    args = fn.node.args
    for a in (args.posonlyargs + args.args + args.kwonlyargs
              + ([args.vararg] if args.vararg else [])
              + ([args.kwarg] if args.kwarg else [])):
        local.add(a.arg)
    for node in _own_nodes(fn.node):
        if isinstance(node, ast.Global):
            declared.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx,
                                                       ast.Store):
            local.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            local.add(node.name)
    return local - declared, declared


def _unwrap_container(expr: ast.expr) -> ast.expr:
    """``X[k]`` (arbitrarily nested) -> ``X``."""
    while isinstance(expr, ast.Subscript):
        expr = expr.value
    return expr


def _collect_accesses(project: Project, ctx: ContextMap,
                      index: _LockIndex) -> dict[tuple, list[_Access]]:
    """Every access to a shared-state *candidate*: class attributes of
    context-escaping classes and module globals. ``__init__`` bodies
    are excluded wholesale — construction precedes concurrency."""
    by_var: dict[tuple, list[_Access]] = {}

    def record(fn: FuncInfo, var: tuple, display: str, write: bool,
               node: ast.AST) -> None:
        by_var.setdefault(var, []).append(_Access(
            var=var, display=display, write=write, fn_uid=fn.uid,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
        ))

    for fn in project.funcs.values():
        if fn.cls is not None and fn.name in _INIT_NAMES:
            continue
        mod = fn.module
        locals_, declared_global = _local_names(fn)
        universe = index.mod_globals.get(fn.rel, set())

        def attr_var(expr: ast.expr) -> tuple[tuple, str] | None:
            if not (isinstance(expr, ast.Attribute)
                    and isinstance(expr.value, ast.Name)
                    and expr.value.id == "self"
                    and fn.cls is not None):
                return None
            if (fn.rel, fn.cls) not in ctx.escaping:
                return None
            if expr.attr not in mod.class_attr_aliases.get(fn.cls, {}):
                return None
            if index.is_sync_attr(fn.rel, fn.cls, expr.attr):
                return None
            return (("attr", fn.rel, fn.cls, expr.attr),
                    f"{fn.cls}.{expr.attr}")

        def global_var(expr: ast.expr) -> tuple[tuple, str] | None:
            if not isinstance(expr, ast.Name):
                return None
            name = expr.id
            if name not in universe or name in locals_:
                return None
            if index.is_sync_global(fn.rel, name):
                return None
            return (("global", fn.rel, name), f"{mod.dotted}.{name}")

        def classify(expr: ast.expr) -> tuple[tuple, str] | None:
            return attr_var(expr) or global_var(expr)

        for node in _own_nodes(fn.node):
            if isinstance(node, (ast.Attribute, ast.Name)):
                hit = classify(node)
                if hit is None:
                    continue
                var, display = hit
                if isinstance(node.ctx, ast.Store):
                    # plain Name stores are only global writes when
                    # declared ``global`` (locals were filtered above)
                    record(fn, var, display, True, node)
                elif isinstance(node.ctx, ast.Del):
                    record(fn, var, display, True, node)
                else:
                    record(fn, var, display, False, node)
            elif isinstance(node, ast.AugAssign):
                hit = classify(node.target)
                if hit is not None:
                    record(fn, hit[0], hit[1], True, node)
            elif isinstance(node, ast.Subscript) and isinstance(
                    node.ctx, (ast.Store, ast.Del)):
                hit = classify(_unwrap_container(node))
                if hit is not None:
                    record(fn, hit[0], hit[1], True, node)
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATORS):
                hit = classify(_unwrap_container(node.func.value))
                if hit is not None:
                    record(fn, hit[0], hit[1], True, node)
    return by_var


# ----------------------------------------------------------------------
# phase 3b: the four rules
# ----------------------------------------------------------------------
def _check_locksets(project: Project, ctx: ContextMap,
                    locks: dict[str, _FnLocks],
                    by_var: dict[tuple, list[_Access]],
                    ) -> list[Violation]:
    """RPR014: shared-modified state with no consistent lockset."""
    out: list[Violation] = []
    for var in sorted(by_var):
        accs = by_var[var]
        write_kinds: set[str] = set()
        for a in accs:
            if a.write:
                write_kinds |= ctx.kinds.get(a.fn_uid,
                                             frozenset()) - {"fork"}
        if len(write_kinds) < 2:
            continue
        display = accs[0].display
        relevant = []
        for a in accs:
            fn = project.funcs[a.fn_uid]
            if not (ctx.kinds.get(a.fn_uid, frozenset()) - {"fork"}):
                continue  # dead code or fork-only: separate memory
            if _edge_suppressed(fn, a.line, "RPR014"):
                continue  # annotated access leaves the consistency set
            relevant.append(a)
        if not relevant:
            continue
        common = frozenset.intersection(*(
            locks[a.fn_uid].must_at(a.line) for a in relevant
        ))
        if common:
            continue
        writes = sorted(
            (a for a in relevant if a.write),
            key=lambda a: (project.funcs[a.fn_uid].path, a.line, a.col),
        )
        anchor = writes[0] if writes else relevant[0]
        anchor_fn = project.funcs[anchor.fn_uid]
        quals = sorted({project.funcs[a.fn_uid].qual for a in relevant})
        shown = ", ".join(quals[:4]) + (", ..." if len(quals) > 4 else "")
        out.append(Violation(
            path=anchor_fn.path, line=anchor.line, col=anchor.col,
            code="RPR014",
            message=(
                f"shared state {display} is written from "
                f"{'+'.join(sorted(write_kinds))} contexts with no "
                f"common lock (accessed in {shown})"
            ),
        ))
    return out


def _find_cycles(graph: dict[str, set[str]]) -> list[tuple[str, ...]]:
    """Simple cycles (length >= 2), canonically rotated, via a bounded
    DFS that only explores nodes >= the start node — each cycle is
    found exactly once, already rotated to its minimum."""
    cycles: set[tuple[str, ...]] = set()
    for start in sorted(graph):
        stack = [(start, (start,))]
        while stack:
            node, path = stack.pop()
            for nxt in sorted(graph.get(node, ())):
                if nxt == start:
                    if len(path) >= 2:
                        cycles.add(path)
                elif nxt > start and nxt not in path and len(path) < 8:
                    stack.append((nxt, path + (nxt,)))
    return sorted(cycles)


def _check_lock_order(project: Project,
                      locks: dict[str, _FnLocks]) -> list[Violation]:
    """RPR015: cycles in the acquired-while-holding graph."""
    #: (held, acquired) -> (path, line, qual) of the first witness.
    edges: dict[tuple[str, str], tuple[str, int, str]] = {}
    for fn in sorted(project.funcs.values(), key=lambda f: f.uid):
        fl = locks[fn.uid]
        for lock, local_may, line in fl.acquisitions:
            if _edge_suppressed(fn, line, "RPR015"):
                continue
            for held in sorted(local_may | fl.entry_may):
                if held == lock:
                    continue
                witness = (fn.path, line, fn.qual)
                if edges.get((held, lock), witness) >= witness:
                    edges[(held, lock)] = witness
    graph: dict[str, set[str]] = {}
    for held, lock in edges:
        graph.setdefault(held, set()).add(lock)
    out: list[Violation] = []
    for cycle in _find_cycles(graph):
        path, line, qual = edges[(cycle[0], cycle[1])]
        rendered = " -> ".join(cycle + (cycle[0],))
        out.append(Violation(
            path=path, line=line, col=0, code="RPR015",
            message=(
                f"lock-order cycle {rendered} (potential deadlock; "
                f"one edge acquired in {qual})"
            ),
        ))
    return out


def _unsafe_local_ctors(fn: FuncInfo) -> set[str]:
    """Local names bound to fork-unsafe constructors in this body."""
    names: set[str] = set()
    for node in _own_nodes(fn.node):
        if not (isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)):
            continue
        canon = _canonical_call(node.value.func, fn.module)
        if canon not in _UNSAFE_INHERIT_CTORS:
            continue
        for tgt in node.targets:
            if isinstance(tgt, ast.Name):
                names.add(tgt.id)
    return names


def _check_fork_safety(project: Project, locks: dict[str, _FnLocks],
                       index: _LockIndex) -> list[Violation]:
    """RPR016: fork while a lock may be held; unsafe inheritance."""
    out: list[Violation] = []
    for fn in sorted(project.funcs.values(), key=lambda f: f.uid):
        fl = locks[fn.uid]
        unsafe_locals: set[str] | None = None
        for node in _own_nodes(fn.node):
            if not isinstance(node, ast.Call):
                continue
            canonical = _canonical_call(node.func, fn.module) or ""
            is_fork = canonical == "os.fork"
            is_proc = (
                canonical.rsplit(".", 1)[-1] == "Process"
                and any(k.arg == "target" for k in node.keywords)
            )
            if not (is_fork or is_proc):
                continue
            line = node.lineno
            site = "os.fork()" if is_fork else "Process(...)"
            held = fl.may_at(line)
            if held:
                out.append(Violation(
                    path=fn.path, line=line, col=node.col_offset,
                    code="RPR016",
                    message=(
                        f"{site} in {fn.qual} while lock(s) "
                        f"{', '.join(sorted(held))} may be held — the "
                        f"child inherits them locked forever"
                    ),
                ))
            if not is_proc:
                continue
            if unsafe_locals is None:
                unsafe_locals = _unsafe_local_ctors(fn)
            payload: list[ast.expr] = []
            for kw in node.keywords:
                if kw.arg != "target" and kw.value is not None:
                    payload.append(kw.value)
            payload.extend(a for i, a in enumerate(node.args) if i != 1)
            leaves: list[ast.expr] = []
            for expr in payload:
                if isinstance(expr, (ast.Tuple, ast.List)):
                    leaves.extend(expr.elts)
                else:
                    leaves.append(expr)
            for leaf in leaves:
                reason = None
                if isinstance(leaf, ast.Call):
                    canon = _canonical_call(leaf.func, fn.module)
                    if canon in _UNSAFE_INHERIT_CTORS:
                        reason = f"freshly constructed {canon}"
                elif (isinstance(leaf, ast.Attribute)
                        and isinstance(leaf.value, ast.Name)
                        and leaf.value.id == "self"
                        and fn.cls is not None):
                    ctors = index.attr_ctors.get(
                        (fn.rel, fn.cls, leaf.attr), set())
                    bad = sorted(ctors & _UNSAFE_INHERIT_CTORS)
                    if bad:
                        reason = (f"self.{leaf.attr} holds a "
                                  f"{bad[0]}")
                elif (isinstance(leaf, ast.Name)
                        and leaf.id in unsafe_locals):
                    reason = f"local {leaf.id!r} holds an OS handle"
                if reason is not None:
                    out.append(Violation(
                        path=fn.path, line=line, col=leaf.col_offset,
                        code="RPR016",
                        message=(
                            f"Process(...) in {fn.qual} inherits "
                            f"fork-unsafe state: {reason}"
                        ),
                    ))
    return out


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def analyze_project(project: Project) -> list[Violation]:
    """Run RPR014-RPR016 over a built project (noqa not yet applied)."""
    ctx = infer_contexts(project)
    index = _LockIndex(project)
    locks = compute_locksets(project, ctx, index)
    by_var = _collect_accesses(project, ctx, index)
    return (
        _check_locksets(project, ctx, locks, by_var)
        + _check_lock_order(project, locks)
        + _check_fork_safety(project, locks, index)
    )


def races_paths(paths: list[Path],
                baseline: dict[str, object] | None = None,
                overrides: dict[str, str] | None = None,
                ) -> list[Violation]:
    """Run the concurrency rules over the given roots; returns findings
    that are neither noqa-suppressed nor recorded in ``baseline``."""
    project = build_project(paths, overrides=overrides)
    violations = list(project.parse_errors)
    violations += _apply_noqa(project, analyze_project(project))
    if baseline:
        violations, _stale = split_baseline(violations, baseline)
    return violations


def default_races_baseline_path() -> Path:
    """``results/races_baseline.json`` at the repository root."""
    return Path(__file__).resolve().parents[3] / "results" \
        / "races_baseline.json"


def run_races_cli(args) -> int:
    """Back end of ``python -m repro.analysis races`` (see lint.main)."""
    baseline_path = args.baseline
    if baseline_path is None and not args.no_baseline:
        candidate = default_races_baseline_path()
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
    violations = races_paths(args.paths)
    if args.update_baseline:
        path = args.baseline or default_races_baseline_path()
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(stable_dumps(encode_baseline(violations)),
                        encoding="utf-8")
        print(f"wrote {len(violations)} finding(s) to {path}")
        return EXIT_CLEAN
    stale: list[tuple[str, str, str]] = []
    if baseline is not None:
        violations, stale = split_baseline(violations, baseline)
    # --select/--ignore/--changed-only narrow what is *reported*; the
    # analysis itself stays whole-program (contexts and locksets need
    # every module).
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
        "python -m repro.analysis races "
        + " ".join(str(p) for p in args.paths)
        + " --update-baseline"
    )
    if args.as_json:
        sys.stdout.write(stable_dumps({
            "violations": [v.as_dict() for v in violations],
            "count": len(violations),
            "rules": RACES_RULES,
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
