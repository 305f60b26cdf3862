"""Microarchitecture-aware mutation operators over Python ASTs.

Each operator encodes a fault class that has historically produced
*plausible* simulator bugs — the kind that keep the pipeline running
and the stats well-formed while quietly computing the wrong answer:

==============  ========================================================
operator        fault class
==============  ========================================================
cmp-boundary    off-by-one a comparison (``<`` ↔ ``<=``, ``>`` ↔ ``>=``)
                — dispatch-width, IQ-capacity and DAB-size boundary
                checks
cmp-swap        reverse a comparison (``<`` ↔ ``>``, ``<=`` ↔ ``>=``)
                — scheduler-ordering comparators picking the *wrong
                end* of a priority order
stat-drop       delete a counter increment (``x.y += e`` → ``pass``)
                — lost stat/stall attribution
stat-double     double a counter increment (``x.y += e`` →
                ``x.y += 2 * e``) — double-counted events
mod-shift       rotate a modulo by one (``a % b`` → ``(a + 1) % b``)
                — perturbed round-robin rotation / priority order
minmax-swap     swap ``min()`` and ``max()`` — credit clamping and
                width-limiting picks
const-nudge     nudge an integer literal inside a comparison by +1
                — latencies, widths, sizes
lock-drop       delete a ``with <lock>:`` guard (``if True:`` keeps
                the body) — unguarded shared state
==============  ========================================================

The module is deliberately dumb and pure: :func:`proposals_for` says
which ``(operator, slot)`` pairs apply to a single AST node,
:func:`build_mutation` produces the replacement for one of them
(leaving the input node untouched), :func:`sites_for_function`
enumerates every site in a function, and :func:`apply_to_module`
re-locates a site inside a freshly parsed module tree and rewrites it.
Everything is keyed by the node's exact source span, so a site
enumerated from one parse can be applied to another parse of the same
source. Policy — *which* functions to mutate, how to execute mutants,
what counts as a kill — lives in :mod:`repro.analysis.mutate`.
"""

from __future__ import annotations

import ast
import copy
import re
from dataclasses import dataclass

from repro.exec.jobs import hash_payload

#: operator name -> one-line description (rendered in reports/docs).
OPERATORS: dict[str, str] = {
    "cmp-boundary": "off-by-one a comparison (< ↔ <=, > ↔ >=)",
    "cmp-swap": "reverse a comparison's direction (< ↔ >, <= ↔ >=)",
    "stat-drop": "delete a counter increment (x.y += e → pass)",
    "stat-double": "double a counter increment (x.y += e → x.y += 2*e)",
    "mod-shift": "rotate a modulo by one (a % b → (a + 1) % b)",
    "minmax-swap": "swap min() and max()",
    "const-nudge": "nudge an integer literal in a comparison by +1",
    "lock-drop": "delete a lock guard (with lock: body → if True: body)",
}

_CMP_BOUNDARY: dict[type, type] = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
}
_CMP_SWAP: dict[type, type] = {
    ast.Lt: ast.Gt, ast.Gt: ast.Lt, ast.LtE: ast.GtE, ast.GtE: ast.LtE,
}

#: Attribute names that mark an ``x.y += e`` statement as a counter
#: update even when the chain does not go through a ``.stats`` hop
#: (stall attribution often lives directly on the unit).
_COUNTER_HINT = re.compile(
    r"(stall|cycle|count|insn|fetch|commit|flush|bubble|issue|"
    r"dispatch|rename|retire|drain|miss|hit|slot|occupanc)"
)

#: Lock-named context managers (``with self._lock:``, ``with
#: _LIVE_LOCK:``) — the concurrency-fault sites.
_LOCKISH_HINT = re.compile(r"(^|_)(lock|mutex)(_|$)", re.IGNORECASE)


def _lockish_item(item: ast.withitem) -> bool:
    expr = item.context_expr
    if isinstance(expr, ast.Attribute):
        name = expr.attr
    elif isinstance(expr, ast.Name):
        name = expr.id
    else:
        return False
    return bool(_LOCKISH_HINT.search(name))


def _span(node: ast.AST) -> tuple[int, int, int, int]:
    """The node's exact source extent — the site's identity."""
    return (node.lineno, node.col_offset,
            node.end_lineno, node.end_col_offset)


def _is_counter_update(node: ast.AugAssign) -> bool:
    if not isinstance(node.op, ast.Add):
        return False
    if not isinstance(node.target, ast.Attribute):
        return False
    names: list[str] = []
    cur: ast.expr = node.target
    while isinstance(cur, ast.Attribute):
        names.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        names.append(cur.id)
    return "stats" in names or bool(_COUNTER_HINT.search(node.target.attr))


def proposals_for(node: ast.AST) -> list[tuple[str, int]]:
    """Every ``(operator, slot)`` applicable to this one node.

    The slot disambiguates multiple applications to the same node: the
    comparator index in a chained comparison, or the operand index for
    constant nudges (0 = left operand, ``i + 1`` = ``comparators[i]``).
    Order is deterministic (operator table order, then slot).
    """
    out: list[tuple[str, int]] = []
    if isinstance(node, ast.Compare):
        for i, cmp_op in enumerate(node.ops):
            if type(cmp_op) in _CMP_BOUNDARY:
                out.append(("cmp-boundary", i))
            if type(cmp_op) in _CMP_SWAP:
                out.append(("cmp-swap", i))
        for i, operand in enumerate((node.left, *node.comparators)):
            if (isinstance(operand, ast.Constant)
                    and type(operand.value) is int):
                out.append(("const-nudge", i))
    elif isinstance(node, ast.AugAssign) and _is_counter_update(node):
        out.append(("stat-drop", 0))
        out.append(("stat-double", 0))
    elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
        out.append(("mod-shift", 0))
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("min", "max") and node.args
            and not node.keywords):
        out.append(("minmax-swap", 0))
    elif (isinstance(node, (ast.With, ast.AsyncWith))
            and any(_lockish_item(item) for item in node.items)):
        out.append(("lock-drop", 0))
    return out


def build_mutation(node: ast.AST, op: str, slot: int) -> ast.AST:
    """The mutated replacement for ``node`` under ``(op, slot)``.

    Works on a deep copy — the input tree is never modified — and
    returns a located node ready to substitute in place.
    """
    new = copy.deepcopy(node)
    if op in ("cmp-boundary", "cmp-swap"):
        table = _CMP_BOUNDARY if op == "cmp-boundary" else _CMP_SWAP
        new.ops[slot] = table[type(new.ops[slot])]()
    elif op == "const-nudge":
        operand = (new.left, *new.comparators)[slot]
        operand.value = operand.value + 1
    elif op == "stat-drop":
        return ast.copy_location(ast.Pass(), node)
    elif op == "stat-double":
        new.value = ast.copy_location(
            ast.BinOp(left=ast.Constant(2), op=ast.Mult(), right=new.value),
            new.value,
        )
    elif op == "mod-shift":
        new.left = ast.copy_location(
            ast.BinOp(left=new.left, op=ast.Add(), right=ast.Constant(1)),
            new.left,
        )
    elif op == "minmax-swap":
        new.func.id = "max" if new.func.id == "min" else "min"
    elif op == "lock-drop":
        # ``if True:`` keeps the body a single indented block (one
        # located node, unparses cleanly) while erasing the guard.
        return ast.fix_missing_locations(ast.copy_location(
            ast.If(test=ast.Constant(True), body=new.body, orelse=[]),
            node,
        ))
    else:
        raise ValueError(f"unknown mutation operator {op!r}")
    return ast.fix_missing_locations(new)


@dataclass(frozen=True)
class MutationSite:
    """One applicable mutation, addressed by source span.

    ``path`` is repository-root-relative (posix), so the content-hash
    id is stable across checkouts and machines.
    """

    path: str
    module: str         # dotted module name, e.g. repro.pipeline.iq
    qual: str           # enclosing function/method qualname
    op: str
    slot: int
    span: tuple[int, int, int, int]
    before: str         # unparsed original sub-node
    after: str          # unparsed mutated sub-node

    @property
    def mutant_id(self) -> str:
        """Deterministic content-hash id of (path, node span, operator)."""
        digest = hash_payload({
            "path": self.path,
            "span": list(self.span),
            "op": self.op,
            "slot": self.slot,
        })
        return f"m{digest[:12]}"

    @property
    def line(self) -> int:
        return self.span[0]

    def spec(self) -> dict[str, object]:
        """JSON-safe form, sufficient to re-apply the mutation."""
        return {
            "id": self.mutant_id,
            "path": self.path,
            "module": self.module,
            "qual": self.qual,
            "op": self.op,
            "slot": self.slot,
            "span": list(self.span),
            "before": self.before,
            "after": self.after,
        }


def sites_for_function(fn_node: ast.AST, path: str, module: str,
                       qual: str) -> list[MutationSite]:
    """Enumerate every mutation site inside one function body."""
    out: list[MutationSite] = []
    for node in ast.walk(fn_node):
        for op, slot in proposals_for(node):
            out.append(MutationSite(
                path=path, module=module, qual=qual, op=op, slot=slot,
                span=_span(node),
                before=ast.unparse(node),
                after=ast.unparse(build_mutation(node, op, slot)),
            ))
    out.sort(key=lambda s: (s.span, s.op, s.slot))
    return out


class SiteNotFound(ValueError):
    """The site's span no longer matches the source being mutated."""


class _Applier(ast.NodeTransformer):
    def __init__(self, span: tuple[int, int, int, int], op: str,
                 slot: int) -> None:
        self.span = span
        self.op = op
        self.slot = slot
        self.matches = 0

    def visit(self, node: ast.AST) -> ast.AST:
        if (getattr(node, "lineno", None) is not None
                and _span(node) == self.span
                and (self.op, self.slot) in proposals_for(node)):
            self.matches += 1
            return build_mutation(node, self.op, self.slot)
        return self.generic_visit(node)


def apply_to_module(tree: ast.Module, spec: dict[str, object]) -> ast.Module:
    """Rewrite ``tree`` in place with the mutation described by ``spec``.

    The site must match exactly once; anything else means the source
    has drifted since enumeration and raises :class:`SiteNotFound`.
    """
    span = tuple(int(x) for x in spec["span"])
    applier = _Applier(span, str(spec["op"]), int(spec["slot"]))
    new_tree = applier.visit(tree)
    if applier.matches != 1:
        raise SiteNotFound(
            f"mutation site {spec.get('id', '?')} matched "
            f"{applier.matches} node(s) at span {span} in {spec['path']}"
        )
    return ast.fix_missing_locations(new_tree)
