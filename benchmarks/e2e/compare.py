"""Judge a change against its parent from two sets of ``run --json``
records, by the rule of the choosing-metrics guide, section 8.

For each (workload, metric) the i-th parent record is paired with the
i-th change record (files in sorted order). The verdict is

* ``improved``   — the change wins at least 9/10 of the pairs (ties
  count for neither side) and the medians differ by more than the
  parent's interquartile range;
* ``regressed``  — the change's median is worse than the parent's by
  more than the metric's bound in BENCHMARK.json;
* ``unresolved`` — either side's interquartile range is wider than the
  bound, unless every change run reads better than every parent run;
* ``unchanged``  — none of the above.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path

#: Metrics judged beyond BENCHMARK.json's end_to_end list, as
#: (better, bound). failed_frac is 0 at a correct commit, so it cannot
#: carry a relative bound; any rise is a regression.
EXTRA_METRICS = {"failed_frac": ("lower", 0.0)}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


@dataclass(frozen=True)
class Verdict:
    verdict: str
    parent: tuple[float, float, float]
    change: tuple[float, float, float]
    #: Fraction of pairs in which the change read better.
    wins: float
    pairs: int


def judge(parent: list[float], change: list[float], better: str,
          bound: float) -> Verdict:
    """Apply the section 8 rule to one (workload, metric)."""
    sign = 1.0 if better == "higher" else -1.0
    p = quartiles(parent)
    c = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(sign * (cv - pv) > 0 for pv, cv in pairs) / len(pairs)
    limit = bound * abs(p[1])
    gain = sign * (c[1] - p[1])
    all_better = (min(change) > max(parent) if sign > 0
                  else max(change) < min(parent))
    if wins >= 0.9 and gain > p[2] - p[0]:
        verdict = "improved"
    elif -gain > limit:
        verdict = "regressed"
    elif max(p[2] - p[0], c[2] - c[0]) > limit and not all_better:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return Verdict(verdict, p, c, wins, len(pairs))


def load_records(paths: list[Path]) -> list[dict]:
    """The run record in each file: its first JSON line with workloads."""
    records = []
    for path in sorted(paths):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("{") and '"workloads"' in line:
                    records.append(json.loads(line))
                    break
            else:
                raise ValueError(f"{path}: no `run --json` record found")
    return records


def compare(parent: list[dict], change: list[dict],
            end_to_end: list[dict]) -> dict[str, dict[str, Verdict]]:
    """workload -> metric -> verdict, over the workloads both sides ran.

    A record may hold any subset of the workloads; each workload is
    judged on the records that hold it. A run whose repetitions all
    failed holds only ``failed_frac``, so each metric is judged on the
    records that have it, and gets no verdict if one side has none.
    ``end_to_end`` is BENCHMARK.json's list of metric entries.
    """
    rules = {m["name"]: (m["better"], m["bound"]) for m in end_to_end}
    rules.update(EXTRA_METRICS)
    out: dict[str, dict[str, Verdict]] = {}
    for w in dict.fromkeys(w for rec in parent for w in rec["workloads"]):
        p = [r["workloads"][w]["metrics"] for r in parent
             if w in r["workloads"]]
        c = [r["workloads"][w]["metrics"] for r in change
             if w in r["workloads"]]
        if not c:
            continue
        out[w] = {}
        for metric, (better, bound) in rules.items():
            pv = [m[metric]["median"] for m in p if metric in m]
            cv = [m[metric]["median"] for m in c if metric in m]
            if pv and cv:
                out[w][metric] = judge(pv, cv, better, bound)
    return out


def render(table: dict[str, dict[str, Verdict]]) -> str:
    """One row of verdicts per workload, then each cell's numbers."""
    if not table:
        return "no workload in common"
    metrics = list(dict.fromkeys(m for row in table.values() for m in row))
    width = max(len(w) for w in table) + 2
    lines = ["workload".ljust(width)
             + "".join(m.rjust(17) for m in metrics)]
    for w, row in table.items():
        lines.append(w.ljust(width) + "".join(
            (row[m].verdict if m in row else "-").rjust(17)
            for m in metrics))
    lines.append("")
    for w, row in table.items():
        for m, v in row.items():
            lines.append(
                f"{w} {m}: parent {v.parent[1]:.6g} [{v.parent[0]:.6g}, "
                f"{v.parent[2]:.6g}]  change {v.change[1]:.6g} "
                f"[{v.change[0]:.6g}, {v.change[2]:.6g}]  change won "
                f"{v.wins:.0%} of {v.pairs} pairs -> {v.verdict}"
            )
    return "\n".join(lines)
