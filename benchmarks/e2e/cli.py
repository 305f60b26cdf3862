"""``python -m benchmarks.e2e run | compare``.

``run`` measures each workload in fresh subprocesses (the internal
``rep`` command), checks the simulated results and prints every metric
by name with its unit. Its last line of output is always one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics, or with ``--trace 1`` the
per-layer ones. Metric names carry a ``<workload>/`` prefix when more
than one workload ran.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import signal
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

from benchmarks.e2e import hostspeed
from benchmarks.e2e.clock import now
from benchmarks.e2e.compare import compare, load_records, quartiles, render
from benchmarks.e2e.tracing import (
    LAYER_UNITS,
    LAYERS,
    Tracer,
    dump_spans,
    install,
    layer_metrics,
)
from benchmarks.e2e.workloads import (
    DEFAULT_SEED,
    OUT_DIR,
    SCALES,
    FULL_WORKLOADS,
    run_rep,
    workloads,
)
from repro.util.encoding import stable_dumps

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).resolve().parent / "golden.json"

#: End-to-end metrics and their units. All but the last two are listed
#: in BENCHMARK.json. host_speed, which the times are rescaled by, is
#: the host's and not the program's. failed_frac is 0 at a correct
#: commit, so it is reported here and as `failed` / `attempted` in the
#: last line.
E2E_UNITS = {
    "wall_s": "s",
    "sim_insns_per_s": "insn/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "host_speed": "ratio",
    "failed_frac": "ratio",
}
MEASURED_E2E = [m for m in E2E_UNITS if m != "failed_frac"]
CONTRACT_E2E = [m for m in MEASURED_E2E if m != "host_speed"]

#: The repetitions of one workload must all end within this many
#: seconds; the one running at the deadline is killed and counted as
#: failed, so a broken or much slower change still ends with a result.
WORKLOAD_TIMEOUT_S = 170.0

#: Set-ups measured per workload at the least, so that setup_s is a
#: median of several even when a run has time for one repetition: the
#: repetitions are topped up with processes that stop after set-up.
MIN_SETUPS = 5

#: How a repetition is started; its arguments are appended.
REP_COMMAND = [sys.executable, "-m", "benchmarks.e2e", "rep"]


def _spawn(name: str, args, jobs: int, deadline: float,
           *flags: str) -> dict:
    """Run one repetition in a fresh subprocess, with ``flags`` added to
    its command; returns its record.

    A repetition that crashes or is still running at ``deadline`` gives
    a record of its ``jobs`` jobs with an error and no measurements.
    """
    cmd = [*REP_COMMAND, "--workload", name, "--seed", str(args.seed),
           "--scale", args.scale, "--spawned-at", repr(now()), *flags]
    # Its own session, so a timeout or interrupt can stop its pool
    # workers along with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - now(), 0.0))
    except subprocess.TimeoutExpired:
        out = None
    finally:
        if proc.returncode is None:  # timed out or interrupted
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if out is None:
        return {"jobs": jobs, "errors": [
            f"repetition still running after {WORKLOAD_TIMEOUT_S:g} s"]}
    if proc.returncode != 0:
        sys.stderr.write(err)
        last = (err.strip().splitlines() or [""])[-1]
        return {"jobs": jobs, "errors": [
            f"repetition exited with {proc.returncode}: {last}"]}
    return json.loads(out.splitlines()[-1])


def _stat(values: list[float], unit: str) -> dict:
    q1, median, q3 = quartiles(values)
    return {"unit": unit, "median": median, "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values),
            "samples": values}


def _measure(name: str, args, expected: str | None) -> dict:
    """All repetitions of one workload, summarised and checked.

    Repetitions stop at the first one with an error; a run with errors
    reports only the measurements of its error-free repetitions.
    """
    wl = workloads(args.scale)[name]
    jobs = sum(len(grid.jobs(args.seed)) for grid in wl.phases)
    untraced: list[dict] = []
    traced: list[dict] = []
    start = now()
    deadline = start + WORKLOAD_TIMEOUT_S
    while True:
        round_start = now()
        untraced.append(_spawn(name, args, jobs, deadline))
        if args.trace and not untraced[-1]["errors"]:
            traced.append(_spawn(name, args, jobs, deadline, "--traced"))
        print(f"{name}: repetition {len(untraced)} done", file=sys.stderr)
        if any(r["errors"] for r in untraced + traced):
            break
        if args.seconds:
            # Stop when one more round as long as the last would end
            # past the time given.
            end = now()
            if 2 * end - round_start - start > args.seconds:
                break
        elif len(untraced) >= args.reps:
            break
    measured = [r for r in untraced if not r["errors"]]
    setups = list(measured)
    while setups and len(setups) < MIN_SETUPS:
        setups.append(_spawn(name, args, 0, deadline, "--setup-only"))
        if setups[-1]["errors"]:
            break

    reps = untraced + traced
    errors = sorted({e for r in reps + setups for e in r["errors"]})
    if not errors:
        if expected is not None and any(r["digest"] != expected
                                        for r in reps):
            errors.append(f"results digest differs from golden {expected}")
        if len({r["digest"] for r in reps}) > 1:
            errors.append("repetitions produced different results")
    attempted = sum(r["jobs"] for r in reps)
    failed = attempted if errors else sum(r["failed"] for r in reps)

    metrics = ({m: _stat([r[m] for r in measured], E2E_UNITS[m])
                for m in MEASURED_E2E} if measured else {})
    if measured:
        metrics["setup_s"] = _stat(
            [r["setup_s"] for r in setups if not r["errors"]], "s")
    metrics["failed_frac"] = _stat([failed / attempted], "ratio")
    out = {
        "jobs_per_rep": jobs,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "digest": untraced[0].get("digest"),
        "phase_digests": untraced[0].get("phase_digests", []),
        "metrics": metrics,
    }
    if traced and not errors:
        layers = {m: _stat([r["layers"][m] for r in traced], LAYER_UNITS[m])
                  for m in LAYER_UNITS if m != "tracing.overhead"}
        overhead = [r["wall_s"] / metrics["wall_s"]["median"] - 1.0
                    for r in traced]
        layers["tracing.overhead"] = _stat(overhead, "ratio")
        out["layers"] = layers
    return out


def _render(name: str, summary: dict, args) -> str:
    status = "ok" if not summary["errors"] else "FAILED"
    lines = [f"== {name}: {summary['jobs_per_rep']} jobs per repetition, "
             f"seed {args.seed}, {args.scale} scale, results {status}"]
    lines += [f"   ! {e}" for e in summary["errors"]]
    sections = [summary["metrics"]]
    if "layers" in summary:
        self_s = {layer: summary["layers"][f"{layer}.self_s"]["median"]
                  for layer in LAYERS}
        total = sum(self_s.values()) or 1.0
        split = "  ".join(f"{layer} {v / total:.1%}"
                          for layer, v in self_s.items())
        lines.append(f"   traced self-time split: {split}")
        sections.append(summary["layers"])
    for section in sections:
        for metric, s in section.items():
            lines.append(
                f"   {metric:<24} {s['median']:>14.6g} {s['unit']:<10} "
                f"min {s['min']:.6g}  max {s['max']:.6g}  n={s['n']}")
    return "\n".join(lines)


def cmd_run(args) -> int:
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    known = golden.setdefault(args.scale, {})
    summaries: dict[str, dict] = {}
    for name in args.workload or list(FULL_WORKLOADS):
        expected = (None if args.update_golden
                    else known.get(name, {}).get(str(args.seed)))
        summaries[name] = _measure(name, args, expected)

    pool = summaries.get("figures-pool")
    fig3 = (known.get("fig3", {}).get(str(args.seed))
            if not args.update_golden else None)
    if fig3 is None and "fig3" in summaries:
        fig3 = summaries["fig3"]["digest"]
    # A pool run without errors has the digest of every phase; the last
    # phase is the Figure-3 grid.
    if (pool is not None and fig3 is not None and not pool["errors"]
            and pool["phase_digests"][-1] != fig3):
        pool["errors"].append("Figure-3 results differ from fig3's")
        pool["failed"] = pool["attempted"]
        pool["metrics"]["failed_frac"] = _stat([1.0], "ratio")

    if args.update_golden:
        for name, s in summaries.items():
            if not s["errors"]:
                known.setdefault(name, {})[str(args.seed)] = s["digest"]
        GOLDEN.write_text(stable_dumps(golden), encoding="utf-8")

    correct = not any(s["errors"] for s in summaries.values())
    attempted = sum(s["attempted"] for s in summaries.values())
    failed = sum(s["failed"] for s in summaries.values())
    if args.json:
        print(json.dumps({
            "seed": args.seed, "scale": args.scale, "trace": args.trace,
            "host": {"nproc": os.cpu_count(),
                     "python": platform.python_version()},
            "correct": correct, "attempted": attempted, "failed": failed,
            "workloads": summaries,
        }))
    else:
        for name, s in summaries.items():
            print(_render(name, s, args))

    # A workload with errors may lack measurements; it reports what it has.
    metrics = {}
    for name, s in summaries.items():
        section, names = ((s.get("layers", {}), LAYER_UNITS) if args.trace
                          else (s["metrics"], CONTRACT_E2E))
        for m in names:
            if m in section:
                key = m if len(summaries) == 1 else f"{name}/{m}"
                metrics[key] = {"value": section[m]["median"],
                                "unit": section[m]["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def cmd_rep(args) -> int:
    OUT_DIR.mkdir(exist_ok=True)
    wl = workloads(args.scale)[args.workload]
    # Untraced, the tracer records only the host-speed samples.
    tracer = Tracer(OUT_DIR)
    hostspeed.install(tracer)
    if args.traced:
        install(tracer)
    rec, spans = run_rep(wl, args.seed, args.spawned_at, tracer,
                         args.setup_only)
    if args.traced:
        dump_spans(spans, OUT_DIR / f"trace-{wl.name}-{args.scale}"
                                    f"-seed{args.seed}.jsonl")
        rec["layers"] = layer_metrics(spans, rec, wl.workers)
    print(json.dumps(rec))
    return 0


def cmd_compare(args) -> int:
    def expand(patterns: list[str]) -> list[Path]:
        paths = [Path(p) for pat in patterns for p in glob.glob(pat)]
        if not paths:
            raise SystemExit(f"no files match {patterns}")
        return paths

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    table = compare(load_records(expand(args.parent)),
                    load_records(expand(args.change)), spec["end_to_end"])
    if args.json:
        print(json.dumps({w: {m: asdict(v) for m, v in row.items()}
                          for w, row in table.items()}))
    else:
        print(render(table))
    regressed = any(v.verdict == "regressed"
                    for row in table.values() for v in row.values())
    return 1 if regressed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="measure workloads and check results")
    run.add_argument("--workload", action="append",
                     choices=list(FULL_WORKLOADS),
                     help="repeatable; default: all four")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--scale", choices=SCALES, default="full")
    run.add_argument("--reps", type=int, default=3,
                     help="untraced repetitions per workload")
    run.add_argument("--seconds", type=float, default=0.0,
                     help="instead of --reps, repeat while one more "
                          "repetition would end within this many seconds "
                          "(at least one repetition)")
    run.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                     const=1, default=0,
                     help="also run a traced repetition after each "
                          "untraced one; the last line then holds the "
                          "per-layer metrics")
    run.add_argument("--json", action="store_true",
                     help="print the full run record as one JSON line")
    run.add_argument("--update-golden", action="store_true",
                     help="record this run's digests as the golden ones")
    run.set_defaults(func=cmd_run)

    cmp_ = sub.add_parser("compare", help="judge a change against a parent")
    cmp_.add_argument("--parent", nargs="+", required=True,
                      help="run --json outputs of the parent (globs ok)")
    cmp_.add_argument("--change", nargs="+", required=True)
    cmp_.add_argument("--json", action="store_true")
    cmp_.set_defaults(func=cmd_compare)

    rep = sub.add_parser("rep", help=argparse.SUPPRESS)
    rep.add_argument("--workload", required=True)
    rep.add_argument("--seed", type=int, required=True)
    rep.add_argument("--scale", choices=SCALES, required=True)
    rep.add_argument("--spawned-at", type=float, required=True)
    rep.add_argument("--traced", action="store_true")
    rep.add_argument("--setup-only", action="store_true")
    rep.set_defaults(func=cmd_rep)

    args = parser.parse_args(argv)
    return args.func(args)
