"""Tests of the end-to-end benchmark: ``python -m pytest benchmarks/e2e``.

Every run uses ``--scale smoke``: each workload cut to at most 6 points
of 500 instructions.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import cli, hostspeed
from benchmarks.e2e.cli import E2E_UNITS
from benchmarks.e2e.compare import compare, judge, render
from benchmarks.e2e.tracing import (
    LAYER_UNITS,
    LAYERS,
    Span,
    Tracer,
    load_spans,
    self_times,
)
from benchmarks.e2e.workloads import FULL_WORKLOADS, OUT_DIR, workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _main(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )


def _smoke(*args: str) -> subprocess.CompletedProcess:
    return _main("run", "--scale", "smoke", *args)


@pytest.fixture(scope="module")
def traced():
    """All four workloads, one untraced and one traced repetition."""
    proc = _smoke("--reps", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.fixture(scope="module")
def single():
    """One workload, invoked the way an external runner does."""
    proc = _smoke("--workload", "fig3", "--seed", "0", "--seconds", "0.1",
                  "--trace", "0", "--json")
    assert proc.returncode == 0, proc.stderr
    return proc


def _lines(proc) -> tuple[dict, dict]:
    """The run record (with --json) and the last line."""
    lines = proc.stdout.splitlines()
    return json.loads(lines[0]), json.loads(lines[-1])


def test_end_to_end_metrics_printed_with_units(single):
    record, last = _lines(single)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in last["metrics"].values())
    printed = record["workloads"]["fig3"]["metrics"]
    assert {k: v["unit"] for k, v in printed.items()} == E2E_UNITS
    assert printed["failed_frac"]["median"] == 0.0


def test_layer_metrics_printed_with_units(traced):
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert declared == LAYER_UNITS
    last = json.loads(traced.stdout.splitlines()[-1])
    assert last["correct"] is True
    for workload in FULL_WORKLOADS:
        for name, unit in declared.items():
            assert last["metrics"][f"{workload}/{name}"]["unit"] == unit
    for name, unit in {**E2E_UNITS, **declared}.items():
        rows = [line.split() for line in traced.stdout.splitlines()
                if line.split()[:1] == [name]]
        assert len(rows) == len(FULL_WORKLOADS), name
        assert all(row[2] == unit for row in rows), name


def test_pool_counts_and_cache_reuse(traced):
    last = json.loads(traced.stdout.splitlines()[-1])["metrics"]
    # Figure 1's slice (4 smoke points) is read back from the cache
    # while Figure 3 (6 points) simulates only its 2op_ooo third.
    assert last["figures-pool/exec.simulated"]["value"] == 6
    assert last["figures-pool/exec.cached"]["value"] == 4
    assert last["fig3/model.cycles"] == last["figures-pool/model.cycles"]


def _run_in_process(capsys, workload: str) -> tuple[int, dict, dict]:
    """``run`` at smoke scale in this process; the repetitions still run
    in subprocesses. Returns the exit code, run record and last line."""
    code = cli.main(["run", "--scale", "smoke", "--workload", workload,
                     "--reps", "1", "--json"])
    lines = capsys.readouterr().out.splitlines()
    return code, json.loads(lines[0]), json.loads(lines[-1])


def test_tampered_digest_fails_the_run(tmp_path, monkeypatch, capsys):
    golden = json.loads(cli.GOLDEN.read_text(encoding="utf-8"))
    digest = golden["smoke"]["fig3"]["0"]
    golden["smoke"]["fig3"]["0"] = digest[::-1]
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden), encoding="utf-8")
    monkeypatch.setattr(cli, "GOLDEN", path)
    code, record, last = _run_in_process(capsys, "fig3")
    assert code == 1
    assert last["correct"] is False
    assert last["failed"] == last["attempted"]
    assert record["workloads"]["fig3"]["metrics"]["failed_frac"]["median"] \
        == 1.0


@pytest.mark.parametrize("attr, value", [
    # A repetition that crashes.
    ("REP_COMMAND", [sys.executable, "-c", "raise SystemExit(3)"]),
    # A repetition still running at the workload's deadline.
    ("WORKLOAD_TIMEOUT_S", 0.05),
])
def test_failed_repetition_still_ends_with_a_result(monkeypatch, capsys,
                                                    attr, value):
    monkeypatch.setattr(cli, attr, value)
    # The pool workload also reaches the check against fig3's digest.
    code, record, last = _run_in_process(capsys, "figures-pool")
    assert code == 1
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is False
    assert last["attempted"] == 10 and last["failed"] == last["attempted"]
    assert record["workloads"]["figures-pool"]["errors"]


def test_traced_self_times_within_parent(traced):
    for workload in FULL_WORKLOADS:
        spans = load_spans(OUT_DIR / f"trace-{workload}-smoke-seed0.jsonl")
        by_id = {s.id: s for s in spans}
        own = self_times(spans)
        assert {s.name.split(".")[0] for s in spans} - {hostspeed.SPAN} \
            == set(LAYERS)
        for s in spans:
            assert own[s.id] >= -1e-9
            if s.parent is not None:
                assert own[s.id] <= by_id[s.parent].duration + 1e-9


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("p", None, "exec", 0.0, 10.0, None),
        Span("a", "p", "exec.job", 1.0, 6.0, "h1"),
        Span("b", "p", "exec.job", 4.0, 8.0, "h2"),
        Span("c", "a", "core", 2.0, 3.0, "h1"),
    ]
    own = self_times(spans)
    assert own == pytest.approx({"p": 3.0, "a": 4.0, "b": 4.0, "c": 1.0})


# -- host speed -----------------------------------------------------------
def test_host_speed_is_nominal_over_the_mean_sample():
    nominal = hostspeed.NOMINAL_S
    # Each sample took twice the nominal wall time, but only 1.25 times
    # the nominal CPU time: the core was taken away part of the time.
    spans = [
        Span("a", None, hostspeed.SPAN, 0.0, 2 * nominal, None,
             {"cpu_s": nominal}),
        Span("b", None, hostspeed.SPAN, 1.0, 1.0 + 2 * nominal, None,
             {"cpu_s": 1.5 * nominal}),
        Span("c", None, "core", 0.0, 5.0, None),
    ]
    speed = hostspeed.measure(spans)
    assert speed.wall == pytest.approx(0.5)
    assert speed.cpu == pytest.approx(0.8)
    assert speed.sampled_wall_s == pytest.approx(4 * nominal)
    assert speed.sampled_cpu_s == pytest.approx(2.5 * nominal)


def test_pool_workers_sample_host_speed(tmp_path, monkeypatch):
    from repro.exec import ExecutorConfig, SimJob, execute_jobs

    # Restored after the test: install() replaces SimJob.run.
    monkeypatch.setattr(SimJob, "run", SimJob.run)
    monkeypatch.setattr(hostspeed, "PERIOD_S", 0.005)
    tracer = Tracer(tmp_path)
    hostspeed.install(tracer)
    jobs = workloads("smoke")["fig3"].phases[0].jobs(0)[:2]
    execute_jobs(jobs, ExecutorConfig(jobs=2))
    samples = [s for s in tracer.collect() if s.name == hostspeed.SPAN]
    workers = {s.id.split(".")[0] for s in samples}
    assert samples and str(os.getpid()) not in workers
    assert not list(tmp_path.iterdir())  # worker files merged and removed


# -- compare --------------------------------------------------------------
PARENT = [10.0, 10.2, 9.9, 10.1, 10.05, 9.95, 10.15, 9.85, 10.0, 10.1]


def test_compare_improved_at_nine_of_ten_wins():
    change = [p * 0.8 for p in PARENT]
    change[3] = PARENT[3] * 1.01  # one lost pair
    v = judge(PARENT, change, "lower", 0.1)
    assert v.wins == pytest.approx(0.9) and v.verdict == "improved"
    change[4] = PARENT[4] * 1.01  # 8/10 no longer claims a gain
    assert judge(PARENT, change, "lower", 0.1).verdict == "unchanged"


def test_compare_ties_count_for_neither_side():
    v = judge(PARENT, list(PARENT), "higher", 0.1)
    assert v.wins == 0.0 and v.verdict == "unchanged"


def test_compare_wide_spread_is_unresolved():
    wide = [6.0, 14.0, 8.0, 12.0, 7.0, 13.0, 9.0, 11.0, 10.0, 10.0]
    reordered = [13.0, 7.0, 10.0, 9.0, 14.0, 6.0, 11.0, 10.0, 12.0, 8.0]
    assert judge(wide, reordered, "lower", 0.1).verdict == "unresolved"


def test_compare_regression_past_the_bound():
    assert judge(PARENT, [p * 1.2 for p in PARENT], "lower",
                 0.1).verdict == "regressed"
    assert judge(PARENT, [p * 0.95 for p in PARENT], "higher",
                 0.1).verdict == "unchanged"


def test_compare_judges_failed_runs_on_failed_frac():
    ok = {m["name"]: {"median": 1.0} for m in SPEC["end_to_end"]}
    ok["failed_frac"] = {"median": 0.0}
    broken = {"failed_frac": {"median": 1.0}}  # no repetition measured

    def records(metrics: dict) -> list[dict]:
        return [{"workloads": {"fig3": {"metrics": metrics}}}] * 3

    table = compare(records(ok), records(broken), SPEC["end_to_end"])
    assert list(table["fig3"]) == ["failed_frac"]
    assert table["fig3"]["failed_frac"].verdict == "regressed"
    assert "regressed" in render(table).splitlines()[1]


def test_compare_command_reads_run_records(tmp_path):
    def record(scale: float) -> str:
        metrics = {m["name"]: {"median": 10.0 * scale}
                   for m in SPEC["end_to_end"]}
        metrics["failed_frac"] = {"median": 0.0}
        return json.dumps({"workloads": {"fig3": {"metrics": metrics}}})

    for i, p in enumerate(PARENT):
        (tmp_path / f"A{i}.json").write_text(record(p / 10) + "\n{}\n")
        (tmp_path / f"B{i}.json").write_text(record(p / 10 * 1.3) + "\n")
    proc = _main("compare", "--parent", str(tmp_path / "A*.json"),
                 "--change", str(tmp_path / "B*.json"))
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines()[1].split()[0] == "fig3"
    assert "regressed" in proc.stdout.splitlines()[1]
