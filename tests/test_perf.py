"""The repro.perf layer: bench encoding, the regression gate, and the
stage timers (which must observe without perturbing results)."""

import gc
import json
import weakref

import pytest

from repro.config.presets import small_machine
from repro.experiments.runner import thread_traces
from repro.perf import (
    GATE_THRESHOLD,
    STAGE_NAMES,
    BenchResult,
    decode_bench_result,
    dumps_baseline,
    encode_bench_result,
    gate_check,
    install_stage_timers,
    load_baseline,
    run_bench,
    write_baseline,
)
from repro.pipeline.smt_core import SMTProcessor


def _result(**overrides):
    base = dict(
        benchmarks=("parser", "vortex"),
        scheduler="traditional",
        max_insns=4000,
        warmup=4000,
        reps=5,
        cycles=1230,
        committed=4604,
        best_elapsed_s=0.0123456789,
        cycles_per_s=99637.23456,
        insns_per_s=372923.98765,
    )
    base.update(overrides)
    return BenchResult(**base)


class TestEncoding:
    def test_round_trip_is_byte_identical(self):
        # The encode_job_result contract: encoding a fresh result and
        # re-encoding a decoded one produce the same bytes, so the
        # committed baseline never churns on float representation.
        fresh = _result()
        once = dumps_baseline(fresh)
        again = dumps_baseline(decode_bench_result(json.loads(once)))
        assert once == again

    def test_floats_are_normalised(self):
        # Ints smuggled into the float fields (e.g. a hand-edited
        # baseline) must encode exactly like their float forms.
        a = encode_bench_result(_result(cycles_per_s=50000,
                                        best_elapsed_s=1))
        b = encode_bench_result(_result(cycles_per_s=50000.0,
                                        best_elapsed_s=1.0))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert isinstance(a["cycles_per_s"], float)
        assert isinstance(a["best_elapsed_s"], float)

    def test_measured_floats_are_rounded(self):
        body = encode_bench_result(_result())
        assert body["cycles_per_s"] == 99637.2
        assert body["best_elapsed_s"] == 0.012346

    def test_counts_stay_ints(self):
        body = encode_bench_result(_result())
        for key in ("max_insns", "warmup", "reps", "cycles", "committed"):
            assert isinstance(body[key], int)

    def test_decode_inverts_encode(self):
        fresh = _result()
        decoded = decode_bench_result(encode_bench_result(fresh))
        assert decoded.benchmarks == fresh.benchmarks
        assert decoded.cycles == fresh.cycles
        assert decoded.cycles_per_s == pytest.approx(fresh.cycles_per_s,
                                                     abs=0.1)

    def test_baseline_file_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_sim_speed.json"
        fresh = _result()
        write_baseline(path, fresh)
        loaded = load_baseline(path)
        assert dumps_baseline(loaded) == path.read_text(encoding="utf-8")


class TestGate:
    def test_passes_when_faster(self):
        report = gate_check(120.0, 100.0)
        assert report.passed
        assert report.ratio == pytest.approx(1.2)

    def test_passes_within_threshold(self):
        assert gate_check(86.0, 100.0).passed

    def test_fails_past_threshold(self):
        report = gate_check(80.0, 100.0)
        assert not report.passed
        assert "REGRESSION" in report.render()

    def test_threshold_is_inclusive(self):
        assert gate_check(85.0, 100.0, threshold=0.85).passed

    def test_default_threshold_allows_15_percent(self):
        assert GATE_THRESHOLD == pytest.approx(0.85)

    def test_zero_baseline_passes_vacuously(self):
        # A fresh checkout without a blessed number never hard-fails.
        assert gate_check(100.0, 0.0).passed


class TestBenchAndTimers:
    def test_run_bench_smoke(self):
        result = run_bench(benchmarks=("parser",), max_insns=300,
                           warmup=100, reps=1)
        assert result.cycles > 0
        assert result.committed > 0
        assert result.cycles_per_s > 0
        assert result.best_elapsed_s > 0

    def test_stage_timers_do_not_change_results(self):
        cfg = small_machine(scheduler="2op_ooo")
        traces = thread_traces(["parser", "vortex"], 600, seed=0,
                               warmup=200)
        plain = SMTProcessor(cfg, traces, warmup=200).run(600)
        timed_core = SMTProcessor(cfg, traces, warmup=200)
        seconds = install_stage_timers(timed_core)
        timed = timed_core.run(600)
        assert timed == plain
        assert set(seconds) == set(STAGE_NAMES)
        assert all(v >= 0.0 for v in seconds.values())
        # The loop stepped real cycles, so the busiest stages measured
        # something.
        assert sum(seconds.values()) > 0.0

    def test_timed_core_is_freed_by_reference_counting(self):
        # With the collector off only reference counting frees a core,
        # so a timed core that refers to itself outlives its last user.
        cfg = small_machine(scheduler="2op_ooo")
        traces = thread_traces(["parser", "vortex"], 300, seed=0,
                               warmup=100)
        core = SMTProcessor(cfg, traces, warmup=100)
        seconds = install_stage_timers(core)
        core.run(300)
        freed = weakref.ref(core)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del core
            assert freed() is None
        finally:
            if enabled:
                gc.enable()
        assert sum(seconds.values()) > 0.0  # the timers did run


class TestGateCLI:
    """The ``python -m repro.perf gate`` entry point end to end, against
    a tiny baseline config so each re-measurement takes milliseconds."""

    def _baseline(self, tmp_path, cycles_per_s):
        path = tmp_path / "BENCH_sim_speed.json"
        write_baseline(path, _result(
            benchmarks=("parser",), max_insns=300, warmup=100,
            cycles_per_s=cycles_per_s,
        ))
        return path

    def test_gate_passes_against_slow_baseline(self, tmp_path, capsys):
        from repro.perf.__main__ import main
        path = self._baseline(tmp_path, cycles_per_s=1.0)
        rc = main(["gate", "--baseline", str(path), "--reps", "1"])
        assert rc == 0
        assert "perf gate OK" in capsys.readouterr().out

    def test_gate_missing_baseline_is_usage_error(self, tmp_path, capsys):
        from repro.perf.__main__ import main
        rc = main(["gate", "--baseline", str(tmp_path / "missing.json")])
        assert rc == 2
        assert "no baseline" in capsys.readouterr().err

    def test_gate_retries_then_fails_on_real_regression(self, tmp_path,
                                                        capsys):
        # An absurdly fast baseline is unreachable in every measurement
        # window, so the retry fires and the gate still (correctly)
        # fails.
        from repro.perf.__main__ import main
        path = self._baseline(tmp_path, cycles_per_s=1e12)
        rc = main(["gate", "--baseline", str(path), "--reps", "1",
                   "--retries", "1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "re-measuring" in captured.err
        assert "REGRESSION" in captured.out
