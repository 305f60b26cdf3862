"""Tests for the parallel grid-execution engine (``repro.exec``).

Covers the determinism guarantee (jobs=1 vs jobs=4 byte-identical over
a >= 12-point grid), every cache path (hit / miss / corrupt entry /
schema mismatch), worker-crash retry and per-job timeout, content-hash
stability, input validation at job and executor-config construction,
the live-worker registry's lock, and the slot-trace memoisation in the
runner.
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

import repro.exec.pool as pool_mod
from repro.config.presets import small_machine
from repro.exec import (
    SCHEMA_VERSION,
    ExecutionError,
    ExecutorConfig,
    ResultCache,
    SimJob,
    execute_jobs,
    jobs_for_grid,
)
from repro.exec.__main__ import main as exec_main
from repro.exec.jobs import hash_payload
from repro.exec.tracestore import TraceStore, WarmStore
from repro.experiments.runner import (
    clear_slot_trace_cache,
    default_warmup,
    thread_traces,
)
from repro.experiments.sweep import run_sweep
from repro.pipeline.smt_core import clear_warm_state_cache
from repro.trace.generator import generate_trace
from repro.workloads.mixes import TWO_THREAD_MIXES


def put_warm(root, key):
    """Store a small warm snapshot under ``root/warm``; returns its path."""
    return WarmStore(root / "warm").put(
        key, 1, {"gshare": bytes([2] * 8), "history": [0]}
    )

CFG = small_machine()
INSNS = 400


def tiny_job(seed: int = 0, **job_kwargs) -> SimJob:
    return SimJob(
        benchmarks=("parser", "vortex"), config=CFG, max_insns=INSNS,
        seed=seed, **job_kwargs,
    )


def forged_bad_job() -> SimJob:
    """A job that fails inside ``run()``: construction rejects unknown
    benchmark names, so one is swapped in after validation to reach the
    executor's failure path."""
    job = tiny_job()
    object.__setattr__(job, "benchmarks", ("no_such_benchmark",))
    return job


# ----------------------------------------------------------------------
# SimJob input validation
# ----------------------------------------------------------------------
class TestSimJobValidation:
    def test_rejects_empty_benchmarks(self):
        with pytest.raises(ValueError, match="at least one benchmark"):
            SimJob(benchmarks=(), config=CFG)

    def test_rejects_unknown_benchmark(self):
        with pytest.raises(ValueError, match="unknown benchmark.*'nope'"):
            SimJob(benchmarks=("parser", "nope"), config=CFG)

    @pytest.mark.parametrize("max_insns", [0, -5])
    def test_rejects_non_positive_max_insns(self, max_insns):
        with pytest.raises(ValueError, match="max_insns must be positive"):
            SimJob(benchmarks=("parser",), config=CFG, max_insns=max_insns)

    def test_rejects_non_positive_max_cycles(self):
        # max_cycles=0 used to "succeed" with 0 cycles and 0 committed.
        with pytest.raises(ValueError, match="max_cycles must be positive"):
            tiny_job(max_cycles=0)

    def test_rejects_negative_warmup(self):
        with pytest.raises(ValueError, match="warmup must be non-negative"):
            tiny_job(warmup=-1)

    def test_zero_warmup_and_default_warmup_accepted(self):
        assert tiny_job(warmup=0).warmup == 0
        assert tiny_job().warmup is None


class TestExecutorConfigValidation:
    @pytest.mark.parametrize("field, value", [
        ("jobs", 0), ("retries", -1),
        ("timeout", 0.0), ("timeout", -5.0),
        ("watchdog", 0.0), ("watchdog", -1.0),
    ])
    def test_rejects_bad_values(self, field, value):
        # watchdog=-1 used to fail every pooled job as "worker hung",
        # timeout<=0 every job as "timed out".
        with pytest.raises(ValueError, match=field):
            ExecutorConfig(**{"jobs": 2, field: value})

    def test_none_still_disables_timeout_and_watchdog(self):
        cfg = ExecutorConfig(jobs=2, timeout=None, watchdog=None)
        assert cfg.timeout is None and cfg.watchdog is None

    def test_from_env_rejects_negative_watchdog(self, monkeypatch):
        monkeypatch.setenv("REPRO_WATCHDOG", "-1")
        with pytest.raises(ValueError, match="watchdog"):
            ExecutorConfig.from_env()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_from_env_rejects_non_positive_jobs(self, monkeypatch, value):
        # Used to be clamped to 1: REPRO_JOBS=0 ran serially, silently.
        monkeypatch.setenv("REPRO_JOBS", value)
        with pytest.raises(ValueError, match="jobs"):
            ExecutorConfig.from_env()

    def test_figure_cli_rejects_zero_jobs(self, monkeypatch):
        from repro.experiments.cli import main as cli_main

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        with pytest.raises(ValueError, match="jobs"):
            cli_main(["figure", "3", "--jobs", "0"])

    def test_resume_cli_rejects_zero_jobs(self, tmp_path):
        jobs = [tiny_job()]
        _, report = execute_jobs(jobs, ExecutorConfig(journal_dir=tmp_path))
        with pytest.raises(ValueError, match="jobs"):
            exec_main(["resume", report.run_id, "--journal-dir",
                       str(tmp_path), "--jobs", "0"])


# ----------------------------------------------------------------------
# SimJob content hashing
# ----------------------------------------------------------------------
class TestSimJobHash:
    def test_equal_jobs_equal_hash(self):
        assert tiny_job().content_hash() == tiny_job().content_hash()

    def test_hash_is_sha256_hex(self):
        h = tiny_job().content_hash()
        assert len(h) == 64
        int(h, 16)  # parses as hex

    @pytest.mark.parametrize("change", [
        dict(seed=1),
        dict(max_insns=INSNS + 1),
        dict(max_cycles=123),
        dict(warmup=100),
        dict(with_fairness=True),
    ])
    def test_any_field_change_changes_hash(self, change):
        base = tiny_job()
        kwargs = dict(benchmarks=base.benchmarks, config=base.config,
                      max_insns=base.max_insns, seed=base.seed)
        kwargs.update(change)
        assert SimJob(**kwargs).content_hash() != base.content_hash()

    def test_config_change_changes_hash(self):
        a = tiny_job()
        b = SimJob(benchmarks=a.benchmarks,
                   config=CFG.replace(iq_size=8),
                   max_insns=a.max_insns, seed=a.seed)
        assert a.content_hash() != b.content_hash()

    def test_hash_stable_across_field_reordering(self):
        # The canonical encoding sorts keys at every level, so the hash
        # cannot depend on dict insertion (= dataclass declaration) order.
        payload = tiny_job().fingerprint_payload()
        reordered = dict(reversed(list(payload.items())))
        reordered["config"] = dict(
            reversed(list(payload["config"].items()))
        )
        assert hash_payload(reordered) == hash_payload(payload)
        assert hash_payload(payload) == tiny_job().content_hash()

    def test_longest_job_first_cost_ordering(self):
        two = tiny_job()
        four = SimJob(benchmarks=("parser", "vortex", "gcc", "gzip"),
                      config=CFG, max_insns=INSNS, seed=0)
        fair = SimJob(benchmarks=two.benchmarks, config=CFG,
                      max_insns=INSNS, seed=0, with_fairness=True)
        assert four.cost_estimate() > two.cost_estimate()
        assert fair.cost_estimate() > two.cost_estimate()


# ----------------------------------------------------------------------
# result cache
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def executed_job():
    job = tiny_job()
    return job, job.run()


class TestResultCache:
    def test_miss_on_empty(self, tmp_path, executed_job):
        job, _ = executed_job
        assert ResultCache(tmp_path).get(job) is None

    def test_roundtrip_equality(self, tmp_path, executed_job):
        job, payload = executed_job
        cache = ResultCache(tmp_path)
        cache.put(job, payload)
        got = cache.get(job)
        assert got is not None
        assert got.result == payload.result
        assert got.fairness is None

    def test_no_temp_files_left(self, tmp_path, executed_job):
        job, payload = executed_job
        ResultCache(tmp_path).put(job, payload)
        assert [p.name for p in tmp_path.iterdir()] == [
            f"{job.content_hash()}.json"
        ]

    def test_corrupt_entry_is_miss(self, tmp_path, executed_job):
        job, payload = executed_job
        cache = ResultCache(tmp_path)
        path = cache.put(job, payload)
        path.write_text("{not json", encoding="utf-8")
        assert cache.get(job) is None

    def test_schema_mismatch_is_miss(self, tmp_path, executed_job):
        job, payload = executed_job
        cache = ResultCache(tmp_path)
        path = cache.put(job, payload)
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["schema"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert cache.get(job) is None

    def test_version_mismatch_is_miss(self, tmp_path, executed_job):
        job, payload = executed_job
        cache = ResultCache(tmp_path)
        path = cache.put(job, payload)
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["repro_version"] = "0.0.0-stale"
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert cache.get(job) is None

    def test_key_mismatch_is_miss(self, tmp_path, executed_job):
        # An entry whose recorded key disagrees with the requesting job
        # (hand-edited or hash-collided file) must not be served.
        job, payload = executed_job
        cache = ResultCache(tmp_path)
        path = cache.put(job, payload)
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["key"] = "0" * 64
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert cache.get(job) is None

    def test_stats_and_clear(self, tmp_path, executed_job):
        job, payload = executed_job
        cache = ResultCache(tmp_path)
        assert cache.stats().entries == 0
        cache.put(job, payload)
        TraceStore(tmp_path / "traces").put(generate_trace("gcc", 300, 1))
        put_warm(tmp_path, "a")
        # A writer killed between its temp file and the rename.
        (tmp_path / "warm" / ".a.npz.123.tmp").write_bytes(b"torn")
        (tmp_path / "mutation").mkdir()
        (tmp_path / "mutation" / "m.json").write_text("{}", encoding="utf-8")
        cache.record_run("run-a", hits=0, misses=1, total=1)
        stats = cache.stats()
        assert stats.entries == 1
        assert stats.total_bytes > 0
        assert [k for k, _, _ in stats.by_kind] == ["mutation", "sim",
                                                    "trace", "warm"]
        # The entry, the stored trace and the warm snapshot go, with the
        # stray temp file; the mutation store and the run counters stay.
        assert cache.clear() == 4
        assert not (tmp_path / "traces").exists()
        assert not (tmp_path / "warm").exists()
        stats = cache.stats()
        assert stats.entries == 0
        assert [k for k, _, _ in stats.by_kind] == ["mutation"]
        assert stats.runs == 1

    def test_cli_stats_and_clear(self, tmp_path, executed_job, capsys):
        job, payload = executed_job
        ResultCache(tmp_path).put(job, payload)
        size = put_warm(tmp_path, "a").stat().st_size
        assert exec_main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries: 1" in out
        assert f"kind warm: 1 entry, {size} bytes" in out
        assert exec_main(["cache", "clear", "--dir", str(tmp_path)]) == 0
        assert "removed 2 entries" in capsys.readouterr().out
        assert ResultCache(tmp_path).stats().entries == 0

    def test_stats_by_kind_breakdown(self, tmp_path, executed_job):
        job, payload = executed_job
        cache = ResultCache(tmp_path)
        cache.put(job, payload)
        stats = cache.stats()
        kinds = {k: (n, b) for k, n, b in stats.by_kind}
        assert set(kinds) == {"sim"}
        assert kinds["sim"] == (1, stats.total_bytes)
        store = TraceStore(tmp_path / "traces")
        sizes = [store.put(generate_trace("gcc", 300, s)).stat().st_size
                 for s in (1, 2)]
        stats = cache.stats()
        kinds = {k: (n, b) for k, n, b in stats.by_kind}
        assert kinds == {"sim": (1, stats.total_bytes),
                         "trace": (2, sum(sizes))}
        warm = [put_warm(tmp_path, key).stat().st_size for key in "abc"]
        (tmp_path / "warm" / ".c.npz.123.tmp").write_bytes(b"torn")
        stats = cache.stats()
        kinds = {k: (n, b) for k, n, b in stats.by_kind}
        assert kinds == {"sim": (1, stats.total_bytes),
                         "trace": (2, sum(sizes)),
                         "warm": (3, sum(warm))}

    def test_run_counters_persisted_and_aggregated(self, tmp_path,
                                                   executed_job):
        job, payload = executed_job
        cache = ResultCache(tmp_path)
        cache.put(job, payload)
        cache.record_run("run-a", hits=0, misses=4, total=4)
        cache.record_run("run-b", hits=3, misses=1, total=4)
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.runs) == (3, 5, 2)
        # Content-derived run ids: a warm rerun updates its own file
        # rather than double counting.
        cache.record_run("run-b", hits=4, misses=0, total=4)
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.runs) == (4, 4, 2)

    def test_journalled_runs_record_counters(self, tmp_path):
        jobs = [SimJob(benchmarks=("parser", "vortex"), config=CFG,
                       max_insns=INSNS, seed=s) for s in (0, 1)]
        ex = ExecutorConfig(cache_dir=tmp_path / "cache",
                            journal_dir=tmp_path / "journal")
        _, cold = execute_jobs(jobs, ex)
        runs = tmp_path / "cache" / "runs"
        rec = json.loads(
            (runs / f"{cold.run_id}.json").read_text(encoding="utf-8")
        )
        assert rec == {"run_id": cold.run_id, "hits": 0, "misses": 2,
                       "total": 2}
        stats = ResultCache(tmp_path / "cache").stats()
        assert (stats.hits, stats.misses, stats.runs) == (0, 2, 1)

    def test_cli_stats_reports_kinds_and_counters(self, tmp_path,
                                                  executed_job, capsys):
        job, payload = executed_job
        cache = ResultCache(tmp_path)
        cache.put(job, payload)
        cache.record_run("run-a", hits=2, misses=1, total=3)
        assert exec_main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "kind sim: 1 entry" in out
        assert "hits:    2 (over 1 recorded run)" in out
        assert "misses:  1" in out


# ----------------------------------------------------------------------
# executor: determinism, caching, fault handling
# ----------------------------------------------------------------------
def grid_jobs() -> list[SimJob]:
    keyed = jobs_for_grid(
        TWO_THREAD_MIXES[:3], CFG, ("traditional", "2op_block"), (8, 16),
        INSNS, 0,
    )
    return [job for _, job in keyed]


class TestExecuteJobs:
    def test_parallel_grid_byte_identical_to_serial(self):
        """Acceptance: >= 12 grid points, jobs=4 == jobs=1, byte for byte."""
        jobs = grid_jobs()
        assert len(jobs) >= 12
        serial, serial_rep = execute_jobs(jobs, ExecutorConfig(jobs=1))
        parallel, parallel_rep = execute_jobs(jobs, ExecutorConfig(jobs=4))
        assert serial_rep.simulated == len(jobs)
        assert parallel_rep.simulated == len(jobs)
        assert [p.result for p in serial] == [p.result for p in parallel]

    def test_warm_cache_rerun_simulates_nothing(self, tmp_path):
        jobs = grid_jobs()[:4]
        ex = ExecutorConfig(jobs=1, cache_dir=tmp_path)
        cold, cold_rep = execute_jobs(jobs, ex)
        warm, warm_rep = execute_jobs(jobs, ex)
        assert cold_rep.cached == 0 and cold_rep.simulated == len(jobs)
        assert warm_rep.simulated == 0 and warm_rep.cached == len(jobs)
        assert [p.result for p in cold] == [p.result for p in warm]

    def test_progress_counts(self, tmp_path):
        jobs = grid_jobs()[:3]
        ex = ExecutorConfig(jobs=1, cache_dir=tmp_path)
        execute_jobs(jobs[:1], ex)  # pre-warm one entry
        events = []
        _, report = execute_jobs(jobs, ex, progress=events.append)
        assert [e.outcome for e in events] == [
            "cached", "simulated", "simulated"
        ]
        assert events[-1].report.completed == len(jobs)
        assert report.cached == 1 and report.simulated == 2

    def test_in_process_failure_raises_after_retries(self):
        bad = forged_bad_job()
        with pytest.raises(ExecutionError) as err:
            execute_jobs([bad], ExecutorConfig(jobs=1, retries=2))
        assert "no_such_benchmark" in str(err.value)
        assert err.value.report.retried == 2
        assert err.value.report.failed == 1

    def test_worker_failure_raises_after_retries(self):
        # The trace profile lookup raises inside the worker process; the
        # error must be serialised back and the job retried (bounded).
        bad = forged_bad_job()
        ok = tiny_job()
        with pytest.raises(ExecutionError) as err:
            execute_jobs([bad, ok], ExecutorConfig(jobs=2, retries=1))
        assert len(err.value.failures) == 1
        assert "no_such_benchmark" in err.value.failures[0].message
        assert err.value.report.retried == 1

    def test_worker_crash_is_retried_then_failed(self, monkeypatch):
        # Simulate a hard crash (worker exits without reporting). fork
        # inherits the monkeypatched method, so this dies in the child.
        monkeypatch.setattr(SimJob, "run", lambda self: os._exit(3))
        with pytest.raises(ExecutionError) as err:
            execute_jobs(
                [tiny_job(), tiny_job(seed=1)],
                ExecutorConfig(jobs=2, retries=1),
            )
        assert "crashed" in str(err.value)
        assert err.value.report.retried >= 1

    def test_per_job_timeout(self, monkeypatch):
        # A job that outlives its timeout, whatever the simulator's speed
        # (fork inherits the patch). Warm memos inherited from this
        # process would otherwise let a real tiny job beat the first poll.
        monkeypatch.setattr(SimJob, "run", lambda self: time.sleep(30))
        with pytest.raises(ExecutionError) as err:
            execute_jobs(
                [tiny_job(), tiny_job(seed=1)],
                ExecutorConfig(jobs=2, timeout=0.001, retries=1),
            )
        assert "timed out" in str(err.value)

    def test_fallback_without_fork(self, monkeypatch):
        monkeypatch.setattr(pool_mod, "fork_available", lambda: False)
        jobs = [tiny_job(), tiny_job(seed=1)]
        payloads, report = execute_jobs(jobs, ExecutorConfig(jobs=4))
        assert report.simulated == 2
        assert payloads[0].result == tiny_job().run().result

    def test_executor_config_from_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_JOBS", "3")
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        ex = ExecutorConfig.from_env()
        assert ex.jobs == 3
        assert str(ex.cache_dir) == str(tmp_path)
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert ExecutorConfig.from_env(default_cache=True).cache_dir is None


# ----------------------------------------------------------------------
# the live-worker registry and its lock
# ----------------------------------------------------------------------
class _FakeProc:
    """Stands in for an exited multiprocessing.Process in the registry."""

    def is_alive(self) -> bool:
        return False

    def join(self, timeout=None) -> None:
        return None


class TestLiveWorkerRegistry:
    def test_registry_is_touched_only_under_its_lock(self, monkeypatch):
        """Every add, discard and snapshot of the live-worker set holds
        _LIVE_LOCK, and no worker is forked while the lock is held: the
        child would inherit a locked lock that nobody can release."""
        lock = pool_mod._LIVE_LOCK

        class Guarded(set):
            def add(self, proc):
                assert lock.locked(), "worker registered without _LIVE_LOCK"
                super().add(proc)

            def discard(self, proc):
                assert lock.locked(), "worker dropped without _LIVE_LOCK"
                super().discard(proc)

            def __iter__(self):
                assert lock.locked(), "registry read without _LIVE_LOCK"
                return super().__iter__()

        registry = Guarded()
        monkeypatch.setattr(pool_mod, "_LIVE_WORKERS", registry)
        fork = os.fork
        locked_at_fork = []

        def watched_fork():
            locked_at_fork.append(lock.locked())
            return fork()

        monkeypatch.setattr(os, "fork", watched_fork)
        _, report = execute_jobs(
            [tiny_job(), tiny_job(seed=1)], ExecutorConfig(jobs=2)
        )
        assert report.simulated == 2
        assert locked_at_fork == [False, False]
        assert not registry
        proc = _FakeProc()
        with lock:
            registry.add(proc)
        assert pool_mod.live_worker_count() == 0
        pool_mod._reap_orphans()
        assert not registry
        pool_mod._reap(proc)

    def test_live_worker_registry_survives_concurrent_churn(self):
        stop = threading.Event()
        failures: list[BaseException] = []

        def churn() -> None:
            try:
                while not stop.is_set():
                    procs = [_FakeProc() for _ in range(50)]
                    with pool_mod._LIVE_LOCK:
                        pool_mod._LIVE_WORKERS.update(procs)
                    with pool_mod._LIVE_LOCK:
                        pool_mod._LIVE_WORKERS.difference_update(procs)
            except BaseException as exc:  # pragma: no cover
                failures.append(exc)

        writer = threading.Thread(target=churn)
        writer.start()
        try:
            # Readers that iterated the live set directly died with
            # "Set changed size during iteration".
            for _ in range(300):
                pool_mod.live_worker_count()
                pool_mod._reap_orphans()
        finally:
            stop.set()
            writer.join(timeout=30)
        assert not writer.is_alive()
        assert not failures
        assert pool_mod.live_worker_count() == 0


# ----------------------------------------------------------------------
# sweep integration
# ----------------------------------------------------------------------
class TestSweepIntegration:
    def test_run_sweep_parallel_matches_serial(self, tmp_path):
        kwargs = dict(
            mixes=TWO_THREAD_MIXES[:3], base_config=CFG,
            schedulers=("traditional", "2op_block"), iq_sizes=(8, 16),
            max_insns=INSNS, seed=0,
        )
        serial = run_sweep(**kwargs, executor=ExecutorConfig(jobs=1))
        parallel = run_sweep(
            **kwargs,
            executor=ExecutorConfig(jobs=4, cache_dir=tmp_path),
        )
        assert len(serial.results) == 12
        assert serial.results == parallel.results
        # Warm rerun: the whole grid is served from the cache.
        warm = run_sweep(
            **kwargs, executor=ExecutorConfig(jobs=4, cache_dir=tmp_path)
        )
        assert warm.exec_report is not None
        assert warm.exec_report.simulated == 0
        assert warm.exec_report.cached == 12
        assert warm.results == serial.results

    def test_run_sweep_fairness_through_cache(self, tmp_path):
        ex = ExecutorConfig(jobs=1, cache_dir=tmp_path)
        kwargs = dict(
            mixes=TWO_THREAD_MIXES[:1], base_config=CFG,
            schedulers=("traditional",), iq_sizes=(8,),
            max_insns=INSNS, seed=0, with_fairness=True,
        )
        cold = run_sweep(**kwargs, executor=ex)
        warm = run_sweep(**kwargs, executor=ex)
        assert warm.exec_report.simulated == 0
        assert warm.fairness == cold.fairness
        assert warm.results == cold.results


# ----------------------------------------------------------------------
# slot-trace memoisation (runner)
# ----------------------------------------------------------------------
class TestSlotTraceMemo:
    def test_traces_are_memoised_across_calls(self):
        clear_slot_trace_cache()
        clear_warm_state_cache()
        warmup = default_warmup(INSNS)
        first = thread_traces(["parser", "vortex"], INSNS, 0, warmup)
        second = thread_traces(["parser", "vortex"], INSNS, 0, warmup)
        # Identity, not just equality: nothing was regenerated.
        assert all(a is b for a, b in zip(first, second))

    def test_distinct_slots_get_distinct_traces(self):
        clear_slot_trace_cache()
        clear_warm_state_cache()
        warmup = default_warmup(INSNS)
        a, b = thread_traces(["parser", "parser"], INSNS, 0, warmup)
        assert a is not b
        assert a.seed != b.seed

    def test_clear_resets_memo(self):
        import repro.experiments.runner as runner_mod

        warmup = default_warmup(INSNS)
        thread_traces(["parser"], INSNS, 0, warmup)
        assert runner_mod._SLOT_TRACE_CACHE
        clear_slot_trace_cache()
        clear_warm_state_cache()
        assert not runner_mod._SLOT_TRACE_CACHE
