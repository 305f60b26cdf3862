"""Tests for the fault-tolerance layer (``repro.exec`` chaos/journal).

The headline invariant, enforced here end to end: with deterministic
fault injection enabled (worker kills, hangs, delivery faults, cache
corruption), a sweep must still complete and produce results
byte-identical to a fault-free run. Around it: chaos-policy parsing and
replayability, cache integrity (checksums, quarantine, ``verify``),
journal transitions and rotation, interrupt-then-rerun from the cache
with no re-simulation of finished points, and the degraded paths
(fork-less serial fallback, retry-budget exhaustion, timeout on a hung
worker, watchdog on a silent one).
"""

from __future__ import annotations

import json
import time

import pytest

import repro.exec.pool as pool_mod
from repro.config.presets import small_machine
from repro.exec import (
    ChaosConfig,
    ChaosError,
    ExecutionError,
    ExecutorConfig,
    ResultCache,
    SimJob,
    derive_run_id,
    execute_jobs,
    jobs_for_grid,
    live_worker_count,
)
from repro.exec.cache import CORRUPT_SUFFIX, encode_job_result
from repro.exec.journal import JOURNAL_SCHEMA
from repro.exec.__main__ import main as exec_main
from repro.workloads.mixes import TWO_THREAD_MIXES

CFG = small_machine()
INSNS = 400


def grid_jobs() -> list[SimJob]:
    keyed = jobs_for_grid(
        TWO_THREAD_MIXES[:3], CFG, ("traditional", "2op_block"), (8, 16),
        INSNS, 0,
    )
    return [job for _, job in keyed]


def tiny_job(seed: int = 0) -> SimJob:
    return SimJob(benchmarks=("parser", "vortex"), config=CFG,
                  max_insns=INSNS, seed=seed)


def canon(results) -> list[str]:
    """Byte-level canonical form of a result list, for the invariant."""
    return [json.dumps(encode_job_result(p), sort_keys=True)
            for p in results]


@pytest.fixture(scope="module")
def golden():
    """Fault-free serial results for the 12-point module grid."""
    jobs = grid_jobs()
    results, report = execute_jobs(jobs)
    assert report.simulated == len(jobs)
    return canon(results)


def chaotic_seed(hashes, kill_p: float, hang_p: float = 0.0,
                 min_kills: int = 2, min_hangs: int = 0) -> int:
    """Smallest seed whose attempt-0 draws inject enough faults for the
    test to be meaningful — chosen deterministically, so never flaky."""
    for seed in range(200):
        c = ChaosConfig(seed=seed, kill_p=kill_p, hang_p=hang_p)
        kills = sum(c.should_kill(h, 0) for h in hashes)
        hangs = sum(c.should_hang(h, 0) for h in hashes)
        if kills >= min_kills and hangs >= min_hangs:
            return seed
    raise AssertionError("no seed injects enough faults; widen the search")


# ----------------------------------------------------------------------
# ChaosConfig: parsing + deterministic decisions
# ----------------------------------------------------------------------
class TestChaosConfigParse:
    def test_aliases_and_seed(self):
        c = ChaosConfig.parse("kill=0.3,hang=0.05,corrupt=0.5,seed=7")
        assert c.kill_p == 0.3
        assert c.hang_p == 0.05
        assert c.corrupt_p == 0.5
        assert c.seed == 7 and isinstance(c.seed, int)

    def test_full_field_names_accepted(self):
        c = ChaosConfig.parse("kill_p=0.2,delay_max=0.01")
        assert c.kill_p == 0.2
        assert c.delay_max == 0.01

    def test_unknown_knob_rejected(self):
        with pytest.raises(ValueError, match="bad REPRO_CHAOS knob"):
            ChaosConfig.parse("explode=1.0")

    def test_missing_value_rejected(self):
        with pytest.raises(ValueError, match="bad REPRO_CHAOS knob"):
            ChaosConfig.parse("kill")

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="not in"):
            ChaosConfig.parse("kill=1.5")

    def test_enabled_property(self):
        assert not ChaosConfig().enabled
        assert not ChaosConfig(seed=9).enabled
        assert ChaosConfig(dup_p=0.1).enabled
        assert ChaosConfig(slow_p=0.1).enabled

    def test_overload_knob_aliases(self):
        c = ChaosConfig.parse("slow=0.2,slow_seconds=0.1,seed=2")
        assert c.slow_p == 0.2
        assert c.slow_seconds == 0.1
        assert c.enabled

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        assert ChaosConfig.from_env() is None
        monkeypatch.setenv("REPRO_CHAOS", "0")
        assert ChaosConfig.from_env() is None
        monkeypatch.setenv("REPRO_CHAOS", "kill=0.25,seed=3")
        c = ChaosConfig.from_env()
        assert c == ChaosConfig(seed=3, kill_p=0.25)

    def test_executor_from_env_picks_up_knobs(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CHAOS", "kill=0.1,seed=5")
        monkeypatch.setenv("REPRO_JOURNAL", str(tmp_path / "j"))
        monkeypatch.setenv("REPRO_WATCHDOG", "2.5")
        cfg = ExecutorConfig.from_env()
        assert cfg.chaos == ChaosConfig(seed=5, kill_p=0.1)
        assert str(cfg.journal_dir) == str(tmp_path / "j")
        assert cfg.watchdog == 2.5

    def test_watchdog_env_zero_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_WATCHDOG", "0")
        assert ExecutorConfig.from_env().watchdog is None


class TestChaosDeterminism:
    HASHES = [tiny_job(seed=s).content_hash() for s in range(16)]

    def test_decisions_replay_across_instances(self):
        a = ChaosConfig(seed=11, kill_p=0.5, hang_p=0.3, corrupt_p=0.4)
        b = ChaosConfig(seed=11, kill_p=0.5, hang_p=0.3, corrupt_p=0.4)
        for h in self.HASHES:
            assert a.kill_point(h, 0) == b.kill_point(h, 0)
            assert a.should_hang(h, 0) == b.should_hang(h, 0)
            assert a.cache_fault(h) == b.cache_fault(h)

    def test_decisions_vary_by_attempt(self):
        c = ChaosConfig(seed=0, kill_p=0.5)
        assert any(
            c.should_kill(h, 0) != c.should_kill(h, 1)
            for h in self.HASHES
        )

    def test_retries_make_progress(self):
        # No job may be killed on every attempt forever; with p=0.5 a
        # surviving attempt must appear within a small budget.
        c = ChaosConfig(seed=0, kill_p=0.5)
        for h in self.HASHES:
            assert any(not c.should_kill(h, a) for a in range(20))

    def test_both_kill_points_occur(self):
        c = ChaosConfig(seed=0, kill_p=1.0)
        points = {c.kill_point(h, 0) for h in self.HASHES}
        assert points == {"early", "late"}

    def test_delay_bounded(self):
        c = ChaosConfig(seed=0, delay_p=1.0, delay_max=0.01)
        for h in self.HASHES:
            assert 0.0 <= c.delivery_delay(h, 0) <= 0.01

    def test_corrupt_bytes_identity_without_fault(self):
        blob = b'{"x": 1}' * 32
        assert ChaosConfig(seed=0).corrupt_bytes("key", blob) == blob

    def test_corrupt_bytes_deterministic_damage(self):
        c = ChaosConfig(seed=0, corrupt_p=1.0)
        blob = b'{"x": 1}' * 32
        damaged = c.corrupt_bytes("key", blob)
        assert damaged != blob
        assert damaged == c.corrupt_bytes("key", blob)

    def test_truncate_and_flip_both_occur(self):
        c = ChaosConfig(seed=0, corrupt_p=1.0)
        faults = {c.cache_fault(h) for h in self.HASHES}
        assert faults == {"truncate", "flip"}

    def test_slow_delay_gated_and_exact(self):
        assert ChaosConfig(seed=0).slow_delay("h", 0) == 0.0
        c = ChaosConfig(seed=3, slow_p=1.0, slow_seconds=0.125)
        assert all(c.slow_delay(h, 0) == 0.125 for h in self.HASHES)
        mid = ChaosConfig(seed=1, slow_p=0.5, slow_seconds=0.125)
        delays = [mid.slow_delay(h, 0) for h in self.HASHES]
        assert set(delays) == {0.0, 0.125}
        assert delays == [mid.slow_delay(h, 0) for h in self.HASHES]


# ----------------------------------------------------------------------
# cache integrity: checksums, quarantine, verify
# ----------------------------------------------------------------------
class TestCacheIntegrity:
    def _seeded(self, root) -> tuple[ResultCache, SimJob]:
        cache = ResultCache(root)
        job = tiny_job()
        cache.put(job, job.run())
        return cache, job

    def test_roundtrip_has_checksum(self, tmp_path):
        cache, job = self._seeded(tmp_path)
        entry = json.loads(cache.path_for(job).read_text())
        assert "checksum" in entry
        assert cache.get(job) is not None

    def test_truncated_entry_quarantined(self, tmp_path):
        cache, job = self._seeded(tmp_path)
        path = cache.path_for(job)
        path.write_bytes(path.read_bytes()[:40])
        assert cache.get(job) is None
        assert not path.exists()
        assert path.with_suffix(CORRUPT_SUFFIX).exists()
        assert cache.stats().corrupt == 1

    def test_bitflip_detected_by_checksum(self, tmp_path):
        # Valid JSON, valid key, wrong payload: only the checksum can
        # catch this one.
        cache, job = self._seeded(tmp_path)
        path = cache.path_for(job)
        entry = json.loads(path.read_text())
        entry["result"]["cycles"] += 1
        path.write_text(json.dumps(entry))
        assert cache.get(job) is None
        assert path.with_suffix(CORRUPT_SUFFIX).exists()

    def test_key_mismatch_is_corrupt(self, tmp_path):
        cache, job = self._seeded(tmp_path)
        path = cache.path_for(job)
        entry = json.loads(path.read_text())
        entry["key"] = "0" * 64
        path.write_text(json.dumps(entry))
        assert cache.get(job) is None
        assert path.with_suffix(CORRUPT_SUFFIX).exists()

    def test_stale_schema_is_plain_miss_not_quarantine(self, tmp_path):
        cache, job = self._seeded(tmp_path)
        path = cache.path_for(job)
        entry = json.loads(path.read_text())
        entry["schema"] = -1
        path.write_text(json.dumps(entry))
        assert cache.get(job) is None
        assert path.exists()  # awaiting overwrite, not quarantined
        assert cache.stats().corrupt == 0

    def test_verify_sweep(self, tmp_path):
        cache = ResultCache(tmp_path)
        ok_job, stale_job, bad_job = (tiny_job(seed=s) for s in (1, 2, 3))
        for job in (ok_job, stale_job, bad_job):
            cache.put(job, job.run())
        stale_path = cache.path_for(stale_job)
        entry = json.loads(stale_path.read_text())
        entry["schema"] = -1
        stale_path.write_text(json.dumps(entry))
        bad_path = cache.path_for(bad_job)
        bad_path.write_bytes(bad_path.read_bytes()[:25])
        report = cache.verify()
        assert (report.checked, report.ok, report.stale,
                report.quarantined) == (3, 1, 1, 1)
        assert bad_path.with_suffix(CORRUPT_SUFFIX).exists()

    def test_chaotic_writes_survive_via_quarantine(self, tmp_path):
        # Every write is damaged; every read must detect it, quarantine,
        # and report a miss — never serve corrupt data.
        chaotic = ResultCache(tmp_path, chaos=ChaosConfig(seed=0,
                                                          corrupt_p=1.0))
        job = tiny_job()
        payload = job.run()
        chaotic.put(job, payload)
        assert chaotic.get(job) is None
        assert chaotic.stats().corrupt == 1
        faithful = ResultCache(tmp_path)
        faithful.put(job, payload)
        assert faithful.get(job) == payload

    def test_clear_removes_quarantined_files(self, tmp_path):
        cache, job = self._seeded(tmp_path)
        path = cache.path_for(job)
        path.write_bytes(b"junk")
        assert cache.get(job) is None
        assert cache.clear() == 1  # the .corrupt file
        assert cache.stats().corrupt == 0

    def test_cache_verify_cli(self, tmp_path, capsys):
        cache, job = self._seeded(tmp_path)
        cache.path_for(job).write_bytes(b"junk")
        assert exec_main(["cache", "verify", "--dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "quarantined: 1" in out
        # The sweep moved the damage aside; a second sweep is clean.
        assert exec_main(["cache", "verify", "--dir", str(tmp_path)]) == 0
        capsys.readouterr()

    def test_cache_stats_cli_counts_corrupt(self, tmp_path, capsys):
        cache, job = self._seeded(tmp_path)
        cache.path_for(job).write_bytes(b"junk")
        assert cache.get(job) is None
        assert exec_main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        assert "corrupt: 1" in capsys.readouterr().out


# ----------------------------------------------------------------------
# run journal: transitions, rotation
# ----------------------------------------------------------------------
class TestJournal:
    def _records(self, path) -> list[dict]:
        return [json.loads(line) for line in
                path.read_text().splitlines() if line.strip()]

    def test_transitions_recorded(self, tmp_path):
        jobs = [tiny_job(seed=s) for s in (0, 1)]
        _, report = execute_jobs(
            jobs, ExecutorConfig(journal_dir=tmp_path)
        )
        assert report.run_id == derive_run_id(
            [j.content_hash() for j in jobs]
        )
        recs = self._records(tmp_path / f"{report.run_id}.jsonl")
        events = [r["event"] for r in recs]
        assert events[0] == "run-start"
        assert events[-1] == "run-end"
        assert events.count("queued") == 2
        assert events.count("started") == 2
        assert events.count("done") == 2
        assert recs[0]["schema"] == JOURNAL_SCHEMA == 2
        # A transition log: job hashes only, no fingerprint or result.
        for rec in recs:
            if rec["event"] in ("queued", "done"):
                assert set(rec) == {"seq", "event", "job"}

    def test_derive_run_id_content_addressed(self):
        hashes = [tiny_job(seed=s).content_hash() for s in (0, 1)]
        assert derive_run_id(hashes) == derive_run_id(hashes)
        assert derive_run_id(hashes) != derive_run_id(hashes[::-1])
        assert len(derive_run_id(hashes)) == 16

    def test_fresh_run_rotates_old_journal(self, tmp_path):
        jobs = [tiny_job()]
        _, report = execute_jobs(jobs, ExecutorConfig(journal_dir=tmp_path))
        _, report2 = execute_jobs(jobs,
                                  ExecutorConfig(journal_dir=tmp_path))
        assert report2.run_id == report.run_id
        assert (tmp_path / f"{report.run_id}.jsonl").exists()
        assert (tmp_path / f"{report.run_id}.jsonl.1").exists()

# ----------------------------------------------------------------------
# the headline invariant: chaos == fault-free, byte for byte
# ----------------------------------------------------------------------
class TestChaosInvariant:
    def test_process_mode_chaos_matches_golden(self, tmp_path, golden):
        jobs = grid_jobs()
        hashes = [j.content_hash() for j in jobs]
        seed = chaotic_seed(hashes, kill_p=0.3, hang_p=0.15,
                            min_kills=2, min_hangs=1)
        chaos = ChaosConfig(seed=seed, kill_p=0.3, hang_p=0.15,
                            delay_p=0.2, dup_p=0.2, corrupt_p=0.3)
        executor = ExecutorConfig(
            jobs=3, cache_dir=tmp_path / "cache",
            journal_dir=tmp_path / "journal",
            retries=8, timeout=120.0, watchdog=0.5, chaos=chaos,
        )
        results, report = execute_jobs(jobs, executor)
        assert canon(results) == golden
        assert report.retried >= 3  # >=2 kills + >=1 hang, all retried
        assert report.simulated == len(jobs)
        assert live_worker_count() == 0

    def test_serial_chaos_matches_golden(self, tmp_path, golden):
        jobs = grid_jobs()
        hashes = [j.content_hash() for j in jobs]
        seed = chaotic_seed(hashes, kill_p=0.4)
        chaos = ChaosConfig(seed=seed, kill_p=0.4)
        results, report = execute_jobs(
            jobs, ExecutorConfig(jobs=1, retries=8, chaos=chaos)
        )
        assert canon(results) == golden
        assert report.retried >= 2

    def test_corrupted_cache_rerun_matches_golden(self, tmp_path, golden):
        jobs = grid_jobs()
        hashes = [j.content_hash() for j in jobs]
        seed = next(
            s for s in range(200)
            if sum(ChaosConfig(seed=s, corrupt_p=0.5).cache_fault(h)
                   is not None for h in hashes) >= 2
        )
        chaos = ChaosConfig(seed=seed, corrupt_p=0.5)
        executor = ExecutorConfig(jobs=1, cache_dir=tmp_path, chaos=chaos)
        cold, _ = execute_jobs(jobs, executor)
        # The warm rerun reads the damaged store: corrupt entries must
        # be quarantined and recomputed, sound ones served — and the
        # final results must still be byte-identical to fault-free.
        warm, report = execute_jobs(jobs, executor)
        assert canon(cold) == golden
        assert canon(warm) == golden
        quarantined = ResultCache(tmp_path).stats().corrupt
        assert quarantined >= 2
        assert report.cached == len(jobs) - quarantined
        assert report.simulated == quarantined

    def test_chaos_smoke_cli(self, capsys):
        assert exec_main(["chaos-smoke", "--insns", "300"]) == 0
        assert "byte-identical" in capsys.readouterr().out


# ----------------------------------------------------------------------
# interrupt -> rerun from the cache
# ----------------------------------------------------------------------
def assert_rerun_finishes(jobs, executor, done_before, golden) -> None:
    """Rerunning an interrupted grid with its cache simulates exactly
    the jobs that had not completed, and matches the golden run."""
    results, report = execute_jobs(jobs, executor)
    assert report.cached == done_before
    assert report.simulated == len(jobs) - done_before
    assert canon(results) == golden
    again, report = execute_jobs(jobs, executor)
    assert (report.cached, report.simulated) == (len(jobs), 0)
    assert canon(again) == golden


class TestInterruptResume:
    def test_interrupt_reaps_journals_and_resumes(self, tmp_path, golden):
        jobs = grid_jobs()
        executor = ExecutorConfig(jobs=2, cache_dir=tmp_path / "cache",
                                  journal_dir=tmp_path / "journal")

        def boom(_progress) -> None:
            # At the first completion the other worker's job is still
            # in flight whatever order the two finish in, so the
            # journal must record it as interrupted.
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            execute_jobs(jobs, executor, progress=boom)
        assert live_worker_count() == 0  # no orphans survive Ctrl-C

        run_id = derive_run_id([j.content_hash() for j in jobs])
        recs = [json.loads(line) for line in (
            tmp_path / "journal" / f"{run_id}.jsonl"
        ).read_text().splitlines()]
        events_seen = [r["event"] for r in recs]
        assert "interrupted" in events_seen  # the in-flight worker
        done_before = events_seen.count("done")
        assert 0 < done_before < len(jobs)
        # A result reaches the cache before its progress event fires.
        assert ResultCache(tmp_path / "cache").stats().entries == done_before

        assert_rerun_finishes(jobs, executor, done_before, golden)

    def test_resume_cli(self, capsys):
        # Reruns resume from the cache; the subcommand is gone.
        with pytest.raises(SystemExit) as excinfo:
            exec_main(["resume", "feedfacedeadbeef"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'resume'" in capsys.readouterr().err

    def test_serial_interrupt_journals_in_flight_job(self, tmp_path,
                                                     monkeypatch, golden):
        jobs = grid_jobs()[:3]
        executor = ExecutorConfig(cache_dir=tmp_path / "cache",
                                  journal_dir=tmp_path / "journal")
        real_run = SimJob.run
        calls = 0

        def flaky_run(self):
            nonlocal calls
            calls += 1
            if calls == 2:
                raise KeyboardInterrupt
            return real_run(self)

        monkeypatch.setattr(SimJob, "run", flaky_run)
        with pytest.raises(KeyboardInterrupt):
            execute_jobs(jobs, executor)
        assert live_worker_count() == 0
        run_id = derive_run_id([j.content_hash() for j in jobs])
        recs = [json.loads(line) for line in (
            tmp_path / "journal" / f"{run_id}.jsonl"
        ).read_text().splitlines()]
        by_event = [r["event"] for r in recs]
        assert by_event.count("done") == 1
        assert by_event.count("interrupted") == 1

        assert_rerun_finishes(jobs, executor, 1, golden[:3])


# ----------------------------------------------------------------------
# degraded paths: no fork, retries exhausted, hung workers
# ----------------------------------------------------------------------
class TestDegradedPaths:
    def test_serial_fallback_without_fork(self, tmp_path, monkeypatch,
                                          golden):
        monkeypatch.setattr(pool_mod, "fork_available", lambda: False)
        jobs = grid_jobs()
        results, report = execute_jobs(
            jobs,
            ExecutorConfig(jobs=4, cache_dir=tmp_path / "cache",
                           journal_dir=tmp_path / "journal"),
        )
        assert canon(results) == golden
        assert report.simulated == len(jobs)

    def test_retry_exhaustion_serial_reports_every_failure(self):
        jobs = [tiny_job(seed=s) for s in (0, 1, 2)]
        chaos = ChaosConfig(seed=0, kill_p=1.0)  # every attempt dies
        with pytest.raises(ExecutionError) as excinfo:
            execute_jobs(jobs, ExecutorConfig(jobs=1, retries=2,
                                              chaos=chaos))
        err = excinfo.value
        assert len(err.failures) == len(jobs)
        assert {f.job.content_hash() for f in err.failures} == \
               {j.content_hash() for j in jobs}
        assert all("ChaosError" in f.message for f in err.failures)
        assert err.report.failed == len(jobs)
        assert err.report.retried == len(jobs) * 2

    def test_retry_exhaustion_process_reports_every_failure(self):
        jobs = [tiny_job(seed=s) for s in (0, 1)]
        chaos = ChaosConfig(seed=0, kill_p=1.0)
        with pytest.raises(ExecutionError) as excinfo:
            execute_jobs(jobs, ExecutorConfig(jobs=2, retries=1,
                                              chaos=chaos, watchdog=None))
        err = excinfo.value
        assert len(err.failures) == len(jobs)
        assert all("exit code 73" in f.message for f in err.failures)
        assert err.report.retried == len(jobs)
        assert live_worker_count() == 0

    def test_timeout_fires_on_hung_worker(self, monkeypatch):
        # A worker that computes forever keeps heartbeating, so only
        # the per-job timeout may reap it — and must.
        monkeypatch.setattr(SimJob, "run", lambda self: time.sleep(60))
        jobs = [tiny_job(seed=s) for s in (0, 1)]
        start = time.monotonic()
        with pytest.raises(ExecutionError) as excinfo:
            execute_jobs(jobs, ExecutorConfig(jobs=2, retries=0,
                                              timeout=0.75))
        assert time.monotonic() - start < 30
        assert all("timed out after 0.75s" in f.message
                   for f in excinfo.value.failures)
        assert live_worker_count() == 0

    def test_watchdog_fires_on_silent_worker(self):
        # A chaos hang stops the heartbeat; the watchdog must reap it
        # within its grace period even with no timeout configured.
        jobs = [tiny_job(seed=s) for s in (0, 1)]
        chaos = ChaosConfig(seed=0, hang_p=1.0)
        start = time.monotonic()
        with pytest.raises(ExecutionError) as excinfo:
            execute_jobs(jobs, ExecutorConfig(jobs=2, retries=0,
                                              watchdog=0.5, chaos=chaos))
        assert time.monotonic() - start < 30
        assert all("worker hung (no heartbeat for 0.5s)" in f.message
                   for f in excinfo.value.failures)
        assert live_worker_count() == 0

    def test_slow_worker_beats_through_watchdog(self):
        # The slow fault delays the job while the heartbeat thread
        # keeps ticking: a watchdog tighter than the delay must NOT
        # fire (only a per-job timeout may reap slow-but-alive work),
        # and the delayed results stay byte-identical.
        jobs = [tiny_job(seed=s) for s in (0, 1)]
        golden, _ = execute_jobs(jobs, ExecutorConfig(jobs=1))
        chaos = ChaosConfig(seed=0, slow_p=1.0, slow_seconds=0.8)
        results, report = execute_jobs(
            jobs, ExecutorConfig(jobs=2, retries=0, watchdog=0.4,
                                 chaos=chaos))
        assert canon(results) == canon(golden)
        assert report.retried == 0
        assert report.failed == 0
        assert live_worker_count() == 0
