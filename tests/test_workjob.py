"""Generic WorkJob kind riding the exec farm, and tolerate_failures."""

from __future__ import annotations

import pytest

from repro.exec import (
    ExecutionError,
    ExecutorConfig,
    WorkJob,
    execute_jobs,
    fork_available,
)


# Entry points resolved by name inside workers ("module:function").
def double(payload):
    return {"doubled": payload["x"] * 2}


def explode(payload):
    raise ValueError(f"bad x={payload['x']}")


def sleepy(payload):
    import time

    time.sleep(payload.get("seconds", 60))
    return {}


def nothing(payload):
    return None


def _job(entry: str, **payload) -> WorkJob:
    return WorkJob(entry=f"tests.test_workjob:{entry}", payload=payload)


def test_workjob_is_content_addressed_and_round_trips():
    a = _job("double", x=3)
    # The fingerprint names every field, so it rebuilds the job.
    b = WorkJob(**a.fingerprint_payload())
    assert a.content_hash() == b.content_hash()
    assert a.content_hash() != _job("double", x=4).content_hash()
    assert a.cost_estimate() == 1
    assert "tests.test_workjob" in a.describe()


def test_workjob_run_dispatches_by_entry():
    assert _job("double", x=21).run() == {"doubled": 42}
    # None returns are coerced: the executor's failed-job sentinel
    # must never be a successful result.
    assert _job("nothing").run() == {}
    with pytest.raises(ValueError):
        WorkJob(entry="no-colon", payload={}).run()


def test_execute_jobs_runs_workjobs_in_process():
    jobs = [_job("double", x=i) for i in range(4)]
    results, report = execute_jobs(jobs, ExecutorConfig(jobs=1))
    assert [r["doubled"] for r in results] == [0, 2, 4, 6]
    assert report.simulated == 4


@pytest.mark.skipif(not fork_available(), reason="needs fork")
def test_execute_jobs_runs_workjobs_in_workers():
    jobs = [_job("double", x=i) for i in range(5)]
    results, report = execute_jobs(jobs, ExecutorConfig(jobs=2))
    assert [r["doubled"] for r in results] == [0, 2, 4, 6, 8]
    assert report.simulated == 5


def test_tolerate_failures_returns_positional_results():
    jobs = [_job("double", x=1), _job("explode", x=2), _job("double", x=3)]
    cfg = ExecutorConfig(jobs=1, retries=0, tolerate_failures=True)
    results, report = execute_jobs(jobs, cfg)
    assert results[0] == {"doubled": 2}
    assert results[1] is None
    assert results[2] == {"doubled": 6}
    assert report.failed == 1
    assert len(report.job_failures) == 1
    assert "bad x=2" in report.job_failures[0].message
    assert report.job_failures[0].job.content_hash() == \
        jobs[1].content_hash()


def test_without_tolerate_failures_the_batch_still_raises():
    jobs = [_job("explode", x=9)]
    with pytest.raises(ExecutionError) as err:
        execute_jobs(jobs, ExecutorConfig(jobs=1, retries=0))
    assert "bad x=9" in str(err.value)


@pytest.mark.skipif(not fork_available(), reason="needs fork")
def test_hung_workjob_is_reaped_and_journaled(tmp_path):
    jobs = [_job("sleepy", seconds=60), _job("double", x=5)]
    cfg = ExecutorConfig(
        jobs=2, retries=0, timeout=1.0, tolerate_failures=True,
        journal_dir=tmp_path,
    )
    results, report = execute_jobs(jobs, cfg)
    assert results[0] is None
    assert results[1] == {"doubled": 10}
    assert "timed out" in report.job_failures[0].message
    journal = (tmp_path / f"{report.run_id}.jsonl").read_text(
        encoding="utf-8")
    assert '"event":"failed"' in journal
    assert "timed out" in journal


def test_workjob_results_never_enter_the_sim_cache(tmp_path):
    cfg = ExecutorConfig(jobs=1, cache_dir=tmp_path / "cache")
    results, report = execute_jobs([_job("double", x=2)], cfg)
    assert results[0] == {"doubled": 4}
    # A second run must re-execute: the SimJob-shaped disk cache does
    # not (and must not) store generic payloads.
    results2, report2 = execute_jobs([_job("double", x=2)], cfg)
    assert report2.cached == 0
    assert report2.simulated == 1
