"""Tests for the distributed sweep service (``repro.serve``).

The headline invariant, enforced here end to end: a sweep executed by
the service — across real worker processes, under injected worker kills
and dropped/duplicated/delayed frames — completes with results
byte-identical to a fault-free single-host ``execute_jobs`` run, and a
repeat submission simulates nothing. Around it: the consistent-hash
ring's stability property (hypothesis) and busy-owner placement,
protocol framing and checksum handling, malformed worker hellos,
network-chaos determinism, cross-submission dedup, journal-backed
server restart/resume, and the ``ExecutorConfig(server=...)`` routing
of existing sweeps.

Drain and retry get the same treatment: client backoff semantics
against a scripted fake server, resilient event-stream reconnection,
the drained server's 503, SIGTERM == drain for the real CLI process,
submission before the server is even listening, a dead server
exhausting the retry budget, and an acceptance run that drains a
refuse/slow/kill chaos cluster mid-sweep, restarts it, and proves
byte-identity plus zero re-simulation of pre-drain work.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.presets import small_machine
from repro.exec import (
    ChaosConfig,
    ExecutorConfig,
    SimJob,
    execute_jobs,
    jobs_for_grid,
)
from repro.exec.cache import encode_job_result
from repro.exec.jobs import JobResult
from repro.exec.journal import derive_run_id
from repro.serve import (
    LocalCluster,
    RetryPolicy,
    ServerError,
    SweepClient,
    SweepInterrupted,
    SweepServer,
    ring_assign,
)
from repro.serve.protocol import (
    FrameError,
    decode_result_frame,
    encode_result_frame,
    frame_bytes,
    job_from_fingerprint,
    read_frame,
)
from repro.serve.server import _Worker
from repro.serve.worker import parse_server_url
from repro.workloads.mixes import TWO_THREAD_MIXES

CFG = small_machine()
INSNS = 300


def grid_jobs() -> list[SimJob]:
    keyed = jobs_for_grid(
        TWO_THREAD_MIXES[:2], CFG, ("traditional", "2op_ooo"), (8,),
        INSNS, 0,
    )
    return [job for _, job in keyed]


def canon(results) -> list[str]:
    """Byte-level canonical form of a result list, for the invariant."""
    return [json.dumps(encode_job_result(p), sort_keys=True)
            for p in results]


@pytest.fixture(scope="module")
def golden():
    """Fault-free single-host results for the module's 4-point grid."""
    jobs = grid_jobs()
    results, report = execute_jobs(jobs, ExecutorConfig(jobs=1))
    assert report.simulated == len(jobs)
    return canon(results)


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    """One fault-free loopback cluster shared by the happy-path tests."""
    root = tmp_path_factory.mktemp("serve")
    with LocalCluster(
        workers=2, cache_dir=root / "cache", journal_dir=root / "journal",
        retries=2, timeout=60.0,
    ) as c:
        yield c


# ----------------------------------------------------------------------
# consistent hashing: the stability property
# ----------------------------------------------------------------------
job_hashes = st.lists(
    st.text(alphabet="0123456789abcdef", min_size=8, max_size=16),
    min_size=1, max_size=40, unique=True,
)
worker_sets = st.lists(
    st.text(alphabet="wxyz", min_size=1, max_size=4),
    min_size=1, max_size=6, unique=True,
)


class TestRingAssign:
    @given(job_hashes, worker_sets)
    @settings(max_examples=60)
    def test_join_moves_keys_only_to_new_worker(self, keys, workers):
        joined = workers + ["newcomer"]
        for key in keys:
            before = ring_assign(key, workers)
            after = ring_assign(key, joined)
            assert after in (before, "newcomer")

    @given(job_hashes, worker_sets)
    @settings(max_examples=60)
    def test_leave_moves_only_departed_workers_keys(self, keys, workers):
        if len(workers) < 2:
            return
        departed = workers[0]
        rest = workers[1:]
        for key in keys:
            before = ring_assign(key, workers)
            after = ring_assign(key, rest)
            if before != departed:
                assert after == before

    @given(job_hashes, worker_sets)
    @settings(max_examples=30)
    def test_assignment_is_deterministic_and_order_free(self, keys,
                                                        workers):
        for key in keys:
            assert ring_assign(key, workers) == \
                   ring_assign(key, list(reversed(workers)))

    def test_churn_is_about_one_over_n(self):
        # With 5 workers, adding a 6th should move ~1/6 of keys; virtual
        # nodes keep the realised fraction in the right ballpark.
        keys = [f"{i:04x}" for i in range(600)]
        workers = [f"w{i}" for i in range(5)]
        before = {k: ring_assign(k, workers) for k in keys}
        after = {k: ring_assign(k, workers + ["w5"]) for k in keys}
        moved = sum(before[k] != after[k] for k in keys)
        assert 0.05 < moved / len(keys) < 0.35

    def test_empty_worker_set_rejected(self):
        with pytest.raises(ValueError, match="at least one worker"):
            ring_assign("abcd", [])

    def test_hash_ring_honours_owner_even_when_busy(self):
        async def go():
            server = SweepServer()
            dispatched: list[str] = []

            async def record(w, st, job_hash):
                dispatched.append(w.name)
                st.status = "dispatched"

            server._dispatch_to = record
            for name in ("a", "b"):
                server.workers[name] = _Worker(
                    name=name, slots=1, pid=0, writer=None, last_beat=0.0)
            job = grid_jobs()[0]
            owner = ring_assign(job.content_hash(), ["a", "b"])
            # Fill the owner: the job must stay queued, not migrate.
            server.workers[owner].in_flight.add("busy")
            server.submit([job])
            await server._dispatch_once()
            assert dispatched == []
            server.workers[owner].in_flight.clear()
            await server._dispatch_once()
            assert dispatched == [owner]

        asyncio.run(go())


# ----------------------------------------------------------------------
# wire protocol: framing, checksums, network chaos
# ----------------------------------------------------------------------
class TestProtocol:
    def _payload(self) -> JobResult:
        return grid_jobs()[0].run()

    def test_result_frame_roundtrip_is_byte_stable(self):
        payload = self._payload()
        frame = encode_result_frame("abcd", 0, payload)
        decoded = decode_result_frame(frame)
        assert canon([decoded]) == canon([payload])

    def test_checksum_mismatch_treated_as_lost(self):
        frame = encode_result_frame("abcd", 0, self._payload())
        frame["body"]["result"]["cycles"] += 1
        assert decode_result_frame(frame) is None

    def test_raw_body_kind_roundtrip(self):
        frame = encode_result_frame("abcd", 1, {"answer": 42})
        assert frame["body_kind"] == "raw"
        assert decode_result_frame(frame) == {"answer": 42}

    def test_job_from_fingerprint_preserves_hash(self):
        job = grid_jobs()[0]
        rebuilt = job_from_fingerprint(job.fingerprint_payload())
        assert rebuilt.content_hash() == job.content_hash()

    def test_read_frame_roundtrip_and_eof(self):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(frame_bytes({"type": "heartbeat"}))
            reader.feed_eof()
            first = await read_frame(reader)
            second = await read_frame(reader)
            return first, second

        first, second = asyncio.run(go())
        assert first == {"type": "heartbeat"}
        assert second is None

    def test_read_frame_rejects_torn_and_typeless(self):
        async def torn():
            reader = asyncio.StreamReader()
            reader.feed_data(b'{"type": "hea')  # no newline, then EOF
            reader.feed_eof()
            return await read_frame(reader)

        async def typeless():
            reader = asyncio.StreamReader()
            reader.feed_data(b'{"hello": 1}\n')
            return await read_frame(reader)

        with pytest.raises(FrameError, match="mid-frame"):
            asyncio.run(torn())
        with pytest.raises(FrameError, match="without a type"):
            asyncio.run(typeless())

    def test_oversized_frame_spans_stream_limit(self):
        # Larger than the default StreamReader buffer (64 KiB) but under
        # MAX_FRAME_BYTES: the chunked fallback must reassemble it.
        big = {"type": "result", "blob": "x" * 200_000}

        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(frame_bytes(big))
            reader.feed_eof()
            return await read_frame(reader)

        assert asyncio.run(go()) == big

    def test_net_chaos_deterministic_and_keyed_by_attempt(self):
        c1 = ChaosConfig(seed=11, net_drop_p=0.4, net_dup_p=0.3,
                         net_delay_p=0.5, net_delay_max=0.02)
        c2 = ChaosConfig(seed=11, net_drop_p=0.4, net_dup_p=0.3,
                         net_delay_p=0.5, net_delay_max=0.02)
        keys = [f"{i:03x}" for i in range(40)]
        faults1 = [c1.net_fault("serve-dispatch", k, 0) for k in keys]
        assert faults1 == [c2.net_fault("serve-dispatch", k, 0)
                           for k in keys]
        assert "drop" in faults1 and "dup" in faults1
        # Retries must be able to converge: the same key draws fresh
        # fault decisions at the next attempt.
        assert faults1 != [c1.net_fault("serve-dispatch", k, 1)
                           for k in keys]
        # Sites are independent fault populations.
        assert faults1 != [c1.net_fault("serve-result", k, 0)
                           for k in keys]
        delays = [c1.net_delay("serve-dispatch", k, 0) for k in keys]
        assert all(0.0 <= d <= 0.02 for d in delays)
        assert any(d > 0.0 for d in delays)

    def test_net_knobs_parse_and_gate(self):
        c = ChaosConfig.parse(
            "net_drop=0.2,net_dup=0.1,net_delay=0.3,net_delay_max=0.01"
        )
        assert (c.net_drop_p, c.net_dup_p, c.net_delay_p) == \
               (0.2, 0.1, 0.3)
        assert c.net_delay_max == 0.01
        assert c.net_enabled and c.enabled
        assert not ChaosConfig(seed=5).net_enabled
        # Kill-only chaos is enabled but has no network component.
        assert not ChaosConfig(kill_p=0.5).net_enabled


class TestWorkerUrl:
    def test_parse(self):
        assert parse_server_url("http://127.0.0.1:8742") == \
               ("127.0.0.1", 8742)

    def test_rejects_bad_urls(self):
        with pytest.raises(ValueError, match="unsupported scheme"):
            parse_server_url("ftp://host:1")
        with pytest.raises(ValueError, match="host:port"):
            parse_server_url("http://hostonly")


def test_malformed_hello_is_rejected_cleanly():
    """A hello whose ``slots`` or ``pid`` is not an integer closes the
    link without registering a worker or raising on the loop."""
    async def go():
        errors: list[dict] = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: errors.append(context))
        server = SweepServer()
        port = await server.start()
        try:
            for hello in ({"type": "hello", "slots": "x"},
                          {"type": "hello", "slots": None},
                          {"type": "hello", "pid": [1]}):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port)
                writer.write(b"POST /v1/workers/attach HTTP/1.1\r\n"
                             b"Content-Length: 0\r\n\r\n")
                writer.write(frame_bytes(hello))
                await writer.drain()
                await reader.readuntil(b"\r\n\r\n")  # upgrade headers
                assert await reader.read() == b""  # server hung up
                writer.close()
            await asyncio.sleep(0.1)  # let the handler tasks settle
            assert server.workers == {}
        finally:
            await server.stop()
        return errors

    assert asyncio.run(go()) == []


# ----------------------------------------------------------------------
# server-side dedup across submissions (in-process, no workers)
# ----------------------------------------------------------------------
class TestSubmissionDedup:
    def test_identical_submissions_attach_to_one_sweep(self):
        async def go():
            server = SweepServer()
            await server.start()
            try:
                jobs = grid_jobs()
                first = server.submit(list(jobs))
                second = server.submit(list(jobs))
                # Content-derived sweep id: the second submission joins
                # the in-flight sweep instead of re-queueing the grid.
                assert second is first
                assert len(server.jobs) == len(jobs)
            finally:
                await server.stop()

        asyncio.run(go())

    def test_overlapping_grids_share_job_states(self):
        async def go():
            server = SweepServer()
            await server.start()
            try:
                jobs = grid_jobs()
                server.submit(jobs[:3])
                server.submit(jobs[1:])
                overlap = jobs[1].content_hash()
                st = server.jobs[overlap]
                # One _JobState, two ledgers waiting on it.
                assert len(st.waiters) == 2
                assert len(server.jobs) == len(jobs)
            finally:
                await server.stop()

        asyncio.run(go())


# ----------------------------------------------------------------------
# end to end: loopback cluster vs the single-host golden run
# ----------------------------------------------------------------------
class TestEndToEnd:
    def test_cold_then_warm_matches_golden(self, cluster, golden):
        jobs = grid_jobs()
        client = SweepClient(cluster.url)
        cold, cold_report = client.execute(jobs)
        assert canon(cold) == golden
        assert cold_report.simulated == len(jobs)
        warm, warm_report = client.execute(jobs)
        assert canon(warm) == golden
        assert warm_report.simulated == 0
        # The journal (replication log) replays ahead of the cache
        # pass, so a warm re-submission resolves as resumed + cached.
        assert warm_report.resumed + warm_report.cached == len(jobs)

    def test_executor_config_server_routes_execute_jobs(self, cluster,
                                                        golden):
        results, report = execute_jobs(
            grid_jobs(), ExecutorConfig(server=cluster.url)
        )
        assert canon(results) == golden
        assert report.failed == 0

    def test_progress_stream_counts(self, cluster):
        jobs = grid_jobs()
        seen: list[str] = []
        _, report = SweepClient(cluster.url).execute(
            jobs, progress=lambda p: seen.append(p.outcome)
        )
        assert len(seen) == len(jobs)
        assert report.completed == len(jobs)

    def test_event_stream_replays_history(self, cluster):
        jobs = grid_jobs()
        client = SweepClient(cluster.url)
        reply = client.submit(
            {"jobs": [j.fingerprint_payload() for j in jobs]})
        events = list(client.stream_events(reply["sweep"]))
        kinds = [e["event"] for e in events]
        assert kinds[0] == "sweep-start"
        assert kinds[-1] == "sweep-end"
        assert len([k for k in kinds
                    if k in ("cached", "resumed", "simulated")]) == \
               len(jobs)

    def test_grid_submission_vocabulary(self, cluster, golden):
        names = [m.name for m in TWO_THREAD_MIXES[:2]]
        client = SweepClient(cluster.url)
        reply = client.submit({"grid": {
            "profile": "small", "threads": 2, "mixes": names,
            "schedulers": ["traditional", "2op_ooo"], "iq_sizes": [8],
            "max_insns": INSNS, "seed": 0,
        }})
        assert reply["total"] == len(golden)
        results, report = client.fetch_results(reply["sweep"])
        # A grid expanded server-side hashes identically to the same
        # grid submitted as explicit fingerprints.
        assert canon(results) == golden
        assert report.failed == 0

    def test_bad_submissions_rejected(self, cluster):
        client = SweepClient(cluster.url)
        with pytest.raises(ServerError, match="bad submission"):
            client.submit({"grid": {"profile": "huge"}})
        with pytest.raises(ServerError, match='"jobs", "grid" or'):
            client.submit({})

    def test_unknown_sweep_is_404(self, cluster):
        with pytest.raises(ServerError, match="404"):
            SweepClient(cluster.url).fetch_results("no-such-sweep")

    def test_cache_endpoint_matches_cli_struct(self, cluster):
        stats = SweepClient(cluster.url).cache_stats()
        assert stats["entries"] == len(grid_jobs())
        assert {"kind": "sim", "entries": stats["entries"],
                "bytes": stats["total_bytes"]} in stats["by_kind"]
        # Per-run hit/miss counters persisted by the server's ledger
        # (same files `python -m repro.exec cache stats` aggregates).
        assert stats["runs"] >= 1
        assert stats["hits"] >= 0 and stats["misses"] >= 0


# ----------------------------------------------------------------------
# the acceptance invariant: chaos cluster == fault-free single host
# ----------------------------------------------------------------------
def chaos_for(hashes) -> ChaosConfig:
    """Deterministically pick a seed whose attempt-0 draws inject at
    least one worker kill and one dropped frame, so the test provably
    exercises the recovery paths — never flaky, never vacuous."""
    for seed in range(300):
        c = ChaosConfig(
            seed=seed, kill_p=0.3, net_drop_p=0.2, net_dup_p=0.2,
            net_delay_p=0.3, net_delay_max=0.02,
        )
        kills = sum(c.should_kill(h, 0) for h in hashes)
        drops = sum(
            c.net_fault(site, h, 0) == "drop"
            for h in hashes for site in ("serve-dispatch", "serve-result")
        )
        dups = sum(
            c.net_fault(site, h, a) == "dup"
            for h in hashes for site in ("serve-dispatch", "serve-result")
            for a in (0, 1)
        )
        if kills >= 1 and drops >= 1 and dups >= 1:
            return c
    raise AssertionError("no seed injects enough faults; widen the search")


def test_chaotic_cluster_matches_golden(tmp_path, golden):
    """Acceptance: >= 2 workers under worker kills + dropped/duplicated/
    delayed frames — byte-identical results, then a zero-simulation
    repeat submission."""
    jobs = grid_jobs()
    chaos = chaos_for([j.content_hash() for j in jobs])
    with LocalCluster(
        workers=2, cache_dir=tmp_path / "cache",
        journal_dir=tmp_path / "journal", chaos=chaos, respawn=True,
        retries=8, timeout=5.0, heartbeat_grace=2.0,
    ) as cluster:
        client = SweepClient(cluster.url)
        cold, cold_report = client.execute(jobs)
        warm, warm_report = client.execute(jobs)
    assert canon(cold) == golden
    assert cold_report.failed == 0
    # At least one attempt died with its worker and was re-dispatched.
    assert cold_report.retried >= 1
    assert canon(warm) == golden
    assert warm_report.simulated == 0


# ----------------------------------------------------------------------
# the journal as replication log: server restart, zero re-simulation
# ----------------------------------------------------------------------
def test_server_restart_resumes_from_journal(tmp_path, golden):
    jobs = grid_jobs()
    journal_dir = tmp_path / "journal"  # no cache: the journal alone
    with LocalCluster(workers=2, journal_dir=journal_dir,
                      retries=2, timeout=60.0) as cluster:
        first, first_report = SweepClient(cluster.url).execute(jobs)
    assert canon(first) == golden
    assert first_report.simulated == len(jobs)

    # "Restart": a brand-new server process over the same journal root.
    with LocalCluster(workers=2, journal_dir=journal_dir,
                      retries=2, timeout=60.0) as cluster:
        again, report = SweepClient(cluster.url).execute(jobs)
    assert canon(again) == golden
    assert report.simulated == 0
    assert report.resumed == len(jobs)


# ----------------------------------------------------------------------
# client retry semantics: backoff, Retry-After, what is never retried
# ----------------------------------------------------------------------
def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class TestRetryPolicy:
    def test_deterministic_and_bounded(self):
        rp = RetryPolicy(seed=7)
        delays = [rp.delay("http://h:1", a) for a in range(6)]
        assert delays == [rp.delay("http://h:1", a) for a in range(6)]
        for a, d in enumerate(delays):
            raw = min(rp.cap, rp.base * 2 ** a)
            assert raw * (1 - rp.jitter) <= d <= raw

    def test_different_seeds_desynchronise(self):
        a = [RetryPolicy(seed=1).delay("s", n) for n in range(4)]
        b = [RetryPolicy(seed=2).delay("s", n) for n in range(4)]
        assert a != b


class TestSweepClientRequests:
    """SweepClient._call semantics against a scripted fake server."""

    @staticmethod
    def _client(monkeypatch, script, **kw):
        import repro.serve.client as client_mod

        calls = []

        def fake_request(server, method, path, payload=None,
                         timeout=None):
            action = script[min(len(calls), len(script) - 1)]
            calls.append((method, path, payload))
            if isinstance(action, Exception):
                raise action
            return action

        monkeypatch.setattr(client_mod, "_request", fake_request)
        sleeps = []
        client = SweepClient("http://127.0.0.1:1", sleep=sleeps.append,
                             **kw)
        return client, calls, sleeps

    def test_retries_connect_failures_then_succeeds(self, monkeypatch):
        script = [ServerError("refused"), ServerError("refused"),
                  {"ok": True}]
        client, calls, sleeps = self._client(monkeypatch, script)
        assert client.health() == {"ok": True}
        assert len(calls) == 3
        assert len(sleeps) == 2

    def test_retry_after_floor_respected(self, monkeypatch):
        script = [ServerError("draining", status=503, retry_after=3.0),
                  {"ok": True}]
        client, _, sleeps = self._client(monkeypatch, script)
        client.health()
        assert sleeps[0] >= 3.0

    def test_semantic_errors_never_retried(self, monkeypatch):
        script = [ServerError("no such sweep", status=404)]
        client, calls, _ = self._client(monkeypatch, script)
        with pytest.raises(ServerError, match="no such sweep"):
            client.health()
        assert len(calls) == 1

    def test_chaos_refusal_applies_before_the_wire(self, monkeypatch):
        chaos = ChaosConfig(seed=3, net_refuse_p=1.0)
        client, calls, _ = self._client(
            monkeypatch, [{"ok": True}], chaos=chaos)
        with pytest.raises(ServerError, match="chaos"):
            client.health()
        assert calls == []  # every attempt refused client-side


class TestStreamRecovery:
    def test_mid_stream_drop_resumes_exactly_once(self, monkeypatch):
        import repro.serve.client as client_mod

        history = [{"event": "sweep-start", "n": 0},
                   {"event": "simulated", "n": 1},
                   {"event": "simulated", "n": 2},
                   {"event": "sweep-end", "n": 3}]
        connects = []

        def fake_stream(server, sweep_id, timeout=None):
            connects.append(1)
            if len(connects) == 1:
                yield history[0]
                yield history[1]
                raise ServerError("connection dropped mid-stream")
            # Reconnect: the server replays the full history.
            yield from history

        monkeypatch.setattr(client_mod, "_stream_events", fake_stream)
        client = SweepClient("http://127.0.0.1:1",
                             sleep=lambda s: None)
        assert list(client.stream_events("abc")) == history
        assert len(connects) == 2


# ----------------------------------------------------------------------
# admission: what /v1/health reports of the queue, and the drained
# server's 503
# ----------------------------------------------------------------------
class TestAdmission:
    def test_health_reports_queue_and_shares(self, tmp_path):
        jobs = grid_jobs()
        with LocalCluster(workers=0,
                          journal_dir=tmp_path / "journal") as cluster:
            client = SweepClient(cluster.url)
            # Two overlapping sweeps share their common jobs' states,
            # so the queue counts each job once.
            client.submit({"jobs": [
                j.fingerprint_payload() for j in jobs[:3]]})
            client.submit({"jobs": [
                j.fingerprint_payload() for j in jobs[1:]]})
            h = client.health()
            assert h["state"] == "serving"
            assert h["queue"]["queued"] == len(jobs)
            assert h["queue"]["dispatched"] == 0
            assert h["queue"]["unresolved"] == len(jobs)
            assert h["workers"] == []
            assert h["sweeps"]["total"] == 2
            assert h["sweeps"]["running"] == 2

    def test_drained_server_rejects_with_503(self, tmp_path, golden):
        jobs = grid_jobs()
        journal_dir = tmp_path / "journal"
        with LocalCluster(workers=0,
                          journal_dir=journal_dir) as cluster:
            client = SweepClient(cluster.url)
            client.submit({"jobs": [
                j.fingerprint_payload() for j in jobs]})
            summary = client.drain(0.2)  # POST /v1/admin/drain
            assert summary["state"] == "drained"
            assert summary["interrupted"] == len(jobs)
            assert client.health()["state"] == "drained"
            once = SweepClient(cluster.url,
                               retry=RetryPolicy(attempts=1))
            with pytest.raises(ServerError) as excinfo:
                once.submit({"jobs": [jobs[0].fingerprint_payload()]})
            assert excinfo.value.status == 503
            assert excinfo.value.retry_after == 1.0

        # The journalled remainder resumes on a replacement server.
        with LocalCluster(workers=2, journal_dir=journal_dir,
                          retries=2, timeout=60.0) as cluster:
            results, report = SweepClient(cluster.url).execute(jobs)
        assert canon(results) == golden
        assert report.simulated == len(jobs)  # nothing ran pre-drain


# ----------------------------------------------------------------------
# graceful drain: in-flight work finishes, the rest journals, restart
# resumes with zero re-simulation
# ----------------------------------------------------------------------
def test_drain_midsweep_then_restart_zero_resimulation(tmp_path):
    keyed = jobs_for_grid(
        TWO_THREAD_MIXES[:2], CFG, ("traditional", "2op_ooo"), (8, 16),
        3000, 0,
    )
    jobs = [j for _, j in keyed]
    golden_results, _ = execute_jobs(jobs, ExecutorConfig(jobs=1))
    cache_dir, journal_dir = tmp_path / "cache", tmp_path / "journal"

    with LocalCluster(workers=1, cache_dir=cache_dir,
                      journal_dir=journal_dir,
                      drain_grace=0.5) as cluster:
        client = SweepClient(cluster.url)
        reply = client.submit({"jobs": [
            j.fingerprint_payload() for j in jobs]})
        total = reply["total"]

        # A second client blocked on the sweep must surface the drain
        # as SweepInterrupted rather than hanging on a dead stream.
        watcher_saw: list[type] = []

        def watch() -> None:
            try:
                SweepClient(cluster.url).execute(jobs)
            except SweepInterrupted:
                watcher_saw.append(SweepInterrupted)

        watcher = threading.Thread(target=watch, daemon=True)
        watcher.start()

        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if client.sweep_status(reply["sweep"])["completed"] >= 1:
                break
            time.sleep(0.05)
        summary = cluster.drain()
        completed_a = summary["finished"]
        assert summary["state"] == "drained"
        assert completed_a >= 1
        watcher.join(timeout=30.0)
        assert watcher_saw == [SweepInterrupted]

    with LocalCluster(workers=2, cache_dir=cache_dir,
                      journal_dir=journal_dir,
                      retries=2, timeout=60.0) as cluster:
        results, report = SweepClient(cluster.url).execute(jobs)
    assert canon(results) == canon(golden_results)
    assert report.failed == 0
    # The replication-log invariant: work done before the drain is
    # replayed, never re-run.
    assert report.resumed == completed_a
    assert report.simulated == total - completed_a


# ----------------------------------------------------------------------
# SIGTERM == drain: the operational contract of `repro.serve server`
# ----------------------------------------------------------------------
class TestSigtermDrain:
    def test_sigterm_drains_journals_and_exits_zero(self, tmp_path):
        port = _free_port()
        journal_dir = tmp_path / "journal"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "server",
             "--port", str(port), "--journal-dir", str(journal_dir),
             "--drain-grace", "0.5"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            client = SweepClient(
                f"http://127.0.0.1:{port}",
                retry=RetryPolicy(attempts=40, base=0.1, cap=0.25))
            client.health()  # retries until the server is listening
            reply = client.submit({"jobs": [
                j.fingerprint_payload() for j in grid_jobs()]})
            assert reply["total"] == len(grid_jobs())
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert "drained:" in out
        # No workers attached, so every job journals as interrupted and
        # the run never reaches a run-end summary.
        journalled = "".join(
            p.read_text() for p in journal_dir.rglob("*") if p.is_file())
        assert '"interrupted"' in journalled
        assert "run-end" not in journalled


# ----------------------------------------------------------------------
# client reconnect: submission survives the server not being up yet
# ----------------------------------------------------------------------
def test_submit_before_server_listens_reconnects(tmp_path, golden):
    jobs = grid_jobs()
    port = _free_port()
    url = f"http://127.0.0.1:{port}"
    outcome: dict = {}

    def submit_early() -> None:
        client = SweepClient(
            url, retry=RetryPolicy(attempts=60, base=0.1, cap=0.25, seed=4))
        outcome["results"], outcome["report"] = client.execute(jobs)

    t = threading.Thread(target=submit_early, daemon=True)
    t.start()
    time.sleep(0.3)  # let the first attempts hit the closed port
    cluster = LocalCluster(workers=2, cache_dir=tmp_path / "cache",
                           retries=2, timeout=60.0)
    cluster.server.port = port
    with cluster:
        t.join(timeout=120.0)
    assert not t.is_alive()
    assert canon(outcome["results"]) == golden
    assert outcome["report"].failed == 0


# ----------------------------------------------------------------------
# a dead server: the retry budget runs out and the error surfaces
# ----------------------------------------------------------------------
def test_dead_server_raises_after_retry_budget(monkeypatch):
    import repro.serve.client as client_mod

    tries: list[str] = []
    real_request = client_mod._request

    def counting_request(server, method, path, *args, **kwargs):
        tries.append(path)
        return real_request(server, method, path, *args, **kwargs)

    monkeypatch.setattr(client_mod, "_request", counting_request)
    url = f"http://127.0.0.1:{_free_port()}"  # nobody listening
    with pytest.raises(ServerError, match="cannot reach"):
        execute_jobs(grid_jobs(), ExecutorConfig(jobs=2, server=url))
    assert tries == ["/v1/sweeps"] * RetryPolicy().attempts


# ----------------------------------------------------------------------
# the drain acceptance run: refuse/slow/kill chaos, drain mid-sweep,
# restart, byte-identity, zero re-simulation of pre-drain work
# ----------------------------------------------------------------------
def _overload_chaos(hashes) -> ChaosConfig:
    """Seed-search so the run provably exercises every fault path: at
    least one worker kill, one slow worker, and a client-side refusal
    of the first submission attempt."""
    for seed in range(300):
        c = ChaosConfig(seed=seed, kill_p=0.25, net_refuse_p=0.4,
                        slow_p=0.4, slow_seconds=0.05)
        kills = sum(c.should_kill(h, 0) for h in hashes)
        slows = sum(c.slow_delay(h, 0) > 0 for h in hashes)
        if (kills >= 1 and slows >= 1
                and c.should_refuse("client-connect", "/v1/sweeps", 0)):
            return c
    raise AssertionError("no seed injects enough faults; widen the search")


def test_overloaded_chaotic_drain_restart_acceptance(tmp_path):
    jobs = []
    for seed in range(3):
        keyed = jobs_for_grid(
            TWO_THREAD_MIXES[:2], CFG, ("traditional", "2op_ooo"),
            (8,), 2500, seed,
        )
        jobs.extend(j for _, j in keyed)
    golden_results, _ = execute_jobs(jobs, ExecutorConfig(jobs=2))
    hashes = [j.content_hash() for j in jobs]
    assert len(set(hashes)) == len(hashes)
    chaos = _overload_chaos(hashes)
    cache_dir, journal_dir = tmp_path / "cache", tmp_path / "journal"

    def submit_all(url: str) -> None:
        client = SweepClient(
            url, chaos=chaos,
            retry=RetryPolicy(attempts=12, base=0.05, cap=0.5))
        try:
            client.execute(jobs)
        except SweepInterrupted:
            pass  # expected: the drain below interrupts the sweep

    with LocalCluster(workers=2, cache_dir=cache_dir,
                      journal_dir=journal_dir,
                      retries=8, timeout=5.0, heartbeat_grace=2.0,
                      chaos=chaos, respawn=True,
                      drain_grace=0.5) as cluster:
        submitter = threading.Thread(target=submit_all,
                                     args=(cluster.url,), daemon=True)
        submitter.start()
        # A chaos-free observer polls the sweep until some work has
        # completed, then pulls the plug mid-sweep.
        observer = SweepClient(cluster.url)
        sweep_id = derive_run_id(hashes)
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            try:
                completed = observer.sweep_status(sweep_id)["completed"]
            except ServerError as exc:
                if exc.status != 404:
                    raise
                completed = 0  # the refused submission has not landed
            if completed >= 1:
                break
            time.sleep(0.05)
        else:
            raise AssertionError("no progress before drain")
        # Jobs in flight at drain time may finish inside the grace
        # window, so the authoritative count is the drain's own.
        summary = cluster.drain()
        submitter.join(timeout=30.0)
        assert not submitter.is_alive()
    assert summary["state"] == "drained"
    completed_a = summary["finished"]
    assert completed_a >= 1

    # Restart over the same cache+journal, fault-free: the resubmission
    # completes byte-identically with zero re-simulation of the
    # pre-drain work.
    with LocalCluster(workers=2, cache_dir=cache_dir,
                      journal_dir=journal_dir,
                      retries=2, timeout=60.0) as cluster:
        results, report = SweepClient(cluster.url).execute(jobs)
    assert canon(results) == canon(golden_results)
    assert report.failed == 0
    # Everything completed before the drain is replayed, never re-run.
    assert report.simulated + completed_a == len(jobs)
