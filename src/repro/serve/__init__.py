"""Distributed sweep service: job server, sharded workers, shared cache.

The grid executor (:mod:`repro.exec`) made sweeps parallel on one
host; this subsystem makes them parallel across *hosts* while keeping
every guarantee the single-host path earned — content-addressed dedup,
byte-identical results, crash-safe journalling, chaos-survivable
execution:

* :mod:`repro.serve.server`   — :class:`SweepServer`, the asyncio
  HTTP/JSON job server: accepts grid submissions, dedups jobs across
  concurrent sweeps by content hash, shards them over attached
  workers, streams per-sweep NDJSON progress;
* :mod:`repro.serve.worker`   — :class:`WorkerAgent`, the remote
  worker: rebuilds jobs from fingerprints, executes, ships
  checksummed results;
* :mod:`repro.serve.policy`   — :func:`ring_assign`, the consistent
  hash ring that places each job on a worker (placement only, never
  result-affecting);
* :mod:`repro.serve.protocol` / :mod:`repro.serve.http` — the NDJSON
  frame protocol (with deterministic network-fault injection) and the
  minimal stdlib HTTP layer;
* :mod:`repro.serve.client`   — :class:`SweepClient`, the synchronous
  client; ``ExecutorConfig(server=...)`` (or ``REPRO_SERVER``) routes
  any existing sweep through it unchanged. It retries connection
  failures and 503 with seeded backoff and survives dropped event
  streams;
* :mod:`repro.serve.cluster`  — :class:`LocalCluster`, the loopback
  server+workers harness used by tests, CI and ``make serve-smoke``.

``POST /v1/admin/drain`` (or SIGTERM under ``python -m repro.serve
server``) winds the server down with the journal as the replication
log, and ``GET /v1/health`` reports queue depth, worker liveness and
drain state.

The test-enforced headline invariant: a sweep executed by this service
— with worker churn, dropped/duplicated/delayed messages, connection
refusals and worker kills injected, even across a drain + restart —
completes with results byte-identical to a fault-free single-host
:func:`repro.exec.execute_jobs` run, and a repeat submission simulates
nothing. See docs/distributed.md.
"""

from repro.serve.client import (
    RetryPolicy,
    ServerError,
    SweepClient,
    SweepInterrupted,
)
from repro.serve.cluster import LocalCluster
from repro.serve.policy import ring_assign
from repro.serve.server import Sweep, SweepServer
from repro.serve.worker import WorkerAgent, run_worker

__all__ = [
    "LocalCluster",
    "RetryPolicy",
    "ServerError",
    "Sweep",
    "SweepClient",
    "SweepInterrupted",
    "SweepServer",
    "WorkerAgent",
    "ring_assign",
    "run_worker",
]
