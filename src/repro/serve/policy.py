"""Job-to-worker placement: a consistent hash ring.

The server separates *what completes* from *where it runs*: a job's
result depends only on its content, never its placement, so placement
only trades off locality and load balance.

Each job goes to the ring owner of its content hash (64 virtual nodes
per worker on a SHA-256 ring). Placement is a pure function of (job
hash, live worker set): when a worker joins or leaves, only the ~1/N
of jobs that the ring maps to the changed worker move — every other
job keeps its owner. That stability is what makes worker churn cheap
(only the dead worker's in-flight jobs re-shard) and is
property-tested with hypothesis.
"""

from __future__ import annotations

import bisect
import hashlib
from collections.abc import Sequence

#: Virtual nodes per worker on the hash ring. More points smooth the
#: per-worker share toward 1/N at the cost of ring size; 64 keeps the
#: max/min share ratio under ~1.5 for small clusters.
RING_REPLICAS = 64


def _ring_point(label: str) -> int:
    """Position of a label on the 64-bit ring (stable across runs and
    platforms — plain sha256, no process-seeded hashing)."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def ring_assign(job_hash: str, worker_names: Sequence[str]) -> str:
    """Pure consistent-hash assignment: the ring owner of ``job_hash``
    among ``worker_names`` (what ``SweepServer`` dispatches by).

    Pure, so the stability property — adding a worker only moves keys
    *to* the new worker; removing one only moves the removed worker's
    keys — is tested without a server.
    """
    if not worker_names:
        raise ValueError("ring_assign needs at least one worker")
    points: list[tuple[int, str]] = []
    for name in worker_names:
        for i in range(RING_REPLICAS):
            points.append((_ring_point(f"{name}#{i}"), name))
    points.sort()
    keys = [p for p, _ in points]
    idx = bisect.bisect_right(keys, _ring_point(job_hash)) % len(points)
    return points[idx][1]
