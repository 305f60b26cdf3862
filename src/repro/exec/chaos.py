"""Deterministic fault injection for the grid executor.

The paper's dispatch engine guarantees forward progress under
pathological conditions (deadlock-avoidance buffer, watchdog timer);
this module gives the *harness* the same adversary. A
:class:`ChaosConfig` injects the faults we want the executor to survive
— worker crashes, hung workers, delayed/duplicated result delivery,
corrupted or truncated cache entries — and every injection decision is
a pure function of ``(chaos seed, site, job hash, attempt)`` via
:mod:`repro.util.rng`. Consequences:

* a chaotic run is **replayable**: the same seed injects the same
  faults at the same grid points, regardless of worker count or
  scheduling order, so a failure found under chaos reproduces in a
  test;
* retries make progress: a kill/hang decision is keyed by attempt, so
  a retried job is not deterministically re-killed forever (with
  kill probability *p* and *r* retries a job fails terminally with
  probability ``p**(r+1)``);
* the headline invariant is testable: with chaos enabled, a sweep must
  complete and produce results byte-identical to a fault-free run
  (``tests/test_chaos.py``, ``make chaos-smoke``).

Enable from the environment (picked up by
:meth:`repro.exec.ExecutorConfig.from_env` and the benchmarks)::

    REPRO_CHAOS="kill=0.3,hang=0.05,corrupt=0.5,seed=7" make figures-parallel

Knobs: ``kill`` / ``hang`` / ``delay`` / ``dup`` / ``corrupt``
(probabilities), ``seed`` (int), ``delay_max`` / ``hang_seconds``
(seconds). ``REPRO_CHAOS=0`` (or unset) disables injection entirely.

The distributed sweep service (:mod:`repro.serve`) adds *network*
fault sites between the server and its remote workers: any protocol
message may be dropped, duplicated or delayed, each decided purely in
``(seed, site, message key, attempt)`` like every other fault. Knobs:
``net_drop`` / ``net_dup`` / ``net_delay`` (probabilities) and
``net_delay_max`` (seconds). A dropped job assignment or result is
indistinguishable from a lost worker — the server's deadline/watchdog
machinery re-shards the job, and the headline invariant still holds:
the sweep's results are byte-identical to a fault-free single-host run
(``tests/test_serve.py``).

Two further serve-side faults: ``net_refuse`` makes a client
connection attempt fail with a refusal (as if the server were down or
its listen backlog full), keyed by ``(site, server, attempt)`` so
client backoff retries converge; and ``slow`` makes a worker
*heartbeat-but-slow* — it keeps beating (so the hang watchdog stays
quiet) yet sits on the job for ``slow_seconds`` before running it,
which only the per-job deadline can reap. Together they drive the
client's retry/backoff path and the server's per-job deadline.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from repro.util.rng import make_rng

#: Exit status a chaos-killed worker dies with (visible in failure
#: messages, distinguishable from a real simulator crash).
CHAOS_EXIT_CODE = 73


class ChaosError(RuntimeError):
    """Injected failure in serial (in-process) mode.

    In process mode a kill is a genuine ``os._exit``; without a worker
    process to sacrifice, the serial path raises this instead so the
    retry machinery is exercised the same way.
    """


@dataclass(frozen=True, slots=True)
class ChaosConfig:
    """Seeded fault-injection policy for one executor run."""

    #: Root seed every injection decision derives from.
    seed: int = 0
    #: Probability a worker dies (``os._exit``) during a job attempt.
    kill_p: float = 0.0
    #: Probability a worker hangs (stops heartbeating, then sleeps
    #: ``hang_seconds``) before running its job — exercises the
    #: watchdog/timeout path, never corrupts a result.
    hang_p: float = 0.0
    #: Probability result delivery is delayed by up to ``delay_max`` s.
    delay_p: float = 0.0
    #: Probability a worker delivers its result twice.
    dup_p: float = 0.0
    #: Probability a cache entry is corrupted (truncated or bit-flipped)
    #: as it is written.
    corrupt_p: float = 0.0
    #: Upper bound of an injected delivery delay, seconds.
    delay_max: float = 0.05
    #: How long a hung worker sleeps; the watchdog (or the per-job
    #: timeout) is expected to reap it long before this elapses.
    hang_seconds: float = 3600.0
    #: Probability a server<->worker protocol message is dropped on the
    #: floor (the sender believes it was sent; nobody receives it).
    net_drop_p: float = 0.0
    #: Probability a server<->worker protocol message is delivered twice.
    net_dup_p: float = 0.0
    #: Probability a server<->worker protocol message is delayed by up
    #: to ``net_delay_max`` seconds before delivery.
    net_delay_p: float = 0.0
    #: Upper bound of an injected network delay, seconds.
    net_delay_max: float = 0.05
    #: Probability a client connection attempt is refused outright
    #: (``ConnectionRefusedError``), as if the server were down.
    net_refuse_p: float = 0.0
    #: Probability a worker goes *heartbeat-but-slow* on a job attempt:
    #: it keeps beating but sleeps ``slow_seconds`` before running, so
    #: only the per-job deadline (never the hang watchdog) can reap it.
    slow_p: float = 0.0
    #: How long a slow worker sits on the job before running it.
    slow_seconds: float = 0.25

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Whether any fault has a non-zero probability."""
        return any(
            p > 0.0
            for p in (self.kill_p, self.hang_p, self.delay_p, self.dup_p,
                      self.corrupt_p, self.net_drop_p, self.net_dup_p,
                      self.net_delay_p, self.net_refuse_p, self.slow_p)
        )

    @property
    def net_enabled(self) -> bool:
        """Whether any *network* fault site is active (the protocol
        layer checks this before paying per-frame RNG draws)."""
        return any(
            p > 0.0
            for p in (self.net_drop_p, self.net_dup_p, self.net_delay_p)
        )

    @classmethod
    def from_env(cls) -> "ChaosConfig | None":
        """Parse ``REPRO_CHAOS``; None when unset, empty, or ``0``.

        Format: comma-separated ``knob=value`` pairs, e.g.
        ``kill=0.3,corrupt=0.5,seed=7``. Knobs map onto the dataclass
        fields (``kill`` -> ``kill_p`` etc.); unknown knobs raise.
        """
        spec = os.environ.get("REPRO_CHAOS", "").strip()
        if spec in ("", "0"):
            return None
        return cls.parse(spec)

    @classmethod
    def parse(cls, spec: str) -> "ChaosConfig":
        """Parse a ``kill=0.3,seed=7``-style spec string."""
        aliases = {
            "kill": "kill_p", "hang": "hang_p", "delay": "delay_p",
            "dup": "dup_p", "corrupt": "corrupt_p",
            "net_drop": "net_drop_p", "net_dup": "net_dup_p",
            "net_delay": "net_delay_p", "net_refuse": "net_refuse_p",
            "slow": "slow_p",
        }
        known = {f.name: f for f in fields(cls)}
        kwargs: dict[str, object] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            name, sep, value = part.partition("=")
            name = aliases.get(name.strip(), name.strip())
            if not sep or name not in known:
                raise ValueError(
                    f"bad REPRO_CHAOS knob {part!r}; known: "
                    f"{', '.join(sorted(set(aliases) | set(known)))}"
                )
            if name == "seed":
                kwargs[name] = int(value.strip())
            else:
                kwargs[name] = float(value.strip())
        for name, p in kwargs.items():
            if name.endswith("_p") and not 0.0 <= float(p) <= 1.0:
                raise ValueError(f"chaos probability {name}={p} not in [0,1]")
        return cls(**kwargs)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # decisions — pure functions of (seed, site, labels)
    # ------------------------------------------------------------------
    def _u(self, site: str, *labels: object) -> float:
        """Uniform [0,1) draw, deterministic in (seed, site, labels)."""
        return float(make_rng(self.seed, "chaos", site, *labels).random())

    def kill_point(self, job_hash: str, attempt: int) -> str | None:
        """None, or where this attempt dies: "early" (before the job
        runs) or "late" (after computing, before reporting)."""
        u = self._u("kill", job_hash, attempt)
        if u >= self.kill_p:
            return None
        return "early" if u < self.kill_p / 2 else "late"

    def should_kill(self, job_hash: str, attempt: int) -> bool:
        """Whether this attempt is killed at all (either point)."""
        return self.kill_point(job_hash, attempt) is not None

    def should_hang(self, job_hash: str, attempt: int) -> bool:
        """Whether this attempt hangs (stops heartbeating) first."""
        return self._u("hang", job_hash, attempt) < self.hang_p

    def delivery_delay(self, job_hash: str, attempt: int) -> float:
        """Injected delay (seconds) before result delivery; 0 = none."""
        if self._u("delay", job_hash, attempt) >= self.delay_p:
            return 0.0
        return self._u("delay-len", job_hash, attempt) * self.delay_max

    def should_duplicate(self, job_hash: str, attempt: int) -> bool:
        """Whether the worker delivers its result twice."""
        return self._u("dup", job_hash, attempt) < self.dup_p

    # ------------------------------------------------------------------
    # network sites (repro.serve server <-> worker messages)
    # ------------------------------------------------------------------
    def net_fault(self, site: str, key: str, attempt: int) -> str | None:
        """None, or what happens to this protocol message: "drop" (never
        delivered) or "dup" (delivered twice).

        ``site`` names the link direction (e.g. ``serve-dispatch``,
        ``serve-result``); ``key``/``attempt`` identify the message so
        a retried attempt draws fresh faults and eventually gets
        through (drop probability ``p`` -> terminal-loss probability
        ``p**(retries+1)``, same shape as worker kills).
        """
        u = self._u("net", site, key, attempt)
        if u < self.net_drop_p:
            return "drop"
        if u < self.net_drop_p + self.net_dup_p:
            return "dup"
        return None

    def net_delay(self, site: str, key: str, attempt: int) -> float:
        """Injected delivery delay (seconds) for one protocol message;
        0 = deliver immediately."""
        if self._u("net-delay", site, key, attempt) >= self.net_delay_p:
            return 0.0
        return (self._u("net-delay-len", site, key, attempt)
                * self.net_delay_max)

    def should_refuse(self, site: str, key: str, attempt: int) -> bool:
        """Whether a client connection attempt is refused outright.

        Keyed by ``(site, key, attempt)`` — typically ``key`` is the
        server URL and ``attempt`` the client's retry counter — so a
        backing-off client draws fresh refusal decisions each retry and
        terminal refusal has probability ``p**(retries+1)``, the same
        convergence shape as every other injected fault.
        """
        return self._u("net-refuse", site, key, attempt) < self.net_refuse_p

    def slow_delay(self, job_hash: str, attempt: int) -> float:
        """Seconds a heartbeat-but-slow worker sits on this attempt
        before running it; 0 = full speed. Unlike :meth:`should_hang`
        the worker keeps heartbeating throughout, so the hang watchdog
        must stay quiet and only the per-job deadline can intervene."""
        if self._u("slow", job_hash, attempt) >= self.slow_p:
            return 0.0
        return self.slow_seconds

    def cache_fault(self, key: str) -> str | None:
        """None, or how the entry write for ``key`` is damaged:
        "truncate" (half the bytes) or "flip" (a corrupted slice)."""
        u = self._u("corrupt", key)
        if u >= self.corrupt_p:
            return None
        return "truncate" if u < self.corrupt_p / 2 else "flip"

    def corrupt_bytes(self, key: str, blob: bytes) -> bytes:
        """Apply :meth:`cache_fault` to an encoded entry (identity when
        no fault is drawn for ``key``)."""
        fault = self.cache_fault(key)
        if fault is None or len(blob) < 8:
            return blob
        if fault == "truncate":
            return blob[: len(blob) // 2]
        damaged = bytearray(blob)
        start = len(blob) // 3
        for i in range(start, min(start + 16, len(blob))):
            damaged[i] ^= 0x5A
        return bytes(damaged)
