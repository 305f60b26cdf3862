"""Grid points as picklable, content-addressable jobs.

A :class:`SimJob` captures everything that determines one simulation's
outcome — the benchmarks tuple, the full :class:`MachineConfig`, the
instruction budget, the seed — as plain data. Two consequences:

* a job can be shipped to a worker process and executed there with a
  byte-identical result (the simulator is deterministic in exactly
  these inputs, see ``docs/exec.md``), and
* a job has a *content hash*: a SHA-256 digest over a canonical
  JSON encoding of its fields. The hash is insensitive to field
  declaration order (keys are sorted at every nesting level) and is the
  key under which :class:`repro.exec.cache.ResultCache` stores results.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections.abc import Sequence
from dataclasses import dataclass

from repro.config.machine import MachineConfig
from repro.metrics.ipc import SimResult
from repro.trace.profiles import ALL_BENCHMARKS, PROFILES
from repro.util.validate import check_field_types, check_type


@dataclass(frozen=True, slots=True)
class JobResult:
    """What one executed grid point produces."""

    result: SimResult
    #: Harmonic mean of weighted IPCs, present when the job was run
    #: ``with_fairness``.
    fairness: float | None = None


@dataclass(frozen=True, slots=True)
class SimJob:
    """One grid point of an evaluation sweep, as picklable data."""

    benchmarks: tuple[str, ...]
    config: MachineConfig
    max_insns: int = 20_000
    seed: int = 0
    max_cycles: int = 5_000_000
    warmup: int | None = None
    #: Also run the single-thread baselines and compute the paper's
    #: fairness metric. Part of the content hash: a cached plain result
    #: must not satisfy a fairness request.
    with_fairness: bool = False

    def __post_init__(self) -> None:
        # Normalise so hashing and pickling see one canonical form.
        object.__setattr__(self, "benchmarks", tuple(self.benchmarks))
        # Reject here, not in a worker: a job that ran with a bad input
        # would fail late or, worse, be cached and journalled.
        check_field_types(self)
        check_type("config", self.config, MachineConfig)
        if self.warmup is not None and (
            isinstance(self.warmup, bool) or not isinstance(self.warmup, int)
        ):
            raise TypeError(
                f"warmup must be an integer or None, got {self.warmup!r}"
            )
        if not self.benchmarks:
            raise ValueError("SimJob needs at least one benchmark")
        unknown = [b for b in self.benchmarks if b not in PROFILES]
        if unknown:
            raise ValueError(
                f"unknown benchmark(s) {', '.join(map(repr, unknown))}; "
                f"expected names from {', '.join(ALL_BENCHMARKS)}"
            )
        if self.max_insns <= 0:
            raise ValueError(
                f"max_insns must be positive, got {self.max_insns}"
            )
        if self.max_cycles <= 0:
            raise ValueError(
                f"max_cycles must be positive, got {self.max_cycles}"
            )
        if self.warmup is not None and self.warmup < 0:
            raise ValueError(
                f"warmup must be non-negative or None, got {self.warmup}"
            )

    # ------------------------------------------------------------------
    # content addressing
    # ------------------------------------------------------------------
    def fingerprint_payload(self) -> dict[str, object]:
        """The job as a JSON-safe dict; the domain of the content hash."""
        return {
            "benchmarks": list(self.benchmarks),
            "config": dataclasses.asdict(self.config),
            "max_insns": self.max_insns,
            "seed": self.seed,
            "max_cycles": self.max_cycles,
            "warmup": self.warmup,
            "with_fairness": self.with_fairness,
        }

    def content_hash(self) -> str:
        """Stable SHA-256 hex digest of the job's content.

        Stable across processes, Python versions and dataclass field
        reordering: the payload is serialised with sorted keys and no
        insignificant whitespace before hashing.
        """
        return hash_payload(self.fingerprint_payload())

    # ------------------------------------------------------------------
    # scheduling + execution
    # ------------------------------------------------------------------
    def cost_estimate(self) -> int:
        """Relative wall-clock estimate for longest-job-first ordering.

        Simulation time grows with the per-thread budget and the number
        of contexts; a fairness job additionally runs one single-thread
        baseline per (distinct) benchmark.
        """
        threads = len(self.benchmarks)
        cost = self.max_insns * threads
        if self.with_fairness:
            cost += self.max_insns * len(set(self.benchmarks))
        return cost

    def describe(self) -> str:
        """One-line human identity for failure reports and progress."""
        return (f"{'+'.join(self.benchmarks)} @ "
                f"{self.config.scheduler}/iq{self.config.iq_size}")

    def run(self) -> JobResult:
        """Execute the grid point in the current process."""
        from repro.experiments.runner import (
            simulate_mix,
            simulate_mix_with_fairness,
        )

        if self.with_fairness:
            result, fairness = simulate_mix_with_fairness(
                self.benchmarks, self.config, self.max_insns, self.seed,
                self.max_cycles, self.warmup,
            )
            return JobResult(result=result, fairness=fairness)
        result = simulate_mix(
            self.benchmarks, self.config, self.max_insns, self.seed,
            self.max_cycles, self.warmup,
        )
        return JobResult(result=result)


@dataclass(frozen=True, slots=True)
class WorkJob:
    """An arbitrary unit of work shipped through the grid machinery.

    The executor only ever needs four things from a job — a content
    hash, a cost estimate, a ``run()`` and a ``describe()`` — so
    non-simulation workloads (mutation analysis, batch linting) reuse
    the whole farm: LJF scheduling, per-job timeout, the hung-worker
    watchdog, retries, journalling. The work itself is named by
    ``entry`` (``"package.module:function"``); the function receives
    ``payload`` (a JSON-safe dict, so it hashes and pickles) and should
    return a picklable value for the worker to ship back.

    Results are *not* stored in the :class:`~repro.exec.cache
    .ResultCache` (its schema is :class:`SimJob`-shaped); callers that
    want warm re-runs keep their own content-addressed store keyed by
    :meth:`content_hash`.
    """

    entry: str
    payload: dict
    #: Relative wall-clock estimate for longest-job-first ordering.
    cost: int = 1
    #: Label shown by :meth:`describe`; part of the fingerprint, so
    #: jobs of different kinds never share a content hash.
    kind: str = "work"

    def fingerprint_payload(self) -> dict[str, object]:
        """The job as a JSON-safe dict; the domain of the content hash."""
        return {
            "kind": self.kind,
            "entry": self.entry,
            "payload": self.payload,
            "cost": self.cost,
        }

    def content_hash(self) -> str:
        """Stable SHA-256 hex digest of the job's content."""
        return hash_payload(self.fingerprint_payload())

    def cost_estimate(self) -> int:
        return self.cost

    def describe(self) -> str:
        return f"{self.kind} {self.entry}"

    def run(self) -> object:
        """Resolve ``entry`` and invoke it with the payload.

        A ``None`` return is coerced to ``{}``: the executor uses
        ``None`` result slots as its failed-job sentinel, so a job must
        never *succeed* with one.
        """
        import importlib

        module_name, sep, func_name = self.entry.partition(":")
        if not sep or not module_name or not func_name:
            raise ValueError(
                f"WorkJob entry must be 'module:function', got {self.entry!r}"
            )
        fn = getattr(importlib.import_module(module_name), func_name)
        out = fn(dict(self.payload))
        return {} if out is None else out


def hash_payload(payload: dict[str, object]) -> str:
    """SHA-256 over the canonical JSON encoding of ``payload``."""
    blob = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def jobs_for_grid(mixes: Sequence, base_config: MachineConfig,
                  schedulers: Sequence[str], iq_sizes: Sequence[int],
                  max_insns: int, seed: int,
                  with_fairness: bool = False) -> list[tuple[tuple, SimJob]]:
    """Expand a (scheduler, IQ size, mix) grid into keyed jobs.

    Returns ``[((scheduler, iq_size, mix_name), SimJob), ...]`` in the
    same deterministic order the serial sweep historically used.
    """
    out: list[tuple[tuple, SimJob]] = []
    for scheduler in schedulers:
        for iq_size in iq_sizes:
            cfg = base_config.replace(scheduler=scheduler, iq_size=iq_size)
            for mix in mixes:
                key = (scheduler, iq_size, mix.name)
                out.append((key, SimJob(
                    benchmarks=tuple(mix.benchmarks),
                    config=cfg,
                    max_insns=max_insns,
                    seed=seed,
                    with_fairness=with_fairness,
                )))
    return out
