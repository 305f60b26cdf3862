"""Pipeline stage access contracts.

The paper's correctness argument for out-of-order dispatch (§4) is an
argument about *state ownership*: renaming and ROB/LSQ allocation stay
in program order because only the rename stage touches the map table
and free lists, the issue queue may leave program order because only
dispatch inserts into it, and so on. This module turns that prose into
one machine-readable declaration per stage, its *write set*::

    @stage_contract("commit",
                    writes=("rob", "lsq", "free_list", ...))
    def _commit(self, cycle):  # repro: hot
        ...

A stage may read anything; it may change only what it declares.
:mod:`repro.analysis.sanitizer` enforces that: on sanitized cycles it
sets shadow wrappers of the stage callables as attributes of the core,
which fingerprint every resource outside the write set before and
after the stage runs and raise on any change.

The decorator itself is free at runtime: it attaches the contract to
the function object and returns the function unchanged, so the cycle
loop never sees an extra frame.

This module must stay dependency-free (stdlib only): it is imported by
``repro.pipeline.smt_core`` at the bottom of the pipeline and by the
analysis layer at the top.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Architectural resources a stage contract may name, with the short
#: description used by docs and violation messages.
RESOURCES: dict[str, str] = {
    "iq": "shared issue queue (entries, ready heap, waiter lists)",
    "rob": "per-thread reorder buffers",
    "lsq": "per-thread load/store queues",
    "map_table": "per-thread rename map tables",
    "free_list": "physical register free lists",
    "ready": "physical register ready bits",
    "fu": "functional unit pools",
    "dab": "deadlock-avoidance buffer",
    "watchdog": "deadlock watchdog timer",
    "events": "wakeup/completion event wheels",
    "thread": "ThreadState (fetch index, front-end pipe, dispatch "
              "buffer, icount, stall state)",
    "predictor": "per-thread branch predictors (gshare + BTB)",
    "memory": "cache hierarchy (I/D L1, L2, LRU state)",
    "stats": "PipelineStats counters",
    "instr": "in-flight DynInstr fields",
    "core": "SMTProcessor bookkeeping (seq, cycle, rotations, widths)",
    "config": "frozen MachineConfig knobs",
}

#: Stage callable attribute of the core -> contract stage name, in
#: ``step()`` call order. ``repro.perf`` wraps exactly these with its
#: timers; the sanitizer wraps them with the contract shadow checks.
STAGE_CALLABLES: dict[str, str] = {
    "_commit": "commit",
    "_apply_events": "writeback",
    "_issue": "issue",
    "_dispatch": "dispatch",
    "_rename": "rename",
    "_fetch_cycle": "fetch",
}

#: Stage name -> contract, populated by :func:`stage_contract` at
#: decoration (i.e. module import) time.
STAGE_CONTRACTS: dict[str, "StageContract"] = {}


@dataclass(frozen=True)
class StageContract:
    """Declared write set of one pipeline stage."""

    stage: str
    writes: frozenset[str] = field(default_factory=frozenset)


def stage_contract(stage: str, *, writes: tuple[str, ...] = ()):
    """Declare the resources a pipeline stage may change.

    Attaches a :class:`StageContract` to the function as
    ``__stage_contract__``, registers it in :data:`STAGE_CONTRACTS`,
    and returns the function unchanged — zero runtime overhead.
    """
    if stage not in set(STAGE_CALLABLES.values()):
        raise ValueError(f"unknown pipeline stage {stage!r}")
    unknown = set(writes) - set(RESOURCES)
    if unknown:
        raise ValueError(
            f"stage {stage!r} names unknown resource(s) "
            f"{sorted(unknown)}; declare them in contracts.RESOURCES"
        )
    contract = StageContract(stage=stage, writes=frozenset(writes))

    def decorate(fn):
        fn.__stage_contract__ = contract
        STAGE_CONTRACTS[stage] = contract
        return fn

    return decorate
