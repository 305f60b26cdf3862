"""Machine configuration dataclasses (paper Table 1).

Every microarchitectural knob of the simulator lives here, so an
experiment is fully described by (workload, ``MachineConfig``, seed,
instruction budget). Configurations are immutable; use
:meth:`MachineConfig.replace` to derive variants.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.util.validate import (
    check_field_types,
    check_positive,
    check_power_of_two,
    check_range,
    check_type,
)

#: Scheduler/dispatch designs evaluated in the paper.
#:
#: ``traditional``  — 2 tag comparators per IQ entry, in-order dispatch.
#: ``2op_block``    — 1 comparator per entry; an instruction with two
#:                    non-ready sources blocks its thread at dispatch.
#: ``2op_ooo``      — 2OP_BLOCK plus out-of-order dispatch of hidden
#:                    dispatchable instructions (the paper's proposal).
#: ``2op_ooo_filtered`` — idealized variant that refuses to dispatch HDIs
#:                    that transitively depend on a prior NDI (§4 ablation).
SCHEDULER_KINDS = ("traditional", "2op_block", "2op_ooo", "2op_ooo_filtered")

#: Deadlock handling mechanisms for out-of-order dispatch (§4).
DEADLOCK_MODES = ("buffer", "watchdog")

#: Fetch policies implemented by the front end. ``icount`` is the
#: paper's baseline [16]; ``stall`` gates a thread's fetch while it has
#: an outstanding memory-level miss (STALL of Tullsen et al. [15],
#: discussed in the paper's related work); ``round_robin`` is the naive
#: reference.
FETCH_POLICIES = ("icount", "round_robin", "stall")


@dataclass(frozen=True, slots=True)
class CacheConfig:
    """Geometry of one set-associative cache."""

    size_bytes: int
    assoc: int
    line_bytes: int
    hit_latency: int

    def __post_init__(self) -> None:
        check_field_types(self)
        check_positive("size_bytes", self.size_bytes)
        check_positive("assoc", self.assoc)
        check_power_of_two("line_bytes", self.line_bytes)
        check_positive("hit_latency", self.hit_latency)
        if self.size_bytes % (self.assoc * self.line_bytes):
            raise ValueError(
                "cache size must be a multiple of assoc * line size: "
                f"{self.size_bytes} % ({self.assoc} * {self.line_bytes}) != 0"
            )
        check_power_of_two("num_sets", self.num_sets)

    @property
    def num_sets(self) -> int:
        """Number of sets implied by the geometry."""
        return self.size_bytes // (self.assoc * self.line_bytes)


@dataclass(frozen=True, slots=True)
class MemoryConfig:
    """Cache hierarchy + main memory latencies (paper Table 1)."""

    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig(64 * 1024, 2, 128, 1)
    )
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, 4, 256, 1)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(2 * 1024 * 1024, 8, 512, 10)
    )
    memory_latency: int = 150

    def __post_init__(self) -> None:
        check_field_types(self)
        for name in ("l1i", "l1d", "l2"):
            check_type(name, getattr(self, name), CacheConfig)
        check_positive("memory_latency", self.memory_latency)


@dataclass(frozen=True, slots=True)
class BranchPredictorConfig:
    """Per-thread gshare + shared BTB (paper Table 1)."""

    gshare_entries: int = 2048
    history_bits: int = 10
    btb_entries: int = 2048
    btb_assoc: int = 2

    def __post_init__(self) -> None:
        check_field_types(self)
        check_power_of_two("gshare_entries", self.gshare_entries)
        check_range("history_bits", self.history_bits, 1, 30)
        check_power_of_two("btb_entries", self.btb_entries)
        check_positive("btb_assoc", self.btb_assoc)


@dataclass(frozen=True, slots=True)
class MachineConfig:
    """Full SMT machine description.

    Defaults reproduce Table 1 of the paper with a 64-entry issue queue
    and the traditional scheduler.
    """

    # -- widths ---------------------------------------------------------
    fetch_width: int = 8
    decode_width: int = 8
    dispatch_width: int = 8
    issue_width: int = 8
    commit_width: int = 8
    #: Max threads fetched per cycle ("fetching was limited to two
    #: threads per cycle").
    fetch_threads_per_cycle: int = 2

    # -- window ---------------------------------------------------------
    iq_size: int = 64
    rob_size: int = 96  # per thread
    lsq_size: int = 48  # per thread
    int_phys_regs: int = 256
    fp_phys_regs: int = 256

    # -- functional units (Table 1) ---------------------------------------
    fu_int_alu: int = 8
    fu_int_muldiv: int = 4
    fu_mem_ports: int = 4
    fu_fp_add: int = 8
    fu_fp_muldiv: int = 4

    # -- pipeline depth --------------------------------------------------
    #: Stages from fetch to dispatch inclusive ("5-stage front-end").
    frontend_depth: int = 5
    #: Register-file access stages between issue and execute.
    regread_stages: int = 2

    # -- scheduler under study -------------------------------------------
    scheduler: str = "traditional"
    #: Per-thread buffer of renamed instructions awaiting dispatch; the
    #: out-of-order dispatch policy scans this buffer for HDIs. Not
    #: specified in the paper — see DESIGN.md §5.
    dispatch_buffer_depth: int = 32
    deadlock_mode: str = "buffer"
    deadlock_buffer_size: int = 1
    #: §4: when the deadlock-avoidance buffer holds instructions, the
    #: paper's simpler arbitration disables selection from the IQ
    #: entirely that cycle ("take precedence"); the default arbitrates
    #: (DAB first, then IQ). The paper reports the difference is
    #: negligible; bench_ablation_dab_exclusive verifies.
    dab_exclusive: bool = False
    #: Watchdog countdown used when ``deadlock_mode == "watchdog"``; the
    #: paper suggests 2–3x the memory latency.
    watchdog_cycles: int = 450

    # -- front end --------------------------------------------------------
    fetch_policy: str = "icount"
    #: Extra redirect bubble after a branch misprediction resolves (the
    #: front-end refill itself is modelled by the pipe depth).
    mispredict_redirect_penalty: int = 1

    # -- sanitizer (repro.analysis) ---------------------------------------
    #: Validate microarchitectural invariants inside the cycle loop (see
    #: :mod:`repro.analysis.sanitizer`). Off by default: experiments pay
    #: a single pointer test per cycle.
    sanitize: bool = False
    #: Cycles between whole-window sanitizer checks when enabled.
    sanitize_interval: int = 64
    #: A ready IQ entry unissued for longer than this raises
    #: ``issue-starvation`` (generous: normal select latency is tens of
    #: cycles even under full FU contention).
    sanitize_starvation_bound: int = 50_000

    # -- substrates -------------------------------------------------------
    mem: MemoryConfig = field(default_factory=MemoryConfig)
    bp: BranchPredictorConfig = field(default_factory=BranchPredictorConfig)

    def __post_init__(self) -> None:
        check_field_types(self)
        check_type("mem", self.mem, MemoryConfig)
        check_type("bp", self.bp, BranchPredictorConfig)
        for name in (
            "fetch_width",
            "decode_width",
            "dispatch_width",
            "issue_width",
            "commit_width",
            "fetch_threads_per_cycle",
            "iq_size",
            "rob_size",
            "lsq_size",
            "int_phys_regs",
            "fp_phys_regs",
            "dispatch_buffer_depth",
            "deadlock_buffer_size",
            "watchdog_cycles",
            "fu_int_alu",
            "fu_int_muldiv",
            "fu_mem_ports",
            "fu_fp_add",
            "fu_fp_muldiv",
            "sanitize_interval",
            "sanitize_starvation_bound",
        ):
            check_positive(name, getattr(self, name))
        check_range("frontend_depth", self.frontend_depth, 2, 20)
        check_range("regread_stages", self.regread_stages, 0, 8)
        check_range(
            "mispredict_redirect_penalty", self.mispredict_redirect_penalty, 0, 64
        )
        if self.scheduler not in SCHEDULER_KINDS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; expected one of "
                f"{SCHEDULER_KINDS}"
            )
        if self.deadlock_mode not in DEADLOCK_MODES:
            raise ValueError(
                f"unknown deadlock_mode {self.deadlock_mode!r}; expected one "
                f"of {DEADLOCK_MODES}"
            )
        if self.fetch_policy not in FETCH_POLICIES:
            raise ValueError(
                f"unknown fetch_policy {self.fetch_policy!r}; expected one of "
                f"{FETCH_POLICIES}"
            )

    # ------------------------------------------------------------------
    def replace(self, **changes: object) -> "MachineConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    @property
    def iq_comparators_per_entry(self) -> int:
        """Tag comparators per IQ entry implied by the scheduler kind."""
        return 2 if self.scheduler == "traditional" else 1

    @property
    def uses_ooo_dispatch(self) -> bool:
        """True for the paper's proposal (and its filtered ablation)."""
        return self.scheduler in ("2op_ooo", "2op_ooo_filtered")
