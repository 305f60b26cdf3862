"""Dynamic (in-flight) instruction record.

One ``DynInstr`` is created per fetched trace instruction and carries the
instruction through rename, dispatch, issue, execution and commit. It is
a plain ``__slots__`` class (not a dataclass) because instances are
allocated on the simulator's hottest path.
"""

from __future__ import annotations

from repro.isa.opcodes import OpClass
from repro.rename.map_table import NO_PREG


class DynInstr:
    """An in-flight instruction of one SMT thread."""

    __slots__ = (
        # identity
        "tid", "seq", "tseq", "op",
        # architectural payload (from the trace)
        "pc", "addr", "taken", "target", "dest_l", "src1_l", "src2_l",
        # classification flags
        "is_load", "is_store", "is_branch",
        # branch prediction state
        "prediction", "mispredicted",
        # renamed operands
        "dest_p", "old_dest_p", "src1_p", "src2_p",
        # scheduler state
        "in_iq", "in_dab", "num_waiting", "issued", "completed",
        "was_ndi_blocked", "ooo_dispatched", "skipped_ndis", "ndi_dependent",
        # timing
        "fetch_cycle", "rename_cycle", "dispatch_cycle", "issue_cycle",
        "complete_cycle",
        # memory
        "forwarded", "long_miss",
    )

    def __init__(self, tid: int, seq: int, tseq: int, op: int, pc: int,
                 addr: int, taken: bool, target: int, dest_l: int,
                 src1_l: int, src2_l: int, fetch_cycle: int) -> None:
        self.tid = tid
        self.seq = seq
        self.tseq = tseq
        self.op = op
        self.pc = pc
        self.addr = addr
        self.taken = taken
        self.target = target
        self.dest_l = dest_l
        self.src1_l = src1_l
        self.src2_l = src2_l
        self.is_load = op == OpClass.LOAD
        self.is_store = op == OpClass.STORE
        self.is_branch = op == OpClass.BRANCH
        self.prediction = None
        self.mispredicted = False
        self.dest_p = NO_PREG
        self.old_dest_p = NO_PREG
        self.src1_p = NO_PREG
        self.src2_p = NO_PREG
        self.in_iq = False
        self.in_dab = False
        self.num_waiting = 0
        self.issued = False
        self.completed = False
        self.was_ndi_blocked = False
        self.ooo_dispatched = False
        self.skipped_ndis = 0
        self.ndi_dependent = False
        self.fetch_cycle = fetch_cycle
        self.rename_cycle = -1
        self.dispatch_cycle = -1
        self.issue_cycle = -1
        self.complete_cycle = -1
        self.forwarded = False
        self.long_miss = False

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DynInstr(t{self.tid}#{self.tseq} {OpClass(self.op).name}"
            f" seq={self.seq} d={self.dest_l} s=({self.src1_l},{self.src2_l}))"
        )
