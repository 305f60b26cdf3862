"""Hand-built traces for precise pipeline behaviour tests, and an
observer that records what the core fetches."""

from __future__ import annotations

from repro.isa.opcodes import OpClass
from repro.isa.registers import NO_REG
from repro.trace.generator import Trace


class TraceBuilder:
    """Builds a :class:`Trace` instruction by instruction.

    PCs auto-increment by 4 unless given explicitly, so icache behaviour
    is sequential and branch-free by default.
    """

    def __init__(self, name: str = "hand") -> None:
        self.name = name
        self.rows: list[dict] = []

    def add(self, op: OpClass, dest: int = NO_REG, src1: int = NO_REG,
            src2: int = NO_REG, addr: int = 0, taken: bool = False,
            target: int = 0, pc: int | None = None) -> "TraceBuilder":
        self.rows.append(dict(
            op=int(op), dest=dest, src1=src1, src2=src2, addr=addr,
            taken=taken, target=target,
            pc=pc if pc is not None else len(self.rows) * 4,
        ))
        return self

    def ialu(self, dest=NO_REG, src1=NO_REG, src2=NO_REG, pc=None):
        return self.add(OpClass.IALU, dest=dest, src1=src1, src2=src2, pc=pc)

    def load(self, dest, src1=NO_REG, addr=0):
        return self.add(OpClass.LOAD, dest=dest, src1=src1, addr=addr)

    def store(self, src1, src2=NO_REG, addr=0):
        return self.add(OpClass.STORE, src1=src1, src2=src2, addr=addr)

    def branch(self, src1=NO_REG, taken=False, target=0, pc=None):
        return self.add(OpClass.BRANCH, src1=src1, taken=taken,
                        target=target, pc=pc)

    def nops(self, count: int) -> "TraceBuilder":
        for _ in range(count):
            self.ialu()
        return self

    def build(self, warm_addrs: list[int] | None = None,
              warm_code: bool = True) -> Trace:
        pcs = [r["pc"] for r in self.rows]
        warm_pcs: list[int] = []
        if warm_code and pcs:
            warm_pcs = list(range(0, max(pcs) + 64, 64))
        return Trace(
            name=self.name,
            seed=0,
            op=[r["op"] for r in self.rows],
            dest=[r["dest"] for r in self.rows],
            src1=[r["src1"] for r in self.rows],
            src2=[r["src2"] for r in self.rows],
            pc=pcs,
            addr=[r["addr"] for r in self.rows],
            taken=[r["taken"] for r in self.rows],
            target=[r["target"] for r in self.rows],
            warm_addrs=warm_addrs or [],
            warm_pcs=warm_pcs,
        )


def record_fetched(core) -> list:
    """Record every instruction ``core`` fetches from now on.

    Wraps the core's cached fetch stage ``core._fetch_cycle``, the same
    interception the ``repro.perf`` stage timers and the sanitizer's
    contract checks use. Returns a live list of the fetched
    ``DynInstr``s in ``seq`` order, squashed ones included.
    """
    fetched: list = []
    fetch = core._fetch_cycle

    def recording(c, cycle):
        first = core._seq
        n = fetch(c, cycle)
        if n:
            new = []
            for ts in core.threads:
                # Fetch appends to the tail of each thread's front-end pipe.
                for _, instr in reversed(ts.pipe):
                    if instr.seq < first:
                        break
                    new.append(instr)
            new.sort(key=lambda instr: instr.seq)
            fetched.extend(new)
        return n

    core._fetch_cycle = recording
    return fetched
