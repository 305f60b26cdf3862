"""Property-based tests (hypothesis) on core data structures and
end-to-end simulator invariants."""

from collections import OrderedDict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.branch.gshare import GShare
from repro.config.machine import CacheConfig
from repro.config.presets import tiny_machine
from repro.core.iq import IssueQueue
from repro.isa.opcodes import OpClass
from repro.memory.cache import SetAssociativeCache
from repro.metrics.aggregate import geometric_mean, harmonic_mean
from repro.pipeline.dynamic import DynInstr
from repro.pipeline.smt_core import SMTProcessor
from repro.rename.free_list import FreeList
from repro.trace.generator import Trace
from repro.util.rng import derive_seed

# ---------------------------------------------------------------------------
# aggregation properties
# ---------------------------------------------------------------------------

positive_floats = st.lists(
    st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=12
)


class TestMeanProperties:
    @given(positive_floats)
    def test_hmean_le_gmean_le_amean(self, vals):
        h = harmonic_mean(vals)
        g = geometric_mean(vals)
        a = sum(vals) / len(vals)
        assert h <= g * (1 + 1e-9)
        assert g <= a * (1 + 1e-9)

    @given(positive_floats)
    def test_means_bounded_by_extremes(self, vals):
        for mean in (harmonic_mean(vals), geometric_mean(vals)):
            assert min(vals) * (1 - 1e-9) <= mean <= max(vals) * (1 + 1e-9)

    @given(positive_floats, st.floats(min_value=0.1, max_value=10.0))
    def test_hmean_scales_linearly(self, vals, k):
        scaled = harmonic_mean([v * k for v in vals])
        assert scaled == pytest.approx(harmonic_mean(vals) * k, rel=1e-6)


# ---------------------------------------------------------------------------
# free list round trip
# ---------------------------------------------------------------------------

class TestFreeListProperties:
    @given(st.lists(st.booleans(), max_size=60))
    def test_alloc_release_conservation(self, ops):
        fl = FreeList(0, 8)
        held: list[int] = []
        for do_alloc in ops:
            if do_alloc and len(fl):
                held.append(fl.allocate())
            elif held:
                fl.release(held.pop())
        assert len(fl) + len(held) == 8
        assert len(set(held)) == len(held)  # no double allocation


# ---------------------------------------------------------------------------
# cache vs reference model
# ---------------------------------------------------------------------------

class ReferenceLru:
    """Oracle: dict-of-OrderedDict LRU cache."""

    def __init__(self, num_sets, assoc, line):
        self.num_sets, self.assoc, self.line = num_sets, assoc, line
        self.sets = [OrderedDict() for _ in range(num_sets)]

    def access(self, addr):
        block = addr // self.line
        s = self.sets[block % self.num_sets]
        tag = block // self.num_sets
        hit = tag in s
        if hit:
            s.move_to_end(tag)
        else:
            s[tag] = True
            if len(s) > self.assoc:
                s.popitem(last=False)
        return hit


class TestCacheMatchesReference:
    @given(st.lists(st.integers(min_value=0, max_value=4095), max_size=300))
    @settings(max_examples=60)
    def test_hit_miss_sequence_identical(self, addrs):
        cache = SetAssociativeCache(CacheConfig(512, 2, 64, 1))  # 4 sets
        ref = ReferenceLru(num_sets=4, assoc=2, line=64)
        for a in addrs:
            assert cache.access(a) == ref.access(a)


# ---------------------------------------------------------------------------
# issue queue vs brute-force readiness
# ---------------------------------------------------------------------------

def _di(seq, src1, src2):
    d = DynInstr(tid=0, seq=seq, tseq=seq, op=int(OpClass.IALU), pc=0,
                 addr=0, taken=False, target=0, dest_l=-1, src1_l=-1,
                 src2_l=-1, fetch_cycle=0)
    d.src1_p = src1
    d.src2_p = src2
    return d


class TestIssueQueueProperties:
    @given(
        st.lists(
            st.tuples(st.integers(-1, 7), st.integers(-1, 7)),
            min_size=1, max_size=16,
        ),
        st.lists(st.integers(0, 7), max_size=8, unique=True),
    )
    @settings(max_examples=80)
    def test_ready_set_matches_brute_force(self, sources, wake_order):
        ready_bits = bytearray(8)
        iq = IssueQueue(32, 2, ready_bits)
        instrs = [_di(i, s1, s2) for i, (s1, s2) in enumerate(sources)]
        for d in instrs:
            iq.insert(d, 0)
        for tag in wake_order:
            ready_bits[tag] = 1
            iq.wakeup(tag)
        expected = [
            d for d in instrs
            if all(p < 0 or ready_bits[p] for p in (d.src1_p, d.src2_p))
        ]
        got = iq.drain_ready()
        assert got == sorted(expected, key=lambda d: d.seq)


# ---------------------------------------------------------------------------
# gshare sanity under arbitrary outcome streams
# ---------------------------------------------------------------------------

class TestGShareProperties:
    @given(st.lists(st.tuples(st.integers(0, 255), st.booleans()),
                    max_size=200))
    @settings(max_examples=40)
    def test_never_crashes_and_counts_consistently(self, stream):
        g = GShare(64, 5)
        for pc, taken in stream:
            pred, tok = g.predict(pc << 2)
            g.update(tok, taken, pred)
        assert g.lookups == len(stream)
        assert 0 <= g.hits <= g.lookups


# ---------------------------------------------------------------------------
# end-to-end simulator invariants on random tiny traces
# ---------------------------------------------------------------------------

op_strategy = st.sampled_from([
    OpClass.IALU, OpClass.IALU, OpClass.IALU, OpClass.LOAD, OpClass.STORE,
    OpClass.IMUL, OpClass.BRANCH,
])


@st.composite
def random_trace(draw):
    n = draw(st.integers(min_value=4, max_value=60))
    rows = []
    writable = list(range(0, 8))
    written: list[int] = []
    for i in range(n):
        op = draw(op_strategy)
        src1 = draw(st.sampled_from(written)) if written and draw(
            st.booleans()) else -1
        src2 = draw(st.sampled_from(written)) if written and draw(
            st.booleans()) else -1
        dest = -1
        if op in (OpClass.IALU, OpClass.IMUL, OpClass.LOAD):
            dest = draw(st.sampled_from(writable))
            written.append(dest)
        addr = draw(st.integers(0, 2 ** 14)) & ~7 \
            if op in (OpClass.LOAD, OpClass.STORE) else 0
        taken = draw(st.booleans()) if op is OpClass.BRANCH else False
        target = (draw(st.integers(0, n - 1)) * 4) if taken else 0
        rows.append((int(op), dest, src1, src2, i * 4, addr, taken, target))
    return Trace(
        name="random", seed=0,
        op=[r[0] for r in rows], dest=[r[1] for r in rows],
        src1=[r[2] for r in rows], src2=[r[3] for r in rows],
        pc=[r[4] for r in rows], addr=[r[5] for r in rows],
        taken=[r[6] for r in rows], target=[r[7] for r in rows],
        warm_addrs=[], warm_pcs=list(range(0, 256, 64)),
    )


class TestSimulatorProperties:
    @given(random_trace(), st.sampled_from(
        ["traditional", "2op_block", "2op_ooo", "2op_ooo_filtered"]))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_any_trace_completes_with_invariants(self, trace, scheduler):
        """Every random program must commit fully, under every scheduler,
        with structural invariants intact — no deadlock, no leak."""
        cfg = tiny_machine(scheduler=scheduler, sanitize=True,
                           sanitize_interval=16)
        core = SMTProcessor(cfg, [trace])
        guard = 0
        while not core.threads[0].drained:
            core.step()
            guard += 1
            assert guard < 60_000, "simulation failed to drain"
        core.sanitizer.check(core.cycle)
        assert core.stats.committed_total == len(trace.op)
        assert core.stats.fetched == len(trace.op)

    @given(random_trace())
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_schedulers_commit_identical_architectural_work(self, trace):
        counts = set()
        for scheduler in ("traditional", "2op_block", "2op_ooo"):
            core = SMTProcessor(tiny_machine(scheduler=scheduler), [trace])
            stats = core.run(max_insns=10_000)
            counts.add(stats.committed_total)
        assert len(counts) == 1
