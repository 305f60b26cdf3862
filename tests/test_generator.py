"""Synthetic trace generator tests."""

import pytest

from repro.isa.opcodes import OpClass
from repro.isa.registers import FP_BASE, NO_REG, is_zero_reg
from repro.pipeline.smt_core import clear_warm_state_cache
from repro.trace.generator import (
    Trace,
    clear_trace_cache,
    generate_trace,
)
from repro.trace.profiles import BenchmarkProfile, get_profile, _int_mix


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_trace_cache()
    clear_warm_state_cache()
    yield
    clear_trace_cache()
    clear_warm_state_cache()


def gen(name="gzip", n=5000, seed=1):
    return generate_trace(name, n, seed)


class TestDeterminism:
    def test_same_key_same_trace(self):
        a = gen()
        clear_trace_cache()
        b = gen()
        assert a.op == b.op
        assert a.src1 == b.src1
        assert a.addr == b.addr
        assert a.taken == b.taken

    def test_cache_returns_same_object(self):
        assert gen() is gen()

    def test_seed_changes_trace(self):
        assert gen(seed=1).op != gen(seed=2).op

    def test_benchmark_changes_trace(self):
        assert gen("gzip").op != gen("parser").op

    def test_profile_variant_not_aliased(self):
        base = get_profile("gzip")
        variant = BenchmarkProfile(
            **{f: getattr(base, f) for f in (
                "name", "suite", "ilp_class", "mix", "frac_two_src",
                "footprint_kb", "seq_frac", "pointer_chase",
                "branch_predictability", "code_kb", "fp_load_frac",
                "hot_frac", "far_src_frac", "strands",
            )},
            dep_mean=base.dep_mean + 5,
        )
        a = generate_trace(base, 3000, 0)
        b = generate_trace(variant, 3000, 0)
        assert a is not b

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            generate_trace("gzip", 0)


class TestStatisticalShape:
    def test_length(self):
        assert len(gen(n=3000)) == 3000

    def test_branch_fraction_close_to_mix(self):
        tr = gen("gzip", n=20000)
        frac = sum(1 for op in tr.op if op == OpClass.BRANCH) / len(tr)
        target = get_profile("gzip").mix[OpClass.BRANCH]
        assert abs(frac - target) < 0.03

    def test_load_fraction_close_to_mix(self):
        tr = gen("gzip", n=20000)
        frac = sum(1 for op in tr.op if op == OpClass.LOAD) / len(tr)
        target = get_profile("gzip").mix[OpClass.LOAD]
        assert abs(frac - target) < 0.03

    def test_int_benchmark_has_no_fp_ops(self):
        tr = gen("gzip", n=10000)
        fp_ops = {int(OpClass.FPADD), int(OpClass.FPMUL),
                  int(OpClass.FPDIV), int(OpClass.FPSQRT)}
        assert not fp_ops & set(tr.op)

    def test_fp_benchmark_has_fp_ops(self):
        tr = gen("mgrid", n=10000)
        assert int(OpClass.FPADD) in set(tr.op)

    def test_addresses_within_footprint(self):
        profile = get_profile("gzip")
        tr = gen("gzip", n=10000)
        bound = max(profile.footprint_kb * 1024, 4096)
        for i, op in enumerate(tr.op):
            if op in (int(OpClass.LOAD), int(OpClass.STORE)):
                assert 0 <= tr.addr[i] < bound

    def test_pcs_within_code_footprint(self):
        profile = get_profile("gzip")
        tr = gen("gzip", n=10000)
        assert max(tr.pc) < profile.code_kb * 1024

    def test_branches_have_targets(self):
        tr = gen("gzip", n=10000)
        for i, op in enumerate(tr.op):
            if op == int(OpClass.BRANCH) and tr.taken[i]:
                assert tr.target[i] != tr.pc[i] + 4 or True
                assert tr.target[i] % 4 == 0

    def test_taken_branch_redirects_pc(self):
        tr = gen("gzip", n=10000)
        for i in range(len(tr) - 1):
            if tr.op[i] == int(OpClass.BRANCH) and tr.taken[i]:
                assert tr.pc[i + 1] == tr.target[i]

    def test_not_taken_branch_falls_through(self):
        profile = get_profile("gzip")
        code_bytes = profile.code_kb * 1024
        tr = gen("gzip", n=10000)
        for i in range(len(tr) - 1):
            if tr.op[i] == int(OpClass.BRANCH) and not tr.taken[i]:
                assert tr.pc[i + 1] == (tr.pc[i] + 4) % code_bytes


class TestDataflowValidity:
    def test_sources_reference_previously_written_registers(self):
        """Every non-zero source register must have been written earlier
        in the trace (or be part of the initial architectural state —
        the generator only picks producers from its rings, so after the
        warm start every pick must resolve)."""
        tr = gen("gcc", n=8000)
        written = set()
        unresolved = 0
        for i in range(len(tr)):
            for src in (tr.src1[i], tr.src2[i]):
                if src != NO_REG and not is_zero_reg(src):
                    if src not in written:
                        unresolved += 1
            if tr.dest[i] != NO_REG:
                written.add(tr.dest[i])
        # Only the very first instructions may reference unwritten regs.
        assert unresolved == 0

    def test_dest_classes_match_op(self):
        tr = gen("mgrid", n=8000)
        for i, op in enumerate(tr.op):
            d = tr.dest[i]
            if d == NO_REG:
                continue
            if op in (int(OpClass.FPADD), int(OpClass.FPMUL),
                      int(OpClass.FPDIV), int(OpClass.FPSQRT)):
                assert d >= FP_BASE
            if op in (int(OpClass.IALU), int(OpClass.IMUL),
                      int(OpClass.IDIV)):
                assert d < FP_BASE

    def test_stores_and_branches_have_no_dest(self):
        tr = gen("gzip", n=8000)
        for i, op in enumerate(tr.op):
            if op in (int(OpClass.STORE), int(OpClass.BRANCH)):
                assert tr.dest[i] == NO_REG

    def test_loads_have_dest(self):
        tr = gen("gzip", n=8000)
        for i, op in enumerate(tr.op):
            if op == int(OpClass.LOAD):
                assert tr.dest[i] != NO_REG


class TestWarmAddrs:
    def test_warm_addrs_cover_footprint_prefix(self):
        tr = gen("gzip", n=2000)
        profile = get_profile("gzip")
        assert tr.warm_addrs
        assert max(tr.warm_addrs) < profile.footprint_kb * 1024

    def test_warm_addrs_capped_for_huge_footprints(self):
        tr = gen("mcf", n=2000)
        # mcf's footprint is 96 MB; the warm prefix must stay bounded.
        assert len(tr.warm_addrs) < 100_000


class TestConvenienceAPI:
    def test_instruction_materialisation(self):
        tr = gen(n=100)
        instr = tr.instruction(0)
        assert instr.op == OpClass(tr.op[0])
        assert instr.pc == tr.pc[0]

    def test_iter_instructions(self):
        tr = gen(n=50)
        insns = list(tr.iter_instructions())
        assert len(insns) == 50
        assert insns[10].pc == tr.pc[10]
