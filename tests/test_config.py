"""Configuration tests: Table 1 fidelity, validation, presets."""

import dataclasses

import pytest

from repro.config.machine import (
    BranchPredictorConfig,
    CacheConfig,
    MachineConfig,
    MemoryConfig,
    SCHEDULER_KINDS,
)
from repro.config.presets import paper_machine, small_machine, tiny_machine


class TestTable1Fidelity:
    """The default machine must be exactly the paper's Table 1."""

    def setup_method(self):
        self.cfg = paper_machine()

    def test_widths(self):
        assert self.cfg.fetch_width == 8
        assert self.cfg.issue_width == 8
        assert self.cfg.commit_width == 8
        assert self.cfg.dispatch_width == 8

    def test_fetch_limited_to_two_threads(self):
        assert self.cfg.fetch_threads_per_cycle == 2

    def test_window(self):
        assert self.cfg.rob_size == 96
        assert self.cfg.lsq_size == 48
        assert self.cfg.iq_size == 64  # "as specified"; default sweep point

    def test_physical_registers(self):
        assert self.cfg.int_phys_regs == 256
        assert self.cfg.fp_phys_regs == 256

    def test_functional_units(self):
        assert self.cfg.fu_int_alu == 8
        assert self.cfg.fu_int_muldiv == 4
        assert self.cfg.fu_mem_ports == 4
        assert self.cfg.fu_fp_add == 8
        assert self.cfg.fu_fp_muldiv == 4

    def test_l1i_geometry(self):
        l1i = self.cfg.mem.l1i
        assert l1i.size_bytes == 64 * 1024
        assert l1i.assoc == 2
        assert l1i.line_bytes == 128

    def test_l1d_geometry(self):
        l1d = self.cfg.mem.l1d
        assert l1d.size_bytes == 32 * 1024
        assert l1d.assoc == 4
        assert l1d.line_bytes == 256

    def test_l2_geometry(self):
        l2 = self.cfg.mem.l2
        assert l2.size_bytes == 2 * 1024 * 1024
        assert l2.assoc == 8
        assert l2.line_bytes == 512
        assert l2.hit_latency == 10

    def test_memory_latency(self):
        assert self.cfg.mem.memory_latency == 150

    def test_branch_predictor(self):
        bp = self.cfg.bp
        assert bp.gshare_entries == 2048
        assert bp.history_bits == 10
        assert bp.btb_entries == 2048
        assert bp.btb_assoc == 2

    def test_pipeline_structure(self):
        assert self.cfg.frontend_depth == 5
        assert self.cfg.regread_stages == 2


class TestSchedulerSelection:
    def test_default_is_traditional(self):
        assert paper_machine().scheduler == "traditional"

    @pytest.mark.parametrize("kind", SCHEDULER_KINDS)
    def test_all_kinds_accepted(self, kind):
        assert paper_machine(scheduler=kind).scheduler == kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            paper_machine(scheduler="magic")

    def test_comparators_per_entry(self):
        assert paper_machine(scheduler="traditional").iq_comparators_per_entry == 2
        assert paper_machine(scheduler="2op_block").iq_comparators_per_entry == 1
        assert paper_machine(scheduler="2op_ooo").iq_comparators_per_entry == 1

    def test_uses_ooo_dispatch(self):
        assert not paper_machine(scheduler="2op_block").uses_ooo_dispatch
        assert paper_machine(scheduler="2op_ooo").uses_ooo_dispatch
        assert paper_machine(scheduler="2op_ooo_filtered").uses_ooo_dispatch


class TestValidation:
    def test_negative_width_rejected(self):
        with pytest.raises(ValueError, match="fetch_width"):
            MachineConfig(fetch_width=0)

    def test_bad_deadlock_mode_rejected(self):
        with pytest.raises(ValueError, match="deadlock_mode"):
            MachineConfig(deadlock_mode="pray")

    def test_bad_fetch_policy_rejected(self):
        with pytest.raises(ValueError, match="fetch_policy"):
            MachineConfig(fetch_policy="random")

    def test_cache_size_multiple(self):
        with pytest.raises(ValueError, match="multiple"):
            CacheConfig(size_bytes=1000, assoc=2, line_bytes=64, hit_latency=1)

    def test_cache_line_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            CacheConfig(size_bytes=1024, assoc=2, line_bytes=48, hit_latency=1)

    def test_cache_num_sets(self):
        cfg = CacheConfig(32 * 1024, 4, 256, 1)
        assert cfg.num_sets == 32

    def test_bp_validation(self):
        with pytest.raises(ValueError):
            BranchPredictorConfig(gshare_entries=1000)

    def test_memory_latency_positive(self):
        with pytest.raises(ValueError):
            MemoryConfig(memory_latency=0)

    @pytest.mark.parametrize("base, field, value", [
        # Each of these used to construct, then fail deep in a run,
        # run to completion on a fractional machine, or read True as 1.
        (MachineConfig(), "iq_size", 16.5),
        (MachineConfig(), "fetch_width", 2.5),
        (MachineConfig(), "rob_size", 96.0),
        (MachineConfig(), "deadlock_buffer_size", True),
        (MachineConfig(), "sanitize", 1),
        (MachineConfig(), "dab_exclusive", "no"),
        (MachineConfig(), "mem", None),
        (MachineConfig(), "bp", MemoryConfig()),
        (CacheConfig(1024, 2, 64, 1), "size_bytes", 1024.0),
        (MemoryConfig(), "memory_latency", 150.0),
        (MemoryConfig(), "l2", None),
        (BranchPredictorConfig(), "history_bits", False),
    ])
    def test_wrongly_typed_field_rejected(self, base, field, value):
        with pytest.raises(TypeError, match=field):
            dataclasses.replace(base, **{field: value})


class TestReplaceAndHashing:
    def test_replace_returns_new_config(self):
        cfg = paper_machine()
        cfg2 = cfg.replace(iq_size=96)
        assert cfg2.iq_size == 96
        assert cfg.iq_size == 64
        assert cfg2 is not cfg

    def test_config_is_hashable_and_equal(self):
        assert paper_machine() == paper_machine()
        assert hash(paper_machine(iq_size=96)) == hash(paper_machine(iq_size=96))
        assert paper_machine(iq_size=96) != paper_machine(iq_size=64)

    def test_config_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            paper_machine().iq_size = 1


class TestPresets:
    def test_small_machine_is_valid_and_smaller(self):
        cfg = small_machine()
        assert cfg.fetch_width < paper_machine().fetch_width
        assert cfg.iq_size < paper_machine().iq_size

    def test_tiny_machine_overrides(self):
        cfg = tiny_machine(iq_size=6, scheduler="2op_ooo")
        assert cfg.iq_size == 6
        assert cfg.scheduler == "2op_ooo"

    def test_presets_accept_scheduler(self):
        for preset in (paper_machine, small_machine):
            assert preset(scheduler="2op_block").scheduler == "2op_block"
