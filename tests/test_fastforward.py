"""Fast-forward equivalence: the golden invariant of the skip engine.

Running :class:`SMTProcessor` with idle-cycle fast-forward on or off
must produce **byte-identical** :class:`PipelineStats` — same cycles,
same occupancy integrals, same stall attribution, same watchdog
behaviour. These tests enforce that across the tier-1 configurations,
across randomly drawn (mix, IQ size, scheduler, seed) points, and on
the sharpest edge the engine has: a skip that lands exactly on the
watchdog expiry cycle.
"""

from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config.presets import paper_machine, small_machine, tiny_machine
from repro.experiments.runner import thread_traces
from repro.pipeline.fastforward import FastForward
from repro.pipeline.smt_core import SMTProcessor

from tests.trace_builder import TraceBuilder

SCHEDULERS = ("traditional", "2op_block", "2op_ooo", "2op_ooo_filtered")


def _stats_pair(cfg, mix, insns, warmup, max_cycles=200_000):
    """Run the same configuration with fast-forward on and off."""
    out = []
    for ff in (True, False):
        traces = thread_traces(list(mix), insns, seed=0, warmup=warmup)
        core = SMTProcessor(cfg, traces, warmup=warmup, fast_forward=ff)
        out.append(core.run(insns, max_cycles))
    return out


def _assert_identical(a, b):
    """Equality plus the byte-level forms tests serialise stats through."""
    assert a == b
    assert asdict(a) == asdict(b)
    assert repr(a) == repr(b)


class TestTier1Equivalence:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_paper_machine_identical(self, scheduler):
        cfg = paper_machine(scheduler=scheduler)
        a, b = _stats_pair(cfg, ["parser", "vortex"], 1500, 500)
        _assert_identical(a, b)

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_small_machine_memory_bound_identical(self, scheduler):
        # gzip+mcf is the miss-heavy pair: long L2 episodes are exactly
        # the dead spans the engine exists to skip.
        cfg = small_machine(scheduler=scheduler)
        a, b = _stats_pair(cfg, ["gzip", "mcf"], 1500, 500)
        _assert_identical(a, b)

    def test_single_thread_identical(self):
        cfg = paper_machine()
        a, b = _stats_pair(cfg, ["ammp"], 1500, 500)
        _assert_identical(a, b)

    def test_sanitized_run_identical(self):
        # Sanitizer ticks are a skip cap: every check must still observe
        # its exact cycle, so sanitizer_checks must match too.
        cfg = paper_machine(scheduler="2op_ooo", sanitize=True,
                            sanitize_interval=16)
        a, b = _stats_pair(cfg, ["parser", "vortex"], 1500, 500)
        _assert_identical(a, b)
        assert a.sanitizer_checks > 0

    def test_engine_actually_skips(self):
        # Guard against the invariant passing vacuously: on the
        # miss-heavy pair the engine must be jumping dead spans.
        cfg = small_machine(scheduler="2op_ooo")
        traces = thread_traces(["gzip", "mcf"], 1500, seed=0, warmup=500)
        core = SMTProcessor(cfg, traces, warmup=500)
        core.run(1500)
        assert core.ff is not None
        assert core.ff.skips > 0
        assert core.ff.cycles_skipped > 0

    def test_fast_forward_off_disables_engine(self):
        traces = thread_traces(["parser"], 400, seed=0, warmup=100)
        core = SMTProcessor(paper_machine(), traces, warmup=100,
                            fast_forward=False)
        assert core.ff is None


class _SpyFF(FastForward):
    """Records where each skip lands and the watchdog budget there."""

    __slots__ = ("landings",)

    def __init__(self, wedge_limit, hdi_mask):
        super().__init__(wedge_limit, hdi_mask)
        self.landings = []

    def try_skip(self, core, max_cycles):
        span = super().try_skip(core, max_cycles)
        if span:
            watchdog = core.watchdog
            self.landings.append(
                (core.cycle,
                 None if watchdog is None else watchdog.remaining)
            )
        return span


class TestWatchdogExpiryEdge:
    """A skip may approach the watchdog expiry but never cross it: the
    expiry tick flushes the pipeline, which bulk accounting cannot
    replicate, so that cycle must be stepped for real."""

    def _wedging_trace(self):
        # A cold load (guaranteed miss to an untouched region) followed
        # by a window-filling dependent chain: dispatch goes quiet while
        # the ROB holds entries, so the watchdog counts down.
        tb = TraceBuilder()
        tb.load(dest=1, addr=1 << 20)
        for _ in range(30):
            tb.ialu(dest=2, src1=1)
        return tb.build()

    def _cfg(self):
        # Sanitized: the flushes must pass every check, and the checks
        # must observe the same cycles with the skip engine on and off.
        return tiny_machine(scheduler="2op_ooo", deadlock_mode="watchdog",
                            watchdog_cycles=6, sanitize=True,
                            sanitize_interval=4)

    def test_skip_lands_exactly_on_expiry_cycle(self):
        cfg = self._cfg()
        core = SMTProcessor(cfg, [self._wedging_trace()])
        core.ff = _SpyFF(250_000, 15)
        stats = core.run(1000)
        assert stats.watchdog_flushes > 0
        assert stats.sanitizer_checks > 0
        assert core.ff.skips > 0
        # The binding cap is the expiry: the jump stops with exactly one
        # watchdog cycle left, so the very next (real) step is the
        # expiring tick that flushes.
        assert any(rem == 1 for _, rem in core.ff.landings)

    def test_watchdog_run_identical_with_and_without_ff(self):
        cfg = self._cfg()
        a = SMTProcessor(cfg, [self._wedging_trace()]).run(1000)
        b = SMTProcessor(cfg, [self._wedging_trace()],
                         fast_forward=False).run(1000)
        _assert_identical(a, b)
        assert a.watchdog_flushes > 0


class TestPropertyEquivalence:
    @given(
        mix=st.lists(
            st.sampled_from(["gzip", "mcf", "parser", "vortex", "ammp",
                             "art"]),
            min_size=1, max_size=2,
        ),
        iq_size=st.sampled_from([4, 8, 16]),
        scheduler=st.sampled_from(SCHEDULERS),
        seed=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_config_identical(self, mix, iq_size, scheduler, seed):
        """Any (mix, IQ size, scheduler, seed) point produces identical
        stats with the skip engine on and off."""
        cfg = small_machine(iq_size=iq_size, scheduler=scheduler)
        out = []
        for ff in (True, False):
            traces = thread_traces(mix, 600, seed=seed, warmup=200)
            core = SMTProcessor(cfg, traces, warmup=200, fast_forward=ff)
            out.append(core.run(600, 100_000))
        _assert_identical(*out)
