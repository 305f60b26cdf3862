"""Micro benchmarks: simulator and trace-generator throughput.

These are conventional pytest-benchmark measurements (multiple rounds)
tracking the performance engineering targets of DESIGN.md §6 — they
size how many instructions the reproduction experiments can afford.
"""

import pytest

from repro.config.presets import paper_machine
from repro.experiments.runner import thread_traces
from repro.pipeline.smt_core import SMTProcessor
from repro.trace.generator import generate_trace


@pytest.fixture(scope="module")
def traces():
    return thread_traces(["parser", "vortex"], 4000, seed=0, warmup=4000)


def test_simulator_cycle_throughput(benchmark, traces):
    """End-to-end simulation speed (cycles/second) on a 2-thread mix."""
    def run():
        # Micro-bench of the core's own speed; bypassing repro.exec
        # is the point here.
        core = SMTProcessor(paper_machine(), traces, warmup=4000)  # repro: noqa[RPR006]
        stats = core.run(4000)
        return stats.cycles

    cycles = benchmark(run)
    assert cycles > 0


def test_trace_generation_throughput(benchmark):
    """Trace generation speed (instructions/second)."""
    counter = [0]

    def run():
        counter[0] += 1
        return generate_trace("gzip", 20_000, seed=counter[0])

    trace = benchmark(run)
    assert len(trace) == 20_000


def test_warmup_replay_throughput(benchmark, traces):
    """Cost of the functional warmup phase alone."""
    def run():
        core = SMTProcessor(paper_machine(), traces, warmup=4000)  # repro: noqa[RPR006]
        return core

    core = benchmark(run)
    assert core.threads[0].fetch_idx == 4000
