"""Single-run experiment entry points.

These are the building blocks of every figure driver: simulate one
benchmark or one mix on one machine configuration, deterministically.

Trace seeds depend only on ``(benchmark, occurrence-in-mix, root seed)``
— *not* on the machine configuration — so every scheduler and IQ size
sees byte-identical instruction streams, and a benchmark's single-thread
baseline run replays exactly the trace its first in-mix occurrence
executes (required for the weighted-IPC fairness metric).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.config.machine import MachineConfig
from repro.exec.tracestore import (
    active_trace_store,
    active_warm_store,
    trace_key,
    warm_key,
)
from repro.metrics.fairness import harmonic_weighted_ipc
from repro.metrics.ipc import SimResult
from repro.pipeline.smt_core import SMTProcessor, warm_state_cached
from repro.trace.generator import Trace, generate_trace
from repro.util.rng import derive_seed

#: Extra trace instructions beyond the commit budget, covering in-flight
#: slack so no thread's trace runs dry before the fastest thread finishes.
TRACE_SLACK = 4096

#: Default functional warmup (branch predictors + caches) preceding the
#: measured region, standing in for the paper's SimPoint fast-forward.
DEFAULT_WARMUP = 30_000


def default_warmup(max_insns: int) -> int:
    """Warmup length used when the caller does not override it."""
    return max(DEFAULT_WARMUP, max_insns)


#: Per-process memo of slot traces keyed by
#: ``(benchmark, occurrence, root seed, length)``. It pins every slot
#: trace a sweep touches for the life of the process (a fairness sweep
#: needs up to 4 slots x 12 mixes plus one solo baseline per
#: benchmark). A forked pool worker clears it whenever it takes up
#: another mix, so it holds one mix's traces; the on-disk store
#: (:mod:`repro.exec.tracestore`) carries traces across workers.
_SLOT_TRACE_CACHE: dict[tuple[str, int, int, int], Trace] = {}
_SLOT_TRACE_CACHE_MAX = 512


def _slots(benchmarks: Sequence[str],
           seed: int) -> list[tuple[str, int, int]]:
    """``(benchmark, occurrence-in-mix, trace seed)`` of each mix slot."""
    seen: dict[str, int] = {}
    slots = []
    for name in benchmarks:
        occurrence = seen.get(name, 0)
        seen[name] = occurrence + 1
        slots.append(
            (name, occurrence, derive_seed(seed, "slot", name, occurrence))
        )
    return slots


def _trace_length(max_insns: int, warmup: int) -> int:
    return warmup + max_insns + TRACE_SLACK


def thread_traces(benchmarks: Sequence[str], max_insns: int, seed: int,
                  warmup: int) -> list[Trace]:
    """Traces for each mix slot, shared by every grid point of a sweep.

    A slot trace depends only on ``(benchmark, occurrence-in-mix, root
    seed, length)``, so every grid point of a sweep replays the same
    trace per slot. Each slot is looked up in three places, in order:

    1. this process's memo (bounded at :data:`_SLOT_TRACE_CACHE_MAX`
       entries, FIFO eviction), which returns the identical object;
    2. the on-disk trace store, when :func:`~repro.exec.pool
       .execute_jobs` runs forked workers with a ``cache_dir`` (see
       :mod:`repro.exec.tracestore`), which returns an equal trace
       generated by an earlier job in any process;
    3. :func:`generate_trace`, whose result is written to the store
       when one is active.
    """
    store = active_trace_store()
    traces = []
    length = _trace_length(max_insns, warmup)
    for name, occurrence, trace_seed in _slots(benchmarks, seed):
        key = (name, occurrence, seed, length)
        trace = _SLOT_TRACE_CACHE.get(key)
        if trace is None:
            if store is not None:
                trace = store.get(name, length, trace_seed)
            if trace is None:
                trace = generate_trace(name, length, trace_seed)
                if store is not None:
                    store.put(trace)
            if len(_SLOT_TRACE_CACHE) >= _SLOT_TRACE_CACHE_MAX:
                _SLOT_TRACE_CACHE.pop(next(iter(_SLOT_TRACE_CACHE)))
            _SLOT_TRACE_CACHE[key] = trace
        traces.append(trace)
    return traces


def _build_core(benchmarks: Sequence[str], config: MachineConfig,
                traces: list[Trace], max_insns: int, seed: int,
                warmup: int) -> SMTProcessor:
    """The core of one grid point, warm.

    The core takes its warm caches and predictors from the per-process
    memo in :mod:`repro.pipeline.smt_core`, or builds them cold. When
    the on-disk stores are active (see :func:`thread_traces`) and the
    memo has no entry, the mix's stored snapshot is loaded into the memo
    first, and a cold build's state is stored for the next job.
    """
    store = active_warm_store()
    if store is None or warm_state_cached(config, traces, warmup):
        return SMTProcessor(config, traces, warmup=warmup)
    length = _trace_length(max_insns, warmup)
    key = warm_key(
        [trace_key(name, length, trace_seed)
         for name, _, trace_seed in _slots(benchmarks, seed)],
        warmup, config,
    )
    loaded = store.load(key, config, traces, warmup)
    core = SMTProcessor(config, traces, warmup=warmup)
    if not loaded:
        store.save(key, config, traces, warmup)
    return core


def clear_slot_trace_cache() -> None:
    """Drop memoised slot traces (tests, and a pool worker taking up
    another mix)."""
    _SLOT_TRACE_CACHE.clear()


def simulate_mix(benchmarks: Sequence[str], config: MachineConfig,
                 max_insns: int = 20_000, seed: int = 0,
                 max_cycles: int = 5_000_000,
                 warmup: int | None = None) -> SimResult:
    """Simulate a multithreaded mix; stops when any thread commits
    ``max_insns`` instructions (the paper's stopping rule).

    ``warmup`` instructions per thread are replayed functionally into the
    branch predictors and caches first (SimPoint-style warm state);
    defaults to :func:`default_warmup`.
    """
    if warmup is None:
        warmup = default_warmup(max_insns)
    traces = thread_traces(benchmarks, max_insns, seed, warmup)
    core = _build_core(benchmarks, config, traces, max_insns, seed, warmup)
    stats = core.run(max_insns, max_cycles=max_cycles)
    return SimResult.from_stats(
        tuple(benchmarks), config.scheduler, config.iq_size, stats
    )


def simulate_benchmark(name: str, config: MachineConfig,
                       max_insns: int = 20_000, seed: int = 0,
                       max_cycles: int = 5_000_000,
                       warmup: int | None = None) -> SimResult:
    """Simulate one benchmark alone (single-thread baseline)."""
    return simulate_mix([name], config, max_insns, seed, max_cycles, warmup)


# ---------------------------------------------------------------------------
# single-thread baseline cache (fairness metric)
# ---------------------------------------------------------------------------

_SOLO_CACHE: dict[tuple, float] = {}


def solo_ipc(name: str, config: MachineConfig, max_insns: int = 20_000,
             seed: int = 0, max_cycles: int = 5_000_000,
             warmup: int | None = None) -> float:
    """Single-thread IPC of ``name`` on ``config`` (memoised).

    The paper weights each thread's in-mix IPC by its stand-alone IPC on
    the same machine; these runs are shared across every mix touching
    the benchmark.
    """
    key = (name, config, max_insns, seed, max_cycles, warmup)
    ipc = _SOLO_CACHE.get(key)
    if ipc is None:
        ipc = simulate_benchmark(
            name, config, max_insns, seed, max_cycles, warmup
        ).throughput_ipc
        _SOLO_CACHE[key] = ipc
    return ipc


def clear_solo_cache() -> None:
    """Drop memoised single-thread baselines (tests)."""
    _SOLO_CACHE.clear()


def simulate_mix_with_fairness(benchmarks: Sequence[str],
                               config: MachineConfig,
                               max_insns: int = 20_000, seed: int = 0,
                               max_cycles: int = 5_000_000,
                               warmup: int | None = None,
                               ) -> tuple[SimResult, float]:
    """Simulate a mix and also compute the fairness metric.

    Returns ``(result, harmonic mean of weighted IPCs)``. The weighting
    baselines are single-thread runs on the *traditional-scheduler*
    machine of the same capacity: weights must be scheme-independent for
    the paper's cross-scheduler fairness comparisons (Figures 4/6/8) to
    be meaningful — weighting each scheme by its own throttled solo IPCs
    would reward schemes for slowing everything down uniformly.
    ``max_cycles`` and ``warmup`` apply to the mix and to every
    baseline alike.
    """
    result = simulate_mix(benchmarks, config, max_insns, seed, max_cycles,
                          warmup)
    baseline_cfg = (
        config if config.scheduler == "traditional"
        else config.replace(scheduler="traditional")
    )
    alone = [solo_ipc(b, baseline_cfg, max_insns, seed, max_cycles, warmup)
             for b in benchmarks]
    fairness = harmonic_weighted_ipc(result.per_thread_ipc, alone)
    return result, fairness
