"""The harness clocks: the benchmark's only clock read sites."""

import time  # repro: noqa[RPR001] — the benchmark measures host wall time


def now() -> float:
    """Seconds on CLOCK_MONOTONIC, which Linux shares across processes,
    so a parent and the children it spawns or forks can subtract their
    readings."""
    return time.monotonic()  # repro: noqa[RPR001] — harness timing only


def thread_cpu() -> float:
    """CPU seconds the calling thread has used."""
    return time.thread_time()  # repro: noqa[RPR001] — harness timing only
