"""Synthetic SPEC CPU2000 workload models.

The paper simulates precompiled Alpha binaries of all 26 SPEC CPU2000
programs. Those binaries (and an Alpha functional simulator) are not
reproducible here, so each program is replaced by a *statistical profile*
(:mod:`repro.trace.profiles`) driving a deterministic synthetic trace
generator (:mod:`repro.trace.generator`). The profiles control exactly
the program properties the studied mechanisms are sensitive to:

* instruction mix (which functional units, which latencies);
* register dependence-distance distribution (how often an instruction
  reaches dispatch with 0/1/2 non-ready sources);
* data footprint and access regularity (cache miss rates, hence
  long-latency producers);
* branch predictability (front-end bubbles).

See DESIGN.md §2 for the substitution argument.
"""

from repro.trace.generator import Trace, generate_trace
from repro.trace.profiles import (
    ALL_BENCHMARKS,
    BenchmarkProfile,
    get_profile,
)
from repro.trace.classify import classify_benchmark, classify_all

__all__ = [
    "BenchmarkProfile",
    "ALL_BENCHMARKS",
    "get_profile",
    "Trace",
    "generate_trace",
    "classify_benchmark",
    "classify_all",
]
