"""Correctness tooling for the reproduction (`repro.analysis`).

Two cooperating layers guard the invariants the paper's claims rest on
(renaming/ROB/LSQ allocation stay in program order while dispatch goes
out of order, one-comparator IQ entries never wait on two tags, the
deadlock-avoidance buffer guarantees forward progress):

* :mod:`repro.analysis.lint` — a custom per-file AST lint pass with
  simulator-specific rules (``python -m repro.analysis lint src/repro``),
  each with an error code, ``# repro: noqa[CODE]`` suppression and a
  machine-readable ``--json`` output;
* :mod:`repro.analysis.flow` — a whole-program pass over the same tree
  (``python -m repro.analysis flow src/repro``) that builds a project
  call graph and checks the *interprocedural* rules: transitive hot
  closure (RPR009), determinism taint (RPR010), stage access contracts
  (RPR011) and worker fork/pickle safety (RPR012);
* :mod:`repro.analysis.races` — a whole-program *concurrency* pass
  (``python -m repro.analysis races src/repro``) layered on the same
  call graph: it infers execution contexts (main/thread/async/
  handler/fork), computes interprocedural locksets, and checks
  Eraser-style lockset consistency (RPR014), lock-order cycles
  (RPR015) and fork safety (RPR016);
* :mod:`repro.analysis.contracts` — the ``@stage_contract`` declarations
  naming which architectural state each pipeline stage may read and
  write, consumed by the flow pass statically and the sanitizer
  dynamically;
* :mod:`repro.analysis.sanitizer` — a runtime pipeline sanitizer that,
  when enabled via ``MachineConfig.sanitize=True``, re-validates the
  microarchitectural invariants every ``sanitize_interval`` cycles inside
  the :class:`~repro.pipeline.smt_core.SMTProcessor` cycle loop and
  raises a structured :class:`~repro.analysis.sanitizer.SanitizerViolation`
  naming the invariant, cycle, thread and instruction.

See ``docs/analysis.md`` for the rule/invariant catalogue.
"""

from __future__ import annotations

from repro.analysis.contracts import (
    STAGE_CONTRACTS,
    StageContract,
    stage_contract,
)
from repro.analysis.flow import FLOW_RULES, flow_paths
from repro.analysis.lint import LINT_RULES, Violation, lint_paths, lint_source
from repro.analysis.races import RACES_RULES, races_paths
from repro.analysis.sanitizer import (
    INVARIANTS,
    PipelineSanitizer,
    SanitizerViolation,
)

__all__ = [
    "LINT_RULES",
    "FLOW_RULES",
    "RACES_RULES",
    "Violation",
    "lint_paths",
    "lint_source",
    "flow_paths",
    "races_paths",
    "STAGE_CONTRACTS",
    "StageContract",
    "stage_contract",
    "INVARIANTS",
    "PipelineSanitizer",
    "SanitizerViolation",
]
