"""Correctness tooling for the reproduction (`repro.analysis`).

These modules guard the invariants the paper's claims rest on
(renaming/ROB/LSQ allocation stay in program order while dispatch goes
out of order, one-comparator IQ entries never wait on two tags, the
deadlock-avoidance buffer guarantees forward progress):

* :mod:`repro.analysis.lint` — a custom per-file AST lint pass with
  simulator-specific rules (``python -m repro.analysis lint src/repro``),
  each with an error code, ``# repro: noqa[CODE]`` suppression and a
  machine-readable ``--json`` output;
* :mod:`repro.analysis.contracts` — the ``@stage_contract`` declarations
  naming the architectural state each pipeline stage may change,
  enforced by the sanitizer;
* :mod:`repro.analysis.sanitizer` — the pipeline's one runtime checker:
  when enabled via ``MachineConfig.sanitize=True``, it re-validates the
  microarchitectural invariants every ``sanitize_interval`` cycles inside
  the :class:`~repro.pipeline.smt_core.SMTProcessor` cycle loop and
  raises a structured :class:`~repro.analysis.sanitizer.SanitizerViolation`
  naming the invariant, cycle, thread and instruction;
* :mod:`repro.analysis.mutate` — mutation analysis that measures what
  the layers above catch (``python -m repro.analysis mutate``).

The package imports none of them: the pipeline imports
:mod:`repro.analysis.contracts` on every simulator start, and that must
not load the analysers. See ``docs/analysis.md`` for the rule/invariant
catalogue.
"""
