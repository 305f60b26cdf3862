"""Correctness tooling for the reproduction (`repro.analysis`).

These modules guard the invariants the paper's claims rest on
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
* :mod:`repro.analysis.contracts` — the ``@stage_contract`` declarations
  naming which architectural state each pipeline stage may read and
  write, consumed by the flow pass statically and the sanitizer
  dynamically;
* :mod:`repro.analysis.sanitizer` — a runtime pipeline sanitizer that,
  when enabled via ``MachineConfig.sanitize=True``, re-validates the
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
