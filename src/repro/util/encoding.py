"""Byte-stable JSON encoding shared by every committed artifact.

The repository commits machine-written JSON (the perf and mutation
baselines, ``--json`` lint output piped into diffs) and relies on
*byte* stability: re-encoding unchanged data must produce the
identical file, or every refresh churns the diff and the CI gates that
compare against committed baselines turn flaky.

:func:`stable_dumps` is the single canonical form — sorted keys,
two-space indent, trailing newline — used by ``repro.perf.bench``
(``BENCH_sim_speed.json``), the ``repro.analysis`` lint and mutate
``--json`` outputs and ``results/mutation_baseline.json``. Callers are
responsible for normalising value *types* first (``int()``/``float()``
coercion, fixed rounding), as ``repro.exec.cache.encode_job_result``
and ``repro.perf.bench.encode_bench_result`` do; this function fixes
the serialisation layer on top.
"""

from __future__ import annotations

import json


def stable_dumps(payload: object) -> str:
    """Canonical JSON text for committed artifacts (ends in a newline)."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
