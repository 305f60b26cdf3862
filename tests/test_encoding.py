"""Byte-stability of the committed-JSON canonical form.

Every committed machine-written artifact (the perf and mutation
baselines) is produced by ``stable_dumps``; these tests pin the two
properties the gates rely on: encode→decode→encode is a fixed point,
and the artifacts actually in the tree are already in canonical form
(so a refresh with unchanged data is a no-op diff).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from repro.util.encoding import stable_dumps

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Every JSON artifact committed to the repository. Enumerated
#: explicitly (not globbed) so a new baseline must be added here and
#: is then held to the byte-stability contract forever.
COMMITTED_JSON = (
    "BENCH_sim_speed.json",
    "results/mutation_baseline.json",
)

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=40),
)

_payloads = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=20), children, max_size=5),
    ),
    max_leaves=25,
)


@given(_payloads)
def test_encode_decode_encode_is_fixed_point(payload):
    once = stable_dumps(payload)
    again = stable_dumps(json.loads(once))
    assert once == again


@given(_payloads)
def test_decode_round_trips_values(payload):
    decoded = json.loads(stable_dumps(payload))

    def normalise(value):
        # JSON collapses int-valued floats' identity (2.0 stays 2.0),
        # but NaN-free floats must round-trip exactly.
        if isinstance(value, list):
            return [normalise(v) for v in value]
        if isinstance(value, dict):
            return {k: normalise(v) for k, v in value.items()}
        if isinstance(value, float):
            assert not math.isnan(value)
        return value

    assert normalise(decoded) == normalise(payload)


def test_stable_dumps_shape():
    text = stable_dumps({"b": 1, "a": [1.5, None, True]})
    assert text.endswith("\n")
    assert text == (
        '{\n  "a": [\n    1.5,\n    null,\n    true\n  ],\n  "b": 1\n}\n'
    )


def test_all_committed_baselines_are_canonical():
    """Each committed artifact is byte-identical to its own re-encoding."""
    checked = 0
    for rel in COMMITTED_JSON:
        path = REPO_ROOT / rel
        assert path.exists(), f"missing committed baseline: {rel}"
        text = path.read_text(encoding="utf-8")
        assert stable_dumps(json.loads(text)) == text, (
            f"{rel} is not in stable_dumps canonical form"
        )
        checked += 1
    assert checked >= 2
