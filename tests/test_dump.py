"""``cli._dump`` against the stdlib encoder it stands in for."""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from kripkelewis.cli import _dump  # noqa: E402

TRICKY_TEXT = st.sampled_from(['"', "\\", '\\"', "\x00", "\x1f\x7f", " ", "é", "\U0001f600",
                               "\ud800", "a\nb\tc"])
LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200).flatmap(lambda i: st.sampled_from([i, -i]))
    | st.floats()
    | st.sampled_from([-0.0, 0.0, 1e300, -1e300, 5e-324, 1e16, 0.1])
    | st.text()
    | TRICKY_TEXT
)
KEYS = st.text(max_size=6) | TRICKY_TEXT
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(KEYS, inner, max_size=5),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(value=VALUES)
def test_dump_equals_json_dumps(value):
    assert _dump(value) == json.dumps(value, indent=2, sort_keys=True)

