"""Fuzz the frame and model loaders through the CLI with arbitrary JSON.

Whatever the file holds, a command must exit 0, 1 or 2, never raise, and
exit 2 must come with an ``error:`` line.
"""

import contextlib
import io
import json
import types

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from kripkelewis import validate_frame  # noqa: E402
from kripkelewis.cli import main  # noqa: E402

import helpers  # noqa: E402

NAMES = st.sampled_from(["s0", "s1", "s2", "", "p"])

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=False)
    | st.text(max_size=4)
    | NAMES
)

JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4) | NAMES, inner, max_size=4),
    max_leaves=12,
)


def _slots(frame: dict) -> list:
    """(container, key) pairs of ``frame`` that a corruption may replace or delete."""
    slots = [(frame, key) for key in ("states", "belief", "selection", "valuation")]
    for key in ("belief", "valuation"):
        if isinstance(frame.get(key), dict):
            slots += [(frame[key], name) for name in frame[key]]
    if isinstance(frame.get("selection"), list):
        for i, entry in enumerate(frame["selection"]):
            slots.append((frame["selection"], i))
            if isinstance(entry, dict):
                slots += [(entry, key) for key in ("state", "event", "selected")]
    return slots


@st.composite
def near_frames(draw):
    """A complete frame or model on up to three states with a few of its
    parts replaced by arbitrary JSON or deleted, so the fuzz reaches every
    stage of validation and, unbroken, the checks themselves."""
    names = draw(st.lists(NAMES, min_size=1, max_size=3, unique=True))
    n = len(names)
    subsets = st.lists(st.sampled_from(names), max_size=n)
    events = [[names[i] for i in range(n) if e >> i & 1] for e in range(1, 1 << n)]
    frame = {
        "states": names,
        "belief": {name: draw(subsets) for name in names},
        "selection": [
            {"state": name, "event": event, "selected": draw(subsets)}
            for name in names
            for event in events
        ],
        "valuation": {"p": draw(subsets)},
    }
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        container, key = draw(st.sampled_from(_slots(frame)))
        if isinstance(container, dict) and draw(st.booleans()):
            container.pop(key, None)
        else:
            container[key] = draw(JSON_VALUES)
    return frame


FUZZ = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_clean_exit(path, data, argv):
    path.write_text(json.dumps(data), encoding="utf-8")
    code, _, err = _run(argv)
    assert code in (0, 1, 2), (data, code)
    if code == 2:
        assert err.startswith("error:"), (data, err)
    assert "Traceback" not in err


@FUZZ
@given(data=JSON_VALUES | near_frames())
def test_frame_loader_never_crashes(input_path, data):
    _assert_clean_exit(input_path, data, ["frame-check", "--frame", str(input_path)])


@FUZZ
@given(data=JSON_VALUES | near_frames())
def test_model_loader_never_crashes(input_path, data):
    argv = ["eval", "--model", str(input_path), "--state", "s0", "--formula", "B(p > q)"]
    _assert_clean_exit(input_path, data, argv)


@settings(FUZZ, max_examples=300)
@given(data=JSON_VALUES | near_frames())
def test_validate_frame_equals_two_pass_oracle(data):
    frame, issues = validate_frame(data)
    tables, expected = helpers.oracle_validate_frame(data)
    assert issues == expected
    if frame is None:
        assert tables is None
    else:
        assert (frame.states, frame.belief, frame.selection) == tables


def _ab_frame(*entries) -> dict:
    """A complete frame on states ``a`` and ``b`` with ``entries`` in place
    of its first selection entry."""
    selection = [
        {"state": state, "event": event, "selected": event}
        for state in ("a", "b") for event in (["a"], ["b"], ["a", "b"])
    ]
    return {"states": ["a", "b"], "belief": {"a": ["a"], "b": ["b"]},
            "selection": [*entries, *selection[1:]]}


# Entries the loader's one-step route for well-formed dict entries must pass
# on to the issue-recording checks, whose verdicts must stay the oracle's.
FALLBACK_CASES = {
    "tuple-name-lists": (_ab_frame({"state": "a", "event": ("a",), "selected": ("a", "b")}), True),
    "mapping-proxy-entry": (
        _ab_frame(types.MappingProxyType({"state": "a", "event": ["a"], "selected": ["b"]})), True),
    "repeated-name": (_ab_frame({"state": "a", "event": ["a", "a"], "selected": ["b", "b"]}), True),
    "string-event-of-state-names": (_ab_frame({"state": "a", "event": "ab", "selected": []}), False),
    "int-state": (_ab_frame({"state": 7, "event": ["a"], "selected": ["a"]}), False),
    "list-state": (_ab_frame({"state": ["a"], "event": ["a"], "selected": ["a"]}), False),
    "duplicate-after-valid": (_ab_frame({"state": "a", "event": ["a"], "selected": ["a"]},
                                        {"state": "a", "event": ["a"], "selected": ["b"]}), False),
    "no-event-key": (_ab_frame({"state": "a", "selected": ["a"]}), False),
}


@pytest.mark.parametrize("name", FALLBACK_CASES)
def test_validate_frame_fallback_shapes_equal_two_pass_oracle(name):
    data, loads = FALLBACK_CASES[name]
    frame, issues = validate_frame(data)
    tables, expected = helpers.oracle_validate_frame(data)
    assert issues == expected
    assert (frame is not None) == (tables is not None) == loads
    if frame is not None:
        assert (frame.states, frame.belief, frame.selection) == tables
