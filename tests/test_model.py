import functools
import json
import random

import pytest

from kripkelewis import (
    Atom,
    Bel,
    Box,
    Cond,
    Frame,
    FrameIssue,
    Model,
    Not,
    Or,
    frame_to_json,
    load_frame,
    load_model,
    model_to_json,
    parse,
    sample_frames,
    truth,
    truth_set,
    validate_frame,
    Witness,
)

from kripkelewis.model import MAX_MISSING_SELECTION_ENTRIES

import helpers

P, Q = Atom("p"), Atom("q")


def _raw_fx2():
    return {
        "states": ["s0", "s1"],
        "belief": {"s0": ["s1"], "s1": ["s1"]},
        "selection": [
            {"state": "s0", "event": ["s0"], "selected": ["s0"]},
            {"state": "s0", "event": ["s1"], "selected": ["s1"]},
            {"state": "s0", "event": ["s0", "s1"], "selected": ["s0", "s1"]},
            {"state": "s1", "event": ["s0"], "selected": ["s1"]},
            {"state": "s1", "event": ["s1"], "selected": ["s1"]},
            {"state": "s1", "event": ["s0", "s1"], "selected": ["s0", "s1"]},
        ],
    }


def test_validate_smallest_frame():
    frame, issues = validate_frame(
        {
            "states": ["s0"],
            "belief": {"s0": ["s0"]},
            "selection": [{"state": "s0", "event": ["s0"], "selected": ["s0"]}],
        }
    )
    assert issues == []
    assert frame == helpers.m0_frame()


def test_validate_reports_non_serial():
    raw = _raw_fx2()
    raw["belief"] = {"s0": [], "s1": ["s1"]}
    frame, issues = validate_frame(raw)
    assert frame is None
    assert [i.kind for i in issues] == ["non_serial"]
    assert "s0" in issues[0].detail


def test_validate_reports_missing_selection_entry():
    raw = _raw_fx2()
    raw["selection"] = [e for e in raw["selection"] if not (e["state"] == "s1" and e["event"] == ["s0"])]
    frame, issues = validate_frame(raw)
    assert frame is None
    assert [i.kind for i in issues] == ["missing_selection_entry"]
    assert "s1" in issues[0].detail and "s0" in issues[0].detail


def test_validate_reports_unknown_state():
    raw = _raw_fx2()
    raw["belief"]["s0"] = ["s9"]
    frame, issues = validate_frame(raw)
    assert frame is None
    assert any(i.kind == "unknown_state" for i in issues)


def test_validate_collects_multiple_issues():
    raw = _raw_fx2()
    raw["belief"] = {"s0": []}
    raw["selection"] = raw["selection"][:4]
    frame, issues = validate_frame(raw)
    assert frame is None
    kinds = {i.kind for i in issues}
    assert "non_serial" in kinds and "missing_selection_entry" in kinds
    assert len(issues) >= 3  # s0 and s1 non-serial plus missing entries


def test_validate_names_each_missing_entry_up_to_the_bound():
    names = [f"s{i}" for i in range(8)]
    raw = frame_to_json(Frame(names, [1] * 8, [[0] * 256] * 8))
    needed = len(raw["selection"])  # 8 * 255
    raw["selection"] = raw["selection"][: needed - MAX_MISSING_SELECTION_ENTRIES]
    frame, issues = validate_frame(raw)
    assert frame is None
    assert [i.kind for i in issues] == ["missing_selection_entry"] * MAX_MISSING_SELECTION_ENTRIES
    raw["selection"].pop()
    frame, issues = validate_frame(raw)
    assert frame is None
    assert [str(i) for i in issues] == [
        f"missing_selection_entry: {needed - MAX_MISSING_SELECTION_ENTRIES - 1} selection "
        f"entries given, 8 states need {needed}"
    ]


def test_validate_rejects_empty_event_and_duplicates():
    raw = _raw_fx2()
    raw["selection"].append({"state": "s0", "event": [], "selected": []})
    frame, issues = validate_frame(raw)
    assert frame is None
    assert [i.kind for i in issues] == ["empty_event"]

    raw = _raw_fx2()
    raw["selection"].append({"state": "s0", "event": ["s0"], "selected": ["s1"]})
    frame, issues = validate_frame(raw)
    assert frame is None
    assert [i.kind for i in issues] == ["duplicate_selection_entry"]


def test_loaded_fixture_matches_handbuilt(fx2_path):
    with open(fx2_path) as handle:
        model = load_model(json.load(handle))
    assert model.frame == helpers.fx2_frame()
    assert model.valuation == {"p": 0b01}


def test_truth_vacuous_conditional_on_m0(m0):
    model = Model(m0, {})  # p has the empty truth set
    assert truth(model, 0, parse("p > q")) is True


def test_truth_believed_conditional_on_m0(m0):
    model = Model(m0, {"p": 0b1, "q": 0b1})
    assert truth(model, 0, parse("B(p > q)")) is True


def test_truth_set_goldens(m0):
    rng = random.Random(140)
    for _ in range(50):
        model = helpers.random_model(rng)
        assert truth_set(model, parse("p | ~p")) == model.frame.full
    model = Model(m0, {"p": 0b1})
    assert truth_set(model, parse("[] p")) == 0b1


def test_truth_fx2_refutes_believed_identity_conditional(fx2):
    model = Model(fx2, {"p": 0b01})
    f = parse("B(p > p)")
    assert truth(model, 0, f) is False
    assert truth_set(model, f) == 0


def test_truth_rejects_illformed(m0):
    model = Model(m0, {})
    with pytest.raises(ValueError):
        truth(model, 0, Cond(Bel(P), Q))
    with pytest.raises(ValueError):
        truth_set(model, Bel(Box(P)))


def test_truth_rejects_bad_state(m0):
    with pytest.raises(IndexError):
        truth(Model(m0, {}), 1, P)


def test_truth_matches_truth_set_on_random_pairs():
    rng = random.Random(107)
    for _ in range(1000):
        model = helpers.random_model(rng)
        f = helpers.gen_wellformed(rng, depth=rng.randrange(1, 4))
        ts = truth_set(model, f)
        for s in range(model.frame.n):
            assert truth(model, s, f) == bool(ts >> s & 1)


def test_truth_set_boolean_structure():
    rng = random.Random(108)
    for _ in range(300):
        model = helpers.random_model(rng)
        full = model.frame.full
        f = helpers.gen_wellformed(rng, depth=2)
        g = helpers.gen_wellformed(rng, depth=2)
        assert truth_set(model, Not(f)) == full ^ truth_set(model, f)
        assert truth_set(model, Or(f, g)) == truth_set(model, f) | truth_set(model, g)


def test_conditional_vacuity_for_impossible_antecedents():
    rng = random.Random(109)
    for _ in range(200):
        model = helpers.random_model(rng)
        antecedent = rng.choice([Atom("z"), Atom("p") & ~Atom("p")])
        assert truth_set(model, antecedent) == 0
        consequent = helpers.gen_phi0(rng, depth=2)
        cond = Cond(antecedent, consequent) if rng.random() < 0.5 else Cond(
            antecedent, Not(consequent)
        )
        assert truth_set(model, cond) == model.frame.full


def test_box_truth_is_state_independent():
    rng = random.Random(110)
    for _ in range(200):
        model = helpers.random_model(rng)
        f = Box(helpers.gen_phi0(rng, depth=2))
        values = {truth(model, s, f) for s in range(model.frame.n)}
        assert len(values) == 1


# union[s][e] is the revised support at s for e: the event a formula's truth
# set must contain for the formula to survive revision by e at s.
def test_revised_support_goldens(m0, fx2):
    assert m0.union[0][0b1] == 0b1
    assert fx2.union[0][0b01] == 0b10


def test_revised_support_singleton_belief():
    rng = random.Random(111)
    for _ in range(100):
        frame = helpers.random_frame(rng)
        s = rng.randrange(frame.n)
        singles = [x for x in range(frame.n) if frame.belief[s] == 1 << x]
        if singles:
            e = rng.randrange(1, frame.full + 1)
            assert frame.union[s][e] == frame.selection[singles[0]][e]


def test_revised_support_bounded_by_full_selection_column():
    rng = random.Random(112)
    for _ in range(200):
        frame = helpers.random_frame(rng)
        s = rng.randrange(frame.n)
        e = rng.randrange(1, frame.full + 1)
        column = 0
        for x in range(frame.n):
            column |= frame.selection[x][e]
        assert frame.union[s][e] & ~column == 0


def test_frame_json_round_trip():
    rng = random.Random(113)
    for _ in range(50):
        frame = helpers.random_frame(rng)
        assert load_frame(frame_to_json(frame)) == frame


def test_model_json_round_trip():
    rng = random.Random(114)
    for _ in range(50):
        model = helpers.random_model(rng)
        loaded = load_model(model_to_json(model))
        assert loaded.frame == model.frame
        assert loaded.valuation == model.valuation


@functools.cache
def _table_frames() -> tuple:
    """Every two-state frame, the 1,000 seed-42 three-state frames, ranked
    frames on one to five states, a row with nonzero placeholders and an
    empty belief set (the constructor does not check seriality)."""
    rng = random.Random(115)
    return (
        *helpers.enumerate_frames(2),
        *sample_frames(3, 1000, seed=42),
        *(helpers.ranked_frame(rng, n) for n in range(1, 6) for _ in range(20)),
        Frame(("a", "b"), (0b11, 0b01), ((3, 1, 2, 3), (2, 0, 1, 2))),
        Frame(("a", "b"), (0, 0b10), ((0, 1, 2, 3), (0, 2, 0, 1))),
    )


def test_union_rows_equal_triple_loop_oracle():
    for frame in _table_frames():
        assert frame.union == helpers.oracle_union(frame), frame


def test_singleton_belief_union_rows_zero_a_nonzero_placeholder():
    rng = random.Random(117)
    for n in range(1, 5):
        full = (1 << n) - 1
        for _ in range(25):
            belief = [1 << rng.randrange(n) for _ in range(n)]
            selection = [
                [rng.randrange(1, full + 1), *(rng.randrange(full + 1) for _ in range(full))]
                for _ in range(n)
            ]
            frame = Frame([f"s{i}" for i in range(n)], belief, selection)
            assert all(frame.union[s][0] == 0 for s in range(n)), frame
            assert frame.union == helpers.oracle_union(frame), frame


def test_json_writers_equal_per_entry_oracle():
    rng = random.Random(116)
    for frame in _table_frames():
        valuation = {atom: rng.randrange(frame.full + 1) for atom in ("p", "q")}
        model = Model(frame, valuation)
        expected = helpers.oracle_model_to_json(model)
        assert model_to_json(model) == expected
        del expected["valuation"]
        assert frame_to_json(frame) == expected


def test_frame_issue_is_an_immutable_value():
    issue = FrameIssue("non_serial", "belief set of s0 is empty")
    assert issue == FrameIssue(kind="non_serial", detail="belief set of s0 is empty")
    assert issue != FrameIssue("non_serial", "belief set of s1 is empty")
    assert hash(issue) == hash(FrameIssue("non_serial", "belief set of s0 is empty"))
    assert str(issue) == "non_serial: belief set of s0 is empty"
    assert (issue.kind, issue.detail) == ("non_serial", "belief set of s0 is empty")
    with pytest.raises(AttributeError):
        issue.kind = "bad_structure"


def test_witness_defaults_equality_and_repr():
    first, second = Witness("P5"), Witness("P5")
    assert first.states == {} and first.events == {}
    assert first.states is not second.states and first.events is not second.events
    w = Witness("P2", {"s": 0, "s_prime": 1}, {"E": 3})
    assert w == Witness(kind="P2", states={"s": 0, "s_prime": 1}, events={"E": 3})
    assert w != Witness("P3", {"s": 0, "s_prime": 1}, {"E": 3})
    assert w != ("P2", {"s": 0, "s_prime": 1}, {"E": 3})
    assert repr(w) == "Witness(kind='P2', states={'s': 0, 's_prime': 1}, events={'E': 3})"
