import random

import pytest

from kripkelewis import (
    Frame,
    PropertyEvaluator,
    PropertyId,
    Witness,
    check_property,
    frame_digest,
    sample_frames,
)

import helpers

ALL_PROPS = list(PropertyId)


def test_m0_satisfies_every_property(m0):
    for prop in ALL_PROPS:
        assert check_property(m0, prop) is None
    for literal in helpers.LITERAL_FORMS.values():
        assert literal(m0) is None


def test_fx2_p2_witness_golden(fx2):
    w = check_property(fx2, PropertyId.P2)
    assert w is not None
    assert w.kind == "P2"
    assert w.states == {"s": 0, "s_prime": 1}
    assert w.events == {"E": 0b01}
    assert w.to_json(fx2) == {
        "kind": "P2",
        "states": {"s": "s0", "s_prime": "s1"},
        "events": {"E": ["s0"]},
    }


def test_empty_selection_frame_p5_witness_golden():
    frame = helpers.empty_selection_frame()
    w = check_property(frame, PropertyId.P5)
    assert w is not None
    assert w.states == {"s": 0}
    assert w.events == {"E": 0b01}


def test_p8_violation_frame_witness_golden():
    frame = helpers.p8_violation_frame()
    w = check_property(frame, PropertyId.P8)
    assert w is not None
    assert w.states == {"s": 0, "s_hat": 0, "s_tilde": 0}
    assert w.events == {"E": 0b11, "F": 0b01}
    assert helpers.check_p8_literal(frame).events == w.events


def test_checkers_match_set_oracle_on_fixtures():
    for frame in (
        helpers.m0_frame(),
        helpers.fx2_frame(),
        helpers.empty_selection_frame(),
        helpers.p8_violation_frame(),
    ):
        for prop in ALL_PROPS:
            expected = helpers.oracle_property_holds(frame, prop.value)
            assert (check_property(frame, prop) is None) == expected, (frame, prop)


def test_checkers_match_set_oracle_on_enumerated_and_random_frames():
    frames = [f for i, f in enumerate(helpers.enumerate_frames(2)) if i % 97 == 0]
    frames += list(sample_frames(3, 120, seed=115))
    for frame in frames:
        for prop in ALL_PROPS:
            expected = helpers.oracle_property_holds(frame, prop.value)
            assert (check_property(frame, prop) is None) == expected, (
                frame_digest(frame),
                prop,
            )


def test_witness_replay_reproduces_violation():
    rng = random.Random(116)
    replayed = 0
    for _ in range(300):
        frame = helpers.random_frame(rng)
        for prop in ALL_PROPS:
            w = check_property(frame, prop)
            if w is not None:
                assert helpers.replay_witness(frame, w), (frame_digest(frame), prop)
                replayed += 1
    assert replayed > 200


def test_literal_and_fast_forms_agree():
    frames = [f for i, f in enumerate(helpers.enumerate_frames(2)) if i % 53 == 0]
    frames += list(sample_frames(3, 200, seed=117))
    for frame in frames:
        for prop in (PropertyId.P7, PropertyId.P8):
            fast = check_property(frame, prop)
            literal = helpers.LITERAL_FORMS[prop](frame)
            assert (fast is None) == (literal is None), (frame_digest(frame), prop)
            if fast is not None:
                # both forms emit replayable witnesses
                assert helpers.replay_witness(frame, fast)
                assert helpers.replay_witness(frame, literal)


def test_p7_allows_empty_innermost_event():
    # selections for the intersection are all empty, yet a selection for the
    # larger event meets F: the empty innermost event witnesses the failure
    frame = Frame(
        ("s0", "s1"),
        (0b01, 0b01),
        (
            (0, 0b00, 0b00, 0b10),
            (0, 0b00, 0b00, 0b00),
        ),
    )
    w = check_property(frame, PropertyId.P7)
    assert w is not None
    lit = helpers.check_p7_literal(frame)
    assert lit is not None
    assert lit.events["G"] == 0
    assert helpers.replay_witness(frame, lit)


def test_p2_pass_preserved_under_belief_shrinking():
    rng = random.Random(118)
    checked = 0
    for frame in sample_frames(2, 4000, seed=119):
        if check_property(frame, PropertyId.P2) is not None:
            continue
        checked += 1
        shrunk_belief = []
        for s in range(frame.n):
            members = [x for x in range(frame.n) if frame.belief[s] >> x & 1]
            keep = rng.sample(members, rng.randrange(1, len(members) + 1))
            shrunk_belief.append(sum(1 << x for x in keep))
        shrunk = Frame(frame.states, shrunk_belief, frame.selection)
        assert check_property(shrunk, PropertyId.P2) is None
    assert checked > 50


def test_unknown_witness_kind_rejected(m0):
    from kripkelewis import Witness

    with pytest.raises(ValueError):
        helpers.replay_witness(m0, Witness("A2", {"s": 0}, {"p": 1}))


def test_check_property_rejects_what_is_not_a_property_id(fx2):
    from kripkelewis import AxiomId

    for k in ("P2", AxiomId.A2, None):
        with pytest.raises(ValueError, match="unknown property"):
            check_property(fx2, k)
        with pytest.raises(ValueError, match="unknown property"):
            PropertyEvaluator(fx2).lane_hits(k)


# --- the lane-packed evaluator against the per-frame loops it replaced -----

def _assert_evaluator_matches_loops(frames) -> int:
    """On one evaluator holding ``frames``: each property's witnesses equal
    the per-frame loops' (kind, states and events, P8's s_hat included),
    and lane i of the failing states is nonempty iff frame i fails.
    Returns the number of witnesses."""
    evaluator = PropertyEvaluator(*frames)
    n, full = frames[0].n, frames[0].full
    count = 0
    for prop in ALL_PROPS:
        expected = [helpers.ORACLE_PROPERTY_CHECKS[prop](frame) for frame in frames]
        assert evaluator.witnesses(prop) == expected, (frame_digest(frames[0]), prop)
        failed, hits = evaluator.lane_hits(prop)
        fails = [bool(failed >> lane * n & full) for lane in range(len(frames))]
        assert fails == [w is not None for w in expected], (frame_digest(frames[0]), prop)
        assert sorted(bit // n for bit, *_ in hits) == [i for i, w in enumerate(expected) if w]
        count += sum(w is not None for w in expected)
    return count


def test_evaluator_matches_loops_all_two_state_frames_in_mixed_batches():
    frames = list(helpers.enumerate_frames(2))
    random.Random(140).shuffle(frames)  # passing and failing lanes side by side
    for lo in range(0, len(frames), 250):
        assert _assert_evaluator_matches_loops(frames[lo : lo + 250])


def test_evaluator_matches_loops_seed_42_three_state_frames():
    frames = list(sample_frames(3, 1000, seed=42))
    for lo in range(0, len(frames), 250):
        assert _assert_evaluator_matches_loops(frames[lo : lo + 250])
    for frame in frames[:100]:
        _assert_evaluator_matches_loops([frame])


def test_evaluator_matches_loops_uniform_and_ranked_four_and_five_states():
    rng = random.Random(141)
    for n in (4, 5):
        frames = [helpers.random_frame(rng, n) for _ in range(12)]
        frames += [helpers.ranked_frame(rng, n) for _ in range(12)]
        rng.shuffle(frames)
        assert _assert_evaluator_matches_loops(frames)
        for frame in frames[:6]:
            _assert_evaluator_matches_loops([frame])


def test_lane_witness_is_its_lowest_failing_states():
    # s1 believes only itself and selects nothing for {s0}: P5 fails there
    # at the first event.  s0 believes only itself and selects nothing for
    # {s0, s1}: P5 fails there at the last event.  The witness is s0's.
    frame = Frame(("s0", "s1"), (0b01, 0b10), ((0, 0b01, 0b10, 0), (0, 0, 0b10, 0b10)))
    holds = Frame(("s0", "s1"), (0b11, 0b11), ((0, 0b01, 0b10, 0b01), (0, 0b01, 0b10, 0b10)))
    witness = Witness("P5", {"s": 0}, {"E": 0b11})
    assert helpers.oracle_check_p5(frame) == witness
    evaluator = PropertyEvaluator(holds, frame, frame)
    failed, hits = evaluator.lane_hits(PropertyId.P5)
    assert failed == 0b111100  # both states of lanes 1 and 2
    assert sorted(hits) == [(2, 0b11, 0, 0), (4, 0b11, 0, 0)]  # each lane's s0
    assert evaluator.witnesses(PropertyId.P5) == [None, witness, witness]
    assert check_property(frame, PropertyId.P5) == witness
