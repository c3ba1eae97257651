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
from kripkelewis.correspondence import BATCH_FRAMES
from kripkelewis.model import bit_indices

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

def _lane_hits(hits, lane: int, n: int) -> list:
    """The hits of ``lane_hits`` that name a state of ``lane``, cut to
    that lane and shifted to states 0 .. n-1."""
    full = (1 << n) - 1
    return [(mask >> lane * n & full, *data) for mask, *data in hits if mask >> lane * n & full]


def _assert_evaluator_matches_loops(frames) -> int:
    """Each frame's witnesses, from its one-lane evaluator, equal the
    per-frame loops' (kind, states and events, P8's s_hat included); on
    one evaluator of the lane tables of ``frames``, lane i of the failing
    states is nonempty iff frame i fails, and lane i's hits are those its
    frame's witness is read off.  Returns the number of witnesses."""
    batched = PropertyEvaluator(tables=helpers.batch_tables(frames))
    ones = [PropertyEvaluator(frame) for frame in frames]
    n, full = frames[0].n, frames[0].full
    count = 0
    for prop in ALL_PROPS:
        expected = [helpers.ORACLE_PROPERTY_CHECKS[prop](frame) for frame in frames]
        assert [one.witness(prop) for one in ones] == expected, (frame_digest(frames[0]), prop)
        failed, hits = batched.lane_hits(prop)
        fails = [bool(failed >> lane * n & full) for lane in range(len(frames))]
        assert fails == [w is not None for w in expected], (frame_digest(frames[0]), prop)
        # each failing lane's lowest failing state, in one hit's mask
        bits = sorted(bit for mask, *_ in hits for bit in bit_indices(mask))
        assert bits == [i * n + w.states["s"] for i, w in enumerate(expected) if w]
        for lane, one in enumerate(ones):
            assert _lane_hits(hits, lane, n) == one.lane_hits(prop)[1], (
                frame_digest(frames[lane]), prop)
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
    # one batch as wide as a sweep's, the sampled frames next to ranked
    # ones, on which every property holds
    rng = random.Random(142)
    mixed = [frame for drawn in frames for frame in (drawn, helpers.ranked_frame(rng, 3))]
    mixed = mixed[:BATCH_FRAMES]
    assert len(mixed) == BATCH_FRAMES
    assert _assert_evaluator_matches_loops(mixed)


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
    lanes = (holds, frame, frame)
    evaluator = PropertyEvaluator(tables=helpers.batch_tables(lanes))
    failed, hits = evaluator.lane_hits(PropertyId.P5)
    assert failed == 0b111100  # both states of lanes 1 and 2
    assert hits == [(0b010100, 0b11, 0, 0)]  # each lane's s0, in one mask
    # each lane's hit is its frame's own, the one its witness is read off
    for lane, (one, w) in enumerate(zip(lanes, (None, witness, witness))):
        own = PropertyEvaluator(one)
        assert _lane_hits(hits, lane, 2) == own.lane_hits(PropertyId.P5)[1]
        assert own.witness(PropertyId.P5) == w
    with pytest.raises(ValueError, match="a batch's tables name no frame to witness"):
        evaluator.witness(PropertyId.P5)
    assert check_property(frame, PropertyId.P5) == witness


def _perturbed(rng: random.Random, frame: Frame) -> Frame:
    """The frame with one selection entry changed to another event."""
    selection = [list(row) for row in frame.selection]
    x, e = rng.randrange(frame.n), rng.randrange(1, frame.full + 1)
    selection[x][e] = rng.choice([u for u in range(frame.full + 1) if u != selection[x][e]])
    return Frame(frame.states, frame.belief, selection)


def test_profile_reduction_lemma_three_states():
    # each property holds at a state iff it holds on the uniform frame of
    # the state's profile (belief[s], union[s]), where every state has that
    # belief set and selection row: the lemma the exhaustive sweep folds on
    rng = random.Random(153)
    frames = list(sample_frames(3, 80, seed=153))
    frames += [helpers.ranked_frame(rng, 3) for _ in range(80)]
    frames += [_perturbed(rng, frame) for frame in frames]
    profile_fails: dict = {}  # (profile, property) -> the uniform frame fails it
    held = set()
    for frame in frames:
        for prop in ALL_PROPS:
            fails = []
            for s in range(frame.n):
                profile = frame.belief[s], tuple(frame.union[s])
                if (profile, prop) not in profile_fails:
                    uniform = Frame(frame.states, [profile[0]] * frame.n, [profile[1]] * frame.n)
                    failed = check_property(uniform, prop) is not None
                    assert failed != helpers.oracle_property_holds(uniform, prop.value), uniform
                    profile_fails[profile, prop] = failed
                fails.append(profile_fails[profile, prop])
            holds = helpers.oracle_property_holds(frame, prop.value)
            assert holds == (True not in fails), (frame_digest(frame), prop)
            witness = check_property(frame, prop)
            if holds:
                assert witness is None
                held.add(prop)
            else:
                assert witness.states["s"] == fails.index(True), (frame_digest(frame), prop)
    assert {PropertyId.P2, PropertyId.P4, PropertyId.P8} <= held
