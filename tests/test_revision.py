import random

import pytest

from kripkelewis import (
    AgmPostulateId,
    Atom,
    Bel,
    Cond,
    Implies,
    Model,
    Not,
    Or,
    PostulateEvaluator,
    PropertyId,
    agm_event_check,
    check_property,
    expand_membership,
    frame_digest,
    in_belief_set,
    revise_membership,
    sample_frames,
    truth,
)
import helpers

P, Q = Atom("p"), Atom("q")

PAIRS = {
    2: (PropertyId.P2, AgmPostulateId.K2),
    3: (PropertyId.P3, AgmPostulateId.K3),
    5: (PropertyId.P5, AgmPostulateId.K5B),
    7: (PropertyId.P7, AgmPostulateId.K7),
    8: (PropertyId.P8, AgmPostulateId.K8),
}


def test_in_belief_set_goldens(m0, fx2):
    assert in_belief_set(Model(m0, {"p": 0b1}), 0, P) is True
    assert in_belief_set(Model(fx2, {"p": 0b01}), 0, P) is False


def test_tautologies_always_believed():
    rng = random.Random(130)
    for _ in range(100):
        model = helpers.random_model(rng)
        for s in range(model.frame.n):
            assert in_belief_set(model, s, Or(P, Not(P)))


def test_revise_membership_goldens(m0, fx2):
    assert revise_membership(Model(m0, {"p": 0b1, "q": 0b1}), 0, P, Q) is True
    assert revise_membership(Model(fx2, {"p": 0b01}), 0, P, P) is False


def test_revise_membership_empty_input_admits_everything():
    rng = random.Random(131)
    for _ in range(100):
        model = helpers.random_model(rng)
        query = helpers.gen_phi0(rng, depth=2)
        s = rng.randrange(model.frame.n)
        assert revise_membership(model, s, Atom("z"), query) is True
        assert revise_membership(model, s, P & ~P, query) is True


def test_expand_membership_goldens(m0):
    rng = random.Random(132)
    for _ in range(60):
        model = helpers.random_model(rng)
        s = rng.randrange(model.frame.n)
        f = helpers.gen_phi0(rng, depth=2)
        assert expand_membership(model, s, f, f) is True  # the input itself is kept
        g = helpers.gen_phi0(rng, depth=2)
        if in_belief_set(model, s, g):
            assert expand_membership(model, s, f, g) is True  # beliefs survive
    empty = Model(m0, {})
    assert expand_membership(empty, 0, P, Q) is True


def test_phi0_inputs_required(m0):
    model = Model(m0, {})
    with pytest.raises(ValueError):
        in_belief_set(model, 0, Bel(P))
    with pytest.raises(ValueError):
        revise_membership(model, 0, Cond(P, Q), P)
    with pytest.raises(ValueError):
        expand_membership(model, 0, P, Bel(P))


def test_revision_equals_believed_conditional():
    rng = random.Random(133)
    for _ in range(1000):
        model = helpers.random_model(rng)
        s = rng.randrange(model.frame.n)
        f = helpers.gen_phi0(rng, depth=2)
        g = helpers.gen_phi0(rng, depth=2)
        assert revise_membership(model, s, f, g) == truth(model, s, Bel(Cond(f, g)))


def test_expansion_equals_believed_implication():
    rng = random.Random(134)
    for _ in range(1000):
        model = helpers.random_model(rng)
        s = rng.randrange(model.frame.n)
        f = helpers.gen_phi0(rng, depth=2)
        g = helpers.gen_phi0(rng, depth=2)
        assert expand_membership(model, s, f, g) == in_belief_set(model, s, Implies(f, g))


def test_revised_sets_are_closed_under_detachment():
    rng = random.Random(135)
    for _ in range(500):
        model = helpers.random_model(rng)
        s = rng.randrange(model.frame.n)
        f = helpers.gen_phi0(rng, depth=2)
        g = helpers.gen_phi0(rng, depth=2)
        h = helpers.gen_phi0(rng, depth=2)
        if revise_membership(model, s, f, g) and revise_membership(
            model, s, f, Implies(g, h)
        ):
            assert revise_membership(model, s, f, h)


def test_agm_event_check_m0_all_hold(m0):
    for postulate in AgmPostulateId:
        assert agm_event_check(m0, 0, postulate) is None


def test_agm_event_check_fx2_k2_witness(fx2):
    w = agm_event_check(fx2, 0, AgmPostulateId.K2)
    assert w is not None
    assert w.states == {"s": 0}
    assert w.events == {"E": 0b01}


def test_agm_event_check_k5b_witness_on_empty_selections():
    frame = helpers.empty_selection_frame()
    w = agm_event_check(frame, 0, AgmPostulateId.K5B)
    assert w is not None
    assert w.events == {"E": 0b01}


def test_unconditional_postulates_always_hold():
    rng = random.Random(136)
    for _ in range(200):
        frame = helpers.random_frame(rng)
        for s in range(frame.n):
            for postulate in (AgmPostulateId.K1, AgmPostulateId.K5A, AgmPostulateId.K6):
                assert agm_event_check(frame, s, postulate) is None


def test_event_postulates_match_frame_properties():
    rng = random.Random(137)
    for _ in range(800):
        frame = helpers.random_frame(rng)
        for k, (prop, postulate) in PAIRS.items():
            prop_holds = check_property(frame, prop) is None
            agm_holds = all(
                agm_event_check(frame, s, postulate) is None
                for s in range(frame.n)
            )
            assert prop_holds == agm_holds, (frame_digest(frame), k)


def test_p4_implies_k4_everywhere():
    rng = random.Random(138)
    implications = 0
    reverse_gap_seen = False
    for _ in range(2000):
        frame = helpers.random_frame(rng)
        p4 = check_property(frame, PropertyId.P4) is None
        k4 = all(
            agm_event_check(frame, s, AgmPostulateId.K4) is None
            for s in range(frame.n)
        )
        if p4:
            implications += 1
            assert k4, frame_digest(frame)
        elif k4:
            # the reverse direction genuinely fails on some frames
            reverse_gap_seen = True
    assert implications > 20
    assert reverse_gap_seen


# --- the lane-packed postulate evaluator against the per-state oracle -----

def _assert_postulates_match_oracle(frames, batch: int = 250) -> None:
    """Per-state verdicts of every postulate, read off ``lane_failures`` on
    evaluators holding ``batch`` frames, and each frame's witnesses from a
    one-frame evaluator, against ``helpers.oracle_agm_event_check``."""
    for lo in range(0, len(frames), batch):
        part = frames[lo : lo + batch]
        evaluator = PostulateEvaluator(*part)
        expected = [
            {k: [helpers.oracle_agm_event_check(frame, s, k) for s in range(frame.n)]
             for k in AgmPostulateId}
            for frame in part
        ]
        for k in AgmPostulateId:
            failures = evaluator.lane_failures(k)
            n = part[0].n
            for lane, frame in enumerate(part):
                failed = [bool(failures >> (lane * n + s) & 1) for s in range(n)]
                assert failed == [w is not None for w in expected[lane][k]], (
                    frame_digest(frame), k, lo)
        for frame, per_k in zip(part, expected):
            one = PostulateEvaluator(frame)
            for k, witnesses in per_k.items():
                assert one.witnesses(k) == witnesses, (frame_digest(frame), k)


def test_postulate_evaluator_equals_oracle_all_two_state_frames():
    _assert_postulates_match_oracle(helpers.enumerate_frames(2))


def test_postulate_evaluator_equals_oracle_sampled_three_state_frames():
    frames = list(sample_frames(3, 1000, seed=42))
    _assert_postulates_match_oracle(frames)
    for frame in frames[:200]:
        for k in AgmPostulateId:
            for s in range(frame.n):
                assert agm_event_check(frame, s, k) == helpers.oracle_agm_event_check(
                    frame, s, k), (frame_digest(frame), s, k)


def test_postulate_evaluator_on_ranked_frames_one_to_five_states():
    # every postulate holds on a ranked frame, so every scan runs to its end
    rng = random.Random(139)
    for n in (1, 2, 3, 4, 5):
        frames = [helpers.ranked_frame(rng, n) for _ in range(4)]
        for frame in frames:
            for k in AgmPostulateId:
                for s in range(n):
                    assert helpers.oracle_agm_event_check(frame, s, k) is None
        _assert_postulates_match_oracle(frames, batch=len(frames))
        _assert_postulates_match_oracle(frames, batch=1)


def test_postulate_lanes_valid_next_to_failing():
    # 250-lane evaluators: ranked frames (every postulate holds) alternating
    # with sampled frames, most of which fail some postulate
    rng = random.Random(140)
    for n, count in ((1, 125), (2, 125), (3, 125), (4, 20)):
        frames = []
        for frame in sample_frames(n, count, seed=141 + n):
            frames += [helpers.ranked_frame(rng, n), frame]
        assert any(
            helpers.oracle_agm_event_check(frame, s, k)
            for frame in frames[1::2] for k in AgmPostulateId for s in range(n)
        ) or n == 1
        _assert_postulates_match_oracle(frames)
        _assert_postulates_match_oracle(frames, batch=3)
        evaluator = PostulateEvaluator(*frames)
        for k in AgmPostulateId:
            # witnesses come from the first frame's lane
            shifted = PostulateEvaluator(*frames[1:])
            assert shifted.witnesses(k) == PostulateEvaluator(frames[1]).witnesses(k), (n, k)
            assert evaluator.witnesses(k) == [None] * n, (n, k)


def test_postulate_evaluator_beyond_eight_states():
    # events on more than eight states are read eight states at a time
    frame = next(sample_frames(9, 1, seed=142))
    _assert_postulates_match_oracle([frame, frame])


def test_witnesses_restricted_to_live_states():
    for frame in sample_frames(3, 50, seed=143):
        evaluator = PostulateEvaluator(frame)
        for k in AgmPostulateId:
            every = evaluator.witnesses(k)
            for live in range(8):
                assert evaluator.witnesses(k, live) == [
                    w if live >> s & 1 else None for s, w in enumerate(every)
                ], (frame_digest(frame), k, live)


def test_postulate_evaluator_refuses_no_frames_and_mixed_state_counts():
    with pytest.raises(ValueError):
        PostulateEvaluator()
    frames = [next(sample_frames(n, 1, seed=144)) for n in (2, 3)]
    with pytest.raises(ValueError, match="same number of states"):
        PostulateEvaluator(*frames)

