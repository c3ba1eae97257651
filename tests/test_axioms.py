import random
from itertools import product

import pytest

from kripkelewis import (
    And,
    Atom,
    AxiomId,
    Bel,
    Box,
    Cond,
    Iff,
    Implies,
    MismatchedWitnessError,
    Model,
    Not,
    Or,
    PAIRED_PROPERTY,
    PropertyId,
    SchemaEvaluator,
    Witness,
    atoms,
    axiom_instance,
    check_property,
    countermodel_from_witness,
    frame_digest,
    parse,
    rule_valid_on_frame,
    sample_frames,
    schema_valid_on_frame,
    truth,
    truth_set,
)
from kripkelewis.axioms import _SCAN_IDS, _compile_scan, _scan, countermodel_assignment

import helpers

SCHEMAS = [AxiomId.A1, AxiomId.A2, AxiomId.A3, AxiomId.A4, AxiomId.A5, AxiomId.A7, AxiomId.A8]
RULES = [AxiomId.RULE_K5A, AxiomId.RULE_K6]
LETTER_COUNT = {
    AxiomId.A1: 3, AxiomId.A2: 1, AxiomId.A3: 2, AxiomId.A4: 2,
    AxiomId.A5: 2, AxiomId.A7: 3, AxiomId.A8: 3,
}
# Each instance checked well-formed once, then evaluated unchecked.
INSTANCES = {axiom: helpers.wellformed(axiom_instance(axiom)) for axiom in SCHEMAS}
BEL_P_R = helpers.wellformed(Bel(Cond(Atom("p"), Atom("r"))))


def test_every_axiom_valid_on_m0(m0):
    for axiom in SCHEMAS:
        assert schema_valid_on_frame(m0, axiom) is None
    for rule in RULES:
        assert rule_valid_on_frame(m0, rule) is None


def test_fx2_a2_witness_golden(fx2):
    w = schema_valid_on_frame(fx2, AxiomId.A2)
    assert w is not None
    assert w.states == {"s": 0}
    assert w.events == {"p": 0b01}
    # the witness assignment really falsifies the instance on the induced model
    model = Model(fx2, dict(w.events))
    assert truth(model, 0, axiom_instance(AxiomId.A2)) is False


def test_rules_valid_on_fx2(fx2):
    assert rule_valid_on_frame(fx2, AxiomId.RULE_K5A) is None
    assert rule_valid_on_frame(fx2, AxiomId.RULE_K6) is None


def test_a1_and_rules_valid_on_random_frames():
    rng = random.Random(120)
    for _ in range(300):
        frame = helpers.random_frame(rng)
        assert schema_valid_on_frame(frame, AxiomId.A1) is None, frame_digest(frame)
        assert rule_valid_on_frame(frame, AxiomId.RULE_K5A) is None
        assert rule_valid_on_frame(frame, AxiomId.RULE_K6) is None


def test_rules_hold_for_syntactic_tautology_pairs():
    # inputs that are logically equivalent but syntactically different
    # produce identical believed conditionals on concrete models
    rng = random.Random(121)
    p = Atom("p")
    pairs = [(p, Not(Not(p))), (p, p | p), (p & ~p, Atom("q") & ~Atom("q"))]
    for _ in range(60):
        model = helpers.random_model(rng)
        chi = helpers.gen_phi0(rng, depth=2, names=("p", "q"))
        for left, right in pairs:
            lhs = truth_set(model, Bel(Cond(left, chi)))
            rhs = truth_set(model, Bel(Cond(right, chi)))
            assert lhs == rhs


def test_id_kind_separation(m0):
    with pytest.raises(ValueError):
        schema_valid_on_frame(m0, AxiomId.RULE_K6)
    with pytest.raises(ValueError):
        rule_valid_on_frame(m0, AxiomId.A2)
    with pytest.raises(ValueError):
        axiom_instance(AxiomId.RULE_K5A)


def _assert_schema_matches_models(frame, axiom, assignments):
    evaluator = SchemaEvaluator(frame)
    instance = INSTANCES[axiom]
    letters = ("p", "q", "r")[: LETTER_COUNT[axiom]]
    for assignment in assignments:
        event_mask = evaluator.holds_mask(axiom, assignment)
        model = Model(frame, dict(zip(letters, assignment)))
        assert event_mask == helpers.truth_set_unchecked(model, instance), (
            frame_digest(frame),
            axiom,
            assignment,
        )


def test_schema_evaluation_equals_model_semantics_exhaustive_small():
    # all letter assignments on fixture frames, sampled 1- to 3-state frames and
    # a ranked three-state frame (every schema valid)
    rng = random.Random(122)
    frames = [
        helpers.m0_frame(),
        helpers.fx2_frame(),
        helpers.empty_selection_frame(),
        helpers.p8_violation_frame(),
    ]
    frames += list(sample_frames(1, 10, seed=123))
    frames += list(sample_frames(2, 60, seed=124))
    frames += list(sample_frames(3, 4, seed=125))
    frames += [helpers.ranked_frame(rng, 3)]
    for frame in frames:
        full = frame.full
        for axiom in SCHEMAS:
            assignments = list(product(range(full + 1), repeat=LETTER_COUNT[axiom]))
            _assert_schema_matches_models(frame, axiom, assignments)


def test_schema_evaluation_equals_model_semantics_all_two_state_frames():
    # one deterministic assignment per axiom on every 2-state frame
    for i, frame in enumerate(helpers.enumerate_frames(2)):
        full = frame.full
        for j, axiom in enumerate(SCHEMAS):
            seedling = (i * 7 + j) % (full + 1) ** LETTER_COUNT[axiom]
            assignment = []
            value = seedling
            for _ in range(LETTER_COUNT[axiom]):
                value, digit = divmod(value, full + 1)
                assignment.append(digit)
            _assert_schema_matches_models(frame, axiom, [tuple(assignment)])


def test_schema_evaluation_equals_model_semantics_sampled_three_state():
    rng = random.Random(125)
    for frame in sample_frames(3, 40, seed=126):
        full = frame.full
        for axiom in SCHEMAS:
            assignments = [
                tuple(rng.randrange(full + 1) for _ in range(LETTER_COUNT[axiom]))
                for _ in range(12)
            ]
            _assert_schema_matches_models(frame, axiom, assignments)


def test_schema_validity_agrees_with_property_on_random_frames():
    rng = random.Random(127)
    for _ in range(400):
        frame = helpers.random_frame(rng)
        for axiom, prop in PAIRED_PROPERTY.items():
            assert (schema_valid_on_frame(frame, axiom) is None) == (
                check_property(frame, prop) is None
            ), (frame_digest(frame), axiom)


def test_countermodel_construction_fx2_golden(fx2):
    w = check_property(fx2, PropertyId.P2)
    model, s, instance = countermodel_from_witness(fx2, AxiomId.A2, w)
    assert s == 0
    assert model.valuation == {"p": 0b01}
    assert instance == parse("B(p > p)")
    assert truth(model, s, instance) is False


def test_countermodel_construction_a5_golden():
    frame = helpers.empty_selection_frame()
    w = check_property(frame, PropertyId.P5)
    model, s, instance = countermodel_from_witness(frame, AxiomId.A5, w)
    assert model.valuation == {"p": 0b01, "q": 0}
    # with no selected states, both conditionals are believed vacuously
    assert truth(model, s, parse("B(p > q)")) is True
    assert truth(model, s, parse("B(p > ~q)")) is True
    assert truth(model, s, instance) is False


def test_countermodel_construction_a8_golden():
    frame = helpers.p8_violation_frame()
    w = check_property(frame, PropertyId.P8)
    model, s, instance = countermodel_from_witness(frame, AxiomId.A8, w)
    assert model.valuation == {"p": 0b11, "q": 0b01, "r": 0b01}
    assert truth(model, s, parse("B(p > (q -> r))")) is True
    assert truth(model, s, parse("~B(p > ~q)")) is True
    assert truth(model, s, parse("B(p & q > (q & r))")) is False
    assert truth(model, s, instance) is False


def test_countermodels_always_falsify_on_random_frames():
    rng = random.Random(128)
    falsified = 0
    for _ in range(400):
        frame = helpers.random_frame(rng)
        for axiom, prop in PAIRED_PROPERTY.items():
            w = check_property(frame, prop)
            if w is None:
                continue
            model, s, instance = countermodel_from_witness(frame, axiom, w)
            assert truth(model, s, instance) is False, (frame_digest(frame), axiom)
            falsified += 1
    assert falsified > 400


def test_mismatched_witness_rejected(fx2):
    w = check_property(fx2, PropertyId.P2)
    with pytest.raises(MismatchedWitnessError):
        countermodel_from_witness(fx2, AxiomId.A3, w)
    with pytest.raises(MismatchedWitnessError):
        countermodel_from_witness(fx2, AxiomId.A1, w)


def test_countermodel_assignment_rejects_every_wrong_witness_kind(fx2):
    def witness(prop):
        return Witness(prop.value, {"s": 0}, {"E": 1, "F": 1, "G": 1})

    for axiom, paired in PAIRED_PROPERTY.items():
        countermodel_assignment(fx2, axiom, witness(paired))  # its own kind is accepted
        for prop in PropertyId:
            if prop is not paired:
                with pytest.raises(MismatchedWitnessError):
                    countermodel_assignment(fx2, axiom, witness(prop))
    for axiom in (AxiomId.A1, AxiomId.RULE_K5A, AxiomId.RULE_K6, "A2", None):
        for prop in PropertyId:
            with pytest.raises(MismatchedWitnessError):
                countermodel_assignment(fx2, axiom, witness(prop))


def test_compiled_scans_of_other_fragment_formulas_equal_truth_set():
    # forms the instances do not use: <-> over events, [] inside <->, a
    # positive [] literal, a [] literal bound by the innermost letter, a
    # negated <-> consequent, an implication as a conjunct of ``bad``
    p, q, r = Atom("p"), Atom("q"), Atom("r")
    formulas = [
        Iff(Bel(Cond(p, q)), Box(Iff(p, q))),
        Implies(Box(p), Not(Bel(Not(q)))),
        Not(And(Bel(p), Implies(Bel(Cond(q, r)), Box(Not(r))))),
        Bel(Cond(And(p, Not(q)), Implies(q, r))),
        Implies(And(Bel(Cond(p, q)), Not(Box(Not(r)))), Iff(Bel(q), Bel(Cond(p, r)))),
    ]
    frames = [helpers.fx2_frame(), helpers.p8_violation_frame()]
    frames += list(sample_frames(2, 12, seed=138))
    batches = [frames[i : i + 7] for i in range(0, len(frames), 7)]
    batches += [list(sample_frames(3, 3, seed=139))]
    for formula in formulas:
        scan, letters = _compile_scan(formula)
        assert letters == len(atoms(formula))
        for batch in batches:
            evaluator = SchemaEvaluator(*batch)
            n, full = evaluator.n, evaluator.full
            expected = []
            for assignment in product(range(full + 1), repeat=letters):
                bad = 0
                for lane, frame in enumerate(batch):
                    model = Model(frame, dict(zip(("p", "q", "r"), assignment)))
                    bad |= (full ^ truth_set(model, formula)) << lane * n
                if bad:
                    expected.append((bad, assignment))
            hits = list(scan(evaluator, *[range(full + 1)] * letters))
            assert hits == expected, (formula, frame_digest(batch[0]))


def test_scan_compiler_refuses_formulas_outside_its_fragment():
    p, q = Atom("p"), Atom("q")
    outside = r"not a B\(a > b\), B a or \[\] a over Boolean events"
    for formula, match in (
        (Or(Bel(Cond(p, q)), Bel(p)), outside),  # Or at the modal level
        (Bel(Bel(p)), outside),
        (Bel(Cond(p, Bel(q))), outside),
        (Box(Bel(p)), outside),
        (Implies(Bel(p), p), outside),  # an atom at the modal level
        (Bel(Cond(Or(p, q), q)), outside),  # Or in an event
        (Bel(Cond(p, Atom("s"))), "atoms outside p, q, r"),
    ):
        with pytest.raises(ValueError, match=match):
            _compile_scan(formula)


def test_witness_prefers_lexicographically_least_assignment():
    rng = random.Random(129)
    seen = 0
    for _ in range(200):
        frame = helpers.random_frame(rng, n=2)
        for axiom in SCHEMAS:
            w = schema_valid_on_frame(frame, axiom)
            if w is None:
                continue
            seen += 1
            evaluator = SchemaEvaluator(frame)
            letters = ("p", "q", "r")[: LETTER_COUNT[axiom]]
            found = tuple(w.events[letter] for letter in letters)
            for assignment in product(range(frame.full + 1), repeat=len(letters)):
                mask = evaluator.holds_mask(axiom, assignment)
                if assignment == found:
                    assert mask != frame.full
                    break
                assert mask == frame.full, (axiom, assignment, found)
    assert seen > 100


def _assert_rules_hold_and_bel_cond_matches_model_route(frame) -> None:
    """Both rules hold on ``frame`` through the model semantics (their
    lemma), and the table A1-A8 read agrees with it: ``bel_cond[a][c]`` is
    the truth set of B(p > r) under p = a, r = c."""
    for rule in RULES:
        assert helpers.oracle_rule_valid(frame, rule) is None, (frame_digest(frame), rule)
    evaluator = SchemaEvaluator(frame)
    for a, c in product(range(frame.full + 1), repeat=2):
        expected = helpers.truth_set_unchecked(Model(frame, {"p": a, "r": c}), BEL_P_R)
        assert evaluator.bel_cond[a][c] == expected, (frame_digest(frame), a, c)


def _lane_valid(evaluator, k, count: int) -> list[bool]:
    """Validity of ``k`` on each of the evaluator's ``count`` frames, read
    off its lane of ``lane_failures``."""
    failures = evaluator.lane_failures(k)
    return [not failures >> (i * evaluator.n) & evaluator.full for i in range(count)]


def _assert_lanes_match(frames, batch: int, one_frame_check, ids) -> None:
    """Runs ``one_frame_check`` (which returns the oracle's verdict per id)
    on each frame, then checks every id's per-lane validity on evaluators
    holding ``batch`` frames at a time against those verdicts."""
    for lo in range(0, len(frames), batch):
        part = frames[lo : lo + batch]
        expected = [one_frame_check(frame) for frame in part]
        evaluator = SchemaEvaluator(*part)
        for k in ids:
            assert _lane_valid(evaluator, k, len(part)) == [e[k] for e in expected], (
                frame_digest(part[0]), len(part), k)


def _rule_lemma_frames() -> list:
    frames = [helpers.m0_frame(), helpers.fx2_frame(), helpers.empty_selection_frame()]
    return frames + list(sample_frames(1, 10, seed=130)) + list(sample_frames(3, 300, seed=131))


def test_rules_hold_and_bel_cond_equals_model_route_all_two_state_frames():
    for frame in helpers.enumerate_frames(2):
        _assert_rules_hold_and_bel_cond_matches_model_route(frame)


def test_rules_hold_and_bel_cond_equals_model_route_sampled_frames():
    for frame in _rule_lemma_frames():
        _assert_rules_hold_and_bel_cond_matches_model_route(frame)


def test_rule_valid_on_frame_is_none_for_both_rules():
    # the lemma as the library states it: no scan, no witness, on any frame
    for frame in [*_rule_lemma_frames(), *helpers.enumerate_frames(1)]:
        for rule in RULES:
            assert rule_valid_on_frame(frame, rule) is None
        for axiom in SCHEMAS:
            with pytest.raises(ValueError, match=f"{axiom.value} is a schema"):
                rule_valid_on_frame(frame, axiom)


def test_replay_through_evaluator_equals_pointwise_truth_all_two_state_frames():
    replays = 0
    for frame in helpers.enumerate_frames(2):
        evaluator = SchemaEvaluator(frame)
        for axiom, prop in PAIRED_PROPERTY.items():
            w = check_property(frame, prop)
            if w is None:
                continue
            assignment, s = countermodel_assignment(frame, axiom, w)
            model, model_state, instance = countermodel_from_witness(frame, axiom, w)
            assert model_state == s
            assert model.valuation == dict(zip(("p", "q", "r"), assignment))
            assert instance is INSTANCES[axiom]
            falsified = not evaluator.holds_mask(axiom, assignment) >> s & 1
            holds = helpers.truth_unchecked(model, s, instance)
            assert falsified == (not holds), (frame_digest(frame), axiom)
            replays += 1
    assert replays > 36864


def _assert_scans_match_oracle(frame) -> dict:
    """Checks the one-frame tables and witnesses; returns the oracle's
    verdict per schema."""
    evaluator = SchemaEvaluator(frame)
    tables = helpers.oracle_tables(frame)
    assert (evaluator.bel, evaluator.bel_cond) == tables, frame_digest(frame)
    valid = {}
    for axiom in SCHEMAS:
        expected = helpers.oracle_check_axiom(frame, axiom, tables)
        assert evaluator.check_axiom(axiom) == expected, (frame_digest(frame), axiom)
        valid[axiom] = expected is None
    return valid


def test_scans_and_tables_equal_oracle_all_two_state_frames():
    # per-lane schema validity on 250-frame batches against the same oracle
    _assert_lanes_match(helpers.enumerate_frames(2), 250, _assert_scans_match_oracle, SCHEMAS)


def test_scans_and_tables_equal_oracle_sampled_three_state_frames():
    frames = list(sample_frames(3, 1000, seed=42))
    _assert_lanes_match(frames, 250, _assert_scans_match_oracle, SCHEMAS)


def test_scans_and_tables_equal_oracle_on_frames_where_every_schema_is_valid():
    # every scan runs to its end, so every skipped block is exercised
    rng = random.Random(132)
    frames = [helpers.ranked_frame(rng, n) for n in (1, 2, 3, 3, 4, 4, 4)]
    for frame in frames:
        for axiom in SCHEMAS:
            assert helpers.oracle_check_axiom(frame, axiom) is None, (frame_digest(frame), axiom)
        _assert_scans_match_oracle(frame)


def _ranked_among_failing(n: int, count: int, seed: int) -> list:
    """Ranked frames (every schema valid) alternating with sampled
    frames, most of which fail some schema at an early assignment."""
    rng = random.Random(seed)
    sampled = list(sample_frames(n, count, seed=seed))
    frames = []
    for frame in sampled:
        frames += [helpers.ranked_frame(rng, n), frame]
    return frames


def test_lane_verdicts_equal_oracle_valid_lanes_next_to_failing_lanes():
    for n, count in ((1, 6), (2, 12), (3, 12), (4, 3)):
        frames = _ranked_among_failing(n, count, seed=135 + n)
        assert not all(_assert_scans_match_oracle(frames[1]).values()) or n == 1
        for batch in (1, 3, len(frames)):
            _assert_lanes_match(frames, batch, _assert_scans_match_oracle, SCHEMAS)
        evaluator = SchemaEvaluator(*frames)
        for k in SCHEMAS:
            assert _lane_valid(evaluator, k, len(frames))[::2] == [True] * count, (n, k)
        # one-frame witnesses come from the first frame's lane
        for k in SCHEMAS:
            assert evaluator.check_axiom(k) == SchemaEvaluator(frames[0]).check_axiom(k)
        shifted = SchemaEvaluator(*frames[1:])
        for k in SCHEMAS:
            assert shifted.check_axiom(k) == SchemaEvaluator(frames[1]).check_axiom(k)


def test_evaluator_refuses_no_frames_and_mixed_state_counts():
    with pytest.raises(ValueError):
        SchemaEvaluator()
    for sizes in ((2, 3), (3, 2), (1, 2, 1)):
        frames = [next(iter(sample_frames(n, 1, seed=136))) for n in sizes]
        with pytest.raises(ValueError, match="same number of states"):
            SchemaEvaluator(*frames)


def test_holds_mask_equals_oracle_every_assignment_sampled_three_state():
    # on one evaluator per frame, and read per lane off one evaluator
    # holding every frame
    frames = list(sample_frames(3, 20, seed=133))
    frames += [helpers.ranked_frame(random.Random(134), 3)]
    batched = SchemaEvaluator(*frames)
    for lane, frame in enumerate(frames):
        evaluator = SchemaEvaluator(frame)
        tables = helpers.oracle_tables(frame)
        for axiom in SCHEMAS:
            for assignment in product(range(frame.full + 1), repeat=LETTER_COUNT[axiom]):
                expected = helpers.oracle_holds_mask(frame, tables, axiom, assignment)
                assert evaluator.holds_mask(axiom, assignment) == expected, (
                    frame_digest(frame), axiom, assignment)
                lane_mask = batched.holds_mask(axiom, assignment) >> (3 * lane) & frame.full
                assert lane_mask == expected, (frame_digest(frame), axiom, assignment, lane)


def test_holds_mask_refuses_rules_and_wrong_letter_counts():
    evaluator = SchemaEvaluator(helpers.fx2_frame())
    for rule in RULES:
        with pytest.raises(ValueError, match="rule of inference"):
            evaluator.holds_mask(rule, (0, 1))
    with pytest.raises(ValueError, match="A3 takes one event for each of p, q; got 1"):
        evaluator.holds_mask(AxiomId.A3, (1,))
    with pytest.raises(ValueError, match="A2 takes one event for each of p; got 3"):
        evaluator.holds_mask(AxiomId.A2, (1, 2, 3))
    with pytest.raises(ValueError, match="A8 takes one event for each of p, q, r; got 0"):
        evaluator.holds_mask(AxiomId.A8, ())


def _assert_scans_yield_oracle_hits(frames) -> int:
    """Every scan over full letter ranges, on one evaluator holding
    ``frames``, yields exactly the oracle's hits in ``product`` order, and
    lane i of ``lane_failures`` is the states where frame i's first hit
    fails.  Returns the number of hits."""
    evaluator = SchemaEvaluator(*frames)
    n, full = evaluator.n, evaluator.full
    tables = [helpers.oracle_tables(frame) for frame in frames]
    count = 0
    for k, (scan, letters) in zip(_SCAN_IDS, map(_scan, range(len(_SCAN_IDS)))):
        expected = helpers.oracle_scan_hits(frames, tables, k)
        hits = list(scan(evaluator, *[range(full + 1)] * letters))
        assert hits == expected, (frame_digest(frames[0]), len(frames), k)
        first = 0
        for shift in range(0, n * len(frames), n):
            lane = (bad >> shift & full for bad, _ in expected)
            first |= next((bad for bad in lane if bad), 0) << shift
        assert evaluator.lane_failures(k) == first, (frame_digest(frames[0]), len(frames), k)
        count += len(hits)
    return count


def test_scans_yield_oracle_hits_all_two_state_frames():
    frames = helpers.enumerate_frames(2)
    for lo in range(0, len(frames), 250):
        assert _assert_scans_yield_oracle_hits(frames[lo : lo + 250])


def test_scans_yield_oracle_hits_sampled_three_state_frames():
    assert sum(_assert_scans_yield_oracle_hits([frame])
               for frame in sample_frames(3, 1000, seed=42))


def test_scans_yield_oracle_hits_valid_lanes_next_to_failing_lanes():
    frames = _ranked_among_failing(3, 12, seed=137)
    assert _assert_scans_yield_oracle_hits(frames)
    assert _assert_scans_yield_oracle_hits(frames[1:6])
