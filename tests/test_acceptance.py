"""Acceptance suite.

Each test prints one PASS/FAIL line.  The two sweeps are shared,
module-scoped fixtures; run with ``pytest tests/test_acceptance.py -v -s``
to see the lines as they complete.
"""

import random

import pytest

from kripkelewis import (
    Atom,
    Bel,
    Cond,
    Implies,
    Not,
    PropertyId,
    StratificationError,
    SweepConfig,
    check_property,
    classify,
    expand_membership,
    format_formula,
    frame_digest,
    in_belief_set,
    parse,
    revise_membership,
    sample_frames,
    sweep,
    truth,
    truth_set,
)

import helpers

RANDOM3_COUNT = 10_000
RANDOM3_SEED = 42


def _line(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def exhaustive_report():
    return sweep(SweepConfig(size=2, mode="exhaustive"), workers=1)


@pytest.fixture(scope="module")
def random3_report():
    cfg = SweepConfig(size=3, mode="random", count=RANDOM3_COUNT, seed=RANDOM3_SEED)
    return sweep(cfg, workers=1)


def test_criterion_1_exhaustive_two_state_property_axiom_equivalence(exhaustive_report):
    report = exhaustive_report
    frames = report.totals["frames"]
    mismatches = [
        d for d in report.discrepancies if d["kind"] == "property_vs_axiom"
    ]
    off_diagonal = {
        name: cells["pf"] + cells["fp"] for name, cells in report.per_axiom.items()
    }
    ok = (
        frames == 36864 == 9 * 4096
        and not mismatches
        and all(v == 0 for v in off_diagonal.values())
        and report.duration_ms < 60_000
    )
    _line(
        1,
        "exhaustive 2-state sweep, property <-> axiom",
        ok,
        f"{frames} frames, {len(mismatches)} mismatches, "
        f"off-diagonal={sum(off_diagonal.values())}, {report.duration_ms} ms",
    )


def test_criterion_2_exhaustive_two_state_agm_columns(exhaustive_report):
    report = exhaustive_report
    strict = {"K2", "K3", "K5b", "K7", "K8"}
    bad_strict = sum(
        report.per_agm[name]["pf"] + report.per_agm[name]["fp"] for name in strict
    )
    bad_k4 = report.per_agm["K4"]["pf"]  # property holds but postulate fails somewhere
    mismatches = [
        d
        for d in report.discrepancies
        if d["kind"] in ("property_vs_agm", "p4_without_k4")
    ]
    ok = bad_strict == 0 and bad_k4 == 0 and not mismatches
    _line(
        2,
        "exhaustive 2-state sweep, property <-> postulate",
        ok,
        f"strict off-diagonal={bad_strict}, k4 violations={bad_k4}, "
        f"k4 reverse gap={report.per_agm['K4']['fp']} (observational)",
    )


def test_criterion_3_universal_validity_columns(exhaustive_report, random3_report):
    names = ("A1", "RuleK5a", "RuleK6")
    counts_2 = {name: exhaustive_report.always_valid[name] for name in names}
    counts_3 = {name: random3_report.always_valid[name] for name in names}
    ok = all(v == 36864 for v in counts_2.values()) and all(
        v == RANDOM3_COUNT for v in counts_3.values()
    )
    _line(
        3,
        "A1 and both rules valid everywhere",
        ok,
        f"2-state {counts_2}, 3-state {counts_3}",
    )


def test_criterion_4_countermodel_replay(exhaustive_report, random3_report):
    attempted = (
        exhaustive_report.replay["attempted"] + random3_report.replay["attempted"]
    )
    falsified = (
        exhaustive_report.replay["falsified"] + random3_report.replay["falsified"]
    )
    failures = [
        d
        for report in (exhaustive_report, random3_report)
        for d in report.discrepancies
        if d["kind"] == "countermodel_replay"
    ]
    ok = attempted > 0 and falsified == attempted and not failures
    _line(
        4,
        "countermodel replay rate",
        ok,
        f"{falsified}/{attempted} falsified",
    )


def test_criterion_5_random_three_state_sweep(random3_report):
    report = random3_report
    strict_agm = {"K2", "K3", "K5b", "K7", "K8"}
    off_diagonal = sum(
        cells["pf"] + cells["fp"] for cells in report.per_axiom.values()
    ) + sum(
        report.per_agm[name]["pf"] + report.per_agm[name]["fp"] for name in strict_agm
    ) + report.per_agm["K4"]["pf"]
    ok = (
        report.totals["frames"] == RANDOM3_COUNT
        and report.discrepancies == []
        and off_diagonal == 0
        and report.duration_ms < 600_000
    )
    _line(
        5,
        "random 3-state sweep",
        ok,
        f"{report.totals['frames']} frames, {len(report.discrepancies)} discrepancies, "
        f"{report.duration_ms} ms",
    )


def test_criterion_6_semantics_cross_checks():
    rng = random.Random(2026)
    pointwise = 0
    for _ in range(1000):
        model = helpers.random_model(rng)
        f = helpers.gen_wellformed(rng, depth=rng.randrange(1, 4))
        mask = truth_set(model, f)
        for s in range(model.frame.n):
            assert truth(model, s, f) == bool(mask >> s & 1)
            pointwise += 1
    revision_identity = 0
    for _ in range(1000):
        model = helpers.random_model(rng)
        s = rng.randrange(model.frame.n)
        f = helpers.gen_phi0(rng, depth=2)
        g = helpers.gen_phi0(rng, depth=2)
        assert revise_membership(model, s, f, g) == truth(model, s, Bel(Cond(f, g)))
        assert expand_membership(model, s, f, g) == in_belief_set(
            model, s, Implies(f, g)
        )
        revision_identity += 1
    vacuous = 0
    for _ in range(300):
        model = helpers.random_model(rng)
        antecedent = rng.choice([Atom("z"), Atom("p") & ~Atom("p")])
        assert truth_set(model, antecedent) == 0
        consequent = helpers.gen_phi0(rng, depth=2)
        for s in range(model.frame.n):
            assert truth(model, s, Cond(antecedent, consequent)) is True
            vacuous += 1
    _line(
        6,
        "semantics cross-checks",
        True,
        f"{pointwise} pointwise, {revision_identity} revision/expansion, "
        f"{vacuous} vacuity checks",
    )


def test_criterion_7_parser_round_trip_and_rejections():
    rng = random.Random(2027)
    for _ in range(1000):
        f = helpers.gen_wellformed(rng, depth=rng.randrange(1, 5))
        assert parse(format_formula(f)) == f
    rejected = 0
    for text in ("p > (q > r)", "B(B p -> p)", "B []p", "[](p > q)"):
        with pytest.raises(StratificationError):
            parse(text)
        rejected += 1
    _line(7, "parser round trip and rejections", True, f"1000 round trips, {rejected} rejections")


def test_criterion_8_quantifier_form_agreement():
    checked = 0
    for frame in helpers.enumerate_frames(2):
        for prop in (PropertyId.P7, PropertyId.P8):
            fast = check_property(frame, prop) is None
            literal = helpers.LITERAL_FORMS[prop](frame) is None
            assert fast == literal, (frame_digest(frame), prop)
            checked += 1
    for frame in sample_frames(3, RANDOM3_COUNT, seed=RANDOM3_SEED + 1):
        for prop in (PropertyId.P7, PropertyId.P8):
            fast = check_property(frame, prop) is None
            literal = helpers.LITERAL_FORMS[prop](frame) is None
            assert fast == literal, (frame_digest(frame), prop)
            checked += 1
    _line(8, "P7/P8 reformulations agree with literal forms", True, f"{checked} comparisons")
