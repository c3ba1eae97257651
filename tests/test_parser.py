import random

import pytest

from kripkelewis import (
    And,
    Atom,
    Bel,
    Box,
    Cond,
    Implies,
    Not,
    Or,
    ParseError,
    StratificationError,
    SyntacticClass,
    classify,
    format_formula,
    parse,
)

import helpers

P, Q, R = Atom("p"), Atom("q"), Atom("r")


def test_parse_goldens():
    assert parse("B(p > p)") == Bel(Cond(P, P))
    assert parse("~[]~p & B(p > q) -> B(p -> q)") == Implies(
        And(Not(Box(Not(P))), Bel(Cond(P, Q))), Bel(Implies(P, Q))
    )
    assert parse("p | ~q") == Or(P, Not(Q))
    assert parse("B p") == Bel(P)
    assert parse("[]~p") == Box(Not(P))


def test_precedence():
    assert parse("p & q -> r") == Implies(And(P, Q), R)
    assert parse("p | q & r") == Or(P, And(Q, R))
    assert parse("p -> q -> r") == Implies(P, Implies(Q, R))
    assert parse("p <-> q -> r") == parse("p <-> (q -> r)")
    assert parse("p & q > r") == Cond(And(P, Q), R)
    assert parse("p > q -> r") == Implies(Cond(P, Q), R)
    assert parse("a | b | p") == Or(Or(Atom("a"), Atom("b")), P)
    assert parse("B p & q") == And(Bel(P), Q)


def test_footnote_non_formulas_rejected():
    for text in ("p > (q > r)", "B(B p -> p)", "B []p", "[](p > q)"):
        with pytest.raises(StratificationError):
            parse(text)


def test_belief_binds_tightest():
    # B grabs only the next unit, then the conditional operand check fires
    with pytest.raises(StratificationError):
        parse("B p > q")


def test_conditional_not_associative():
    with pytest.raises(ParseError) as exc:
        parse("p > q > r")
    assert not isinstance(exc.value, StratificationError)
    # explicit parens instead reach the layering check
    with pytest.raises(StratificationError):
        parse("(p > q) > r")


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as exc:
        parse("p @ q")
    assert exc.value.offset == 2
    with pytest.raises(ParseError) as exc:
        parse("(p | q")
    assert 0 <= exc.value.offset <= len("(p | q")
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("p |")


def test_error_messages_deterministic():
    def msg(text):
        try:
            parse(text)
        except ParseError as exc:
            return str(exc)
        raise AssertionError("expected failure")

    for text in ("p @ q", "p > (q > r)", "B p > q", "p > q > r"):
        assert msg(text) == msg(text)


def test_unicode_aliases_accepted_but_not_printed():
    assert parse("¬p ∨ q") == Or(Not(P), Q)
    assert parse("p ∧ q") == And(P, Q)
    assert parse("p → q") == Implies(P, Q)
    assert parse("p ↔ q") == parse("p <-> q")
    assert parse("□p") == Box(P)
    f = parse("¬□¬p ∧ B(p > q) → B(p → q)")
    assert f == parse("~[]~p & B(p > q) -> B(p -> q)")
    assert format_formula(f).isascii()


def test_print_goldens():
    assert format_formula(Bel(Cond(P, P))) == "B(p > p)"
    assert format_formula(Implies(And(P, Q), R)) == "p & q -> r"
    assert format_formula(Cond(P, Implies(Q, R))) == "p > (q -> r)"
    assert format_formula(Not(Or(P, Q))) == "~(p | q)"
    assert format_formula(Or(P, Or(Q, R))) == "p | (q | r)"
    assert format_formula(Bel(Not(P))) == "B ~p"
    assert format_formula(Box(Not(P))) == "[]~p"


def test_round_trip_on_generated_formulas():
    rng = random.Random(105)
    for _ in range(1000):
        f = helpers.gen_wellformed(rng, depth=rng.randrange(1, 5))
        assert parse(format_formula(f)) == f


def test_accepted_strings_classify_wellformed():
    rng = random.Random(106)
    for _ in range(400):
        f = helpers.gen_wellformed(rng, depth=rng.randrange(1, 5))
        g = parse(format_formula(f))
        assert classify(g) is not SyntacticClass.ILLFORMED


B_CLAUSE = "'B' must apply to a Boolean combination of Boolean and conditional formulas"
BOX_CLAUSE = "'[]' must apply to a Boolean formula"


@pytest.mark.parametrize(
    "text, offset, clause, subterm",
    [
        ("(p > q) > r", 0, "antecedent of '>' must be a Boolean formula", "p > q"),
        ("p > B q", 4, "consequent of '>' must be a Boolean formula", "B q"),
        ("B []p", 2, B_CLAUSE, "[]p"),
        ("B(B p -> p)", 1, B_CLAUSE, "B p -> p"),
        ("[](p > q)", 2, BOX_CLAUSE, "p > q"),
        ("p & [](q > r)", 6, BOX_CLAUSE, "q > r"),
    ],
)
def test_refusal_names_offset_clause_and_subterm(text, offset, clause, subterm):
    with pytest.raises(StratificationError) as exc:
        parse(text)
    assert (exc.value.offset, exc.value.clause, exc.value.subterm) == (offset, clause, subterm)
    assert str(exc.value) == f"at offset {offset}: {clause}: {subterm}"


def test_parser_refuses_exactly_the_illformed_trees():
    # printed trees of any layering: the parser's refusals are classify's ILLFORMED
    rng = random.Random(5)
    outcomes = {True: 0, False: 0}
    for _ in range(3000):
        t = helpers.gen_any_tree(rng, depth=rng.randrange(1, 5))
        wellformed = helpers.oracle_classify(t) is not SyntacticClass.ILLFORMED
        if wellformed:
            assert parse(format_formula(t)) == t
        else:
            with pytest.raises(StratificationError):
                parse(format_formula(t))
        outcomes[wellformed] += 1
    assert outcomes == {True: 2225, False: 775}
