import random

from kripkelewis import (
    And,
    Atom,
    Bel,
    Box,
    Cond,
    Implies,
    Not,
    Or,
    SyntacticClass,
    atoms,
    classify,
)

import helpers

P, Q, R = Atom("p"), Atom("q"), Atom("r")


def test_classify_goldens():
    assert classify(Or(P, Not(Q))) is SyntacticClass.PHI0
    assert classify(Cond(P, Cond(Q, R))) is SyntacticClass.ILLFORMED
    assert classify(Bel(And(Cond(P, Q), R))) is SyntacticClass.PHI_B
    assert classify(Cond(P, Q)) is SyntacticClass.PHI_COND
    assert classify(Not(Cond(P, Q))) is SyntacticClass.PHI1
    assert classify(Box(P)) is SyntacticClass.PHI_BOX
    assert classify(Or(Bel(P), Q)) is SyntacticClass.PHI
    assert classify(Bel(Bel(P))) is SyntacticClass.ILLFORMED
    assert classify(Bel(Box(P))) is SyntacticClass.ILLFORMED
    assert classify(Box(Cond(P, Q))) is SyntacticClass.ILLFORMED
    # mixed operand under the conditional is outside every clause
    assert classify(Cond(Box(P), Q)) is SyntacticClass.ILLFORMED


def test_classify_matches_membership_oracle():
    rng = random.Random(101)
    for _ in range(2500):
        f = helpers.gen_any_tree(rng, depth=rng.randrange(1, 5))
        assert classify(f) is helpers.oracle_classify(f), f


def test_classify_nesting_invariant():
    rng = random.Random(102)
    for _ in range(300):
        f = helpers.gen_phi0(rng)
        assert classify(f) is SyntacticClass.PHI0
        assert classify(Bel(f)) is SyntacticClass.PHI_B
        assert classify(Box(f)) is SyntacticClass.PHI_BOX


def test_atoms_goldens():
    assert atoms(Or(P, Not(Q))) == {"p", "q"}
    assert atoms(Bel(Cond(P, P))) == {"p"}
    assert atoms(Implies(Box(Not(And(P, Q))), Bel(Cond(P, R)))) == {"p", "q", "r"}


def test_operator_sugar_builds_nodes():
    assert ~P == Not(P)
    assert (P & Q) == And(P, Q)
    assert (P | Q) == Or(P, Q)
