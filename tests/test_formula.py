import copy
import pickle
import random

import pytest

from kripkelewis import (
    And,
    Atom,
    Bel,
    Box,
    Cond,
    Iff,
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


def test_nodes_have_value_semantics():
    # equal by value and type, with equal hashes
    assert And(P, Q) == And(P, Q) and hash(And(P, Q)) == hash(And(P, Q))
    assert And(P, Q) != Or(P, Q) and Bel(P) != Box(P) and P != "p"
    assert Cond(P, Not(Q)) == Cond(Atom("p"), Not(Atom("q")))
    assert len({Implies(P, Q), Implies(P, Q), Iff(P, Q)}) == 2
    # immutable
    for node, field in ((P, "name"), (Not(P), "body"), (Cond(P, Q), "antecedent")):
        with pytest.raises(AttributeError):
            setattr(node, field, Q)
        with pytest.raises(AttributeError):
            delattr(node, field)
    # positional arity
    for build in (lambda: Atom(), lambda: Not(P, Q), lambda: And(P), lambda: Cond(P, Q, R)):
        with pytest.raises(TypeError):
            build()


def test_nodes_match_by_position_and_keep_their_repr():
    match Cond(P, Not(Q)):
        case Cond(a, Not(b)):
            assert (a, b) == (P, Q)
        case _:
            raise AssertionError("Cond(a, b) did not bind")
    match Bel(Box(R)):
        case Bel(Box(Atom(name))):
            assert name == "r"
        case _:
            raise AssertionError("Bel(Box(Atom(name))) did not bind")
    assert Atom.__match_args__ == ("name",) and Cond.__match_args__ == ("antecedent", "consequent")
    assert repr(Implies(Bel(Cond(P, Q)), Box(Iff(R, Not(And(P, Or(Q, R))))))) == (
        "Implies(Bel(Cond(Atom('p'), Atom('q'))), "
        "Box(Iff(Atom('r'), Not(And(Atom('p'), Or(Atom('q'), Atom('r')))))))")


def test_nodes_pickle_and_copy_by_value():
    f = Implies(Bel(Cond(P, Q)), Box(Not(R)))
    assert pickle.loads(pickle.dumps(f)) == f
    assert copy.deepcopy(f) == f and copy.copy(f) == f
