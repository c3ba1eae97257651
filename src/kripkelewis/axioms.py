"""Schema validity of the modal axioms on a frame, and countermodel builders.

An axiom schema is valid on a frame when its instance holds at every state
of every model based on the frame.  Schema letters stand for Boolean
formulas, and every event is the truth set of a fresh atom under some
valuation, so quantifying letters over all events (empty and full
included) is exactly validity over all models.  The evaluator works
directly on events; the tests cross it against the generic model
semantics on instances built from fresh atoms p, q, r.
"""

from __future__ import annotations

from enum import Enum
from itertools import product

from .formula import And, Atom, Bel, Box, Cond, Formula, Implies, Not
from .model import Frame, Model, Witness
from .model import truth_set  # noqa: F401  unused; perfbench's tracer patches it by name
from .properties import PropertyId


class AxiomId(Enum):
    A1 = "A1"
    A2 = "A2"
    A3 = "A3"
    A4 = "A4"
    A5 = "A5"
    A7 = "A7"
    A8 = "A8"
    RULE_K5A = "RuleK5a"
    RULE_K6 = "RuleK6"


RULE_IDS = frozenset({AxiomId.RULE_K5A, AxiomId.RULE_K6})

LETTERS = ("p", "q", "r")

# Letters each schema quantifies over.
_LETTER_COUNT = {
    AxiomId.A1: 3,
    AxiomId.A2: 1,
    AxiomId.A3: 2,
    AxiomId.A4: 2,
    AxiomId.A5: 2,
    AxiomId.A7: 3,
    AxiomId.A8: 3,
}

_P = Atom("p")
_Q = Atom("q")
_R = Atom("r")

# Instance of each schema over fresh atoms, one atom per letter.
_INSTANCES = {
    AxiomId.A1: Implies(
        And(Bel(Cond(_P, _Q)), Bel(Cond(_P, Implies(_Q, _R)))), Bel(Cond(_P, _R))
    ),
    AxiomId.A2: Bel(Cond(_P, _P)),
    AxiomId.A3: Implies(And(Not(Box(Not(_P))), Bel(Cond(_P, _Q))), Bel(Implies(_P, _Q))),
    AxiomId.A4: Implies(And(Not(Bel(Not(_P))), Bel(Implies(_P, _Q))), Bel(Cond(_P, _Q))),
    AxiomId.A5: Implies(
        And(Not(Box(Not(_P))), Bel(Cond(_P, _Q))), Not(Bel(Cond(_P, Not(_Q))))
    ),
    AxiomId.A7: Implies(
        And(Not(Box(Not(And(_P, _Q)))), Bel(Cond(And(_P, _Q), _R))),
        Bel(Cond(_P, Implies(_Q, _R))),
    ),
    AxiomId.A8: Implies(
        And(Not(Bel(Cond(_P, Not(_Q)))), Bel(Cond(_P, Implies(_Q, _R)))),
        Bel(Cond(And(_P, _Q), And(_Q, _R))),
    ),
}


def axiom_instance(k: AxiomId) -> Formula:
    """The schema instantiated with atoms p, q, r standing for its letters."""
    if k in RULE_IDS:
        raise ValueError(f"{k.value} is a rule of inference, not a schema")
    return _INSTANCES[k]


class MismatchedWitnessError(ValueError):
    """Witness does not belong to the property paired with the axiom."""


class SchemaEvaluator:
    """Event-level evaluator for the axiom schemas on one frame.

    Precomputes, for every pair of events (a, b), the set of states where
    the believed conditional with antecedent event a and consequent event
    b holds: everything if a is empty, else the states whose union of
    believed selections for a lies inside b.  Likewise the set of states
    whose belief set lies inside each event.
    """

    __slots__ = ("frame", "full", "bel", "bel_cond")

    def __init__(self, frame: Frame):
        self.frame = frame
        full = frame.full
        self.full = full
        n = frame.n
        belief = frame.belief
        union = frame.union
        self.bel = [0] * (full + 1)
        for x in range(full + 1):
            mask = 0
            for s in range(n):
                if belief[s] & ~x == 0:
                    mask |= 1 << s
            self.bel[x] = mask
        bel_cond = [[full] * (full + 1)]  # empty antecedent: vacuously believed
        for a in range(1, full + 1):
            row = []
            for b in range(full + 1):
                mask = 0
                for s in range(n):
                    if union[s][a] & ~b == 0:
                        mask |= 1 << s
                row.append(mask)
            bel_cond.append(row)
        self.bel_cond = bel_cond

    # Each schema returns the mask of states where it holds under the
    # given letter events; the axiom is valid iff every mask is full.

    def _a1(self, a: int, b: int, c: int) -> int:
        full, bc = self.full, self.bel_cond
        ante = bc[a][b] & bc[a][(full ^ b) | c]
        return (full ^ ante) | bc[a][c]

    def _a2(self, a: int) -> int:
        return self.bel_cond[a][a]

    def _a3(self, a: int, b: int) -> int:
        full = self.full
        possible = full if a else 0
        ante = possible & self.bel_cond[a][b]
        return (full ^ ante) | self.bel[(full ^ a) | b]

    def _a4(self, a: int, b: int) -> int:
        full = self.full
        ante = (full ^ self.bel[full ^ a]) & self.bel[(full ^ a) | b]
        return (full ^ ante) | self.bel_cond[a][b]

    def _a5(self, a: int, b: int) -> int:
        full = self.full
        possible = full if a else 0
        ante = possible & self.bel_cond[a][b]
        return (full ^ ante) | (full ^ self.bel_cond[a][full ^ b])

    def _a7(self, a: int, b: int, c: int) -> int:
        full, bc = self.full, self.bel_cond
        ab = a & b
        ante = (full if ab else 0) & bc[ab][c]
        return (full ^ ante) | bc[a][(full ^ b) | c]

    def _a8(self, a: int, b: int, c: int) -> int:
        full, bc = self.full, self.bel_cond
        ante = (full ^ bc[a][full ^ b]) & bc[a][(full ^ b) | c]
        return (full ^ ante) | bc[a & b][b & c]

    def holds_mask(self, k: AxiomId, assignment: tuple[int, ...]) -> int:
        """Mask of states where the instance of ``k`` under ``assignment`` holds."""
        return getattr(self, "_" + k.value.lower())(*assignment)

    def check_axiom(self, k: AxiomId) -> Witness | None:
        """None if ``k`` is valid on the frame, else the lexicographically
        least falsifying assignment with its lowest falsified state."""
        if k in RULE_IDS:
            raise ValueError(f"{k.value} is a rule of inference; use check_rule")
        schema = getattr(self, "_" + k.value.lower())
        full = self.full
        for assignment in product(range(full + 1), repeat=_LETTER_COUNT[k]):
            mask = schema(*assignment)
            if mask != full:
                return _witness(k, mask, full, assignment)
        return None

    def check_rule(self, k: AxiomId) -> Witness | None:
        """None if the rule ``k`` holds on the frame, else the first
        falsifying assignment in ``product`` order with its lowest
        falsified state.

        RuleK5a: with an impossible antecedent (the event-level image of an
        inconsistent formula), ``B(p > q)`` holds at every state whatever
        the consequent event q; that is row 0 of ``bel_cond``.  RuleK6: two
        antecedents with the same event yield the same believed
        conditionals, so ``B(p > r) <-> B(q > r)`` holds under p = q = a
        for every consequent event r = c.  The tests cross ``bel_cond``
        against ``truth_set`` of ``B(p > r)`` on concrete models.
        """
        full, bc = self.full, self.bel_cond
        if k is AxiomId.RULE_K5A:
            for b in range(full + 1):
                mask = bc[0][b]
                if mask != full:
                    return _witness(k, mask, full, (0, b))
            return None
        if k is AxiomId.RULE_K6:
            for a, c in product(range(full + 1), repeat=2):
                mask = full ^ (bc[a][c] ^ bc[a][c])
                if mask != full:
                    return _witness(k, mask, full, (a, a, c))
            return None
        raise ValueError(f"{k.value} is a schema; use check_axiom")


def _witness(k: AxiomId, mask: int, full: int, assignment: tuple[int, ...]) -> Witness:
    """Witness for ``assignment``, reporting the lowest state outside ``mask``."""
    failed = mask ^ full
    state = (failed & -failed).bit_length() - 1
    return Witness(kind=k.value, states={"s": state}, events=dict(zip(LETTERS, assignment)))


def schema_valid_on_frame(frame: Frame, k: AxiomId) -> Witness | None:
    """Check one axiom schema on a frame by exhausting letter assignments."""
    return SchemaEvaluator(frame).check_axiom(k)


def rule_valid_on_frame(frame: Frame, k: AxiomId) -> Witness | None:
    """Check one rule of inference on a frame at the event level."""
    return SchemaEvaluator(frame).check_rule(k)


PAIRED_PROPERTY = {
    AxiomId.A2: PropertyId.P2,
    AxiomId.A3: PropertyId.P3,
    AxiomId.A4: PropertyId.P4,
    AxiomId.A5: PropertyId.P5,
    AxiomId.A7: PropertyId.P7,
    AxiomId.A8: PropertyId.P8,
}


def countermodel_assignment(frame: Frame, k: AxiomId, w: Witness) -> tuple[tuple[int, ...], int]:
    """Letter assignment (in ``LETTERS`` order) and state of the canonical
    countermodel to ``k`` built from a violation witness of the paired
    frame property.

    These are the canonical refutation recipes: the violated event becomes
    p, and q and r take the derived events that make the axiom's
    antecedent true while its consequent fails.
    """
    paired = PAIRED_PROPERTY.get(k)
    if paired is None or w.kind != paired.value:
        raise MismatchedWitnessError(
            f"witness for {w.kind!r} cannot refute {k.value} (needs {paired.value if paired else 'n/a'})"
        )
    s = w.states["s"]
    e = w.events["E"]
    if k is AxiomId.A2:
        assignment: tuple[int, ...] = (e,)
    elif k is AxiomId.A3:
        assignment = (e, frame.union[s][e])
    elif k is AxiomId.A4:
        assignment = (e, frame.belief[s] & e)
    elif k is AxiomId.A5:
        assignment = (e, 0)
    elif k is AxiomId.A7:
        assignment = (e, w.events["F"], w.events["G"])
    else:  # A8
        assignment = (e, w.events["F"], frame.union[s][e])
    return assignment, s


def countermodel_from_witness(
    frame: Frame, k: AxiomId, w: Witness
) -> tuple[Model, int, Formula]:
    """Model, state and axiom instance falsified there, built from a
    property-violation witness of the paired frame property: the
    assignment of :func:`countermodel_assignment` as a valuation of the
    atoms p, q, r."""
    assignment, s = countermodel_assignment(frame, k, w)
    return Model(frame, dict(zip(LETTERS, assignment))), s, _INSTANCES[k]
