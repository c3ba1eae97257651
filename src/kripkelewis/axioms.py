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
from functools import lru_cache

from .formula import And, Atom, Bel, Box, Cond, Formula, Implies, Not
from .model import Frame, Model, Witness, shared_size
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


# The rules of inference.  The module tests membership in the tuple, which
# compares identities where the frozenset would call the enum's hash.
_RULES = (AxiomId.RULE_K5A, AxiomId.RULE_K6)
RULE_IDS = frozenset(_RULES)

LETTERS = ("p", "q", "r")

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
    if k in _RULES:
        raise ValueError(f"{k.value} is a rule of inference, not a schema")
    return _INSTANCES[k]


class MismatchedWitnessError(ValueError):
    """Witness does not belong to the property paired with the axiom."""


class SchemaEvaluator:
    """Event-level evaluator for the axiom schemas on one or more frames
    on the same n states.

    Frame i occupies lane i: bit ``i*n + s`` of every state mask stands for
    state s of frame i, so each scan below runs once for all the frames.
    Precomputes, for every pair of events (a, b), the mask of states where
    the believed conditional with antecedent event a and consequent event
    b holds: everything if a is empty, else the states whose union of
    believed selections for a lies inside b.  Likewise the mask of states
    whose belief set lies inside each event.

    ``full`` is the event universe 2^n - 1 (also lane 0's states);
    ``states`` is every state of every lane.
    """

    __slots__ = ("n", "full", "states", "low", "bel", "bel_cond")

    def __init__(self, *frames: Frame):
        n = shared_size(frames)
        full = (1 << n) - 1
        self.n = n
        self.full = full
        self.states = (1 << n * len(frames)) - 1
        self.low = self.states // full  # bit 0 of each lane
        bits = _lane_bits(len(frames) * n)
        # Column a: union[s][a] of every (lane, state) in bit order.
        columns = zip(*[row for frame in frames for row in frame.union])
        next(columns)  # placeholder column of the empty event
        bel_cond = [[self.states] * (full + 1)]  # empty antecedent: vacuously believed
        for column in columns:
            bel_cond.append(_superset_masks(column, bits, full))
        self.bel_cond = bel_cond
        self.bel = _superset_masks([b for frame in frames for b in frame.belief], bits, full)

    # One scan per schema or rule over the given letter ranges.  Each is a
    # generator walking the assignments in ``product`` order and yielding
    # ``(bad, assignment)`` for each assignment whose instance fails at
    # some state of some lane, ``bad`` being those states.  A block of
    # assignments is skipped only where a conjunct of the antecedent bound
    # by the outer letters is empty in every lane, so the instance holds
    # there by its own formula.  ``_failures`` keeps track of the lanes.

    def _scan_a1(self, ra, rb, rc):
        # B(p > q) & B(p > (q -> r)) -> B(p > r)
        full, bc = self.full, self.bel_cond
        for a in ra:
            row = bc[a]
            for b in rb:
                ante = row[b]
                if not ante:
                    continue
                nb = full ^ b
                for c in rc:
                    bad = ante & row[nb | c] & ~row[c]
                    if bad:
                        yield bad, (a, b, c)

    def _scan_a2(self, ra):
        # B(p > p)
        bc, states = self.bel_cond, self.states
        for a in ra:
            bad = states & ~bc[a][a]
            if bad:
                yield bad, (a,)

    def _scan_a3(self, ra, rb):
        # ~[]~p & B(p > q) -> B(p -> q)
        full, bel, bc = self.full, self.bel, self.bel_cond
        for a in ra:
            if not a:  # ~[]~p fails everywhere
                continue
            row = bc[a]
            na = full ^ a
            for b in rb:
                bad = row[b] & ~bel[na | b]
                if bad:
                    yield bad, (a, b)

    def _scan_a4(self, ra, rb):
        # ~B~p & B(p -> q) -> B(p > q)
        full, bel, bc, states = self.full, self.bel, self.bel_cond, self.states
        for a in ra:
            na = full ^ a
            ante = states & ~bel[na]
            if not ante:
                continue
            row = bc[a]
            for b in rb:
                bad = ante & bel[na | b] & ~row[b]
                if bad:
                    yield bad, (a, b)

    def _scan_a5(self, ra, rb):
        # ~[]~p & B(p > q) -> ~B(p > ~q)
        full, bc = self.full, self.bel_cond
        for a in ra:
            if not a:  # ~[]~p fails everywhere
                continue
            row = bc[a]
            for b in rb:
                bad = row[b] & row[full ^ b]
                if bad:
                    yield bad, (a, b)

    def _scan_a7(self, ra, rb, rc):
        # ~[]~(p & q) & B(p & q > r) -> B(p > (q -> r))
        full, bc = self.full, self.bel_cond
        for a in ra:
            row = bc[a]
            for b in rb:
                ab = a & b
                if not ab:  # ~[]~(p & q) fails everywhere
                    continue
                ab_row = bc[ab]
                nb = full ^ b
                for c in rc:
                    bad = ab_row[c] & ~row[nb | c]
                    if bad:
                        yield bad, (a, b, c)

    def _scan_a8(self, ra, rb, rc):
        # ~B(p > ~q) & B(p > (q -> r)) -> B(p & q > q & r)
        full, bc, states = self.full, self.bel_cond, self.states
        for a in ra:
            row = bc[a]
            for b in rb:
                nb = full ^ b
                ante = states & ~row[nb]
                if not ante:
                    continue
                ab_row = bc[a & b]
                for c in rc:
                    bad = ante & row[nb | c] & ~ab_row[b & c]
                    if bad:
                        yield bad, (a, b, c)

    def _scan_rule_k5a(self, rb):
        # RuleK5a: with an impossible antecedent (the event-level image of an
        # inconsistent formula), B(p > q) holds at every state whatever the
        # consequent event q; that is row 0 of ``bel_cond``.
        bc0, states = self.bel_cond[0], self.states
        for b in rb:
            bad = states & ~bc0[b]
            if bad:
                yield bad, (0, b)

    def _scan_rule_k6(self, ra, rc):
        # RuleK6: two antecedents with the same event yield the same believed
        # conditionals, so B(p > r) <-> B(q > r) holds under p = q = a for
        # every consequent event r = c.
        bc = self.bel_cond
        for a in ra:
            row = bc[a]
            for c in rc:
                bad = row[c] ^ row[c]
                if bad:
                    yield bad, (a, a, c)

    def _failures(self, scan, live: int, ranges) -> tuple[int, tuple[int, ...] | None]:
        """Runs ``scan`` over ``ranges`` on the lanes in ``live``: each hit,
        masked to the live lanes, is added to ``failed``, and every lane it
        touches is dropped.  Returns ``(failed, assignment)`` once no lane
        is live, else ``(failed, None)``, so with one live lane the
        assignment is the first falsifying one."""
        n, low, full = self.n, self.low, self.full
        failed = 0
        for bad, assignment in scan(self, *ranges):
            bad &= live
            if bad:
                failed |= bad
                spread = bad
                for shift in range(1, n):
                    spread |= bad >> shift
                live &= ~((spread & low) * full)
                if not live:
                    return failed, assignment
        return failed, None

    def holds_mask(self, k: AxiomId, assignment: tuple[int, ...]) -> int:
        """Mask of states, in every lane, where the instance of ``k`` under
        ``assignment`` (one event per letter, in ``LETTERS`` order) holds."""
        _, scan, letters = _SCANS[_SCAN_IDS.index(k)]
        if k in _RULES:
            raise ValueError(f"{k.value} is a rule of inference, not a schema")
        if len(assignment) != letters:
            raise ValueError(
                f"{k.value} takes one event for each of {', '.join(LETTERS[:letters])}; "
                f"got {len(assignment)}")
        return self.states ^ self._failures(scan, self.states, [(x,) for x in assignment])[0]

    def lane_failures(self, k: AxiomId) -> int:
        """State mask, over every lane, whose lane i is nonempty iff the
        schema or rule ``k`` fails on frame i: it holds the states where
        frame i's first falsifying assignment fails."""
        _, scan, letters = _SCANS[_SCAN_IDS.index(k)]
        return self._failures(scan, self.states, [range(self.full + 1)] * letters)[0]

    def _first_witness(self, k: AxiomId) -> Witness | None:
        """None if ``k`` holds on the first frame, else its first falsifying
        assignment in ``product`` order with its lowest falsified state."""
        _, scan, letters = _SCANS[_SCAN_IDS.index(k)]
        failed, assignment = self._failures(scan, self.full, [range(self.full + 1)] * letters)
        if assignment is None:
            return None
        state = (failed & -failed).bit_length() - 1
        return Witness(kind=k.value, states={"s": state}, events=dict(zip(LETTERS, assignment)))

    def check_axiom(self, k: AxiomId) -> Witness | None:
        """None if ``k`` is valid on the (first) frame, else the
        lexicographically least falsifying assignment with its lowest
        falsified state."""
        if k in _RULES:
            raise ValueError(f"{k.value} is a rule of inference; use check_rule")
        return self._first_witness(k)

    def check_rule(self, k: AxiomId) -> Witness | None:
        """None if the rule ``k`` holds on the (first) frame, else the first
        falsifying assignment in ``product`` order (RuleK5a: (0, q);
        RuleK6: (a, a, r)) with its lowest falsified state.  The tests
        cross ``bel_cond`` against ``truth_set`` of ``B(p > r)`` on
        concrete models."""
        if k not in _RULES:
            raise ValueError(f"{k.value} is a schema; use check_axiom")
        return self._first_witness(k)


# Each schema or rule with its scan and the letter ranges the scan takes:
# the letters a schema quantifies over; RuleK5a fixes p to the empty event
# and RuleK6 sets q = p.  Looked up by position in ``_SCAN_IDS``:
# ``tuple.index`` compares identities, where a dict lookup would call the
# enum's Python-level hash.
_SCANS = (
    (AxiomId.A1, SchemaEvaluator._scan_a1, 3),
    (AxiomId.A2, SchemaEvaluator._scan_a2, 1),
    (AxiomId.A3, SchemaEvaluator._scan_a3, 2),
    (AxiomId.A4, SchemaEvaluator._scan_a4, 2),
    (AxiomId.A5, SchemaEvaluator._scan_a5, 2),
    (AxiomId.A7, SchemaEvaluator._scan_a7, 3),
    (AxiomId.A8, SchemaEvaluator._scan_a8, 3),
    (AxiomId.RULE_K5A, SchemaEvaluator._scan_rule_k5a, 1),
    (AxiomId.RULE_K6, SchemaEvaluator._scan_rule_k6, 2),
)
_SCAN_IDS = tuple(k for k, _, _ in _SCANS)


@lru_cache(maxsize=None)
def _lane_bits(count: int) -> tuple[int, ...]:
    return tuple(1 << i for i in range(count))


def _superset_masks(events, bits, full: int) -> list[int]:
    """Masks indexed by event x: bit ``bits[i]`` is set iff ``events[i]``
    lies inside x.

    Groups the bits by event, then marks each distinct event once on its
    supersets, walked in ascending order by ``x = (x + 1) | u``.
    """
    grouped = [0] * (full + 1)
    distinct = []
    for u, bit in zip(events, bits):
        if grouped[u]:
            grouped[u] |= bit
        else:
            grouped[u] = bit
            distinct.append(u)
    masks = [0] * (full + 1)
    for u in distinct:
        bit = grouped[u]
        x = u
        while x != full:
            masks[x] |= bit
            x = (x + 1) | u
        masks[full] |= bit
    return masks


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


# PAIRED_PROPERTY as two tuples, read by position like ``_SCANS``, and
# countermodel_assignment's recipe for each paired axiom, indexed the same:
# (frame, state s, event E, witness events) -> the assignment of p, q, r.
_PAIRED_AXIOMS = tuple(PAIRED_PROPERTY)
_PAIRED_KINDS = tuple(prop.value for prop in PAIRED_PROPERTY.values())
_RECIPES = (
    lambda frame, s, e, events: (e,),  # A2
    lambda frame, s, e, events: (e, frame.union[s][e]),  # A3
    lambda frame, s, e, events: (e, frame.belief[s] & e),  # A4
    lambda frame, s, e, events: (e, 0),  # A5
    lambda frame, s, e, events: (e, events["F"], events["G"]),  # A7
    lambda frame, s, e, events: (e, events["F"], frame.union[s][e]),  # A8
)


def countermodel_assignment(frame: Frame, k: AxiomId, w: Witness) -> tuple[tuple[int, ...], int]:
    """Letter assignment (in ``LETTERS`` order) and state of the canonical
    countermodel to ``k`` built from a violation witness of the paired
    frame property.

    These are the canonical refutation recipes: the violated event becomes
    p, and q and r take the derived events that make the axiom's
    antecedent true while its consequent fails.
    """
    try:
        i = _PAIRED_AXIOMS.index(k)
    except ValueError:
        i = -1
    if i < 0 or w.kind != _PAIRED_KINDS[i]:
        paired = PAIRED_PROPERTY.get(k)
        raise MismatchedWitnessError(
            f"witness for {w.kind!r} cannot refute {k.value} (needs {paired.value if paired else 'n/a'})"
        )
    s, events = w.states["s"], w.events
    return _RECIPES[i](frame, s, events["E"], events), s


def countermodel_from_witness(
    frame: Frame, k: AxiomId, w: Witness
) -> tuple[Model, int, Formula]:
    """Model, state and axiom instance falsified there, built from a
    property-violation witness of the paired frame property: the
    assignment of :func:`countermodel_assignment` as a valuation of the
    atoms p, q, r."""
    assignment, s = countermodel_assignment(frame, k, w)
    return Model(frame, dict(zip(LETTERS, assignment))), s, _INSTANCES[k]
