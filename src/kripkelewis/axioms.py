"""Schema validity of the modal axioms on a frame, and countermodel builders.

An axiom schema is valid on a frame when its instance holds at every state
of every model based on the frame.  Schema letters stand for Boolean
formulas, and every event is the truth set of a fresh atom under some
valuation, so quantifying letters over all events (empty and full
included) is exactly validity over all models.  The evaluator works
directly on events, on one frame or on a sweep batch's lane tables; the
tests cross it against the generic model semantics on instances built
from fresh atoms p, q, r.
"""

from __future__ import annotations

from enum import Enum
from functools import cache

from .formula import And, Atom, Bel, Box, Cond, Formula, Iff, Implies, Not, atoms
from .model import Frame, Model, Witness
from .model import truth_set  # noqa: F401  unused; perfbench's tracer patches it by name
from .properties import PropertyId
from .revision import LaneLayout, LaneTables, first_hits, frame_tables, lane_layout


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


# The rules of inference.  A tuple, because testing membership in it
# compares identities, where a frozenset would call the enum's hash.
RULE_IDS = (AxiomId.RULE_K5A, AxiomId.RULE_K6)

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
    _schema_index(k)  # refuses what is not a schema
    return _INSTANCES[k]


class MismatchedWitnessError(ValueError):
    """Witness does not belong to the property paired with the axiom."""


class SchemaEvaluator:
    """Event-level evaluator for the axiom schemas on one frame, or on the
    frames of one sweep batch, frame i in lane i (see ``LaneLayout``), so
    each compiled scan (``_scan``) runs once for all the lanes.
    ``lane_failures`` keeps each lane's first hit through :func:`first_hits`,
    the driver of all three lane evaluators; ``check_axiom`` and
    ``holds_mask`` read a scan's first hit directly.  Precomputes, for
    every pair of events (a, b), the mask of states where the believed
    conditional with antecedent event a and consequent event b holds:
    everything if a is empty, else the states whose union of believed
    selections for a lies inside b.  Likewise the mask of states whose
    belief set lies inside each event.  Both are read off lane tables (see
    ``LaneTables``), one table per event through ``_within_masks``.
    ``full`` is the event universe 2^n - 1 (also lane 0's states);
    ``states`` is every state of every lane.
    """

    __slots__ = ("n", "full", "states", "spread", "bel", "bel_cond")

    def __init__(self, frame: Frame | None = None, tables: LaneTables | None = None):
        n, lanes, _, union, belief = tables or frame_tables(frame)
        self.n = n
        self.full = (1 << n) - 1
        layout = lane_layout(n, lanes)
        self.states, self.spread = layout.states, layout.spread
        # union[0] is 0, so row 0 of bel_cond is every state
        self.bel, *self.bel_cond = [_within_masks(u, n, layout) for u in (belief, *union)]

    def holds_mask(self, k: AxiomId, assignment: tuple[int, ...]) -> int:
        """Mask of states, in every lane, where the instance of ``k`` under
        ``assignment`` (one event per letter, in ``LETTERS`` order) holds."""
        scan, letters = _scan(_schema_index(k))
        if len(assignment) != letters:
            raise ValueError(
                f"{k.value} takes one event for each of {', '.join(LETTERS[:letters])}; "
                f"got {len(assignment)}")
        # over one assignment the scan yields at most one hit
        return self.states ^ next(scan(self, *[(x,) for x in assignment]), (0,))[0]

    def lane_failures(self, k: AxiomId) -> int:
        """State mask, over every lane, whose lane i is nonempty iff the
        schema ``k`` fails on frame i: it holds the states where frame i's
        first falsifying assignment fails, as :func:`first_hits` drops the
        whole lane of each hit."""
        scan, letters = _scan(_schema_index(k))
        hits = scan(self, *[range(self.full + 1)] * letters)
        return first_hits(hits, self.states, self.states, self.spread)[0]

    def check_axiom(self, k: AxiomId) -> Witness | None:
        """None if ``k`` is valid on the frame (on a batch's tables, lane
        0's), else the lexicographically least falsifying assignment with
        its lowest falsified state: the first hit with a state there."""
        scan, letters = _scan(_schema_index(k))
        for bad, assignment in scan(self, *[range(self.full + 1)] * letters):
            bad &= self.full
            if bad:
                state = (bad & -bad).bit_length() - 1
                return Witness(k.value, {"s": state}, dict(zip(LETTERS, assignment)))
        return None


def _literals(f: Formula, holds: bool):
    """``(g, truth)`` pairs whose conjunction is where ``f`` has truth ``holds``."""
    if isinstance(f, Not):
        yield from _literals(f.body, not holds)
    elif isinstance(f, And) and holds or isinstance(f, Implies) and not holds:
        yield from _literals(f.left, True)
        yield from _literals(f.right, holds)
    else:
        yield f, holds


def _compile_scan(formula: Formula):
    """The scan of ``formula`` and the number of letter ranges it takes.

    The scan is a generator with one loop per letter up to the last one
    ``formula`` uses, in ``LETTERS`` order, yielding ``(bad, assignment)``
    for each assignment whose instance fails at some state of some lane,
    ``bad`` being those states.  The instance must combine ``B(a > b)``,
    ``B a`` and ``[] a`` over Boolean events by ``~ & -> <->``; anything
    else raises ValueError.  ``bad`` is the conjunction of the literals
    whose truth falsifies the instance.  Each sub-term is named once at the
    outermost loop binding its letters, or inlined in the innermost one.
    An outer loop skips its block where its literals are empty in every
    lane; a ``[]`` literal, all-or-nothing over the lanes, is that test.
    """
    used = atoms(formula)
    if not used <= set(LETTERS):
        raise ValueError(f"atoms outside {', '.join(LETTERS)}: {formula!r}")
    free = LETTERS[: max(map(LETTERS.index, used)) + 1]
    inner, names = len(free) - 1, {}
    lines: list[list[str]] = [[] for _ in free]  # in each loop

    def term(src: str, depth: int) -> tuple[str, int]:
        if depth < inner and src not in names:
            names[src] = f"t{len(names)}"
            lines[depth].append(f"{names[src]} = {src}")
        return names.get(src, src), depth

    def mask(f: Formula, top: str = "states") -> tuple[str, int]:
        """Source and loop depth of ``f``: an event if ``top`` is "full"."""
        if isinstance(f, Not):
            x, depth = mask(f.body, top)
            return term(f"({top} ^ {x})", depth)
        form = {And: "({} & {})", Implies: "({} | {})", Iff: f"({top} ^ {{}} ^ {{}})"}.get(type(f))
        if form:
            x, dx = mask(Not(f.left) if isinstance(f, Implies) else f.left, top)
            y, dy = mask(f.right, top)
            return term(form.format(x, y), max(dx, dy))
        if top == "full" and isinstance(f, Atom):
            return f.name, free.index(f.name)
        if top == "full" or not isinstance(f, (Bel, Box)):
            raise ValueError(f"not a B(a > b), B a or [] a over Boolean events: {f!r}")
        if isinstance(f.body, Cond) and isinstance(f, Bel):
            (a, da), (b, db) = mask(f.body.antecedent, "full"), mask(f.body.consequent, "full")
            return term(f"{term(f'bc[{a}]', da)[0]}[{b}]", max(da, db))
        a, depth = mask(f.body, "full")
        form = "bel[{}]" if isinstance(f, Bel) else "(states if {} == full else 0)"
        return term(form.format(a), depth)

    by_depth: list[list] = [[] for _ in free]
    for f, holds in _literals(formula, False):
        by_depth[max([free.index(x) for x in atoms(f)] + [0])].append((f, holds))
    ante = []
    for depth, literals in enumerate(by_depth):
        out, positive, negated = lines[depth], [], []
        for f, holds in literals:
            if isinstance(f, Box):
                body, test = f.body, "{} == full"  # where the [] literal holds
                if isinstance(body, Not):
                    body, test = body.body, "not {}"
                test = test.format(mask(body, "full")[0])
                out.append(f"if {f'not ({test})' if holds else test}: continue")
            elif isinstance(f, Iff) and not holds:
                positive.append(f"({mask(f.left)[0]} ^ {mask(f.right)[0]})")
            else:
                (positive if holds else negated).append(mask(f)[0])
        product = " & ".join(ante + positive or ["states"]) + "".join(f" & ~{x}" for x in negated)
        if depth == inner:
            out += [f"bad = {product}", f"if bad: yield bad, ({', '.join(free)},)"]
        elif positive or negated:
            out += [f"ante{depth} = {product}", f"if not ante{depth}: continue"]
            ante = [f"ante{depth}"]
    source = [f"def scan(self, {', '.join('r' + x for x in free)}):",
              "    full, states, bel, bc = self.full, self.states, self.bel, self.bel_cond"]
    for depth, x in enumerate(free):
        source.append(f"{'    ' * (depth + 1)}for {x} in r{x}:")
        source += ["    " * (depth + 2) + line for line in lines[depth]]
    namespace: dict = {}
    exec(compile("\n".join(source), "<axiom scan>", "exec"), namespace)
    return namespace["scan"], len(free)


# The schemas, each with a scan, looked up by position: ``tuple.index``
# compares identities, where a dict lookup would call the enum's
# Python-level hash.
_SCAN_IDS = tuple(_INSTANCES)


@cache
def _scan(i: int):
    """``(scan, letters)`` of the schema at position i of ``_SCAN_IDS``,
    compiled from the module's own instance on first use."""
    return _compile_scan(_INSTANCES[_SCAN_IDS[i]])


def _schema_index(k: AxiomId) -> int:
    """Position of the schema ``k`` in ``_SCAN_IDS``.  A rule has no scan
    and is refused here (see :func:`rule_valid_on_frame`), as is any other k."""
    try:
        return _SCAN_IDS.index(k)
    except ValueError:
        if k in RULE_IDS:
            raise ValueError(f"{k.value} is a rule of inference, not a schema") from None
        raise ValueError(f"unknown axiom {k!r}") from None


def compile_scans() -> None:
    """Compile every schema scan now: a parallel sweep calls this before it
    forks its workers, so that they inherit the scans instead of compiling them."""
    for i in range(len(_SCAN_IDS)):
        _scan(i)


def _within_masks(blocks: int, n: int, layout: LaneLayout) -> list[int]:
    """Masks indexed by event b: the states whose event lies inside b, read
    off ``blocks``, n blocks of one bit per state (block x: the states whose
    event has x).  A state's event lies inside b iff the state is in no
    block x outside b, so the masks over events on states 0 .. x are those
    over states 0 .. x-1 ANDed with ``omit``, the states outside block x
    (for b without x), then as they are (for b with x)."""
    width, states = layout.width, layout.states
    masks = [states]
    for x in range(n):
        omit = states ^ blocks >> x * width & states
        masks = (masks if omit == states else [m & omit for m in masks] if omit
                 else [0] * len(masks)) + masks
    return masks


def schema_valid_on_frame(frame: Frame, k: AxiomId) -> Witness | None:
    """Check one axiom schema on a frame by exhausting letter assignments."""
    return SchemaEvaluator(frame).check_axiom(k)


def rule_valid_on_frame(frame: Frame, k: AxiomId) -> None:
    """None, for either rule of inference on any frame: the clause for >
    reads only the antecedent's event and is vacuous on the empty one, so
    B(p > q) with p empty (RuleK5a) and B(p > r) <-> B(q > r) with p and
    q the same event (RuleK6) hold everywhere.  Refuses a schema, and
    anything that is not an ``AxiomId``."""
    if k not in RULE_IDS:
        _schema_index(k)  # refuses what is not an axiom
        raise ValueError(f"{k.value} is a schema; use schema_valid_on_frame")


PAIRED_PROPERTY = {
    AxiomId.A2: PropertyId.P2,
    AxiomId.A3: PropertyId.P3,
    AxiomId.A4: PropertyId.P4,
    AxiomId.A5: PropertyId.P5,
    AxiomId.A7: PropertyId.P7,
    AxiomId.A8: PropertyId.P8,
}


# PAIRED_PROPERTY as two tuples, read by position like ``_SCAN_IDS``, and
# the countermodel recipe of each paired axiom, indexed the same: from the
# witness's events E and F, ``read`` names the one per-state event u the
# recipe reads, ("union", x) for union[s][x] or ("belief", x) for
# belief[s] & x (("belief", 0) for none: it is always 0), and ``build``
# is the assignment (p, q, r) made of E, F and u.
_PAIRED_AXIOMS = tuple(PAIRED_PROPERTY)
_PAIRED_KINDS = tuple(prop.value for prop in PAIRED_PROPERTY.values())
_RECIPES = (
    (lambda e, f: ("belief", 0), lambda e, f, u: (e,)),  # A2
    (lambda e, f: ("union", e), lambda e, f, u: (e, u)),  # A3
    (lambda e, f: ("belief", e), lambda e, f, u: (e, u)),  # A4
    (lambda e, f: ("belief", 0), lambda e, f, u: (e, 0)),  # A5
    (lambda e, f: ("union", e & f), lambda e, f, u: (e, f, u)),  # A7
    (lambda e, f: ("union", e), lambda e, f, u: (e, f, u)),  # A8
)


def countermodel_recipe(k: AxiomId):
    """The ``(read, build)`` recipe :func:`countermodel_assignment` applies
    for the paired axiom ``k`` (see ``_RECIPES``); E and F are 0 where the
    witness has none.  A sweep batch reads the event ``read`` names off
    its lane tables' blocks, once for all the states of a hit."""
    return _RECIPES[_PAIRED_AXIOMS.index(k)]


def countermodel_assignment(frame: Frame, k: AxiomId, w: Witness) -> tuple[tuple[int, ...], int]:
    """Letter assignment (in ``LETTERS`` order) and state of the canonical
    countermodel to ``k`` built from a violation witness of the paired
    frame property.

    These are the canonical refutation recipes: the violated event becomes
    p, and q and r take the derived events that make the axiom's
    antecedent true while its consequent fails.  For A7, r is the union of
    believed selections for E & F, the strongest candidate, whatever G the
    witness carries.
    """
    i = _PAIRED_AXIOMS.index(k) if k in _PAIRED_AXIOMS else -1
    if i < 0 or w.kind != _PAIRED_KINDS[i]:
        name = k.value if isinstance(k, AxiomId) else repr(k)
        paired = PAIRED_PROPERTY[k].value if k in PAIRED_PROPERTY else "n/a"
        raise MismatchedWitnessError(
            f"witness for {w.kind!r} cannot refute {name} (needs {paired})")
    read, build = _RECIPES[i]
    s, e, f = w.states["s"], w.events["E"], w.events.get("F", 0)
    table, x = read(e, f)
    return build(e, f, frame.union[s][x] if table == "union" else frame.belief[s] & x), s


def countermodel_from_witness(
    frame: Frame, k: AxiomId, w: Witness
) -> tuple[Model, int, Formula]:
    """Model, state and axiom instance falsified there, built from a
    property-violation witness of the paired frame property: the
    assignment of :func:`countermodel_assignment` as a valuation of the
    atoms p, q, r."""
    assignment, s = countermodel_assignment(frame, k, w)
    return Model(frame, dict(zip(LETTERS, assignment))), s, _INSTANCES[k]
