"""Decision procedures for the frame properties behind the revision postulates.

``PropertyEvaluator`` checks the properties on one or more frames at once,
frame i in lane i, and returns None on a pass or a Witness carrying the
failing instantiation.  Each property is one scan over events in (size,
value) order, or over the overlapping pairs of ``canonical_pairs`` for P7
and P8, with every state of every lane tested at once; a state's
first hit is its minimal (E, ...) instantiation, with the least believed
state the condition names, and a frame's witness is its lowest failing
state's.  So the witness is the minimal one in (s, E, ...) order, the
order in which a per-frame loop over states, then events, would meet it.

P2, P4 and P8 share one quantifier, every believed state's selection for
an event inside a bound (E; belief and E; union[E] and F), and one method
tests it per believed state.  P5 is that test with the empty bound,
negated, and keeps its own loop, which folds the selections first.

P7 and P8 are checked through reformulations over the union-of-selections
table: for P7 the innermost universally quantified event is eliminated by
instantiating it with the strongest candidate; for P8 the existential
antecedent collapses to a nonempty-intersection test.  The literal
quantifier forms, and the per-frame loops the evaluator replaced, live in
the test suite as oracles.
"""

from __future__ import annotations

from enum import Enum

from .model import Frame, Witness, bit_indices, canonical_events, canonical_pairs
from .revision import LaneTables, frame_tables, lane_layout


class PropertyId(Enum):
    P2 = "P2"
    P3 = "P3"
    P4 = "P4"
    P5 = "P5"
    P7 = "P7"
    P8 = "P8"


def check_property(frame: Frame, k: PropertyId) -> Witness | None:
    """None if the frame satisfies property ``k``, else a minimal witness."""
    return PropertyEvaluator(frame).witnesses(k)[0]


class PropertyEvaluator:
    """Checker of the frame properties on one or more frames on the same n
    states.

    Frame i occupies lane i, as in ``PostulateEvaluator``: bit ``i*n + s``
    of a state mask stands for state s of frame i.  The tables hold a block
    of ``width`` bits per state x: block x of ``sel[e]`` holds the states
    whose selection for event e contains x, block x of ``belief`` those
    whose belief set contains x, and block x of ``union[e]`` those whose
    union of believed selections for e contains x.  ``union`` is read only
    by P3, P7 and P8, whose conditions name it.  A sweep batch passes its
    ``tables`` (shared with its ``PostulateEvaluator``) and no frames, so it
    has no :meth:`witnesses`.  ``believes[x]`` is block x of ``belief``
    as a state mask; the rest is the geometry of :func:`lane_layout`.
    """

    def __init__(self, *frames: Frame, tables: LaneTables | None = None):
        n, lanes, self.sel, self.union, self.belief = tables or frame_tables(frames, True)
        self.frames = frames
        self.n = n
        layout = lane_layout(n, lanes)
        self.width, self.states, self.low, self.ones, self.lows = layout[:5]
        self.inside, self._fold = layout.inside, layout.fold
        self.believes = [self.belief >> x * self.width & self.states for x in range(n)]

    def _leaving(self, e: int, allowed: int, rows: int):
        """Per believed state s', in order, the states in ``rows`` that
        believe s' and whose lane's s' selects, for e, some x outside
        block x of ``allowed``: the failures of "every believed state's
        selection for e lies inside the bound", with the s' that fails."""
        sel, lows, ones, fold = self.sel[e], self.lows, self.ones, self._fold
        spread = (1 << self.n) - 1
        outside = ~allowed
        for sp, believes in enumerate(self.believes):
            believers = believes & rows
            # block x: the states s whose lane's s' selects x where s's bound lacks x
            out = (sel >> sp & lows) * spread & outside
            if out & believers * ones:
                yield believers & fold(out), sp

    # One scan per property: each walks the events E (or the pairs E, F) in
    # canonical order and yields the states that fail on them with E, F
    # (0 if the property has none) and the believed state the condition
    # names (0 if none).

    def _scan_p2(self):
        # every believed state's selection for E inside E
        full = len(self.inside) - 1
        sel, inside, states = self.sel, self.inside, self.states
        for e in canonical_events(self.n):
            if sel[e] & inside[full ^ e]:
                for bad, sp in self._leaving(e, inside[e], states):
                    yield bad, e, 0, sp

    def _scan_p3(self):
        # every believed state in E in union[E]
        width, states = self.width, self.states
        for e in canonical_events(self.n):
            out = self.belief & self.inside[e] & ~self.union[e]
            if out:
                for sp in range(self.n):
                    bad = out >> sp * width & states
                    if bad:
                        yield bad, e, 0, sp

    def _scan_p4(self):
        # every believed state's selection for E inside belief & E,
        # where belief meets E
        for e in canonical_events(self.n):
            inside = self.belief & self.inside[e]
            meets = self._fold(inside)
            if meets:
                for bad, sp in self._leaving(e, inside, meets):
                    yield bad, e, 0, sp

    def _scan_p5(self):
        # some believed state's selection for E nonempty
        spread, low = (1 << self.n) - 1, self.low
        for e in canonical_events(self.n):
            selecting = self._fold(self.sel[e])
            believing = 0
            for sp, believes in enumerate(self.believes):
                believing |= believes & (selecting >> sp & low) * spread
            bad = self.states & ~believing
            if bad:
                yield bad, e, 0, 0

    def _scan_p7(self):
        # union[E] & F inside union[E & F] when E and F overlap
        union, inside = self.union, self.inside
        for e, f in canonical_pairs(self.n):
            out = union[e] & inside[f] & ~union[e & f]
            if out:
                yield self._fold(out), e, f, 0

    def _scan_p8(self):
        # every believed state's selection for E & F inside union[E] & F,
        # where union[E] meets F; the believed states are scanned only
        # where union[E & F], the union of their selections, is not inside
        union, inside, fold, ones = self.union, self.inside, self._fold, self.ones
        for e, f in canonical_pairs(self.n):
            met = union[e] & inside[f]
            meets = fold(met)
            if meets and union[e & f] & ~met & meets * ones:
                for bad, st in self._leaving(e & f, met, meets):
                    yield bad, e, f, st

    def lane_hits(self, k: PropertyId) -> tuple[int, list[tuple[int, int, int, int]]]:
        """The states where ``k`` fails, whose lane i is nonempty iff ``k``
        fails on frame i, and the data of the failing lanes' witnesses: the
        scan's hits ``(mask, E, F, s')``, each ``mask`` cut to the lanes'
        lowest failing states, so each failing lane's lowest failing state
        (bit ``lane*n + s``) is in exactly one hit, the one where it first
        failed.  The scan stops once state 0 of every lane has failed, since
        no lane's witness can change then."""
        try:
            scan = _SCANS[_IDS.index(k)]
        except ValueError:
            raise ValueError(f"unknown property {k!r}") from None
        n, low = self.n, self.low
        failed, hits = 0, []
        for bad, e, f, sp in scan(self):
            bad &= ~failed
            if bad:
                failed |= bad
                hits.append((bad, e, f, sp))
                if failed & low == low:
                    break
        lowest = low  # each lane's lowest failing state, if state 0 failed in all
        if failed & low != low:
            lowest, taken = 0, 0
            for s in range(n):
                pick = failed >> s & low & ~taken  # lanes whose lowest is s
                taken |= pick
                lowest |= pick << s
        return failed, [(bad & lowest, e, f, sp) for bad, e, f, sp in hits if bad & lowest]

    def witnesses(self, k: PropertyId) -> list[Witness | None]:
        """Per frame: None if it satisfies ``k``, else its minimal witness."""
        found: list[Witness | None] = [None] * len(self.frames)
        _, hits = self.lane_hits(k)
        witness = _WITNESSES[_IDS.index(k)]
        for mask, e, f, sp in hits:
            for bit in bit_indices(mask):
                lane, s = divmod(bit, self.n)
                found[lane] = witness(self.frames[lane], s, e, f, sp)
        return found


# The scans in PropertyId order, looked up by position: ``tuple.index``
# compares identities, where a dict would call the enum's Python-level hash.
_SCANS = (PropertyEvaluator._scan_p2, PropertyEvaluator._scan_p3, PropertyEvaluator._scan_p4,
          PropertyEvaluator._scan_p5, PropertyEvaluator._scan_p7, PropertyEvaluator._scan_p8)
_IDS = tuple(PropertyId)
# The witness of each property, indexed the same, from a frame, the failing
# state s and the hit (E, F, believed state) that its scan yielded.
_WITNESSES = (
    lambda frame, s, e, f, sp: Witness("P2", {"s": s, "s_prime": sp}, {"E": e}),
    lambda frame, s, e, f, sp: Witness("P3", {"s": s, "s_prime": sp}, {"E": e}),
    lambda frame, s, e, f, sp: Witness("P4", {"s": s, "s_prime": sp}, {"E": e}),
    lambda frame, s, e, f, sp: Witness("P5", {"s": s}, {"E": e}),
    lambda frame, s, e, f, sp: Witness("P7", {"s": s}, {"E": e, "F": f, "G": frame.union[s][e & f]}),
    lambda frame, s, e, f, sp: Witness(
        "P8", {"s": s, "s_hat": next(x for x in frame.believed[s] if frame.selection[x][e] & f),
               "s_tilde": sp}, {"E": e, "F": f}),
)
