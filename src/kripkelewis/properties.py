"""Decision procedures for the frame properties behind the revision postulates.

``PropertyEvaluator`` checks the properties on one frame, or on the
frames of one sweep batch, frame i in lane i.  Each property is one scan
over events in (size, value) order, or over the overlapping pairs of
``canonical_pairs`` for P7 and P8, testing every state of every lane at
once.  ``revision.first_hits``, the driver of the three lane evaluators,
keeps each state's first hit, its minimal (E, ...) instantiation with
the least believed state the condition names.  A frame's witness is its
lowest failing state's, so the minimal one in (s, E, ...) order.

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

from .model import Frame, Witness, canonical_events, canonical_pairs
from .revision import LaneTables, first_hits, frame_tables, lane_layout


class PropertyId(Enum):
    P2 = "P2"
    P3 = "P3"
    P4 = "P4"
    P5 = "P5"
    P7 = "P7"
    P8 = "P8"


def check_property(frame: Frame, k: PropertyId) -> Witness | None:
    """None if the frame satisfies property ``k``, else a minimal witness."""
    return PropertyEvaluator(frame).witness(k)


class PropertyEvaluator:
    """Checker of the frame properties on one frame, or on the frames of
    one sweep batch, frame i in lane i (see ``revision.LaneLayout``).
    Block x of ``sel[e]`` holds the states whose selection for event e
    contains x, block x of ``belief`` those whose belief set contains x,
    and block x of ``union[e]`` those whose union of believed selections
    for e contains x, read only by P3, P7 and P8.  A batch passes its
    ``tables``, shared with its ``PostulateEvaluator``, and names no
    frame, so it has no :meth:`witness`.  ``believes[x]`` is block x of
    ``belief`` as a state mask; the rest is the geometry of
    :func:`lane_layout`.
    """

    def __init__(self, frame: Frame | None = None, tables: LaneTables | None = None):
        n, lanes, self.sel, self.union, self.belief = tables or frame_tables(frame, True)
        self.frame = frame
        self.n = n
        layout = lane_layout(n, lanes)
        self.width, self.states, self.low = layout[:3]
        self.lows, self.inside, self._fold = layout.lows, layout.inside, layout.fold
        self.believes = [self.belief >> x * self.width & self.states for x in range(n)]

    def _leaving(self, e: int, allowed: int, rows: int):
        """Per believed state s', in order, the states in ``rows`` that
        believe s' and whose lane's s' selects, for e, some x outside
        block x of ``allowed``: the failures of "every believed state's
        selection for e lies inside the bound", with the s' that fails."""
        sel, lows, fold, outside = self.sel[e], self.lows, self._fold, ~allowed
        spread = (1 << self.n) - 1
        for sp, believes in enumerate(self.believes):
            believers = believes & rows
            # block x: the states s whose lane's s' selects x where s's bound
            # lacks x; folded by shifts, each linear in the batch's width
            bad = believers and believers & fold((sel >> sp & lows) * spread & outside)
            if bad:
                yield bad, sp

    # One scan per property: each walks the events E (or the pairs E, F) in
    # canonical order and yields the states that fail on them with
    # (E, F, s'): F is 0 if the property has none, and s' the believed
    # state the condition names (0 if none).

    def _scan_p2(self):
        # every believed state's selection for E inside E
        full = len(self.inside) - 1
        sel, inside, states = self.sel, self.inside, self.states
        for e in canonical_events(self.n):
            if sel[e] & inside[full ^ e]:
                for bad, sp in self._leaving(e, inside[e], states):
                    yield bad, (e, 0, sp)

    def _scan_p3(self):
        # every believed state in E in union[E]
        width, states = self.width, self.states
        for e in canonical_events(self.n):
            out = self.belief & self.inside[e] & ~self.union[e]
            if out:
                for sp in range(self.n):
                    bad = out >> sp * width & states
                    if bad:
                        yield bad, (e, 0, sp)

    def _scan_p4(self):
        # every believed state's selection for E inside belief & E,
        # where belief meets E
        for e in canonical_events(self.n):
            inside = self.belief & self.inside[e]
            meets = self._fold(inside)
            if meets:
                for bad, sp in self._leaving(e, inside, meets):
                    yield bad, (e, 0, sp)

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
                yield bad, (e, 0, 0)

    def _scan_p7(self):
        # union[E] & F inside union[E & F] when E and F overlap
        union, inside = self.union, self.inside
        for e, f in canonical_pairs(self.n):
            out = union[e] & inside[f] & ~union[e & f]
            if out:
                yield self._fold(out), (e, f, 0)

    def _scan_p8(self):
        # every believed state's selection for E & F inside union[E] & F,
        # where union[E] meets F; scanned only where the fold of union[E & F],
        # their selections' union, outside the bound meets those states
        union, inside, fold = self.union, self.inside, self._fold
        for e, f in canonical_pairs(self.n):
            met = union[e] & inside[f]
            out = union[e & f] & ~met
            if out and fold(out) & (meets := fold(met)):
                for bad, st in self._leaving(e & f, met, meets):
                    yield bad, (e, f, st)

    def lane_hits(self, k: PropertyId) -> tuple[int, list[tuple[int, int, int, int]]]:
        """The states where ``k`` fails, whose lane i is nonempty iff ``k``
        fails on frame i, and the data of the failing lanes' witnesses: the
        scan's hits ``(mask, E, F, s')``, each ``mask`` cut to the lanes'
        lowest failing states, so each failing lane's lowest failing state
        (bit ``lane*n + s``) is in exactly one hit, the one where it first
        failed.  :func:`first_hits` stops the scan once state 0 of every
        lane has failed, since no lane's witness can change then."""
        try:
            scan = _SCANS[_IDS.index(k)]
        except ValueError:
            raise ValueError(f"unknown property {k!r}") from None
        n, low = self.n, self.low
        failed, hits = first_hits(scan(self), self.states, low)
        lowest = low  # each lane's lowest failing state, if state 0 failed in all
        if failed & low != low:
            lowest, taken = 0, 0
            for s in range(n):
                pick = failed >> s & low & ~taken  # lanes whose lowest is s
                taken |= pick
                lowest |= pick << s
        return failed, [(bad & lowest, e, f, sp) for bad, (e, f, sp) in hits if bad & lowest]

    def witness(self, k: PropertyId) -> Witness | None:
        """None if the frame satisfies ``k``, else its minimal witness: its
        one hit's state is its lowest failing state."""
        if self.frame is None:
            raise ValueError("a batch's tables name no frame to witness")
        for mask, e, f, sp in self.lane_hits(k)[1]:
            return _WITNESSES[_IDS.index(k)](self.frame, mask.bit_length() - 1, e, f, sp)
        return None


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
