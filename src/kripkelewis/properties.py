"""Decision procedures for the frame properties behind the revision postulates.

``PropertyEvaluator`` checks the properties on one or more frames at once,
frame i in lane i, and returns None on a pass or a Witness carrying the
failing instantiation.  Each property is one scan over events in (size,
value) order, with every state of every lane tested at once; a state's
first hit is its minimal (E, ...) instantiation, with the least believed
state the condition names, and a frame's witness is its lowest failing
state's.  So the witness is the minimal one in (s, E, ...) order, the
order in which a per-frame loop over states, then events, would meet it.

P7 and P8 are checked through reformulations over the union-of-selections
table: for P7 the innermost universally quantified event is eliminated by
instantiating it with the strongest candidate; for P8 the existential
antecedent collapses to a nonempty-intersection test.  The literal
quantifier forms, and the per-frame loops the evaluator replaced, live in
the test suite as oracles.
"""

from __future__ import annotations

from enum import Enum

from .model import Frame, Witness, canonical_events
from .revision import LaneTables, PostulateEvaluator, _inside, frame_tables


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
    as a state mask, and ``low`` has state 0 of every lane.
    """

    def __init__(self, *frames: Frame, tables: LaneTables | None = None):
        n, lanes, self.sel, self.union, self.belief = tables or frame_tables(frames, True)
        self.frames = frames
        self.n = n
        self.width = width = n * lanes
        self.shifts = range(width, n * width, width)  # of blocks 1 .. n-1
        self.states = (1 << width) - 1
        self.low = self.states // ((1 << n) - 1)
        self.inside = _inside(n, width)
        self.ones = self.inside[-1] // self.states  # bit 0 of every block
        self.lows = self.low * self.ones  # state 0 of every lane in every block
        self.believes = [self.belief >> x * width & self.states for x in range(n)]

    _fold = PostulateEvaluator._fold

    def _selected(self, e: int) -> list[int]:
        """Per state sp, ``sel[e]`` as sp selects: block x holds every
        state of each lane whose state sp's selection for e contains x."""
        sel, lows, spread = self.sel[e], self.lows, (1 << self.n) - 1
        return [(sel >> sp & lows) * spread for sp in range(self.n)]

    def _reach(self, selected: list[int]) -> int:
        """Blocks where block x holds the states believing some state whose
        blocks in ``selected`` hold x: the union of believed selections,
        read off ``sel``."""
        reach = 0
        for believes, blocks in zip(self.believes, selected):
            reach |= blocks & believes * self.ones
        return reach

    def _believing(self, rows: int) -> int:
        """The states that believe some state in ``rows`` of their lane."""
        spread, low = (1 << self.n) - 1, self.low
        out = 0
        for sp, believes in enumerate(self.believes):
            out |= believes & (rows >> sp & low) * spread
        return out

    # One scan per property: each walks the events E (or E, then F) in
    # canonical order and yields the states that fail on them with E, F
    # (0 if the property has none) and the believed state the condition
    # names (0 if none).

    def _scan_p2(self):
        # every believed state's selection for E inside E
        full = len(self.inside) - 1
        spread, low = full, self.low
        for e in canonical_events(self.n):
            out = self.sel[e] & self.inside[full ^ e]
            if out:
                out = self._fold(out)
                for sp, believes in enumerate(self.believes):
                    bad = believes & (out >> sp & low) * spread
                    if bad:
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
        fold, ones = self._fold, self.ones
        for e in canonical_events(self.n):
            inside = self.belief & self.inside[e]
            meets = fold(inside)
            if meets:
                selected, outside = self._selected(e), ~inside
                for sp, believes in enumerate(self.believes):
                    rows = believes & meets
                    out = selected[sp] & outside
                    if out & rows * ones:
                        yield rows & fold(out), e, 0, sp

    def _scan_p5(self):
        # some believed state's selection for E nonempty
        for e in canonical_events(self.n):
            bad = self.states & ~self._believing(self._fold(self.sel[e]))
            if bad:
                yield bad, e, 0, 0

    def _scan_p7(self):
        # union[E] & F inside union[E & F] when E and F overlap
        union, inside = self.union, self.inside
        events = canonical_events(self.n)
        for e in events:
            ue = union[e]
            for f in events:
                ef = e & f
                if ef:
                    out = ue & inside[f] & ~union[ef]
                    if out:
                        yield self._fold(out), e, f, 0

    def _scan_p8(self):
        # every believed state's selection for E & F inside union[E] & F,
        # where union[E] meets F; the believed states are scanned only
        # where the union of their selections is not inside
        union, inside, fold, ones = self.union, self.inside, self._fold, self.ones
        reached: list = [None] * len(inside)  # per event: selected, reach
        for e in canonical_events(self.n):
            ue = union[e]
            for f in canonical_events(self.n):
                ef = e & f
                if not ef:
                    continue
                met = ue & inside[f]
                meets = fold(met)
                if not meets:
                    continue
                if reached[ef] is None:
                    selected = self._selected(ef)
                    reached[ef] = selected, self._reach(selected)
                selected, reach = reached[ef]
                outside = ~met
                if reach & outside & meets * ones:
                    for st, believes in enumerate(self.believes):
                        rows = believes & meets
                        out = selected[st] & outside
                        if out & rows * ones:
                            yield rows & fold(out), e, f, st

    def lane_hits(self, k: PropertyId) -> tuple[int, list[tuple[int, int, int, int]]]:
        """The states where ``k`` fails, whose lane i is nonempty iff ``k``
        fails on frame i, and the data of each failing lane's witness: the
        first hit ``(bit, E, F, s')`` of its lowest failing state, with
        ``bit`` that state's bit ``lane*n + s``.  The scan stops once state
        0 of every lane has failed, since no lane's witness can change
        then."""
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
        found = []
        for bad, e, f, sp in hits:
            bad &= lowest
            if not bad:
                continue
            # each lowest failing state in this hit, read off binary digits
            digits = f"{bad:b}"
            top = len(digits) - 1
            at = digits.find("1")
            while at >= 0:
                found.append((top - at, e, f, sp))
                at = digits.find("1", at + 1)
        return failed, found

    def witnesses(self, k: PropertyId) -> list[Witness | None]:
        """Per frame: None if it satisfies ``k``, else its minimal witness."""
        found: list[Witness | None] = [None] * len(self.frames)
        _, hits = self.lane_hits(k)
        witness = _WITNESSES[_IDS.index(k)]
        for bit, e, f, sp in hits:
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
