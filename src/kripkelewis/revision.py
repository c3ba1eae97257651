"""Belief sets, revision and expansion read off a model, and the
event-level revision postulates.

At a state s the agent believes the Boolean formulas true throughout the
believed event.  Revision by an input formula keeps the formulas whose
truth set contains the union of believed selections for the input's truth
set; an input with an empty truth set returns everything (the convention
for inconsistent inputs).  Expansion keeps the formulas whose truth set
contains the believed states inside the input's truth set.

The postulates quantify the input over all nonempty events, since every
event is some formula's truth set under some valuation, and
``PostulateEvaluator`` checks them on one frame or on one sweep batch.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import Callable, NamedTuple

from .formula import Formula, require_boolean
from .model import Frame, Model, Witness, bit_indices, canonical_events, canonical_pairs, truth_set


class AgmPostulateId(Enum):
    K1 = "K1"
    K2 = "K2"
    K3 = "K3"
    K4 = "K4"
    K5A = "K5a"
    K5B = "K5b"
    K6 = "K6"
    K7 = "K7"
    K8 = "K8"


# Postulates with no frame condition: K1 and K6 hold on every frame, and
# K5a holds through the empty-input convention.  A tuple, because testing
# membership in it compares identities without calling the enum's hash.
UNCONDITIONAL = (AgmPostulateId.K1, AgmPostulateId.K5A, AgmPostulateId.K6)
# The others, in declaration order, each with a scan below.
CONDITIONED = tuple(k for k in AgmPostulateId if k not in UNCONDITIONAL)


def in_belief_set(m: Model, s: int, f: Formula) -> bool:
    """True iff the Boolean formula ``f`` is believed at state ``s``."""
    require_boolean(f)
    return m.frame.belief[s] & ~truth_set(m, f) == 0


def revise_membership(m: Model, s: int, input_f: Formula, query: Formula) -> bool:
    """True iff ``query`` survives revising the beliefs at ``s`` by ``input_f``.

    Equals the truth at ``s`` of the believed conditional from input to
    query.  An input with empty truth set admits every query.
    """
    require_boolean(input_f)
    require_boolean(query)
    antecedent = truth_set(m, input_f)
    if antecedent == 0:
        return True
    return m.frame.union[s][antecedent] & ~truth_set(m, query) == 0


def expand_membership(m: Model, s: int, input_f: Formula, query: Formula) -> bool:
    """True iff ``query`` belongs to the beliefs at ``s`` expanded by ``input_f``."""
    require_boolean(input_f)
    require_boolean(query)
    return m.frame.belief[s] & truth_set(m, input_f) & ~truth_set(m, query) == 0


def agm_event_check(frame: Frame, s: int, k: AgmPostulateId) -> Witness | None:
    """Event-level check of one revision postulate at one state.

    Inputs range over nonempty events E (and F for K7/K8; those two are
    vacuous when E and F do not overlap, since selection is undefined on
    the empty event).  Returns None when the postulate holds, else the
    first failing E (or (E, F)) in canonical order.  Refuses a state
    outside ``0 .. n-1`` as :func:`~kripkelewis.model.truth` does.
    """
    if not 0 <= s < frame.n:
        raise IndexError(f"state index {s} out of range")
    return PostulateEvaluator(frame).witnesses(k, 1 << s)[s]


class PostulateEvaluator:
    """Event-level checker of the revision postulates at every state of
    one frame, or of the frames of one sweep batch, frame i in lane i (see
    :class:`LaneLayout`).  Block x of ``union[e]`` holds the states whose
    union of believed selections for event e contains x, block x of
    ``belief`` those whose belief set contains x, and ``inside[e]`` is
    every block x with x in e.  A frame's tables are read off
    ``frame.union`` and ``frame.belief`` alone, and the postulates read
    their blocks directly, not the schema evaluator's superset masks.
    """

    __slots__ = ("n", "states", "inside", "_fold", "belief", "union")

    def __init__(self, frame: Frame | None = None, tables: LaneTables | None = None):
        n, lanes, _, self.union, self.belief = tables or frame_tables(frame)
        self.n = n
        layout = lane_layout(n, lanes)
        self.states, self.inside, self._fold = layout.states, layout.inside, layout.fold

    # One scan per postulate: each walks the inputs E (or E, then F) in
    # canonical order and yields the mask of states where the postulate
    # fails on them, with the input.

    def _scan_k2(self):
        # union[E] inside E
        full = len(self.inside) - 1
        for e in canonical_events(self.n):
            yield self._fold(self.union[e] & self.inside[full ^ e]), (e,)

    def _scan_k3(self):
        # belief & E inside union[E]
        for e in canonical_events(self.n):
            yield self._fold(self.belief & self.inside[e] & ~self.union[e]), (e,)

    def _scan_k4(self):
        # union[E] inside belief wherever belief meets E
        belief = self.belief
        for e in canonical_events(self.n):
            out = self.union[e] & ~belief
            if out:
                yield self._fold(out) & self._fold(belief & self.inside[e]), (e,)

    def _scan_k5b(self):
        # union[E] nonempty
        for e in canonical_events(self.n):
            yield self.states & ~self._fold(self.union[e]), (e,)

    def _scan_k7(self):
        # union[E] & F inside union[E & F] when E and F overlap
        union, inside = self.union, self.inside
        for e, f in canonical_pairs(self.n):
            out = union[e] & inside[f] & ~union[e & f]
            if out:
                yield self._fold(out), (e, f)

    def _scan_k8(self):
        # union[E & F] inside union[E] & F when union[E] meets F
        union, inside = self.union, self.inside
        for e, f in canonical_pairs(self.n):
            met = union[e] & inside[f]
            out = union[e & f] & ~met
            if met and out:
                yield self._fold(out) & self._fold(met), (e, f)

    def _hits(self, k: AgmPostulateId, live: int) -> tuple[int, list[tuple[int, tuple[int, ...]]]]:
        """:func:`first_hits` of the scan of ``k`` on the states in ``live``."""
        if k in UNCONDITIONAL:
            return 0, []
        try:
            scan = _SCANS[CONDITIONED.index(k)]
        except ValueError:
            raise ValueError(f"unknown postulate {k!r}") from None
        return first_hits(scan(self), live, live)

    def lane_failures(self, k: AgmPostulateId) -> int:
        """State mask, over every lane, of the states where ``k`` fails."""
        return self._hits(k, self.states)[0]

    def witnesses(self, k: AgmPostulateId, live: int | None = None) -> list[Witness | None]:
        """Per state of the frame (on a batch's tables, lane 0's): None
        where ``k`` holds or the state is not in ``live`` (default: every
        state), else its first failing input in canonical order."""
        found: list[Witness | None] = [None] * self.n
        full = (1 << self.n) - 1
        for bad, events in self._hits(k, full if live is None else live & full)[1]:
            for s in bit_indices(bad):
                found[s] = Witness(k.value, {"s": s}, dict(zip(("E", "F"), events)))
        return found


# The scan of each postulate in ``CONDITIONED``, looked up by position like
# the schema scans in ``axioms``.
_SCANS = (PostulateEvaluator._scan_k2, PostulateEvaluator._scan_k3, PostulateEvaluator._scan_k4,
          PostulateEvaluator._scan_k5b, PostulateEvaluator._scan_k7, PostulateEvaluator._scan_k8)

# The one input of the three evaluators: tables of ``lanes`` frames on ``n``
# states, ``sel`` and ``union`` indexed by event (0 at the empty one).
LaneTables = NamedTuple(
    "LaneTables", [("n", int), ("lanes", int), ("sel", list), ("union", list), ("belief", int)])


def frame_tables(frame: Frame | None, selection: bool = False) -> LaneTables:
    """The one-lane tables of ``frame``, with ``sel`` only if ``selection``:
    what an evaluator given no sweep batch's tables (those of
    ``correspondence._lane_tables``) reads, so it refuses a missing frame."""
    if frame is None:
        raise ValueError("an evaluator takes a frame or a batch's tables")
    heads = lane_layout(frame.n, 1).heads
    sel = _blocks(frame.selection, heads) if selection else []
    (belief,) = _blocks([(b,) for b in frame.belief], heads)
    return LaneTables(frame.n, 1, sel, _blocks(frame.union, heads), belief)


def _blocks(rows, heads: tuple[int, ...]) -> list[int]:
    """Per column e of the equally long ``rows`` of events, row s for
    state s: block x has bit s set iff state x is in ``rows[s][e]``.  An
    event is read whole, one lookup of its ``heads``, at any n."""
    columns = []
    for column in zip(*rows):
        blocks = 0
        for s, u in enumerate(column):
            blocks |= heads[u] << s
        columns.append(blocks)
    return columns


class LaneLayout(NamedTuple):
    """The bit geometry of ``lanes`` frames on n states that every lane
    table shares: bit ``lane*n + s`` of a state mask is state s of frame
    ``lane``, and a table holds n state masks in one int, block x at bit
    ``x*width``."""

    width: int  # bits of one state mask, n * lanes
    states: int  # every state of every lane
    low: int  # state 0 of each lane
    lows: int  # state 0 of each lane in every block
    heads: tuple[int, ...]  # per event e: bit 0 of block x for each state x in e
    inside: tuple[int, ...]  # per event e: every bit of block x for each state x in e
    fold: Callable[[int], int]  # blocks -> the states set in any block
    spread: Callable[[int], int]  # state mask -> every state of each lane it touches


@lru_cache(maxsize=None)
def lane_layout(n: int, lanes: int) -> LaneLayout:
    """The one :class:`LaneLayout` of ``lanes`` frames on n states."""
    full = (1 << n) - 1
    width = n * lanes
    states = (1 << width) - 1
    low = states // full
    shifts = range(width, n * width, width)  # of blocks 1 .. n-1
    heads = tuple(sum(1 << x * width for x in bit_indices(e)) for e in range(full + 1))

    def fold(blocks: int) -> int:
        mask = blocks
        for shift in shifts:
            mask |= blocks >> shift
        return mask & states

    def spread(mask: int) -> int:
        touched = mask
        for shift in range(1, n):
            touched |= mask >> shift
        return (touched & low) * full

    return LaneLayout(width, states, low, low * heads[full], heads,
                      tuple(bits * states for bits in heads), fold, spread)


def first_hits(scan, live: int, until: int,
               drop: Callable[[int], int] | None = None) -> tuple[int, list[tuple[int, object]]]:
    """The first hit of each state in ``live``, from ``scan``'s hits
    ``(bad, data)`` in order: each hit is cut to the live states and kept
    if any is left, and those states leave ``live`` (with ``drop``, the
    states ``drop(bad)`` names instead), until no state of ``until`` is
    live.  Returns the states of the kept hits and the kept hits."""
    failed, hits = 0, []
    for bad, data in scan:
        bad &= live
        if bad:
            failed |= bad
            hits.append((bad, data))
            live &= ~(drop(bad) if drop else bad)
            if not live & until:
                break
    return failed, hits
