"""Belief sets, revision and expansion read off a model, and the
event-level revision postulates.

At a state s the agent believes the Boolean formulas true throughout the
believed event.  Revision by an input formula keeps the formulas whose
truth set contains the union of believed selections for the input's truth
set; an input with an empty truth set returns everything (the convention
for inconsistent inputs).  Expansion keeps the formulas whose truth set
contains the believed states inside the input's truth set.

The postulates quantify the input over all nonempty events, since every
event is some formula's truth set under some valuation.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from itertools import chain

from .formula import Formula, require_boolean
from .model import Frame, Model, Witness, bit_indices, canonical_events, shared_size, truth_set


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
    first failing E (or (E, F)) in canonical order.
    """
    return PostulateEvaluator(frame).witnesses(k, 1 << s)[s]


class PostulateEvaluator:
    """Event-level checker of the revision postulates at every state of
    one or more frames on the same n states.

    Frame i occupies lane i, as in ``SchemaEvaluator``: bit ``i*n + s`` of
    a state mask stands for state s of frame i.  The tables hold n such
    masks in one int, a block of ``width`` bits per state x: block x of
    ``union[e]`` holds the states whose union of believed selections for
    event e contains x, block x of ``belief`` those whose belief set
    contains x, and ``inside[e]`` is every block x with x in e.  They are
    read off ``frame.union`` and ``frame.belief`` alone, so the postulates
    are checked independently of the schema evaluator's tables.
    """

    __slots__ = ("n", "width", "states", "inside", "belief", "union")

    def __init__(self, *frames: Frame):
        n = shared_size(frames)
        self.n = n
        self.width = n * len(frames)
        self.states = (1 << self.width) - 1
        self.inside = _inside(n, self.width)
        self.union = _blocks([row for frame in frames for row in frame.union], n)
        (self.belief,) = _blocks([(b,) for frame in frames for b in frame.belief], n)

    def _fold(self, blocks: int) -> int:
        """Mask of the states set in any block."""
        mask = 0
        while blocks:
            mask |= blocks & self.states
            blocks >>= self.width
        return mask

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
        events = canonical_events(self.n)
        for e in events:
            ue = union[e]
            for f in events:
                ef = e & f
                if ef:
                    out = ue & inside[f] & ~union[ef]
                    if out:
                        yield self._fold(out), (e, f)

    def _scan_k8(self):
        # union[E & F] inside union[E] & F when union[E] meets F
        union, inside = self.union, self.inside
        events = canonical_events(self.n)
        for e in events:
            ue = union[e]
            for f in events:
                ef = e & f
                if ef:
                    met = ue & inside[f]
                    out = union[ef] & ~met
                    if met and out:
                        yield self._fold(out) & self._fold(met), (e, f)

    def _hits(self, k: AgmPostulateId, live: int) -> list[tuple[int, tuple[int, ...]]]:
        """The scan of ``k`` on the states in ``live``: each input at which
        some of them fail first, with those states, until none is left."""
        if k in UNCONDITIONAL:
            return []
        hits = []
        for bad, events in _SCANS[CONDITIONED.index(k)](self):
            bad &= live
            if bad:
                hits.append((bad, events))
                live ^= bad
                if not live:
                    break
        return hits

    def lane_failures(self, k: AgmPostulateId) -> int:
        """State mask, over every lane, of the states where ``k`` fails."""
        failed = 0
        for bad, _ in self._hits(k, self.states):
            failed |= bad
        return failed

    def witnesses(self, k: AgmPostulateId, live: int | None = None) -> list[Witness | None]:
        """Per state of the first frame: None where ``k`` holds or the state
        is not in ``live`` (default: every state), else its first failing
        input in canonical order."""
        found: list[Witness | None] = [None] * self.n
        full = (1 << self.n) - 1
        for bad, events in self._hits(k, full if live is None else live & full):
            for s in bit_indices(bad):
                found[s] = Witness(k.value, {"s": s}, dict(zip(("E", "F"), events)))
        return found


# The scan of each postulate in ``CONDITIONED``, looked up by position like
# the schema scans in ``axioms``.
_SCANS = (PostulateEvaluator._scan_k2, PostulateEvaluator._scan_k3, PostulateEvaluator._scan_k4,
          PostulateEvaluator._scan_k5b, PostulateEvaluator._scan_k7, PostulateEvaluator._scan_k8)

# _DIGITS[x][u] is the ASCII digit of bit x of the byte u.
_DIGITS = [(b"0" * (1 << x) + b"1" * (1 << x)) * (128 >> x) for x in range(8)]


def _blocks(rows, n: int) -> list[int]:
    """Per column e of the equally long ``rows`` of events on n states:
    block x has bit i set iff state x is in ``rows[i][e]``.

    Spells each column as binary digits, highest bit first, and reads them
    with ``int``: the rows are flattened into bytes (eight states at a
    time), ``bytes.translate`` turns each byte into the digit of state x,
    and a slice stepping back over the rows picks column e.
    """
    step = len(rows[0])
    last = (len(rows) - 1) * step
    digits = []
    for low in range(0, n, 8):
        values = chain.from_iterable(rows)
        data = bytes(values) if n <= 8 else bytes(u >> low & 255 for u in values)
        digits += [data.translate(_DIGITS[x]) for x in range(min(8, n - low))]
    digits.reverse()  # highest state first
    return [int(b"".join([d[last + e :: -step] for d in digits]), 2) for e in range(step)]


@lru_cache(maxsize=None)
def _inside(n: int, width: int) -> tuple[int, ...]:
    """Indexed by event e: every bit of block x for each state x in e."""
    return tuple(_blocks([range(1 << n)] * width, n))
