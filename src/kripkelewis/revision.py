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

from .formula import Formula, require_boolean
from .model import Frame, Model, Witness, canonical_events, truth_set


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
    the empty event).  Returns None when the postulate holds.
    """
    if k in UNCONDITIONAL:
        return None
    union = frame.union[s]
    belief = frame.belief[s]
    events = canonical_events(frame.n)
    if k is AgmPostulateId.K2:
        for e in events:
            if union[e] & ~e:
                return Witness("K2", {"s": s}, {"E": e})
        return None
    if k is AgmPostulateId.K3:
        for e in events:
            if belief & e & ~union[e]:
                return Witness("K3", {"s": s}, {"E": e})
        return None
    if k is AgmPostulateId.K4:
        for e in events:
            if belief & e and union[e] & ~belief:
                return Witness("K4", {"s": s}, {"E": e})
        return None
    if k is AgmPostulateId.K5B:
        for e in events:
            if union[e] == 0:
                return Witness("K5b", {"s": s}, {"E": e})
        return None
    if k is AgmPostulateId.K7:
        for e in events:
            ue = union[e]
            for f in events:
                if e & f and ue & f & ~union[e & f]:
                    return Witness("K7", {"s": s}, {"E": e, "F": f})
        return None
    if k is AgmPostulateId.K8:
        for e in events:
            ue = union[e]
            for f in events:
                if e & f and ue & f and union[e & f] & ~(ue & f):
                    return Witness("K8", {"s": s}, {"E": e, "F": f})
        return None
    raise ValueError(f"unknown postulate {k!r}")
