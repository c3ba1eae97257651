"""Decision procedures for the frame properties behind the revision postulates.

Each checker evaluates its quantified condition exactly and returns None on
a pass or a Witness carrying the failing instantiation.  Scans run over
states in index order and events in (size, value) order, so a returned
witness is the minimal one in that order.

P7 and P8 are checked through reformulations over the union-of-selections
table: for P7 the innermost universally quantified event is eliminated by
instantiating it with the strongest candidate; for P8 the existential
antecedent collapses to a nonempty-intersection test.  The literal
quantifier forms live in the test suite as the oracle for both.
"""

from __future__ import annotations

from enum import Enum

from .model import Frame, Witness, canonical_events


class PropertyId(Enum):
    P2 = "P2"
    P3 = "P3"
    P4 = "P4"
    P5 = "P5"
    P7 = "P7"
    P8 = "P8"


def check_property(frame: Frame, k: PropertyId) -> Witness | None:
    """None if the frame satisfies property ``k``, else a minimal witness."""
    try:
        check = _CHECKS[_CHECK_IDS.index(k)]
    except ValueError:
        raise ValueError(f"unknown property {k!r}") from None
    return check(frame)


def _check_p2(frame: Frame) -> Witness | None:
    """Every selection made from a believed state stays inside its event."""
    sel = frame.selection
    for s in range(frame.n):
        for e in canonical_events(frame.n):
            for sp in frame.believed[s]:
                if sel[sp][e] & ~e:
                    return Witness("P2", {"s": s, "s_prime": sp}, {"E": e})
    return None


def _check_p3(frame: Frame) -> Witness | None:
    """A believed state inside the event is always selected from some believed state."""
    for s in range(frame.n):
        for e in canonical_events(frame.n):
            u = frame.union[s][e]
            for sp in frame.believed[s]:
                if e >> sp & 1 and not u >> sp & 1:
                    return Witness("P3", {"s": s, "s_prime": sp}, {"E": e})
    return None


def _check_p4(frame: Frame) -> Witness | None:
    """When the event is doxastically possible, selections stay inside belief-and-event."""
    sel = frame.selection
    for s in range(frame.n):
        b = frame.belief[s]
        for e in canonical_events(frame.n):
            inside = b & e
            if inside == 0:
                continue
            for sp in frame.believed[s]:
                if sel[sp][e] & ~inside:
                    return Witness("P4", {"s": s, "s_prime": sp}, {"E": e})
    return None


def _check_p5(frame: Frame) -> Witness | None:
    """Some believed state selects a nonempty set for every event."""
    sel = frame.selection
    events = canonical_events(frame.n)
    for s in range(frame.n):
        members = frame.believed[s]
        for e in events:
            for sp in members:
                if sel[sp][e]:
                    break
            else:
                return Witness("P5", {"s": s}, {"E": e})
    return None


def _check_p7(frame: Frame) -> Witness | None:
    """Selections for an intersection cover the intersected selections.

    Reformulated: for overlapping events E, F, the union-of-selections for
    E intersected with F is contained in the union-of-selections for E&F.
    The witness carries G instantiated with that strongest candidate, so it
    is also a witness for the literal form.
    """
    events = canonical_events(frame.n)
    for s in range(frame.n):
        row = frame.union[s]
        for e in events:
            ue = row[e]
            for f in events:
                if e & f and ue & f & ~row[e & f]:
                    return Witness("P7", {"s": s}, {"E": e, "F": f, "G": row[e & f]})
    return None


def _check_p8(frame: Frame) -> Witness | None:
    """If some believed selection for E meets F, selections for E&F stay inside the met part."""
    sel = frame.selection
    events = canonical_events(frame.n)
    for s in range(frame.n):
        row = frame.union[s]
        members = frame.believed[s]
        for e in events:
            bound = row[e]
            for f in events:
                ef = e & f
                if ef == 0 or bound & f == 0:
                    continue
                for st in members:
                    if sel[st][ef] & ~(bound & f):
                        s_hat = next(sp for sp in members if sel[sp][e] & f)
                        return Witness(
                            "P8",
                            {"s": s, "s_hat": s_hat, "s_tilde": st},
                            {"E": e, "F": f},
                        )
    return None


# The checkers in PropertyId order, looked up by position: ``tuple.index``
# compares identities, where a dict would call the enum's Python-level hash.
_CHECKS = (_check_p2, _check_p3, _check_p4, _check_p5, _check_p7, _check_p8)
_CHECK_IDS = tuple(PropertyId)


def replay_witness(frame: Frame, w: Witness) -> bool:
    """True iff the witness's data still violates its property's matrix condition."""
    sel = frame.selection
    if w.kind == "P2":
        s, sp, e = w.states["s"], w.states["s_prime"], w.events["E"]
        return sp in frame.believed[s] and bool(sel[sp][e] & ~e)
    if w.kind == "P3":
        s, sp, e = w.states["s"], w.states["s_prime"], w.events["E"]
        return (
            sp in frame.believed[s]
            and bool(e >> sp & 1)
            and not frame.union[s][e] >> sp & 1
        )
    if w.kind == "P4":
        s, sp, e = w.states["s"], w.states["s_prime"], w.events["E"]
        inside = frame.belief[s] & e
        return sp in frame.believed[s] and inside != 0 and bool(sel[sp][e] & ~inside)
    if w.kind == "P5":
        s, e = w.states["s"], w.events["E"]
        return all(sel[sp][e] == 0 for sp in frame.believed[s])
    if w.kind == "P7":
        s, e, f, g = w.states["s"], w.events["E"], w.events["F"], w.events["G"]
        members = frame.believed[s]
        if e & f == 0:
            return False
        if any(sel[sp][e & f] & ~g for sp in members):
            return False
        return any(sel[sp][e] & f & ~g for sp in members)
    if w.kind == "P8":
        s, e, f = w.states["s"], w.events["E"], w.events["F"]
        s_hat, s_tilde = w.states["s_hat"], w.states["s_tilde"]
        members = frame.believed[s]
        if e == 0 or f == 0 or e & f == 0:
            return False
        if s_hat not in members or s_tilde not in members:
            return False
        if sel[s_hat][e] & f == 0:
            return False
        return bool(sel[s_tilde][e & f] & ~(frame.union[s][e] & f))
    raise ValueError(f"not a property witness: {w.kind!r}")
