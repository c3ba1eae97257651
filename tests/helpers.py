"""Shared generators and independent oracles for the test suite.

The oracles here deliberately re-derive results through different
representations than the library uses: classification by top-down
membership predicates, frame properties over frozensets instead of
bitmasks, rules of inference through concrete models instead of the
schema evaluator's tables, P7 and P8 through their literal quantifier
forms, the lane-packed property evaluator by its per-frame loops,
sampled frames as drawn tuples instead of frame codes, the
evaluator's tables by per-entry subset tests and its schema and rule
scans as one mask formula each under ``product``, the postulates by
loops over one state's union table, the frame loader, union table,
code decoder and JSON writer by the per-entry loops they replaced, the
exhaustive fold by one record per frame, and a batch's lane tables by
each frame's one-lane tables placed lane by lane.
Expected values frozen into the golden tests were computed with these.
Three routes live here because only tests call them: every small frame,
decoded once per session, the property witnesses replayed one at a time
against their conditions, and frames batched into the lane tables a
sweep batch reads (``batch_tables``).
"""

from __future__ import annotations

import os
import random
from collections.abc import Mapping
from functools import cache, partial
from itertools import chain, combinations, product

from kripkelewis import (
    AgmPostulateId,
    And,
    Atom,
    AxiomId,
    Bel,
    Box,
    Cond,
    Frame,
    FrameIssue,
    Iff,
    Implies,
    Model,
    Not,
    Or,
    PropertyId,
    SyntacticClass,
    Witness,
    canonical_events,
    frame_count,
    frame_from_code,
    is_wellformed,
    sample_frames,
)
import kripkelewis.correspondence as correspondence
from kripkelewis.axioms import LETTERS
from kripkelewis.model import MAX_MISSING_SELECTION_ENTRIES, bit_indices
from kripkelewis.revision import LaneTables, frame_tables
from kripkelewis.model import _truth as truth_unchecked
from kripkelewis.model import _truth_set as truth_set_unchecked

ATOM_NAMES = ("p", "q", "r", "a", "b")
BINARY = (Or, And, Implies, Iff)


# --- random formula generators -------------------------------------------

def gen_phi0(rng: random.Random, depth: int = 3, names=ATOM_NAMES):
    if depth == 0 or rng.random() < 0.3:
        return Atom(rng.choice(names))
    kind = rng.randrange(5)
    if kind == 0:
        return Not(gen_phi0(rng, depth - 1, names))
    ctor = BINARY[kind - 1]
    return ctor(gen_phi0(rng, depth - 1, names), gen_phi0(rng, depth - 1, names))


def gen_cond(rng: random.Random, depth: int = 2, names=ATOM_NAMES):
    return Cond(gen_phi0(rng, depth, names), gen_phi0(rng, depth, names))


def gen_phi1(rng: random.Random, depth: int = 3, names=ATOM_NAMES):
    if depth == 0:
        return gen_cond(rng, 1, names) if rng.random() < 0.5 else Atom(rng.choice(names))
    r = rng.random()
    if r < 0.25:
        return gen_phi0(rng, depth - 1, names)
    if r < 0.5:
        return gen_cond(rng, depth - 1, names)
    if r < 0.65:
        return Not(gen_phi1(rng, depth - 1, names))
    ctor = rng.choice(BINARY)
    return ctor(gen_phi1(rng, depth - 1, names), gen_phi1(rng, depth - 1, names))


def gen_wellformed(rng: random.Random, depth: int = 3, names=ATOM_NAMES):
    """Arbitrary member of the full language (never illformed)."""
    if depth == 0:
        return Atom(rng.choice(names))
    r = rng.random()
    if r < 0.2:
        return gen_phi1(rng, depth, names)
    if r < 0.35:
        return Bel(gen_phi1(rng, depth - 1, names))
    if r < 0.5:
        return Box(gen_phi0(rng, depth - 1, names))
    if r < 0.65:
        return Not(gen_wellformed(rng, depth - 1, names))
    ctor = rng.choice(BINARY)
    return ctor(gen_wellformed(rng, depth - 1, names), gen_wellformed(rng, depth - 1, names))


def gen_any_tree(rng: random.Random, depth: int = 3, names=ATOM_NAMES):
    """Arbitrary operator tree, layering ignored (may be illformed)."""
    if depth == 0:
        return Atom(rng.choice(names))
    kind = rng.randrange(9)
    if kind == 0:
        return Atom(rng.choice(names))
    if kind == 1:
        return Not(gen_any_tree(rng, depth - 1, names))
    if kind <= 5:
        ctor = BINARY[kind - 2]
        return ctor(gen_any_tree(rng, depth - 1, names), gen_any_tree(rng, depth - 1, names))
    if kind == 6:
        return Cond(gen_any_tree(rng, depth - 1, names), gen_any_tree(rng, depth - 1, names))
    if kind == 7:
        return Bel(gen_any_tree(rng, depth - 1, names))
    return Box(gen_any_tree(rng, depth - 1, names))


# --- frame streams ------------------------------------------------------

@cache
def enumerate_frames(n: int) -> tuple[Frame, ...]:
    """All frames on one or two states, each exactly once, in ascending code
    order: a tuple decoded once per session and shared by every caller.
    Refuses n >= 3, where the count, frame_count(n), is already
    astronomical."""
    if not 1 <= n <= 2:
        raise ValueError(f"enumerates frames on 1 or 2 states, not {n}")
    return tuple(map(partial(frame_from_code, n), range(frame_count(n))))


def random_frame(rng: random.Random, n: int | None = None) -> Frame:
    n = n or rng.choice((1, 2, 3))
    return next(sample_frames(n, 1, seed=rng.randrange(2**30)))


def random_model(rng: random.Random, n: int | None = None, atoms=("p", "q", "r")) -> Model:
    frame = random_frame(rng, n)
    full = frame.full
    valuation = {a: rng.randrange(0, full + 1) for a in atoms}
    return Model(frame, valuation)


# --- classification oracle (top-down membership predicates) ---------------

def oracle_is_phi0(f) -> bool:
    if isinstance(f, Atom):
        return True
    if isinstance(f, Not):
        return oracle_is_phi0(f.body)
    if isinstance(f, BINARY):
        return oracle_is_phi0(f.left) and oracle_is_phi0(f.right)
    return False


def oracle_is_cond(f) -> bool:
    return (
        isinstance(f, Cond)
        and oracle_is_phi0(f.antecedent)
        and oracle_is_phi0(f.consequent)
    )


def oracle_in_phi1(f) -> bool:
    if oracle_is_phi0(f) or oracle_is_cond(f):
        return True
    if isinstance(f, Not):
        return oracle_in_phi1(f.body)
    if isinstance(f, BINARY):
        return oracle_in_phi1(f.left) and oracle_in_phi1(f.right)
    return False


def oracle_is_phib(f) -> bool:
    return isinstance(f, Bel) and oracle_in_phi1(f.body)


def oracle_is_phibox(f) -> bool:
    return isinstance(f, Box) and oracle_is_phi0(f.body)


def oracle_in_phi(f) -> bool:
    if oracle_in_phi1(f) or oracle_is_phib(f) or oracle_is_phibox(f):
        return True
    if isinstance(f, Not):
        return oracle_in_phi(f.body)
    if isinstance(f, BINARY):
        return oracle_in_phi(f.left) and oracle_in_phi(f.right)
    return False


def oracle_classify(f) -> SyntacticClass:
    if oracle_is_phi0(f):
        return SyntacticClass.PHI0
    if oracle_is_cond(f):
        return SyntacticClass.PHI_COND
    if oracle_in_phi1(f):
        return SyntacticClass.PHI1
    if oracle_is_phib(f):
        return SyntacticClass.PHI_B
    if oracle_is_phibox(f):
        return SyntacticClass.PHI_BOX
    if oracle_in_phi(f):
        return SyntacticClass.PHI
    return SyntacticClass.ILLFORMED


# --- frame property oracle over frozensets --------------------------------

def _as_sets(frame: Frame):
    states = frozenset(range(frame.n))
    to_set = lambda mask: frozenset(i for i in range(frame.n) if mask >> i & 1)
    belief = {s: to_set(frame.belief[s]) for s in range(frame.n)}
    sel = {
        (s, to_set(e)): to_set(frame.selection[s][e])
        for s in range(frame.n)
        for e in range(1, frame.full + 1)
    }
    return states, belief, sel


def _subsets(states, include_empty=False):
    items = sorted(states)
    start = 0 if include_empty else 1
    return [
        frozenset(c)
        for size in range(start, len(items) + 1)
        for c in combinations(items, size)
    ]


def oracle_property_holds(frame: Frame, kind: str) -> bool:
    """Literal quantifier translation of each property over frozensets."""
    states, belief, sel = _as_sets(frame)
    events = _subsets(states)
    if kind == "P2":
        return all(
            sel[(sp, e)] <= e for s in states for e in events for sp in belief[s]
        )
    if kind == "P3":
        for s in states:
            for e in events:
                union = frozenset(chain.from_iterable(sel[(x, e)] for x in belief[s]))
                if any(sp in e and sp not in union for sp in belief[s]):
                    return False
        return True
    if kind == "P4":
        for s in states:
            for e in events:
                if belief[s] & e:
                    if any(not sel[(sp, e)] <= (belief[s] & e) for sp in belief[s]):
                        return False
        return True
    if kind == "P5":
        return all(
            any(sel[(sp, e)] for sp in belief[s]) for s in states for e in events
        )
    if kind == "P7":
        all_events = _subsets(states, include_empty=True)
        for s in states:
            for e in events:
                for f in events:
                    if not e & f:
                        continue
                    for g in all_events:
                        if all(sel[(sp, e & f)] <= g for sp in belief[s]) and any(
                            not (sel[(sp, e)] & f) <= g for sp in belief[s]
                        ):
                            return False
        return True
    if kind == "P8":
        for s in states:
            for e in events:
                for f in events:
                    if not e & f:
                        continue
                    if not any(sel[(sp, e)] & f for sp in belief[s]):
                        continue
                    bound = frozenset(
                        chain.from_iterable(sel[(x, e)] & f for x in belief[s])
                    )
                    if any(not sel[(sp, e & f)] <= bound for sp in belief[s]):
                        return False
        return True
    raise ValueError(kind)


# --- literal quantifier forms of P7 and P8 --------------------------------

def check_p7_literal(frame: Frame) -> Witness | None:
    """P7 with every quantifier verbatim, the innermost event G included;
    the witness is minimal in the library's scan order."""
    sel = frame.selection
    events = canonical_events(frame.n)
    all_events = (0, *events)  # the empty event first, as in canonical order
    for s in range(frame.n):
        members = frame.believed[s]
        for e in events:
            for f in events:
                ef = e & f
                if ef == 0:
                    continue
                for g in all_events:
                    if any(sel[sp][ef] & ~g for sp in members):
                        continue
                    if any(sel[sp][e] & f & ~g for sp in members):
                        return Witness("P7", {"s": s}, {"E": e, "F": f, "G": g})
    return None


def check_p8_literal(frame: Frame) -> Witness | None:
    """P8 with its existential antecedent searched state by state."""
    sel = frame.selection
    events = canonical_events(frame.n)
    for s in range(frame.n):
        members = frame.believed[s]
        for e in events:
            for f in events:
                ef = e & f
                if ef == 0:
                    continue
                s_hat = next((sp for sp in members if sel[sp][e] & f), None)
                if s_hat is None:
                    continue
                bound = 0
                for x in members:
                    bound |= sel[x][e] & f
                for st in members:
                    if sel[st][ef] & ~bound:
                        return Witness(
                            "P8",
                            {"s": s, "s_hat": s_hat, "s_tilde": st},
                            {"E": e, "F": f},
                        )
    return None


LITERAL_FORMS = {PropertyId.P7: check_p7_literal, PropertyId.P8: check_p8_literal}


# --- per-frame property loops ---------------------------------------------
#
# The checkers the lane-packed ``PropertyEvaluator`` replaced: one frame at
# a time, states first, then events in canonical order, then the believed
# state, so each returns the minimal witness in (s, E, ...) order.  P7 and
# P8 use the library's reformulations over the union table.

def oracle_check_p2(frame: Frame) -> Witness | None:
    sel = frame.selection
    for s in range(frame.n):
        for e in canonical_events(frame.n):
            for sp in frame.believed[s]:
                if sel[sp][e] & ~e:
                    return Witness("P2", {"s": s, "s_prime": sp}, {"E": e})
    return None


def oracle_check_p3(frame: Frame) -> Witness | None:
    for s in range(frame.n):
        for e in canonical_events(frame.n):
            u = frame.union[s][e]
            for sp in frame.believed[s]:
                if e >> sp & 1 and not u >> sp & 1:
                    return Witness("P3", {"s": s, "s_prime": sp}, {"E": e})
    return None


def oracle_check_p4(frame: Frame) -> Witness | None:
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


def oracle_check_p5(frame: Frame) -> Witness | None:
    sel = frame.selection
    for s in range(frame.n):
        for e in canonical_events(frame.n):
            if not any(sel[sp][e] for sp in frame.believed[s]):
                return Witness("P5", {"s": s}, {"E": e})
    return None


def oracle_check_p7(frame: Frame) -> Witness | None:
    events = canonical_events(frame.n)
    for s in range(frame.n):
        row = frame.union[s]
        for e in events:
            for f in events:
                if e & f and row[e] & f & ~row[e & f]:
                    return Witness("P7", {"s": s}, {"E": e, "F": f, "G": row[e & f]})
    return None


def oracle_check_p8(frame: Frame) -> Witness | None:
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
                            "P8", {"s": s, "s_hat": s_hat, "s_tilde": st}, {"E": e, "F": f})
    return None


ORACLE_PROPERTY_CHECKS = {
    PropertyId.P2: oracle_check_p2,
    PropertyId.P3: oracle_check_p3,
    PropertyId.P4: oracle_check_p4,
    PropertyId.P5: oracle_check_p5,
    PropertyId.P7: oracle_check_p7,
    PropertyId.P8: oracle_check_p8,
}


def replay_witness(frame: Frame, w: Witness) -> bool:
    """True iff the witness's data still violates its property's matrix
    condition: a second route to the property conditions, read off the
    frame's selection and union tables one witness at a time."""
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


# --- frame sampling oracle -------------------------------------------------

def oracle_sample_tuples(n: int, count: int, seed: int) -> list[tuple[tuple, tuple]]:
    """``(belief, selection)`` tuples drawn as the sampler did before it
    drew frame codes: per frame, n belief sets, then each state's
    selection row in event order, with the placeholder 0 in front."""
    rng = random.Random(seed)
    full = (1 << n) - 1
    out = []
    for _ in range(count):
        belief = tuple(rng.randrange(1, full + 1) for _ in range(n))
        selection = tuple(
            (0,) + tuple(rng.randrange(0, full + 1) for _ in range(full))
            for _ in range(n)
        )
        out.append((belief, selection))
    return out


def oracle_sample_codes(n: int, count: int, seed: int) -> list[int]:
    """The codes of the frames the seeded stream draws, as the sampler drew
    them before it parsed blocks of words: digit by digit, each belief digit
    by ``getrandbits(n)`` and each selection digit by ``getrandbits(n + 1)``,
    redrawn while out of range, folded into frame code digits as drawn."""
    getrandbits = random.Random(seed).getrandbits
    full = (1 << n) - 1
    base = full + 1
    codes = []
    for _ in range(count):
        code = 0
        for _ in range(n):
            while (d := getrandbits(n)) >= full:
                pass
            code = code * full + d
        for _ in range(n * full):
            while (d := getrandbits(n + 1)) >= base:
                pass
            code = code << n | d
        codes.append(code)
    return codes


def code_digits(n: int, codes) -> tuple[bytes, bytes]:
    """A batch of frame codes as the belief and selection bytes the batch
    route reads: per frame, each state's belief set, then each state's
    selection row in event order, read off the code by divmod."""
    full = (1 << n) - 1
    beliefs, selections = [], []
    for code in codes:
        rows = []
        for _ in range(n * full):
            code, d = divmod(code, full + 1)
            rows.append(d)
        states = []
        for _ in range(n):
            code, d = divmod(code, full)
            states.append(d + 1)
        beliefs += reversed(states)
        selections += reversed(rows)
    return bytes(beliefs), bytes(selections)


def code_batches(n: int, codes) -> list[tuple[bytes, bytes]]:
    """``codes`` as the batches a random partition checks, ``BATCH_FRAMES``
    (read at the call) codes each, through :func:`code_digits`."""
    codes, size = list(codes), correspondence.BATCH_FRAMES
    return [code_digits(n, codes[lo : lo + size]) for lo in range(0, len(codes), size)]


def batch_tables(frames) -> LaneTables:
    """The lane tables of ``frames`` (on one state count, at most eight),
    frame i in lane i, as a sweep batch builds them: the frames'
    ``_frame_bytes`` joined and read by ``_lane_tables``."""
    beliefs, selections = map(b"".join, zip(*map(correspondence._frame_bytes, frames)))
    return correspondence._lane_tables(frames[0].n, beliefs, selections)


def oracle_lane_tables(frames) -> LaneTables:
    """The lane tables of ``frames``, frame i in lane i, placed lane by
    lane: block x (n bits) of each entry of frame i's one-lane
    ``frame_tables`` moved to bit ``x * width + i * n``."""
    n, lanes = frames[0].n, len(frames)
    full, width = (1 << n) - 1, n * lanes
    ones = [frame_tables(frame, selection=True) for frame in frames]

    def place(entries) -> int:  # one entry per lane
        return sum((entry >> x * n & full) << x * width + i * n
                   for i, entry in enumerate(entries) for x in range(n))

    return LaneTables(n, lanes, [place(column) for column in zip(*(t.sel for t in ones))],
                      [place(column) for column in zip(*(t.union for t in ones))],
                      place([t.belief for t in ones]))


def oracle_profile_fold(config: dict, codes) -> correspondence.Report:
    """``_fold_profiles`` frame by frame, at any state count: each state's
    profile key ``belief[s] - 1 << width | row``, ``row`` spelling
    ``union[s]`` event 1 first, and ``_profile_columns`` on the distinct
    keys; per frame each check fails where it fails at some state, and
    each replay is that of the lowest violating state.  The verdicts go
    into a ``FrameRecord``, its discrepancies through ``_discrepancies``,
    counted by ``Report.add_record``."""
    n, ks = config["size"], tuple(config["ks"])
    m, full = len(ks), (1 << n) - 1

    def profile_key(frame: Frame, s: int) -> int:
        row = 0
        for e in range(1, full + 1):
            row = row << n | frame.union[s][e]
        return frame.belief[s] - 1 << n * full | row

    frames = [(code, frame_from_code(n, code)) for code in codes]
    keys = sorted({profile_key(frame, s) for _, frame in frames for s in range(n)})
    groups = correspondence._profile_columns(n, keys, ks)
    # per key: the replay, Pk, Ak and Kk columns of each k, then A1: 1 where it fails
    verdicts = {key: [groups[c // m][i] >> c % m & 1 for c in range(4 * m)] + [groups[1][i] >> 7]
                for i, key in enumerate(keys)}
    report = correspondence.Report.empty(config)
    for code, frame in frames:
        states = [verdicts[profile_key(frame, s)] for s in range(n)]
        holds = [not any(v[c] for v in states) for c in range(4 * m + 1)]
        replays = []
        for i, k in enumerate(ks):
            violating = [v for v in states if v[m + i]]
            if violating:
                replays.append((k, bool(violating[0][i])))
        record = correspondence.FrameRecord(
            f"{n}:{code}",
            {k: holds[m + i] for i, k in enumerate(ks)},
            {k: holds[2 * m + i] for i, k in enumerate(ks)},
            {k: holds[3 * m + i] for i, k in enumerate(ks)},
            {name: holds[4 * m] or j > 0
             for j, name in enumerate(correspondence.ALWAYS_VALID_NAMES)},
            replays, [])
        record.discrepancies = correspondence._discrepancies(record)
        report.add_record(record)
    return report


def no_children() -> None:
    """Asserts that this process has no child, running or unreaped: what a
    sweep leaves once it returns or raises."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise AssertionError("a child process is left")


# --- model semantics without the per-call well-formedness check -----------

def wellformed(f):
    """``f`` after one well-formedness check.  Oracles that evaluate one
    formula on many models check it once here and then call
    ``truth_unchecked``/``truth_set_unchecked``, the recursions behind the
    public ``truth``/``truth_set``, which re-check it at every call."""
    assert is_wellformed(f), f
    return f


# --- rule-of-inference oracle over concrete models ------------------------

P, Q, R = Atom("p"), Atom("q"), Atom("r")
RULE_K5A_TEMPLATE = wellformed(Bel(Cond(P, Q)))
RULE_K6_TEMPLATE = wellformed(Iff(Bel(Cond(P, R)), Bel(Cond(Q, R))))


def _first_false_state(mask: int, full: int) -> int:
    return ((mask ^ full) & -(mask ^ full)).bit_length() - 1


def oracle_rule_valid(frame: Frame, k: AxiomId) -> Witness | None:
    """A rule of inference checked through the model semantics: one model
    with fresh atoms per assignment, evaluated by ``truth_set``'s recursion.

    RuleK5a: an impossible antecedent (p empty) makes B(p > q) hold at every
    state, whatever q.  RuleK6: antecedents with the same event (p = q)
    make B(p > r) and B(q > r) agree, whatever r.
    """
    full = frame.full
    if k is AxiomId.RULE_K5A:
        for b in range(full + 1):
            mask = truth_set_unchecked(Model(frame, {"p": 0, "q": b}), RULE_K5A_TEMPLATE)
            if mask != full:
                return Witness("RuleK5a", {"s": _first_false_state(mask, full)}, {"p": 0, "q": b})
        return None
    if k is AxiomId.RULE_K6:
        for a in range(full + 1):
            for c in range(full + 1):
                valuation = {"p": a, "q": a, "r": c}
                mask = truth_set_unchecked(Model(frame, valuation), RULE_K6_TEMPLATE)
                if mask != full:
                    return Witness("RuleK6", {"s": _first_false_state(mask, full)}, valuation)
        return None
    raise ValueError(f"{k.value} is a schema")


# --- schema-scan oracle: subset-test tables and one formula per schema ----

def oracle_tables(frame: Frame) -> tuple[list[int], list[list[int]]]:
    """``(bel, bel_cond)`` of ``SchemaEvaluator`` by one subset test per
    state and entry: ``bel[x]`` holds the states whose belief set lies
    inside x, ``bel_cond[a][b]`` those whose union of believed selections
    for a lies inside b (every state when a is empty)."""
    full, n = frame.full, frame.n
    bel = [0] * (full + 1)
    for x in range(full + 1):
        for s in range(n):
            if frame.belief[s] & ~x == 0:
                bel[x] |= 1 << s
    bel_cond = [[full] * (full + 1)]
    for a in range(1, full + 1):
        row = [0] * (full + 1)
        for b in range(full + 1):
            for s in range(n):
                if frame.union[s][a] & ~b == 0:
                    row[b] |= 1 << s
        bel_cond.append(row)
    return bel, bel_cond


# Mask of states where each schema's instance holds under letter events
# (a, b, c), read off the tables with the connectives as mask operations.

def _a1(full, bel, bc, a, b, c):
    ante = bc[a][b] & bc[a][(full ^ b) | c]
    return (full ^ ante) | bc[a][c]


def _a2(full, bel, bc, a):
    return bc[a][a]


def _a3(full, bel, bc, a, b):
    ante = (full if a else 0) & bc[a][b]
    return (full ^ ante) | bel[(full ^ a) | b]


def _a4(full, bel, bc, a, b):
    ante = (full ^ bel[full ^ a]) & bel[(full ^ a) | b]
    return (full ^ ante) | bc[a][b]


def _a5(full, bel, bc, a, b):
    ante = (full if a else 0) & bc[a][b]
    return (full ^ ante) | (full ^ bc[a][full ^ b])


def _a7(full, bel, bc, a, b, c):
    ab = a & b
    ante = (full if ab else 0) & bc[ab][c]
    return (full ^ ante) | bc[a][(full ^ b) | c]


def _a8(full, bel, bc, a, b, c):
    ante = (full ^ bc[a][full ^ b]) & bc[a][(full ^ b) | c]
    return (full ^ ante) | bc[a & b][b & c]


ORACLE_SCHEMAS = {
    AxiomId.A1: (_a1, 3),
    AxiomId.A2: (_a2, 1),
    AxiomId.A3: (_a3, 2),
    AxiomId.A4: (_a4, 2),
    AxiomId.A5: (_a5, 2),
    AxiomId.A7: (_a7, 3),
    AxiomId.A8: (_a8, 3),
}


def oracle_scan_hits(frames, tables, k: AxiomId) -> list[tuple[int, tuple[int, ...]]]:
    """What the scan of ``k`` over every event for each letter yields on an
    evaluator holding ``frames`` (frame i in lane i), from ``tables[i] =
    oracle_tables(frames[i])``: each assignment in ``product`` order whose
    instance fails somewhere, with the mask of those states, bit ``i*n + s``."""
    full, n = frames[0].full, frames[0].n
    holds, letters = ORACLE_SCHEMAS[k]
    lanes = [(partial(holds, full, *t), i * n) for i, t in enumerate(tables)]
    hits = []
    for assignment in product(range(full + 1), repeat=letters):
        bad = 0
        for check, shift in lanes:
            bad |= (full ^ check(*assignment)) << shift
        if bad:
            hits.append((bad, assignment))
    return hits


def oracle_holds_mask(frame: Frame, tables, k: AxiomId, assignment: tuple[int, ...]) -> int:
    """Mask of states where the instance of ``k`` under ``assignment``
    holds, from ``tables = oracle_tables(frame)``."""
    schema, _ = ORACLE_SCHEMAS[k]
    return schema(frame.full, *tables, *assignment)


def oracle_check_axiom(frame: Frame, k: AxiomId, tables=None) -> Witness | None:
    """Every assignment in ``product`` order; the first falsifying one
    with its lowest falsified state, or None."""
    schema, letters = ORACLE_SCHEMAS[k]
    full = frame.full
    holds = partial(schema, full, *(tables or oracle_tables(frame)))
    for assignment in product(range(full + 1), repeat=letters):
        mask = holds(*assignment)
        if mask != full:
            state = _first_false_state(mask, full)
            return Witness(k.value, {"s": state}, dict(zip(LETTERS, assignment)))
    return None


def ranked_frame(rng: random.Random, n: int) -> Frame:
    """A frame on which every schema is valid, so every scan runs to the end.

    All states believe one nonempty event B; each believed state selects
    from an event its members of least rank, B being the bottom rank, and
    the rows of the other states are drawn at random (no property reads
    them).
    """
    full = (1 << n) - 1
    believed = rng.randrange(1, full + 1)
    rank = [0 if believed >> i & 1 else rng.randrange(1, n + 1) for i in range(n)]
    selection = []
    for x in range(n):
        row = [0]
        for e in range(1, full + 1):
            if believed >> x & 1:
                low = min(rank[i] for i in range(n) if e >> i & 1)
                row.append(sum(1 << i for i in range(n) if e >> i & 1 and rank[i] == low))
            else:
                row.append(rng.randrange(full + 1))
        selection.append(row)
    return Frame([f"s{i}" for i in range(n)], [believed] * n, selection)


# --- postulate oracle: one state at a time over the union table ----------

def oracle_agm_event_check(frame: Frame, s: int, k: AgmPostulateId) -> Witness | None:
    """One postulate at one state by direct loops over ``frame.union[s]``:
    None if it holds, else the first failing E (or (E, F)) in canonical
    order."""
    if k in (AgmPostulateId.K1, AgmPostulateId.K5A, AgmPostulateId.K6):
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


# --- loader oracles: the per-entry loops the table operations replaced ----

def oracle_validate_frame(data):
    """The loader's validation as two passes over the selection entries with
    per-entry ``where`` strings: ``((states, belief, selection), [])`` with
    the tables as tuples, or ``(None, issues)``."""
    if not isinstance(data, Mapping):
        return None, [FrameIssue("bad_structure", "a frame must be a JSON object")]
    issues = []
    raw_states = data.get("states")
    if not isinstance(raw_states, (list, tuple)) or not raw_states:
        return None, [FrameIssue("bad_structure", "'states' must be a nonempty list")]
    if not all(isinstance(s, str) for s in raw_states):
        return None, [FrameIssue("bad_structure", "state names must be strings")]
    states = tuple(raw_states)
    if len(set(states)) != len(states):
        return None, [FrameIssue("bad_structure", "duplicate state names")]
    raw_belief = data.get("belief", {})
    if not isinstance(raw_belief, Mapping):
        return None, [FrameIssue("bad_structure", "'belief' must be an object")]
    raw_selection = data.get("selection", [])
    if not isinstance(raw_selection, (list, tuple)) or not all(
        isinstance(entry, Mapping) for entry in raw_selection
    ):
        return None, [FrameIssue("bad_structure", "'selection' must be a list of objects")]
    n = len(states)
    index = {name: i for i, name in enumerate(states)}
    full = (1 << n) - 1

    def mask_of(names, where: str) -> int | None:
        if not isinstance(names, (list, tuple)):
            issues.append(FrameIssue("bad_structure", f"{where} must be a list of state names"))
            return None
        mask = 0
        ok = True
        for name in names:
            i = index.get(name) if isinstance(name, str) else None
            if i is None:
                issues.append(FrameIssue("unknown_state", f"{name!r} in {where}"))
                ok = False
            else:
                mask |= 1 << i
        return mask if ok else None

    belief = [0] * n
    for name, members in raw_belief.items():
        i = index.get(name)
        if i is None:
            issues.append(FrameIssue("unknown_state", f"{name!r} in belief"))
            continue
        mask = mask_of(members, f"belief[{name}]")
        if mask is not None:
            belief[i] = mask
    for i, mask in enumerate(belief):
        if mask == 0:
            issues.append(FrameIssue("non_serial", f"belief set of {states[i]} is empty"))

    needed = n * full
    if needed - len(raw_selection) > MAX_MISSING_SELECTION_ENTRIES:
        issues.append(FrameIssue(
            "missing_selection_entry",
            f"{len(raw_selection)} selection entries given, {n} states need {needed}"))
        return None, issues
    selection = [[None] * (full + 1) for _ in range(n)]
    for entry in raw_selection:
        name = entry.get("state")
        i = index.get(name) if isinstance(name, str) else None
        if i is None:
            issues.append(FrameIssue("unknown_state", f"{name!r} in selection"))
            continue
        event = mask_of(entry.get("event", []), f"selection event for {name}")
        selected = mask_of(entry.get("selected", []), f"selection value for {name}")
        if event is None or selected is None:
            continue
        if event == 0:
            issues.append(
                FrameIssue("empty_event", f"selection entry for {name} has an empty event")
            )
            continue
        if selection[i][event] is not None:
            issues.append(
                FrameIssue(
                    "duplicate_selection_entry",
                    f"({name}, {{{', '.join(sorted(set(entry.get('event', []))))}}}) appears twice",
                )
            )
            continue
        selection[i][event] = selected
    for i in range(n):
        for e in range(1, full + 1):
            if selection[i][e] is None:
                names = ", ".join(states[j] for j in bit_indices(e))
                issues.append(
                    FrameIssue(
                        "missing_selection_entry",
                        f"no entry for ({states[i]}, {{{names}}})",
                    )
                )

    if issues:
        return None, issues
    rows = tuple(tuple([0] + [row[e] for e in range(1, full + 1)]) for row in selection)
    return (states, tuple(belief), rows), []


def oracle_union(frame: Frame) -> tuple[tuple[int, ...], ...]:
    """``frame.union`` by the triple loop over states, events and believed
    states."""
    union = []
    for s in range(frame.n):
        row = [0] * (frame.full + 1)
        for e in range(1, frame.full + 1):
            u = 0
            for x in bit_indices(frame.belief[s]):
                u |= frame.selection[x][e]
            row[e] = u
        union.append(tuple(row))
    return tuple(union)


def oracle_frame_code(frame: Frame) -> int:
    """A frame's code, folded one digit at a time: each belief set less
    one, base 2^n - 1, then each selection entry, base 2^n."""
    full = frame.full
    code = 0
    for s in range(frame.n):
        code = code * full + (frame.belief[s] - 1)
    for s in range(frame.n):
        for e in range(1, full + 1):
            code = code * (full + 1) + frame.selection[s][e]
    return code


def oracle_frame_from_code(n: int, code: int) -> Frame:
    """Decode a frame code one ``divmod`` digit at a time."""
    full = (1 << n) - 1
    base = full + 1
    digits = []
    for _ in range(n * full):
        code, d = divmod(code, base)
        digits.append(d)
    digits.reverse()
    belief = []
    for _ in range(n):
        code, d = divmod(code, full)
        belief.append(d + 1)
    belief.reverse()
    if code:
        raise ValueError("code out of range for this state count")
    selection = [[0] + digits[s * full:(s + 1) * full] for s in range(n)]
    return Frame([f"s{i}" for i in range(n)], belief, selection)


def oracle_model_to_json(m: Model) -> dict:
    """``model_to_json`` with ``event_names`` called per entry."""
    frame = m.frame
    return {
        "states": list(frame.states),
        "belief": {frame.states[s]: frame.event_names(frame.belief[s]) for s in range(frame.n)},
        "selection": [
            {
                "state": frame.states[s],
                "event": frame.event_names(e),
                "selected": frame.event_names(frame.selection[s][e]),
            }
            for s in range(frame.n)
            for e in canonical_events(frame.n)
        ],
        "valuation": {
            atom: frame.event_names(mask) for atom, mask in sorted(m.valuation.items())
        },
    }


# --- hand-built fixture frames --------------------------------------------

def m0_frame() -> Frame:
    return Frame(("s0",), (0b1,), ((0, 0b1),))


def fx2_frame() -> Frame:
    # two states; both believe only s1; selection is the identity except
    # that s1 selects {s1} for the event {s0}
    return Frame(
        ("s0", "s1"),
        (0b10, 0b10),
        (
            (0, 0b01, 0b10, 0b11),
            (0, 0b10, 0b10, 0b11),
        ),
    )


def empty_selection_frame() -> Frame:
    # every selection empty: violates P5 everywhere
    return Frame(
        ("s0", "s1"),
        (0b10, 0b10),
        (
            (0, 0, 0, 0),
            (0, 0, 0, 0),
        ),
    )


def p8_violation_frame() -> Frame:
    # s0 believes both states; selections chosen so the intersection event
    # selects outside the met part: f(s0, {s0,s1}) = {s0}, f(s0, {s0}) = {s1}
    return Frame(
        ("s0", "s1"),
        (0b11, 0b10),
        (
            (0, 0b10, 0, 0b01),
            (0, 0, 0, 0),
        ),
    )
