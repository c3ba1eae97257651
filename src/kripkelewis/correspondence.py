"""Frame codes, sampling, and the three-way correspondence sweep.

For each k in {2, 3, 4, 5, 7, 8} a frame is checked three ways: the frame
property Pk, validity of the modal axiom Ak, and the event-level revision
postulate at every state.  The first two must agree on every frame, the
postulate column must agree with the property for every k except 4, and
for k = 4 the property must imply the postulate (the reverse direction is
recorded as data, never as a failure).  Every property violation also
replays its canonical countermodel, which must falsify the paired axiom.

Sweeps check frames in batches: a lane-batched ``PropertyEvaluator``,
``SchemaEvaluator`` and ``PostulateEvaluator`` scan each property, schema
and conditioned postulate once per batch, and each distinct countermodel
is replayed once for the state mask of its violations (see
:func:`_replay_groups`).  The mode picks the route: an exhaustive
partition checks only the uniform frames of its local profiles
``(belief[s], union[s])`` and folds their verdicts block by block, with no
Python per frame (see :func:`_fold_profiles`), and a random one checks its
frames batch by batch as they are drawn.  A partition is a range of the
frame stream, whose codes each process spells for itself: on several
workers the parent checks the last partition and forked workers the
others (see :func:`sweep`).
"""

from __future__ import annotations

import os
import random
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import lru_cache, reduce
from itertools import islice
from operator import or_
from typing import Iterable, Iterator, Sequence

from .axioms import AxiomId, PAIRED_PROPERTY, SchemaEvaluator, compile_scans, countermodel_recipe
from .model import Frame

# Unused here; perfbench's tracer patches these names on this module.
from .axioms import countermodel_from_witness, rule_valid_on_frame  # noqa: F401
from .model import truth  # noqa: F401
from .properties import check_property  # noqa: F401
from .revision import agm_event_check  # noqa: F401
from .properties import PropertyEvaluator
from .revision import CONDITIONED, UNCONDITIONAL, AgmPostulateId, LaneTables, PostulateEvaluator
from .revision import lane_layout

DEFAULT_KS = (2, 3, 4, 5, 7, 8)
MODES = ("exhaustive", "random")
_CELLS = ("pp", "pf", "fp", "ff")  # property, then axiom or postulate: pass or fail

# k -> Ak and k -> Pk, read off the axiom-property pairing, and k -> Kk
# off the postulates with a frame condition (K5b for k = 5).
_AXIOM = {int(axiom.value[1:]): axiom for axiom in PAIRED_PROPERTY}
_PROP = {k: PAIRED_PROPERTY[axiom] for k, axiom in _AXIOM.items()}
_AGM: dict[int, AgmPostulateId] = {int(pid.value[1]): pid for pid in CONDITIONED}
_AGM_NAME = {k: _AGM[k].value for k in DEFAULT_KS}

# A1, the two rules and the unconditional postulates hold on every frame;
# only A1 is scanned (the rules: see ``rule_valid_on_frame``).
_ALWAYS_VALID = (AxiomId.A1, AxiomId.RULE_K5A, AxiomId.RULE_K6, *UNCONDITIONAL)
ALWAYS_VALID_NAMES = tuple(x.value for x in _ALWAYS_VALID)


class SweepError(RuntimeError):
    """A sweep aborted; carries the report for the part that completed."""

    def __init__(self, message: str, partial_report: "Report"):
        super().__init__(message)
        self.partial_report = partial_report


@lru_cache(maxsize=None)
def _state_names(n: int) -> tuple[str, ...]:
    return tuple(f"s{i}" for i in range(n))


# Largest state count random mode takes without ``allow_large``.
MAX_RANDOM_SIZE = 4
# Largest state count a sweep or ``--code`` takes: a code on 7 states has at
# most 1,889 digits, one on 8 states up to 4,933, past int()'s default
# limit of 4,300, so a larger sweep could print no digest that replays.
MAX_CODE_SIZE = 7


def frame_count(n: int) -> int:
    """Number of distinct frames on n states: every serial belief relation
    combined with every total selection table."""
    full = (1 << n) - 1
    return full**n * (full + 1) ** (n * full)


def frame_code(frame: Frame) -> int:
    """Canonical integer encoding; enumeration order is ascending code."""
    full = frame.full
    code = 0
    for s in range(frame.n):
        code = code * full + (frame.belief[s] - 1)
    base = full + 1
    for s in range(frame.n):
        row = frame.selection[s]
        for e in range(1, full + 1):
            code = code * base + row[e]
    return code


def frame_from_code(n: int, code: int) -> Frame:
    full = (1 << n) - 1
    # the selection digits are base 2^n, so each is an n-bit field
    digits = [code >> n * i & full for i in reversed(range(n * full))]
    code >>= n * n * full
    belief = []
    for _ in range(n):
        code, d = divmod(code, full)
        belief.append(d + 1)
    belief.reverse()
    if code:
        raise ValueError("code out of range for this state count")
    selection = [[0, *digits[i : i + full]] for i in range(0, n * full, full)]
    return Frame(_state_names(n), belief, selection)


def frame_digest(frame: Frame) -> str:
    return f"{frame.n}:{frame_code(frame)}"


def sample_frames(n: int, count: int, seed: int) -> Iterator[Frame]:
    """Uniform independent draws of belief sets and selection entries,
    deterministic for a fixed seed."""
    if n < 1:
        raise ValueError("need at least one state")
    if count < 1:
        raise ValueError("count must be positive")
    for code in _sample_codes(n, count, seed):
        yield frame_from_code(n, code)


def _sample_codes(n: int, count: int, seed: int) -> Iterator[int]:
    """Codes of the frames :func:`sample_frames` yields: per frame, each
    state's belief set, then each state's selection row in event order,
    folded into :func:`frame_code` digits as drawn.  Each digit is drawn
    exactly as ``randrange(1, 2^n)`` or ``randrange(0, 2^n)`` draws it:
    ``getrandbits(n)`` or ``getrandbits(n + 1)``, redrawn while out of range."""
    getrandbits = random.Random(seed).getrandbits
    full = (1 << n) - 1
    base = full + 1
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
        yield code


@dataclass
class FrameRecord:
    """Outcome of the three checks (and the always-valid set) on one frame."""

    digest: str
    property_pass: dict[int, bool]
    axiom_valid: dict[int, bool]
    agm_all_states: dict[int, bool]
    always_valid: dict[str, bool]
    replays: list[tuple[int, bool]]
    discrepancies: list[dict]


def triple_check(frame: Frame, ks: tuple[int, ...] = DEFAULT_KS) -> FrameRecord:
    """Run property, axiom and postulate checks on one frame and flag any
    disagreement the correspondence asserts cannot happen."""
    (verdicts,) = _batch_verdicts(frame.n, [frame_code(frame)], ks)
    record = _unpack_verdicts(verdicts, ks, frame_digest(frame))
    record.discrepancies = _discrepancies(record)
    return record


# Frames one lane-batched SchemaEvaluator checks together in a sweep.  The
# time per frame was flat from 250 to 1,000 frames at three and four
# states; a larger batch only holds more frames at once.
BATCH_FRAMES = 250

# A frame's verdicts packed into one int, with ``ks`` indexed by position
# i and m = len(ks).  Bit i says the replay for a violated Pk falsified Ak.
# The bits from m on are ``ok``: bit i of ok is Pk, bit m + i is Ak, bit
# 2m + i is Kk at every state, then one bit per ALWAYS_VALID_NAMES entry.


def _lane_tables(n: int, codes: Sequence[int]) -> LaneTables:
    """The lane tables of the frames with these codes on n states, frame i in
    lane i (see ``PropertyEvaluator``), spelled from the codes' digits.  A
    code's selection digits are n-bit fields, (state, event) ascending from
    the top, so in the reversed string of the batch's selection bits, bit x
    of (lane i, state s, event e) is at n(full - e) + x plus n full for each
    (lane, state) above (i, s).  ``belief`` is spelled likewise, one field
    per state, and ``union[e]`` ORs in each believed state's ``sel[e]``."""
    full = (1 << n) - 1
    cut, step = n * n * full, n * full
    width, states, _, ones, lows = lane_layout(n, len(codes))[:5]
    mask = (1 << cut) - 1
    digits = "".join([f"{code & mask:0{cut}b}" for code in codes])[::-1]
    sel = [0] + [int("".join([digits[(full - e) * n + x :: step] for x in reversed(range(n))]), 2)
                 for e in range(1, full + 1)]
    beliefs = "".join([_belief_bits(n, code >> cut) for code in codes])[::-1]
    belief = int("".join([beliefs[x::n] for x in reversed(range(n))]), 2)
    believed = [(belief >> x * width & states) * ones for x in range(n)]  # block x, in every block
    union = [0] + [reduce(or_, [(row >> x & lows) * full & b for x, b in enumerate(believed)])
                   for row in sel[1:]]
    return LaneTables(n, len(codes), sel, union, belief)


@lru_cache(maxsize=4096)  # every belief number of up to three states
def _belief_bits(n: int, digits: int) -> str:
    """A code's belief digits as the binary digits of one n-bit field per state."""
    full = (1 << n) - 1
    return "".join([f"{digits // full ** (n - 1 - s) % full + 1:0{n}b}" for s in range(n)])


def _batch_verdicts(n: int, codes: Sequence[int], ks: tuple[int, ...]) -> list[int]:
    """Packed verdicts of the frames with these codes on n states.  One
    property, one schema and one postulate evaluator share the lane tables
    of :func:`_lane_tables`, so each property, schema and conditioned
    postulate is scanned once for all the frames, and each column comes
    back as a state mask over the lanes.  Property violations are grouped
    by their countermodel (see :func:`_replay_groups`), and each group is
    replayed once, every violation reading its own state off the shared mask."""
    tables = _lane_tables(n, codes)
    schemas = SchemaEvaluator(tables=tables)
    postulates = PostulateEvaluator(tables=tables)
    properties = PropertyEvaluator(tables=tables)
    axioms = [_AXIOM[k] for k in ks]
    failures = []  # the failing states of each ``ok`` bit, in bit order
    falsified = []  # per k: the violations whose replay falsified Ak
    for k, axiom in zip(ks, axioms):
        failed, hits = properties.lane_hits(_PROP[k])
        failures.append(failed)
        replayed = 0
        for assignment, violations in _replay_groups(tables, axiom, hits).items():
            replayed |= violations & ~schemas.holds_mask(axiom, assignment)
        falsified.append(replayed)
    failures += [schemas.lane_failures(axiom) for axiom in axioms]
    failures += [postulates.lane_failures(_AGM[k]) for k in ks]
    failures.append(schemas.lane_failures(AxiomId.A1))  # the other always-valid columns cannot fail
    every = (1 << 3 * len(ks) + len(ALWAYS_VALID_NAMES)) - 1
    return [word ^ every << len(ks) for word in _lane_words(falsified + failures, n, len(codes))]


def _replay_groups(tables: LaneTables, axiom: AxiomId, hits) -> dict[tuple[int, ...], int]:
    """Countermodel assignment to the paired ``axiom`` -> the violating
    states that replay it, from the property's ``lane_hits``.  A hit's
    states share E and F, so they differ only in the event u their recipe
    reads (see ``countermodel_recipe``): the hit's mask is split by the
    blocks of the table that holds u, one block x at a time, into the
    states whose u has x and those whose u lacks it."""
    read, build = countermodel_recipe(axiom)
    n = tables.n
    layout = lane_layout(n, tables.lanes)
    width, inside = layout.width, layout.inside
    groups: dict[tuple[int, ...], int] = {}
    for mask, e, f, _ in hits:
        table, event = read(e, f)
        blocks = tables.union[event] if table == "union" else tables.belief & inside[event]
        classes = [(0, mask)]  # (u so far, its states)
        for x in range(n):
            block = blocks >> x * width & mask
            if block:
                classes = [(v, part) for u, states_u in classes for v, part in (
                    (u | 1 << x, states_u & block), (u, states_u & ~block)) if part]
        for u, part in classes:
            assignment = build(e, f, u)
            groups[assignment] = groups.get(assignment, 0) | part
    return groups


def _lane_words(columns: list[int], n: int, lanes: int) -> list[int]:
    """Per lane, the int whose bit j is set iff the state mask
    ``columns[j]`` has a state of that lane.  Each column is spread to
    every state of each lane it touches, its lane bits are read off its
    binary digits, one every n, and each lane's word is spelled from them,
    highest column first."""
    layout = lane_layout(n, lanes)
    width, spread = layout.width, layout.spread
    digits = [f"{spread(mask):0{width}b}"[width - 1 :: -n] for mask in reversed(columns)]
    return [int("".join(bits), 2) for bits in zip(*digits)]


def _unpack_verdicts(verdicts: int, ks: tuple[int, ...], digest: str) -> FrameRecord:
    """The record of a frame with these packed verdicts; its discrepancies
    are left for :func:`_discrepancies`."""
    m = len(ks)
    ok = verdicts >> m
    property_pass = {k: bool(ok >> i & 1) for i, k in enumerate(ks)}
    return FrameRecord(
        digest,
        property_pass,
        {k: bool(ok >> (m + i) & 1) for i, k in enumerate(ks)},
        {k: bool(ok >> (2 * m + i) & 1) for i, k in enumerate(ks)},
        {name: bool(ok >> (3 * m + j) & 1) for j, name in enumerate(ALWAYS_VALID_NAMES)},
        [(k, bool(verdicts >> i & 1)) for i, k in enumerate(ks) if not property_pass[k]],
        [],
    )


def _discrepancies(record: FrameRecord) -> list[dict]:
    """Every disagreement on one frame that the correspondence asserts
    cannot happen, in a fixed order."""
    digest = record.digest
    found: list[dict] = []
    for k, prop in record.property_pass.items():
        axiom, agm = record.axiom_valid[k], record.agm_all_states[k]
        if prop != axiom:
            found.append(
                {"digest": digest, "kind": "property_vs_axiom", "k": k,
                 "property": prop, "axiom": axiom}
            )
        if k != 4 and prop != agm:
            found.append(
                {"digest": digest, "kind": "property_vs_agm", "k": k,
                 "property": prop, "agm": agm}
            )
        if k == 4 and prop and not agm:
            found.append({"digest": digest, "kind": "p4_without_k4", "k": k})
    for name, ok in record.always_valid.items():
        if not ok:
            found.append({"digest": digest, "kind": "always_valid", "which": name})
    for k, falsified in record.replays:
        if not falsified:
            found.append({"digest": digest, "kind": "countermodel_replay", "k": k})
    return found


@dataclass(frozen=True)
class SweepConfig:
    """What to sweep: state count, frame source, and which k to check."""

    size: int
    mode: str = "exhaustive"  # one of MODES
    count: int | None = None
    seed: int | None = None
    ks: tuple[int, ...] = DEFAULT_KS
    allow_large: bool = False

    def validate(self) -> None:
        if self.size < 1:
            raise ValueError("size must be at least 1")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "random":
            if self.count is None or self.count < 1:
                raise ValueError("random mode requires count >= 1")
            if self.seed is None:
                raise ValueError("random mode requires a seed")
            if self.size > MAX_RANDOM_SIZE and not self.allow_large:
                raise ValueError(
                    f"random mode for size >= {MAX_RANDOM_SIZE + 1} requires allow_large "
                    f"(one frame's check scans 2^(3*{self.size}) assignments per "
                    "three-letter axiom)"
                )
        elif self.count is not None or self.seed is not None:
            raise ValueError("exhaustive mode takes no count or seed")
        elif self.size >= 3 and not self.allow_large:
            raise ValueError(
                "exhaustive mode for size >= 3 requires allow_large "
                f"(frame_count({self.size}) frames)"
            )
        if self.size > MAX_CODE_SIZE:
            raise ValueError(
                f"size must be at most {MAX_CODE_SIZE}, the largest whose frame codes replay")
        bad = [k for k in self.ks if k not in DEFAULT_KS]
        if bad or not self.ks or len(set(self.ks)) != len(self.ks):
            raise ValueError(
                f"ks must be a nonempty subset of {DEFAULT_KS} without repeats, got {self.ks}")

    def echo(self) -> dict:
        return {**asdict(self), "ks": list(self.ks)}


@dataclass
class Report:
    """Aggregated sweep outcome; merging partial reports sums the counts."""

    config: dict
    totals: dict = field(default_factory=lambda: {"frames": 0, "property_violations": 0})
    per_axiom: dict = field(default_factory=dict)
    per_agm: dict = field(default_factory=dict)
    always_valid: dict = field(default_factory=dict)
    replay: dict = field(default_factory=lambda: {"attempted": 0, "falsified": 0})
    discrepancies: list = field(default_factory=list)
    duration_ms: int = 0

    @classmethod
    def empty(cls, config: dict, ks: tuple[int, ...]) -> "Report":
        return cls(
            config=config,
            per_axiom={_PROP[k].value: dict.fromkeys(_CELLS, 0) for k in ks},
            per_agm={_AGM_NAME[k]: dict.fromkeys(_CELLS, 0) for k in ks},
            always_valid={name: 0 for name in ALWAYS_VALID_NAMES},
        )

    def add_record(self, record: FrameRecord, frames: int = 1) -> None:
        """Count ``frames`` frames with ``record``'s verdicts and keep its
        discrepancies."""
        self.totals["frames"] += frames
        for k, prop in record.property_pass.items():
            axiom = record.axiom_valid[k]
            cell = ("p" if prop else "f") + ("p" if axiom else "f")
            self.per_axiom[_PROP[k].value][cell] += frames
            agm = record.agm_all_states[k]
            cell = ("p" if prop else "f") + ("p" if agm else "f")
            self.per_agm[_AGM_NAME[k]][cell] += frames
            if not prop:
                self.totals["property_violations"] += frames
        for name, ok in record.always_valid.items():
            self.always_valid[name] += ok * frames
        for _, falsified in record.replays:
            self.replay["attempted"] += frames
            self.replay["falsified"] += falsified * frames
        self.discrepancies.extend(record.discrepancies)

    def to_json(self) -> dict:
        return asdict(self)


def merge_reports(parts: list[Report]) -> Report:
    """Combine partial reports over a partition of one frame stream.

    Associative and commutative up to the duration field: counts are
    summed and discrepancies re-sorted into a canonical order.
    """
    if not parts:
        raise ValueError("nothing to merge")
    if any(p.config != parts[0].config for p in parts):
        raise ValueError("cannot merge reports with different configs")
    merged = Report.empty(parts[0].config, tuple(parts[0].config["ks"]))
    for p in parts:
        for key, v in p.totals.items():
            merged.totals[key] += v
        for name, cells in p.per_axiom.items():
            for cell, v in cells.items():
                merged.per_axiom[name][cell] += v
        for name, cells in p.per_agm.items():
            for cell, v in cells.items():
                merged.per_agm[name][cell] += v
        for name, v in p.always_valid.items():
            merged.always_valid[name] += v
        merged.replay["attempted"] += p.replay["attempted"]
        merged.replay["falsified"] += p.replay["falsified"]
        merged.discrepancies.extend(p.discrepancies)
        merged.duration_ms += p.duration_ms
    merged.discrepancies.sort(
        key=lambda d: (d["digest"], d["kind"], d.get("k", 0), d.get("which", ""))
    )
    return merged


def _uniform_code(n: int, key: int) -> int:
    """Code of the uniform frame of the profile ``d << width | row``: every
    state has belief digit d and selection row ``row``."""
    full = (1 << n) - 1
    width = n * full
    d, row = divmod(key, 1 << width)
    return sum(d * full**s << n * width | row << s * width for s in range(n))


def _run_partition(config: dict, codes: Iterable[int]) -> Report:
    """Report on the frames with these codes, routed by mode alone: an
    exhaustive partition (a range) folds profile verdicts, a random one
    (an iterator) checks each frame."""
    if config["mode"] == "exhaustive":
        return _fold_profiles(config, codes)
    return _check_frames(config, codes)


def _check_frames(config: dict, codes: Iterable[int]) -> Report:
    """Check the frames batch by batch (see :func:`_batch_verdicts`),
    taking ``BATCH_FRAMES`` codes at a time, so an iterator of codes is
    never held whole."""
    n, ks = config["size"], tuple(config["ks"])
    outcomes = _Outcomes(ks)
    codes = iter(codes)
    batches = iter(lambda: list(islice(codes, BATCH_FRAMES)), [])
    return _tally(config, outcomes, (
        (batch, list(map(outcomes.__getitem__, _batch_verdicts(n, batch, ks))))
        for batch in batches))


class _Outcomes(dict):
    """Packed verdicts interned as small ints: ``outcomes[verdicts]`` is an
    id, ``packed[id]`` the verdicts and ``flagged[id]`` their discrepancies,
    if any.  ``outcomes[a, b]`` folds the verdicts of the states above a
    state (id a) with that state's (id b)."""

    def __init__(self, ks: tuple[int, ...]):
        super().__init__()
        self.ks, self.packed, self.flagged = ks, [], {}

    def __missing__(self, key: int | tuple[int, int]) -> int:
        if isinstance(key, tuple):
            (a, b), low = map(self.packed.__getitem__, key), (1 << len(self.ks)) - 1
            # the lower state's replay wins where it violates the property
            self[key] = i = self[a & b & ~low | (a & b >> len(self.ks) | b) & low]
            return i
        self[key] = i = len(self.packed)
        self.packed.append(key)
        if found := _discrepancies(_unpack_verdicts(key, self.ks, "")):
            self.flagged[i] = found
        return i


def _tally(config: dict, outcomes: _Outcomes,
           batches: Iterable[tuple[Sequence[int], list[int]]]) -> Report:
    """Report on frames given batch by batch as ``(codes, outcome ids)`` in
    frame order, counted by outcome; a flagged one's frames get digests."""
    n, flagged = config["size"], outcomes.flagged
    tally: Counter[int] = Counter()
    report = Report.empty(config, outcomes.ks)
    for codes, ids in batches:
        tally.update(ids)
        if not flagged.keys().isdisjoint(ids):
            for code, i in zip(codes, ids):
                for found in flagged.get(i, ()):
                    report.discrepancies.append({**found, "digest": f"{n}:{code}"})
    for i, frames in tally.items():
        report.add_record(_unpack_verdicts(outcomes.packed[i], outcomes.ks, ""), frames)
    return report


def _fold_profiles(config: dict, codes: range) -> Report:
    """Fold the verdicts of the frames with these consecutive codes from
    their states' profiles ``(belief[s], union[s])``.

    Each verdict of :func:`triple_check` is a conjunction over states of a
    condition on the state's profile, whose verdicts are its uniform
    frame's (:func:`_uniform_code`), and a replay is the lowest violating
    state's.  A code ends in n selection rows of ``width`` bits, state
    n - 1's last, so on a block of 2^width codes a state that does not
    believe state n - 1 keeps one profile, and one that does has
    ``key | row``, key holding its belief digit and its other believed
    rows' OR.  Each state's outcome ids on a block are one map over the
    memo, folded from state n - 1 down.
    """
    n, ks = config["size"], tuple(config["ks"])
    outcomes = _Outcomes(ks)
    full = (1 << n) - 1
    width = n * full
    size, span = 1 << width, 1 << 16  # codes whose new profiles are checked at once
    memo: dict[int, int] = {}  # profile key -> outcome id

    def batches() -> Iterator[tuple[range, list[int]]]:
        for start in range(codes.start - codes.start % span, codes.stop, span):
            lo, hi = max(codes.start, start), min(codes.stop, start + span)
            firsts = range(lo - lo % size, hi, size)  # of the blocks
            index: dict = {}  # (key, row mask, rows) -> column
            at = []  # per block, n - 1 down: columns (ints, as a tuple per block wakes the GC)
            for first in firsts:
                rows = range(max(lo - first, 0), min(hi - first, size))
                above = [first >> (n - 1 - x) * width & size - 1 for x in range(n)]  # n - 1's is 0
                for i in range(n):
                    d = (first >> n * width) // full**i % full
                    key = reduce(or_, [above[x] for x in range(n) if d + 1 >> x & 1], d << width)
                    varies = size - 1 if d + 1 >> n - 1 else 0  # believes state n - 1
                    at.append(index.setdefault((key, varies, rows), len(index)))
            keys = [list(map(key.__or__, map(varies.__and__, rows))) for key, varies, rows in index]
            unseen = list(set().union(*keys).difference(memo))
            for i in range(0, len(unseen), BATCH_FRAMES):
                profiles = unseen[i : i + BATCH_FRAMES]
                verdicts = _batch_verdicts(n, [_uniform_code(n, key) for key in profiles], ks)
                memo.update(zip(profiles, map(outcomes.__getitem__, verdicts)))
            columns = [list(map(memo.__getitem__, k)) for k in keys]
            for first, j in zip(firsts, range(0, len(at), n)):
                folded = columns[at[j]]
                for column in at[j + 1 : j + n]:
                    folded = list(map(outcomes.__getitem__, zip(folded, columns[column])))
                yield range(max(lo, first), min(hi, first + size)), folded

    return _tally(config, outcomes, batches())


def _make_payloads(cfg: SweepConfig, workers: int) -> list[tuple[dict, int, int]]:
    """Split the configured frame stream into at most ``workers``
    contiguous, nonempty partitions ``(config, lo, hi)``: its codes
    ``lo`` to ``hi - 1``, spelled by :func:`_partition_codes`."""
    total = frame_count(cfg.size) if cfg.mode == "exhaustive" else cfg.count
    assert total is not None
    chunks = max(1, min(workers, total))
    bounds = [total * i // chunks for i in range(chunks + 1)]
    config = cfg.echo()
    return [(config, lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _partition_codes(config: dict, lo: int, hi: int) -> Iterable[int]:
    """Codes ``lo`` to ``hi - 1`` of the configured frame stream: a range
    in exhaustive mode; in random mode an iterator over the seeded stream
    drawn up to ``hi``, its first ``lo`` codes dropped as they are drawn."""
    if config["mode"] == "exhaustive":
        return range(lo, hi)
    return islice(_sample_codes(config["size"], hi, config["seed"]), lo, None)


class WorkerTraceback(Exception):
    """A worker's traceback as text, the cause of the exception it sent."""


def _outcome(config: dict, lo: int, hi: int, sender=None) -> tuple:
    """``(None, report, None)`` or ``(exception, None, traceback text)`` for
    the partition ``codes[lo:hi]``, also sent to ``sender``: pickling an
    exception drops its traceback."""
    try:
        outcome: tuple = (None, _run_partition(config, _partition_codes(config, lo, hi)), None)
    except Exception as exc:
        import traceback  # here: only a failure pays for it
        outcome = (exc, None, traceback.format_exc())
    if sender is not None:
        sender.send(outcome)
    return outcome


def sweep(cfg: SweepConfig, workers: int = 1) -> Report:
    """Check every frame of the configured frame stream (see :func:`_run_partition`).

    With ``workers > 1`` the stream is split into at most ``os.cpu_count()``
    partitions, each named by its range of the stream (see
    :func:`_make_payloads`): the parent checks the last while a forked worker
    checks each other one and sends its report through a pipe.  Each process
    spells its own partition's codes after the fork.  A failed partition, or a
    worker exiting without a report, aborts the sweep with a SweepError naming
    the lowest one and carrying the completed reports.  Refuses ``workers < 1``.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    cfg.validate()
    started = time.perf_counter()
    workers = min(workers, os.cpu_count() or 1)
    payloads = _make_payloads(cfg, workers)
    children = []
    try:
        if len(payloads) > 1:
            import multiprocessing  # here: only the parallel path pays for it
            compile_scans()
            for payload in payloads[:-1]:
                receiver, sender = multiprocessing.Pipe(duplex=False)
                child = multiprocessing.Process(target=_outcome, args=(*payload, sender))
                child.start()
                sender.close()  # so that the receiver reads EOF once the child is gone
                children.append((child, receiver))
        results = [_outcome(*payloads[-1])]
        for i, (child, receiver) in enumerate(children):
            try:
                results.insert(i, receiver.recv())
                if results[i][0] is not None:
                    results[i][0].__cause__ = WorkerTraceback(results[i][2])
            except EOFError:
                child.join()
                exited = RuntimeError(f"worker exited with code {child.exitcode}")
                results.insert(i, (exited, None, None))
    finally:
        for child, receiver in children:  # no worker outlives the sweep
            child.terminate()
            child.join()
            receiver.close()
    partials = [report for exc, report, _ in results if exc is None]
    failures = [(i, exc) for i, (exc, _, _) in enumerate(results) if exc is not None]
    if failures:
        failed_at, failure = failures[0]
        partial = merge_reports(partials) if partials else Report.empty(cfg.echo(), cfg.ks)
        _, lo, hi = payloads[failed_at]
        seed = f" (seed {cfg.seed})" if cfg.mode == "random" else ""
        raise SweepError(
            f"sweep aborted: partition codes[{lo}:{hi}]{seed} failed: {failure}", partial
        ) from failure
    report = merge_reports(partials)
    report.duration_ms = int((time.perf_counter() - started) * 1000)
    return report
