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
:func:`_replay_groups`).  Verdicts stay in columns, one lane mask per
check, and one counter turns them into the report's cells by popcount,
building records only for flagged frames (see :func:`_count_columns`).
The mode picks the route: an exhaustive partition, on one or two states,
checks the uniform frame of every local profile ``(belief[s], union[s])``
once and folds their verdict columns through byte tables over the codes
of one belief assignment at a time, with no Python per frame (see
:func:`_fold_profiles`), and a random one checks its frames batch by batch
as they are parsed off blocks of the seeded words (see
:func:`_sample_batches`).  A partition is a range of the frame
stream, which each process draws for itself: on several workers the parent
checks the last partition and forked workers the others (see :func:`sweep`).
"""

from __future__ import annotations

import os
import random
import re
import sys
import time
from functools import lru_cache, partial, reduce
from itertools import chain, groupby, islice
from operator import itemgetter, or_
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .axioms import AxiomId, PAIRED_PROPERTY, SchemaEvaluator, compile_scans, countermodel_recipe
from .model import Frame, _Record

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
    """Canonical integer encoding; enumeration order is ascending code.
    Refuses a frame on more than 8 states, whose digits no byte holds."""
    return _spell_code(frame.n, *_frame_bytes(frame), 0)


def frame_from_code(n: int, code: int) -> Frame:
    """The frame :func:`frame_code` spells as ``code`` on n states.
    Refuses an n below 1, and an n or code that is not an int or is a bool."""
    for name, value in (("n", n), ("code", code)):
        _require_int(name, value)
    if n < 1:
        raise ValueError(f"state count must be at least 1, got {n}")
    full = (1 << n) - 1
    # the selection digits are base 2^n, so each is an n-bit field
    selections = [code >> n * i & full for i in reversed(range(n * full))]
    code >>= n * n * full
    beliefs = [0] * n
    for s in reversed(range(n)):
        code, d = divmod(code, full)
        beliefs[s] = d + 1
    if code:
        raise ValueError("code out of range for this state count")
    return _spell_frame(n, beliefs, selections, 0)


def frame_digest(frame: Frame) -> str:
    return f"{frame.n}:{frame_code(frame)}"


def sample_frames(n: int, count: int, seed: int) -> Iterator[Frame]:
    """Uniform independent draws of belief sets and selection entries on 1
    to ``MAX_CODE_SIZE`` states, deterministic for a fixed seed."""
    for name, value in (("n", n), ("count", count), ("seed", seed)):
        _require_int(name, value)
    if not 1 <= n <= MAX_CODE_SIZE:
        raise ValueError(f"state count must be 1 to {MAX_CODE_SIZE}, got {n}")
    if count < 1:
        raise ValueError("count must be positive")
    if count > sys.maxsize:  # past islice's bound
        raise ValueError(f"count must be at most {sys.maxsize} (sys.maxsize)")
    if seed < 0:  # random.Random seeds by |seed|: -7 draws the frames of 7
        raise ValueError(f"sample_frames requires a seed >= 0, got {seed}")
    for beliefs, selections in _sample_batches(n, seed, 0, count):
        for i in range(len(beliefs) // n):
            yield _spell_frame(n, beliefs, selections, i)


@lru_cache(maxsize=None)
def _frame_parse(n: int) -> tuple:
    """The regex :func:`_sample_batches` matches a frame on n states with
    (its belief draws, its selection draws, or else the unmatched tail) and
    each part's ``translate`` arguments.  ``getrandbits(k)``, k <= 8, is the
    top k bits of one word, kept if its top byte is below ``cut`` (belief
    draws, k = n) or 0x80 (selection draws, k = n + 1)."""
    full, cut = (1 << n) - 1, 256 - (256 >> n)
    belief = rb"[\x%02x-\xff]*[\x00-\x%02x]" % (cut, cut - 1)
    selection = rb"[\x80-\xff]*[\x00-\x7f]"
    return (re.compile(b"(%s)(%s)|(.+)" % (belief * n, selection * (n * full)), re.S),
            (bytes((b >> 8 - n) + 1 for b in range(256)), bytes(range(cut, 256))),
            (bytes(b >> 7 - n for b in range(256)), bytes(range(128, 256))))


def _sample_batches(n: int, seed: int, lo: int, hi: int) -> Iterator[tuple[bytes, bytes]]:
    """Frames ``lo`` to ``hi - 1`` of the seeded stream on n states as
    :func:`_lane_tables` reads them, in batches of ``BATCH_FRAMES`` (one if
    no more): each belief set and selection entry drawn as ``randrange``
    draws it, ``getrandbits(n)`` or ``getrandbits(n + 1)`` redrawn while out
    of range.  On CPython ``getrandbits(32 m)`` is the next m such words,
    the first lowest, so words are drawn in blocks and parsed by
    :func:`_frame_parse`, a block's unmatched tail carried on; the first
    ``lo`` frames are matched but never decoded."""
    getrandbits = random.Random(seed).getrandbits
    pattern, beliefs, selections = _frame_parse(n)
    words = (n << n + 1) * min(hi, 64)  # about 64 frames: two words a draw at most, on average

    def blocks() -> Iterator[list[tuple[bytes, bytes, bytes]]]:
        tail = b""
        while True:
            drawn = getrandbits(32 * words).to_bytes(4 * words, "little")[3::4]  # top bytes
            found = pattern.findall(tail + drawn)
            tail = found.pop()[2] if found[-1][2] else b""
            yield found

    frames = islice(chain.from_iterable(blocks()), lo, hi)
    for batch in iter(lambda: list(islice(frames, BATCH_FRAMES)), []):
        drawn_beliefs, drawn_selections, _ = map(b"".join, zip(*batch))
        yield drawn_beliefs.translate(*beliefs), drawn_selections.translate(*selections)


def _spell_code(n: int, beliefs: bytes, selections: bytes, i: int) -> int:
    """The code of frame i of a batch's belief and selection bytes."""
    full = (1 << n) - 1
    step = n * full
    code = reduce(lambda code, b: code * full + b - 1, beliefs[i * n : i * n + n], 0)
    return reduce(lambda code, d: code << n | d, selections[i * step : i * step + step], code)


def _spell_frame(n: int, beliefs: Sequence[int], selections: Sequence[int], i: int) -> Frame:
    """Frame i of a batch's belief and selection bytes (or digit lists)."""
    full = (1 << n) - 1
    at = i * n * full
    return Frame(_state_names(n), beliefs[i * n : i * n + n],
                 [(0, *selections[j : j + full]) for j in range(at, at + n * full, full)])


def _frame_bytes(frame: Frame) -> tuple[bytes, bytes]:
    """A frame's belief and selection bytes, as a batch of one spells them."""
    return bytes(frame.belief), bytes([d for row in frame.selection for d in row[1:]])


class FrameRecord(_Record):
    """Outcome of the three checks (and the always-valid set) on one frame."""

    def __init__(self, digest: str, property_pass: dict[int, bool], axiom_valid: dict[int, bool],
                 agm_all_states: dict[int, bool], always_valid: dict[str, bool],
                 replays: list[tuple[int, bool]], discrepancies: list[dict]):
        self.digest, self.property_pass, self.axiom_valid = digest, property_pass, axiom_valid
        self.agm_all_states, self.always_valid = agm_all_states, always_valid
        self.replays, self.discrepancies = replays, discrepancies


def _require_int(name: str, value: object) -> None:
    """Refuse a ``value`` for the integer ``name`` that is not an int, or is a bool."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_ks(ks: tuple[int, ...]) -> None:
    for k in ks:
        _require_int("ks", k)
    if not ks or any(k not in DEFAULT_KS for k in ks) or len(set(ks)) != len(ks):
        raise ValueError(f"ks must be a nonempty subset of {DEFAULT_KS} without repeats, got {ks}")


def triple_check(frame: Frame, ks: tuple[int, ...] = DEFAULT_KS) -> FrameRecord:
    """Run property, axiom and postulate checks on one frame and flag any
    disagreement the correspondence asserts cannot happen."""
    _check_ks(ks)
    columns = _batch_verdicts(frame.n, *_frame_bytes(frame), ks)
    record = _lane_record(columns, ks, -1, frame_digest(frame))
    record.discrepancies = _discrepancies(record)
    return record


# Frames checked together in a sweep; per frame `_batch_verdicts` took
# 4.5/3.0/2.1/1.9 us at 250/500/1,000/2,000 frames on three states and
# 13.3/10.3/8.4/7.5 us on four (best of 15, CPython 3.11, two-core Xeon).
BATCH_FRAMES = 2000

_BITS = [(b"0" * 2**x + b"1" * 2**x) * (128 >> x) for x in range(8)]  # bit x as b"0" or b"1"


def _lane_tables(n: int, beliefs: bytes, selections: bytes) -> LaneTables:
    """The lane tables of a batch of frames on n states, frame i in lane i
    (see ``PropertyEvaluator``), spelled from its bytes: per frame, each
    state's belief set, then each state's selection row in event order.
    Bit x of the selection bytes, spelled b"0" or b"1" and reversed, has
    (lane i, state s, event e) at full - e plus full per (lane, state)
    above (i, s); ``belief`` is spelled likewise, and ``union[e]`` ORs in
    each believed state's ``sel[e]``."""
    full, lanes = (1 << n) - 1, len(beliefs) // n
    width, states, _, lows, heads = lane_layout(n, lanes)[:5]
    bits = [selections.translate(_BITS[x])[::-1] for x in reversed(range(n))]
    sel = [0] + [int(b"".join([b[full - e :: full] for b in bits]), 2) for e in range(1, full + 1)]
    belief = int(b"".join([beliefs.translate(_BITS[x])[::-1] for x in reversed(range(n))]), 2)
    believed = [(belief >> x * width & states) * heads[full] for x in range(n)]  # block x, in each
    union = [0] + [reduce(or_, [(row >> x & lows) * full & b for x, b in enumerate(believed)])
                   for row in sel[1:]]
    return LaneTables(n, lanes, sel, union, belief)


def _batch_verdicts(n: int, beliefs: bytes, selections: bytes, ks: tuple[int, ...]) -> list[int]:
    """The verdict columns of a batch of frames on n states, given as its
    bytes: masks with bit ``lane * n`` set where that lane's frame has the
    mark.  With ``ks`` indexed by position i and m = len(ks), column i
    marks a violated Pk whose replay falsified Ak, m + i a failed Pk,
    2m + i a failed Ak, 3m + i a Kk failing at some state, 4m a failed A1
    (the other always-valid columns cannot fail).  One property, one schema
    and one postulate evaluator share the lane tables of :func:`_lane_tables`,
    so each check is scanned once for all the frames.  Property violations
    are grouped by their countermodel (see :func:`_replay_groups`), and
    each group is replayed once, every violation reading its own state off
    the shared mask."""
    tables = _lane_tables(n, beliefs, selections)
    schemas = SchemaEvaluator(tables=tables)
    postulates = PostulateEvaluator(tables=tables)
    properties = PropertyEvaluator(tables=tables)
    axioms = [_AXIOM[k] for k in ks]
    failures = []  # the failing states of each failure column, in column order
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
    layout = lane_layout(n, tables.lanes)
    return [layout.spread(mask) & layout.low for mask in falsified + failures]


def _replay_groups(tables: LaneTables, axiom: AxiomId, hits) -> dict[tuple[int, ...], int]:
    """Countermodel assignment to the paired ``axiom`` -> the violating
    states that replay it, from the property's ``lane_hits``.  The hits of
    one (E, F), whatever their s', differ only in the event u their recipe
    reads (see ``countermodel_recipe``): their ORed mask is split by the
    blocks of the table that holds u, one block x at a time, into the
    states whose u has x and those whose u lacks it."""
    read, build = countermodel_recipe(axiom)
    layout = lane_layout(tables.n, tables.lanes)
    width, inside = layout.width, layout.inside
    groups: dict[tuple[int, ...], int] = {}
    for (e, f), same in groupby(hits, itemgetter(1, 2)):  # a scan yields them together
        mask = reduce(or_, [hit[0] for hit in same])
        table, event = read(e, f)
        blocks = tables.union[event] if table == "union" else tables.belief & inside[event]
        classes = [(0, mask)]  # (u so far, its states)
        for x in range(tables.n):
            block = blocks >> x * width & mask
            if block:
                classes = [(v, part) for u, states_u in classes for v, part in (
                    (u | 1 << x, states_u & block), (u, states_u & ~block)) if part]
        for u, part in classes:
            assignment = build(e, f, u)
            groups[assignment] = groups.get(assignment, 0) | part
    return groups


def _lane_record(columns: list[int], ks: tuple[int, ...], lane: int, digest: str) -> FrameRecord:
    """The record of the frame that has the bits of the mask ``lane`` in
    these verdict columns; its discrepancies are left for
    :func:`_discrepancies`."""
    m = len(ks)
    ok = [not column & lane for column in columns]  # the first m: not falsified
    return FrameRecord(
        digest,
        dict(zip(ks, ok[m:])),
        dict(zip(ks, ok[2 * m :])),
        dict(zip(ks, ok[3 * m :])),
        {name: ok[4 * m] or j > 0 for j, name in enumerate(ALWAYS_VALID_NAMES)},
        [(k, not ok[i]) for i, k in enumerate(ks) if not ok[m + i]],
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


class SweepConfig(NamedTuple):
    """What to sweep: state count, frame source, and which k to check."""

    size: int
    mode: str = "exhaustive"  # one of MODES
    count: int | None = None
    seed: int | None = None
    ks: tuple[int, ...] = DEFAULT_KS
    allow_large: bool = False

    def validate(self) -> None:
        for name, value in (("size", self.size), ("count", self.count), ("seed", self.seed)):
            if value is not None or name == "size":  # a missing count or seed: see below
                _require_int(name, value)
        if self.size < 1:
            raise ValueError("size must be at least 1")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "random":
            if self.count is None or self.count < 1:
                raise ValueError("random mode requires count >= 1")
            if self.count > sys.maxsize:
                raise ValueError(f"random mode takes count at most {sys.maxsize} (sys.maxsize)")
            if self.seed is None:
                raise ValueError("random mode requires a seed")
            if self.seed < 0:  # random.Random seeds by |seed|: -7 draws the frames of 7
                raise ValueError(f"random mode requires a seed >= 0, got {self.seed}")
            if self.size > MAX_RANDOM_SIZE and not self.allow_large:
                raise ValueError(
                    f"random mode for size >= {MAX_RANDOM_SIZE + 1} requires allow_large "
                    f"(one frame's check scans 2^(3*{self.size}) assignments per "
                    "three-letter axiom)"
                )
        elif self.count is not None or self.seed is not None:
            raise ValueError("exhaustive mode takes no count or seed")
        if self.size > MAX_CODE_SIZE:
            raise ValueError(
                f"size must be at most {MAX_CODE_SIZE}, the largest whose frame codes replay")
        if self.mode == "exhaustive" and self.size >= 3:
            raise ValueError("exhaustive mode cannot finish past two states "
                             f"(frame_count({self.size}) frames); use --mode random")
        _check_ks(self.ks)

    def echo(self) -> dict:
        return {**self._asdict(), "ks": list(self.ks)}


class Report(_Record):
    """Aggregated sweep outcome; merging partial reports sums the counts."""

    def __init__(self, config: dict, totals: dict | None = None, per_axiom: dict | None = None,
                 per_agm: dict | None = None, always_valid: dict | None = None,
                 replay: dict | None = None, discrepancies: list | None = None,
                 duration_ms: int = 0):
        self.config = config
        self.totals = {"frames": 0, "property_violations": 0} if totals is None else totals
        self.per_axiom = {} if per_axiom is None else per_axiom
        self.per_agm = {} if per_agm is None else per_agm
        self.always_valid = {} if always_valid is None else always_valid
        self.replay = {"attempted": 0, "falsified": 0} if replay is None else replay
        self.discrepancies = [] if discrepancies is None else discrepancies
        self.duration_ms = duration_ms

    @classmethod
    def empty(cls, config: dict) -> "Report":
        """The report on no frames, with a zero cell per k of ``config``."""
        ks = config["ks"]
        return cls(
            config=config,
            per_axiom={_PROP[k].value: dict.fromkeys(_CELLS, 0) for k in ks},
            per_agm={_AGM_NAME[k]: dict.fromkeys(_CELLS, 0) for k in ks},
            always_valid={name: 0 for name in ALWAYS_VALID_NAMES},
        )

    def add_record(self, record: FrameRecord) -> None:
        """Count one frame with ``record``'s verdicts and keep its
        discrepancies."""
        self.totals["frames"] += 1
        for k, prop in record.property_pass.items():
            axiom = record.axiom_valid[k]
            cell = ("p" if prop else "f") + ("p" if axiom else "f")
            self.per_axiom[_PROP[k].value][cell] += 1
            agm = record.agm_all_states[k]
            cell = ("p" if prop else "f") + ("p" if agm else "f")
            self.per_agm[_AGM_NAME[k]][cell] += 1
            if not prop:
                self.totals["property_violations"] += 1
        for name, ok in record.always_valid.items():
            self.always_valid[name] += ok
        for _, falsified in record.replays:
            self.replay["attempted"] += 1
            self.replay["falsified"] += falsified
        self.discrepancies.extend(record.discrepancies)

    def to_json(self) -> dict:
        import copy  # here: only a report's reader pays for it
        return copy.deepcopy(vars(self))


def merge_reports(parts: list[Report]) -> Report:
    """Combine partial reports over a partition of one frame stream.

    Associative and commutative up to the duration field: counts are
    summed and discrepancies re-sorted into a canonical order.
    """
    if not parts:
        raise ValueError("nothing to merge")
    if any(p.config != parts[0].config for p in parts):
        raise ValueError("cannot merge reports with different configs")
    merged = Report.empty(parts[0].config)
    for p in parts:
        _add_into(vars(merged), {key: v for key, v in vars(p).items() if key != "config"})
    merged.discrepancies.sort(
        key=lambda d: (d["digest"], d["kind"], d.get("k", 0), d.get("which", ""))
    )
    return merged


def _add_into(total: dict, part: dict) -> None:
    """Add each count (or list) of ``part`` into ``total``, through nested dicts."""
    for key, v in part.items():
        if isinstance(v, dict):
            _add_into(total[key], v)
        else:
            total[key] += v


def _uniform_frames(n: int, keys: Sequence[int]) -> tuple[bytes, bytes]:
    """Belief and selection bytes of the uniform frames of the profiles
    ``d << width | row``: every state has belief set d + 1 and selection
    row ``row``, event 1 in its top n bits."""
    full = (1 << n) - 1
    shifts = range(n * (full - 1), -1, -n)
    beliefs = bytes([(key >> n * full) + 1 for key in keys for _ in range(n)])
    return beliefs, b"".join([bytes([key >> shift & full for shift in shifts]) * n for key in keys])


def _run_partition(config: dict, lo: int, hi: int) -> Report:
    """Report on frames ``lo`` to ``hi - 1`` of the configured frame
    stream, the sweep's one branch on the mode: an exhaustive partition
    folds the profile verdicts of its codes, a random one checks each frame
    of the batches :func:`_sample_batches` draws from the seeded stream."""
    if config["mode"] == "exhaustive":
        return _fold_profiles(config, range(lo, hi))
    return _check_frames(config, _sample_batches(config["size"], config["seed"], lo, hi))


def _check_frames(config: dict, batches: Iterable[tuple[bytes, bytes]]) -> Report:
    """Check the frames batch by batch as they come (see
    :func:`_batch_verdicts`), so a partition is never held whole."""
    n, ks = config["size"], tuple(config["ks"])
    report = Report.empty(config)
    for batch in batches:
        _count_columns(report, _batch_verdicts(n, *batch, ks), len(batch[0]) // n, n,
                       partial(_spell_code, n, *batch))
    return report


def _count_columns(report: Report, columns: list[int], lanes: int, stride: int,
                   code_of: Callable[[int], int]) -> None:
    """Add ``lanes`` frames to ``report`` from their verdict columns, frame
    i at one bit from ``i * stride`` up to ``i * stride + stride``, the same
    bit in the four columns of one k: every cell is a popcount, and only
    the flagged frames, in order, get records, whose discrepancies carry the
    digest of ``code_of(i)``."""
    ks, n = report.config["ks"], report.config["size"]
    m = len(ks)
    a1 = columns[4 * m]
    flagged = a1
    for i, k in enumerate(ks):
        falsified, failed, axiom, agm = columns[i : 4 * m : m]
        violations = failed.bit_count()
        for cells, other, gap in ((report.per_axiom[_PROP[k].value], axiom, False),
                                  (report.per_agm[_AGM_NAME[k]], agm, k == 4)):
            fails = both = violations  # where the columns agree, as they must but for K4
            if differ := failed ^ other:
                fails, both = other.bit_count(), (failed & other).bit_count()
                flagged |= differ & other if gap else differ  # P4 failing, K4 holding: data
            cells["pp"] += lanes - violations - fails + both
            cells["pf"] += fails - both
            cells["fp"] += violations - both
            cells["ff"] += both
        unfalsified = failed ^ falsified  # the replays falsify only where Pk fails
        report.totals["property_violations"] += violations
        report.replay["attempted"] += violations
        report.replay["falsified"] += violations - unfalsified.bit_count()
        flagged |= unfalsified
    report.totals["frames"] += lanes
    for j, name in enumerate(ALWAYS_VALID_NAMES):  # A1 first, the only one that can fail
        report.always_valid[name] += lanes - (0 if j else a1.bit_count())
    lane = (1 << stride) - 1
    while flagged:
        i = ((flagged & -flagged).bit_length() - 1) // stride
        flagged &= ~(lane << i * stride)
        record = _lane_record(columns, ks, lane << i * stride, f"{n}:{code_of(i)}")
        report.discrepancies += _discrepancies(record)


def _profile_columns(n: int, keys: Sequence[int], ks: tuple[int, ...]) -> list[bytes]:
    """The verdict columns of the uniform frames of these profile keys
    (:func:`_uniform_frames`), eight to a byte: group g holds one byte per
    key, column gm + j at bit j and, in group 1, A1 at bit 7.  At most
    ``BATCH_FRAMES`` keys go to one call of :func:`_batch_verdicts`."""
    m = len(ks)
    places = [divmod(c, m) for c in range(4 * m)] + [(1, 7)]
    groups = [b""] * 4
    for i in range(0, len(keys), BATCH_FRAMES):
        profiles = keys[i : i + BATCH_FRAMES]
        batch = [0] * 4
        for column, (g, j) in zip(_batch_verdicts(n, *_uniform_frames(n, profiles), ks), places):
            digits = f"{column:0{n * len(profiles)}b}"[::-n].encode()  # lane i's bit is digit i
            bits = bytes.maketrans(b"01", bytes([0, 1 << j]))  # digit 1 as bit j
            batch[g] |= int.from_bytes(digits.translate(bits), "little")
        groups = [old + new.to_bytes(len(profiles), "little") for old, new in zip(groups, batch)]
    return groups


@lru_cache(maxsize=None)
def _span_rows(n: int, believed: int) -> bytes:
    """Per code of a span, the codes of one belief assignment, one byte:
    the OR of the believed states' selection rows, each spelled from its
    period, state x's row of ``width`` bits held for ``1 << (n - 1 - x) *
    width`` codes."""
    width = n * ((1 << n) - 1)
    span = 1 << n * width
    rows = 0
    for x in range(n):
        if believed >> x & 1:
            held = 1 << (n - 1 - x) * width
            period = b"".join([bytes([v]) * held for v in range(1 << width)])
            rows |= int.from_bytes(period * (span // len(period)), "little")
    return rows.to_bytes(span, "little")


@lru_cache(maxsize=4)
def _byte_bits(count: int) -> list[int]:
    """Bit j of each of ``count`` bytes, per j."""
    return [int.from_bytes(bytes([1 << j]) * count, "little") for j in range(8)]


def _fold_profiles(config: dict, codes: range) -> Report:
    """Fold the verdicts of the frames with these consecutive codes on one
    or two states from their states' profiles ``(belief[s], union[s])``:
    each verdict of :func:`triple_check` is a conjunction over states of a
    condition on the state's profile, that of its uniform frame, and a
    replay is the lowest violating state's.  Every profile is checked once
    (:func:`_profile_columns`), its key ``d << width | row`` indexing four
    256-byte translate tables per belief digit d.  A span is the codes of
    one belief assignment, in which a state's row is one byte a code
    (:func:`_span_rows`): per span each state's rows are translated to its
    verdict columns, the states are folded from n - 1 down by big-int OR,
    and :func:`_count_columns` counts the columns."""
    n, ks = config["size"], tuple(config["ks"])
    full = (1 << n) - 1
    width = n * full
    size, span = 1 << width, 1 << n * width
    groups = _profile_columns(n, range(full << width), ks)
    tables = [[group[d * size : d * size + size].ljust(256, b"\0") for group in groups]
              for d in range(full)]
    report = Report.empty(config)
    for start in range(codes.start - codes.start % span, codes.stop, span):
        lo, hi = max(codes.start, start) - start, min(codes.stop, start + span) - start
        folded = [0] * 4
        for s in reversed(range(n)):
            believed = (start >> n * width) // full ** (n - 1 - s) % full + 1
            rows = _span_rows(n, believed)[lo:hi]
            replays, failed, axioms, agms = [int.from_bytes(rows.translate(table), "little")
                                             for table in tables[believed - 1]]
            folded = [replays | (folded[0] | failed) ^ failed, failed | folded[1],
                      axioms | folded[2], agms | folded[3]]
        bits = _byte_bits(hi - lo)
        columns = [group & bits[j] for group in folded for j in range(len(ks))]
        _count_columns(report, columns + [folded[1] & bits[7]], hi - lo, 8, (start + lo).__add__)
    return report


def _make_payloads(cfg: SweepConfig, workers: int) -> list[tuple[dict, int, int]]:
    """Split the configured frame stream into at most ``workers``
    contiguous, nonempty partitions ``(config, lo, hi)``: its frames
    ``lo`` to ``hi - 1`` (see :func:`_run_partition`)."""
    total = frame_count(cfg.size) if cfg.mode == "exhaustive" else cfg.count
    assert total is not None
    chunks = max(1, min(workers, total))
    bounds = [total * i // chunks for i in range(chunks + 1)]
    config = cfg.echo()
    return [(config, lo, hi) for lo, hi in zip(bounds, bounds[1:])]


class WorkerTraceback(Exception):
    """A worker's traceback as text, the cause of the exception it sent."""


def _outcome(config: dict, lo: int, hi: int) -> tuple:
    """``(None, report, None)`` or ``(exception, None, traceback text)`` for
    the partition ``codes[lo:hi]``: pickling an exception drops its traceback."""
    try:
        return (None, _run_partition(config, lo, hi), None)
    except Exception as exc:
        import traceback  # here: only a failure pays for it
        return (exc, None, traceback.format_exc())


def _fork(payload: tuple[dict, int, int]) -> tuple[int, int]:
    """Start a worker on ``payload``: its pid and the read end of the pipe
    it pickles its :func:`_outcome` into.  The worker leaves by ``os._exit``
    on every path, with code 0 once its outcome is sent."""
    import pickle
    receiver, sender = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(receiver)
        os.close(sender)
        raise
    if pid:
        os.close(sender)  # so that the receiver reads EOF once the worker is gone
        return pid, receiver
    try:
        with open(sender, "wb") as pipe:
            pickle.dump(_outcome(*payload), pipe)
        os._exit(0)
    finally:
        os._exit(1)


def sweep(cfg: SweepConfig, workers: int = 1) -> Report:
    """Check every frame of the configured frame stream (see :func:`_run_partition`).

    With ``workers > 1`` the stream is split into at most ``os.cpu_count()``
    partitions, each named by its range of the stream (see
    :func:`_make_payloads`): the parent checks the last while a forked worker
    checks each other one and pickles its report into a pipe.  Each process
    draws its own partition's frames after the fork.  Workers are bare
    ``os.fork`` children, each read to EOF and reaped in turn, or killed on any
    other way out; without ``os.fork`` the sweep runs in one process.  A failed
    partition, or a worker exiting without a report, aborts the sweep with a
    SweepError naming the lowest one and carrying the completed reports; a
    worker that cannot be forked, with one naming its partition and an
    empty report.  Refuses ``workers < 1`` and a ``workers`` that is not an int.
    """
    _require_int("workers", workers)
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    cfg.validate()
    started = time.perf_counter()
    workers = min(workers, os.cpu_count() or 1) if hasattr(os, "fork") else 1
    payloads = _make_payloads(cfg, workers)
    seed = f" (seed {cfg.seed})" if cfg.seed is not None else ""
    children: dict[int, int] = {}  # unreaped worker pid -> read end of its pipe
    try:
        if len(payloads) > 1:
            import pickle  # here: only the parallel path pays for it
            import signal
            compile_scans()
            _frame_parse(cfg.size)  # compiled once, before forking, like the scans
            try:
                children.update(map(_fork, payloads[:-1]))
            except OSError as exc:  # the first worker that could not start
                _, lo, hi = payloads[len(children)]
                raise SweepError(f"sweep aborted: partition codes[{lo}:{hi}]{seed} could not "
                                 f"start: {exc}", Report.empty(cfg.echo())) from exc
        results = [_outcome(*payloads[-1])]
        for i, pid in enumerate(list(children)):
            with open(children[pid], "rb", closefd=False) as pipe:
                sent = pipe.read()
            exited = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(children.pop(pid))
            results.insert(i, pickle.loads(sent) if not exited else (
                RuntimeError(f"worker exited with code {exited}"), None, None))
            if results[i][2] is not None:  # a worker's exception, with its traceback text
                results[i][0].__cause__ = WorkerTraceback(results[i][2])
    finally:
        for pid, receiver in children.items():  # no worker outlives the sweep
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(receiver)
    partials = [report for exc, report, _ in results if exc is None]
    failures = [(i, exc) for i, (exc, _, _) in enumerate(results) if exc is not None]
    if failures:
        failed_at, failure = failures[0]
        partial = merge_reports(partials) if partials else Report.empty(cfg.echo())
        _, lo, hi = payloads[failed_at]
        raise SweepError(
            f"sweep aborted: partition codes[{lo}:{hi}]{seed} failed: {failure}", partial
        ) from failure
    report = merge_reports(partials)
    report.duration_ms = int((time.perf_counter() - started) * 1000)
    return report
