"""Finite Kripke-Lewis frames and models.

A frame is a finite state set, a serial belief relation, and a selection
function defined for every (state, nonempty event) pair.  States are
indexed 0..n-1 and events are bitmasks over those indices, so the
2^n-event quantifications elsewhere are plain integer loops.

No structural property beyond seriality and selection totality is imposed
at construction: selection values may fall outside their event, overlap
nothing, or be empty.  The property checkers ask for more only when asked.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Mapping
from functools import lru_cache
from itertools import compress, product, starmap
from operator import and_, or_
from typing import NamedTuple

from .formula import Atom, And, Bel, Box, Cond, Formula, Iff, Implies, Not, Or, is_wellformed

_ATOM_NAME_RE = re.compile(r"[a-z][a-z0-9_]*\Z")

# Beyond this many surely missing selection entries, validate_frame reports
# one summary issue instead of allocating the table and naming each entry.
MAX_MISSING_SELECTION_ENTRIES = 1024


class FrameIssue(NamedTuple):
    """One validation failure found while building a frame."""

    kind: str  # non_serial | missing_selection_entry | unknown_state | empty_event | duplicate_selection_entry | invalid_atom | bad_structure
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


class FrameValidationError(ValueError):
    def __init__(self, issues: list[FrameIssue]):
        self.issues = issues
        super().__init__("; ".join(str(i) for i in issues))


def bit_indices(mask: int) -> Iterator[int]:
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


@lru_cache(maxsize=None)  # one entry per belief mask: fewer than 2^n on n states
def _believed(mask: int) -> tuple[int, ...]:
    return tuple(bit_indices(mask))


@lru_cache(maxsize=None)
def canonical_events(n: int) -> tuple[int, ...]:
    """Nonempty events of an n-state frame ordered by (size, numeric value).

    This is the scan order every checker uses, so reported witnesses are
    minimal in that order.
    """
    return tuple(sorted(range(1, 1 << n), key=lambda e: (e.bit_count(), e)))


def canonical_pairs(n: int) -> Iterator[tuple[int, int]]:
    """The pairs ``(E, F)`` of overlapping nonempty events, E then F in
    canonical order: the inputs of the two-event checks, which are vacuous
    where selection would be read at the empty event E & F.  An iterator,
    not a table, which would grow as 4^n; made of itertools, since a
    generator function's resume per pair made a one-lane K7 scan about a
    tenth slower."""
    events = canonical_events(n)
    return compress(product(events, repeat=2), starmap(and_, product(events, repeat=2)))


class Frame:
    """States, serial belief relation, total selection function.

    ``belief[s]`` is the event of states the agent considers possible at s.
    ``selection[s][e]`` is the selected event for state s and nonempty event
    e; index 0 of each row is a placeholder that is never consulted.
    ``union[s][e]`` caches the union of ``selection[x][e]`` over believed
    ``x``, the event supporting revised beliefs at s; states with the same
    belief set share one row, the OR of their believed states' rows.
    """

    __slots__ = ("states", "n", "full", "belief", "selection", "union", "believed")

    def __init__(
        self,
        states: Iterable[str],
        belief: Iterable[int],
        selection: Iterable[Iterable[int]],
    ):
        self.states = tuple(states)
        self.n = len(self.states)
        self.full = (1 << self.n) - 1
        self.belief = tuple(belief)
        self.selection = sel = tuple(map(tuple, selection))
        self.believed = tuple(map(_believed, self.belief))
        union = {}
        for b, believed in zip(self.belief, self.believed):
            if b not in union:
                row = sel[believed[0]] if believed else (0,) * (self.full + 1)
                if len(believed) > 1 or row[0]:  # else the one believed row is the union
                    for x in believed[1:]:
                        row = map(or_, row, sel[x])
                    row = (0, *tuple(row)[1:])
                union[b] = row
        self.union = tuple([union[b] for b in self.belief])

    def state_index(self, name: str) -> int:
        try:
            return self.states.index(name)
        except ValueError:
            raise KeyError(f"unknown state {name!r}") from None

    def event_names(self, mask: int) -> list[str]:
        return [self.states[i] for i in bit_indices(mask)]

    def event_mask(self, names: Iterable[str]) -> int:
        mask = 0
        for name in names:
            mask |= 1 << self.state_index(name)
        return mask

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Frame)
            and self.states == other.states
            and self.belief == other.belief
            and self.selection == other.selection
        )

    def __hash__(self) -> int:
        return hash((self.states, self.belief, self.selection))

    def __repr__(self) -> str:
        return f"Frame(n={self.n}, belief={self.belief}, selection={self.selection})"


class Model:
    """A frame plus a valuation; atoms absent from the valuation denote the empty event."""

    __slots__ = ("frame", "valuation")

    def __init__(self, frame: Frame, valuation: Mapping[str, int] | None = None):
        self.frame = frame
        self.valuation = dict(valuation or {})

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Model)
            and self.frame == other.frame
            and self.valuation == other.valuation
        )

    def __repr__(self) -> str:
        return f"Model({self.frame!r}, {self.valuation!r})"


class _Record:
    """A mutable record, its fields the attributes ``__init__`` sets in order:
    equal only to a record of its type with equal fields, and unhashable."""

    def __eq__(self, other: object) -> bool:
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"


class Witness(_Record):
    """Concrete refutation record for a failed check.

    ``states`` and ``events`` map role names from the violated condition
    (for example "s", "s_prime", "E", "F") to state indices and event
    masks; replaying the check on this data reproduces the failure.
    """

    def __init__(self, kind: str, states: dict[str, int] | None = None,
                 events: dict[str, int] | None = None):
        self.kind = kind
        self.states = {} if states is None else states
        self.events = {} if events is None else events

    def to_json(self, frame: Frame) -> dict:
        return {
            "kind": self.kind,
            "states": {role: frame.states[i] for role, i in self.states.items()},
            "events": {role: frame.event_names(m) for role, m in self.events.items()},
        }


def _reject_illformed(f: Formula) -> None:
    if not is_wellformed(f):
        raise ValueError(f"illformed formula: {f!r}")


def truth(m: Model, s: int, f: Formula) -> bool:
    """Pointwise truth of ``f`` at state index ``s``.

    Clause by clause: atoms via the valuation; Boolean connectives by
    direct recursion; ``[] a`` holds iff ``a`` holds at every state;
    ``a > b`` holds iff ``a`` is impossible (empty truth set) or every
    state selected for (s, truth set of a) satisfies ``b``; ``B a`` holds
    iff ``a`` holds at every believed state.
    """
    _reject_illformed(f)
    if not 0 <= s < m.frame.n:
        raise IndexError(f"state index {s} out of range")
    return _truth(m, s, f)


def _truth(m: Model, s: int, f: Formula) -> bool:
    if isinstance(f, Atom):
        return bool(m.valuation.get(f.name, 0) >> s & 1)
    if isinstance(f, Not):
        return not _truth(m, s, f.body)
    if isinstance(f, Or):
        return _truth(m, s, f.left) or _truth(m, s, f.right)
    if isinstance(f, And):
        return _truth(m, s, f.left) and _truth(m, s, f.right)
    if isinstance(f, Implies):
        return (not _truth(m, s, f.left)) or _truth(m, s, f.right)
    if isinstance(f, Iff):
        return _truth(m, s, f.left) == _truth(m, s, f.right)
    if isinstance(f, Box):
        return all(_truth(m, x, f.body) for x in range(m.frame.n))
    if isinstance(f, Bel):
        return all(_truth(m, x, f.body) for x in m.frame.believed[s])
    if isinstance(f, Cond):
        antecedent = 0
        for x in range(m.frame.n):
            if _truth(m, x, f.antecedent):
                antecedent |= 1 << x
        if antecedent == 0:
            return True  # impossible antecedent: vacuously true
        return all(
            _truth(m, x, f.consequent)
            for x in bit_indices(m.frame.selection[s][antecedent])
        )
    raise TypeError(f"not a formula node: {f!r}")


def truth_set(m: Model, f: Formula) -> int:
    """Event of states where ``f`` holds, computed set-at-a-time.

    Independent of :func:`truth`: connectives become bitmask operations
    and the modal clauses become per-state subset tests.
    """
    _reject_illformed(f)
    return _truth_set(m, f)


def _truth_set(m: Model, f: Formula) -> int:
    full = m.frame.full
    if isinstance(f, Atom):
        return m.valuation.get(f.name, 0)
    if isinstance(f, Not):
        return full ^ _truth_set(m, f.body)
    if isinstance(f, Or):
        return _truth_set(m, f.left) | _truth_set(m, f.right)
    if isinstance(f, And):
        return _truth_set(m, f.left) & _truth_set(m, f.right)
    if isinstance(f, Implies):
        return (full ^ _truth_set(m, f.left)) | _truth_set(m, f.right)
    if isinstance(f, Iff):
        return full ^ (_truth_set(m, f.left) ^ _truth_set(m, f.right))
    if isinstance(f, Box):
        return full if _truth_set(m, f.body) == full else 0
    if isinstance(f, Bel):
        body = _truth_set(m, f.body)
        mask = 0
        for s in range(m.frame.n):
            if m.frame.belief[s] & ~body == 0:
                mask |= 1 << s
        return mask
    if isinstance(f, Cond):
        antecedent = _truth_set(m, f.antecedent)
        if antecedent == 0:
            return full
        consequent = _truth_set(m, f.consequent)
        mask = 0
        for s in range(m.frame.n):
            if m.frame.selection[s][antecedent] & ~consequent == 0:
                mask |= 1 << s
        return mask
    raise TypeError(f"not a formula node: {f!r}")


# ---------------------------------------------------------------------------
# JSON interchange.
#
# {"states": ["s0", "s1"],
#  "belief": {"s0": ["s1"], "s1": ["s1"]},
#  "selection": [{"state": "s1", "event": ["s0"], "selected": ["s1"]}, ...],
#  "valuation": {"p": ["s0"]}}
#
# selection must enumerate every (state, nonempty event) pair; valuation is
# optional and only meaningful when loading a model.
# ---------------------------------------------------------------------------


def validate_frame(data: Mapping) -> tuple[Frame | None, list[FrameIssue]]:
    """Build a frame from its JSON form, or report every violation found."""
    if not isinstance(data, Mapping):
        return None, [FrameIssue("bad_structure", "a frame must be a JSON object")]
    issues: list[FrameIssue] = []
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
    bad_selection = FrameIssue("bad_structure", "'selection' must be a list of objects")
    if not isinstance(raw_selection, (list, tuple)):
        return None, [bad_selection]
    n = len(states)
    bits = {name: 1 << i for i, name in enumerate(states)}
    full = (1 << n) - 1

    def mask_of(names, where: str, name: str) -> int | None:
        # where.format(name) names the field; formatted only into an issue
        if not isinstance(names, (list, tuple)):
            issues.append(FrameIssue(
                "bad_structure", f"{where.format(name)} must be a list of state names"))
            return None
        mask = 0
        ok = True
        for x in names:
            try:
                mask |= bits[x]
            except (KeyError, TypeError):
                issues.append(FrameIssue("unknown_state", f"{x!r} in {where.format(name)}"))
                ok = False
        return mask if ok else None

    belief = dict.fromkeys(states, 0)
    for name, members in raw_belief.items():
        if name not in belief:
            issues.append(FrameIssue("unknown_state", f"{name!r} in belief"))
            continue
        mask = mask_of(members, "belief[{}]", name)
        if mask is not None:
            belief[name] = mask
    for name, mask in belief.items():
        if mask == 0:
            issues.append(FrameIssue("non_serial", f"belief set of {name} is empty"))

    needed = n * full
    if needed - len(raw_selection) > MAX_MISSING_SELECTION_ENTRIES:
        if not all(isinstance(entry, Mapping) for entry in raw_selection):
            return None, [bad_selection]
        issues.append(FrameIssue(
            "missing_selection_entry",
            f"{len(raw_selection)} selection entries given, {n} states need {needed}"))
        return None, issues
    selection = [[0] + [None] * full for _ in range(n)]
    rows = dict(zip(states, selection))
    for entry in raw_selection:
        # A dict naming a known state, with lists of known names and a new nonempty
        # event, in one step; every other entry goes on to the checks that record issues.
        if type(entry) is dict:
            try:
                row, event, selected = rows[entry["state"]], entry["event"], entry["selected"]
                if type(event) is list and type(selected) is list:
                    e = value = 0
                    for x in event:
                        e |= bits[x]
                    for x in selected:
                        value |= bits[x]
                    if e and row[e] is None:
                        row[e] = value
                        continue
            except (KeyError, TypeError):
                pass
        if not isinstance(entry, Mapping):
            return None, [bad_selection]
        name = entry.get("state")
        row = rows.get(name) if isinstance(name, str) else None
        if row is None:
            issues.append(FrameIssue("unknown_state", f"{name!r} in selection"))
            continue
        event = mask_of(entry.get("event", []), "selection event for {}", name)
        selected = mask_of(entry.get("selected", []), "selection value for {}", name)
        if event is None or selected is None:
            continue
        if event == 0:
            issues.append(
                FrameIssue("empty_event", f"selection entry for {name} has an empty event")
            )
            continue
        if row[event] is not None:
            issues.append(
                FrameIssue(
                    "duplicate_selection_entry",
                    f"({name}, {{{', '.join(sorted(set(entry.get('event', []))))}}}) appears twice",
                )
            )
            continue
        row[event] = selected
    for name, row in zip(states, selection):
        for e, value in enumerate(row) if None in row else ():
            if value is None:
                names = ", ".join(states[j] for j in bit_indices(e))
                issues.append(
                    FrameIssue("missing_selection_entry", f"no entry for ({name}, {{{names}}})")
                )

    if issues:
        return None, issues
    return Frame(states, belief.values(), selection), []


def load_frame(data: Mapping) -> Frame:
    frame, issues = validate_frame(data)
    if frame is None:
        raise FrameValidationError(issues)
    return frame


def load_model(data: Mapping) -> Model:
    frame, issues = validate_frame(data)
    valuation: dict[str, int] = {}
    if frame is not None:
        raw_valuation = data.get("valuation", {})
        if not isinstance(raw_valuation, Mapping):
            issues.append(FrameIssue("bad_structure", "'valuation' must be an object"))
            raw_valuation = {}
        for atom, members in raw_valuation.items():
            if not _ATOM_NAME_RE.match(str(atom)):
                issues.append(FrameIssue("invalid_atom", f"{atom!r} is not an atom name"))
                continue
            if not isinstance(members, (list, tuple)):
                issues.append(FrameIssue(
                    "bad_structure", f"valuation of {atom!r} must be a list of state names"))
                continue
            try:
                valuation[atom] = frame.event_mask(members)
            except KeyError:
                issues.append(FrameIssue("unknown_state", f"in valuation of {atom!r}"))
    if issues:
        raise FrameValidationError(issues)
    assert frame is not None
    return Model(frame, valuation)


def frame_to_json(frame: Frame) -> dict:
    names = [frame.event_names(e) for e in range(frame.full + 1)]
    # each entry gets copies, so no two entries share a list
    selection = [
        {"state": frame.states[s], "event": [*names[e]], "selected": [*names[row[e]]]}
        for s, row in enumerate(frame.selection)
        for e in canonical_events(frame.n)
    ]
    return {
        "states": list(frame.states),
        "belief": {frame.states[s]: [*names[b]] for s, b in enumerate(frame.belief)},
        "selection": selection,
    }


def model_to_json(m: Model) -> dict:
    out = frame_to_json(m.frame)
    out["valuation"] = {
        atom: m.frame.event_names(mask) for atom, mask in sorted(m.valuation.items())
    }
    return out
