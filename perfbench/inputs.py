"""Seeded input generators for the benchmark.

Everything here is built from a ``random.Random`` the caller seeds, and
nothing is imported from the package under test: frames come out in the
package's JSON interchange form, formulas as text together with the tree
the text is meant to denote, so the harness can check the parser against
a structure it did not produce.
"""

from __future__ import annotations

import copy
import random

ATOMS = ("p", "q", "r")
PROPERTIES = ("P2", "P3", "P4", "P5", "P7", "P8")
SCHEMAS = ("A1", "A2", "A3", "A4", "A5", "A7", "A8")
RULES = ("RuleK5a", "RuleK6")
# Postulate paired with each property.
PAIRED_POSTULATE = {"P2": "K2", "P3": "K3", "P4": "K4", "P5": "K5b", "P7": "K7", "P8": "K8"}

FRAME_ISSUE_KINDS = (
    "non_serial",
    "missing_selection_entry",
    "unknown_state",
    "empty_event",
    "duplicate_selection_entry",
    "bad_structure",
    "invalid_atom",
)


def state_names(n: int) -> list[str]:
    return [f"s{i}" for i in range(n)]


def names_of(mask: int, n: int) -> list[str]:
    return [f"s{i}" for i in range(n) if mask >> i & 1]


def _frame_json(n: int, belief: list[int], selection: list[list[int]], rng: random.Random) -> dict:
    full = (1 << n) - 1
    return {
        "states": state_names(n),
        "belief": {f"s{s}": names_of(belief[s], n) for s in range(n)},
        "selection": [
            {"state": f"s{s}", "event": names_of(e, n), "selected": names_of(selection[s][e], n)}
            for s in range(n)
            for e in range(1, full + 1)
        ],
        "valuation": {a: names_of(rng.randrange(full + 1), n) for a in ATOMS},
    }


def uniform_frame(rng: random.Random, n: int) -> dict:
    """Belief sets and selection entries drawn independently and uniformly,
    so most frame properties fail and most checks stop early."""
    full = (1 << n) - 1
    belief = [rng.randrange(1, full + 1) for _ in range(n)]
    selection = [[0] + [rng.randrange(full + 1) for _ in range(full)] for _ in range(n)]
    return _frame_json(n, belief, selection, rng)


def ranked_frame(rng: random.Random, n: int) -> dict:
    """A frame on which P2, P3, P4, P5, P7 and P8 all hold.

    Every state believes the same nonempty event B.  Each believed state
    selects from an event its members of least rank under one ranking whose
    bottom tier is exactly B; states outside B are never consulted by the
    properties, so their rows are uniform.  Every schema check and both
    rules therefore scan all assignments.
    """
    full = (1 << n) - 1
    believed = rng.randrange(1, full + 1)
    rank = [0 if believed >> i & 1 else rng.randrange(1, n + 1) for i in range(n)]
    selection = []
    for x in range(n):
        if believed >> x & 1:
            row = [0]
            for e in range(1, full + 1):
                low = min(rank[i] for i in range(n) if e >> i & 1)
                row.append(sum(1 << i for i in range(n) if e >> i & 1 and rank[i] == low))
        else:
            row = [0] + [rng.randrange(full + 1) for _ in range(full)]
        selection.append(row)
    return _frame_json(n, [believed] * n, selection, rng)


# Formula trees are tuples: ("atom", name), ("not", t), (op, l, r) for the
# binary connectives, ("cond", a, b), ("bel", t), ("box", t).
_BINARY = {"and": "&", "or": "|", "imp": "->", "iff": "<->"}
_UNICODE = {"and": "∧", "or": "∨", "imp": "→", "iff": "↔", "not": "¬", "box": "□"}


def render(tree: tuple, rng: random.Random | None = None) -> str:
    """Fully parenthesised text; with ``rng``, some operators use their
    Unicode aliases."""

    def sym(op: str, ascii_form: str) -> str:
        if rng is not None and op in _UNICODE and rng.random() < 0.1:
            return _UNICODE[op]
        return ascii_form

    op = tree[0]
    if op == "atom":
        return tree[1]
    if op == "not":
        return sym("not", "~") + render(tree[1], rng)
    if op == "bel":
        return "B(" + render(tree[1], rng) + ")"
    if op == "box":
        return sym("box", "[]") + "(" + render(tree[1], rng) + ")"
    if op == "cond":
        return "(" + render(tree[1], rng) + " > " + render(tree[2], rng) + ")"
    return "(" + render(tree[1], rng) + f" {sym(op, _BINARY[op])} " + render(tree[2], rng) + ")"


def boolean_tree(rng: random.Random, depth: int) -> tuple:
    if depth <= 0 or rng.random() < 0.35:
        return ("atom", rng.choice(ATOMS))
    if rng.random() < 0.2:
        return ("not", boolean_tree(rng, depth - 1))
    op = rng.choice(tuple(_BINARY))
    return (op, boolean_tree(rng, depth - 1), boolean_tree(rng, depth - 1))


def _combine(rng: random.Random, depth: int, leaf) -> tuple:
    if depth <= 0 or rng.random() < 0.4:
        return leaf()
    if rng.random() < 0.2:
        return ("not", _combine(rng, depth - 1, leaf))
    op = rng.choice(tuple(_BINARY))
    return (op, _combine(rng, depth - 1, leaf), _combine(rng, depth - 1, leaf))


def formula_tree(rng: random.Random, depth: int = 3) -> tuple:
    """A well-formed formula built layer by layer: Boolean formulas,
    conditionals over them, B over Boolean combinations of those, [] over
    Boolean formulas, and Boolean combinations on top."""

    def cond() -> tuple:
        return ("cond", boolean_tree(rng, 2), boolean_tree(rng, 2))

    def phi1() -> tuple:
        return cond() if rng.random() < 0.5 else boolean_tree(rng, 2)

    def top() -> tuple:
        pick = rng.random()
        if pick < 0.45:
            return ("bel", _combine(rng, 1, phi1))
        if pick < 0.6:
            return ("box", boolean_tree(rng, 2))
        return phi1()

    return _combine(rng, depth - 1, top)


def malformed_formula(rng: random.Random) -> tuple[str, str]:
    """Text that must be rejected, with the error class the parser must raise."""
    a = render(boolean_tree(rng, 2))
    b = render(boolean_tree(rng, 2))
    c = render(boolean_tree(rng, 1))
    choice = rng.randrange(9)
    if choice == 0:
        return a + " &", "ParseError"
    if choice == 1:
        return "(" + a, "ParseError"
    if choice == 2:
        return a + " $ " + b, "ParseError"
    if choice == 3:
        return a + " " + b, "ParseError"
    if choice == 4:
        return "B", "ParseError"
    if choice == 5:
        return f"{a} > ({b} > {c})", "StratificationError"
    if choice == 6:
        return f"B(B({a}) -> {b})", "StratificationError"
    if choice == 7:
        return f"B([]({a}))", "StratificationError"
    return f"[](({a} > {b}))", "StratificationError"


def malformed_frame(rng: random.Random, good: dict, kind: str) -> dict:
    """A copy of ``good`` broken so that loading it reports ``kind``."""
    bad = copy.deepcopy(good)
    entries = bad["selection"]
    if kind == "non_serial":
        bad["belief"][rng.choice(bad["states"])] = []
    elif kind == "missing_selection_entry":
        entries.pop(rng.randrange(len(entries)))
    elif kind == "unknown_state":
        rng.choice(entries)["selected"].append("zz")
    elif kind == "empty_event":
        entries.append({"state": rng.choice(bad["states"]), "event": [], "selected": []})
    elif kind == "duplicate_selection_entry":
        entries.append(copy.deepcopy(rng.choice(entries)))
    elif kind == "bad_structure":
        bad["states"] = bad["states"][:1] * 2
    elif kind == "invalid_atom":
        bad["valuation"]["Bad"] = []
    else:
        raise ValueError(f"unknown frame issue kind {kind!r}")
    return bad
