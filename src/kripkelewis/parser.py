"""Text syntax for formulas, with round-trip printing.

Grammar, loosest binding first::

    iff    := imp ('<->' iff)?          right-associative
    imp    := cond ('->' imp)?          right-associative
    cond   := disj ('>' disj)?          non-associative, Boolean operands
    disj   := conj ('|' conj)*          left-associative
    conj   := unary ('&' unary)*        left-associative
    unary  := '~' unary | 'B' unary | '[]' unary | '(' iff ')' | atom
    atom   := [a-z][a-z0-9_]*

Unicode aliases are accepted on input but never printed: ¬ for ~, ∨ for |,
∧ for &, → for ->, ↔ for <->, □ for [].

``B`` grabs the tightest following unit, so ``B p > q`` parses as
``(B p) > q`` and is then rejected because a conditional operand must be
Boolean; write ``B(p > q)``.  Chained ``>`` must be parenthesized, and is
then rejected by the layering rules anyway.

Nesting is bounded: more than ``MAX_NESTING`` operators and parentheses
on the way down to one atom is a ParseError, not a RecursionError.
"""

from __future__ import annotations

import re

from .formula import (
    And,
    Atom,
    Bel,
    Box,
    Cond,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    SyntacticClass,
    PHI1_CLASSES,
    classify,
)


class ParseError(ValueError):
    """Syntax error at a known offset, with deterministic message."""

    def __init__(self, offset: int, expected: str, found: str):
        self.offset = offset
        self.expected = expected
        self.found = found
        super().__init__(f"at offset {offset}: expected {expected}, found {found}")


class StratificationError(ParseError):
    """An operator was applied outside its admissible layer."""

    def __init__(self, offset: int, clause: str, subterm: str):
        self.clause = clause
        self.subterm = subterm
        ValueError.__init__(self, f"at offset {offset}: {clause}: {subterm}")
        self.offset = offset
        self.expected = clause
        self.found = subterm


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<atom>[a-z][a-z0-9_]*)
    | (?P<bel>B)
    | (?P<box>\[\]|□)
    | (?P<not>~|¬)
    | (?P<and>&|∧)
    | (?P<or>\||∨)
    | (?P<iff><->|↔)
    | (?P<imp>->|→)
    | (?P<cond>>)
    | (?P<lp>\()
    | (?P<rp>\))
    """,
    re.VERBOSE,
)

_END = "end"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(pos, "a token", repr(text[pos]))
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append((_END, "end of input", len(text)))
    return tokens


# Binding levels for the climb: key -> (level, right_associative, constructor).
_BINOPS = {
    "iff": (1, True, Iff),
    "imp": (2, True, Implies),
    "cond": (3, False, None),
    "or": (4, False, Or),
    "and": (5, False, And),
}
_UNARY_LEVEL = 6

# Deepest nesting the parser accepts, counting every operator and pair of
# parentheses on the way down to an atom.  Kept well under the interpreter's
# recursion limit so that no recursive pass over a parsed formula overflows.
MAX_NESTING = 200


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.pos = 0
        self.nesting = 0  # operators and parentheses whose operand is being parsed

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Formula:
        node, _, _ = self.parse_level(1)
        kind, text, offset = self.peek()
        if kind is not _END:
            raise ParseError(offset, "end of input", repr(text))
        return node

    def _check_nesting(self, depth: int, offset: int, text: str) -> None:
        if depth > MAX_NESTING:
            raise ParseError(offset, f"at most {MAX_NESTING} levels of nesting", repr(text))

    def _descend(self, offset: int, text: str) -> None:
        """Enter the operand of the operator at ``offset``; refusing here
        keeps the recursion shallow even before any node is built."""
        self.nesting += 1
        self._check_nesting(self.nesting, offset, text)

    # Each parse method returns the node, the offset where it starts, and
    # its nesting depth (operators and parentheses down to its deepest atom).

    def parse_level(self, min_level: int) -> tuple[Formula, int, int]:
        node, start, depth = self.parse_unary()
        while True:
            kind, text, offset = self.peek()
            info = _BINOPS.get(kind)
            if info is None or info[0] < min_level:
                return node, start, depth
            level, right, ctor = info
            self.advance()
            self._descend(offset, text)
            rhs, rhs_start, rhs_depth = self.parse_level(level if right else level + 1)
            self.nesting -= 1
            depth = max(depth, rhs_depth) + 1
            self._check_nesting(depth, offset, text)
            if kind == "cond":
                node = self._make_cond(node, start, rhs, rhs_start)
                nxt = self.peek()
                if nxt[0] == "cond":
                    raise ParseError(
                        nxt[2],
                        "no further '>' ('>' is non-associative; parenthesize)",
                        repr(nxt[1]),
                    )
            else:
                node = ctor(node, rhs)

    def parse_unary(self) -> tuple[Formula, int, int]:
        kind, text, offset = self.advance()
        if kind == "atom":
            return Atom(text), offset, 0
        if kind not in ("not", "bel", "box", "lp"):
            found = repr(text) if kind is not _END else text
            raise ParseError(offset, "a formula", found)
        self._descend(offset, text)
        if kind == "lp":
            node, _, depth = self.parse_level(1)
            k, t, o = self.advance()
            if k != "rp":
                raise ParseError(o, "')'", repr(t) if k is not _END else t)
        else:
            body, body_start, depth = self.parse_unary()
            if kind == "not":
                node = Not(body)
            elif kind == "bel":
                node = self._make_bel(body, body_start)
            else:
                node = self._make_box(body, body_start)
        self.nesting -= 1
        return node, offset, depth + 1

    def _make_cond(self, lhs: Formula, lhs_start: int, rhs: Formula, rhs_start: int) -> Formula:
        if classify(lhs) is not SyntacticClass.PHI0:
            raise StratificationError(
                lhs_start, "antecedent of '>' must be a Boolean formula", format_formula(lhs)
            )
        if classify(rhs) is not SyntacticClass.PHI0:
            raise StratificationError(
                rhs_start, "consequent of '>' must be a Boolean formula", format_formula(rhs)
            )
        return Cond(lhs, rhs)

    def _make_bel(self, body: Formula, body_start: int) -> Formula:
        if classify(body) not in PHI1_CLASSES:
            raise StratificationError(
                body_start,
                "'B' must apply to a Boolean combination of Boolean and conditional formulas",
                format_formula(body),
            )
        return Bel(body)

    def _make_box(self, body: Formula, body_start: int) -> Formula:
        if classify(body) is not SyntacticClass.PHI0:
            raise StratificationError(
                body_start, "'[]' must apply to a Boolean formula", format_formula(body)
            )
        return Box(body)


def parse(text: str) -> Formula:
    """Parse ``text``; raises ParseError, or StratificationError when the
    string is grammatical but violates the operator layering."""
    return _Parser(_tokenize(text)).parse()


_BINARY_INFO = {
    Iff: ("<->", 1, "right"),
    Implies: ("->", 2, "right"),
    Cond: (">", 3, "none"),
    Or: ("|", 4, "left"),
    And: ("&", 5, "left"),
}


def format_formula(f: Formula) -> str:
    """Render with minimal parentheses; ``parse(format_formula(f))`` equals ``f``."""
    return _fmt(f, 0)


def _fmt(f: Formula, min_level: int) -> str:
    text, level = _render(f)
    if level < min_level:
        return "(" + text + ")"
    return text


def _render(f: Formula) -> tuple[str, int]:
    if isinstance(f, Atom):
        return f.name, 7
    if isinstance(f, Not):
        return "~" + _fmt(f.body, _UNARY_LEVEL), _UNARY_LEVEL
    if isinstance(f, Box):
        return "[]" + _fmt(f.body, _UNARY_LEVEL), _UNARY_LEVEL
    if isinstance(f, Bel):
        inner = _fmt(f.body, _UNARY_LEVEL)
        sep = "" if inner.startswith("(") else " "
        return "B" + sep + inner, _UNARY_LEVEL
    op, level, assoc = _BINARY_INFO[type(f)]
    if isinstance(f, Cond):
        left, right = f.antecedent, f.consequent
    else:
        left, right = f.left, f.right
    if assoc == "left":
        lmin, rmin = level, level + 1
    elif assoc == "right":
        lmin, rmin = level + 1, level
    else:
        lmin, rmin = level + 1, level + 1
    return f"{_fmt(left, lmin)} {op} {_fmt(right, rmin)}", level
