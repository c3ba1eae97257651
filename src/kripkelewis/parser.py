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
    children,
    misplaced_operand,
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


# The binary operators, loosest first: token kind -> (printed text, binding
# level, associativity, constructor).  The climb reads it by token kind, the
# printer by constructor.
_BINOPS = {
    "iff": ("<->", 1, "right", Iff),
    "imp": ("->", 2, "right", Implies),
    "cond": (">", 3, "none", Cond),
    "or": ("|", 4, "left", Or),
    "and": ("&", 5, "left", And),
}
_BINARY_INFO = {ctor: (text, level, assoc) for text, level, assoc, ctor in _BINOPS.values()}
_PREFIX_TEXT = {Not: "~", Box: "[]", Bel: "B"}
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
            if info is None or info[1] < min_level:
                return node, start, depth
            _, level, assoc, ctor = info
            self.advance()
            self._descend(offset, text)
            rhs, rhs_start, rhs_depth = self.parse_level(level + (assoc != "right"))
            self.nesting -= 1
            depth = max(depth, rhs_depth) + 1
            self._check_nesting(depth, offset, text)
            if kind == "cond":
                node = _make(Cond, (node, rhs), (start, rhs_start))
                nxt, text, offset = self.peek()
                if nxt == "cond":
                    raise ParseError(offset, "no further '>' ('>' is non-associative; "
                                     "parenthesize)", repr(text))
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
            else:
                node = _make(Bel if kind == "bel" else Box, (body,), (body_start,))
        self.nesting -= 1
        return node, offset, depth + 1


def _make(ctor: type[Formula], operands: tuple[Formula, ...], starts: tuple[int, ...]) -> Formula:
    """Build ``ctor(*operands)``, refusing at its start the first operand outside its layer."""
    node = ctor(*operands)
    misplaced = misplaced_operand(node)
    if misplaced is not None:
        i, clause = misplaced
        raise StratificationError(starts[i], clause, format_formula(operands[i]))
    return node


def parse(text: str) -> Formula:
    """Parse ``text``; raises ParseError, or StratificationError when the
    string is grammatical but violates the operator layering."""
    return _Parser(_tokenize(text)).parse()


def format_formula(f: Formula) -> str:
    """Render with minimal parentheses; ``parse(format_formula(f))`` equals ``f``."""
    return _fmt(f, 0)


def _fmt(f: Formula, min_level: int) -> str:
    text, level = _render(f)
    return "(" + text + ")" if level < min_level else text


def _render(f: Formula) -> tuple[str, int]:
    if isinstance(f, Atom):
        return f.name, 7
    prefix = _PREFIX_TEXT.get(type(f))
    if prefix is not None:  # "B" is spaced from an unparenthesized operand
        inner = _fmt(f.body, _UNARY_LEVEL)
        sep = " " if prefix == "B" and not inner.startswith("(") else ""
        return prefix + sep + inner, _UNARY_LEVEL
    op, level, assoc = _BINARY_INFO[type(f)]
    left, right = children(f)
    lmin, rmin = level + (assoc != "left"), level + (assoc != "right")
    return f"{_fmt(left, lmin)} {op} {_fmt(right, rmin)}", level
