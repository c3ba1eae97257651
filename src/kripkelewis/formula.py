"""Stratified formula language.

Boolean connectives plus three modal operators: a conditional ``>`` over
Boolean operands, a belief operator ``B``, and a global-necessity operator
``[]``.  Operators are layered: formulas that break the layering rules are
well-typed trees but classify as ILLFORMED and are rejected by every
semantic operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator


class Formula:
    """Base of all AST nodes: immutable, hashable, compared by value."""

    __slots__ = ()

    def __invert__(self) -> Formula:
        return Not(self)

    def __and__(self, other: Formula) -> Formula:
        return And(self, other)

    def __or__(self, other: Formula) -> Formula:
        return Or(self, other)


@dataclass(frozen=True, slots=True)
class Atom(Formula):
    name: str

    def __repr__(self) -> str:
        return f"Atom({self.name!r})"


@dataclass(frozen=True, slots=True)
class Not(Formula):
    body: Formula

    def __repr__(self) -> str:
        return f"Not({self.body!r})"


@dataclass(frozen=True, slots=True)
class Or(Formula):
    left: Formula
    right: Formula

    def __repr__(self) -> str:
        return f"Or({self.left!r}, {self.right!r})"


@dataclass(frozen=True, slots=True)
class And(Formula):
    left: Formula
    right: Formula

    def __repr__(self) -> str:
        return f"And({self.left!r}, {self.right!r})"


@dataclass(frozen=True, slots=True)
class Implies(Formula):
    left: Formula
    right: Formula

    def __repr__(self) -> str:
        return f"Implies({self.left!r}, {self.right!r})"


@dataclass(frozen=True, slots=True)
class Iff(Formula):
    left: Formula
    right: Formula

    def __repr__(self) -> str:
        return f"Iff({self.left!r}, {self.right!r})"


@dataclass(frozen=True, slots=True)
class Cond(Formula):
    """Conditional ``antecedent > consequent``; both operands must be Boolean."""

    antecedent: Formula
    consequent: Formula

    def __repr__(self) -> str:
        return f"Cond({self.antecedent!r}, {self.consequent!r})"


@dataclass(frozen=True, slots=True)
class Bel(Formula):
    """Belief operator; the body must be a Boolean combination of Boolean and conditional formulas."""

    body: Formula

    def __repr__(self) -> str:
        return f"Bel({self.body!r})"


@dataclass(frozen=True, slots=True)
class Box(Formula):
    """Global necessity; the body must be Boolean."""

    body: Formula

    def __repr__(self) -> str:
        return f"Box({self.body!r})"


BOOLEAN_NODES = (Not, Or, And, Implies, Iff)


class SyntacticClass(Enum):
    """Most specific syntactic layer of a formula (layers nest upward)."""

    PHI0 = "Phi0"
    PHI_COND = "PhiCond"
    PHI1 = "Phi1"
    PHI_B = "PhiB"
    PHI_BOX = "PhiBox"
    PHI = "Phi"
    ILLFORMED = "Illformed"


# Layers admissible under B (Boolean combinations of Boolean and conditional formulas).
PHI1_CLASSES = frozenset(
    {SyntacticClass.PHI0, SyntacticClass.PHI_COND, SyntacticClass.PHI1}
)
WELLFORMED_CLASSES = frozenset(
    c for c in SyntacticClass if c is not SyntacticClass.ILLFORMED
)


def children(f: Formula) -> Iterator[Formula]:
    if isinstance(f, (Not, Bel, Box)):
        yield f.body
    elif isinstance(f, (Or, And, Implies, Iff)):
        yield f.left
        yield f.right
    elif isinstance(f, Cond):
        yield f.antecedent
        yield f.consequent


def classify(f: Formula) -> SyntacticClass:
    """Assign the most specific syntactic layer, or ILLFORMED.

    PHI0: no modal operators.  PHI_COND: ``a > b`` with Boolean operands.
    PHI1: Boolean combinations of PHI0 and PHI_COND.  PHI_B: ``B a`` with
    ``a`` in PHI1 (so ``B`` cannot apply to ``B``- or ``[]``-formulas).
    PHI_BOX: ``[] a`` with Boolean ``a``.  PHI: Boolean combinations of
    PHI1, PHI_B and PHI_BOX.
    """
    if isinstance(f, Atom):
        return SyntacticClass.PHI0
    if isinstance(f, BOOLEAN_NODES):
        kinds = [classify(g) for g in children(f)]
        if all(k is SyntacticClass.PHI0 for k in kinds):
            return SyntacticClass.PHI0
        if all(k in PHI1_CLASSES for k in kinds):
            return SyntacticClass.PHI1
        if all(k in WELLFORMED_CLASSES for k in kinds):
            return SyntacticClass.PHI
        return SyntacticClass.ILLFORMED
    if isinstance(f, Cond):
        if (
            classify(f.antecedent) is SyntacticClass.PHI0
            and classify(f.consequent) is SyntacticClass.PHI0
        ):
            return SyntacticClass.PHI_COND
        return SyntacticClass.ILLFORMED
    if isinstance(f, Bel):
        if classify(f.body) in PHI1_CLASSES:
            return SyntacticClass.PHI_B
        return SyntacticClass.ILLFORMED
    if isinstance(f, Box):
        if classify(f.body) is SyntacticClass.PHI0:
            return SyntacticClass.PHI_BOX
        return SyntacticClass.ILLFORMED
    raise TypeError(f"not a formula node: {f!r}")


def is_wellformed(f: Formula) -> bool:
    return classify(f) is not SyntacticClass.ILLFORMED


def atoms(f: Formula) -> set[str]:
    """Names of the atoms occurring in ``f``."""
    if isinstance(f, Atom):
        return {f.name}
    out: set[str] = set()
    for g in children(f):
        out |= atoms(g)
    return out


def require_boolean(f: Formula) -> None:
    cls = classify(f)
    if cls is not SyntacticClass.PHI0:
        raise ValueError(f"expected a Boolean formula, got {cls.value}: {f!r}")
