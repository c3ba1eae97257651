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


class Formula:
    """Base of all AST nodes: immutable, hashable, compared by value."""

    __slots__ = ()

    def __repr__(self) -> str:
        # a list, not a generator, so each nesting level adds one Python frame
        fields = [getattr(self, name) for name in self.__match_args__]
        return f"{type(self).__name__}({', '.join(map(repr, fields))})"

    def __invert__(self) -> Formula:
        return Not(self)

    def __and__(self, other: Formula) -> Formula:
        return And(self, other)

    def __or__(self, other: Formula) -> Formula:
        return Or(self, other)


@dataclass(frozen=True, slots=True, repr=False)
class Atom(Formula):
    name: str


@dataclass(frozen=True, slots=True, repr=False)
class Not(Formula):
    body: Formula


@dataclass(frozen=True, slots=True, repr=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True, repr=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True, repr=False)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True, repr=False)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True, repr=False)
class Cond(Formula):
    """Conditional ``antecedent > consequent``; both operands must be Boolean."""

    antecedent: Formula
    consequent: Formula


@dataclass(frozen=True, slots=True, repr=False)
class Bel(Formula):
    """Belief operator; the body must be a Boolean combination of Boolean and conditional formulas."""

    body: Formula


@dataclass(frozen=True, slots=True, repr=False)
class Box(Formula):
    """Global necessity; the body must be Boolean."""

    body: Formula


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


# Layers admissible under B (Boolean combinations of Boolean and conditional formulas);
# tuples, whose membership test hashes no enum member (Enum.__hash__ is Python code).
PHI1_CLASSES = (SyntacticClass.PHI0, SyntacticClass.PHI_COND, SyntacticClass.PHI1)
WELLFORMED_CLASSES = tuple(c for c in SyntacticClass if c is not SyntacticClass.ILLFORMED)


# The layering, declared once: each modal operator -> (the layer it forms,
# the layers its operands may take, and per operand the clause that a
# misplaced operand breaks).  classify and the parser both read it.
_BOOLEAN = (SyntacticClass.PHI0,)
_OPERAND_LAYERS = {
    Cond: (SyntacticClass.PHI_COND, _BOOLEAN, ("antecedent of '>' must be a Boolean formula",
                                               "consequent of '>' must be a Boolean formula")),
    Bel: (SyntacticClass.PHI_B, PHI1_CLASSES,
          ("'B' must apply to a Boolean combination of Boolean and conditional formulas",)),
    Box: (SyntacticClass.PHI_BOX, _BOOLEAN, ("'[]' must apply to a Boolean formula",)),
}


def children(f: Formula) -> list[Formula]:
    """Operands of ``f`` in field order; an atom has none."""
    operands = []
    if not isinstance(f, Atom):
        for name in f.__match_args__:  # a loop: a comprehension costs a frame on 3.11
            operands.append(getattr(f, name))
    return operands


def misplaced_operand(f: Formula) -> tuple[int, str] | None:
    """Position and broken clause of ``f``'s first operand outside its layer, or None."""
    _, admitted, clauses = _OPERAND_LAYERS[type(f)]
    for i, g in enumerate(children(f)):
        if classify(g) not in admitted:
            return i, clauses[i]
    return None


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
    layers = _OPERAND_LAYERS.get(type(f))
    if layers is None:
        raise TypeError(f"not a formula node: {f!r}")
    return layers[0] if misplaced_operand(f) is None else SyntacticClass.ILLFORMED


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
