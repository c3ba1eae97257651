"""Stratified formula language.

Boolean connectives plus three modal operators: a conditional ``>`` over
Boolean operands, a belief operator ``B``, and a global-necessity operator
``[]``.  Operators are layered: formulas that break the layering rules are
well-typed trees but classify as ILLFORMED and are rejected by every
semantic operation.
"""

from __future__ import annotations

from enum import Enum


class Formula:
    """Base of all AST nodes: immutable, hashable, compared by value.  A node
    class declares only its ``__slots__``; this base gives it, with no code
    generated, the matching ``__match_args__``, a positional ``__init__``, and
    equality (to its own type) and a hash over the slots."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        slots = cls.__match_args__ = cls.__slots__
        setters = [vars(cls)[name].__set__ for name in slots]
        if len(slots) == 1:
            (set_0,), (name_0,) = setters, slots

            def __init__(self, operand):
                set_0(self, operand)

            def __eq__(self, other):
                if type(other) is not cls:
                    return NotImplemented
                return getattr(self, name_0) == getattr(other, name_0)

            def __hash__(self):
                return hash(getattr(self, name_0))  # the operand's: cheaper than a 1-tuple's
        else:
            (set_0, set_1), (name_0, name_1) = setters, slots

            def __init__(self, left, right):
                set_0(self, left)
                set_1(self, right)

            def __eq__(self, other):
                if type(other) is not cls:
                    return NotImplemented
                return (getattr(self, name_0) == getattr(other, name_0)
                        and getattr(self, name_1) == getattr(other, name_1))

            def __hash__(self):
                return hash((getattr(self, name_0), getattr(self, name_1)))
        __init__.__qualname__ = f"{cls.__name__}.__init__"
        cls.__init__, cls.__eq__, cls.__hash__ = __init__, __eq__, __hash__

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), tuple([getattr(self, name) for name in self.__slots__])

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


class Atom(Formula):
    __slots__ = ("name",)


class Not(Formula):
    __slots__ = ("body",)


class Or(Formula):
    __slots__ = ("left", "right")


class And(Formula):
    __slots__ = ("left", "right")


class Implies(Formula):
    __slots__ = ("left", "right")


class Iff(Formula):
    __slots__ = ("left", "right")


class Cond(Formula):
    """Conditional ``antecedent > consequent``; both operands must be Boolean."""

    __slots__ = ("antecedent", "consequent")


class Bel(Formula):
    """Belief operator; the body must be a Boolean combination of Boolean and conditional formulas."""

    __slots__ = ("body",)


class Box(Formula):
    """Global necessity; the body must be Boolean."""

    __slots__ = ("body",)


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
