"""The Qutes type system.

The language supports the classical types ``bool``, ``int``, ``float`` and
``string``, the quantum types ``qubit``, ``quint`` and ``qustring``, arrays of
any of those, ``void`` for functions without a return value, and function
types.  :class:`QutesType` instances are immutable value objects; the module
also centralises the promotion rules used by the
:class:`~repro.lang.casting.TypeCastingHandler`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .errors import QutesTypeError

__all__ = ["TypeKind", "QutesType"]


class TypeKind(enum.Enum):
    """The primitive kinds a Qutes type can have."""

    BOOL = "bool"
    INT = "int"
    FLOAT = "float"
    STRING = "string"
    QUBIT = "qubit"
    QUINT = "quint"
    QUSTRING = "qustring"
    VOID = "void"
    ARRAY = "array"
    FUNCTION = "function"


_QUANTUM_KINDS = {TypeKind.QUBIT, TypeKind.QUINT, TypeKind.QUSTRING}
_CLASSICAL_VALUE_KINDS = {TypeKind.BOOL, TypeKind.INT, TypeKind.FLOAT, TypeKind.STRING}

#: classical kind each quantum kind collapses to on measurement
_MEASURE_TARGET = {
    TypeKind.QUBIT: TypeKind.BOOL,
    TypeKind.QUINT: TypeKind.INT,
    TypeKind.QUSTRING: TypeKind.STRING,
}

#: quantum kind each classical kind is promoted to
_PROMOTION_TARGET = {
    TypeKind.BOOL: TypeKind.QUBIT,
    TypeKind.INT: TypeKind.QUINT,
    TypeKind.STRING: TypeKind.QUSTRING,
}


@dataclass(frozen=True)
class QutesType:
    """A (possibly composite) Qutes type.

    ``size`` is only meaningful for quantum kinds and pins the register width
    in declarations such as ``quint[4] counter = 0q;``; ``None`` means "sized
    by the initialiser value".
    """

    kind: TypeKind
    element: Optional["QutesType"] = None
    size: Optional[int] = None

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def bool_() -> "QutesType":
        return QutesType(TypeKind.BOOL)

    @staticmethod
    def int_() -> "QutesType":
        return QutesType(TypeKind.INT)

    @staticmethod
    def float_() -> "QutesType":
        return QutesType(TypeKind.FLOAT)

    @staticmethod
    def string() -> "QutesType":
        return QutesType(TypeKind.STRING)

    @staticmethod
    def qubit() -> "QutesType":
        return QutesType(TypeKind.QUBIT)

    @staticmethod
    def quint() -> "QutesType":
        return QutesType(TypeKind.QUINT)

    @staticmethod
    def qustring() -> "QutesType":
        return QutesType(TypeKind.QUSTRING)

    @staticmethod
    def void() -> "QutesType":
        return QutesType(TypeKind.VOID)

    @staticmethod
    def array_of(element: "QutesType") -> "QutesType":
        if element.kind in (TypeKind.VOID, TypeKind.ARRAY, TypeKind.FUNCTION):
            raise QutesTypeError(f"cannot build an array of {element}")
        return QutesType(TypeKind.ARRAY, element)

    @staticmethod
    def sized(kind_type: "QutesType", size: int) -> "QutesType":
        """A quantum type with an explicit register width (``quint[4]``)."""
        if kind_type.kind not in _QUANTUM_KINDS:
            raise QutesTypeError(f"only quantum types can carry a size, not {kind_type}")
        if size <= 0:
            raise QutesTypeError("quantum register sizes must be positive")
        return QutesType(kind_type.kind, None, size)

    @staticmethod
    def function() -> "QutesType":
        return QutesType(TypeKind.FUNCTION)

    # -- predicates ---------------------------------------------------------------

    @property
    def is_quantum(self) -> bool:
        """Whether values of this type live in quantum registers."""
        if self.kind is TypeKind.ARRAY:
            return self.element.is_quantum  # type: ignore[union-attr]
        return self.kind in _QUANTUM_KINDS

    @property
    def is_classical(self) -> bool:
        """Whether values of this type are plain Python values."""
        if self.kind is TypeKind.ARRAY:
            return self.element.is_classical  # type: ignore[union-attr]
        return self.kind in _CLASSICAL_VALUE_KINDS

    # -- conversions ---------------------------------------------------------------

    def measured_type(self) -> "QutesType":
        """The classical type a value of this type collapses to on measurement."""
        if self.kind in _MEASURE_TARGET:
            return QutesType(_MEASURE_TARGET[self.kind])
        if self.kind is TypeKind.ARRAY and self.element is not None and self.element.is_quantum:
            return QutesType.array_of(self.element.measured_type())
        raise QutesTypeError(f"type {self} cannot be measured")

    def promoted_type(self) -> "QutesType":
        """The quantum type a classical value of this type is promoted to."""
        if self.kind in _PROMOTION_TARGET:
            return QutesType(_PROMOTION_TARGET[self.kind])
        raise QutesTypeError(f"type {self} cannot be promoted to a quantum type")

    def can_promote_to(self, other: "QutesType") -> bool:
        """Whether a value of this type may be implicitly converted to *other*."""
        if self == other:
            return True
        kind, target = self.kind, other.kind
        classical_widening = {
            (TypeKind.BOOL, TypeKind.INT),
            (TypeKind.BOOL, TypeKind.FLOAT),
            (TypeKind.INT, TypeKind.FLOAT),
        }
        if (kind, target) in classical_widening:
            return True
        quantum_promotion = {
            (TypeKind.BOOL, TypeKind.QUBIT),
            (TypeKind.BOOL, TypeKind.QUINT),
            (TypeKind.INT, TypeKind.QUINT),
            (TypeKind.STRING, TypeKind.QUSTRING),
            (TypeKind.QUBIT, TypeKind.QUINT),
        }
        if (kind, target) in quantum_promotion:
            return True
        measurement = {
            (TypeKind.QUBIT, TypeKind.BOOL),
            (TypeKind.QUBIT, TypeKind.INT),
            (TypeKind.QUINT, TypeKind.INT),
            (TypeKind.QUSTRING, TypeKind.STRING),
        }
        if (kind, target) in measurement:
            return True
        if kind is TypeKind.ARRAY and target is TypeKind.ARRAY:
            return self.element.can_promote_to(other.element)  # type: ignore[union-attr]
        return False

    def __str__(self) -> str:
        if self.kind is TypeKind.ARRAY:
            return f"{self.element}[]"
        if self.size is not None:
            return f"{self.kind.value}[{self.size}]"
        return self.kind.value

    def __repr__(self) -> str:
        return f"QutesType({self})"
