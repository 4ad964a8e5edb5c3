"""Runtime value representations.

Classical values are plain Python objects (``bool``, ``int``, ``float``,
``str``, ``list``).  Quantum values are :class:`QuantumVariable` handles that
own a slice of the global quantum state managed by the
:class:`~repro.lang.circuit_handler.QuantumCircuitHandler`: the handle stores
the global qubit indices of its register plus its declared type and the
register name for diagnostics.  The register's value lives only in the
session: a classical context measures it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from .errors import QutesRuntimeError
from .types import QutesType

__all__ = ["QuantumVariable", "qubits_needed_for_int", "type_of_python_value"]


def qubits_needed_for_int(value: int) -> int:
    """Number of qubits needed to hold the non-negative integer *value*."""
    if value < 0:
        raise QutesRuntimeError("quantum integers must be non-negative")
    return max(1, value.bit_length())


@dataclass
class QuantumVariable:
    """A handle to a quantum register owned by the circuit handler.

    Attributes:
        name: the register / variable name.
        type: the Qutes quantum type (``qubit``, ``quint`` or ``qustring``).
        qubits: global indices of the qubits backing the value (little-endian
            for ``quint``; character ``i`` of a ``qustring`` is qubit ``i``).
    """

    name: str
    type: QutesType
    qubits: List[int] = field(default_factory=list)

    @property
    def size(self) -> int:
        """Number of qubits backing this variable."""
        return len(self.qubits)

    def __repr__(self) -> str:
        return f"QuantumVariable({self.name!r}: {self.type}, qubits={self.qubits})"


def type_of_python_value(value) -> QutesType:
    """Infer the Qutes type of a plain Python runtime value."""
    if isinstance(value, QuantumVariable):
        return value.type
    if isinstance(value, bool):
        return QutesType.bool_()
    if isinstance(value, int):
        return QutesType.int_()
    if isinstance(value, float):
        return QutesType.float_()
    if isinstance(value, str):
        return QutesType.string()
    if isinstance(value, list):
        if not value:
            return QutesType.array_of(QutesType.int_())
        return QutesType.array_of(type_of_python_value(value[0]))
    if value is None:
        return QutesType.void()
    raise QutesRuntimeError(f"value {value!r} has no Qutes type")
