"""The ``TypeCastingHandler``: classical <-> quantum conversions.

Exactly as described in the paper, this component owns the two implicit
conversion directions of the language:

* **promotion** -- when a classical value is assigned to (or combined with) a
  quantum variable, the value is encoded into a freshly allocated quantum
  register (basis-state encoding for single values, amplitude encoding for
  superposition literals);
* **measurement** -- when a quantum value reaches a classical context (a
  condition, a comparison, a ``print``, a classical variable), the register
  is measured automatically and the collapsed value is used.

It also hosts the small classical coercion matrix (bool -> int -> float).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from ..algorithms.superposition import amplitudes_for_values
from .circuit_handler import QuantumCircuitHandler
from .errors import QutesRuntimeError, QutesTypeError
from .types import QutesType, TypeKind
from .values import QuantumVariable, qubits_needed_for_int, type_of_python_value

__all__ = ["TypeCastingHandler"]


class TypeCastingHandler:
    """Implements implicit conversions between the classical and quantum domains."""

    def __init__(self, handler: QuantumCircuitHandler):
        self.handler = handler

    # -- classical -> quantum (promotion) -------------------------------------------

    def encode_bool(self, value: bool, name: str = "qb") -> QuantumVariable:
        """Encode a classical bool into a fresh single-qubit register."""
        qubits = self.handler.allocate_register(name, 1)
        if value:
            self.handler.initialize_basis(1, qubits)
        return QuantumVariable(name=name, type=QutesType.qubit(), qubits=qubits)

    def encode_int(self, value: int, name: str = "qi", num_qubits: Optional[int] = None) -> QuantumVariable:
        """Encode a classical non-negative int into a fresh ``quint`` register."""
        if value < 0:
            raise QutesRuntimeError("quantum integers must be non-negative")
        size = num_qubits if num_qubits is not None else qubits_needed_for_int(value)
        if value >= 2**size:
            raise QutesRuntimeError(f"value {value} does not fit in {size} qubits")
        qubits = self.handler.allocate_register(name, size)
        self.handler.initialize_basis(value, qubits)
        return QuantumVariable(name=name, type=QutesType.quint(), qubits=qubits)

    def encode_bitstring(self, value: str, name: str = "qs") -> QuantumVariable:
        """Encode a classical bitstring into a fresh ``qustring`` register.

        Character ``i`` of the string is stored in qubit ``i`` of the register.
        """
        if not value or any(ch not in "01" for ch in value):
            raise QutesTypeError(
                "qustring values must be non-empty bitstrings (current hardware "
                "constraint, as in the paper)"
            )
        qubits = self.handler.allocate_register(name, len(value))
        as_int = sum((1 << i) for i, ch in enumerate(value) if ch == "1")
        self.handler.initialize_basis(as_int, qubits)
        return QuantumVariable(name=name, type=QutesType.qustring(), qubits=qubits)

    def encode_superposition(self, values: Sequence[int], name: str = "qsup",
                             num_qubits: Optional[int] = None) -> QuantumVariable:
        """Encode a list of ints as an equal superposition ``quint``."""
        values = [self.to_int(v) for v in values]
        if not values:
            raise QutesTypeError("superposition literals need at least one value")
        if any(v < 0 for v in values):
            raise QutesRuntimeError("quantum integers must be non-negative")
        size = num_qubits if num_qubits is not None else max(qubits_needed_for_int(max(values)), 1)
        qubits = self.handler.allocate_register(name, size)
        amplitudes = amplitudes_for_values(values, size)
        self.handler.initialize(amplitudes, qubits)
        return QuantumVariable(name=name, type=QutesType.quint(), qubits=qubits)

    def encode_ket(self, state: str, name: str = "qk") -> QuantumVariable:
        """Encode a ket literal (``|0>``, ``|1>``, ``|+>``, ``|->``) into a qubit."""
        qubits = self.handler.allocate_register(name, 1)
        if state == "1":
            self.handler.apply_gate("x", qubits)
        elif state == "+":
            self.handler.apply_gate("h", qubits)
        elif state == "-":
            self.handler.apply_gate("x", qubits)
            self.handler.apply_gate("h", qubits)
        elif state != "0":
            raise QutesTypeError(f"unknown ket literal |{state}>")
        return QuantumVariable(name=name, type=QutesType.qubit(), qubits=qubits)

    def promote_to_quantum(self, value, target: QutesType, name: str = "q") -> QuantumVariable:
        """Promote a classical *value* to the quantum *target* type.

        ``target.size`` (from a ``quint[4]``-style declaration) pins the
        register width; without it the width is derived from the value.
        """
        if isinstance(value, QuantumVariable):
            if value.type.kind == target.kind or (
                target.kind is TypeKind.QUINT and value.type.kind is TypeKind.QUBIT
            ):
                if target.size is not None and target.size != value.size:
                    if target.size < value.size:
                        raise QutesTypeError(
                            f"cannot narrow a {value.size}-qubit register to {target}"
                        )
                    # widen: append |0> qubits as the new most-significant bits
                    extra = self.handler.allocate_register(f"{name}_pad", target.size - value.size)
                    value.qubits = list(value.qubits) + extra
                return value
            if target.kind is TypeKind.QUBIT and value.type.kind is TypeKind.QUINT and value.size == 1:
                # a one-qubit quint literal (``0q`` / ``1q``) narrows to qubit
                value.type = QutesType.qubit()
                return value
            raise QutesTypeError(f"cannot convert {value.type} to {target}")
        if target.kind is TypeKind.QUBIT:
            return self.encode_bool(self.to_bool(value), name)
        if target.kind is TypeKind.QUINT:
            if isinstance(value, list):
                return self.encode_superposition(value, name, num_qubits=target.size)
            return self.encode_int(self.to_int(value), name, num_qubits=target.size)
        if target.kind is TypeKind.QUSTRING:
            if not isinstance(value, str):
                raise QutesTypeError(f"cannot promote {type_of_python_value(value)} to qustring")
            return self.encode_bitstring(value, name)
        raise QutesTypeError(f"{target} is not a quantum type")

    # -- quantum -> classical (automatic measurement) ----------------------------------

    def measure_variable(self, variable: QuantumVariable) -> Union[bool, int, str]:
        """Measure *variable*, collapse it, and return the classical value."""
        outcome = self.handler.measure(variable.qubits, label=variable.name)
        return self._outcome_to_classical(variable, outcome)

    def peek_variable(self, variable: QuantumVariable, shots: int = 1024) -> dict:
        """Sampling statistics for *variable* without collapsing it."""
        raw = self.handler.sample(variable.qubits, shots=shots)
        return {self._outcome_to_classical(variable, value): count for value, count in raw.items()}

    def _outcome_to_classical(self, variable: QuantumVariable, outcome: int):
        kind = variable.type.kind
        if kind is TypeKind.QUBIT:
            return bool(outcome)
        if kind is TypeKind.QUINT:
            return int(outcome)
        if kind is TypeKind.QUSTRING:
            return "".join(
                "1" if (outcome >> i) & 1 else "0" for i in range(variable.size)
            )
        raise QutesTypeError(f"cannot measure a value of type {variable.type}")

    # -- classical coercions --------------------------------------------------------------

    def to_bool(self, value) -> bool:
        """Coerce *value* to bool, measuring quantum operands automatically."""
        if isinstance(value, QuantumVariable):
            measured = self.measure_variable(value)
            return bool(int(measured, 2)) if isinstance(measured, str) else bool(measured)
        if isinstance(value, (bool, int, float)):
            return bool(value)
        if isinstance(value, str):
            return len(value) > 0
        if isinstance(value, list):
            return len(value) > 0
        raise QutesTypeError(f"cannot interpret {value!r} as a boolean")

    def to_int(self, value) -> int:
        """Coerce *value* to int, measuring quantum operands automatically."""
        if isinstance(value, QuantumVariable):
            measured = self.measure_variable(value)
            if isinstance(measured, str):
                return int(measured, 2) if measured else 0
            return int(measured)
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value
        if isinstance(value, float):
            return int(value)
        raise QutesTypeError(f"cannot convert {type_of_python_value(value)} to int")

    def to_float(self, value) -> float:
        """Coerce *value* to float, measuring quantum operands automatically."""
        if isinstance(value, QuantumVariable):
            return float(self.to_int(value))
        if isinstance(value, (bool, int, float)):
            return float(value)
        raise QutesTypeError(f"cannot convert {type_of_python_value(value)} to float")

    def to_classical(self, value):
        """Collapse *value* (and array elements) into plain classical data."""
        if isinstance(value, QuantumVariable):
            return self.measure_variable(value)
        if isinstance(value, list):
            return [self.to_classical(v) for v in value]
        return value

    # -- declaration-time conversion ---------------------------------------------------------

    def coerce_for_declaration(self, value, target: QutesType, name: str):
        """Convert *value* so it can be stored in a variable of type *target*."""
        kind = target.kind
        if kind is TypeKind.ARRAY:
            if not isinstance(value, list):
                raise QutesTypeError(f"cannot initialise {target} from {type_of_python_value(value)}")
            element_type = target.element
            return [
                self.coerce_for_declaration(element, element_type, f"{name}_{i}")
                for i, element in enumerate(value)
            ]
        if target.is_quantum:
            return self.promote_to_quantum(value, target, name)
        # classical targets: quantum initialisers are measured automatically
        if isinstance(value, QuantumVariable):
            value = self.measure_variable(value)
        if kind is TypeKind.BOOL:
            return self.to_bool(value)
        if kind is TypeKind.INT:
            return self.to_int(value)
        if kind is TypeKind.FLOAT:
            return self.to_float(value)
        if kind is TypeKind.STRING:
            if not isinstance(value, str):
                raise QutesTypeError(f"cannot initialise string from {type_of_python_value(value)}")
            return value
        raise QutesTypeError(f"cannot declare a variable of type {target}")
