"""Circuit instruction set.

Instructions are the nodes stored inside a :class:`~repro.qsim.circuit.QuantumCircuit`.
They are deliberately lightweight: an instruction knows its name, how many
qubits/clbits it touches, its parameters and (for unitaries) how to produce
its matrix.  Qubit binding happens in :class:`~repro.qsim.circuit.CircuitInstruction`.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from . import gates
from .exceptions import CircuitError

__all__ = [
    "Instruction",
    "Gate",
    "UnitaryGate",
    "ControlledGate",
    "Measure",
    "Reset",
    "Barrier",
    "Initialize",
]


class Instruction:
    """Base class for every operation a circuit can contain."""

    def __init__(
        self,
        name: str,
        num_qubits: int,
        num_clbits: int = 0,
        params: Sequence[float] | None = None,
    ):
        if num_qubits < 0 or num_clbits < 0:
            raise CircuitError("instruction arity must be non-negative")
        self.name = name
        self.num_qubits = num_qubits
        self.num_clbits = num_clbits
        self.params: List[float] = list(params or [])

    @property
    def is_unitary(self) -> bool:
        """Whether this instruction has a unitary matrix representation."""
        return False

    def to_matrix(self) -> np.ndarray:
        raise CircuitError(f"instruction {self.name!r} has no matrix form")

    def inverse(self) -> "Instruction":
        raise CircuitError(f"instruction {self.name!r} is not invertible")

    def copy(self) -> "Instruction":
        new = type(self).__new__(type(self))
        new.__dict__.update(self.__dict__)
        new.params = list(self.params)
        return new

    def __repr__(self) -> str:
        params = ", ".join(f"{p:g}" if isinstance(p, float) else repr(p) for p in self.params)
        return f"{type(self).__name__}({self.name!r}{', ' + params if params else ''})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instruction):
            return NotImplemented
        return (
            self.name == other.name
            and self.num_qubits == other.num_qubits
            and self.num_clbits == other.num_clbits
            and len(self.params) == len(other.params)
            and all(np.allclose(a, b) for a, b in zip(self.params, other.params))
        )


class Gate(Instruction):
    """A named unitary gate resolved through :data:`repro.qsim.gates.GATE_REGISTRY`.

    A registry gate must be declared with its registered arity: every engine
    and the Clifford classifier read the gate by its name, so a ``z`` declared
    on two qubits is rejected here, once, rather than run differently by each.
    A non-finite parameter is rejected here too: no pass, engine or QASM
    export has a meaning for it.
    """

    def __init__(self, name: str, num_qubits: int, params: Sequence[float] | None = None):
        spec = gates.GATE_REGISTRY.get(name)
        if spec is not None and spec.num_qubits != num_qubits:
            raise CircuitError(
                f"gate {name!r} acts on {spec.num_qubits} qubit(s), not {num_qubits}"
            )
        super().__init__(name, num_qubits, 0, params)
        if self.params and not all(map(math.isfinite, self.params)):
            raise CircuitError(f"gate {name!r} has a non-finite parameter")

    @property
    def is_unitary(self) -> bool:
        return True

    def to_matrix(self) -> np.ndarray:
        return gates.gate_matrix(self.name, self.params)

    def inverse(self) -> "Gate":
        matrix = self.to_matrix().conj().T
        return UnitaryGate(matrix, label=f"{self.name}_dg")

    def control(self, num_controls: int = 1) -> "ControlledGate":
        """Return the controlled version of this gate."""
        return ControlledGate(self, num_controls)


class UnitaryGate(Gate):
    """A gate defined directly by an explicit unitary matrix."""

    def __init__(self, matrix: np.ndarray, label: str = "unitary"):
        matrix = np.asarray(matrix, dtype=complex)
        if not gates.is_unitary(matrix):
            raise CircuitError("matrix is not unitary")
        num_qubits = int(round(np.log2(matrix.shape[0])))
        if 2**num_qubits != matrix.shape[0]:
            raise CircuitError("matrix dimension must be a power of two")
        Instruction.__init__(self, label, num_qubits, 0, [])
        self._matrix = matrix

    @classmethod
    def unchecked(cls, matrix: np.ndarray, label: str = "unitary") -> "UnitaryGate":
        """Build a :class:`UnitaryGate` skipping the unitarity check.

        For callers that construct the matrix as a product of known unitaries
        (e.g. the gate-fusion pass), where re-verifying ``U^dag U = I`` on
        every block is measurable overhead.  The shape check is kept: only
        the unitarity verification is skipped.
        """
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise CircuitError("matrix must be square")
        num_qubits = int(round(np.log2(matrix.shape[0])))
        if 2**num_qubits != matrix.shape[0]:
            raise CircuitError("matrix dimension must be a power of two")
        gate = cls.__new__(cls)
        Instruction.__init__(gate, label, num_qubits, 0, [])
        gate._matrix = matrix
        return gate

    def to_matrix(self) -> np.ndarray:
        return self._matrix

    def inverse(self) -> "UnitaryGate":
        return UnitaryGate(self._matrix.conj().T, label=f"{self.name}_dg")


class ControlledGate(Gate):
    """A gate controlled on one or more qubits (controls listed first)."""

    def __init__(self, base_gate: Gate, num_controls: int = 1):
        if num_controls < 1:
            raise CircuitError("a controlled gate needs at least one control")
        name = "c" * num_controls + base_gate.name
        Instruction.__init__(
            self, name, base_gate.num_qubits + num_controls, 0, base_gate.params
        )
        self.base_gate = base_gate
        self.num_controls = num_controls

    def to_matrix(self) -> np.ndarray:
        return gates.controlled(self.base_gate.to_matrix(), self.num_controls)

    def inverse(self) -> "ControlledGate":
        inv_base = self.base_gate.inverse()
        if not isinstance(inv_base, Gate):
            raise CircuitError("cannot invert controlled non-gate")
        return ControlledGate(inv_base, self.num_controls)


class Measure(Instruction):
    """Projective Z-basis measurement of one qubit into one classical bit."""

    def __init__(self) -> None:
        super().__init__("measure", 1, 1)


class Reset(Instruction):
    """Reset a qubit to the |0> state (measure and conditionally flip)."""

    def __init__(self) -> None:
        super().__init__("reset", 1, 0)


class Barrier(Instruction):
    """A scheduling barrier; semantically a no-op for simulation."""

    def __init__(self, num_qubits: int):
        super().__init__("barrier", num_qubits, 0)


class Initialize(Instruction):
    """Initialise a set of qubits to an arbitrary normalized state vector.

    The target qubits must be in the all-|0> state when the instruction is
    applied (this is how the Qutes ``TypeCastingHandler`` encodes classical
    values and superposition literals into fresh registers).
    """

    def __init__(self, statevector: Sequence[complex]):
        amplitudes = np.asarray(statevector, dtype=complex).ravel()
        norm = np.linalg.norm(amplitudes)
        if norm == 0:
            raise CircuitError("cannot initialise to the zero vector")
        amplitudes = amplitudes / norm
        num_qubits = int(round(np.log2(amplitudes.size)))
        if 2**num_qubits != amplitudes.size:
            raise CircuitError("statevector length must be a power of two")
        super().__init__("initialize", num_qubits, 0)
        self.statevector = amplitudes

    def copy(self) -> "Initialize":
        new = super().copy()
        new.statevector = self.statevector.copy()
        return new

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Initialize):
            return NotImplemented
        return self.num_qubits == other.num_qubits and np.allclose(
            self.statevector, other.statevector
        )


def mcx_gate(num_controls: int) -> Gate:
    """Convenience constructor for a multi-controlled X gate."""
    if num_controls == 0:
        return Gate("x", 1)
    if num_controls == 1:
        return Gate("cx", 2)
    if num_controls == 2:
        return Gate("ccx", 3)
    return ControlledGate(Gate("x", 1), num_controls)


def mcz_gate(num_controls: int) -> Gate:
    """Convenience constructor for a multi-controlled Z gate."""
    if num_controls == 0:
        return Gate("z", 1)
    if num_controls == 1:
        return Gate("cz", 2)
    return ControlledGate(Gate("z", 1), num_controls)


def mcp_gate(lam: float, num_controls: int) -> Gate:
    """Convenience constructor for a multi-controlled phase gate."""
    if num_controls == 0:
        return Gate("p", 1, [lam])
    if num_controls == 1:
        return Gate("cp", 2, [lam])
    return ControlledGate(Gate("p", 1, [lam]), num_controls)
