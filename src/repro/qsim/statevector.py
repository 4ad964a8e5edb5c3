"""Dense statevector representation and manipulation.

The statevector of an ``n``-qubit system is stored as a flat complex NumPy
array of length ``2**n``.  Basis-state indices are interpreted little-endian
with respect to qubit numbers: bit ``q`` of the flat index is the value of
qubit ``q``.  Gates evolve the state in place through the step kernels of
:mod:`repro.qsim.kernels`, the ones every dense engine shares: the state is
a one-row view of the batched executor's ``(rows, 2^n)`` layout.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import kernels
from .exceptions import SimulationError

__all__ = ["Statevector"]

_ATOL = 1e-10


class Statevector:
    """An ``n``-qubit pure state with in-place evolution primitives."""

    def __init__(self, data: Sequence[complex], validate: bool = True):
        # own the buffer: evolution is in place (see repro.qsim.kernels), so
        # sharing memory with the caller's array would mutate it behind their
        # back
        amplitudes = np.array(data, dtype=complex).ravel()
        n = int(round(math.log2(amplitudes.size))) if amplitudes.size else 0
        if amplitudes.size == 0 or 2**n != amplitudes.size:
            raise SimulationError("statevector length must be a power of two")
        if validate:
            norm = np.linalg.norm(amplitudes)
            if abs(norm - 1.0) > 1e-8:
                if norm < _ATOL:
                    raise SimulationError("statevector has zero norm")
                amplitudes = amplitudes / norm
        self.data = amplitudes
        self.num_qubits = n

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero_state(cls, num_qubits: int) -> "Statevector":
        """The all-|0> state on *num_qubits* qubits."""
        if num_qubits < 0:
            raise SimulationError("num_qubits must be non-negative")
        data = np.zeros(max(1, 2**num_qubits), dtype=complex)
        data[0] = 1.0
        sv = cls.__new__(cls)
        sv.data = data
        sv.num_qubits = num_qubits
        return sv

    @classmethod
    def from_int(cls, value: int, num_qubits: int) -> "Statevector":
        """Computational-basis state |value> on *num_qubits* qubits."""
        if not 0 <= value < 2**num_qubits:
            raise SimulationError(f"value {value} does not fit in {num_qubits} qubits")
        data = np.zeros(2**num_qubits, dtype=complex)
        data[value] = 1.0
        return cls(data, validate=False)

    def copy(self) -> "Statevector":
        sv = Statevector.__new__(Statevector)
        sv.data = self.data.copy()
        sv.num_qubits = self.num_qubits
        return sv

    # -- composition -----------------------------------------------------------

    # -- evolution ---------------------------------------------------------------

    def _check_targets(self, targets: Sequence[int]) -> List[int]:
        targets = list(targets)
        if len(set(targets)) != len(targets):
            raise SimulationError("duplicate target qubits")
        for t in targets:
            if not 0 <= t < self.num_qubits:
                raise SimulationError(f"qubit index {t} out of range")
        return targets

    def apply_unitary(self, matrix: np.ndarray, targets: Sequence[int]) -> None:
        """Apply *matrix* to *targets* in place.

        The matrix index convention matches :mod:`repro.qsim.gates`:
        ``targets[0]`` is the most significant bit of the matrix index.  The
        gate runs on the shared step kernels (:func:`repro.qsim.kernels.apply_gate`),
        which pick a diagonal, permutation, dense or product kernel from its
        structure and width.
        """
        kernels.apply_gate(self.data, matrix, self._check_targets(targets))

    def initialize_qubits(self, amplitudes: np.ndarray, targets: Sequence[int]) -> None:
        """Set *targets* (currently all |0>) to the given *amplitudes*.

        ``amplitudes[v]`` becomes the amplitude of the little-endian value
        ``v`` over *targets* (``targets[0]`` is the least significant bit),
        matching how registers encode integers.
        """
        targets = self._check_targets(targets)
        k = len(targets)
        amplitudes = np.asarray(amplitudes, dtype=complex).ravel()
        if amplitudes.size != 2**k:
            raise SimulationError("amplitude vector size mismatch")
        norm = np.linalg.norm(amplitudes)
        if norm < _ATOL:
            raise SimulationError("cannot initialise to the zero vector")
        amplitudes = amplitudes / norm
        probs = self.probabilities(targets)
        if abs(probs[0] - 1.0) > 1e-8:
            raise SimulationError(
                "initialize requires the target qubits to be in the |0...0> state"
            )
        self.data = kernels.place(self.data, self.num_qubits, amplitudes, targets)

    # -- measurement ---------------------------------------------------------------

    def probabilities(self, targets: Optional[Sequence[int]] = None) -> np.ndarray:
        """Marginal outcome probabilities for *targets* (default: all qubits).

        Element ``v`` of the result is the probability of reading the
        little-endian value ``v`` from *targets*.
        """
        if targets is None:
            targets = list(range(self.num_qubits))
        targets = self._check_targets(targets)
        return kernels.marginal(np.abs(self.data) ** 2, self.num_qubits, targets)

    # -- analysis -------------------------------------------------------------------

    def to_dict(self, atol: float = 1e-12) -> Dict[str, complex]:
        """Non-negligible amplitudes keyed by bitstring (MSB first)."""
        result = {}
        n = self.num_qubits
        for index, amplitude in enumerate(self.data):
            if abs(amplitude) > atol:
                result[format(index, f"0{max(n, 1)}b")] = complex(amplitude)
        return result

    def __repr__(self) -> str:
        return f"Statevector(num_qubits={self.num_qubits})"
