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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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

    @classmethod
    def from_label(cls, label: str) -> "Statevector":
        """Build a product state from a label of ``0 1 + -`` characters.

        The leftmost character describes the most significant qubit, matching
        the usual ket notation |q_{n-1} ... q_0>.
        """
        single = {
            "0": np.array([1, 0], dtype=complex),
            "1": np.array([0, 1], dtype=complex),
            "+": np.array([1, 1], dtype=complex) / math.sqrt(2),
            "-": np.array([1, -1], dtype=complex) / math.sqrt(2),
        }
        if not label or any(ch not in single for ch in label):
            raise SimulationError(f"invalid state label {label!r}")
        data = np.array([1.0 + 0.0j])
        for ch in label:
            data = np.kron(data, single[ch])
        return cls(data, validate=False)

    def copy(self) -> "Statevector":
        sv = Statevector.__new__(Statevector)
        sv.data = self.data.copy()
        sv.num_qubits = self.num_qubits
        return sv

    # -- composition -----------------------------------------------------------

    def expand(self, num_new_qubits: int) -> "Statevector":
        """Return a state with *num_new_qubits* fresh |0> qubits appended.

        The new qubits receive the highest indices, so existing amplitudes
        keep their flat positions.
        """
        if num_new_qubits < 0:
            raise SimulationError("cannot expand by a negative number of qubits")
        if num_new_qubits == 0:
            return self.copy()
        new = np.zeros(self.data.size * 2**num_new_qubits, dtype=complex)
        new[: self.data.size] = self.data
        sv = Statevector.__new__(Statevector)
        sv.data = new
        sv.num_qubits = self.num_qubits + num_new_qubits
        return sv

    def tensor(self, other: "Statevector") -> "Statevector":
        """Return ``other (x) self``: *other*'s qubits get the higher indices."""
        sv = Statevector.__new__(Statevector)
        sv.data = np.kron(other.data, self.data)
        sv.num_qubits = self.num_qubits + other.num_qubits
        return sv

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
        which pick a diagonal, permutation or dense kernel from its structure.
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
        n = self.num_qubits
        axes = [n - 1 - t for t in targets]
        psi = self.data.reshape((2,) * n)
        psi = np.moveaxis(psi, axes, range(k))
        tail_shape = psi.shape[k:]
        psi = psi.reshape(2**k, -1)
        rest = psi[0].copy()
        # amplitudes are little-endian over targets while the front block index
        # has targets[0] as MSB, so reorder via bit reversal of the index.
        block = np.zeros_like(psi)
        for value in range(2**k):
            front_index = 0
            for bit_pos in range(k):
                if (value >> bit_pos) & 1:
                    front_index |= 1 << (k - 1 - bit_pos)
            block[front_index] = amplitudes[value] * rest
        psi = block.reshape((2,) * k + tail_shape)
        psi = np.moveaxis(psi, range(k), axes)
        self.data = np.ascontiguousarray(psi.reshape(-1))

    # -- measurement ---------------------------------------------------------------

    def probabilities(self, targets: Optional[Sequence[int]] = None) -> np.ndarray:
        """Marginal outcome probabilities for *targets* (default: all qubits).

        Element ``v`` of the result is the probability of reading the
        little-endian value ``v`` from *targets*.
        """
        probs_full = np.abs(self.data) ** 2
        if targets is None:
            targets = list(range(self.num_qubits))
        targets = self._check_targets(targets)
        k = len(targets)
        n = self.num_qubits
        tensor = probs_full.reshape((2,) * n)
        # Move target axes to the front in little-endian order (targets[0]
        # least significant -> last front axis).
        axes = [n - 1 - t for t in reversed(targets)]
        tensor = np.moveaxis(tensor, axes, range(k))
        tensor = tensor.reshape(2**k, -1)
        return tensor.sum(axis=1)

    def probability_of(self, value: int, targets: Sequence[int]) -> float:
        """Probability of reading the little-endian *value* from *targets*."""
        probs = self.probabilities(targets)
        if not 0 <= value < probs.size:
            raise SimulationError(f"value {value} out of range for {len(list(targets))} qubits")
        return float(probs[value])

    def measure(self, targets: Sequence[int], rng: Optional[np.random.Generator] = None) -> int:
        """Projectively measure *targets*, collapse in place, return the value.

        The returned integer is little-endian over *targets*.
        """
        targets = self._check_targets(targets)
        if rng is None:
            rng = np.random.default_rng()  # invariant: allow -- explicit no-rng fallback
        probs = self.probabilities(targets)
        outcome = int(rng.choice(probs.size, p=probs / probs.sum()))
        self._collapse(targets, outcome)
        return outcome

    def _collapse(self, targets: Sequence[int], outcome: int) -> None:
        mask = np.ones(self.data.size, dtype=bool)
        indices = np.arange(self.data.size)
        for bit_pos, qubit in enumerate(targets):
            bit = (outcome >> bit_pos) & 1
            mask &= ((indices >> qubit) & 1) == bit
        self.data = np.where(mask, self.data, 0.0)
        norm = np.linalg.norm(self.data)
        if norm < _ATOL:
            raise SimulationError("collapse produced a zero-norm state")
        self.data /= norm

    def sample_counts(
        self,
        targets: Optional[Sequence[int]] = None,
        shots: int = 1024,
        rng: Optional[np.random.Generator] = None,
    ) -> Dict[int, int]:
        """Sample *shots* measurement outcomes without collapsing the state."""
        if shots <= 0:
            raise SimulationError("shots must be positive")
        if rng is None:
            rng = np.random.default_rng()  # invariant: allow -- explicit no-rng fallback
        probs = self.probabilities(targets)
        outcomes = rng.multinomial(shots, probs / probs.sum())
        return {value: int(count) for value, count in enumerate(outcomes) if count}

    def reset_qubit(self, qubit: int, rng: Optional[np.random.Generator] = None) -> None:
        """Reset *qubit* to |0> (measure, then flip if the outcome was 1)."""
        outcome = self.measure([qubit], rng=rng)
        if outcome == 1:
            from .gates import X  # local import to avoid a cycle at module load

            self.apply_unitary(X, [qubit])

    # -- analysis -------------------------------------------------------------------

    def expectation_z(self, qubit: int) -> float:
        """Expectation value of Pauli-Z on *qubit*."""
        probs = self.probabilities([qubit])
        return float(probs[0] - probs[1])

    def fidelity(self, other: "Statevector") -> float:
        """Squared overlap |<self|other>|^2."""
        if self.num_qubits != other.num_qubits:
            raise SimulationError("fidelity requires states of equal size")
        return float(abs(np.vdot(self.data, other.data)) ** 2)

    def equiv(self, other: "Statevector", atol: float = 1e-8) -> bool:
        """Whether the two states are equal up to a global phase."""
        if self.num_qubits != other.num_qubits:
            return False
        return bool(abs(abs(np.vdot(self.data, other.data)) - 1.0) < atol)

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
