"""Simple stochastic (Monte Carlo) noise models.

The original Qutes stack inherits noise modelling from Qiskit Aer.  For the
reproduction we provide lightweight, trajectory-based channels that are
sufficient for the robustness experiments: after every unitary gate the noise
model may inject Pauli errors on the qubits the gate touched.

Every model also *describes itself* as a single-qubit Pauli channel through
:meth:`NoiseModel.pauli_terms`.  The statevector engine's batched trajectory
executor (:mod:`repro.qsim.shotbatch`) injects exactly those Paulis on
pre-drawn shot rows, and the stabilizer engine rides them on the tableau's
symbolic phases, keeping 100+ qubit noisy circuits polynomial (see
:mod:`repro.qsim.stabilizer`).  :meth:`NoiseModel.apply` samples one
trajectory on a single state (``StatevectorSimulator.evolve``).  A model that
is *not* a Pauli channel returns ``None`` from
:meth:`~NoiseModel.pauli_terms` and is rejected by both engines with a clear
error; the density-matrix engine runs any Kraus channel exactly.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from . import gates
from .exceptions import SimulationError

__all__ = [
    "NoiseModel",
    "BitFlipNoise",
    "PhaseFlipNoise",
    "DepolarizingNoise",
]

#: ``(pauli, probability)`` pairs describing a single-qubit Pauli channel
PauliTerms = Tuple[Tuple[str, float], ...]


class NoiseModel:
    """Base class: subclasses inject errors after each gate application."""

    def apply(self, state, targets: Sequence[int], rng: np.random.Generator) -> None:
        """Inject sampled errors on *targets* of *state* (trajectory path)."""
        raise NotImplementedError

    def pauli_terms(self) -> Optional[PauliTerms]:
        """The channel as ``(("X"|"Y"|"Z", probability), ...)`` terms, or ``None``.

        The terms are the non-identity single-qubit Paulis the channel applies
        (independently per touched qubit) with their probabilities; the
        identity fills the remainder.  ``None`` means the channel is not a
        Pauli channel, so only the trajectory engines can run it.
        """
        return None

    @staticmethod
    def check_targets(state, targets: Sequence[int]) -> None:
        """Reject out-of-range target qubits with a clear error.

        Without this, a bad target surfaces as an opaque NumPy indexing error
        deep inside ``apply_unitary``; subclasses call it before touching the
        state.
        """
        num_qubits = getattr(state, "num_qubits", None)
        if num_qubits is None:
            return
        for qubit in targets:
            if not 0 <= qubit < num_qubits:
                raise SimulationError(
                    f"noise target qubit {qubit} is out of range for a "
                    f"{num_qubits}-qubit register"
                )


class BitFlipNoise(NoiseModel):
    """Independent bit-flip (X) errors with probability *p* per touched qubit."""

    def __init__(self, p: float):
        if not 0.0 <= p <= 1.0:
            raise SimulationError("error probability must be in [0, 1]")
        self.p = p

    def apply(self, state, targets: Sequence[int], rng: np.random.Generator) -> None:
        self.check_targets(state, targets)
        for qubit in targets:
            if rng.random() < self.p:
                state.apply_unitary(gates.X, [qubit])

    def pauli_terms(self) -> PauliTerms:
        return (("X", self.p),)


class PhaseFlipNoise(NoiseModel):
    """Independent phase-flip (Z) errors with probability *p* per touched qubit."""

    def __init__(self, p: float):
        if not 0.0 <= p <= 1.0:
            raise SimulationError("error probability must be in [0, 1]")
        self.p = p

    def apply(self, state, targets: Sequence[int], rng: np.random.Generator) -> None:
        self.check_targets(state, targets)
        for qubit in targets:
            if rng.random() < self.p:
                state.apply_unitary(gates.Z, [qubit])

    def pauli_terms(self) -> PauliTerms:
        return (("Z", self.p),)


class DepolarizingNoise(NoiseModel):
    """Single-qubit depolarizing channel sampled as random X/Y/Z errors."""

    def __init__(self, p: float):
        if not 0.0 <= p <= 1.0:
            raise SimulationError("error probability must be in [0, 1]")
        self.p = p
        self._paulis = (gates.X, gates.Y, gates.Z)

    def apply(self, state, targets: Sequence[int], rng: np.random.Generator) -> None:
        self.check_targets(state, targets)
        for qubit in targets:
            if rng.random() < self.p:
                pauli = self._paulis[rng.integers(0, 3)]
                state.apply_unitary(pauli, [qubit])

    def pauli_terms(self) -> PauliTerms:
        return (("X", self.p / 3), ("Y", self.p / 3), ("Z", self.p / 3))
