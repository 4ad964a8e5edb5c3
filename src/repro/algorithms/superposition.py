"""State-preparation helpers.

The Qutes front-end encodes classical values and superposition literals
(``[1, 3]q`` style) into freshly allocated registers; these helpers build the
amplitude vectors and the corresponding circuit instructions.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

import numpy as np

from ..qsim.circuit import QuantumCircuit
from ..qsim.exceptions import CircuitError

__all__ = [
    "amplitudes_for_values",
    "build_value_superposition",
    "build_uniform_superposition",
    "sample_uniform_superposition",
]


def amplitudes_for_values(values: Iterable[int], num_qubits: int,
                          weights: Sequence[float] | None = None) -> np.ndarray:
    """Amplitude vector for an (optionally weighted) superposition of *values*.

    Duplicate values accumulate weight.  The result is normalised.
    """
    values = list(values)
    if not values:
        raise CircuitError("superposition needs at least one value")
    if weights is None:
        weights = [1.0] * len(values)
    weights = list(weights)
    if len(weights) != len(values):
        raise CircuitError("weights and values must have the same length")
    dim = 2**num_qubits
    amplitudes = np.zeros(dim, dtype=complex)
    for value, weight in zip(values, weights):
        if not 0 <= value < dim:
            raise CircuitError(f"value {value} does not fit in {num_qubits} qubits")
        amplitudes[value] += weight
    norm = np.linalg.norm(amplitudes)
    if norm == 0:
        raise CircuitError("superposition weights cancel out")
    return amplitudes / norm


def build_value_superposition(circuit: QuantumCircuit, qubits: Sequence,
                              values: Iterable[int],
                              weights: Sequence[float] | None = None) -> QuantumCircuit:
    """Initialise *qubits* (all |0>) to an equal superposition of *values*."""
    qubits = list(qubits)
    amplitudes = amplitudes_for_values(values, len(qubits), weights)
    circuit.initialize(amplitudes, qubits)
    return circuit


def build_uniform_superposition(circuit: QuantumCircuit, qubits: Sequence) -> QuantumCircuit:
    """Hadamard every qubit: the uniform superposition over all basis states."""
    for qubit in qubits:
        circuit.h(qubit)
    return circuit


def sample_uniform_superposition(
    num_qubits: int,
    shots: int = 1024,
    backend=None,
    seed: Optional[int] = None,
):
    """Measure the uniform superposition on a backend and return its counts.

    ``backend=`` accepts a :class:`~repro.qsim.backends.Backend` instance or
    registry name; the circuit is a layer of Hadamards, so it is Clifford
    and ``backend="stabilizer"`` handles register widths far beyond the
    dense engines (each shot is an independent uniform bitstring).
    """
    from ..qsim.backends import resolve_backend

    if num_qubits < 1:
        raise CircuitError("sampling needs at least one qubit")
    resolved = resolve_backend(backend, default_seed=seed)
    circuit = QuantumCircuit(num_qubits, name=f"uniform_{num_qubits}")
    build_uniform_superposition(circuit, list(range(num_qubits)))
    circuit.measure_all()
    return resolved.run(circuit, shots=shots).result().get_counts()
