"""Quantum phase estimation.

Not used directly by any showcase in the paper, but part of the "standard
library of essential quantum functions" the paper lists as a goal of the
language; the phase-estimation builder also doubles as a stress test for the
controlled-unitary and inverse-QFT machinery.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..arithmetic.qft import build_iqft
from ..qsim.circuit import QuantumCircuit
from ..qsim.exceptions import CircuitError
from ..qsim.instruction import UnitaryGate
from ..qsim.registers import ClassicalRegister, QuantumRegister

__all__ = ["phase_estimation_circuit", "estimate_phase"]


def phase_estimation_circuit(
    unitary: np.ndarray,
    num_counting_qubits: int,
    eigenstate: Optional[np.ndarray] = None,
) -> QuantumCircuit:
    """Build the QPE circuit for a single-register *unitary*.

    The counting register occupies the first *num_counting_qubits* qubits
    (little-endian: qubit 0 is the least significant phase bit); the system
    register follows and is initialised to *eigenstate* when given.
    """
    unitary = np.asarray(unitary, dtype=complex)
    dim = unitary.shape[0]
    num_system = int(round(np.log2(dim)))
    if 2**num_system != dim:
        raise CircuitError("unitary dimension must be a power of two")
    counting = QuantumRegister(num_counting_qubits, "count")
    system = QuantumRegister(num_system, "sys")
    creg = ClassicalRegister(num_counting_qubits, "phase")
    qc = QuantumCircuit(counting, system, creg, name="qpe")

    if eigenstate is not None:
        qc.initialize(np.asarray(eigenstate, dtype=complex), list(system))
    for qubit in counting:
        qc.h(qubit)
    power = unitary
    for k in range(num_counting_qubits):
        controlled = _controlled_matrix(power)
        qc.unitary(controlled, [counting[k], *system], label=f"c-U^{2**k}")
        power = power @ power
    build_iqft(qc, list(counting))
    qc.measure(list(counting), list(creg))
    return qc


def _controlled_matrix(unitary: np.ndarray) -> np.ndarray:
    dim = unitary.shape[0]
    out = np.eye(2 * dim, dtype=complex)
    out[dim:, dim:] = unitary
    return out


def estimate_phase(
    unitary: np.ndarray,
    eigenstate: np.ndarray,
    num_counting_qubits: int = 5,
    shots: int = 512,
    backend=None,
) -> float:
    """Estimate the eigenphase ``theta`` (in turns, i.e. within [0, 1)).

    Execution goes through the unified backend API (``backend=`` accepts a
    :class:`~repro.qsim.backends.Backend` or registry name).
    """
    from ..qsim.backends import resolve_backend

    backend = resolve_backend(backend, default_seed=5)
    circuit = phase_estimation_circuit(unitary, num_counting_qubits, eigenstate)
    result = backend.run(circuit, shots=shots).result()
    value = int(result[0].most_frequent(), 2)
    return value / 2**num_counting_qubits
