"""Bell pairs and entanglement swapping.

The paper's entanglement-propagation showcase extends the two-pair
entanglement-swapping protocol to a whole array of qubits: neighbouring pairs
are entangled, Bell measurements on the interior junctions teleport the
entanglement outward, and Pauli corrections conditioned on the measurement
outcomes leave the first and last qubit of the array in a Bell state even
though they never interacted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..qsim import gates
from ..qsim.circuit import QuantumCircuit
from ..qsim.exceptions import CircuitError
from ..qsim.registers import QuantumRegister
from ..qsim.statevector import Statevector

__all__ = [
    "build_bell_pair",
    "bell_pair_circuit",
    "ghz_circuit",
    "w_state_circuit",
    "entanglement_swapping_chain",
    "run_entanglement_propagation",
    "EntanglementPropagationResult",
    "sample_ghz",
]


def build_bell_pair(circuit: QuantumCircuit, qubit_a, qubit_b) -> QuantumCircuit:
    """Entangle *qubit_a* and *qubit_b* (assumed |0>) into the Phi+ Bell state."""
    circuit.h(qubit_a)
    circuit.cx(qubit_a, qubit_b)
    return circuit


def bell_pair_circuit() -> QuantumCircuit:
    """A standalone two-qubit Bell-pair circuit."""
    reg = QuantumRegister(2, "bell")
    qc = QuantumCircuit(reg, name="bell_pair")
    return build_bell_pair(qc, reg[0], reg[1])


def ghz_circuit(num_qubits: int) -> QuantumCircuit:
    """The GHZ state ``(|0...0> + |1...1>)/sqrt(2)`` on *num_qubits* qubits."""
    if num_qubits < 2:
        raise CircuitError("a GHZ state needs at least two qubits")
    reg = QuantumRegister(num_qubits, "ghz")
    qc = QuantumCircuit(reg, name=f"ghz_{num_qubits}")
    qc.h(reg[0])
    for i in range(1, num_qubits):
        qc.cx(reg[i - 1], reg[i])
    return qc


def w_state_circuit(num_qubits: int) -> QuantumCircuit:
    """The W state (equal superposition of all single-excitation basis states).

    Uses the standard cascade of controlled rotations: qubit 0 starts in |1>
    and the excitation is coherently shared down the register.
    """
    if num_qubits < 2:
        raise CircuitError("a W state needs at least two qubits")
    import math

    reg = QuantumRegister(num_qubits, "w")
    qc = QuantumCircuit(reg, name=f"w_{num_qubits}")
    qc.x(reg[0])
    for i in range(num_qubits - 1):
        remaining = num_qubits - i
        theta = 2 * math.acos(math.sqrt(1.0 / remaining))
        qc.cry(theta, reg[i], reg[i + 1])
        qc.cx(reg[i + 1], reg[i])
    return qc


def entanglement_swapping_chain(num_qubits: int) -> QuantumCircuit:
    """Circuit for the swapping chain over an even number of qubits.

    Neighbouring pairs ``(0,1), (2,3), ...`` are prepared as Bell pairs and
    every interior junction ``(1,2), (3,4), ...`` is rotated into the Bell
    basis and measured.  The classically controlled Pauli corrections cannot
    be expressed in the (feed-forward-free) circuit IR; they are applied by
    :func:`run_entanglement_propagation`, which is what the Qutes runtime
    does as well.
    """
    if num_qubits < 2 or num_qubits % 2:
        raise CircuitError("the swapping chain needs an even number (>= 2) of qubits")
    reg = QuantumRegister(num_qubits, "chain")
    qc = QuantumCircuit(reg, name="entanglement_chain")
    for i in range(0, num_qubits, 2):
        build_bell_pair(qc, reg[i], reg[i + 1])
    from ..qsim.registers import ClassicalRegister

    junctions = list(range(1, num_qubits - 1, 2))
    if junctions:
        creg = ClassicalRegister(2 * len(junctions), "bellm")
        qc.add_register(creg)
        for idx, j in enumerate(junctions):
            qc.cx(reg[j], reg[j + 1])
            qc.h(reg[j])
            qc.measure([reg[j], reg[j + 1]], [creg[2 * idx], creg[2 * idx + 1]])
    return qc


def sample_ghz(
    num_qubits: int,
    shots: int = 1024,
    backend=None,
    seed: Optional[int] = 2024,
):
    """Measure a *num_qubits* GHZ state on a backend and return its counts.

    ``backend=`` accepts a :class:`~repro.qsim.backends.Backend` instance or
    registry name.  The GHZ circuit is pure Clifford, so
    ``backend="stabilizer"`` samples hundreds of qubits in milliseconds
    where the dense engines hit their exponential wall; a perfect backend
    returns only the two keys ``0...0`` and ``1...1``.
    """
    from ..qsim.backends import resolve_backend

    resolved = resolve_backend(backend, default_seed=seed)
    circuit = ghz_circuit(num_qubits)
    circuit.measure_all()
    return resolved.run(circuit, shots=shots).result().get_counts()


@dataclass
class EntanglementPropagationResult:
    """Summary of an entanglement-propagation run."""

    num_qubits: int
    correlation: float
    fidelity_with_bell: float
    shots: int


def run_entanglement_propagation(
    num_qubits: int,
    shots: int = 256,
    seed: Optional[int] = 2024,
) -> EntanglementPropagationResult:
    """Propagate entanglement along a chain and report end-to-end correlation.

    The protocol needs classical feed-forward (the Pauli corrections depend
    on the Bell-measurement outcomes), so the driver evolves a live
    statevector shot by shot -- exactly how the Qutes runtime executes the
    showcase.  ``correlation`` is the probability that the first and last
    qubits agree in the computational basis (1.0 for a perfect Phi+ pair) and
    ``fidelity_with_bell`` the fidelity of the end-pair state with Phi+.
    """
    if num_qubits < 2 or num_qubits % 2:
        raise CircuitError("the swapping chain needs an even number (>= 2) of qubits")
    rng = np.random.default_rng(seed)

    correlation_total = 0.0
    fidelity_total = 0.0
    last = num_qubits - 1
    for _ in range(shots):
        state = _run_single_chain(num_qubits, rng)
        probs = state.probabilities([0, last])
        correlation_total += float(probs[0] + probs[3])
        fidelity_total += _end_pair_bell_fidelity(state, 0, last)

    return EntanglementPropagationResult(
        num_qubits=num_qubits,
        correlation=correlation_total / shots,
        fidelity_with_bell=fidelity_total / shots,
        shots=shots,
    )


def _run_single_chain(num_qubits: int, rng: np.random.Generator) -> Statevector:
    state = Statevector.zero_state(num_qubits)
    for i in range(0, num_qubits, 2):
        state.apply_unitary(gates.H, [i])
        state.apply_unitary(gates.CX, [i, i + 1])
    for j in range(1, num_qubits - 1, 2):
        # Bell measurement of the junction (j, j+1); the pair being absorbed
        # is (j+1, j+2), so the corrections land on qubit j+2, which becomes
        # the new end of the entangled chain.
        state.apply_unitary(gates.CX, [j, j + 1])
        state.apply_unitary(gates.H, [j])
        m_phase = state.measure([j], rng=rng)
        m_parity = state.measure([j + 1], rng=rng)
        target = j + 2
        if m_parity:
            state.apply_unitary(gates.X, [target])
        if m_phase:
            state.apply_unitary(gates.Z, [target])
    return state


def _end_pair_bell_fidelity(state: Statevector, first: int, last: int) -> float:
    """Fidelity of the (first, last) qubit pair with the Phi+ Bell state.

    Valid because every other qubit of *state* is in a definite basis state
    (they have all been measured), so the pair is pure.
    """
    data = state.data
    pair_amplitudes = np.zeros(4, dtype=complex)
    for idx in np.nonzero(np.abs(data) > 1e-12)[0]:
        b_first = (int(idx) >> first) & 1
        b_last = (int(idx) >> last) & 1
        pair_amplitudes[b_first + 2 * b_last] += data[idx]
    norm = np.linalg.norm(pair_amplitudes)
    if norm < 1e-12:
        return 0.0
    pair_amplitudes /= norm
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    return float(abs(np.vdot(bell, pair_amplitudes)) ** 2)
