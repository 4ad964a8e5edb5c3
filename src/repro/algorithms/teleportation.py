"""Quantum teleportation.

Transfers an arbitrary single-qubit state from Alice to Bob using one shared
Bell pair and two classical bits.  Like the entanglement-propagation
showcase, the protocol requires classical feed-forward, so the driver runs on
a live statevector (exactly how the Qutes runtime executes it) while the
circuit builder exposes the unitary + measurement part for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..qsim import gates
from ..qsim.circuit import QuantumCircuit
from ..qsim.exceptions import CircuitError, SimulationError
from ..qsim.registers import ClassicalRegister, QuantumRegister
from ..qsim.statevector import Statevector

__all__ = [
    "TeleportationResult",
    "teleportation_circuit",
    "teleport_state",
    "deferred_teleportation_circuit",
    "TeleportationSamplingResult",
    "run_teleportation",
]


@dataclass
class TeleportationResult:
    """Outcome of one teleportation run."""

    fidelity: float
    alice_bits: Tuple[int, int]
    success: bool


def teleportation_circuit() -> QuantumCircuit:
    """The standard three-qubit teleportation circuit (without corrections).

    Qubit 0 holds the payload, qubits 1-2 the shared Bell pair; the two
    measurements produce the classical bits Bob's corrections depend on.
    """
    payload = QuantumRegister(1, "payload")
    alice = QuantumRegister(1, "alice")
    bob = QuantumRegister(1, "bob")
    creg = ClassicalRegister(2, "alice_bits")
    qc = QuantumCircuit(payload, alice, bob, creg, name="teleport")
    qc.h(alice[0])
    qc.cx(alice[0], bob[0])
    qc.cx(payload[0], alice[0])
    qc.h(payload[0])
    qc.measure([payload[0], alice[0]], [creg[0], creg[1]])
    return qc


def teleport_state(
    amplitudes,
    seed: Optional[int] = 17,
) -> TeleportationResult:
    """Teleport the single-qubit state *amplitudes* and report the fidelity."""
    amplitudes = np.asarray(amplitudes, dtype=complex).ravel()
    if amplitudes.size != 2:
        raise SimulationError("teleportation payload must be a single-qubit state")
    norm = np.linalg.norm(amplitudes)
    if norm < 1e-12:
        raise SimulationError("payload state must be non-zero")
    amplitudes = amplitudes / norm

    rng = np.random.default_rng(seed)
    state = Statevector.zero_state(3)
    state.initialize_qubits(amplitudes, [0])
    # shared Bell pair between qubits 1 (Alice) and 2 (Bob)
    state.apply_unitary(gates.H, [1])
    state.apply_unitary(gates.CX, [1, 2])
    # Alice's Bell measurement of (payload, her half)
    state.apply_unitary(gates.CX, [0, 1])
    state.apply_unitary(gates.H, [0])
    m_phase = state.measure([0], rng=rng)
    m_parity = state.measure([1], rng=rng)
    # Bob's corrections
    if m_parity:
        state.apply_unitary(gates.X, [2])
    if m_phase:
        state.apply_unitary(gates.Z, [2])

    # Bob's qubit is pure (the other two are collapsed): extract and compare.
    bob_amplitudes = np.zeros(2, dtype=complex)
    for index in np.nonzero(np.abs(state.data) > 1e-12)[0]:
        bob_amplitudes[(int(index) >> 2) & 1] += state.data[index]
    bob_amplitudes /= np.linalg.norm(bob_amplitudes)
    fidelity = float(abs(np.vdot(amplitudes, bob_amplitudes)) ** 2)
    return TeleportationResult(
        fidelity=fidelity,
        alice_bits=(m_phase, m_parity),
        success=fidelity > 1 - 1e-9,
    )


# -- backend-driven (deferred-measurement) teleportation -----------------------

#: single-qubit circuit-builder methods allowed as payload preparation, with
#: their inverses (used to verify Bob's qubit without state access)
_PREP_INVERSES = {
    "id": "id", "x": "x", "y": "y", "z": "z", "h": "h",
    "s": "sdg", "sdg": "s", "t": "tdg", "tdg": "t",
}


def deferred_teleportation_circuit(
    payload_prep: Sequence[str] = ("h",),
) -> QuantumCircuit:
    """Teleportation with the Pauli corrections deferred to CX/CZ gates.

    The feed-forward-free variant of :func:`teleportation_circuit`: by the
    deferred-measurement principle the classically controlled X/Z
    corrections become a CX from Alice's half and a CZ from the payload
    qubit, so the whole protocol is expressible in the circuit IR and —
    when *payload_prep* is Clifford — runnable on **any** backend,
    including the stabilizer engine.  After the corrections the inverse of
    *payload_prep* is applied to Bob's qubit and Bob is measured: a shot
    succeeds exactly when Bob's bit reads 0.

    *payload_prep* is a sequence of parameter-free single-qubit gate names
    (from ``id x y z h s sdg t tdg``) preparing the payload state from |0>.
    """
    payload = QuantumRegister(1, "payload")
    alice = QuantumRegister(1, "alice")
    bob = QuantumRegister(1, "bob")
    alice_bits = ClassicalRegister(2, "alice_bits")
    bob_bit = ClassicalRegister(1, "bob_bit")
    qc = QuantumCircuit(payload, alice, bob, alice_bits, bob_bit, name="teleport_deferred")
    for name in payload_prep:
        if name not in _PREP_INVERSES:
            raise CircuitError(
                f"unsupported payload gate {name!r} (choose from {sorted(_PREP_INVERSES)})"
            )
        getattr(qc, name)(payload[0])
    qc.h(alice[0])
    qc.cx(alice[0], bob[0])
    qc.cx(payload[0], alice[0])
    qc.h(payload[0])
    # deferred corrections: CX replaces the classically controlled X, CZ the Z
    qc.cx(alice[0], bob[0])
    qc.cz(payload[0], bob[0])
    qc.measure([payload[0], alice[0]], [alice_bits[0], alice_bits[1]])
    for name in reversed(list(payload_prep)):
        getattr(qc, _PREP_INVERSES[name])(bob[0])
    qc.measure(bob[0], bob_bit[0])
    return qc


@dataclass
class TeleportationSamplingResult:
    """Shot statistics of a backend-driven teleportation run."""

    counts: Dict[str, int]
    shots: int
    success_probability: float
    backend_name: str


def run_teleportation(
    payload_prep: Sequence[str] = ("h",),
    shots: int = 1024,
    backend=None,
    seed: Optional[int] = 17,
) -> TeleportationSamplingResult:
    """Sample the deferred-measurement teleportation protocol on a backend.

    ``backend=`` accepts a :class:`~repro.qsim.backends.Backend` instance or
    registry name (e.g. ``"stabilizer"``; any Clifford *payload_prep* — no
    ``t``/``tdg`` — keeps the whole circuit Clifford).  A perfect backend
    yields ``success_probability == 1.0``: Bob's bit (the leftmost counts
    character) always reads 0.
    """
    from ..qsim.backends import resolve_backend

    resolved = resolve_backend(backend, default_seed=seed)
    circuit = deferred_teleportation_circuit(payload_prep)
    experiment = resolved.run(circuit, shots=shots).result()[0]
    counts = experiment.counts
    successes = sum(count for key, count in counts.items() if key[0] == "0")
    return TeleportationSamplingResult(
        counts=counts,
        shots=shots,
        success_probability=successes / shots,
        backend_name=resolved.name,
    )
