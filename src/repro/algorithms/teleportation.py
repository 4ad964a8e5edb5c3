"""Quantum teleportation.

Transfers an arbitrary single-qubit state from Alice to Bob using one shared
Bell pair and two classical bits.  Like the entanglement-propagation
showcase, the protocol requires classical feed-forward: :func:`teleport_state`
runs it as a circuit with mid-circuit measurements and classically
conditioned corrections, while :func:`teleportation_circuit` exposes the
unitary + measurement part for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..qsim.backends import get_backend, resolve_backend
from ..qsim.circuit import QuantumCircuit
from ..qsim.exceptions import CircuitError, SimulationError
from ..qsim.registers import ClassicalRegister, QuantumRegister

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
    """Teleport the single-qubit state *amplitudes* and report the fidelity.

    The payload is prepared by a unitary whose first column is the state,
    :func:`teleportation_circuit` measures Alice's two bits, and Bob's
    ``x``/``z`` corrections are conditioned on them; then the inverse
    preparation is applied to Bob.  One shot runs on a density-matrix
    backend seeded with *seed*, whose collapsed final state gives the exact
    fidelity: the probability that Bob now reads 0.
    """
    amplitudes = np.asarray(amplitudes, dtype=complex).ravel()
    if amplitudes.size != 2:
        raise SimulationError("teleportation payload must be a single-qubit state")
    norm = np.linalg.norm(amplitudes)
    if norm < 1e-12:
        raise SimulationError("payload state must be non-zero")
    a, b = amplitudes / norm
    prepare = np.array([[a, -np.conj(b)], [b, np.conj(a)]])

    protocol = teleportation_circuit()
    payload, _, bob = protocol.qubits
    (alice_bits,) = protocol.cregs
    qc = QuantumCircuit(*protocol.qregs, alice_bits, name="teleport_state")
    qc.unitary(prepare, [payload], label="payload")
    qc.compose(protocol)
    # alice_bits = (phase, parity), little-endian: X on a parity of 1, Z on a phase of 1
    for value in (2, 3):
        qc.x(bob).c_if(alice_bits, value)
    for value in (1, 3):
        qc.z(bob).c_if(alice_bits, value)
    qc.unitary(prepare.conj().T, [bob], label="payload_dg")

    experiment = get_backend("density_matrix", seed=seed).run(qc, shots=1).result()[0]
    (key,) = experiment.counts
    fidelity = float(experiment.density_matrix.probabilities([2])[0])
    return TeleportationResult(
        fidelity=fidelity,
        alice_bits=(int(key[1]), int(key[0])),
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
