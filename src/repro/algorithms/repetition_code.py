"""Repetition-code memory experiment: encode, corrupt, extract, decode.

The distance-``d`` bit-flip repetition code stores one logical qubit in
``d`` data qubits (``|0>_L = |0...0>``, ``|1>_L = |1...1>``) and detects
errors through ``d - 1`` ancilla qubits, each comparing the parity of two
neighbouring data qubits.  The whole experiment -- encoding, noise, CX-based
syndrome extraction, ancilla measure-and-reset rounds, transversal readout
-- is pure Clifford, so the :mod:`stabilizer engine
<repro.qsim.stabilizer>` runs it at **hundreds of qubits** with Pauli noise
injected into the tableau, where the dense engines stop at ~20.

This is the QEC-style showcase of the noise-aware stabilizer engine: noise
is injected by the *backend* (the same ``noise_model=`` on every engine),
the syndrome circuit detects the injected errors, and the classical decoder
(majority vote, the exact maximum-likelihood decoder for independent
bit-flips) recovers the logical value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..qsim.circuit import QuantumCircuit
from ..qsim.exceptions import SimulationError
from ..qsim.registers import ClassicalRegister, QuantumRegister

__all__ = [
    "RepetitionCodeResult",
    "repetition_code_circuit",
    "decode_majority",
    "run_repetition_code",
]


@dataclass
class RepetitionCodeResult:
    """Outcome of a repetition-code memory experiment."""

    distance: int
    rounds: int
    shots: int
    logical_value: int
    #: fraction of shots whose decoded logical value was wrong
    logical_error_rate: float
    #: fraction of shots with at least one non-trivial syndrome bit
    detection_rate: float
    #: histogram over the final data-qubit readout (MSB-first bitstrings)
    data_counts: Dict[str, int]

    @property
    def num_qubits(self) -> int:
        """Total register width: ``distance`` data + ``distance - 1`` ancillas."""
        return 2 * self.distance - 1


def repetition_code_circuit(
    distance: int, rounds: int = 1, logical_value: int = 0
) -> QuantumCircuit:
    """The distance-*distance* repetition-code memory circuit.

    Layout: data qubits ``0 .. d-1``, ancilla qubits ``d .. 2d-2`` (ancilla
    ``i`` checks the ``Z_i Z_{i+1}`` parity of data neighbours ``i`` and
    ``i+1``).  Classical bits: ``rounds * (d - 1)`` syndrome bits first,
    then ``d`` bits of transversal data readout.  Ancillas are measured and
    **reset** every round, so the circuit exercises the engines'
    mid-circuit-measurement machinery.
    """
    if distance < 1:
        raise SimulationError("repetition-code distance must be at least 1")
    if rounds < 1:
        raise SimulationError("repetition-code rounds must be at least 1")
    if logical_value not in (0, 1):
        raise SimulationError("logical_value must be 0 or 1")
    num_checks = distance - 1
    data = QuantumRegister(distance, "data")
    creg_data = ClassicalRegister(distance, "readout")
    if num_checks:
        ancilla = QuantumRegister(num_checks, "anc")
        creg_syndrome = ClassicalRegister(rounds * num_checks, "syndrome")
        qc = QuantumCircuit(data, ancilla, creg_syndrome, creg_data,
                            name=f"repetition_d{distance}")
    else:
        qc = QuantumCircuit(data, creg_data, name=f"repetition_d{distance}")
    # encoding: the logical basis states are transversal
    if logical_value:
        for i in range(distance):
            qc.x(data[i])
    # idle location on every data qubit so noise strikes even before the
    # first syndrome round touches it (id is a unitary instruction, so
    # every engine's noise hook fires on it)
    for i in range(distance):
        qc.id(data[i])
    for r in range(rounds):
        for i in range(num_checks):
            qc.cx(data[i], ancilla[i])
            qc.cx(data[i + 1], ancilla[i])
        for i in range(num_checks):
            qc.measure(ancilla[i], creg_syndrome[r * num_checks + i])
            if r + 1 < rounds:
                qc.reset(ancilla[i])
    qc.measure([data[i] for i in range(distance)],
               [creg_data[i] for i in range(distance)])
    return qc


def decode_majority(data_bits: str) -> int:
    """Majority-vote decoder over a transversal data readout bitstring.

    For independent bit-flip errors this is the maximum-likelihood decoder
    of the repetition code; ties (even distance) round toward 1.
    """
    ones = data_bits.count("1")
    return int(2 * ones >= len(data_bits))


def run_repetition_code(
    distance: int,
    rounds: int = 1,
    p: float = 0.01,
    noise: str = "depolarizing",
    logical_value: int = 0,
    shots: int = 1024,
    backend="stabilizer",
    seed: Optional[int] = 2026,
) -> RepetitionCodeResult:
    """Run the full encode / corrupt / extract / decode experiment.

    *backend* is a registry name (a noisy engine is constructed from it with
    the channel *noise* at probability *p*; ``p=0`` runs noiselessly) or a
    pre-configured :class:`~repro.qsim.backends.Backend` instance (then *p*
    and *noise* are ignored -- the instance's own noise applies).  The default
    ``backend="stabilizer"`` handles 100+ qubit codes in well under a
    second; ``"statevector"``/``"density_matrix"`` validate it on small
    distances.
    """
    from ..qsim.backends import Backend, build_noisy_backend

    circuit = repetition_code_circuit(distance, rounds=rounds, logical_value=logical_value)
    if isinstance(backend, Backend):
        resolved = backend
    else:
        resolved = build_noisy_backend(backend, p or None, noise, seed=seed)
    result = resolved.run(circuit, shots=shots, memory=True).result()
    memory = result.get_memory()

    num_checks = distance - 1
    num_syndrome_bits = rounds * num_checks
    failures = 0
    detections = 0
    data_counts: Dict[str, int] = {}
    for bitstring in memory:
        # clbits are MSB-first: the *last* classical bit is the leftmost
        # character, so the data register (added last) is the string's head
        data_bits = bitstring[:distance]
        syndrome_bits = bitstring[distance : distance + num_syndrome_bits]
        data_counts[data_bits] = data_counts.get(data_bits, 0) + 1
        if decode_majority(data_bits) != logical_value:
            failures += 1
        if "1" in syndrome_bits:
            detections += 1
    return RepetitionCodeResult(
        distance=distance,
        rounds=rounds,
        shots=shots,
        logical_value=logical_value,
        logical_error_rate=failures / shots,
        detection_rate=detections / shots,
        data_counts=data_counts,
    )
