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
from typing import Optional

from ..qsim.backends import resolve_backend
from ..qsim.circuit import QuantumCircuit
from ..qsim.exceptions import CircuitError
from ..qsim.registers import ClassicalRegister, QuantumRegister

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
    """The swapping protocol over an even number of qubits, feed-forward included.

    Neighbouring pairs ``(0,1), (2,3), ...`` are prepared as Bell pairs and
    every interior junction ``(j, j+1)`` is rotated into the Bell basis and
    measured into its own registers ``phase<k>`` and ``parity<k>``; the
    Pauli corrections conditioned on them (``x`` on a parity of 1, ``z`` on
    a phase of 1) land on qubit ``j + 2``, the new end of the entangled
    chain, before the next junction uses it.
    """
    if num_qubits < 2 or num_qubits % 2:
        raise CircuitError("the swapping chain needs an even number (>= 2) of qubits")
    reg = QuantumRegister(num_qubits, "chain")
    qc = QuantumCircuit(reg, name="entanglement_chain")
    for i in range(0, num_qubits, 2):
        build_bell_pair(qc, reg[i], reg[i + 1])
    for k, j in enumerate(range(1, num_qubits - 1, 2)):
        phase, parity = ClassicalRegister(1, f"phase{k}"), ClassicalRegister(1, f"parity{k}")
        qc.add_register(phase)
        qc.add_register(parity)
        qc.cx(reg[j], reg[j + 1])
        qc.h(reg[j])
        qc.measure([reg[j], reg[j + 1]], [phase[0], parity[0]])
        qc.x(reg[j + 2]).c_if(parity, 1)
        qc.z(reg[j + 2]).c_if(phase, 1)
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

    Runs :func:`entanglement_swapping_chain` -- mid-circuit Bell
    measurements and classically conditioned corrections -- through a
    statevector backend seeded with *seed*, in two readouts of *shots*
    shots each: the end pair in the computational basis and in the Bell
    basis.  ``correlation`` is the fraction of shots whose first and last
    qubits agree (1.0 for a perfect Phi+ pair) and ``fidelity_with_bell``
    the fraction whose end pair reads Phi+ in the Bell basis, an unbiased
    estimate of its fidelity with Phi+.
    """
    chain = entanglement_swapping_chain(num_qubits)
    first, last = chain.qubits[0], chain.qubits[-1]
    readouts = []
    for bell_basis in (False, True):
        readout = chain.copy()
        ends = ClassicalRegister(2, "ends")
        readout.add_register(ends)
        if bell_basis:
            readout.cx(first, last)
            readout.h(first)
        readout.measure([first, last], [ends[0], ends[1]])
        readouts.append(readout)
    backend = resolve_backend(None, default_seed=seed)
    result = backend.run(readouts, shots=shots).result()
    z_basis, bell = result.get_counts(0), result.get_counts(1)
    # ``ends`` is the last register: the two leftmost characters of a key
    agree = sum(count for key, count in z_basis.items() if key[0] == key[1])
    phi_plus = sum(count for key, count in bell.items() if key[:2] == "00")
    return EntanglementPropagationResult(
        num_qubits=num_qubits,
        correlation=agree / shots,
        fidelity_with_bell=phi_plus / shots,
        shots=shots,
    )
