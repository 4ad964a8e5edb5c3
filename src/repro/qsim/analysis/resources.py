"""Resource estimation: the facts other passes (and callers) query.

:func:`estimate_resources` makes one pass over a circuit and returns a
:class:`ResourceEstimate`: width, depth, gate histogram, two-qubit-gate
count, measurement structure, Clifford facts, and the estimated peak bytes
each engine would need for the state alone.  The transpiler's metric
helpers (``basis_gate_count``, ``two_qubit_gate_count``, ``is_clifford``)
delegate here, and the backend-compatibility pass uses the
memory/Clifford facts to reject impossible jobs before any amplitude is
allocated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from ..circuit import QuantumCircuit
from ..instruction import Barrier, Measure, Reset
from ..registers import Qubit

__all__ = ["ResourceEstimate", "estimate_resources", "COMPLEX_BYTES"]

#: bytes per complex128 amplitude / density-matrix entry
COMPLEX_BYTES = 16


@dataclass(frozen=True)
class ResourceEstimate:
    """Static facts about one circuit, computed in a single pass."""

    num_qubits: int
    num_clbits: int
    size: int                      #: instructions, barriers excluded
    depth: int
    gate_counts: Dict[str, int] = field(default_factory=dict)
    two_qubit_gates: int = 0       #: non-barrier ops touching exactly 2 qubits
    multi_qubit_gates: int = 0     #: non-barrier ops touching 3+ qubits
    measurements: int = 0
    resets: int = 0
    has_mid_circuit_measurement: bool = False
    #: index of the first instruction the stabilizer engine cannot execute,
    #: or ``None`` when the whole circuit is Clifford
    first_non_clifford: Optional[int] = None
    #: index of the first instruction that can take a basis state out of the
    #: computational basis (see :func:`repro.qsim.kernels.basis_table`), or
    #: ``None`` when the whole circuit is monomial: the dense engines' basis
    #: and population prefix ends there
    first_non_monomial: Optional[int] = None

    @property
    def is_clifford(self) -> bool:
        """Whether every instruction has a stabilizer execution."""
        return self.first_non_clifford is None

    # -- per-engine memory, state storage only ------------------------------

    def statevector_bytes(self) -> int:
        """Peak bytes of the dense amplitude vector (``16 * 2**n``)."""
        return COMPLEX_BYTES * (2 ** self.num_qubits)

    def density_matrix_bytes(self) -> int:
        """Peak bytes of the dense density matrix (``16 * 4**n``)."""
        return COMPLEX_BYTES * (4 ** self.num_qubits)

    def stabilizer_bytes(self) -> int:
        """Approximate tableau bytes: ``2n`` generators of ``2n + 1`` bits."""
        n = self.num_qubits
        return ((2 * n) * (2 * n + 1) + 7) // 8

    def memory_bytes(self, backend: str) -> Optional[int]:
        """State bytes for a canonical *backend* name, ``None`` if unknown."""
        if backend == "statevector":
            return self.statevector_bytes()
        if backend == "density_matrix":
            return self.density_matrix_bytes()
        if backend == "stabilizer":
            return self.stabilizer_bytes()
        return None

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form, persisted alongside diagnostics in job records."""
        return {
            "num_qubits": self.num_qubits,
            "num_clbits": self.num_clbits,
            "size": self.size,
            "depth": self.depth,
            "gate_counts": dict(self.gate_counts),
            "two_qubit_gates": self.two_qubit_gates,
            "multi_qubit_gates": self.multi_qubit_gates,
            "measurements": self.measurements,
            "resets": self.resets,
            "has_mid_circuit_measurement": self.has_mid_circuit_measurement,
            "is_clifford": self.is_clifford,
            "first_non_clifford": self.first_non_clifford,
            "first_non_monomial": self.first_non_monomial,
            "memory_bytes": {
                "statevector": self.statevector_bytes(),
                "density_matrix": self.density_matrix_bytes(),
                "stabilizer": self.stabilizer_bytes(),
            },
        }


def estimate_resources(circuit: QuantumCircuit) -> ResourceEstimate:
    """Compute a :class:`ResourceEstimate` for *circuit* in one pass.

    Clifford classification reuses the transpiler's
    ``_clifford_classification`` — the single source of truth the stabilizer
    engine executes from — and stops at the first non-Clifford instruction,
    so the scan stays cheap on deeply non-Clifford circuits.  Monomial
    classification likewise reuses :func:`~repro.qsim.kernels.is_monomial`,
    the classifier both dense engines run their basis prefix from.
    """
    from ..kernels import is_monomial
    from ..transpiler import _clifford_classification  # local import: cycle

    gate_counts: Dict[str, int] = {}
    two_qubit = 0
    multi_qubit = 0
    measurements = 0
    resets = 0
    size = 0
    mid_circuit = False
    first_non_clifford: Optional[int] = None
    first_non_monomial: Optional[int] = None
    measured: Set[Qubit] = set()

    for index, instr in enumerate(circuit.data):
        op = instr.operation
        name = op.name
        gate_counts[name] = gate_counts.get(name, 0) + 1
        if isinstance(op, Barrier):
            continue
        size += 1
        # anything on a measured qubit, a second measurement included,
        # reads or disturbs the collapsed state: the measurement was not final
        if any(q in measured for q in instr.qubits):
            mid_circuit = True
        if isinstance(op, Measure):
            measurements += 1
            measured.add(instr.qubits[0])
        else:
            if isinstance(op, Reset):
                resets += 1
            if len(instr.qubits) == 2:
                two_qubit += 1
            elif len(instr.qubits) > 2:
                multi_qubit += 1
        if first_non_clifford is None and _clifford_classification(op) is None:
            first_non_clifford = index
        if first_non_monomial is None and not is_monomial(op):
            first_non_monomial = index

    return ResourceEstimate(
        num_qubits=circuit.num_qubits,
        num_clbits=circuit.num_clbits,
        size=size,
        depth=circuit.depth(),
        gate_counts=gate_counts,
        two_qubit_gates=two_qubit,
        multi_qubit_gates=multi_qubit,
        measurements=measurements,
        resets=resets,
        has_mid_circuit_measurement=mid_circuit,
        first_non_clifford=first_non_clifford,
        first_non_monomial=first_non_monomial,
    )
