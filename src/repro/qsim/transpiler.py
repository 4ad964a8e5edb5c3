"""Decomposition and analysis passes.

The reproduction does not need a full transpiler; it needs just enough to
(a) report hardware-meaningful gate counts and depths for the benchmark
figures, (b) lower the handful of composite gates (multi-controlled X/Z,
SWAP, Toffoli) to a {1-qubit, CX} basis so those metrics are comparable to
what the paper's Qiskit backend would report, (c) offer
:func:`transpile`, the one-call peephole pipeline (gate fusion is the
statevector engine's own step, :func:`repro.qsim.simulator.prepare`), and
(d) the Clifford-detection pass (:func:`is_clifford`,
:func:`clifford_sequence`, :func:`pauli_conjugation_table`) that routes
circuits onto the polynomial-time stabilizer engine.
"""

from __future__ import annotations

import functools
import math
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .circuit import CircuitInstruction, QuantumCircuit, unique_register_name
from .exceptions import CircuitError
from .instruction import (
    Barrier,
    ControlledGate,
    Gate,
    Initialize,
    Instruction,
    Measure,
    Reset,
    UnitaryGate,
)
from .optimizer import optimize
from .registers import QuantumRegister

__all__ = [
    "transpile",
    "decompose",
    "basis_gate_count",
    "two_qubit_gate_count",
    "is_clifford",
    "clifford_sequence",
    "pauli_conjugation_table",
    "MAX_CLIFFORD_TABLE_QUBITS",
]


def transpile(circuit: QuantumCircuit, optimization_level: int = 1) -> QuantumCircuit:
    """Prepare *circuit* for execution at the given *optimization_level*.

    * level 0 -- return an unmodified copy,
    * level 1 -- peephole optimisation (inverse cancellation, rotation
      merging, identity removal).
    """
    from . import telemetry

    if optimization_level not in (0, 1):
        raise ValueError(f"optimization_level must be 0 or 1, got {optimization_level!r}")

    with telemetry.span(
        "transpile", circuit=circuit.name, level=optimization_level, gates=len(circuit.data)
    ) as sp:
        if optimization_level == 0:
            return circuit.copy()
        out = optimize(circuit)
        sp.tag(gates_out=len(out.data))
        return out

_BASIS = {"id", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx", "rx", "ry", "rz", "p", "u2", "u3", "cx"}


def basis_gate_count(circuit: QuantumCircuit) -> int:
    """Total gate count after lowering to the {1q, CX} basis."""
    from .analysis.resources import estimate_resources  # local import: cycle

    return estimate_resources(decompose(circuit)).size


def two_qubit_gate_count(circuit: QuantumCircuit) -> int:
    """Number of CX gates after lowering (the usual hardware cost metric)."""
    from .analysis.resources import estimate_resources  # local import: cycle

    return estimate_resources(decompose(circuit)).gate_counts.get("cx", 0)


def decompose(circuit: QuantumCircuit) -> QuantumCircuit:
    """Return an equivalent circuit using only the {1-qubit, CX} basis.

    Multi-controlled X gates with more than two controls are lowered with a
    V-chain of Toffolis, which requires ``k - 2`` ancilla qubits; a dedicated
    ancilla register is appended to the output circuit when needed.
    """
    max_controls = 0
    for instr in circuit.data:
        op = instr.operation
        if isinstance(op, ControlledGate) and op.base_gate.name in ("x", "z", "p"):
            max_controls = max(max_controls, op.num_controls)
        elif op.name == "ccx":
            max_controls = max(max_controls, 2)
    num_ancillas = max(0, max_controls - 2)

    out = QuantumCircuit(name=f"{circuit.name}_lowered")
    for reg in circuit.qregs:
        out.add_register(reg)
    for reg in circuit.cregs:
        out.add_register(reg)
    ancillas: List = []
    if num_ancillas:
        anc_reg = QuantumRegister(num_ancillas, unique_register_name(circuit.qregs, "mcx_anc"))
        out.add_register(anc_reg)
        ancillas = list(anc_reg)

    for instr in circuit.data:
        start = len(out.data)
        _lower_instruction(out, instr, ancillas)
        if instr.condition is not None:
            # distribute the condition over every emitted sub-instruction;
            # exact because lowering only emits unitaries (which never write
            # the classical register the condition reads) plus the original
            # measure/reset passthroughs
            for lowered in out.data[start:]:
                lowered.condition = instr.condition
    return out


def _lower_instruction(out: QuantumCircuit, instr: CircuitInstruction, ancillas: Sequence) -> None:
    op = instr.operation
    qubits = list(instr.qubits)
    if isinstance(op, (Measure, Reset, Barrier, Initialize)):
        out.append(op.copy(), qubits, list(instr.clbits))
        return
    name = op.name
    if name in _BASIS:
        out.append(op.copy(), qubits)
        return
    if name == "swap":
        a, b = qubits
        out.cx(a, b)
        out.cx(b, a)
        out.cx(a, b)
        return
    if name == "cz":
        control, target = qubits
        out.h(target)
        out.cx(control, target)
        out.h(target)
        return
    if name == "ch":
        control, target = qubits
        out.ry(math.pi / 4, target)
        out.cx(control, target)
        out.ry(-math.pi / 4, target)
        return
    if name == "cy":
        control, target = qubits
        out.sdg(target)
        out.cx(control, target)
        out.s(target)
        return
    if name == "cp":
        lam = op.params[0]
        control, target = qubits
        out.p(lam / 2, control)
        out.cx(control, target)
        out.p(-lam / 2, target)
        out.cx(control, target)
        out.p(lam / 2, target)
        return
    if name in ("cry", "crz"):
        theta = op.params[0]
        control, target = qubits
        rot = {"cry": out.ry, "crz": out.rz}[name]
        rot(theta / 2, target)
        out.cx(control, target)
        rot(-theta / 2, target)
        out.cx(control, target)
        return
    if name == "crx":
        # Rx = H Rz H, so conjugate the CRZ pattern with Hadamards.
        theta = op.params[0]
        control, target = qubits
        out.h(target)
        out.rz(theta / 2, target)
        out.cx(control, target)
        out.rz(-theta / 2, target)
        out.cx(control, target)
        out.h(target)
        return
    if name == "iswap":
        a, b = qubits
        out.s(a)
        out.s(b)
        out.h(a)
        out.cx(a, b)
        out.cx(b, a)
        out.h(b)
        return
    if name == "ryy":
        # Ryy = (Rx(pi/2) x Rx(pi/2))^dag Rzz (Rx(pi/2) x Rx(pi/2)), and
        # Rzz is one Rz between two CXs
        theta = op.params[0]
        a, b = qubits
        out.rx(math.pi / 2, a)
        out.rx(math.pi / 2, b)
        out.cx(a, b)
        out.rz(theta, b)
        out.cx(a, b)
        out.rx(-math.pi / 2, a)
        out.rx(-math.pi / 2, b)
        return
    if name == "ccx":
        _lower_toffoli(out, *qubits)
        return
    if name == "cswap":
        control, a, b = qubits
        out.cx(b, a)
        _lower_toffoli(out, control, a, b)
        out.cx(b, a)
        return
    if isinstance(op, ControlledGate) and op.base_gate.name == "x":
        _lower_mcx(out, qubits[:-1], qubits[-1], ancillas)
        return
    if isinstance(op, ControlledGate) and op.base_gate.name == "z":
        target = qubits[-1]
        out.h(target)
        _lower_mcx(out, qubits[:-1], target, ancillas)
        out.h(target)
        return
    # Anything else (explicit unitaries, rxx/rzz, multi-controlled phase)
    # is kept as-is -- the simulator can run it directly; metrics treat
    # it as one gate.
    out.append(op.copy(), qubits)


def _lower_toffoli(out: QuantumCircuit, c1, c2, target) -> None:
    out.h(target)
    out.cx(c2, target)
    out.tdg(target)
    out.cx(c1, target)
    out.t(target)
    out.cx(c2, target)
    out.tdg(target)
    out.cx(c1, target)
    out.t(c2)
    out.t(target)
    out.h(target)
    out.cx(c1, c2)
    out.t(c1)
    out.tdg(c2)
    out.cx(c1, c2)


def _lower_mcx(out: QuantumCircuit, controls: Sequence, target, ancillas: Sequence) -> None:
    controls = list(controls)
    k = len(controls)
    if k == 0:
        out.x(target)
        return
    if k == 1:
        out.cx(controls[0], target)
        return
    if k == 2:
        _lower_toffoli(out, controls[0], controls[1], target)
        return
    needed = k - 2
    if len(ancillas) < needed:
        raise CircuitError(
            f"lowering a {k}-controlled X needs {needed} ancillas, only {len(ancillas)} available"
        )
    work = list(ancillas[:needed])
    # V-chain: compute the AND of controls into work qubits, apply the final
    # Toffoli, then uncompute so the ancillas return to |0>.
    chain: List = []
    _lower_toffoli(out, controls[0], controls[1], work[0])
    chain.append((controls[0], controls[1], work[0]))
    for i in range(2, k - 1):
        _lower_toffoli(out, controls[i], work[i - 2], work[i - 1])
        chain.append((controls[i], work[i - 2], work[i - 1]))
    _lower_toffoli(out, controls[k - 1], work[needed - 1], target)
    for c1, c2, t in reversed(chain):
        _lower_toffoli(out, c1, c2, t)


# ---------------------------------------------------------------------------
# Clifford detection and decomposition
# ---------------------------------------------------------------------------

#: largest unitary block (in qubits) the matrix-based Clifford check will
#: analyse; covers every fused block the fusion pass emits (budget <= 4)
MAX_CLIFFORD_TABLE_QUBITS = 4

#: the generator set the stabilizer tableau implements natively
_CLIFFORD_GENERATORS = ("x", "y", "z", "h", "s", "sdg", "cx", "cz", "swap")

#: entries are application-ordered: the first tuple is applied first
CliffordSequence = List[Tuple[str, Tuple[int, ...]]]

_FIXED_CLIFFORD_SEQUENCES: Dict[str, CliffordSequence] = {
    "id": [],
    "x": [("x", (0,))],
    "y": [("y", (0,))],
    "z": [("z", (0,))],
    "h": [("h", (0,))],
    "s": [("s", (0,))],
    "sdg": [("sdg", (0,))],
    # SX = H S H exactly (no global phase)
    "sx": [("h", (0,)), ("s", (0,)), ("h", (0,))],
    "cx": [("cx", (0, 1))],
    "cz": [("cz", (0, 1))],
    "swap": [("swap", (0, 1))],
    # CY = (I (x) S) CX (I (x) Sdg)
    "cy": [("sdg", (1,)), ("cx", (0, 1)), ("s", (1,))],
    # ISWAP = SWAP . CZ . (S (x) S); all three factors commute pairwise
    "iswap": [("s", (0,)), ("s", (1,)), ("cz", (0, 1)), ("swap", (0, 1))],
}

#: rotation-gate sequences keyed by the number of quarter turns (mod 4);
#: a missing key (e.g. cp at one quarter turn, the CS gate) is not Clifford
_ROTATION_CLIFFORD_SEQUENCES: Dict[str, Dict[int, CliffordSequence]] = {
    "rz": {0: [], 1: [("s", (0,))], 2: [("z", (0,))], 3: [("sdg", (0,))]},
    "p": {0: [], 1: [("s", (0,))], 2: [("z", (0,))], 3: [("sdg", (0,))]},
    "rx": {
        0: [],
        1: [("h", (0,)), ("s", (0,)), ("h", (0,))],
        2: [("x", (0,))],
        3: [("h", (0,)), ("sdg", (0,)), ("h", (0,))],
    },
    "ry": {
        0: [],
        1: [("h", (0,)), ("x", (0,))],
        2: [("y", (0,))],
        3: [("x", (0,)), ("h", (0,))],
    },
    "cp": {0: [], 2: [("cz", (0, 1))]},
}


def _quarter_turns(theta: float, atol: float = 1e-9) -> Optional[int]:
    """*theta* as a whole number of pi/2 turns (mod 4), or ``None``."""
    k = round(theta * 2.0 / math.pi)
    if abs(theta - k * (math.pi / 2.0)) > atol:
        return None
    return int(k % 4)


def clifford_sequence(op: Instruction) -> Optional[CliffordSequence]:
    """Decompose *op* into stabilizer-native Clifford generators by name.

    Returns a list of ``(gate_name, local_qubit_indices)`` pairs drawn from
    the tableau's native set (H, S, Sdg, X, Y, Z, CX, CZ, SWAP) in
    application order, or ``None`` when the gate is not recognised as
    Clifford by name (rotation gates are snapped to multiples of pi/2; an
    off-grid angle returns ``None``).  Explicit :class:`UnitaryGate` blocks
    are never matched by name — use :func:`pauli_conjugation_table` on their
    matrix instead.
    """
    if isinstance(op, UnitaryGate) or not op.is_unitary:
        return None
    sequence = _FIXED_CLIFFORD_SEQUENCES.get(op.name)
    if sequence is not None:
        return list(sequence)
    by_turns = _ROTATION_CLIFFORD_SEQUENCES.get(op.name)
    if by_turns is not None and op.params:
        k = _quarter_turns(op.params[0])
        if k is None:
            return None
        sequence = by_turns.get(k)
        return None if sequence is None else list(sequence)
    return None


@functools.lru_cache(maxsize=MAX_CLIFFORD_TABLE_QUBITS)
def _local_pauli_basis(num_qubits: int) -> np.ndarray:
    """All ``4**k`` literal Pauli products, indexed base-4 by per-qubit codes.

    The per-qubit code is ``2x + z`` (0 -> I, 1 -> Z, 2 -> X, 3 -> Y) and the
    first qubit owns the most significant code digit, matching the matrix
    index convention of :mod:`repro.qsim.gates`.
    """
    single = np.array(
        [
            [[1, 0], [0, 1]],      # I
            [[1, 0], [0, -1]],     # Z
            [[0, 1], [1, 0]],      # X
            [[0, -1j], [1j, 0]],   # Y
        ],
        dtype=complex,
    )
    basis = single
    for _ in range(num_qubits - 1):
        basis = np.einsum("aij,bkl->abikjl", basis, single).reshape(
            basis.shape[0] * 4, basis.shape[1] * 2, basis.shape[2] * 2
        )
    return basis


def pauli_conjugation_table(
    matrix: np.ndarray, atol: float = 1e-8
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The symplectic action of *matrix* on the Pauli group, or ``None``.

    Results are memoized on the matrix bytes: fused circuits repeat block
    matrices, and the documented ``is_clifford()``-then-``run()`` pattern
    analyses every block twice, so without the cache the matrix analysis
    dominates fused-circuit execution.
    """
    matrix = np.ascontiguousarray(np.asarray(matrix, dtype=complex))
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return None
    return _pauli_conjugation_table_cached(matrix.shape[0], matrix.tobytes(), float(atol))


@functools.lru_cache(maxsize=512)
def _pauli_conjugation_table_cached(
    dim: int, matrix_bytes: bytes, atol: float
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    matrix = np.frombuffer(matrix_bytes, dtype=complex).reshape(dim, dim)
    return _pauli_conjugation_table_impl(matrix, atol)


def _pauli_conjugation_table_impl(
    matrix: np.ndarray, atol: float
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Uncached table construction; see :func:`pauli_conjugation_table`.

    A unitary is Clifford exactly when it conjugates every Pauli product to
    a single signed Pauli product.  For a ``k``-qubit unitary (``k <=``
    :data:`MAX_CLIFFORD_TABLE_QUBITS`) this computes ``U P U^dag`` for all
    ``4**k`` literal Pauli products ``P`` and returns three arrays indexed by
    the base-4 Pauli code (per-qubit code ``2x + z``, first qubit most
    significant):

    * ``xtab[i]`` / ``ztab[i]`` — the image's x/z bits, bit ``j`` belonging
      to qubit ``j`` of the gate,
    * ``sign[i]`` — 1 when the image carries a minus sign.

    This is how the stabilizer engine executes composite and fused gates
    (e.g. anonymous ``UnitaryGate`` blocks produced by ``fuse_gates``)
    without a generator-level resynthesis.  Returns ``None`` when *matrix*
    is not Clifford (or too large to analyse).
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return None
    dim = matrix.shape[0]
    k = int(round(math.log2(dim)))
    if 2**k != dim or k < 1 or k > MAX_CLIFFORD_TABLE_QUBITS:
        return None
    if not np.allclose(matrix.conj().T @ matrix, np.eye(dim), atol=atol):
        return None

    basis = _local_pauli_basis(k)
    adjoint = matrix.conj().T
    size = 4**k
    xtab = np.zeros(size, dtype=np.uint8)
    ztab = np.zeros(size, dtype=np.uint8)
    sign = np.zeros(size, dtype=np.uint8)
    for index in range(size):
        image = matrix @ basis[index] @ adjoint
        # Paulis are trace-orthogonal: coefficient of basis[j] is tr(P_j M)/dim
        coefficients = np.einsum("aij,ji->a", basis, image) / dim
        position = int(np.argmax(np.abs(coefficients)))
        coefficient = coefficients[position]
        if abs(abs(coefficient) - 1.0) > atol or abs(coefficient.imag) > atol:
            return None
        x_bits = 0
        z_bits = 0
        for qubit in range(k):
            code = (position >> (2 * (k - 1 - qubit))) & 3
            x_bits |= (code >> 1) << qubit
            z_bits |= (code & 1) << qubit
        xtab[index] = x_bits
        ztab[index] = z_bits
        sign[index] = 1 if coefficient.real < 0 else 0
    return xtab, ztab, sign


def _initialize_basis_value(op: Initialize) -> Optional[int]:
    """The computational-basis value *op* prepares, or ``None`` if entangled."""
    nonzero = np.nonzero(np.abs(op.statevector) > 1e-12)[0]
    if nonzero.size != 1:
        return None
    return int(nonzero[0])


def _clifford_classification(op: Instruction) -> Optional[Tuple[str, Any]]:
    """How the stabilizer engine can execute *op*, or ``None`` if it cannot.

    The single source of truth shared by :func:`is_clifford` and the
    stabilizer engine's circuit compiler, so detection and execution can
    never disagree.  Returns one of::

        ("passthrough", None)        # barrier / measure / reset
        ("initialize", basis_value)  # basis-state Initialize
        ("sequence", clifford_seq)   # named generator decomposition
        ("table", (xtab, ztab, sign))  # Pauli conjugation table
    """
    if isinstance(op, (Barrier, Measure, Reset)):
        return ("passthrough", None)
    if isinstance(op, Initialize):
        value = _initialize_basis_value(op)
        return None if value is None else ("initialize", value)
    if not op.is_unitary:
        return None
    sequence = clifford_sequence(op)
    if sequence is not None:
        return ("sequence", sequence)
    if op.num_qubits <= MAX_CLIFFORD_TABLE_QUBITS:
        table = pauli_conjugation_table(op.to_matrix())
        if table is not None:
            return ("table", table)
    return None


def is_clifford(circuit: QuantumCircuit) -> bool:
    """Whether every instruction of *circuit* has a stabilizer execution.

    Barriers, measurements and resets always qualify; ``Initialize`` only
    for computational-basis states; unitary gates qualify when
    :func:`clifford_sequence` recognises them by name (with pi/2 angle
    snapping for rotation gates) or, for explicit/fused unitary blocks up to
    :data:`MAX_CLIFFORD_TABLE_QUBITS` qubits, when
    :func:`pauli_conjugation_table` certifies the matrix as Clifford.

    Delegates to the static analyzer's resource estimate
    (:func:`repro.qsim.analysis.estimate_resources`), which classifies
    instructions through :func:`_clifford_classification` — the same single
    source of truth the stabilizer engine compiles from — and records the
    first offender for the analyzer's QA401 diagnostic.
    """
    from .analysis.resources import estimate_resources  # local import: cycle

    return estimate_resources(circuit).first_non_clifford is None
