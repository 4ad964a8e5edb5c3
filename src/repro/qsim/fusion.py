"""Gate fusion: merge runs of adjacent small gates into single unitaries.

Dense statevector simulation is memory-bound: every gate is a pass over the
``2^n`` amplitudes, so ten 1-qubit gates on overlapping qubits cost ten
passes even though their product is a single 2x2 (or 4x4/8x8) matrix.  The
pass in this module greedily collects maximal runs of adjacent unitary gates
whose combined support stays within ``max_fused_qubits`` qubits (default 3)
and replaces each run with one :class:`~repro.qsim.instruction.UnitaryGate`
holding the product matrix, cutting the number of passes over the state --
the same lever as quantumsim's ``Operation.from_sequence(...).compile()`` and
Qiskit Aer's fusion optimisation.

The algorithm keeps a set of *open blocks* with pairwise-disjoint qubit
support.  For each unitary instruction it either extends/merges the blocks it
overlaps (when the union fits the budget) or flushes them; non-unitary
instructions (measure, reset, barrier, initialize) flush everything, so no
gate is ever moved across them and per-shot collapse semantics are preserved
exactly.  Gates in disjoint blocks commute, so the emission order is safe.

Products of diagonal gates stay exactly diagonal, and the kernel dispatcher
(:mod:`repro.qsim.kernels`) detects diagonal fused matrices at application
time, so fusing a run of phase gates still executes on the cheap diagonal
kernel.
"""

from __future__ import annotations

from typing import Dict, List

from . import kernels
from .circuit import CircuitInstruction, QuantumCircuit
from .instruction import UnitaryGate

__all__ = ["fuse_gates", "fusion_summary", "DEFAULT_MAX_FUSED_QUBITS"]

#: default upper bound on the support of a fused block (8x8 matrices)
DEFAULT_MAX_FUSED_QUBITS = 3


class _Block:
    """An open run of fusable instructions with their combined qubit support."""

    __slots__ = ("instructions", "qubits")

    def __init__(self, instruction: CircuitInstruction):
        self.instructions: List[CircuitInstruction] = [instruction]
        self.qubits = set(instruction.qubits)

    def add(self, instruction: CircuitInstruction) -> None:
        self.instructions.append(instruction)
        self.qubits.update(instruction.qubits)

    def absorb(self, other: "_Block") -> None:
        self.instructions.extend(other.instructions)
        self.qubits.update(other.qubits)


def _emit(block: _Block, circuit: QuantumCircuit) -> List[CircuitInstruction]:
    if len(block.instructions) == 1:
        return block.instructions
    qubits = sorted(block.qubits, key=circuit.qubit_index)
    k = len(qubits)
    position = {qubit: index for index, qubit in enumerate(qubits)}
    product = kernels.block_product(
        [
            (instruction.operation.to_matrix(), [position[q] for q in instruction.qubits])
            for instruction in block.instructions
        ],
        k,
    )
    # products of unitaries are unitary, so skip the O(8^k) re-verification
    fused = UnitaryGate.unchecked(product, label=f"fused_{k}q")
    # labels are free-form, so consumers (e.g. the simulator's noise guard)
    # identify fused blocks by this marker rather than by name
    fused.is_fused_block = True
    return [CircuitInstruction(fused, tuple(qubits), ())]


def fuse_gates(
    circuit: QuantumCircuit, max_fused_qubits: int = DEFAULT_MAX_FUSED_QUBITS
) -> QuantumCircuit:
    """Return an equivalent circuit with adjacent small gates fused.

    Only unitary gates on at most *max_fused_qubits* qubits participate;
    everything else (measurements, resets, barriers, ``initialize``, wide
    gates) is kept verbatim and acts as a fusion barrier for the qubits it
    touches.  The result is intended for simulation: fused blocks become
    anonymous :class:`UnitaryGate` instructions, so gate-count metrics and
    QASM export should run on the unfused circuit.
    """
    if max_fused_qubits < 1:
        raise ValueError("max_fused_qubits must be at least 1")
    from . import telemetry

    with telemetry.span(
        "fusion", circuit=circuit.name, gates=len(circuit.data)
    ) as _fusion_span:
        return _fuse_gates_impl(circuit, max_fused_qubits, _fusion_span)


def _fuse_gates_impl(
    circuit: QuantumCircuit, max_fused_qubits: int, _span
) -> QuantumCircuit:
    open_blocks: List[_Block] = []
    emitted: List[CircuitInstruction] = []

    def flush(blocks: List[_Block]) -> None:
        for block in blocks:
            emitted.extend(_emit(block, circuit))

    for instruction in circuit.data:
        operation = instruction.operation
        if not operation.is_unitary or instruction.condition is not None:
            # conditioned instructions only execute on some shots, so they can
            # neither join a block nor let gates move across them: flush and
            # keep them verbatim, exactly like measure/reset
            flush(open_blocks)
            open_blocks = []
            emitted.append(instruction)
            continue
        qubits = set(instruction.qubits)
        if operation.num_qubits > max_fused_qubits:
            overlapping = [b for b in open_blocks if b.qubits & qubits]
            flush(overlapping)
            open_blocks = [b for b in open_blocks if not (b.qubits & qubits)]
            emitted.append(instruction)
            continue
        overlapping = [b for b in open_blocks if b.qubits & qubits]
        if not overlapping:
            open_blocks.append(_Block(instruction))
            continue
        union = set(qubits)
        for block in overlapping:
            union |= block.qubits
        if len(union) <= max_fused_qubits:
            merged = overlapping[0]
            for block in overlapping[1:]:
                merged.absorb(block)
            merged.add(instruction)
            open_blocks = [b for b in open_blocks if b is merged or b not in overlapping]
        else:
            flush(overlapping)
            open_blocks = [b for b in open_blocks if b not in overlapping]
            open_blocks.append(_Block(instruction))
    flush(open_blocks)

    out = QuantumCircuit(name=f"{circuit.name}_fused")
    for register in circuit.qregs:
        out.add_register(register)
    for register in circuit.cregs:
        out.add_register(register)
    # the emitted instructions are already bound to this register set; adopt
    # them directly (re-appending would re-validate every operand, which is
    # measurable on transpile-per-run workloads).  Unfused instructions are
    # shared with the source circuit, matching its shallow-copy semantics.
    out.data = emitted
    _span.tag(gates_out=len(emitted))
    return out


def fusion_summary(
    circuit: QuantumCircuit, max_fused_qubits: int = DEFAULT_MAX_FUSED_QUBITS
) -> Dict[str, int]:
    """Instruction counts before/after fusion (for reports and benchmarks)."""
    fused = fuse_gates(circuit, max_fused_qubits)
    return {
        "before": circuit.size(),
        "after": fused.size(),
        "fused_away": circuit.size() - fused.size(),
        "depth_before": circuit.depth(),
        "depth_after": fused.depth(),
    }
