"""Peephole circuit optimisation passes.

The original stack delegates optimisation to Qiskit's transpiler; this module
provides the subset that matters for the circuits the Qutes front-end emits:

* :func:`cancel_adjacent_inverses` -- removes pairs of adjacent self-inverse
  gates (X·X, H·H, CX·CX, ...) and adjacent inverse pairs (S·Sdg, T·Tdg),
* :func:`merge_rotations` -- fuses consecutive rotations about the same axis
  on the same qubit (RZ(a)·RZ(b) -> RZ(a+b)) and drops the result when the
  total angle is a multiple of 2*pi,
* :func:`remove_identities` -- drops explicit ``id`` gates and zero-angle
  rotations,
* :func:`optimize` -- runs the passes to a fixed point.

All passes preserve the circuit's unitary action exactly (they never touch
measurements, resets, barriers or ``initialize``).
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Tuple

from .circuit import CircuitInstruction, QuantumCircuit
from .instruction import Barrier, Gate, Initialize, Measure, Reset

__all__ = [
    "cancel_adjacent_inverses",
    "merge_rotations",
    "remove_identities",
    "optimize",
    "optimization_summary",
]

#: gates that are their own inverse
_SELF_INVERSE = {"id", "x", "y", "z", "h", "cx", "cy", "cz", "ch", "swap", "ccx", "cswap"}

#: pairs of gates that cancel when adjacent on the same qubits (either order)
_INVERSE_PAIRS = {("s", "sdg"), ("sdg", "s"), ("t", "tdg"), ("tdg", "t")}

#: rotation gates that merge by angle addition, with their period
_ROTATIONS = {"rx": 4 * math.pi, "ry": 4 * math.pi, "rz": 4 * math.pi, "p": 2 * math.pi}

_ANGLE_ATOL = 1e-12


def _rebuild(circuit: QuantumCircuit, data: List[CircuitInstruction], suffix: str) -> QuantumCircuit:
    out = QuantumCircuit(name=f"{circuit.name}{suffix}")
    for reg in circuit.qregs:
        out.add_register(reg)
    for reg in circuit.cregs:
        out.add_register(reg)
    for instr in data:
        out.append(
            instr.operation.copy(), instr.qubits, instr.clbits,
            span=instr.span, condition=instr.condition,
        )
    return out


def _is_blocker(instr: CircuitInstruction) -> bool:
    # conditioned instructions only run on some shots, so nothing may be
    # cancelled or merged across (or with) them
    if instr.condition is not None:
        return True
    return isinstance(instr.operation, (Measure, Reset, Barrier, Initialize))


def _same_operands(a: CircuitInstruction, b: CircuitInstruction) -> bool:
    return a.qubits == b.qubits and a.clbits == b.clbits


def cancel_adjacent_inverses(circuit: QuantumCircuit) -> QuantumCircuit:
    """Remove adjacent gate pairs whose product is the identity."""
    data = list(circuit.data)
    changed = True
    while changed:
        changed = False
        result: List[CircuitInstruction] = []
        index = 0
        while index < len(data):
            current = data[index]
            partner = None if _is_blocker(current) else _find_adjacent_partner(data, index)
            if partner is not None:
                nxt = data[partner]
                names = (current.operation.name, nxt.operation.name)
                cancels = (
                    current.operation.name in _SELF_INVERSE and names[0] == names[1]
                ) or names in _INVERSE_PAIRS
                if cancels and _same_operands(current, nxt):
                    del data[partner]
                    del data[index]
                    changed = True
                    continue
            result.append(current)
            index += 1
        data = result if not changed else data
    return _rebuild(circuit, data, "_cancelled")


def _find_adjacent_partner(data: List[CircuitInstruction], index: int) -> Optional[int]:
    """Index of the next instruction touching the same qubits with nothing
    acting on any of them in between; ``None`` if a blocker intervenes."""
    current = data[index]
    touched = set(current.qubits)
    for j in range(index + 1, len(data)):
        candidate = data[j]
        overlap = touched.intersection(candidate.qubits)
        if not overlap:
            continue
        if _is_blocker(candidate):
            return None
        if set(candidate.qubits) == touched:
            return j
        return None
    return None


def merge_rotations(circuit: QuantumCircuit) -> QuantumCircuit:
    """Fuse consecutive same-axis rotations on the same qubit."""
    data = list(circuit.data)
    result: List[CircuitInstruction] = []
    for instr in data:
        name = instr.operation.name
        if name in _ROTATIONS and result and instr.condition is None:
            partner_index = _mergeable_rotation(result, instr)
            if partner_index is not None:
                prev = result[partner_index]
                total = prev.operation.params[0] + instr.operation.params[0]
                period = _ROTATIONS[name]
                total = math.remainder(total, period)
                if abs(total) < _ANGLE_ATOL:
                    del result[partner_index]
                else:
                    result[partner_index] = CircuitInstruction(
                        Gate(name, 1, [total]), prev.qubits, prev.clbits
                    )
                continue
        result.append(instr)
    return _rebuild(circuit, result, "_merged")


def _mergeable_rotation(result: List[CircuitInstruction], instr: CircuitInstruction) -> Optional[int]:
    target = instr.qubits[0]
    for j in range(len(result) - 1, -1, -1):
        candidate = result[j]
        if target not in candidate.qubits:
            continue
        if (
            candidate.condition is None
            and candidate.operation.name == instr.operation.name
            and candidate.qubits == instr.qubits
        ):
            return j
        return None
    return None


def remove_identities(circuit: QuantumCircuit) -> QuantumCircuit:
    """Drop explicit identity gates and (near-)zero-angle rotations."""
    kept: List[CircuitInstruction] = []
    for instr in circuit.data:
        name = instr.operation.name
        if instr.condition is None:
            if name == "id":
                continue
            if name in _ROTATIONS and abs(math.remainder(instr.operation.params[0], _ROTATIONS[name])) < _ANGLE_ATOL:
                continue
        kept.append(instr)
    return _rebuild(circuit, kept, "_noid")


def optimize(circuit: QuantumCircuit, max_rounds: int = 10) -> QuantumCircuit:
    """Run all passes repeatedly until the circuit stops shrinking."""
    current = circuit
    for _ in range(max_rounds):
        before = len(current.data)
        current = remove_identities(current)
        current = merge_rotations(current)
        current = cancel_adjacent_inverses(current)
        if len(current.data) == before:
            break
    current.name = f"{circuit.name}_opt"
    return current


def optimization_summary(circuit: QuantumCircuit) -> dict:
    """Gate counts before/after optimisation (for reports and benchmarks)."""
    optimized = optimize(circuit)
    return {
        "before": circuit.size(),
        "after": optimized.size(),
        "removed": circuit.size() - optimized.size(),
        "depth_before": circuit.depth(),
        "depth_after": optimized.depth(),
    }
