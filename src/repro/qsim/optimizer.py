"""Peephole circuit optimisation.

The original stack delegates optimisation to Qiskit's transpiler; this module
provides the subset that matters for the circuits the Qutes front-end emits,
as one linear pass (:func:`optimize`):

* explicit ``id`` gates and rotations whose angle is a multiple of their
  period are dropped,
* adjacent self-inverse pairs (X·X, H·H, CX·CX, ...) and inverse pairs
  (S·Sdg, T·Tdg) on the same operands cancel,
* consecutive rotations about the same axis on the same qubit merge by
  angle addition (RZ(a)·RZ(b) -> RZ(a+b)) and vanish when the total angle
  is a multiple of the period.

Measurements, resets, barriers, ``initialize`` and every classically
conditioned instruction are blockers: they are never removed, merged or
cancelled, and no gate moves across them.  The pass preserves the
circuit's unitary action exactly.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from .circuit import CircuitInstruction, QuantumCircuit
from .instruction import Gate
from .registers import Qubit

__all__ = ["optimize", "optimization_summary"]

#: gates that are their own inverse
_SELF_INVERSE = {"x", "y", "z", "h", "cx", "cy", "cz", "ch", "swap", "ccx", "cswap"}

#: pairs of gates that cancel when adjacent on the same qubits (either order)
_INVERSE_PAIRS = {("s", "sdg"), ("sdg", "s"), ("t", "tdg"), ("tdg", "t")}

#: rotation gates that merge by angle addition, with their period
_ROTATIONS = {"rx": 4 * math.pi, "ry": 4 * math.pi, "rz": 4 * math.pi, "p": 2 * math.pi}

_ANGLE_ATOL = 1e-12


def _is_null_angle(angle: float, period: float) -> bool:
    return abs(math.remainder(angle, period)) < _ANGLE_ATOL


def optimize(circuit: QuantumCircuit) -> QuantumCircuit:
    """Return *circuit* peephole-optimised in one pass over its instructions.

    Each qubit keeps a stack of the live kept instructions that touch it.
    An instruction whose qubits all have the same kept instruction ``P`` on
    top meets ``P``: an inverse pair on the same operands pops ``P``, a
    same-axis rotation on the same qubit merges into ``P``'s slot (popped
    if the merged angle is null), and a blocker on either side keeps both.
    Anything else is kept and pushed.
    """
    slots: List[Optional[CircuitInstruction]] = []
    stacks: Dict[Qubit, List[int]] = {}
    for instr in circuit.data:
        operation = instr.operation
        name = operation.name
        period = _ROTATIONS.get(name)
        qubits = instr.qubits
        if instr.condition is None and qubits:
            if name == "id" or (period is not None and _is_null_angle(operation.params[0], period)):
                continue
            stack = stacks.get(qubits[0])
            met = stack[-1] if stack else None
            partner = None if met is None else slots[met]
            if (
                partner is not None
                and partner.condition is None
                and partner.qubits == qubits
                and all(stacks[q][-1] == met for q in qubits)
            ):
                # measure, reset, barrier and initialize never pair: their
                # names are in none of the tables
                previous = partner.operation.name
                if (
                    (name == previous and name in _SELF_INVERSE)
                    or (previous, name) in _INVERSE_PAIRS
                ):
                    _pop(slots, stacks, met)
                    continue
                if period is not None and name == previous:
                    angle = partner.operation.params[0] + operation.params[0]
                    # a sum past the float range has no remainder: both gates stay
                    if math.isfinite(angle):
                        total = math.remainder(angle, period)
                        if _is_null_angle(total, period):
                            _pop(slots, stacks, met)
                        else:
                            slots[met] = CircuitInstruction(Gate(name, 1, [total]), qubits)
                        continue
        position = len(slots)
        slots.append(instr)
        for qubit in qubits:
            stacks.setdefault(qubit, []).append(position)

    out = QuantumCircuit(name=f"{circuit.name}_opt")
    for register in circuit.qregs:
        out.add_register(register)
    for register in circuit.cregs:
        out.add_register(register)
    # the kept instructions are already bound to this register set; adopt
    # them without re-validating (as fusion does), each in a fresh wrapper so
    # a later c_if on the output never reaches the input
    out.data = [
        CircuitInstruction(i.operation, i.qubits, i.clbits, span=i.span, condition=i.condition)
        for i in slots
        if i is not None
    ]
    return out


def _pop(
    slots: List[Optional[CircuitInstruction]], stacks: Dict[Qubit, List[int]], position: int
) -> None:
    """Drop the kept instruction at *position*, the top of each of its qubits' stacks."""
    for qubit in slots[position].qubits:
        stacks[qubit].pop()
    slots[position] = None


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
