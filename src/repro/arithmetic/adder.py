"""Quantum adders.

Two families are provided, both operating on little-endian registers:

* the Cuccaro (CDKM) ripple-carry adder -- Toffoli/CNOT based, one ancilla,
  depth O(n); this is the default used by the Qutes ``+`` operator on
  ``quint`` values;
* the Draper adder -- performs the addition in the Fourier basis with
  controlled-phase gates, no ancilla;
* a constant adder -- adds a classically known integer in the Fourier basis,
  used by the ``TypeCastingHandler`` when mixing classical and quantum
  operands.

All in-place adders compute ``b <- (a + b) mod 2**len(b)`` and leave ``a``
unchanged; the two Fourier adders also subtract (``sign=-1``), and are what
the Qutes ``+``/``-`` operators emit.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from ..qsim.circuit import QuantumCircuit
from ..qsim.exceptions import CircuitError
from ..qsim.registers import QuantumRegister
from .qft import build_iqft, build_qft

__all__ = [
    "build_ripple_carry_adder",
    "build_draper_adder",
    "build_constant_adder",
    "ripple_carry_adder_circuit",
    "draper_adder_circuit",
]


def _maj(circuit: QuantumCircuit, c, b, a) -> None:
    circuit.cx(a, b)
    circuit.cx(a, c)
    circuit.ccx(c, b, a)


def _uma(circuit: QuantumCircuit, c, b, a) -> None:
    circuit.ccx(c, b, a)
    circuit.cx(a, c)
    circuit.cx(c, b)


def build_ripple_carry_adder(
    circuit: QuantumCircuit,
    a_qubits: Sequence,
    b_qubits: Sequence,
    carry_qubit,
    cout_qubit=None,
) -> QuantumCircuit:
    """Append a Cuccaro adder computing ``b <- a + b`` onto *circuit*.

    ``carry_qubit`` must be an ancilla in |0> (it is returned to |0>).  When
    *cout_qubit* is given it receives the final carry, turning the adder into
    a full ``len(b)+1``-bit addition.
    """
    a_qubits = list(a_qubits)
    b_qubits = list(b_qubits)
    if len(a_qubits) != len(b_qubits):
        raise CircuitError("ripple-carry adder requires equally sized registers")
    n = len(a_qubits)
    if n == 0:
        raise CircuitError("cannot add empty registers")

    _maj(circuit, carry_qubit, b_qubits[0], a_qubits[0])
    for i in range(1, n):
        _maj(circuit, a_qubits[i - 1], b_qubits[i], a_qubits[i])
    if cout_qubit is not None:
        circuit.cx(a_qubits[n - 1], cout_qubit)
    for i in reversed(range(1, n)):
        _uma(circuit, a_qubits[i - 1], b_qubits[i], a_qubits[i])
    _uma(circuit, carry_qubit, b_qubits[0], a_qubits[0])
    return circuit


def build_draper_adder(
    circuit: QuantumCircuit,
    a_qubits: Sequence,
    b_qubits: Sequence,
    sign: int = 1,
) -> QuantumCircuit:
    """Append a Draper (QFT) adder computing ``b <- b + sign * a`` onto *circuit*.

    *a* may be narrower than *b*; ``sign=-1`` subtracts.
    """
    a_qubits = list(a_qubits)
    b_qubits = list(b_qubits)
    if len(a_qubits) > len(b_qubits):
        raise CircuitError("Draper adder requires a source register no wider than the target")
    n = len(b_qubits)
    build_qft(circuit, b_qubits, do_swaps=False)
    # In the no-swap QFT the phase accumulated on b_qubits[j] encodes the
    # bits j..n-1; adding a shifts that phase by the matching powers of two.
    for j in range(n):
        for k in range(min(j + 1, len(a_qubits))):
            angle = sign * math.pi / (2 ** (j - k))
            circuit.cp(angle, a_qubits[k], b_qubits[j])
    build_iqft(circuit, b_qubits, do_swaps=False)
    return circuit


def build_constant_adder(
    circuit: QuantumCircuit,
    value: int,
    target_qubits: Sequence,
    sign: int = 1,
) -> QuantumCircuit:
    """Append ``target <- target + sign * value (mod 2^n)`` for a classical *value*."""
    target_qubits = list(target_qubits)
    n = len(target_qubits)
    if n == 0:
        raise CircuitError("cannot add into an empty register")
    value %= 2**n
    build_qft(circuit, target_qubits, do_swaps=False)
    for j in range(n):
        angle = 0.0
        for k in range(j + 1):
            if (value >> k) & 1:
                angle += math.pi / (2 ** (j - k))
        if angle:
            circuit.p(sign * angle, target_qubits[j])
    build_iqft(circuit, target_qubits, do_swaps=False)
    return circuit


def ripple_carry_adder_circuit(num_bits: int, with_carry_out: bool = False) -> QuantumCircuit:
    """Standalone Cuccaro adder circuit.

    Registers, in order: ``a`` (*num_bits*), ``b`` (*num_bits*), ``anc`` (1
    carry-in ancilla) and optionally ``cout`` (1 qubit).
    """
    a = QuantumRegister(num_bits, "a")
    b = QuantumRegister(num_bits, "b")
    anc = QuantumRegister(1, "anc")
    regs = [a, b, anc]
    cout = None
    if with_carry_out:
        cout = QuantumRegister(1, "cout")
        regs.append(cout)
    qc = QuantumCircuit(*regs, name=f"cuccaro_add_{num_bits}")
    build_ripple_carry_adder(qc, list(a), list(b), anc[0], cout[0] if cout else None)
    return qc


def draper_adder_circuit(num_bits: int) -> QuantumCircuit:
    """Standalone Draper adder circuit with registers ``a`` and ``b``."""
    a = QuantumRegister(num_bits, "a")
    b = QuantumRegister(num_bits, "b")
    qc = QuantumCircuit(a, b, name=f"draper_add_{num_bits}")
    build_draper_adder(qc, list(a), list(b))
    return qc
