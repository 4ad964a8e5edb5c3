"""The Deutsch--Jozsa algorithm.

Given oracle access to a function ``f : {0,1}^n -> {0,1}`` promised to be
either constant or balanced, a single quantum query distinguishes the two
cases, versus ``2^(n-1) + 1`` queries for a deterministic classical
algorithm.  This module provides oracle builders (constant, inner-product
balanced, and a generic truth-table oracle), the algorithm circuit, and a
driver returning the classification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..qsim.circuit import QuantumCircuit
from ..qsim.exceptions import CircuitError
from ..qsim.registers import QuantumRegister

__all__ = [
    "DeutschJozsaResult",
    "build_constant_oracle",
    "build_balanced_oracle",
    "build_oracle_from_function",
    "deutsch_jozsa_circuit",
    "run_deutsch_jozsa",
    "classical_query_count",
]


@dataclass
class DeutschJozsaResult:
    """Outcome of a Deutsch--Jozsa run."""

    is_constant: bool
    measured_value: int
    quantum_queries: int
    classical_queries: int


def build_constant_oracle(num_inputs: int, output: int = 0) -> QuantumCircuit:
    """Oracle for the constant function ``f(x) = output``."""
    if output not in (0, 1):
        raise CircuitError("constant oracle output must be 0 or 1")
    reg = QuantumRegister(num_inputs, "x")
    out = QuantumRegister(1, "y")
    oracle = QuantumCircuit(reg, out, name="const_oracle")
    if output:
        oracle.x(out[0])
    return oracle


def build_balanced_oracle(num_inputs: int, mask: Optional[int] = None) -> QuantumCircuit:
    """Oracle for the balanced function ``f(x) = parity(x & mask)``.

    *mask* must be non-zero; it defaults to all ones.
    """
    if mask is None:
        mask = (1 << num_inputs) - 1
    if not 0 < mask < 2**num_inputs:
        raise CircuitError("balanced oracle mask must be a non-zero n-bit value")
    reg = QuantumRegister(num_inputs, "x")
    out = QuantumRegister(1, "y")
    oracle = QuantumCircuit(reg, out, name="balanced_oracle")
    for bit in range(num_inputs):
        if (mask >> bit) & 1:
            oracle.cx(reg[bit], out[0])
    return oracle


def build_oracle_from_function(num_inputs: int, func: Callable[[int], int]) -> QuantumCircuit:
    """Truth-table oracle ``|x>|y> -> |x>|y ^ f(x)>`` for an arbitrary *func*.

    Each input with ``f(x) = 1`` contributes one multi-controlled X
    conjugated by X gates on the zero bits of ``x``.
    """
    reg = QuantumRegister(num_inputs, "x")
    out = QuantumRegister(1, "y")
    oracle = QuantumCircuit(reg, out, name="tt_oracle")
    for value in range(2**num_inputs):
        image = func(value)
        if image not in (0, 1):
            raise CircuitError("oracle function must return 0 or 1")
        if not image:
            continue
        zero_bits = [i for i in range(num_inputs) if not (value >> i) & 1]
        for bit in zero_bits:
            oracle.x(reg[bit])
        oracle.mcx(list(reg), out[0])
        for bit in zero_bits:
            oracle.x(reg[bit])
    return oracle


def deutsch_jozsa_circuit(oracle: QuantumCircuit) -> QuantumCircuit:
    """Assemble the Deutsch--Jozsa circuit around *oracle*.

    The oracle must act on ``n`` input qubits plus one output qubit (the
    output qubit is the last one).
    """
    num_qubits = oracle.num_qubits
    if num_qubits < 2:
        raise CircuitError("oracle needs at least one input and one output qubit")
    num_inputs = num_qubits - 1
    inputs = QuantumRegister(num_inputs, "x")
    output = QuantumRegister(1, "y")
    qc = QuantumCircuit(inputs, output, name="deutsch_jozsa")
    # |x> in uniform superposition, |y> in |->
    qc.x(output[0])
    for qubit in inputs:
        qc.h(qubit)
    qc.h(output[0])
    qc.compose(oracle, qubits=list(range(num_qubits)))
    for qubit in inputs:
        qc.h(qubit)
    creg_qubits = list(inputs)
    from ..qsim.registers import ClassicalRegister  # local import keeps module deps minimal

    creg = ClassicalRegister(num_inputs, "m")
    qc.add_register(creg)
    qc.measure(creg_qubits, list(creg))
    return qc


def classical_query_count(num_inputs: int) -> int:
    """Worst-case deterministic classical query count: ``2^(n-1) + 1``."""
    return 2 ** (num_inputs - 1) + 1


def run_deutsch_jozsa(
    oracle: QuantumCircuit,
    shots: int = 256,
    backend=None,
) -> DeutschJozsaResult:
    """Run the algorithm and classify the oracle's function.

    Execution goes through the unified backend API (``backend=`` accepts a
    :class:`~repro.qsim.backends.Backend` or registry name).
    """
    from ..qsim.backends import resolve_backend

    backend = resolve_backend(backend, default_seed=7)
    circuit = deutsch_jozsa_circuit(oracle)
    result = backend.run(circuit, shots=shots).result()
    value = int(result[0].most_frequent(), 2)
    num_inputs = oracle.num_qubits - 1
    return DeutschJozsaResult(
        is_constant=(value == 0),
        measured_value=value,
        quantum_queries=1,
        classical_queries=classical_query_count(num_inputs),
    )
