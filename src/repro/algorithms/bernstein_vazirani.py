"""The Bernstein--Vazirani algorithm.

Given oracle access to ``f(x) = s . x  (mod 2)`` the hidden bitstring ``s``
is recovered with a single quantum query (versus ``n`` classical queries).
Part of the "standard library of essential quantum functions" the paper lists
as a language goal; it also doubles as another exercise of the phase-kickback
machinery shared with Deutsch--Jozsa.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..qsim.circuit import QuantumCircuit
from ..qsim.exceptions import CircuitError
from ..qsim.registers import ClassicalRegister, QuantumRegister

__all__ = ["BernsteinVaziraniResult", "build_bv_oracle", "bernstein_vazirani_circuit", "run_bernstein_vazirani"]


@dataclass
class BernsteinVaziraniResult:
    """Outcome of a Bernstein--Vazirani run."""

    secret: int
    recovered: int
    success: bool
    quantum_queries: int
    classical_queries: int


def build_bv_oracle(num_inputs: int, secret: int) -> QuantumCircuit:
    """Oracle ``|x>|y> -> |x>|y ^ (s.x mod 2)>`` for the hidden string *secret*."""
    if not 0 <= secret < 2**num_inputs:
        raise CircuitError(f"secret {secret} does not fit in {num_inputs} bits")
    inputs = QuantumRegister(num_inputs, "x")
    output = QuantumRegister(1, "y")
    oracle = QuantumCircuit(inputs, output, name="bv_oracle")
    for bit in range(num_inputs):
        if (secret >> bit) & 1:
            oracle.cx(inputs[bit], output[0])
    return oracle


def bernstein_vazirani_circuit(num_inputs: int, secret: int) -> QuantumCircuit:
    """The complete Bernstein--Vazirani circuit for *secret*."""
    inputs = QuantumRegister(num_inputs, "x")
    output = QuantumRegister(1, "y")
    creg = ClassicalRegister(num_inputs, "m")
    qc = QuantumCircuit(inputs, output, creg, name="bernstein_vazirani")
    qc.x(output[0])
    qc.h(output[0])
    for qubit in inputs:
        qc.h(qubit)
    qc.compose(build_bv_oracle(num_inputs, secret), qubits=list(range(num_inputs + 1)))
    for qubit in inputs:
        qc.h(qubit)
    qc.measure(list(inputs), list(creg))
    return qc


def run_bernstein_vazirani(
    num_inputs: int,
    secret: int,
    shots: int = 128,
    backend=None,
) -> BernsteinVaziraniResult:
    """Recover *secret* and report the query-count comparison.

    Execution goes through the unified backend API (``backend=`` accepts a
    :class:`~repro.qsim.backends.Backend` or registry name).
    """
    from ..qsim.backends import resolve_backend

    backend = resolve_backend(backend, default_seed=21)
    circuit = bernstein_vazirani_circuit(num_inputs, secret)
    result = backend.run(circuit, shots=shots).result()
    recovered = int(result[0].most_frequent(), 2)
    return BernsteinVaziraniResult(
        secret=secret,
        recovered=recovered,
        success=recovered == secret,
        quantum_queries=1,
        classical_queries=num_inputs,
    )
