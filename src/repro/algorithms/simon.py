"""Simon's algorithm.

Given oracle access to a 2-to-1 function with hidden XOR period ``s``
(``f(x) = f(y)  iff  y = x ^ s``), the period is found with O(n) quantum
queries versus exponentially many classically.  Each quantum query yields a
random bitstring orthogonal to ``s`` (mod 2); classical Gaussian elimination
over GF(2) then recovers ``s``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..qsim.backends import Backend, resolve_backend
from ..qsim.circuit import QuantumCircuit
from ..qsim.exceptions import CircuitError
from ..qsim.registers import ClassicalRegister, QuantumRegister

__all__ = ["SimonResult", "build_simon_oracle", "simon_circuit", "run_simon", "solve_gf2"]


@dataclass
class SimonResult:
    """Outcome of a Simon's-algorithm run."""

    secret: int
    recovered: Optional[int]
    success: bool
    quantum_queries: int
    equations: List[int]


def build_simon_oracle(num_inputs: int, secret: int) -> QuantumCircuit:
    """A standard Simon oracle ``|x>|0> -> |x>|f(x)>`` with period *secret*.

    ``f(x) = min(x, x ^ s)`` copied into the output register: CNOT-copy the
    input, then, controlled on the lowest set bit of ``s`` in ``x``, XOR the
    output with ``s`` so that ``x`` and ``x ^ s`` collide.
    """
    if not 0 < secret < 2**num_inputs:
        raise CircuitError("Simon's secret must be non-zero and fit the register")
    inputs = QuantumRegister(num_inputs, "x")
    outputs = QuantumRegister(num_inputs, "f")
    oracle = QuantumCircuit(inputs, outputs, name="simon_oracle")
    for bit in range(num_inputs):
        oracle.cx(inputs[bit], outputs[bit])
    pivot = (secret & -secret).bit_length() - 1  # lowest set bit of s
    for bit in range(num_inputs):
        if (secret >> bit) & 1:
            oracle.cx(inputs[pivot], outputs[bit])
    return oracle


def simon_circuit(num_inputs: int, secret: int) -> QuantumCircuit:
    """One Simon iteration: superpose, query the oracle, interfere, measure."""
    inputs = QuantumRegister(num_inputs, "x")
    outputs = QuantumRegister(num_inputs, "f")
    creg = ClassicalRegister(num_inputs, "m")
    qc = QuantumCircuit(inputs, outputs, creg, name="simon")
    for qubit in inputs:
        qc.h(qubit)
    qc.compose(build_simon_oracle(num_inputs, secret), qubits=list(range(2 * num_inputs)))
    for qubit in inputs:
        qc.h(qubit)
    qc.measure(list(inputs), list(creg))
    return qc


def solve_gf2(equations: List[int], num_bits: int) -> Optional[int]:
    """Solve ``y . s = 0 (mod 2)`` for a non-zero *s* given the measured *equations*.

    Returns ``None`` when the equations do not pin down a unique non-zero
    solution yet.
    """
    rows = [eq for eq in equations if eq]
    # Gaussian elimination over GF(2)
    basis: List[int] = []
    for row in rows:
        cur = row
        for b in basis:
            cur = min(cur, cur ^ b)
        if cur:
            basis.append(cur)
            basis.sort(reverse=True)
    if len(basis) < num_bits - 1:
        return None
    # find the non-zero vector orthogonal to every basis row
    for candidate in range(1, 2**num_bits):
        if all(bin(candidate & row).count("1") % 2 == 0 for row in basis):
            return candidate
    return None


def run_simon(
    num_inputs: int,
    secret: int,
    max_queries: Optional[int] = None,
    backend: Optional[Backend] = None,
    batch_size: int = 1,
) -> SimonResult:
    """Run Simon's algorithm until the secret is determined (or queries run out).

    Queries go through the unified backend API.  With ``batch_size > 1``
    each round submits that many oracle circuits as one batch, trading a
    few potentially redundant queries for fewer submissions.  The default
    (``batch_size=1``) preserves the classic one-query-at-a-time loop.
    """
    backend = resolve_backend(backend, default_seed=33)
    if max_queries is None:
        max_queries = 10 * num_inputs
    if batch_size < 1:
        raise CircuitError("batch_size must be at least 1")
    circuit = simon_circuit(num_inputs, secret)
    equations: List[int] = []
    queries = 0
    recovered: Optional[int] = None
    while queries < max_queries:
        batch = min(batch_size, max_queries - queries)
        result = backend.run([circuit] * batch, shots=1).result()
        for experiment in result:
            value = int(experiment.most_frequent(), 2)
            queries += 1
            if value:
                equations.append(value)
            recovered = solve_gf2(equations, num_inputs)
            if recovered is not None:
                break
        if recovered is not None:
            break
    return SimonResult(
        secret=secret,
        recovered=recovered,
        success=recovered == secret,
        quantum_queries=queries,
        equations=equations,
    )
