"""Quantum minimum / maximum finding (Dürr--Høyer).

The paper lists "native operations for calculating the maximum and minimum of
a set" as a future-work item for the language; this module implements them so
the Qutes builtins ``min_of`` / ``max_of`` can use a quantum routine instead
of a classical scan.

The algorithm is Dürr--Høyer's minimum finding: keep a threshold, repeatedly
run a Grover search whose oracle marks the indices holding values *smaller*
than the threshold, and update the threshold with the measured candidate.
With O(sqrt(N)) oracle iterations in total the minimum is found with high
probability.  As with the substring search, the oracle is constructed from
the classically known list of values (the same substitution documented in
DESIGN.md), so the quantum part searches over *indices*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..qsim.backends import Backend, resolve_backend
from ..qsim.exceptions import CircuitError
from .grover import grover_circuit, optimal_iterations

__all__ = ["MinimumFindingResult", "find_minimum", "find_maximum"]


@dataclass
class MinimumFindingResult:
    """Outcome of a Dürr--Høyer run."""

    value: int
    index: int
    oracle_queries: int
    grover_rounds: int
    success: bool


def find_minimum(
    values: Sequence[int],
    seed: Optional[int] = 97,
    max_rounds: Optional[int] = None,
    backend: Optional[Backend] = None,
) -> MinimumFindingResult:
    """Find the minimum of *values* with the Dürr--Høyer algorithm.

    The Grover rounds execute through the unified backend API; pass
    ``backend=`` (a :class:`~repro.qsim.backends.Backend` or registry name)
    to pick an engine other than the default seeded statevector backend.
    """
    values = list(values)
    if not values:
        raise CircuitError("cannot take the minimum of an empty set")
    n = len(values)
    num_qubits = max(1, math.ceil(math.log2(n)))
    backend = resolve_backend(backend, default_seed=seed)
    rng = np.random.default_rng(seed)

    if max_rounds is None:
        # Dürr-Høyer terminates after O(sqrt(N)) expected oracle calls; the
        # generous constant keeps the failure probability negligible while
        # preserving the O(sqrt(N)) scaling.
        max_rounds = int(math.ceil(4 * math.sqrt(n))) + 4

    threshold_index = int(rng.integers(0, n))
    threshold = values[threshold_index]
    oracle_queries = 0
    rounds = 0

    for _ in range(max_rounds):
        rounds += 1
        marked = [i for i, v in enumerate(values) if v < threshold]
        if not marked:
            break
        iterations = optimal_iterations(num_qubits, len(marked))
        circuit = grover_circuit(num_qubits, marked, iterations=iterations)
        outcome = backend.run(circuit, shots=1).result()[0]
        oracle_queries += iterations
        candidate = int(outcome.most_frequent(), 2)
        if candidate < n and values[candidate] < threshold:
            threshold = values[candidate]
            threshold_index = candidate

    true_minimum = min(values)
    return MinimumFindingResult(
        value=threshold,
        index=threshold_index,
        oracle_queries=oracle_queries,
        grover_rounds=rounds,
        success=threshold == true_minimum,
    )


def find_maximum(
    values: Sequence[int],
    seed: Optional[int] = 97,
    max_rounds: Optional[int] = None,
    backend: Optional[Backend] = None,
) -> MinimumFindingResult:
    """Find the maximum of *values* (minimum finding on the negated list)."""
    values = list(values)
    if not values:
        raise CircuitError("cannot take the maximum of an empty set")
    negated = [-v for v in values]
    result = find_minimum(negated, seed=seed, max_rounds=max_rounds, backend=backend)
    return MinimumFindingResult(
        value=-result.value,
        index=result.index,
        oracle_queries=result.oracle_queries,
        grover_rounds=result.grover_rounds,
        success=-result.value == max(values),
    )
