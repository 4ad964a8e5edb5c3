"""Grover search and the Qutes substring-search primitive.

The Qutes ``in`` operator on a ``qustring`` is implemented as a Grover search
over candidate alignment positions: the oracle marks every index at which the
pattern occurs in the text, and amplitude amplification boosts those indices.
This module provides the generic building blocks (phase oracle over a set of
marked basis states, the diffusion operator, the assembled Grover circuit)
and the substring-search driver used by the language runtime and benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from ..qsim.backends import Backend, resolve_backend
from ..qsim.circuit import QuantumCircuit
from ..qsim.exceptions import CircuitError, SimulationError
from ..qsim.registers import QuantumRegister

__all__ = [
    "GroverResult",
    "build_phase_oracle",
    "build_diffusion",
    "grover_circuit",
    "optimal_iterations",
    "grover_search",
    "substring_match_positions",
    "grover_substring_search",
]


@dataclass
class GroverResult:
    """Outcome of a Grover run.

    Attributes:
        found: whether the most frequent outcome is a marked value.
        value: the most frequently measured basis value.
        iterations: number of Grover iterations applied.
        oracle_queries: oracle invocations (equals ``iterations``).
        success_probability: empirical frequency of marked outcomes.
        counts: full outcome histogram keyed by integer value.
    """

    found: bool
    value: int
    iterations: int
    oracle_queries: int
    success_probability: float
    counts: dict


def build_phase_oracle(num_qubits: int, marked_values: Iterable[int]) -> QuantumCircuit:
    """Phase oracle flipping the sign of every basis state in *marked_values*.

    Each marked value is implemented by conjugating a multi-controlled Z with
    X gates on the zero-bits of the value, which is exactly how the Qutes
    compiler lowers its search oracles.
    """
    marked = sorted(set(marked_values))
    if not marked:
        raise CircuitError("oracle needs at least one marked value")
    reg = QuantumRegister(num_qubits, "q")
    oracle = QuantumCircuit(reg, name="oracle")
    for value in marked:
        if not 0 <= value < 2**num_qubits:
            raise CircuitError(f"marked value {value} does not fit in {num_qubits} qubits")
        zero_bits = [i for i in range(num_qubits) if not (value >> i) & 1]
        for bit in zero_bits:
            oracle.x(reg[bit])
        if num_qubits == 1:
            oracle.z(reg[0])
        else:
            oracle.mcz(list(reg)[:-1], reg[num_qubits - 1])
        for bit in zero_bits:
            oracle.x(reg[bit])
    return oracle


def build_diffusion(num_qubits: int) -> QuantumCircuit:
    """The Grover diffusion (inversion about the mean) operator."""
    reg = QuantumRegister(num_qubits, "q")
    diffusion = QuantumCircuit(reg, name="diffusion")
    for qubit in reg:
        diffusion.h(qubit)
        diffusion.x(qubit)
    if num_qubits == 1:
        diffusion.z(reg[0])
    else:
        diffusion.mcz(list(reg)[:-1], reg[num_qubits - 1])
    for qubit in reg:
        diffusion.x(qubit)
        diffusion.h(qubit)
    return diffusion


def optimal_iterations(num_qubits: int, num_marked: int) -> int:
    """The iteration count maximising success probability (at least 1)."""
    if num_marked <= 0:
        raise CircuitError("need at least one marked value")
    total = 2**num_qubits
    if num_marked >= total:
        return 1
    angle = math.asin(math.sqrt(num_marked / total))
    return max(1, int(math.floor(math.pi / (4 * angle))))


def grover_circuit(
    num_qubits: int,
    marked_values: Iterable[int],
    iterations: Optional[int] = None,
    measure: bool = True,
) -> QuantumCircuit:
    """Assemble the full Grover circuit for the given marked values."""
    marked = sorted(set(marked_values))
    if iterations is None:
        iterations = optimal_iterations(num_qubits, len(marked))
    reg = QuantumRegister(num_qubits, "q")
    qc = QuantumCircuit(reg, name="grover")
    for qubit in reg:
        qc.h(qubit)
    oracle = build_phase_oracle(num_qubits, marked)
    diffusion = build_diffusion(num_qubits)
    for _ in range(iterations):
        qc.compose(oracle, qubits=list(range(num_qubits)))
        qc.compose(diffusion, qubits=list(range(num_qubits)))
    if measure:
        qc.measure_all()
    return qc


def grover_search(
    marked_values: Iterable[int],
    num_qubits: int,
    shots: int = 1024,
    iterations: Optional[int] = None,
    backend: Optional[Backend] = None,
) -> GroverResult:
    """Run Grover search for *marked_values* and summarise the outcome.

    Execution goes through the unified backend API: pass ``backend=`` (a
    :class:`~repro.qsim.backends.Backend` or registry name) to pick an
    engine.
    """
    marked = sorted(set(marked_values))
    backend = resolve_backend(backend, default_seed=1234)
    if iterations is None:
        iterations = optimal_iterations(num_qubits, len(marked))
    circuit = grover_circuit(num_qubits, marked, iterations=iterations)
    result = backend.run(circuit, shots=shots).result()
    counts = result[0].int_counts()
    best = max(counts.items(), key=lambda kv: kv[1])[0]
    marked_shots = sum(count for value, count in counts.items() if value in marked)
    return GroverResult(
        found=best in marked,
        value=best,
        iterations=iterations,
        oracle_queries=iterations,
        success_probability=marked_shots / shots,
        counts=counts,
    )


# ---------------------------------------------------------------------------
# Substring search (the Qutes ``in`` operator)
# ---------------------------------------------------------------------------

def substring_match_positions(text: str, pattern: str) -> List[int]:
    """Classical reference: all alignment positions where *pattern* occurs."""
    if not pattern or len(pattern) > len(text):
        return []
    return [i for i in range(len(text) - len(pattern) + 1) for _ in [0]
            if text[i : i + len(pattern)] == pattern]


def grover_substring_search(
    text: str,
    pattern: str,
    shots: int = 1024,
    backend: Optional[Backend] = None,
) -> GroverResult:
    """Search *pattern* inside the bitstring *text* with Grover over positions.

    The index register has ``ceil(log2(len(text) - len(pattern) + 1))`` qubits
    (minimum one); the oracle marks every alignment position where the
    pattern matches.  When the pattern does not occur the oracle degenerates
    to the identity and the run reports ``found=False``.
    """
    if any(ch not in "01" for ch in text) or any(ch not in "01" for ch in pattern):
        raise CircuitError("substring search operates on bitstrings")
    if not pattern:
        raise CircuitError("pattern must not be empty")
    positions = substring_match_positions(text, pattern)
    num_positions = max(1, len(text) - len(pattern) + 1)
    num_qubits = max(1, math.ceil(math.log2(num_positions)))

    if not positions:
        # Nothing to mark: report a uniform sample so callers can distinguish
        # "no match" (success probability ~ 1/num_positions at best) from a
        # genuine Grover hit.
        return GroverResult(
            found=False,
            value=-1,
            iterations=0,
            oracle_queries=0,
            success_probability=0.0,
            counts={},
        )
    result = grover_search(positions, num_qubits, shots=shots, backend=backend)
    result.found = result.found and result.value in positions
    return result
