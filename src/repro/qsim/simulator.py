"""Statevector execution engine.

:class:`StatevectorSimulator` plays the role Qiskit Aer plays for the
original Qutes implementation: it takes a :class:`~repro.qsim.circuit.QuantumCircuit`
and produces measurement counts and/or the final statevector.

Execution strategy
------------------
* Without a noise model, resets or classical conditions, and with every
  measurement *final* (no gate touches a measured qubit after its
  measurement), the circuit is evolved once and outcomes are sampled from
  the resulting distribution -- the fast path used by almost every Qutes
  program.
* Every other run -- Pauli noise, mid-circuit measurement, ``reset``,
  ``if`` -- evolves all shots at once on the batched trajectory executor
  in :mod:`repro.qsim.shotbatch`, with genuine per-shot collapse.

Both paths apply gates through the one step-kernel set of
:mod:`repro.qsim.kernels` (a single state is a one-row view of the batched
executor's kernels), and -- unless a noise model follows every gate --
circuits go through :func:`prepare`, the one gate-fusion policy, so runs of
small gates cost a single pass over the state.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .circuit import QuantumCircuit
from .exceptions import SimulationError
from .fusion import fuse_gates
from .instruction import Barrier, Measure, Reset
from .noise import NoiseModel
from .result import ExperimentResult
from .statevector import Statevector

__all__ = [
    "StatevectorSimulator",
    "SIMULATOR_MAX_FUSED_QUBITS",
    "prepare",
    "measurements_are_final",
    "compile_condition",
    "condition_met",
    "check_evolvable",
    "check_allocation",
    "fits_budget",
    "DEFAULT_MEMORY_BUDGET_BYTES",
    "sample_values",
    "sample_rows",
    "tally",
]

#: fusion budget used by the simulator; one notch above the fusion pass's
#: conservative default of 3 because, at execution scale, fewer passes over
#: the statevector outweigh the cost of building 16x16 block unitaries (see
#: benchmarks/bench_kernels.py for the measurement behind this choice)
SIMULATOR_MAX_FUSED_QUBITS = 4

#: the most memory one engine state may take: a session refuses to allocate
#: past it, and the analyzer's state-memory checks (QA402/QA403) default to
#: it; 4 GiB admits a 28-qubit statevector or a 14-qubit density matrix
DEFAULT_MEMORY_BUDGET_BYTES = 4 * 1024**3

#: below this many qubits a pass over the statevector is so cheap that the
#: fusion pass costs more than it saves, so the simulator skips it
_MIN_FUSION_QUBITS = 10


def prepare(circuit: QuantumCircuit) -> QuantumCircuit:
    """*circuit* ready for noiseless statevector execution: the one gate-fusion
    policy, applied by the engine to every noiseless run and by the service
    cache before it keeps a compiled circuit.

    Fuses with :data:`SIMULATOR_MAX_FUSED_QUBITS` and returns *circuit*
    itself when it has fewer than ``_MIN_FUSION_QUBITS`` qubits or fewer
    than two instructions, or already holds a fused block (it was prepared,
    or fused by its author), so preparing twice never fuses twice.
    """
    if (
        circuit.num_qubits < _MIN_FUSION_QUBITS
        or len(circuit.data) < 2
        or any(getattr(instr.operation, "is_fused_block", False) for instr in circuit.data)
    ):
        return circuit
    return fuse_gates(circuit, SIMULATOR_MAX_FUSED_QUBITS)


def measurements_are_final(circuit: QuantumCircuit) -> bool:
    """Whether no instruction touches a measured qubit after its measurement.

    Circuits with only-final measurements can be evolved once and sampled,
    instead of simulated shot by shot.  A second measurement of a measured
    qubit is not final (it must read the collapsed qubit).  Any
    classically-conditioned instruction also returns ``False`` -- the
    condition reads the classical register mid-circuit, so every shot must
    be simulated with genuine collapse to know which branch it takes.
    """
    measured: set = set()
    for instr in circuit.data:
        if instr.condition is not None:
            return False
        if isinstance(instr.operation, Barrier):
            continue
        if any(q in measured for q in instr.qubits):
            return False
        if isinstance(instr.operation, Measure):
            measured.add(instr.qubits[0])
    return True


def compile_condition(
    circuit: QuantumCircuit, condition: Optional[tuple]
) -> Optional[Tuple[Tuple[int, ...], int]]:
    """An instruction ``condition`` as ``(clbit indices, value)``, or ``None``."""
    if condition is None:
        return None
    creg, value = condition
    return tuple(circuit.clbit_index(clbit) for clbit in creg), value


def condition_met(condition: Optional[Tuple[Tuple[int, ...], int]], bits: Sequence[int]) -> bool:
    """Evaluate a :func:`compile_condition` result against one shot's clbit
    values *bits* (a list or a uint8 row).

    The register value is assembled little-endian over the condition's
    clbits; a clbit never written reads 0, matching hardware where the
    classical register starts zeroed.  A ``None`` condition is trivially met.
    """
    if condition is None:
        return True
    clbits, value = condition
    register_value = 0
    for position, clbit in enumerate(clbits):
        register_value |= int(bits[clbit]) << position
    return register_value == value


def check_evolvable(
    circuit: QuantumCircuit, noise_model: Optional[NoiseModel], collapse: bool = False
) -> None:
    """Refuse what one ``evolve()`` pass cannot follow: a noise model, which
    only ``run()`` samples, and -- unless measurements *collapse* -- a
    classical condition, which reads measurement outcomes."""
    if noise_model is not None:
        raise SimulationError(
            "evolve() is noiseless: run() samples the noise model attached to this engine"
        )
    if not collapse and any(instr.condition is not None for instr in circuit.data):
        raise SimulationError(
            "cannot evolve a classically-conditioned circuit: its conditions read "
            "measurement outcomes, which only run() samples"
        )


def fits_budget(entries: int) -> bool:
    """Whether *entries* complex amplitudes fit :data:`DEFAULT_MEMORY_BUDGET_BYTES`."""
    return 16 * entries <= DEFAULT_MEMORY_BUDGET_BYTES


def check_allocation(engine: str, num_qubits: int, entries: int) -> None:
    """Refuse a state of *entries* complex amplitudes that would exceed
    :data:`DEFAULT_MEMORY_BUDGET_BYTES`, before any memory is requested."""
    if not fits_budget(entries):
        needed = 16 * entries
        raise SimulationError(
            f"a {num_qubits}-qubit {engine} needs {needed} bytes, over the memory "
            f"budget of {DEFAULT_MEMORY_BUDGET_BYTES} bytes"
        )


def tally(
    circuit: QuantumCircuit, values: np.ndarray, memory: bool, metadata: Dict[str, Any]
) -> ExperimentResult:
    """The result of *circuit* from a ``(shots, clbits)`` 0/1 uint8
    matrix: counts, and per-shot *memory* when asked for.  A circuit that
    measures nothing has no counts (and empty *memory*).

    Each row's MSB-first ``'0'``/``'1'`` bytes are viewed as one
    fixed-width string, so ``np.unique`` sorts the keys in ascending
    register value.  The one place every engine builds its counts and
    memory.
    """
    if not circuit.has_measurements():
        return ExperimentResult(
            name=circuit.name,
            counts={},
            shots=values.shape[0],
            memory=[] if memory else None,
            metadata=metadata,
        )
    chars = np.ascontiguousarray(values[:, ::-1]) + ord("0")
    keys = chars.view(f"S{chars.shape[1]}").ravel()
    unique, freq = np.unique(keys, return_counts=True)
    counts = {key.decode(): int(count) for key, count in zip(unique, freq)}
    shot_values = [key.decode() for key in keys] if memory else None
    return ExperimentResult(
        name=circuit.name,
        counts=counts,
        shots=values.shape[0],
        memory=shot_values,
        metadata=metadata,
    )


def sample_values(probs: np.ndarray, shots: int, rng: np.random.Generator) -> Dict[int, int]:
    """Hits per value of one multinomial over *probs* (renormalised): the
    engines' one sampling routine."""
    hits = rng.multinomial(shots, probs / probs.sum())
    return {value: int(hits[value]) for value in np.flatnonzero(hits).tolist()}


def sample_rows(
    probs: np.ndarray,
    shots: int,
    final: Sequence[Tuple[int, int]],
    bits: Sequence[int],
    rng: np.random.Generator,
) -> np.ndarray:
    """One :func:`sample_values` draw over the joint *probs* of the *final*
    ``(qubit, clbit)`` measurements as a ``(shots, clbits)`` uint8 matrix
    for :func:`tally`: each drawn value's row repeated by its hits, in
    ascending value; other clbits as in *bits*, and a clbit measured twice
    reads its later measurement."""
    draws = sample_values(probs, shots, rng)
    outcomes = np.fromiter(draws, dtype=np.int64, count=len(draws))
    rows = np.empty((len(draws), len(bits)), dtype=np.uint8)
    rows[:] = bits
    for position, (_, clbit) in enumerate(final):
        rows[:, clbit] = (outcomes >> position) & 1
    return np.repeat(rows, list(draws.values()), axis=0)


class StatevectorSimulator:
    """Exact dense simulator; *noise_model* (a Pauli
    :class:`~repro.qsim.noise.NoiseModel`) is sampled per shot by
    :meth:`run`.  Noiseless runs go through :func:`prepare` (gate fusion);
    a noise model follows every individual gate, so noisy runs never fuse.
    """

    def __init__(self, seed: Optional[int] = None, noise_model: Optional[NoiseModel] = None):
        self._rng = np.random.default_rng(seed)
        self.noise_model = noise_model

    # -- public API -------------------------------------------------------------

    def run(
        self, circuit: QuantumCircuit, shots: int = 1024, memory: bool = False
    ) -> ExperimentResult:
        """Execute *circuit* for *shots* shots and return its :class:`ExperimentResult`.

        The engine entry point: one final state is evolved and sampled when
        the circuit allows it (no noise, no reset, only final measurements),
        every other run goes to the batched trajectory executor
        (:func:`repro.qsim.shotbatch.run_batched`).
        """
        from .shotbatch import run_batched  # shotbatch builds on this module

        if shots <= 0:
            raise SimulationError("shots must be positive")
        noiseless = self.noise_model is None
        prepared = prepare(circuit) if noiseless else circuit
        if (
            noiseless
            and measurements_are_final(prepared)
            and not any(isinstance(instr.operation, Reset) for instr in prepared.data)
        ):
            return self._run_sampled(circuit.name, prepared, shots, memory)
        result = run_batched(prepared, self.noise_model, shots, self._rng, memory)
        result.name = circuit.name
        return result

    def evolve(
        self, circuit: QuantumCircuit, initial_state: Optional[Statevector] = None
    ) -> Statevector:
        """Return the statevector after running *circuit* once, noiselessly.

        Measurements are skipped; a reset collapses with the engine's RNG.  A
        noise model or a classical condition raises (see
        :func:`check_evolvable`).
        """
        check_evolvable(circuit, self.noise_model)
        circuit = prepare(circuit)
        if initial_state is not None and initial_state.num_qubits != circuit.num_qubits:
            raise SimulationError("initial state size does not match circuit")
        session = self.session(initial_state)
        if initial_state is None:
            session.allocate(circuit.num_qubits)
        for instr in circuit.data:
            if not isinstance(instr.operation, Measure):
                session.apply(instr.operation, [circuit.qubit_index(q) for q in instr.qubits])
        return session.state

    def session(self, state: Optional[Statevector] = None):
        """A :class:`~repro.qsim.shotbatch.StatevectorSession` on this
        engine's RNG and noise model, holding a copy of *state* (default: no
        qubits): one live trajectory, built up instruction by instruction."""
        from .shotbatch import StatevectorSession

        return StatevectorSession(self._rng, self.noise_model, state)

    # -- internals ----------------------------------------------------------------

    def _run_sampled(
        self, name: str, circuit: QuantumCircuit, shots: int, memory: bool
    ) -> ExperimentResult:
        session = self.session()
        session.allocate(circuit.num_qubits)
        measure_map: List[Tuple[int, int]] = []  # (qubit index, clbit index)
        for instr in circuit.data:
            op = instr.operation
            if isinstance(op, Measure):
                measure_map.append(
                    (circuit.qubit_index(instr.qubits[0]), circuit.clbit_index(instr.clbits[0]))
                )
                continue
            session.apply(op, [circuit.qubit_index(q) for q in instr.qubits])

        values = np.zeros((shots, circuit.num_clbits), dtype=np.uint8)
        if measure_map:
            probs = session.probabilities([q for q, _ in measure_map])
            values = sample_rows(probs, shots, measure_map, values[0], self._rng)
            if memory:
                self._rng.shuffle(values)
        result = tally(circuit, values, memory, {"method": "sampled"})
        result.name = name
        return result
