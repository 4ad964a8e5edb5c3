"""Density-matrix simulation and exact noise channels.

The statevector and stabilizer engines sample the errors of a
:class:`~repro.qsim.noise.NoiseModel`; this module runs its Kraus channel
exactly: a :class:`DensityMatrix` representation evolved under unitaries
and Kraus channels, plus a :class:`DensityMatrixSimulator` able to run the
same :class:`~repro.qsim.circuit.QuantumCircuit` objects as the statevector
engine.  It is the substrate for the noise-robustness ablations and for
verifying the sampling engines against the exact channel.

``rho`` is stored as a ``2^n x 2^n`` matrix whose flattening is a
``2n``-qubit vector with row qubit ``t`` at bit ``t + n``, so the gate
kernels of :mod:`repro.qsim.kernels` act on it directly; a Kraus channel is
one superoperator ``sum_k K (x) K*`` on the row and column bits together.

While every instruction so far is monomial (see
:func:`repro.qsim.kernels.basis_table`), ``rho`` stays diagonal, and the
simulator carries only its diagonal, a length-``2^n`` probability vector
(:class:`_Populations`): a gate permutes it, a channel acts on a qubit's
axis as the stochastic matrix ``sum_k |K_k|^2`` (elementwise), and
measurement, projection and reset are slice sums and moves.  The first
non-monomial instruction expands it to ``diag(p)``.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Set

import numpy as np

from . import kernels
from .circuit import CircuitInstruction, QuantumCircuit
from .exceptions import SimulationError
from .instruction import (
    Barrier,
    ControlledGate,
    Initialize,
    Instruction,
    Measure,
    Reset,
    UnitaryGate,
)
from .noise import NoiseModel, check_unfused
from .result import ExperimentResult
from .simulator import (
    check_allocation,
    compile_condition,
    condition_met,
    fits_budget,
    sample_rows,
    sample_values,
    tally,
)
from .statevector import Statevector

__all__ = ["DensityMatrix", "DensityMatrixSimulator", "DensityMatrixSession"]


def _conjugate(gate):
    """The elementwise conjugate of *gate*'s matrix, as a gate where *gate*
    is a :class:`ControlledGate` (its controls stay controls) and as a
    matrix otherwise."""
    if isinstance(gate, ControlledGate):
        base = UnitaryGate.unchecked(np.conj(gate.base_gate.to_matrix()))
        return ControlledGate(base, gate.num_controls)
    return np.conj(gate.to_matrix() if isinstance(gate, Instruction) else gate)


def _superoperator(kraus_operators: Iterable[np.ndarray]) -> np.ndarray:
    """``sum_k K (x) K*``: the channel on (row qubits, column qubits)."""
    return sum(np.kron(kraus, kraus.conj()) for kraus in kraus_operators)


# ---------------------------------------------------------------------------
# Density matrix
# ---------------------------------------------------------------------------

class DensityMatrix:
    """An ``n``-qubit mixed state stored as a dense ``2^n x 2^n`` matrix."""

    def __init__(self, data: np.ndarray, validate: bool = True):
        # own a C-ordered buffer: evolution writes into it in place
        matrix = np.array(data, dtype=complex, order="C")
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise SimulationError("density matrix must be square")
        n = int(round(math.log2(matrix.shape[0])))
        if 2**n != matrix.shape[0]:
            raise SimulationError("density matrix dimension must be a power of two")
        if validate:
            trace = np.trace(matrix)
            if abs(trace) < 1e-12:
                raise SimulationError("density matrix has zero trace")
            matrix = matrix / trace
            if not np.allclose(matrix, matrix.conj().T, atol=1e-8):
                raise SimulationError("density matrix must be Hermitian")
        self.data = matrix
        self.num_qubits = n

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero_state(cls, num_qubits: int) -> "DensityMatrix":
        matrix = np.zeros((2**num_qubits, 2**num_qubits), dtype=complex)
        matrix[0, 0] = 1.0
        return cls(matrix, validate=False)

    @classmethod
    def from_statevector(cls, state: Statevector) -> "DensityMatrix":
        return cls(np.outer(state.data, state.data.conj()), validate=False)

    def copy(self) -> "DensityMatrix":
        return DensityMatrix(self.data, validate=False)

    # -- evolution ---------------------------------------------------------------

    def _sandwich(self, targets: Sequence[int], gate) -> None:
        """``rho <- U rho U^dagger``: *gate* (an instruction or a matrix) as
        ``U`` on the row bits of the flattened ``2n``-qubit vector, then as
        ``conj(U)`` on its column bits, in place and for any ``rho``.  A wide
        :class:`ControlledGate` keeps its controls on both halves, so its
        matrix is never built."""
        n = self.num_qubits
        self.data = np.ascontiguousarray(self.data)
        flat = self.data.reshape(1, -1)
        kernels.apply_step(flat, kernels.lower(gate, [t + n for t in targets]))
        kernels.apply_step(flat, kernels.lower(_conjugate(gate), targets))

    def _apply_channel(self, superoperator: np.ndarray, targets: Sequence[int]) -> None:
        # a superoperator is not unitary and runs on dense_apply's matrix
        # product: the engine's noisy seed streams rest on its arithmetic
        n = self.num_qubits
        self.data = np.ascontiguousarray(self.data)
        qubits = [t + n for t in targets] + list(targets)
        flat = kernels.dense_apply(self.data.reshape(-1), 2 * n, superoperator, qubits)
        self.data = flat.reshape(self.data.shape)

    def _check_operator(self, matrix: np.ndarray, targets: Sequence[int]) -> np.ndarray:
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (2 ** len(targets),) * 2:
            raise SimulationError("operator shape does not match target count")
        return matrix

    def apply_unitary(self, matrix: np.ndarray, targets: Sequence[int]) -> None:
        """Apply a unitary to *targets*: ``rho <- U rho U^dagger``."""
        self._sandwich(list(targets), self._check_operator(matrix, targets))

    def apply_kraus(self, kraus_operators: Iterable[np.ndarray], targets: Sequence[int]) -> None:
        """Apply a quantum channel given by its Kraus operators to *targets*."""
        operators = [self._check_operator(kraus, targets) for kraus in kraus_operators]
        self._apply_channel(_superoperator(operators), targets)

    def initialize_qubits(self, amplitudes: np.ndarray, targets: Sequence[int]) -> None:
        """Set *targets* (currently all |0>) to the pure state *amplitudes*,
        little-endian over *targets* as in :meth:`Statevector.initialize_qubits`.

        ``rho`` flattened is a ``2n``-qubit vector: the row bits take the
        amplitudes and the column bits their conjugates, each through the
        statevector routine (which also checks the precondition).
        """
        n = self.num_qubits
        scale = np.linalg.norm(self.data)
        vector = Statevector(self.data.reshape(-1))  # a normalised copy
        vector.initialize_qubits(amplitudes, [t + n for t in targets])
        vector.initialize_qubits(np.conj(amplitudes), targets)
        self.data = (vector.data * scale).reshape(self.data.shape)

    def reset_qubit(self, qubit: int) -> None:
        """The exact reset channel ``P0 rho P0 + X P1 rho P1 X`` on *qubit*."""
        blocks = self._qubit_blocks(qubit)
        blocks[:, 0, :, :, 0] += blocks[:, 1, :, :, 1]
        blocks[:, 1] = 0.0
        blocks[:, 0, :, :, 1] = 0.0

    # -- measurement ----------------------------------------------------------------

    def _qubit_blocks(self, qubit: int) -> np.ndarray:
        """A view of ``rho`` as ``(high, row bit, low, high, column bit, low)``."""
        self.data = np.ascontiguousarray(self.data)
        high, low = 2 ** (self.num_qubits - 1 - qubit), 2**qubit
        return self.data.reshape(high, 2, low, high, 2, low)

    def probabilities(self, targets: Optional[Sequence[int]] = None) -> np.ndarray:
        """Marginal Z-basis outcome probabilities for *targets* (little-endian)."""
        return _marginal(np.real(np.diagonal(self.data)), self.num_qubits, targets)

    def project(self, targets: Sequence[int], outcome: int) -> None:
        """Project *targets* onto the little-endian *outcome* and renormalise."""
        for position, qubit in enumerate(targets):
            drop = 1 - ((outcome >> position) & 1)
            blocks = self._qubit_blocks(qubit)
            blocks[:, drop] = 0.0
            blocks[:, :, :, :, drop] = 0.0
        trace = np.real(np.trace(self.data))
        if trace < 1e-15:
            raise SimulationError("measurement projected onto a zero-probability outcome")
        self.data /= trace

    # -- analysis --------------------------------------------------------------------

    def purity(self) -> float:
        """``Tr(rho^2)``: 1.0 for pure states, ``1/2^n`` for maximally mixed."""
        return float(np.real(np.trace(self.data @ self.data)))

    def __repr__(self) -> str:
        return f"DensityMatrix(num_qubits={self.num_qubits}, purity={self.purity():.4f})"


# ---------------------------------------------------------------------------
# Populations: a diagonal rho while the circuit is monomial
# ---------------------------------------------------------------------------

def _marginal(diag: np.ndarray, num_qubits: int, targets: Optional[Sequence[int]]) -> np.ndarray:
    """Normalised marginal of the real diagonal *diag* on *targets*
    (little-endian), negative rounding residue clipped to zero."""
    targets = range(num_qubits) if targets is None else list(targets)
    probs = kernels.marginal(diag.clip(min=0.0), num_qubits, targets)
    total = probs.sum()
    return probs / total if total > 0 else probs


def _zero_state(num_qubits: int, prefix: int):
    """``|0...0>``: as populations when a *prefix* of instructions will run
    on them, else straight away as a :class:`DensityMatrix` (refused, sized,
    when it would not fit the memory budget)."""
    if not prefix:
        check_allocation("density matrix", num_qubits, 1 << (2 * num_qubits))
        return DensityMatrix.zero_state(num_qubits)
    probs = np.zeros(2**num_qubits)
    probs[0] = 1.0
    return _Populations(probs, num_qubits)


class _Populations:
    """A diagonal ``rho`` stored as its diagonal: the probability of every
    basis state.  It answers the walk's queries as :class:`DensityMatrix`
    does and expands into one with :meth:`density`."""

    def __init__(self, probs: np.ndarray, num_qubits: int):
        self.probs = probs
        self.num_qubits = num_qubits

    def copy(self) -> "_Populations":
        return _Populations(self.probs.copy(), self.num_qubits)

    def density(self) -> DensityMatrix:
        check_allocation("density matrix", self.num_qubits, 1 << (2 * self.num_qubits))
        return DensityMatrix(np.diag(self.probs.astype(complex)), validate=False)

    def _halves(self, qubit: int) -> np.ndarray:
        return self.probs.reshape(-1, 2, 1 << qubit)

    def probabilities(self, targets: Optional[Sequence[int]] = None) -> np.ndarray:
        return _marginal(self.probs, self.num_qubits, targets)

    def project(self, targets: Sequence[int], outcome: int) -> None:
        for position, qubit in enumerate(targets):
            self._halves(qubit)[:, 1 - ((outcome >> position) & 1)] = 0.0
        trace = self.probs.sum()
        if trace < 1e-15:
            raise SimulationError("measurement projected onto a zero-probability outcome")
        self.probs /= trace

    def reset_qubit(self, qubit: int) -> None:
        halves = self._halves(qubit)
        halves[:, 0] += halves[:, 1]
        halves[:, 1] = 0.0

    def permute(self, source: np.ndarray) -> None:
        """Apply a monomial gate: basis state ``i`` takes the probability of
        ``source[i]``."""
        self.probs = self.probs[source]

    def apply_stochastic(self, matrix: np.ndarray, qubit: int) -> None:
        """Apply a monomial channel's ``sum_k |K_k|^2`` to *qubit*."""
        halves = self._halves(qubit)
        p0, p1 = halves[:, 0].copy(), halves[:, 1].copy()
        halves[:, 0] = matrix[0, 0] * p0 + matrix[0, 1] * p1
        halves[:, 1] = matrix[1, 0] * p0 + matrix[1, 1] * p1


# ---------------------------------------------------------------------------
# Simulator
# ---------------------------------------------------------------------------

def deferred_measurements(circuit: QuantumCircuit) -> Set[int]:
    """Positions of the measurements that may be sampled after the circuit ends:
    no later instruction touches their qubit, writes their clbit or carries a
    condition (and they carry none)."""
    deferred, touched, written, conditioned = set(), set(), set(), False
    for position in range(len(circuit.data) - 1, -1, -1):
        instr = circuit.data[position]
        conditioned = conditioned or instr.condition is not None
        if isinstance(instr.operation, Measure):
            if not (conditioned or instr.qubits[0] in touched or instr.clbits[0] in written):
                deferred.add(position)
            written.update(instr.clbits)
        if not isinstance(instr.operation, Barrier):
            touched.update(instr.qubits)
    return deferred


class DensityMatrixSimulator:
    """Runs :class:`QuantumCircuit` objects on a density matrix.

    *noise_model* (a :class:`~repro.qsim.noise.NoiseModel`) is applied
    exactly: its single-qubit Kraus channel acts independently on every
    qubit each unitary instruction touched -- not a correlated multi-qubit
    channel -- so any channel runs here, Pauli or not.
    """

    def __init__(self, seed: Optional[int] = None, noise_model: Optional[NoiseModel] = None):
        self._rng = np.random.default_rng(seed)
        self.noise_model = noise_model
        kraus = () if noise_model is None else noise_model.kraus
        self._channel = _superoperator(kraus) if kraus else None
        #: the channel's action on populations, or None when there is no
        #: channel or a Kraus operator is not monomial
        self._stochastic = (
            sum(np.abs(k) ** 2 for k in kraus)
            if kraus and all(kernels.basis_table(k) is not None for k in kraus)
            else None
        )

    def evolve(self, circuit: QuantumCircuit, initial: Optional[DensityMatrix] = None) -> DensityMatrix:
        """Return the density matrix after running *circuit* (measurements collapse)."""
        check_unfused(circuit, self.noise_model)
        if initial is None:
            prefix, sources = self._lower(circuit)
            start = _zero_state(circuit.num_qubits, prefix)
        elif initial.num_qubits != circuit.num_qubits:
            raise SimulationError("initial state size does not match circuit")
        else:
            start, prefix, sources = initial.copy(), 0, []
        ((_, _, state),) = self._walk(circuit, 1, self._rng, set(), start, prefix, sources)
        return state.density() if isinstance(state, _Populations) else state

    def session(self) -> "DensityMatrixSession":
        """A :class:`DensityMatrixSession` on this engine's RNG and noise model."""
        return DensityMatrixSession(self)

    def run(
        self, circuit: QuantumCircuit, shots: int = 1024, memory: bool = False
    ) -> ExperimentResult:
        """Execute *circuit* for *shots* shots and return its :class:`ExperimentResult`.

        One walk over shot-weighted branches (:meth:`_walk`), each leaf
        sampling its deferred measurements with one multinomial: a
        final-measurement circuit is one branch and one draw.  ``metadata``
        reads ``method`` ``sampled`` or ``branched`` (plus ``branches``), and
        ``classical_prefix``: how many instructions ran on populations.
        A one-branch run attaches its final ``rho`` as ``density_matrix``,
        except a leaf still on populations whose ``4^n`` matrix would not
        fit the memory budget: it returns its counts alone.
        """
        if shots <= 0:
            raise SimulationError("shots must be positive")
        check_unfused(circuit, self.noise_model)
        rng = self._rng
        deferred = deferred_measurements(circuit)
        final = [
            (circuit.qubit_index(i.qubits[0]), circuit.clbit_index(i.clbits[0]))
            for i in (circuit.data[p] for p in sorted(deferred))
        ]
        leaves: List[np.ndarray] = []  # each leaf's shots as clbit rows
        branches = 0
        prefix, sources = self._lower(circuit)
        start = _zero_state(circuit.num_qubits, prefix)
        for bits, count, state in self._walk(circuit, shots, rng, deferred, start, prefix, sources):
            branches += 1
            if final:
                probs = state.probabilities([qubit for qubit, _ in final])
                leaves.append(sample_rows(probs, count, final, bits, rng))
            else:
                leaves.append(np.repeat(np.array([bits], dtype=np.uint8), count, axis=0))
        values = np.concatenate(leaves)
        if memory and circuit.has_measurements():
            rng.shuffle(values)
        metadata: Dict[str, object] = {"method": "sampled"}
        if len(final) < sum(isinstance(i.operation, Measure) for i in circuit.data):
            metadata = {"method": "branched", "branches": branches}
        metadata["classical_prefix"] = prefix
        result = tally(circuit, values, memory, metadata)
        if branches == 1:
            if not isinstance(state, _Populations):
                result.density_matrix = state
            elif fits_budget(1 << (2 * state.num_qubits)):  # else counts only
                result.density_matrix = state.density()
        return result

    # -- internals ---------------------------------------------------------------

    def _lower(self, circuit: QuantumCircuit):
        """``(prefix, sources)``: how many leading instructions keep ``rho``
        diagonal under this simulator's noise, and for each of them the
        population permutation of a gate (``None`` when there is nothing to
        move: a diagonal gate, or no gate)."""
        n = circuit.num_qubits
        sources: List[Optional[np.ndarray]] = []
        for instr in circuit.data:
            op = instr.operation
            if isinstance(op, (Barrier, Measure, Reset)):
                sources.append(None)
                continue
            table = kernels.gate_basis_table(op)
            if table is None or (self._channel is not None and self._stochastic is None):
                break
            targets = [circuit.qubit_index(q) for q in instr.qubits]
            _, mask, moves, _ = kernels.basis_lookup(table, targets)
            if moves is None:
                sources.append(None)
                continue
            index = np.arange(1 << n)
            source = np.empty_like(index)
            source[(index & ~mask) | moves[kernels.target_value(index, targets)]] = index
            sources.append(source)
        return len(sources), sources

    def _walk(self, circuit, shots, rng, deferred, state, prefix, sources):
        """Yield ``(clbit values, shot count, rho)`` per leaf, depth first: a
        measurement not in *deferred* splits a branch's shots by a binomial
        draw into projected children; a condition applies where it holds.
        Each branch owns its clbit values, a list over every clbit.

        A branch on :class:`_Populations` runs the first *prefix*
        instructions with the population *sources* of :meth:`_lower`, and
        expands to a :class:`DensityMatrix` after them (a leaf of a monomial
        circuit stays populations)."""
        conditions = [compile_condition(circuit, instr.condition) for instr in circuit.data]
        stack = [(0, [0] * circuit.num_clbits, shots, state)]
        while stack:
            start, bits, count, state = stack.pop()
            for position in range(start, len(circuit.data)):
                if position == prefix and isinstance(state, _Populations):
                    state = state.density()
                instr = circuit.data[position]
                if position in deferred or not condition_met(conditions[position], bits):
                    continue
                if not isinstance(instr.operation, Measure):
                    if isinstance(state, _Populations):
                        self._apply_populations(state, circuit, instr, sources[position])
                    else:
                        targets = [circuit.qubit_index(q) for q in instr.qubits]
                        state = self._apply(state, instr.operation, targets)
                    continue
                qubit = circuit.qubit_index(instr.qubits[0])
                clbit = circuit.clbit_index(instr.clbits[0])
                ones = int(rng.binomial(count, min(1.0, state.probabilities([qubit])[1])))
                outcome = int(ones == count)
                if 0 < ones < count:
                    child, child_bits = state.copy(), bits.copy()
                    child.project([qubit], 1)
                    child_bits[clbit] = 1
                    stack.append((position + 1, child_bits, ones, child))
                    count -= ones
                state.project([qubit], outcome)
                bits[clbit] = outcome
            yield bits, count, state

    def _apply_populations(
        self,
        state: _Populations,
        circuit: QuantumCircuit,
        instr: CircuitInstruction,
        source: Optional[np.ndarray],
    ) -> None:
        """:meth:`_apply` for a monomial instruction on populations."""
        op = instr.operation
        targets = [circuit.qubit_index(q) for q in instr.qubits]
        if isinstance(op, Reset):
            state.reset_qubit(targets[0])
            return
        if isinstance(op, Barrier):
            return
        if source is not None:
            state.permute(source)
        if self._stochastic is not None:
            for qubit in targets:
                state.apply_stochastic(self._stochastic, qubit)

    def _apply(self, state: DensityMatrix, op, targets: Sequence[int]) -> DensityMatrix:
        """Apply one non-measurement instruction, returning the evolved state."""
        if isinstance(op, Barrier):
            return state
        if isinstance(op, Reset):
            state.reset_qubit(targets[0])
            return state
        if isinstance(op, Initialize):
            state.initialize_qubits(op.statevector, targets)
            return state
        if not op.is_unitary:
            raise SimulationError(f"cannot simulate instruction {op.name!r}")
        state._sandwich(targets, op)
        if self._channel is not None:
            for qubit in targets:
                state._apply_channel(self._channel, [qubit])
        return state


class DensityMatrixSession:
    """One live ``rho``, built up one instruction at a time under the
    engine's noise model, applied exactly: the Qutes runtime's register on
    the density-matrix engine.

    ``allocate(k)`` appends *k* qubits in ``|0>`` (refusing a ``rho`` over
    the memory budget); ``apply`` runs one instruction as
    :meth:`DensityMatrixSimulator.run` does; ``measure`` draws each qubit's
    outcome from its exact marginal and projects; ``sample`` draws counts
    from the exact marginals without projecting.
    """

    def __init__(self, engine: DensityMatrixSimulator):
        self.rng = engine._rng
        self._engine = engine
        self.state = DensityMatrix.zero_state(0)

    def allocate(self, num_qubits: int) -> None:
        old = self.state.data
        size = old.shape[0] << num_qubits
        check_allocation("density matrix", self.state.num_qubits + num_qubits, size * size)
        data = np.zeros((size, size), dtype=complex)
        data[: old.shape[0], : old.shape[0]] = old
        self.state = DensityMatrix(data, validate=False)

    def apply(self, instruction, qubits: Sequence[int]) -> None:
        self.state = self._engine._apply(self.state, instruction, list(qubits))

    def measure(self, qubits: Sequence[int]) -> int:
        outcome = 0
        for position, qubit in enumerate(qubits):
            bit = int(self.rng.binomial(1, min(1.0, self.state.probabilities([qubit])[1])))
            self.state.project([qubit], bit)
            outcome |= bit << position
        return outcome

    def sample(self, qubits: Sequence[int], shots: int) -> Dict[int, int]:
        return sample_values(self.state.probabilities(qubits), shots, self.rng)
