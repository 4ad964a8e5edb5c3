"""Batched shot execution: all trajectories of a run as one ``(rows, 2^n)`` tensor.

Every statevector run that cannot be answered by sampling one final state --
a noise model, a mid-circuit measurement, a ``reset`` or a classically
conditioned instruction -- runs here, all shots evolving together: one
vectorised kernel per gate for the whole batch, noise injected by
fancy-indexing exactly the shot rows whose pre-drawn uniforms selected an
error.  The circuit is lowered **once** into steps: every gate through
:func:`repro.qsim.kernels.lower`, the gate kernels every dense engine
shares (precomputed slice indices and matrix entries; permutation gates
such as ``x``, ``cx`` and ``swap`` snapshot and write instead of
multiply-accumulate, dense gates of two or more qubits run one product per
row), every noise site into the shot rows it hits.
Feed-forward is row-masked:

* a **measurement** collapses every row against its tracked norm and writes
  the outcome into that row's classical bits;
* a **reset** is a measurement followed by an ``X`` on the rows that read 1;
* a **conditioned** instruction gathers the rows whose register matches,
  runs its steps on them (noise included, so a skipped gate draws no error)
  and scatters them back;
* non-controlled unitaries wider than :data:`~repro.qsim.kernels.MAX_LOWERED_QUBITS`
  and ``initialize`` run row by row.

Before any amplitude exists, the plan's leading *monomial* steps -- gates
with one nonzero per row and column (``x``, ``cx``, ``ccx``, ``s``, ``t``,
...), Pauli errors, measurements, resets and conditions over such steps --
run on **basis rows**: one index and one phase per shot, for the whole run
at once (:class:`_BasisRows`).  A circuit that is monomial end to end never
allocates amplitudes.

Shots share their trajectory until their first error: within a batch, the
plan's next unitary and noise steps (up to the first measurement, reset,
condition or row-by-row step) run on one row per distinct error pattern --
starting from one row per distinct basis row -- a Pauli hit forking a row
only when some of its shots do not draw it, and the rows are then expanded
to one per shot for the rest of the plan.

Determinism and the per-shot/batched contract
---------------------------------------------
Every batch size -- the cache-sized default or ``batch_size=1``, one
trajectory at a time -- gives **bit-identical results for the same seed**
by construction:

* every random number is pre-drawn from one ``Generator`` in circuit order
  (per unitary instruction: one uniform per touched qubit; per measurement
  or reset: one uniform) for every shot *before* evolution starts -- also
  for the shots a condition later skips -- so the stream never depends on
  the batch split;
* gate arithmetic is elementwise in a fixed order, or one BLAS product
  per row whose column count is a multiple of 4, whose columns round the
  same at any such count (see :mod:`repro.qsim.kernels`) -- never one
  product across rows -- so row ``i`` of the batch computes exactly what a
  batch of one would;
* for the same reason a row shared by several shots holds exactly the
  amplitudes each of them would compute alone, Pauli injections are exact
  (slice exchange, sign flip, +-i rotation) on whichever row they hit, and a
  fork is a plain copy: sharing changes how often a state is computed, never
  its value;
* a basis row computes, for its one nonzero amplitude, the very
  floating-point operations an amplitude row would (the same scalar
  multiply per gate, the same exact Pauli arithmetic, the same ``abs2``
  against the same tracked norm at a measurement), so expanding it later
  changes nothing;
* probability reductions go through :func:`row_sums`, which reduces every
  row independently in a fixed order.

Every circuit runs here; only noise can rule a run out: a model without
Pauli terms (:func:`repro.qsim.noise.require_pauli`), or fused blocks under
noise (:func:`repro.qsim.noise.check_unfused`).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import kernels
from .circuit import QuantumCircuit
from .exceptions import SimulationError
from .instruction import Barrier, ControlledGate, Initialize, Measure, Reset
from .noise import NoiseModel, PauliTerms, check_unfused, require_pauli
from .result import ExperimentResult
from .simulator import check_allocation, compile_condition, sample_values, tally
from .statevector import Statevector

__all__ = ["run_batched", "StatevectorSession", "MAX_BATCH_AMPLITUDES"]

#: hard cap on simultaneous amplitudes (batch_rows * 2^n); bounds the working
#: set of a batch plus its scratch to a few hundred MB
MAX_BATCH_AMPLITUDES = 1 << 23

#: what the *default* batch size aims for: batch_rows * 2^n amplitudes that
#: keep a batch plus its scratch buffers inside the L2/L3 cache tier.  The
#: executor is memory-bound; pushing the batch to
#: the memory cap (2^23 amps = 128 MB complex) measures ~4x *slower* than
#: this cache-sized default at 12 qubits (see benchmarks/bench_kernels.py).
_TARGET_BATCH_AMPLITUDES = 1 << 16

#: a collapsed row whose tracked norm falls below this is rescaled by a power
#: of two, long before a run of measurements could underflow it to zero
_RESCALE_BELOW = 2.0**-64


def abs2(a: np.ndarray) -> np.ndarray:
    """``|a|^2`` as a real array."""
    return np.real(a) ** 2 + np.imag(a) ** 2


def row_sums(a: np.ndarray) -> np.ndarray:
    """Per-row sums of a 2-D array, with a batch-size-invariant reduction."""
    # np.add.reduce over the last axis reduces every row independently
    # (pairwise, in index order), so the result for a given row does not
    # depend on how many other rows share the array -- the invariance the
    # batched shot executor's per-shot equivalence rests on
    return np.add.reduce(a, axis=1)


# ---------------------------------------------------------------------------
# Plan construction: circuit -> steps with precomputed indexing
# ---------------------------------------------------------------------------
#
# Step kinds (plain tuples; the executor switches on element 0): the gate
# steps of :func:`repro.qsim.kernels.lower` -- "diag", "diag_full", "perm",
# "dense", "wide" -- plus
#   ("initialize", operation, targets)      one row at a time
#   ("noise",   qubit, [(pauli, rows_for_whole_run), ...])
#   ("measure", qubit, clbit, uniforms)
#   ("reset",   qubit, uniforms)
#   ("cond",    clbits, pattern, steps)     steps run where bits[clbits] == pattern


def _pauli_intervals(terms: PauliTerms) -> List[Tuple[str, float, float]]:
    """``(pauli, lo, hi)`` half-open subintervals of [0, 1) per error term.

    A pre-drawn uniform ``u`` selects the Pauli whose interval contains it
    (identity when none does).
    """
    intervals = []
    edge = 0.0
    for pauli, probability in terms:
        intervals.append((pauli, edge, edge + probability))
        edge += probability
    return intervals


def _build_plan(
    circuit: QuantumCircuit,
    noise_model: Optional[NoiseModel],
    shots: int,
    rng: np.random.Generator,
) -> Tuple[List[tuple], List[int]]:
    """Lower the circuit to executor steps, pre-drawing every random number.

    The draw order is fixed by the circuit alone (one uniform per touched
    qubit per unitary instruction, one per measurement or reset, for every
    shot whether or not a condition later skips it), so the random tables --
    and therefore every downstream outcome -- are independent of how the
    shots are later split into batches.  Noise uniforms are resolved to
    per-Pauli shot-row lists here, once for the whole run.  Also returns,
    per step, the position in ``circuit.data`` of the instruction it came
    from.
    """
    intervals = _pauli_intervals(require_pauli(noise_model)) if noise_model is not None else []
    plan: List[tuple] = []
    origins: List[int] = []
    for position, instr in enumerate(circuit.data):
        op = instr.operation
        if isinstance(op, Barrier):
            continue
        targets = tuple(circuit.qubit_index(q) for q in instr.qubits)
        if isinstance(op, Measure):
            clbit = circuit.clbit_index(instr.clbits[0])
            steps = [("measure", targets[0], clbit, rng.random(shots))]
        elif isinstance(op, Reset):
            steps = [("reset", targets[0], rng.random(shots))]
        elif isinstance(op, Initialize):
            steps = [("initialize", op, targets)]
        elif not op.is_unitary:
            raise SimulationError(f"cannot simulate instruction {op.name!r}")
        else:
            steps = [kernels.lower(op, targets, circuit.num_qubits)]
        if intervals and op.is_unitary:
            for qubit in targets:
                uniforms = rng.random(shots)
                # the intervals tile [0, total error probability): classify
                # only the shots whose uniform falls below it
                errors = np.flatnonzero(uniforms < intervals[-1][2])
                if errors.size:  # a step no shot's uniform selected is a no-op
                    picked = uniforms[errors]
                    hits = [(p, errors[(picked >= lo) & (picked < hi)]) for p, lo, hi in intervals]
                    steps.append(("noise", qubit, [(p, r) for p, r in hits if r.size]))
        if instr.condition is not None:
            clbits, value = compile_condition(circuit, instr.condition)
            pattern = np.array([(value >> bit) & 1 for bit in range(len(clbits))], dtype=np.uint8)
            steps = [("cond", np.array(clbits, dtype=np.intp), pattern, steps)]
        plan.extend(steps)
        origins.extend([position] * len(steps))
    return plan, origins


def _initialize_rows(states, norm, operation, targets) -> None:
    """Run ``initialize`` one row at a time; its precondition (targets in
    ``|0...0>``) is checked on the row scaled to unit norm."""
    for row in range(states.shape[0]):
        state = Statevector(states[row] / math.sqrt(norm[row]), validate=False)
        norm[row] = 1.0
        state.initialize_qubits(operation.statevector, targets)
        states[row] = state.data


def _apply_pauli_rows(states, pauli: str, qubit: int, rows) -> None:
    """Apply a Pauli error to *qubit* on the selected shot *rows* only.

    All three cases are exact bitwise operations on the amplitudes (slice
    exchange, sign flip, +-i rotation), so injecting an error never perturbs
    the untouched rows or loses precision on the touched ones.
    """
    low = 1 << qubit
    view = states.reshape(states.shape[0], -1, 2, low)
    if pauli == "X":
        a0 = view[rows, :, 0, :]  # fancy indexing copies, so the swap is safe
        a1 = view[rows, :, 1, :]
        view[rows, :, 0, :] = a1
        view[rows, :, 1, :] = a0
    elif pauli == "Z":
        view[rows, :, 1, :] *= -1.0
    elif pauli == "Y":
        a0 = view[rows, :, 0, :]
        a1 = view[rows, :, 1, :]
        view[rows, :, 0, :] = a1 * (-1j)
        view[rows, :, 1, :] = a0 * 1j
    else:  # pragma: no cover - pauli_terms() only emits X/Y/Z
        raise SimulationError(f"unknown Pauli {pauli!r}")


def _collapse(p0, uniforms, norm):
    """Draw every row's outcome from its probability of 0, *p0*, against the
    tracked *norm*, which is updated in place to the surviving norm.

    Returns the outcomes plus the rows whose norm fell below
    :data:`_RESCALE_BELOW` and the power of two each must be scaled by
    (their norm is scaled by its square here): exact in floating point, so
    every later ``p0 / norm`` -- and outcome -- is unchanged, minus the
    underflow.  Shared by amplitude and basis rows, so both read the same
    outcome from the same uniform.
    """
    outcome = (uniforms >= p0 / norm).astype(np.int64)
    survived = np.where(outcome == 0, p0, norm - p0)
    if not np.all(survived > 0):
        raise SimulationError("collapse produced a zero-norm state")
    faint = np.flatnonzero(survived < _RESCALE_BELOW)
    scale = None
    if faint.size:
        shift = -(np.frexp(survived[faint])[1] // 2)
        scale = np.ldexp(1.0, shift)
        survived[faint] = np.ldexp(survived[faint], 2 * shift)
    norm[:] = survived
    return outcome, faint, scale


def _measure_batched(states, qubit: int, uniforms, norm):
    """Measure *qubit* on every row, collapse in place, return the outcome
    bits; *norm* is updated in place to the surviving (unnormalised) norm.

    Only the probability of outcome 0 is reduced from the amplitudes (a
    batch-invariant per-row reduction over a contiguous copy of the
    half-slice); the probability of 1 is the tracked *norm* minus it.
    Unitary steps and Pauli injections preserve the norm, and collapse
    zeroes the losing slice without renormalising, so the tracked norm is
    exactly the quantity later measurements must divide by -- while the
    arithmetic stays elementwise and identical for every batch split.
    """
    low = 1 << qubit
    batch = states.shape[0]
    view = states.reshape(batch, -1, 2, low)
    # abs2 materialises a contiguous array from the strided 0-half directly,
    # skipping a separate complex-valued snapshot of the slice
    p0 = row_sums(abs2(view[:, :, 0, :]).reshape(batch, -1))
    outcome, faint, scale = _collapse(p0, uniforms, norm)
    zero_rows = np.flatnonzero(outcome == 0)
    one_rows = np.flatnonzero(outcome)
    if zero_rows.size:
        view[zero_rows, :, 1, :] = 0.0
    if one_rows.size:
        view[one_rows, :, 0, :] = 0.0
    if faint.size:
        states[faint] *= scale[:, None]
    return outcome


# ---------------------------------------------------------------------------
# Basis rows: a shot as one basis state, while every step is monomial
# ---------------------------------------------------------------------------
#
# A row that holds one phased basis state is fully described by its index
# and its phase.  Every operation below computes, for the row's one nonzero
# amplitude, exactly the floating-point value the amplitude kernels above
# would (the same scalar multiply, the same exact Pauli arithmetic, the same
# ``abs2`` summed with zeros), so a row expanded later holds bit for bit the
# amplitudes it would have reached without this phase.


def _in_basis(step) -> bool:
    """Whether *step* maps basis rows to phased basis rows (a condition
    only when every step it guards does)."""
    kind = step[0]
    if kind == "cond":
        return all(_in_basis(inner) for inner in step[3])
    if kind in ("diag", "perm"):
        return step[-1] is not None  # a control-pinned step has no lookup
    return kind not in ("dense", "product", "wide", "initialize")


class _BasisRows:
    """Shots as phased basis states: ``index`` (int64) and ``phase``
    (complex) per row, plus the tracked ``norm`` of :func:`_collapse`."""

    def __init__(self, index, phase, norm):
        self.index, self.phase, self.norm = index, phase, norm

    def apply(self, step) -> None:
        if step[0] == "diag_full":
            self._scale(step[1][self.index])
            return
        targets, mask, moves, factor = step[-1]
        if moves is None and factor is None:  # an identity
            return
        value = kernels.target_value(self.index, targets)
        if factor is not None:
            self._scale(factor[value])
        if moves is not None:
            self.index &= ~mask
            self.index |= moves[value]

    def _scale(self, factors) -> None:
        rows = factors != 1
        self.phase[rows] *= factors[rows]

    def pauli(self, pauli: str, qubit: int, rows) -> None:
        index = self.index[rows]
        if pauli != "X":
            ones = (index >> qubit) & 1 == 1
            phase = self.phase[rows]
            if pauli == "Z":
                phase[ones] *= -1.0
            else:  # Y: |0> -> i|1>, |1> -> -i|0>
                phase[ones] = phase[ones] * (-1j)
                phase[~ones] = phase[~ones] * 1j
            self.phase[rows] = phase
        if pauli != "Z":
            self.index[rows] = index ^ (1 << qubit)

    def measure(self, qubit: int, uniforms):
        bit = (self.index >> qubit) & 1
        p0 = np.where(bit == 0, abs2(self.phase), 0.0)
        outcome, faint, scale = _collapse(p0, uniforms, self.norm)
        # a row that reads against its basis bit collapses to all zeros
        self.phase[outcome != bit] = 0.0
        if faint.size:
            self.phase[faint] *= scale
        return outcome

    def take(self, rows) -> "_BasisRows":
        return _BasisRows(self.index[rows], self.phase[rows], self.norm[rows])

    def put(self, rows, sub: "_BasisRows") -> None:
        self.index[rows], self.phase[rows], self.norm[rows] = sub.index, sub.phase, sub.norm

    def write(self, states, picked) -> None:
        """Expand into amplitude rows: row ``r`` of *states* becomes basis
        row ``picked[r]``."""
        states[:] = 0.0
        states[np.arange(states.shape[0]), self.index[picked]] = self.phase[picked]


class _AmplitudeRows:
    """Shots as ``(rows, 2^n)`` amplitude rows plus their tracked norms."""

    def __init__(self, states, norm):
        self.states, self.norm = states, norm

    def apply(self, step) -> None:
        if step[0] == "initialize":
            _initialize_rows(self.states, self.norm, step[1], step[2])
        else:
            kernels.apply_step(self.states, step)

    def pauli(self, pauli: str, qubit: int, rows) -> None:
        _apply_pauli_rows(self.states, pauli, qubit, rows)

    def measure(self, qubit: int, uniforms):
        return _measure_batched(self.states, qubit, uniforms, self.norm)

    def take(self, rows) -> "_AmplitudeRows":
        return _AmplitudeRows(self.states[rows], self.norm[rows])

    def put(self, rows, sub: "_AmplitudeRows") -> None:
        self.states[rows], self.norm[rows] = sub.states, sub.norm


class StatevectorSession:
    """One live trajectory: the state a Qutes program (and
    :meth:`StatevectorSimulator.evolve
    <repro.qsim.simulator.StatevectorSimulator.evolve>` and the sampled
    :meth:`~repro.qsim.simulator.StatevectorSimulator.run`) builds up one
    instruction at a time.

    A qubit stays a plain **basis bit** until an instruction needs it in
    superposition; the one-row :class:`_AmplitudeRows` holds only the qubits
    that have left the basis, each on its own axis (``_axis``).  ``allocate(k)``
    appends *k* bits at 0 (the highest indices), refusing a state over the
    memory budget by its full width.  ``apply`` runs one instruction:

    * a gate whose bit operands each go to one fixed basis value, whatever
      the other operands hold (``x``/``cx``/``swap`` on bits, ``cp``/``cz``/
      ``ch``/``mcx`` with bit controls, ...), updates the bits and runs its
      restriction to the other operands on the row, or nothing when that is
      the identity.  A :class:`ControlledGate` first drops its bit controls
      without building its matrix; other gates of up to
      :data:`_MAX_RESTRICTED_QUBITS` qubits go through
      :func:`~repro.qsim.kernels.restrict`;
    * any other gate and ``initialize`` first add their bit operands to the
      row (one new axis, an exact copy), and a gate lowered to a ``wide``
      step (BLAS, whose rounding depends on the operand shape) adds every bit.

    A ``product`` step leaves its result in the row in the order it comes
    out, the gate's axes first (:func:`~repro.qsim.kernels.apply_product_unordered`),
    with no copy back: ``_axis`` is any one-to-one map from the row's qubits
    to its axes, and the row goes back to ascending qubit order (one
    transposing copy, :meth:`_ascending`) only before something reads it:
    ``measure``, ``probabilities``, ``state``, ``initialize`` and ``wide``
    steps, so every probability is summed in one order.

    Every step kernel computes an amplitude from its own inputs alone
    (elementwise, or one column of a product, whose bits do not depend on
    the column count or order), and a restriction drops only terms whose
    input amplitude is zero (a ``product`` gate's restriction runs as a
    product too), so the amplitudes are bit-identical to a session that
    holds every qubit in the row (one built from *state*).
    :meth:`apply_classical` runs a whole basis-to-basis circuit on bits as
    its classical function, exactly where its gates would round.  Under a
    Pauli *noise_model* every gate draws one error per touched qubit, from
    the same intervals as the batched plan; an error keeps a bit a bit
    (:meth:`_pauli`), and the draws do not depend on the state, so a noisy
    session holds bits too.  ``measure`` collapses through
    :func:`_measure_batched` (a bit draws its uniform too, so the stream
    does not move), makes each collapsed qubit a bit again (:meth:`_leave`)
    and returns the little-endian outcome; ``sample`` draws
    counts through :func:`~repro.qsim.simulator.sample_values` without
    collapsing; ``state`` is the full vector, built without growing the row.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        noise_model: Optional[NoiseModel] = None,
        state: Optional[Statevector] = None,
    ):
        self.rng = rng
        self._intervals = [] if noise_model is None else _pauli_intervals(require_pauli(noise_model))
        start = Statevector.zero_state(0) if state is None else state
        self._rows = _AmplitudeRows(start.data.reshape(1, -1).copy(), np.ones(1))
        self.num_qubits = start.num_qubits
        #: qubit -> its axis in the row (its bit in a row index), -1 for a bit
        self._axis = list(range(self.num_qubits))
        #: whether a product may have left the axes out of ascending order
        self._permuted = False
        #: the basis bits' values, bit ``q`` for qubit ``q``, and their count
        self._bits = 0
        self._num_bits = 0

    @property
    def state(self) -> Statevector:
        """The live state over every qubit, normalised (a view of the row
        while no qubit is a bit and its tracked norm is 1)."""
        self._ascending()
        state = self._row_state()
        if self._num_bits:
            full = np.zeros(1 << self.num_qubits, dtype=complex)
            # the (2,)*n view's axis n-1-q is qubit q: pin each bit's axis
            # to its value, and the row's own axes line up in the same order
            pinned = tuple(
                slice(None) if self._axis[q] >= 0 else (self._bits >> q) & 1
                for q in reversed(range(self.num_qubits))
            )
            full.reshape((2,) * self.num_qubits)[pinned] = state.data.reshape(
                (2,) * state.num_qubits
            )
            state.data, state.num_qubits = full, self.num_qubits
        return state

    def _row_state(self) -> Statevector:
        """The row as a normalised state over the qubits it holds."""
        state = Statevector.__new__(Statevector)
        row, norm = self._rows.states[0], self._rows.norm[0]
        state.data = row if norm == 1.0 else row / math.sqrt(norm)
        state.num_qubits = self.num_qubits - self._num_bits
        return state

    def allocate(self, num_qubits: int) -> None:
        total = self.num_qubits + num_qubits
        check_allocation("statevector", total, 1 << total)
        self._axis.extend([-1] * num_qubits)
        self._num_bits += num_qubits
        self.num_qubits = total

    def _enter(self, qubits) -> None:
        """Add the bits among *qubits* to the row, each on a new axis just
        above the axes of the row's qubits below it: a row in ascending
        order stays in ascending order."""
        for qubit in sorted(set(qubits)):
            if self._axis[qubit] >= 0:
                continue
            axis = sum(1 for other in self._axis[:qubit] if other >= 0)
            value = (self._bits >> qubit) & 1
            self._rows.states = _insert_axis(self._rows.states, axis, value)
            self._axis[:] = [a + 1 if a >= axis else a for a in self._axis]
            self._axis[qubit] = axis
            self._bits &= ~(1 << qubit)
            self._num_bits -= 1

    def _ascending(self) -> None:
        """Put the row's axes back in ascending qubit order, if a product
        left them out of it: one transposing copy."""
        if not self._permuted:
            return
        self._permuted = False
        live = [axis for axis in self._axis if axis >= 0]  # in qubit order
        if live == list(range(len(live))):
            return
        kernels.reorder_bits(self._rows.states, live)
        rank = 0
        for qubit, axis in enumerate(self._axis):
            if axis >= 0:
                self._axis[qubit] = rank
                rank += 1

    def _leave(self, collapsed: Dict[int, int]) -> None:
        """Make the collapsed row qubits bits again: *collapsed* maps each
        to the value it reads, and the row keeps only the slice where they
        all read those values (the rest is zero).  The row is in ascending
        order (:meth:`measure` put it there)."""
        width = self.num_qubits - self._num_bits
        rows = self._rows.states.shape[0]
        # the (rows, 2, ..., 2) view's dimension width - a is the row's axis a
        index: list = [slice(None)] * (width + 1)
        for qubit, value in collapsed.items():
            index[width - self._axis[qubit]] = value
            self._bits |= value << qubit
        view = self._rows.states.reshape((rows,) + (2,) * width)
        self._rows.states = np.ascontiguousarray(view[tuple(index)]).reshape(rows, -1)
        kept = 0
        for qubit, axis in enumerate(self._axis):
            if qubit in collapsed:
                self._axis[qubit] = -1
            elif axis >= 0:
                self._axis[qubit] = kept
                kept += 1
        self._num_bits += len(collapsed)

    def apply(self, instruction, qubits: Sequence[int]) -> None:
        qubits = tuple(qubits)
        if isinstance(instruction, Barrier):
            return
        if isinstance(instruction, Reset):
            if self.measure(qubits):
                self._pauli("X", qubits[0])
            return
        if isinstance(instruction, Initialize):
            self._enter(qubits)
            self._ascending()
            axes = tuple(self._axis[q] for q in qubits)
            self._rows.apply(("initialize", instruction, axes))
            return
        if not instruction.is_unitary:
            raise SimulationError(f"cannot simulate instruction {instruction.name!r}")
        if self._num_bits:
            self._apply_on_bits(instruction, qubits)
        else:  # every qubit is in the row, qubit q on axis q unless permuted
            axes = qubits
            if self._permuted:  # a wide step reads the row in ascending order
                if _lowers_wide(instruction):
                    self._ascending()
                else:
                    axes = tuple(self._axis[q] for q in qubits)
            self._run(kernels.lower(instruction, axes))
        for qubit in qubits if self._intervals else ():
            draw = self.rng.random()
            for pauli, lo, hi in self._intervals:
                if lo <= draw < hi:
                    self._pauli(pauli, qubit)
                    break

    def _run(self, step: tuple) -> None:
        """Run a gate step on the row; a product leaves its result in its
        own axis order, which ``_axis`` follows."""
        if step[0] != "product":
            self._rows.apply(step)
            return
        layout = kernels.apply_product_unordered(self._rows.states, step)
        if layout is not None:
            self._axis[:] = [layout[axis] if axis >= 0 else axis for axis in self._axis]
            self._permuted = True

    def _apply_on_bits(self, gate, qubits: tuple) -> None:
        """Apply the unitary *gate* while some qubits of the session are bits.

        A gate of two or more qubits that is not monomial lowers to a
        ``product`` step; what runs on the row once its bit operands are
        dropped is lowered as a product too (``product=``), even one qubit
        wide or a phase, so it rounds as the gate's own product on a row
        holding every qubit.
        """
        if _lowers_wide(gate):
            self._enter(range(self.num_qubits))
            self._ascending()
            self._rows.apply(kernels.lower(gate, qubits))
            return
        axis, bits = self._axis, self._bits
        product = False
        if isinstance(gate, ControlledGate):
            controls = qubits[: gate.num_controls]
            live = tuple(q for q in controls if axis[q] >= 0)
            if len(live) < len(controls):
                if any(axis[q] < 0 and not (bits >> q) & 1 for q in controls):
                    return  # a control bit reads 0: the identity
                qubits = live + qubits[gate.num_controls :]
                if live:
                    gate = ControlledGate(gate.base_gate, len(live))
                else:  # the bare base of a product gate still runs as a product
                    gate = gate.base_gate
                    product = kernels.basis_table(gate.to_matrix()) is None
        positions = [i for i, q in enumerate(qubits) if axis[q] < 0]
        if positions and gate.num_qubits <= _MAX_RESTRICTED_QUBITS:
            values = [(bits >> qubits[i]) & 1 for i in positions]
            restriction = kernels.restrict(gate.to_matrix(), positions, values)
            if restriction is not None:
                outputs, matrix, dense = restriction
                for i, value in zip(positions, outputs):
                    self._bits = (self._bits & ~(1 << qubits[i])) | (value << qubits[i])
                rest = [axis[q] for q in qubits if axis[q] >= 0]
                if matrix is None:
                    return
                product = product or dense
                if rest or product:
                    self._run(kernels.lower(matrix, rest, product=product))
                else:  # a phase on the whole state
                    self._rows.states *= matrix[0, 0]
                return
        if positions:
            self._enter(qubits)
        self._run(kernels.lower(gate, [axis[q] for q in qubits], product=product))

    def apply_classical(self, function: Callable[[int], int], qubits: Sequence[int]) -> bool:
        """Run a circuit that maps each basis input ``|x>`` to ``|function(x)>``
        with no phase (``x`` little-endian over *qubits*) by setting its
        bits: a Fourier adder or multiplier on bits costs one call, where its
        gates would carry the row through the transform and back.

        Returns False, changing nothing, when the session is noisy (each
        gate draws its own errors) or a qubit of *qubits* is in the row.
        """
        axis, bits = self._axis, self._bits
        if self._intervals or any(axis[q] >= 0 for q in qubits):
            return False
        value = function(sum(((bits >> q) & 1) << i for i, q in enumerate(qubits)))
        for position, qubit in enumerate(qubits):
            bits = (bits & ~(1 << qubit)) | (((value >> position) & 1) << qubit)
        self._bits = bits
        return True

    def _pauli(self, pauli: str, qubit: int) -> None:
        """A Pauli error on *qubit*; a bit stays a bit: ``X`` flips it, ``Z``
        puts ``(-1)^b`` on the row, ``Y`` does both with ``i`` (``b = 0``)
        or ``-i`` (``b = 1``), the factors the row's own kernel applies."""
        axis = self._axis[qubit]
        if axis >= 0:
            self._rows.pauli(pauli, axis, [0])
            return
        bit = (self._bits >> qubit) & 1
        if pauli == "Y":
            self._rows.states *= -1j if bit else 1j
        elif pauli == "Z" and bit:
            self._rows.states *= -1.0
        if pauli != "Z":
            self._bits ^= 1 << qubit

    def measure(self, qubits: Sequence[int]) -> int:
        self._ascending()
        outcome = 0
        collapsed: Dict[int, int] = {}
        for position, qubit in enumerate(qubits):
            uniform = self.rng.random(1)
            axis = self._axis[qubit]
            if axis < 0:
                bit = (self._bits >> qubit) & 1
            else:
                bit = collapsed[qubit] = int(self._rows.measure(axis, uniform)[0])
            outcome |= bit << position
        if collapsed:
            self._leave(collapsed)
        return outcome

    def sample(self, qubits: Sequence[int], shots: int) -> Dict[int, int]:
        return sample_values(self.probabilities(qubits), shots, self.rng)

    def probabilities(self, qubits: Sequence[int]) -> np.ndarray:
        """The marginal over *qubits* (little-endian), reduced over the row
        alone: a bit's value is certain, so the full ``2^n`` vector is never
        built."""
        self._ascending()
        if not self._num_bits:
            return self._row_state().probabilities(qubits)
        live = [(i, self._axis[q]) for i, q in enumerate(qubits) if self._axis[q] >= 0]
        base = sum(((self._bits >> q) & 1) << i for i, q in enumerate(qubits) if self._axis[q] < 0)
        marginal = self._row_state().probabilities([axis for _, axis in live])
        values = np.arange(marginal.size)
        index = np.full(marginal.size, base)
        for bit, (i, _) in enumerate(live):
            index |= ((values >> bit) & 1) << i
        probs = np.zeros(1 << len(qubits))
        probs[index] = marginal
        return probs


#: widest gate a session restricts to its superposed operands through its
#: matrix (:func:`~repro.qsim.kernels.restrict`); the widest fused block
_MAX_RESTRICTED_QUBITS = 4


def _lowers_wide(gate) -> bool:
    """Whether :func:`~repro.qsim.kernels.lower` makes *gate* a ``wide`` step."""
    if gate.num_qubits <= kernels.MAX_LOWERED_QUBITS:
        return False
    return not (
        isinstance(gate, ControlledGate)
        and gate.base_gate.num_qubits <= kernels.MAX_LOWERED_QUBITS
    )


def _insert_axis(states: np.ndarray, axis: int, value: int) -> np.ndarray:
    """*states* with a new qubit at *axis* (the qubits at and above it move
    up one) holding the basis *value*: an exact copy into the matching half."""
    rows = states.shape[0]
    grown = np.zeros((rows, 2 * states.shape[1]), dtype=complex)
    grown.reshape(rows, -1, 2, 1 << axis)[:, :, value, :] = states.reshape(rows, -1, 1 << axis)
    return grown


# ---------------------------------------------------------------------------
# Executor
# ---------------------------------------------------------------------------


def default_batch_size(num_qubits: int, shots: int) -> int:
    """The cache-sized batch: as many rows as keep ``batch * 2^n`` near
    :data:`_TARGET_BATCH_AMPLITUDES` (never above :data:`MAX_BATCH_AMPLITUDES`,
    never more rows than *shots*)."""
    return max(1, min(shots, _TARGET_BATCH_AMPLITUDES >> num_qubits))


def _local_rows(rows_for_run: np.ndarray, shots) -> np.ndarray:
    """Positions among the rows at hand of the run-level shots listed in the
    sorted *rows_for_run*.  *shots* names the rows at hand: a ``slice`` of
    the run's shots (a batch), or the sorted run-level indices of gathered
    rows."""
    if isinstance(shots, slice):
        lo = int(np.searchsorted(rows_for_run, shots.start))
        hi = int(np.searchsorted(rows_for_run, shots.stop))
        return rows_for_run[lo:hi] - shots.start
    return np.flatnonzero(np.isin(shots, rows_for_run))


def _run_steps(steps, rows, bits, shots) -> None:
    """Execute *steps* in place on *rows* (:class:`_BasisRows` or
    :class:`_AmplitudeRows`).

    *bits* (``(rows, clbits)`` outcomes) and *shots* (the rows' run-level
    shots, as for :func:`_local_rows`) describe the same rows.
    """
    for step in steps:
        kind = step[0]
        if kind == "noise":
            _, qubit, hits = step
            for pauli, rows_for_run in hits:
                selected = _local_rows(rows_for_run, shots)
                if selected.size:
                    rows.pauli(pauli, qubit, selected)
        elif kind == "measure":
            _, qubit, clbit, table = step
            bits[:, clbit] = rows.measure(qubit, table[shots])
        elif kind == "reset":
            _, qubit, table = step
            ones = np.flatnonzero(rows.measure(qubit, table[shots]))
            if ones.size:
                rows.pauli("X", qubit, ones)
        elif kind == "cond":  # gather the matching rows, step them, scatter back
            _, clbits, pattern, inner = step
            matching = np.flatnonzero(np.all(bits[:, clbits] == pattern, axis=1))
            if matching.size == bits.shape[0]:
                _run_steps(inner, rows, bits, shots)
            elif matching.size:
                ids = np.arange(shots.start, shots.stop) if isinstance(shots, slice) else shots
                sub, sub_bits = rows.take(matching), bits[matching]
                _run_steps(inner, sub, sub_bits, ids[matching])
                rows.put(matching, sub)
                bits[matching] = sub_bits
        else:
            rows.apply(step)


# ---------------------------------------------------------------------------
# Shared prefix: one row per distinct error pattern until the first
# measurement, reset, condition or row-by-row step
# ---------------------------------------------------------------------------

#: step kinds that end the shared prefix: each one reads or rewrites the
#: state shot by shot, or runs row by row
_PREFIX_END_KINDS = frozenset({"measure", "reset", "cond", "initialize", "wide"})


def _shared_prefix(plan) -> list:
    """The plan's leading run of unitary and noise steps."""
    for position, step in enumerate(plan):
        if step[0] in _PREFIX_END_KINDS:
            return plan[:position]
    return plan


class _SharedRows:
    """A batch's shots on one row per distinct error pattern so far.

    The rows in use are the leading ``states[:live]`` of the batch's own
    buffer, filled by the caller; ``owner[i]`` is the row of the batch's
    ``i``-th shot and ``population[r]`` the number of shots on row ``r``,
    never zero.
    """

    def __init__(self, states: np.ndarray, owner: np.ndarray):
        self.states = states
        self.owner = owner.tolist()
        self.population = np.bincount(owner).tolist()

    @property
    def live(self) -> int:
        return len(self.population)

    def rows(self) -> np.ndarray:
        return self.states[: self.live]

    def fork(self, shots: Sequence[int]) -> List[int]:
        """The rows an error drawn by exactly the batch's *shots* must hit.

        A row all of whose shots draw the error is hit in place.  A row only
        some of whose shots draw it is first copied to a new row, and those
        shots move there; the old row keeps the rest.
        """
        owner, population = self.owner, self.population
        taken: dict = {}
        for shot in shots:
            taken[owner[shot]] = taken.get(owner[shot], 0) + 1
        live = len(population)
        moved: dict = {}
        targets = []
        for row, count in taken.items():
            if count < population[row]:
                population[row] -= count
                moved[row] = len(population)
                population.append(count)
                row = moved[row]
            targets.append(row)
        if moved:
            self.states[live : len(population)] = self.states[list(moved)]
            for shot in shots:
                owner[shot] = moved.get(owner[shot], owner[shot])
        return targets

    def evolve(self, prefix, hits, batch: int, start: int) -> int:
        """Run *prefix* on the shared rows; return how many steps ran.

        Stops early once every shot owns a row: nothing is left to share.
        """
        for position, step in enumerate(prefix):
            if self.live == len(self.owner):
                return position
            if hits[position] is None:
                kernels.apply_step(self.rows(), step)
                continue
            for pauli, rows_for_run, cuts in hits[position]:
                lo, hi = cuts[batch], cuts[batch + 1]
                if lo < hi:
                    targets = self.fork((rows_for_run[lo:hi] - start).tolist())
                    _apply_pauli_rows(self.rows(), pauli, step[1], targets)
        return len(prefix)

    def expand(self) -> None:
        """Give every shot its own row, in shot order: row ``i`` of
        ``states`` becomes the state of the batch's ``i``-th shot."""
        if self.live == 1:
            self.states[1:] = self.states[0]
        else:
            self.states[:] = self.rows()[np.asarray(self.owner)]


def _distinct_basis_rows(basis: _BasisRows, states: np.ndarray) -> np.ndarray:
    """Write one amplitude row per distinct ``(index, phase)`` of *basis*
    into the leading rows of *states*; return each basis row's row."""
    keys = np.stack(
        [basis.index, basis.phase.real.view(np.int64), basis.phase.imag.view(np.int64)], axis=1
    )
    _, first, owner = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    basis.write(states[: first.size], first)
    return owner.ravel()


def run_batched(
    circuit: QuantumCircuit,
    noise_model: Optional[NoiseModel],
    shots: int,
    seed: Union[int, np.random.Generator, None],
    memory: bool = False,
    batch_size: Optional[int] = None,
    initial_state: Optional[Statevector] = None,
) -> ExperimentResult:
    """Run *shots* trajectories of *circuit* as batched tensors.

    *seed* is an int, or a ``Generator`` whose stream the run continues
    (how :class:`~repro.qsim.simulator.StatevectorSimulator` keeps its
    sequential stream).  *batch_size* caps how many trajectories evolve
    simultaneously (default: the cache-sized :func:`default_batch_size`);
    results are bit-identical for every batch size at a fixed *seed*, down
    to ``batch_size=1`` (one trajectory at a time).  *initial_state* is
    broadcast into every row.

    While the state is a (phased) basis state -- from ``|0...0>`` or a
    basis *initial_state*, through the plan's leading monomial steps -- every
    shot of the run is one :class:`_BasisRows` entry; amplitude rows are
    allocated only at the first step that is not monomial, each batch's
    shared prefix starting from one row per distinct basis row.

    The result's ``metadata`` names the method (``batched_shots``, or
    ``per_shot_trajectory`` for one row at a time), the batch size,
    ``trajectories`` (the rows the shared prefix ended with, summed over
    batches; ``shots`` when nothing was shared) and ``classical_prefix``:
    how many of the circuit's instructions ran on basis rows.
    """
    if shots <= 0:
        raise SimulationError("shots must be positive")
    check_unfused(circuit, noise_model)
    n = circuit.num_qubits
    if initial_state is None:
        initial_state = Statevector.zero_state(n)
    elif initial_state.num_qubits != n:
        raise SimulationError("initial state size does not match circuit")
    first = initial_state.data.reshape(1, -1)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    plan, origins = _build_plan(circuit, noise_model, shots, rng)
    if batch_size is None:
        batch_size = default_batch_size(n, shots)
    batch_size = max(1, min(int(batch_size), shots, MAX_BATCH_AMPLITUDES >> n or 1))

    norm0 = float(row_sums(abs2(first))[0])  # exactly 1.0 from |0...0>
    values = np.zeros((shots, circuit.num_clbits), dtype=np.uint8)
    basis: Optional[_BasisRows] = None
    done = classical_prefix = 0
    nonzero = np.flatnonzero(first[0])
    if nonzero.size == 1:
        start_index = int(nonzero[0])
        basis = _BasisRows(
            np.full(shots, start_index, dtype=np.int64),
            np.full(shots, first[0, start_index]),
            np.full(shots, norm0),
        )
        done = next((i for i, step in enumerate(plan) if not _in_basis(step)), len(plan))
        _run_steps(plan[:done], basis, values, slice(0, shots))
        classical_prefix = origins[done] if done < len(plan) else len(circuit.data)
    rest = plan[done:]

    trajectories = shots
    if rest:
        trajectories = _run_amplitudes(rest, basis, first, norm0, values, batch_size)

    metadata = {
        "method": "batched_shots" if batch_size > 1 else "per_shot_trajectory",
        "batch_size": batch_size,
        "trajectories": trajectories,
        "classical_prefix": classical_prefix,
    }
    return tally(circuit, values, memory, metadata)


def _run_amplitudes(plan, basis, first, norm0, values, batch_size: int) -> int:
    """Run *plan* on ``(rows, 2^n)`` amplitude rows, batch by batch; return
    the trajectories.

    Each batch starts from its shots' *basis* rows (or from *first* when
    there are none, with tracked norm *norm0*) and, when the run spans
    several batches, shares one row per distinct error pattern through the
    plan's leading unitary and noise steps.
    """
    shots = values.shape[0]
    # a run that fits one batch already costs one kernel call per step:
    # sharing rows would only add bookkeeping
    prefix = _shared_prefix(plan) if shots > batch_size else []
    bounds = list(range(0, shots, batch_size)) + [shots]
    # per noise step of the prefix: each Pauli's run-level shots, and where
    # every batch's shots start among them
    hits = [
        [(pauli, rows, rows.searchsorted(bounds).tolist()) for pauli, rows in step[2]]
        if step[0] == "noise"
        else None
        for step in prefix
    ]
    buffer = np.empty((batch_size, first.shape[1]), dtype=complex)
    trajectories = 0
    for batch, start in enumerate(bounds[:-1]):
        stop = bounds[batch + 1]
        states = buffer[: stop - start]
        rows = None if basis is None else basis.take(slice(start, stop))
        if prefix:
            if rows is None:
                states[0] = first[0]
                owner = np.zeros(stop - start, dtype=np.intp)
            else:
                owner = _distinct_basis_rows(rows, states)
            shared = _SharedRows(states, owner)
            done = shared.evolve(prefix, hits, batch, start)
            trajectories += shared.live
            shared.expand()
        else:  # every shot is its own trajectory from the start
            if rows is None:
                states[:] = first
            else:
                rows.write(states, slice(None))
            done = 0
            trajectories += stop - start
        if done < len(plan):
            norm = np.full(stop - start, norm0) if rows is None else rows.norm
            amplitudes = _AmplitudeRows(states, norm)
            _run_steps(plan[done:], amplitudes, values[start:stop], slice(start, stop))
    return trajectories
