"""CHP-style stabilizer (Clifford) simulation engine.

The Aaronson--Gottesman tableau represents an ``n``-qubit stabilizer state
with ``2n`` Pauli rows (destabilizers then stabilizers) stored as NumPy
bit-matrices, so every Clifford gate is an ``O(n)`` column operation and a
measurement is an ``O(n^2)`` vectorized collapse -- polynomial where the
dense engines are exponential.  100--500 qubit Clifford circuits run in
milliseconds.

Two ideas on top of the textbook CHP algorithm make the engine fast at
simulator scale:

* **Symbolic phases.**  Row phases are vectors over GF(2): one constant
  column plus one column per *random* measurement event.  A random
  measurement collapses the tableau's bit-matrix exactly as in CHP (the
  collapsed x/z pattern does not depend on the outcome) but records the
  outcome as a fresh symbol instead of drawing a bit.  Every measurement --
  mid-circuit ones included -- therefore yields an **affine GF(2)
  expression** over the event symbols, and the whole circuit is evolved
  exactly once regardless of the shot count.
* **One-matmul sampling.**  Sampling ``shots`` shots reduces to drawing a
  random bit matrix and evaluating the recorded expressions with a single
  mod-2 matrix multiply; correlations between outcomes (teleportation
  corrections, repeated measurement, reset) are carried by the shared
  symbols.
* **Symbolic feed-forward.**  A classically conditioned Pauli (``x``,
  ``y``, ``z``, ``id``, or any instruction that lowers to Paulis only) never
  changes the x/z bit-matrix either, so it is recorded as a Pauli under a
  *derived* phase symbol -- the classically controlled Pauli of Stim
  (``CX rec[-1] q``).  The symbol's per-shot bit is not drawn: at sampling
  time it is computed from the condition register's outcome expressions
  (any register width) as ``register == value``.  Only conditioned
  measurements, resets, initializations and non-Pauli Cliffords re-evolve a
  concrete tableau per shot.

Gate support: H, S, Sdg, X, Y, Z, SX, CX, CY, CZ, SWAP, iSWAP natively,
rotation gates at multiples of pi/2, plus **any** unitary block up to
:data:`repro.qsim.transpiler.MAX_CLIFFORD_TABLE_QUBITS` qubits whose matrix
is Clifford (fused blocks, controlled gates, explicit unitaries) via its
Pauli conjugation table.  Measurement and reset are exact; ``Initialize``
is supported for computational-basis states.

**Noise.**  Pauli errors are Clifford, so the engine also runs *noisy*
circuits in polynomial time: a :class:`~repro.qsim.noise.NoiseModel` whose
:meth:`~repro.qsim.noise.NoiseModel.pauli_terms` describes a single-qubit
Pauli channel is injected after every unitary instruction on the qubits it
touched, at the same sites as on every other engine.  The injection
rides the symbolic-phase machinery: a Pauli error never changes the
tableau's x/z bit-matrix -- only row signs -- so each potential error
location contributes one (bit/phase flip) or two (general Pauli channel,
X-part and Z-part of ``X^a Z^b``) extra phase-symbol columns whose per-shot
bits are drawn from the channel's distribution instead of uniformly.  The
evolve-once / sample-all-shots fast path is preserved; when the phase
matrix would outgrow :data:`MAX_SYMBOLIC_PHASE_CELLS` the engine falls
back to concrete per-shot tableau evolution (see ``docs/noise.md`` for the
crossover).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .circuit import QuantumCircuit
from .exceptions import SimulationError
from .instruction import Barrier, Initialize, Measure
from .noise import NoiseModel, check_unfused, require_pauli
from .result import ExperimentResult
from .simulator import check_evolvable, compile_condition, condition_met, tally
from .transpiler import _clifford_classification

__all__ = [
    "StabilizerTableau",
    "StabilizerSimulator",
    "StabilizerSession",
    "STABILIZER_GATES",
    "MAX_SYMBOLIC_PHASE_CELLS",
]

#: gates the engine executes without any matrix analysis
STABILIZER_GATES = frozenset(
    {"id", "x", "y", "z", "h", "s", "sdg", "sx", "cx", "cy", "cz", "swap", "iswap"}
)

#: crossover bound of the noisy symbolic fast path: when the phase matrix
#: (``(2n + 1) x (1 + symbols)`` uint8 cells) would exceed this many cells
#: (~64 MB), a noisy run switches to per-shot tableau evolution instead of
#: materialising a huge symbol frame (see docs/noise.md)
MAX_SYMBOLIC_PHASE_CELLS = 64_000_000

_PAULI_CHARS = ("I", "Z", "X", "Y")  # indexed by the 2x + z code


class StabilizerTableau:
    """An ``n``-qubit stabilizer state in Aaronson--Gottesman tableau form.

    Rows ``0 .. n-1`` of the bit-matrices are the destabilizers, rows
    ``n .. 2n-1`` the stabilizers, and row ``2n`` is scratch space.  Row
    ``i`` represents the signed Pauli ``(-1)^phase * prod_j P_j`` where
    ``P_j`` is I/X/Y/Z according to the ``(xs[i, j], zs[i, j])`` bit pair
    (``(1, 1)`` is the literal Y).

    ``phases`` has one column per phase term: column 0 is the concrete sign
    bit; the remaining columns (allocated with *max_symbols*) are GF(2)
    coefficients of per-measurement random symbols used by
    :class:`StabilizerSimulator`'s deferred sampler.  Direct users of this
    class (``measure(qubit, rng)`` / ``reset``) never allocate symbols and
    can ignore them entirely.
    """

    def __init__(self, num_qubits: int, max_symbols: int = 0):
        if num_qubits < 0:
            raise SimulationError("num_qubits must be non-negative")
        n = num_qubits
        self.num_qubits = n
        rows = 2 * n + 1
        self.xs = np.zeros((rows, n), dtype=np.uint8)
        self.zs = np.zeros((rows, n), dtype=np.uint8)
        self.phases = np.zeros((rows, 1 + max_symbols), dtype=np.uint8)
        indices = np.arange(n)
        self.xs[indices, indices] = 1          # destabilizer i = X_i
        self.zs[n + indices, indices] = 1      # stabilizer i = Z_i
        self._num_symbols = 0

    # -- bookkeeping -------------------------------------------------------------

    def copy(self) -> "StabilizerTableau":
        new = StabilizerTableau.__new__(StabilizerTableau)
        new.num_qubits = self.num_qubits
        new.xs = self.xs.copy()
        new.zs = self.zs.copy()
        new.phases = self.phases.copy()
        new._num_symbols = self._num_symbols
        return new

    def _check_qubit(self, qubit: int) -> None:
        if not 0 <= qubit < self.num_qubits:
            raise SimulationError(f"qubit index {qubit} out of range")

    def __repr__(self) -> str:
        return f"StabilizerTableau(num_qubits={self.num_qubits})"

    # -- Clifford gates (O(n) column operations on all rows at once) -------------

    def h(self, qubit: int) -> None:
        """Hadamard: X <-> Z, sign flip on Y."""
        self._check_qubit(qubit)
        x, z = self.xs[:, qubit], self.zs[:, qubit]
        self.phases[:, 0] ^= x & z
        self.xs[:, qubit], self.zs[:, qubit] = z.copy(), x.copy()

    def s(self, qubit: int) -> None:
        """Phase gate: X -> Y, Z -> Z."""
        self._check_qubit(qubit)
        x, z = self.xs[:, qubit], self.zs[:, qubit]
        self.phases[:, 0] ^= x & z
        self.zs[:, qubit] = z ^ x

    def sdg(self, qubit: int) -> None:
        """Inverse phase gate: Y -> X picks up no sign, X -> -Y does."""
        self._check_qubit(qubit)
        x, z = self.xs[:, qubit], self.zs[:, qubit]
        self.phases[:, 0] ^= x & (z ^ 1)
        self.zs[:, qubit] = z ^ x

    def x(self, qubit: int) -> None:
        """Pauli X: flips the sign of rows containing Z or Y here."""
        self._check_qubit(qubit)
        self.phases[:, 0] ^= self.zs[:, qubit]

    def y(self, qubit: int) -> None:
        """Pauli Y: flips the sign of rows containing X or Z here."""
        self._check_qubit(qubit)
        self.phases[:, 0] ^= self.xs[:, qubit] ^ self.zs[:, qubit]

    def z(self, qubit: int) -> None:
        """Pauli Z: flips the sign of rows containing X or Y here."""
        self._check_qubit(qubit)
        self.phases[:, 0] ^= self.xs[:, qubit]

    def sx(self, qubit: int) -> None:
        """Square root of X (= H S H exactly)."""
        self.h(qubit)
        self.s(qubit)
        self.h(qubit)

    def cx(self, control: int, target: int) -> None:
        """Controlled-X."""
        self._check_qubit(control)
        self._check_qubit(target)
        xc, zc = self.xs[:, control], self.zs[:, control]
        xt, zt = self.xs[:, target], self.zs[:, target]
        self.phases[:, 0] ^= xc & zt & (xt ^ zc ^ 1)
        self.xs[:, target] = xt ^ xc
        self.zs[:, control] = zc ^ zt

    def cz(self, qubit_a: int, qubit_b: int) -> None:
        """Controlled-Z (symmetric)."""
        self._check_qubit(qubit_a)
        self._check_qubit(qubit_b)
        xa, za = self.xs[:, qubit_a], self.zs[:, qubit_a]
        xb, zb = self.xs[:, qubit_b], self.zs[:, qubit_b]
        self.phases[:, 0] ^= xa & xb & (za ^ zb)
        self.zs[:, qubit_a] = za ^ xb
        self.zs[:, qubit_b] = zb ^ xa

    def cy(self, control: int, target: int) -> None:
        """Controlled-Y."""
        self.sdg(target)
        self.cx(control, target)
        self.s(target)

    def swap(self, qubit_a: int, qubit_b: int) -> None:
        """SWAP: exchange the two bit-matrix columns."""
        self._check_qubit(qubit_a)
        self._check_qubit(qubit_b)
        a, b = qubit_a, qubit_b
        self.xs[:, [a, b]] = self.xs[:, [b, a]]
        self.zs[:, [a, b]] = self.zs[:, [b, a]]

    def iswap(self, qubit_a: int, qubit_b: int) -> None:
        """iSWAP = SWAP . CZ . (S (x) S)."""
        self.s(qubit_a)
        self.s(qubit_b)
        self.cz(qubit_a, qubit_b)
        self.swap(qubit_a, qubit_b)

    def apply_pauli(self, qubit: int, pauli: str) -> None:
        """Apply the single-qubit Pauli *pauli* (``"X"``/``"Y"``/``"Z"``) concretely."""
        method = {"X": self.x, "Y": self.y, "Z": self.z}.get(pauli)
        if method is None:
            raise SimulationError(f"unknown Pauli {pauli!r} (expected X, Y or Z)")
        method(qubit)

    def allocate_symbol(self) -> int:
        """Reserve the next phase-symbol column and return its index.

        Capacity is fixed by the constructor's *max_symbols*; the simulator
        uses this both for random measurement events and for injected noise
        symbols.
        """
        column = 1 + self._num_symbols
        if column >= self.phases.shape[1]:
            raise SimulationError("phase-symbol capacity exhausted")
        self._num_symbols += 1
        return column

    def inject_pauli_symbol(self, qubit: int, pauli: str, column: int) -> None:
        """Record a *symbolic* Pauli error on *qubit* under symbol *column*.

        Applying ``X``/``Y``/``Z`` flips the sign of every row anticommuting
        with it; attributing those flips to a symbol column instead of the
        concrete sign bit makes the error conditional on that symbol's
        per-shot bit.  Because a Pauli never changes the x/z bit-matrix, the
        rest of the (Clifford + measurement) evolution is independent of
        whether the error fired -- which is exactly why noisy Clifford
        circuits stay polynomial.
        """
        self._check_qubit(qubit)
        if not 1 <= column < self.phases.shape[1]:
            raise SimulationError(f"phase-symbol column {column} out of range")
        x, z = self.xs[:, qubit], self.zs[:, qubit]
        if pauli == "X":
            mask = z
        elif pauli == "Z":
            mask = x
        elif pauli == "Y":
            mask = x ^ z
        else:
            raise SimulationError(f"unknown Pauli {pauli!r} (expected X, Y or Z)")
        self.phases[:, column] ^= mask

    def apply_pauli_table(
        self, table: Tuple[np.ndarray, np.ndarray, np.ndarray], targets: Sequence[int]
    ) -> None:
        """Apply a Clifford unitary given by its Pauli conjugation *table*.

        *table* is the ``(xtab, ztab, sign)`` triple produced by
        :func:`repro.qsim.transpiler.pauli_conjugation_table`; this is how
        fused :class:`UnitaryGate` blocks and other composite Cliffords
        execute on the tableau, vectorized over all rows.
        """
        targets = list(targets)
        for t in targets:
            self._check_qubit(t)
        if len(set(targets)) != len(targets):
            raise SimulationError("duplicate target qubits")
        xtab, ztab, sign = table
        k = len(targets)
        if xtab.size != 4**k:
            raise SimulationError(
                f"conjugation table of size {xtab.size} does not match {k} target qubits"
            )
        index = np.zeros(self.xs.shape[0], dtype=np.int32)
        for j, t in enumerate(targets):
            code = (self.xs[:, t].astype(np.int32) << 1) | self.zs[:, t]
            index |= code << (2 * (k - 1 - j))
        self.phases[:, 0] ^= sign[index]
        new_x = xtab[index]
        new_z = ztab[index]
        for j, t in enumerate(targets):
            self.xs[:, t] = (new_x >> j) & 1
            self.zs[:, t] = (new_z >> j) & 1

    # -- Pauli row algebra -------------------------------------------------------

    @staticmethod
    def _g(x1: np.ndarray, z1: np.ndarray, x2: np.ndarray, z2: np.ndarray) -> np.ndarray:
        """Power of i (in {-1, 0, 1}) from multiplying literal Paulis.

        ``P(x1, z1) . P(x2, z2) = i^g P(x1 ^ x2, z1 ^ z2)`` per qubit, the
        phase function of Aaronson--Gottesman's ``rowsum``.
        """
        x1 = x1.astype(np.int8)
        z1 = z1.astype(np.int8)
        x2 = x2.astype(np.int8)
        z2 = z2.astype(np.int8)
        return (
            x1 * z1 * (z2 - x2)
            + x1 * (1 - z1) * z2 * (2 * x2 - 1)
            + (1 - x1) * z1 * x2 * (1 - 2 * z2)
        )

    def _rowsum(self, h_rows: np.ndarray, i_row: int) -> None:
        """Left-multiply every row in *h_rows* by row *i_row*, phases exact.

        Vectorized over rows: the phase carry is the mod-4 sum of the per
        qubit i-powers (guaranteed even for the commuting products CHP
        performs), the symbolic phase columns simply XOR.
        """
        g = self._g(self.xs[i_row], self.zs[i_row], self.xs[h_rows], self.zs[h_rows])
        carry = (g.sum(axis=1, dtype=np.int64) % 4) // 2
        self.phases[h_rows] ^= self.phases[i_row]
        self.phases[h_rows, 0] ^= carry.astype(np.uint8)
        self.xs[h_rows] ^= self.xs[i_row]
        self.zs[h_rows] ^= self.zs[i_row]

    def _product_phase_expr(self, stab_rows: np.ndarray) -> np.ndarray:
        """Phase vector of the product of the given (commuting) stabilizer rows.

        One pass with exact mod-4 phase tracking: the literal Pauli of the
        product of the first ``j`` rows is their XOR, so one :meth:`_g` call
        over every (prefix, next row) pair gives the i-power of each
        multiplication, ``O(n^2)`` vectorized work in a few NumPy calls
        instead of ``n`` sequential rowsums.
        """
        expr = np.bitwise_xor.reduce(self.phases[stab_rows], axis=0)
        xs, zs = self.xs[stab_rows], self.zs[stab_rows]
        prefix_x = np.bitwise_xor.accumulate(xs[:-1], axis=0)
        prefix_z = np.bitwise_xor.accumulate(zs[:-1], axis=0)
        i_powers = self._g(prefix_x, prefix_z, xs[1:], zs[1:]).sum(dtype=np.int64)
        expr[0] ^= np.uint8((int(i_powers) % 4) // 2)
        return expr

    # -- measurement -------------------------------------------------------------

    def _pivot(self, qubit: int) -> Optional[int]:
        """First stabilizer row anticommuting with Z_qubit, or ``None``."""
        column = self.xs[self.num_qubits : 2 * self.num_qubits, qubit]
        hits = np.nonzero(column)[0]
        if hits.size == 0:
            return None
        return self.num_qubits + int(hits[0])

    def _collapse(self, qubit: int, pivot: int) -> None:
        """Project onto the Z_qubit eigenbasis using stabilizer row *pivot*."""
        rows = np.nonzero(self.xs[: 2 * self.num_qubits, qubit])[0]
        rows = rows[rows != pivot]
        if rows.size:
            self._rowsum(rows, pivot)
        destab = pivot - self.num_qubits
        self.xs[destab] = self.xs[pivot]
        self.zs[destab] = self.zs[pivot]
        self.phases[destab] = self.phases[pivot]
        self.xs[pivot] = 0
        self.zs[pivot] = 0
        self.phases[pivot] = 0
        self.zs[pivot, qubit] = 1

    def _deterministic_expr(self, qubit: int) -> np.ndarray:
        """Phase expression of the predetermined Z_qubit outcome."""
        sel = np.nonzero(self.xs[: self.num_qubits, qubit])[0]
        if sel.size == 0:
            return np.zeros(self.phases.shape[1], dtype=np.uint8)
        return self._product_phase_expr(self.num_qubits + sel)

    def measure(self, qubit: int, rng: Optional[np.random.Generator] = None) -> int:
        """Measure *qubit* in the computational basis, collapsing in place.

        Deterministic outcomes consume no randomness; random ones draw one
        bit from *rng*.
        """
        self._check_qubit(qubit)
        if self._num_symbols:
            raise SimulationError(
                "cannot measure or reset concretely on a tableau carrying "
                "symbolic phases (measurement or noise symbols); use "
                "StabilizerSimulator.run()'s symbolic sampling instead, or "
                "evolve() for a concrete tableau"
            )
        pivot = self._pivot(qubit)
        if pivot is None:
            return int(self._deterministic_expr(qubit)[0])
        if rng is None:
            rng = np.random.default_rng()  # invariant: allow -- explicit no-rng fallback
        outcome = int(rng.integers(0, 2))
        self._collapse(qubit, pivot)
        self.phases[pivot, 0] = outcome
        return outcome

    def _measure_symbolic(self, qubit: int) -> np.ndarray:
        """Measure *qubit*, returning its outcome as a GF(2) phase expression.

        A random outcome allocates the next symbol column (capacity is fixed
        by the constructor's *max_symbols*); a deterministic one returns an
        expression over already-allocated symbols.
        """
        self._check_qubit(qubit)
        pivot = self._pivot(qubit)
        if pivot is None:
            return self._deterministic_expr(qubit)
        column = self.allocate_symbol()
        self._collapse(qubit, pivot)
        self.phases[pivot, column] = 1
        expr = np.zeros(self.phases.shape[1], dtype=np.uint8)
        expr[column] = 1
        return expr

    def reset(self, qubit: int, rng: Optional[np.random.Generator] = None) -> None:
        """Reset *qubit* to |0> (measure, then flip on outcome 1)."""
        if self.measure(qubit, rng):
            self.x(qubit)

    def initialize_basis(self, value: int, targets: Sequence[int]) -> None:
        """Set *targets* to the little-endian basis *value* (bit j -> targets[j]).

        Like :meth:`Statevector.initialize_qubits`, the target qubits must
        already be exactly |0> — i.e. ``+Z_t`` must be a stabilizer for each
        target, with no dependence on earlier measurement outcomes.
        """
        targets = list(targets)
        for t in targets:
            self._check_qubit(t)
            if self._pivot(t) is not None or self._deterministic_expr(t).any():
                raise SimulationError(
                    "initialize requires the target qubits to be in the |0...0> state"
                )
        for j, t in enumerate(targets):
            if (value >> j) & 1:
                self.x(t)

    def _reset_symbolic(self, qubit: int) -> None:
        """Symbolic reset: conditional X weighted by the outcome expression."""
        expr = self._measure_symbolic(qubit)
        if expr.any():
            mask = self.zs[:, qubit].astype(bool)
            self.phases[mask] ^= expr

    # -- inspection --------------------------------------------------------------

    def _row_string(self, row: int) -> str:
        sign = "-" if self.phases[row, 0] else "+"
        codes = (self.xs[row].astype(np.int8) << 1) | self.zs[row]
        return sign + "".join(_PAULI_CHARS[c] for c in codes)

    def stabilizers(self) -> List[str]:
        """The stabilizer generators as signed Pauli strings.

        Character ``j`` of each string is qubit ``j`` (``I``/``X``/``Y``/``Z``),
        prefixed with the sign, e.g. ``['+XX', '+ZZ']`` for a Bell pair.
        """
        return [self._row_string(self.num_qubits + i) for i in range(self.num_qubits)]

    def destabilizers(self) -> List[str]:
        """The destabilizer generators as signed Pauli strings."""
        return [self._row_string(i) for i in range(self.num_qubits)]


# ---------------------------------------------------------------------------
# circuit compilation
# ---------------------------------------------------------------------------

#: ("gate", method_name, qubits, cond) | ("table", table, qubits, cond) |
#: ("pauli", ((pauli, qubit), ...), qubits, cond) -- a conditioned
#: instruction that lowers to Paulis only | ("initialize", basis_value,
#: qubits, cond) | ("measure", clbit, (qubit,), cond) | ("reset", None,
#: (qubit,), cond) | ("noise", None, qubits, cond) -- error-injection point
#: after a unitary instruction.  ``cond`` is
#: :func:`~repro.qsim.simulator.compile_condition`'s ``None`` or
#: ``(clbit_indices, value)``: the op executes in a shot only when
#: :func:`~repro.qsim.simulator.condition_met` holds.  run() keeps a
#: conditioned "pauli" op (and its noise marker) on the symbolic path; any
#: other conditioned op forces the concrete per-shot path.
_CompiledOp = Tuple[str, Any, Tuple[int, ...], Optional[Tuple[Tuple[int, ...], int]]]

_PAULI_GATES = frozenset({"x", "y", "z"})


def _classify(op) -> Tuple[str, Any]:
    """:func:`~repro.qsim.transpiler._clifford_classification` of *op*, or a
    :class:`SimulationError` naming it when it is not Clifford."""
    classification = _clifford_classification(op)
    if classification is None:
        if isinstance(op, Initialize):
            raise SimulationError(
                "initialize to a superposition is not a Clifford operation; "
                "the stabilizer engine only supports computational-basis "
                "initialization"
            )
        raise SimulationError(
            f"instruction {op.name!r} is not a Clifford operation; the stabilizer "
            f"engine supports {sorted(STABILIZER_GATES)}, rotations at multiples "
            "of pi/2, Clifford unitary blocks, measure and reset"
        )
    return classification


def _lower(
    kind: str,
    payload: Any,
    targets: Tuple[int, ...],
    condition: Optional[Tuple[Tuple[int, ...], int]],
    symbolic_condition: bool,
    noise: bool,
) -> List[_CompiledOp]:
    """The tableau ops of one classified instruction that is not a
    passthrough (measure, reset, barrier); with *noise*, a unitary is
    followed by its noise marker."""
    if kind == "initialize":
        return [("initialize", payload, targets, condition)]
    if symbolic_condition:
        paulis = tuple((name.upper(), targets[i[0]]) for name, i in payload)
        ops: List[_CompiledOp] = [("pauli", paulis, targets, condition)]
    elif kind == "sequence":
        ops = [("gate", name, tuple(targets[i] for i in local), condition) for name, local in payload]
    else:  # "table"
        ops = [("table", payload, targets, condition)]
    if noise:
        # noise fires only when the instruction it follows actually executed
        ops.append(("noise", None, targets, condition))
    return ops


def _compile(
    circuit: QuantumCircuit, noise: bool = False
) -> Tuple[List[_CompiledOp], int, Optional[str]]:
    """Lower *circuit* to tableau operations.

    Returns ``(ops, #measure-events, blocker)``, where *blocker* names the
    first classically-conditioned instruction that is not Pauli-only (and so
    needs concrete per-shot evolution), or is ``None``.

    The per-instruction decision is
    :func:`repro.qsim.transpiler._clifford_classification` — the same
    function backing :func:`~repro.qsim.transpiler.is_clifford`, so
    detection and execution cannot disagree.  Raises
    :class:`SimulationError` naming the offending instruction when the
    circuit is not Clifford.

    With *noise* set, a ``("noise", None, targets)`` marker is emitted after
    every **unitary instruction** (one per source instruction, not per
    lowered primitive, and never after measure/reset/initialize/barriers) --
    where every engine applies a :class:`~repro.qsim.noise.NoiseModel`, so
    cross-engine noise statistics are comparable.
    """
    ops: List[_CompiledOp] = []
    events = 0
    blocker: Optional[str] = None
    for instr in circuit.data:
        op = instr.operation
        condition = compile_condition(circuit, instr.condition)
        kind, payload = _classify(op)
        symbolic_condition = (
            condition is not None
            and kind == "sequence"
            and all(name in _PAULI_GATES for name, _ in payload)
        )
        if condition is not None and not symbolic_condition and blocker is None:
            blocker = op.name
        targets = tuple(circuit.qubit_index(q) for q in instr.qubits)
        if kind == "passthrough":
            if isinstance(op, Barrier):
                continue
            if isinstance(op, Measure):
                ops.append(
                    ("measure", circuit.clbit_index(instr.clbits[0]), targets[:1], condition)
                )
            else:  # Reset
                ops.append(("reset", None, targets[:1], condition))
            events += 1
            continue
        ops.extend(_lower(kind, payload, targets, condition, symbolic_condition, noise))
    return ops, events, blocker


def _pauli_channel_encoding(terms) -> Optional[Tuple[str, Any]]:
    """How a Pauli channel maps onto tableau symbols.

    Returns ``("single", pauli, p)`` when only one Pauli type occurs (one
    Bernoulli symbol per error location) or ``("pair", (pX, pY, pZ))`` for a
    general Pauli channel (two correlated symbols per location: the X-part
    and Z-part of the error ``X^a Z^b``, with Y = both).  ``None`` means the
    channel never fires (all probabilities zero) and injection is skipped.
    The terms were validated when their :class:`NoiseModel` was built.
    """
    probs = {"X": 0.0, "Y": 0.0, "Z": 0.0}
    for pauli, p in terms:
        probs[pauli] += p
    active = [pauli for pauli, p in probs.items() if p > 0.0]
    if not active:
        return None
    if len(active) == 1:
        return ("single", active[0], probs[active[0]])
    return ("pair", (probs["X"], probs["Y"], probs["Z"]))


#: per-shot symbol distributions, as (kind, payload, gate): ("uniform", None,
#: None) for a random measurement event, ("bernoulli", p, gate) for a
#: single-Pauli error symbol, ("pair", (pX, pY, pZ), gate) for the (X-part,
#: Z-part) column pair of a general Pauli error, and ("derived", (register,
#: value), None) for a conditioned Pauli's symbol, whose bit is computed,
#: not drawn: ``register`` holds the condition clbits' outcome expressions
#: (one row per clbit, little-endian).  ``gate`` is ``None`` or the sampled
#: column of the condition an error follows: the error fires only in shots
#: where that conditioned gate ran.
_SymbolSpec = Tuple[str, Any, Optional[int]]


def _condition_bits(earlier: np.ndarray, register: np.ndarray, value: int) -> np.ndarray:
    """Per-shot ``register == value`` over the *earlier* sampled columns.

    *register* holds one outcome expression per condition clbit
    (little-endian); only the columns some expression uses enter the
    mod-2 matmul, so a wide symbol frame costs nothing extra.
    """
    coefficients = register[:, 1 : 1 + earlier.shape[1]]
    used = np.flatnonzero(coefficients.any(axis=0))
    parity = (earlier[:, used] @ coefficients[:, used].T.astype(np.int32)) & 1
    wanted = np.array(
        [((value >> j) & 1) ^ int(register[j, 0]) for j in range(register.shape[0])],
        dtype=np.int32,
    )
    return np.all(parity == wanted, axis=1)


def _evolve_concrete(
    ops: List[_CompiledOp],
    num_qubits: int,
    bits: np.ndarray,
    rng: np.random.Generator,
    encoding: Optional[Tuple[str, Any]] = None,
    collapse: bool = True,
) -> StabilizerTableau:
    """One concrete tableau through *ops*: conditions read and measurements
    (when they *collapse*) write this shot's *bits*; resets draw from *rng*,
    and so do the errors of *encoding*."""
    tableau = StabilizerTableau(num_qubits)
    for op in ops:
        if condition_met(op[3], bits):
            _step_concrete(tableau, op, bits, rng, encoding, collapse)
    return tableau


def _step_concrete(
    tableau: StabilizerTableau,
    op: _CompiledOp,
    bits: Optional[np.ndarray],
    rng: np.random.Generator,
    encoding: Optional[Tuple[str, Any]],
    collapse: bool = True,
) -> None:
    """Run one compiled op on a concrete *tableau*; a collapsing measurement
    writes *bits*."""
    kind, payload, targets, _ = op
    if kind == "gate":
        getattr(tableau, payload)(*targets)
    elif kind == "table":
        tableau.apply_pauli_table(payload, targets)
    elif kind == "pauli":
        for pauli, qubit in payload:
            tableau.apply_pauli(qubit, pauli)
    elif kind == "initialize":
        tableau.initialize_basis(payload, targets)
    elif kind == "noise":
        for qubit in targets:
            _inject_concrete(tableau, qubit, encoding, rng)
    elif kind == "measure":
        if collapse:
            bits[payload] = tableau.measure(targets[0], rng=rng)
    else:  # reset
        tableau.reset(targets[0], rng=rng)


def _inject_concrete(
    tableau: StabilizerTableau,
    qubit: int,
    encoding: Optional[Tuple[str, Any]],
    rng: np.random.Generator,
) -> None:
    """Sample and apply one concrete error for the per-shot path."""
    if encoding is None:
        return
    if encoding[0] == "single":
        _, pauli, p = encoding
        if rng.random() < p:
            tableau.apply_pauli(qubit, pauli)
        return
    p_x, p_y, p_z = encoding[1]
    draw = rng.random()
    if draw < p_x:
        tableau.x(qubit)
    elif draw < p_x + p_y:
        tableau.y(qubit)
    elif draw < p_x + p_y + p_z:
        tableau.z(qubit)


class StabilizerSimulator:
    """Polynomial-time execution engine for (optionally noisy) Clifford circuits.

    Mirrors the :class:`~repro.qsim.simulator.StatevectorSimulator` calling
    convention (``run(circuit, shots, memory) -> ExperimentResult``) so it slots
    behind the unified backend API unchanged.  The circuit -- mid-circuit
    measurements and resets included -- is evolved **once** with symbolic
    measurement phases; all shots are then sampled with a single mod-2
    matrix multiply (see the module docstring).

    *noise_model* (a :class:`~repro.qsim.noise.NoiseModel` with Pauli terms:
    :class:`~repro.qsim.noise.BitFlipNoise`,
    :class:`~repro.qsim.noise.PhaseFlipNoise`,
    :class:`~repro.qsim.noise.DepolarizingNoise`, or
    :meth:`NoiseModel.pauli <repro.qsim.noise.NoiseModel.pauli>`) is injected
    after every unitary instruction, on the qubits it touched.  Its error
    locations become extra phase-symbol columns, keeping the evolve-once /
    sample-all-shots path, unless the phase matrix would exceed
    :data:`MAX_SYMBOLIC_PHASE_CELLS` cells: then every shot re-evolves a
    concrete tableau with concretely sampled errors.
    """

    def __init__(self, seed: Optional[int] = None, noise_model: Optional[NoiseModel] = None):
        self._rng = np.random.default_rng(seed)
        self.noise_model = noise_model

    def run(
        self, circuit: QuantumCircuit, shots: int = 1024, memory: bool = False
    ) -> ExperimentResult:
        """Execute *circuit* for *shots* shots and return its :class:`ExperimentResult`.

        Counts are keyed by MSB-first classical-register bitstrings,
        identical to every other engine.  ``metadata`` names the method,
        with a ``fallback_reason`` when every shot re-evolved.
        """
        if shots <= 0:
            raise SimulationError("shots must be positive")
        check_unfused(circuit, self.noise_model)
        encoding = None
        if self.noise_model is not None:
            encoding = _pauli_channel_encoding(require_pauli(self.noise_model))
        ops, max_events, blocker = _compile(circuit, noise=encoding is not None)
        rng = self._rng

        noise_columns = 0
        if encoding is not None:
            per_qubit = 1 if encoding[0] == "single" else 2
            touches = sum(len(targets) for kind, _, targets, _ in ops if kind == "noise")
            noise_columns = per_qubit * touches
        derived_columns = sum(1 for kind, _, _, _ in ops if kind == "pauli")
        capacity = max_events + noise_columns + derived_columns
        method = "stabilizer" if encoding is None else "stabilizer_noisy"
        reason = None
        if blocker is not None:
            # only a Pauli leaves the x/z bit-matrix alone; any other
            # conditioned instruction makes the evolution itself branch
            reason = f"classically-conditioned non-Pauli instruction {blocker!r}"
        elif (
            encoding is not None
            and (2 * circuit.num_qubits + 1) * (1 + capacity) > MAX_SYMBOLIC_PHASE_CELLS
        ):
            reason = "symbolic phase frame over MAX_SYMBOLIC_PHASE_CELLS (see docs/noise.md)"
        if reason is not None:
            # also the path of a conditioned non-Pauli instruction (with or
            # without noise): each shot evaluates conditions against its own
            # row of clbit values
            values = np.zeros((shots, circuit.num_clbits), dtype=np.uint8)
            for bits in values:
                _evolve_concrete(ops, circuit.num_qubits, bits, rng, encoding)
            metadata = {"method": method + "_per_shot", "fallback_reason": reason}
            return tally(circuit, values, memory, metadata)

        tableau = StabilizerTableau(circuit.num_qubits, max_symbols=capacity)
        recorded: List[Tuple[int, np.ndarray]] = []
        latest: Dict[int, np.ndarray] = {}  # clbit -> its latest outcome expression
        unwritten = np.zeros(1 + capacity, dtype=np.uint8)  # a never-measured clbit reads 0
        specs: List[_SymbolSpec] = []
        gate_column = 0
        for kind, payload, targets, condition in ops:
            if kind == "gate":
                getattr(tableau, payload)(*targets)
            elif kind == "table":
                tableau.apply_pauli_table(payload, targets)
            elif kind == "initialize":
                tableau.initialize_basis(payload, targets)
            elif kind == "pauli":
                clbits, value = condition
                register = np.stack([latest.get(clbit, unwritten) for clbit in clbits])
                gate_column = tableau.allocate_symbol()
                specs.append(("derived", (register, value), None))
                for pauli, qubit in payload:
                    tableau.inject_pauli_symbol(qubit, pauli, gate_column)
            elif kind == "noise":
                # tableau column c is sampled column c - 1 (column 0 is the sign)
                gate = None if condition is None else gate_column - 1
                self._inject_symbolic(tableau, targets, encoding, specs, gate)
            elif kind == "measure":
                before = tableau._num_symbols
                latest[payload] = tableau._measure_symbolic(targets[0])
                recorded.append((payload, latest[payload]))
                if tableau._num_symbols > before:
                    specs.append(("uniform", None, None))
            else:  # reset
                before = tableau._num_symbols
                tableau._reset_symbolic(targets[0])
                if tableau._num_symbols > before:
                    specs.append(("uniform", None, None))
        values = np.zeros((shots, circuit.num_clbits), dtype=np.uint8)
        if recorded:
            outcomes = self._sample_outcomes(recorded, specs, shots, rng)
            for position, (clbit, _) in enumerate(recorded):
                values[:, clbit] = outcomes[:, position]  # later writes win
        return tally(circuit, values, memory, {"method": method})

    def session(self) -> "StabilizerSession":
        """A :class:`StabilizerSession` on this engine's RNG and noise model."""
        return StabilizerSession(self)

    def evolve(
        self, circuit: QuantumCircuit, collapse_measurements: bool = False
    ) -> StabilizerTableau:
        """Return the tableau after running *circuit* once, noiselessly.

        Measurements are skipped unless *collapse_measurements* is set (then
        they collapse using the simulator's RNG); resets always apply.  A
        noise model, or a classical condition without
        *collapse_measurements*, raises (see
        :func:`~repro.qsim.simulator.check_evolvable`).
        """
        check_evolvable(circuit, self.noise_model, collapse=collapse_measurements)
        ops, _, _ = _compile(circuit)
        bits = np.zeros(circuit.num_clbits, dtype=np.uint8)
        return _evolve_concrete(
            ops, circuit.num_qubits, bits, self._rng, collapse=collapse_measurements
        )

    # -- internals ---------------------------------------------------------------

    @staticmethod
    def _inject_symbolic(
        tableau: StabilizerTableau,
        targets: Sequence[int],
        encoding: Optional[Tuple[str, Any]],
        specs: List[_SymbolSpec],
        gate: Optional[int],
    ) -> None:
        """Allocate and wire the error symbols of one noise marker; *gate*
        is the sampled column of the condition it follows, if any."""
        if encoding is None:
            return
        if encoding[0] == "single":
            _, pauli, p = encoding
            for qubit in targets:
                tableau.inject_pauli_symbol(qubit, pauli, tableau.allocate_symbol())
                specs.append(("bernoulli", p, gate))
        else:
            for qubit in targets:
                tableau.inject_pauli_symbol(qubit, "X", tableau.allocate_symbol())
                tableau.inject_pauli_symbol(qubit, "Z", tableau.allocate_symbol())
                specs.append(("pair", encoding[1], gate))

    @staticmethod
    def _sample_outcomes(
        recorded: List[Tuple[int, np.ndarray]],
        specs: List[_SymbolSpec],
        shots: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Evaluate the affine outcome expressions for every shot at once."""
        exprs = np.stack([expr for _, expr in recorded])  # (M, 1 + capacity)
        constants = exprs[:, 0]
        num_symbols = sum(1 if spec[0] != "pair" else 2 for spec in specs)
        if num_symbols == 0:
            return np.tile(constants, (shots, 1))
        if all(spec[0] == "uniform" for spec in specs):
            # noiseless fast path: one draw, bit-identical to the pre-noise
            # engine for a given seed (regression seeds rely on this stream)
            bits = rng.integers(0, 2, size=(shots, num_symbols), dtype=np.int32)
        else:
            bits = np.empty((shots, num_symbols), dtype=np.int32)
            starts = []
            column = 0
            for kind, payload, _ in specs:
                starts.append(column)
                if kind == "uniform":
                    bits[:, column] = rng.integers(0, 2, size=shots, dtype=np.int32)
                elif kind == "bernoulli":
                    bits[:, column] = rng.random(shots) < payload
                elif kind == "pair":  # joint (X-part, Z-part) of one error location
                    p_x, p_y, p_z = payload
                    draw = rng.random(shots)
                    bits[:, column] = draw < (p_x + p_y)
                    bits[:, column + 1] = (draw >= p_x) & (draw < p_x + p_y + p_z)
                column += 2 if kind == "pair" else 1
            # a derived bit reads only earlier columns and a gated error only
            # an earlier condition column, so one pass in column order
            # settles both once every random column is drawn
            for (kind, payload, gate), column in zip(specs, starts):
                if kind == "derived":
                    bits[:, column] = _condition_bits(bits[:, :column], *payload)
                elif gate is not None:
                    width = 2 if kind == "pair" else 1
                    bits[:, column : column + width] &= bits[:, gate : gate + 1]
        coefficients = exprs[:, 1 : 1 + num_symbols].astype(np.int32)
        parity = (bits @ coefficients.T) & 1
        return (parity.astype(np.uint8)) ^ constants


class StabilizerSession:
    """One live tableau, built up one instruction at a time: the Qutes
    runtime's register on the stabilizer engine.

    ``allocate(k)`` appends *k* qubits in ``|0>``; ``apply`` runs one
    Clifford instruction (a non-Clifford one raises a
    :class:`SimulationError` naming it) and, under the engine's Pauli noise
    model, one concretely drawn error per touched qubit; ``measure``
    collapses the tableau with the engine's RNG; ``sample`` measures a copy
    of the tableau symbolically and evaluates the outcome expressions for
    every shot at once, leaving the live tableau untouched.
    """

    def __init__(self, engine: StabilizerSimulator):
        self.rng = engine._rng
        noise_model = engine.noise_model
        self._encoding = (
            None if noise_model is None else _pauli_channel_encoding(require_pauli(noise_model))
        )
        self.tableau = StabilizerTableau(0)

    def allocate(self, num_qubits: int) -> None:
        old, n = self.tableau, self.tableau.num_qubits
        new = StabilizerTableau(n + num_qubits)
        # the old qubits keep their destabilizer and stabilizer rows; the new
        # ones start as X_q / Z_q
        rows = np.r_[0:n, new.num_qubits : new.num_qubits + n]
        new.xs[rows, :n], new.zs[rows, :n] = old.xs[: 2 * n], old.zs[: 2 * n]
        new.phases[rows] = old.phases[: 2 * n]
        self.tableau = new

    def apply(self, instruction, qubits: Sequence[int]) -> None:
        kind, payload = _classify(instruction)
        targets = tuple(qubits)
        if kind == "passthrough":
            if isinstance(instruction, Measure):
                raise SimulationError("a session measures through measure(), not apply()")
            ops: List[_CompiledOp] = [] if isinstance(instruction, Barrier) else [
                ("reset", None, targets[:1], None)
            ]
        else:
            ops = _lower(kind, payload, targets, None, False, self._encoding is not None)
        for op in ops:
            _step_concrete(self.tableau, op, None, self.rng, self._encoding)

    def measure(self, qubits: Sequence[int]) -> int:
        outcome = 0
        for position, qubit in enumerate(qubits):
            outcome |= self.tableau.measure(qubit, rng=self.rng) << position
        return outcome

    def sample(self, qubits: Sequence[int], shots: int) -> Dict[int, int]:
        frame = self.tableau.copy()  # measured symbolically: one symbol per qubit at most
        frame.phases = np.zeros((frame.xs.shape[0], 1 + len(qubits)), dtype=np.uint8)
        frame.phases[:, 0] = self.tableau.phases[:, 0]
        recorded = [(position, frame._measure_symbolic(q)) for position, q in enumerate(qubits)]
        specs: List[_SymbolSpec] = [("uniform", None, None)] * frame._num_symbols
        outcomes = StabilizerSimulator._sample_outcomes(recorded, specs, shots, self.rng)
        rows, hits = np.unique(outcomes, axis=0, return_counts=True)
        return {
            sum(int(bit) << position for position, bit in enumerate(row)): int(count)
            for row, count in zip(rows, hits)
        }
