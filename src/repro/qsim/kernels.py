"""Specialized in-place gate kernels and the fast-path dispatcher.

The generic :meth:`repro.qsim.statevector.Statevector.apply_unitary` pays for
two full tensor transpositions (``moveaxis`` + contiguity copies) per gate.
The kernels in this module exploit the structure of the hot gate shapes so a
gate costs at most one vectorised pass over the statevector and no transpose:

* :func:`apply_single_qubit` -- any 1-qubit unitary via strided slice
  arithmetic on a 3-axis view ``(high, 2, low)`` of the flat state,
* :func:`apply_diagonal` -- diagonal gates (``z``, ``s``, ``t``, ``rz``,
  ``cz``, ``cp``, multi-controlled phases, ...) as pure phase multiplies on
  basis-aligned slices, skipping unit phases entirely (dense diagonals go
  through a single broadcast multiply instead of a per-entry loop),
* :func:`apply_controlled` -- controlled-1q gates (``cx``, ``ch``, ``crx``,
  ``ccx``, ``mcx`` ...) touching only the control-satisfied ``1/2^c`` fraction
  of the amplitudes,
* :func:`apply_two_qubit` -- dense 2-qubit unitaries (including the fused
  blocks produced by :mod:`repro.qsim.fusion`) without ``moveaxis``,
* :func:`apply_swap` -- (controlled) qubit swaps as slice exchanges.

:func:`apply_instruction` / :func:`apply_named_gate` are the dispatch layer:
they inspect an instruction (or gate name) and route it to the cheapest
kernel, returning ``False`` when only the generic path can handle it.  The
statevector and density-matrix engines, the language's circuit handler and
the benchmarks all dispatch through here.  :func:`basis_table` /
:func:`is_monomial` classify the gates that keep a basis state a basis state,
which both dense engines run on basis rows or populations instead of
amplitudes.

Temporaries come from :func:`scratch`, a per-thread pool of reusable
buffers, so no gate allocates half-state temporaries.

All kernels mutate the underlying buffer in place and assume the caller
(:class:`~repro.qsim.statevector.Statevector`) has validated qubit indices
and operator shapes.
"""

from __future__ import annotations

import functools
import threading
from typing import Sequence, Tuple

import numpy as np

from . import gates
from .instruction import (
    Barrier,
    ControlledGate,
    Gate,
    Instruction,
    Measure,
    Reset,
    UnitaryGate,
)

__all__ = [
    "apply_single_qubit",
    "apply_two_qubit",
    "apply_diagonal",
    "apply_controlled",
    "apply_swap",
    "apply_named_gate",
    "apply_instruction",
    "dense_apply",
    "basis_table",
    "gate_basis_table",
    "basis_lookup",
    "target_value",
    "is_monomial",
    "scratch",
]

#: diagonal and monomial detection is only attempted for operators up to
#: this many qubits (must cover the simulator's fusion budget so fused runs
#: of phase gates keep executing on the diagonal kernel; the check itself is
#: a cheap count_nonzero on at most a 64x64 matrix)
_MAX_DIAG_CHECK_QUBITS = 6


_SCRATCH = threading.local()


def scratch(shape: Tuple[int, ...], count: int = 3) -> tuple:
    """*count* disjoint complex buffers of *shape*, valid until the next call.

    The buffers are views into one per-thread pool that grows on demand: no
    kernel allocates temporaries per gate, independent simulators on
    different threads never share a buffer (numpy releases the GIL
    mid-kernel), and a thread retains at most ~1.5x the largest state it has
    simulated.  Each kernel uses the views within a single call only.
    """
    per_buffer = 1
    for dim in shape:
        per_buffer *= dim
    pool = getattr(_SCRATCH, "pool", None)
    if pool is None or pool.size < per_buffer * count:
        pool = _SCRATCH.pool = np.empty(per_buffer * count, dtype=complex)
    return tuple(
        pool[i * per_buffer : (i + 1) * per_buffer].reshape(shape) for i in range(count)
    )


def _qubit_view(data, num_qubits: int, qubits: Sequence[int]):
    """Reshape *data* so every qubit in *qubits* owns a length-2 axis.

    Returns ``(view, axes)`` where ``axes[q]`` is the axis of qubit ``q`` in
    the returned view.  The reshape is always a view: slicing it with basic
    indexing yields writable windows into the original buffer.
    """
    ordered = sorted(qubits)
    shape = []
    low = 0
    for q in ordered:
        shape.append(1 << (q - low))
        shape.append(2)
        low = q + 1
    shape.append(1 << (num_qubits - low))
    shape.reverse()
    view = data.reshape(shape)
    ndim = len(shape)
    axes = {q: ndim - 2 - 2 * i for i, q in enumerate(ordered)}
    return view, axes


def _is_x_matrix(matrix) -> bool:
    return (
        matrix[0, 0] == 0
        and matrix[1, 1] == 0
        and matrix[0, 1] == 1
        and matrix[1, 0] == 1
    )


#: below this inner-slice length the strided kernels lose to a BLAS matmul
_MIN_STRIDE = 16
#: with at most this many leading blocks a per-block matmul is cheapest
_MAX_GEMM_BLOCKS = 32


def dense_apply(data, num_qubits: int, matrix, targets):
    """moveaxis/reshape + BLAS application; returns a new contiguous array.

    The single implementation of the generic dense path:
    :meth:`Statevector.apply_unitary` rebinds its buffer to the result, while
    :func:`apply_two_qubit` copies it back in place.
    """
    k = len(targets)
    axes = [num_qubits - 1 - t for t in targets]
    psi = data.reshape((2,) * num_qubits)
    psi = np.moveaxis(psi, axes, range(k))
    tail_shape = psi.shape[k:]
    flat = psi.reshape(2**k, -1)
    flat = matrix @ flat
    flat = flat.reshape((2,) * k + tail_shape)
    return np.ascontiguousarray(np.moveaxis(flat, range(k), axes).reshape(-1))


def apply_single_qubit(data, num_qubits: int, matrix, qubit: int) -> None:
    """Apply a 2x2 unitary to *qubit* in place without a full-tensor transpose.

    Three regimes, chosen by where the qubit sits in the flat index:

    * high qubits (few leading blocks): one BLAS matmul per ``(2, low)`` block,
    * low qubits (tiny inner stride): one packed matmul against
      ``kron(matrix, I_low)`` -- strided slicing would thrash on short runs,
    * middle qubits: scalar-times-slice arithmetic on the ``(high, 2, low)``
      view, the cheapest path when the inner runs are long enough to vectorise.
    """
    low = 1 << qubit
    high = data.size >> (qubit + 1)
    view = data.reshape(-1, 2, low)
    if _is_x_matrix(matrix):
        a0 = view[:, 0, :]
        a1 = view[:, 1, :]
        (tmp,) = scratch(a1.shape, 1)
        np.copyto(tmp, a1)
        view[:, 1, :] = a0
        view[:, 0, :] = tmp
        return
    if high <= _MAX_GEMM_BLOCKS:
        for block in view:
            block[:] = matrix @ block
        return
    if low < _MIN_STRIDE:
        expanded = np.kron(matrix, np.eye(low, dtype=complex))
        packed = data.reshape(-1, 2 * low)
        packed[:] = packed @ expanded.T
        return
    a0 = view[:, 0, :]
    a1 = view[:, 1, :]
    s0, s1, s2 = scratch((high, low))
    np.multiply(a0, matrix[0, 0], out=s0)
    np.multiply(a1, matrix[0, 1], out=s1)
    np.add(s0, s1, out=s0)
    np.multiply(a0, matrix[1, 0], out=s1)
    np.multiply(a1, matrix[1, 1], out=s2)
    np.add(s1, s2, out=s1)
    view[:, 0, :] = s0
    view[:, 1, :] = s1


#: sparse/dense crossover for :func:`apply_diagonal`: with more non-unit
#: entries than this fraction of the diagonal, one broadcast multiply over
#: the whole state beats per-entry slice writes
_DIAG_DENSE_MIN_ENTRIES = 4


def apply_diagonal(data, num_qubits: int, diag, targets: Sequence[int]) -> None:
    """Multiply basis-aligned slices by the entries of a diagonal gate.

    ``diag[v]`` multiplies the amplitudes whose *targets* bits spell the value
    ``v`` with ``targets[0]`` as the most significant bit (the package's
    matrix-index convention).  Sparse diagonals such as ``cz`` or a
    multi-controlled phase skip unit entries entirely and cost a single slice
    multiply over their control-satisfied subspace; *dense* diagonals (fused
    phase runs, ``rzz``-style products) are applied as one broadcast multiply
    over the full state instead of one strided write per non-unit entry.
    """
    k = len(targets)
    if k == 1:
        low = 1 << targets[0]
        view = data.reshape(-1, 2, low)
        if diag[0] != 1:
            view[:, 0, :] *= diag[0]
        if diag[1] != 1:
            view[:, 1, :] *= diag[1]
        return
    view, axes = _qubit_view(data, num_qubits, targets)
    ndim = view.ndim
    nonunit = np.flatnonzero(diag != 1)
    if nonunit.size > _DIAG_DENSE_MIN_ENTRIES and 2 * int(nonunit.size) >= diag.size:
        # dense diagonal: broadcast the 2^k entries against the state's qubit
        # axes and multiply once.  Unit entries multiply by exactly 1.0, which
        # is an exact IEEE operation, so this stays bit-identical to the
        # sparse path.  ``diag`` axis j belongs to targets[j] (MSB first);
        # transpose into ascending view-axis order before aligning.
        tensor = diag.reshape((2,) * k)
        perm = sorted(range(k), key=lambda j: axes[targets[j]])
        bshape = [1] * ndim
        for target in targets:
            bshape[axes[target]] = 2
        view *= tensor.transpose(perm).reshape(bshape)
        return
    # iterate only the non-unit entries: a multi-controlled phase has one,
    # so e.g. a 21-control mcz costs a single slice multiply instead of a
    # 2^22-iteration Python loop
    for value in nonunit:
        value = int(value)
        index = [slice(None)] * ndim
        for position, target in enumerate(targets):
            index[axes[target]] = (value >> (k - 1 - position)) & 1
        view[tuple(index)] *= diag[value]


def apply_controlled(
    data,
    num_qubits: int,
    matrix,
    controls: Sequence[int],
    target: int,
) -> None:
    """Apply a 2x2 unitary to *target* on the slice where all *controls* are 1."""
    if not controls:
        apply_single_qubit(data, num_qubits, matrix, target)
        return
    view, axes = _qubit_view(data, num_qubits, (*controls, target))
    base = [slice(None)] * view.ndim
    for control in controls:
        base[axes[control]] = 1
    index0 = list(base)
    index0[axes[target]] = 0
    index1 = list(base)
    index1[axes[target]] = 1
    index0 = tuple(index0)
    index1 = tuple(index1)
    a0 = view[index0]
    a1 = view[index1]
    if _is_x_matrix(matrix):
        (tmp,) = scratch(a1.shape, 1)
        np.copyto(tmp, a1)
        view[index1] = a0
        view[index0] = tmp
        return
    if matrix[0, 1] == 0 and matrix[1, 0] == 0:
        # diagonal base (controlled-Z/P/RZ, mcz, mcp): pure phase multiplies
        # on the control-satisfied slices, no scratch needed
        if matrix[0, 0] != 1:
            a0 *= matrix[0, 0]
        if matrix[1, 1] != 1:
            a1 *= matrix[1, 1]
        return
    s0, s1, s2 = scratch(a0.shape)
    np.multiply(a0, matrix[0, 0], out=s0)
    np.multiply(a1, matrix[0, 1], out=s1)
    np.add(s0, s1, out=s0)
    np.multiply(a0, matrix[1, 0], out=s1)
    np.multiply(a1, matrix[1, 1], out=s2)
    np.add(s1, s2, out=s1)
    view[index0] = s0
    view[index1] = s1


def apply_two_qubit(
    data,
    num_qubits: int,
    matrix,
    target0: int,
    target1: int,
) -> None:
    """Apply a dense 4x4 unitary to ``(target0, target1)`` without transposes.

    *target0* is the most significant bit of the matrix index, matching
    :meth:`Statevector.apply_unitary`.  The strided slice path only pays off
    for sparse matrices (permutation-like gates, controlled rotations); dense
    matrices and low-qubit layouts go through one packed BLAS matmul instead.
    """
    if (1 << min(target0, target1)) < _MIN_STRIDE or np.count_nonzero(matrix) > 8:
        data[:] = dense_apply(data, num_qubits, matrix, (target0, target1))
        return
    view, axes = _qubit_view(data, num_qubits, (target0, target1))
    ndim = view.ndim
    slices = []
    indices = []
    for value in range(4):
        index = [slice(None)] * ndim
        index[axes[target0]] = (value >> 1) & 1
        index[axes[target1]] = value & 1
        index = tuple(index)
        indices.append(index)
        slices.append(view[index])
    buffers = scratch(slices[0].shape, 5)
    tmp = buffers[4]
    updated = []
    for row in range(4):
        acc = None
        for col in range(4):
            entry = matrix[row, col]
            if entry == 0:
                continue
            if acc is None:
                acc = buffers[row]
                np.multiply(slices[col], entry, out=acc)
            else:
                np.multiply(slices[col], entry, out=tmp)
                np.add(acc, tmp, out=acc)
        updated.append(acc)
    for row in range(4):
        if updated[row] is None:
            view[indices[row]] = 0.0
        else:
            view[indices[row]] = updated[row]


def apply_swap(
    data,
    num_qubits: int,
    qubit1: int,
    qubit2: int,
    controls: Sequence[int] = (),
    phase: complex = 1.0,
) -> None:
    """Exchange the |01> and |10> slices of two qubits (optionally controlled).

    *phase* multiplies the exchanged amplitudes, so ``phase=1j`` implements
    the ``iswap`` gate.
    """
    view, axes = _qubit_view(data, num_qubits, (*controls, qubit1, qubit2))
    base = [slice(None)] * view.ndim
    for control in controls:
        base[axes[control]] = 1
    index01 = list(base)
    index01[axes[qubit1]] = 0
    index01[axes[qubit2]] = 1
    index10 = list(base)
    index10[axes[qubit1]] = 1
    index10[axes[qubit2]] = 0
    index01 = tuple(index01)
    index10 = tuple(index10)
    (tmp,) = scratch(view[index01].shape, 1)
    np.copyto(tmp, view[index01])
    if phase == 1.0:
        view[index01] = view[index10]
        view[index10] = tmp
    else:
        view[index01] = phase * view[index10]
        view[index10] = phase * tmp


# ---------------------------------------------------------------------------
# Dispatch layer
# ---------------------------------------------------------------------------

def _matrix_diagonal(matrix):
    """The diagonal of *matrix* if it is exactly diagonal, else ``None``."""
    dim = matrix.shape[0]
    if dim > (1 << _MAX_DIAG_CHECK_QUBITS):
        return None
    diag = np.diagonal(matrix)
    if np.count_nonzero(matrix) != np.count_nonzero(diag):
        return None
    return diag


def basis_table(matrix):
    """How a *monomial* matrix acts on basis states, or ``None``.

    A matrix is monomial when every row and every column holds at most one
    nonzero entry (exactly one, for a unitary): ``x``, ``y``, ``z``, ``cx``,
    ``ccx``, ``swap``, ``s``, ``t``, ``cp``, Pauli and amplitude-damping Kraus
    operators.  It maps basis state ``col`` to ``factor[col]`` times basis
    state ``dest[col]`` (an all-zero column has factor 0), so it keeps a
    basis state a basis state and a diagonal ``rho`` diagonal.  The one
    monomial classifier: the batched executor's basis rows, the
    density-matrix population path and the analyzer all read it.  Results
    are read-only, and memoised for matrices of up to three qubits: the
    engines classify the same few gates on every run.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape[1] > _MAX_MEMO_DIM:
        return _classify(matrix)
    return _memo_basis_table(matrix.tobytes(), matrix.shape[1])


#: widest matrix whose basis table is memoised (bounds the memo's keys)
_MAX_MEMO_DIM = 8


@functools.lru_cache(maxsize=512)
def _memo_basis_table(data: bytes, dim: int):
    return _classify(np.frombuffer(data, dtype=complex).reshape(-1, dim))


def _classify(matrix: np.ndarray):
    dim = matrix.shape[1]
    rows, cols = np.nonzero(matrix)
    if len(set(rows.tolist())) < rows.size or len(set(cols.tolist())) < cols.size:
        return None
    dest = np.arange(dim)
    dest[cols] = rows
    factor = np.zeros(dim, dtype=complex)
    factor[cols] = matrix[rows, cols]
    dest.setflags(write=False)
    factor.setflags(write=False)
    return dest, factor


def gate_basis_table(operation: Instruction):
    """:func:`basis_table` of a unitary *operation*, or ``None`` when it is
    not unitary, not monomial, or wider than the engines lower to a table
    (the diagonal-detection bound: its matrix is never built)."""
    if not operation.is_unitary or operation.num_qubits > _MAX_DIAG_CHECK_QUBITS:
        return None
    return basis_table(operation.to_matrix())


def basis_lookup(table, targets: Sequence[int]) -> tuple:
    """A :func:`basis_table` in state-index bits, for a gate on *targets*:
    ``(targets, mask, moves, factor)``.  ``moves[v]`` spells ``dest[v]`` on
    the *targets* bits of a state index and *mask* covers them all; *moves*
    is ``None`` for a diagonal gate and *factor* ``None`` when every factor
    is exactly 1.  Memoised and read-only, like the table."""
    dest, factor = table
    return _basis_lookup(dest.tobytes(), factor.tobytes(), tuple(targets))


@functools.lru_cache(maxsize=1024)
def _basis_lookup(dest_data: bytes, factor_data: bytes, targets: tuple) -> tuple:
    dest = np.frombuffer(dest_data, dtype=np.int64).tolist()
    factor = np.frombuffer(factor_data, dtype=complex)
    k = len(targets)
    spread = [
        sum(((value >> (k - 1 - position)) & 1) << target for position, target in enumerate(targets))
        for value in range(1 << k)
    ]
    moves = None
    if dest != list(range(1 << k)):
        moves = np.array([spread[d] for d in dest])
        moves.setflags(write=False)
    return targets, spread[-1], moves, None if np.all(factor == 1) else factor


def target_value(index, targets: Sequence[int]):
    """The value the *targets* bits of every state *index* spell
    (``targets[0]`` most significant, the matrix convention)."""
    value = (index >> targets[0]) & 1
    for target in targets[1:]:
        value = (value << 1) | ((index >> target) & 1)
    return value


def is_monomial(operation: Instruction) -> bool:
    """Whether *operation* keeps a basis state a (phased) basis state: a
    barrier, measurement or reset, or a gate with a :func:`gate_basis_table`."""
    if isinstance(operation, (Barrier, Measure, Reset)):
        return True
    return gate_basis_table(operation) is not None


def apply_named_gate(
    state,
    name: str,
    params: Sequence[float],
    targets: Sequence[int],
) -> bool:
    """Apply the named gate through a specialized kernel if one exists.

    *state* is a :class:`~repro.qsim.statevector.Statevector`.  Returns
    ``True`` when a kernel handled the gate, ``False`` when the caller must
    fall back to the generic :meth:`Statevector.apply_unitary` path.  A gate
    whose declared operand count does not match its registry arity also
    returns ``False``, so the fallback raises the same shape error the
    generic path always has instead of corrupting the state.
    """
    data, num_qubits = state.data, state.num_qubits
    entry = gates.GATE_REGISTRY.get(name)
    if entry is not None and entry[0] != len(targets):
        return False
    diag_factory = gates.DIAGONAL_GATES.get(name)
    if diag_factory is not None:
        diag = diag_factory(*params)
        if diag.size != 1 << len(targets):
            return False
        apply_diagonal(data, num_qubits, diag, targets)
        return True
    controlled = gates.CONTROLLED_GATES.get(name)
    if controlled is not None:
        num_controls, base_factory = controlled
        if len(targets) != num_controls + 1:
            return False
        apply_controlled(
            data,
            num_qubits,
            base_factory(*params),
            targets[:num_controls],
            targets[num_controls],
        )
        return True
    if name == "swap" and len(targets) == 2:
        apply_swap(data, num_qubits, targets[0], targets[1])
        return True
    if name == "iswap" and len(targets) == 2:
        apply_swap(data, num_qubits, targets[0], targets[1], phase=1j)
        return True
    if name == "cswap" and len(targets) == 3:
        apply_swap(data, num_qubits, targets[1], targets[2], controls=(targets[0],))
        return True
    if entry is not None:
        arity, factory = entry
        if arity == 1:
            apply_single_qubit(data, num_qubits, factory(*params), targets[0])
            return True
        if arity == 2:
            apply_two_qubit(data, num_qubits, factory(*params), targets[0], targets[1])
            return True
    return False


def apply_instruction(state, operation: Instruction, targets: Sequence[int]) -> bool:
    """Fast-path dispatch for a bound circuit instruction.

    Routes *operation* to the cheapest kernel based on its structure; returns
    ``False`` (without touching the state) when only the generic
    ``apply_unitary`` fallback can simulate it.
    """
    if not operation.is_unitary:
        return False
    if len(targets) != operation.num_qubits:
        return False
    data, num_qubits = state.data, state.num_qubits
    if isinstance(operation, ControlledGate):
        base = operation.base_gate
        # a UnitaryGate's name is a free-form label, so only its matrix (never
        # its name) may be trusted for structure detection
        if base.num_qubits == 1:
            # diagonal bases are caught by apply_controlled's phase special
            # case, so a single dispatch covers mcz/mcp/crz and dense bases
            apply_controlled(data, num_qubits, base.to_matrix(), targets[:-1], targets[-1])
            return True
        if base.name == "swap" and not isinstance(base, UnitaryGate):
            apply_swap(data, num_qubits, targets[-2], targets[-1], controls=targets[:-2])
            return True
        return False
    if isinstance(operation, UnitaryGate):
        matrix = operation.to_matrix()
        if operation.num_qubits == 1:
            apply_single_qubit(data, num_qubits, matrix, targets[0])
            return True
        diag = _matrix_diagonal(matrix)
        if diag is not None:
            apply_diagonal(data, num_qubits, diag, targets)
            return True
        if operation.num_qubits == 2:
            apply_two_qubit(data, num_qubits, matrix, targets[0], targets[1])
            return True
        return False
    if isinstance(operation, Gate):
        return apply_named_gate(state, operation.name, operation.params, targets)
    return False
