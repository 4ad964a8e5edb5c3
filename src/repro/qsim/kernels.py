"""The gate kernels shared by every dense engine.

A gate is *lowered* once into a **step** -- a plain tuple whose element 0
names its kind -- and the step is applied in place to every row of a
``(rows, 2^n)`` array of amplitudes.  A single state is a one-row view of
the same kernels, so the sampled statevector path, the batched trajectory
executor (:mod:`repro.qsim.shotbatch`), the density matrix's ``2n``-qubit
vector, the statevector session and :meth:`Statevector.apply_unitary`
all run one kernel set.  The step kinds:

* ``("diag", shape, entries, lookup)`` -- one slice multiply per non-unit
  diagonal entry (``z``, ``s``, ``t``, ``rz``, ``cz``, ``cp``, ``mcz``, ...);
* ``("diag_full", factor)`` -- a diagonal whose entries cover much of the
  state, baked into one ``(2^n,)`` factor and applied as a single
  contiguous broadcast multiply;
* ``("perm", shape, indices, moves, lookup)`` -- a monomial gate (``x``,
  ``cx``, ``swap``, ``iswap``, ``ccx``, ...): snapshot the moved slices,
  then one (scaled) copy per output slice;
* ``("dense", shape, indices, rows)`` -- any other one-qubit unitary, as
  scalar-times-slice accumulation over its nonzero entries (a ladder of
  elementwise multiplies and adds);
* ``("product", shape, pinned, order, blocks, plans)`` -- any other
  unitary of two or more qubits (counting pinned controls), with every
  qubit it only reads split off (:func:`_split_blocks`): pinned to 1 where
  its block at 0 is the identity (``ch``, ``crx``), else a batch axis of
  ``(2^b, d, d)`` stacked *blocks*.  One transposing copy moves the batch
  and target axes to the front, one stacked ``np.matmul`` computes every
  row's products, and one transposing copy moves the result back (or the
  statevector session keeps it where it is, below);
* ``("wide", matrix, targets)`` -- a non-controlled unitary wider than
  :data:`MAX_LOWERED_QUBITS`, row by row through :func:`dense_apply`.

``shape`` gives every qubit the gate touches its own length-2 axis and
leaves the leading block axis to ``reshape`` (``-1``), so one step fits any
register width; ``indices`` select the slice of each matrix index, while a
``product`` step's ``pinned`` index and ``order`` transpose put the gate's
axes first in matrix order (batch axes, then ``targets[0]`` most
significant), and *plans* memoises, per row size, the copy's axis order
and where each bit of the row lands (:func:`_product_plan`).  A
:class:`~repro.qsim.instruction.ControlledGate` wider than
:data:`MAX_LOWERED_QUBITS` lowers its base gate with the control axes
pinned to 1, so a 20-control ``mcx`` touches only its ``1/2^20`` slice and
never builds its matrix.

The batched executor's bit-identity contract -- every row computes exactly
what a one-row application would -- rests on two properties.  The
``diag``, ``perm`` and ``dense`` kernels are elementwise in a fixed order.
A ``product`` step runs one BLAS product per row whose column count is a
multiple of 4: the ``2^(w-k)`` columns of a ``w``-qubit row are padded to 4
when there are only 1 or 2.  On such products each column's bits do not
depend on the column count, and a product whose zero input rows are
dropped (a restriction, or pinned controls) gives the kept rows of the full
product, bit for bit; narrower products run BLAS's narrow kernels, which
round differently (``tests/qsim/test_kernels.py`` checks both on the host
BLAS).  So what a ``product`` gate leaves after pinning its controls, or
after a session restricts it to the operands that are not bits, runs as a
product too, even one qubit wide or monomial (``lower(..., product=True)``);
the 2x2 ladder runs only a gate that is itself one qubit wide.  Stacked
blocks keep the bits for the same reason: each output sums the same
nonzero terms in the same order as the whole matrix's product, and only
terms whose matrix entry is zero are dropped.

The statevector session runs a ``product`` step through
:func:`apply_product_unordered`, which writes the products over the row
itself, in the order they come out (the gate's axes first), instead of
copying them back: the session's axis map follows, and :func:`reorder_bits`
puts the row back in ascending qubit order before anything reads it.

:func:`lower` memoises the width-independent steps in a bounded memo keyed
on the matrix bytes and the targets.  A ``diag_full`` factor holds ``2^n``
amplitudes: it is built only for a plan that applies the step to many rows
(the batched executor), on every call, and never memoised.
:func:`apply_gate` is the single-state entry point (:func:`lower`, then
:func:`apply_step`).

It is the one module that maps qubits to tensor axes: besides
:func:`dense_apply` and fusion's :func:`block_product`, :func:`marginal`
sums per-basis-state weights over the values of some qubits,
:func:`place` sets qubits in ``|0...0>`` to given amplitudes and
:func:`reorder_bits` permutes the bits of a row index.

:func:`basis_table` / :func:`is_monomial` classify the gates that keep a
basis state a basis state, which both dense engines run on basis rows or
populations instead of amplitudes; :func:`restrict` gives a gate's action
while some of its operands hold basis values, which the statevector
session keeps as bits outside its amplitudes.  Temporaries come from
:func:`scratch`, a per-thread pool of reusable buffers, so no gate
allocates half-state temporaries.
"""

from __future__ import annotations

import functools
import math
import threading
from typing import Optional, Sequence, Tuple

import numpy as np

from .exceptions import SimulationError
from .instruction import Barrier, ControlledGate, Instruction, Measure, Reset

__all__ = [
    "MAX_LOWERED_QUBITS",
    "lower",
    "apply_step",
    "apply_gate",
    "dense_apply",
    "block_product",
    "marginal",
    "place",
    "basis_table",
    "gate_basis_table",
    "basis_lookup",
    "target_value",
    "is_monomial",
    "restrict",
    "scratch",
    "apply_product_unordered",
    "reorder_bits",
]

#: widest gate lowered to a diag / perm / dense step (2^k slices per gate)
#: and classified as monomial; wider non-controlled unitaries are ``wide``
#: steps.  Covers the simulator's fusion budget, so fused runs of phase
#: gates stay diagonal.
MAX_LOWERED_QUBITS = 6


_SCRATCH = threading.local()


def scratch(shape: Tuple[int, ...], count: int = 3) -> tuple:
    """*count* disjoint complex buffers of *shape*, valid until the next call.

    The buffers are views into one per-thread pool that grows on demand: no
    kernel allocates temporaries per gate, independent simulators on
    different threads never share a buffer (numpy releases the GIL
    mid-kernel), and a thread retains at most about twice the largest state
    (or batch) it has simulated: a one-qubit ``dense`` step snapshots both
    halves and sums into two more, and a ``product`` step copies the state
    into one buffer and computes into a second.  Each kernel uses the views
    within a single call only.
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


def _in_order_batches(size: int, axes: Sequence[int]) -> Optional[Tuple[int, int]]:
    """``(batches, columns)`` when a product on *axes* of a *size*-amplitude
    vector runs as one batched matmul with no transpose and the same bits:
    consecutive axes in order, and either one batch or at least 4 columns
    (several products narrower than 4 columns run BLAS's narrow kernels,
    which round differently from the one wide product of the other path)."""
    k = len(axes)
    first = axes[0] if k else 0
    batches, columns = 1 << first, size >> (first + k)
    if list(axes) == list(range(first, first + k)) and (batches == 1 or columns >= 4):
        return batches, columns
    return None


def dense_apply(data, num_qubits: int, matrix, targets):
    """moveaxis/reshape + BLAS application; returns a new contiguous array.

    What a ``wide`` step runs on each row, what a density matrix's Kraus
    superoperator runs on, and the reference the kernel tests compare
    every step against.  Targets on consecutive axes in order
    (``targets[0]`` the highest, each next one one lower) take one batched
    matmul over the leading axes, with no transpose, when that gives the
    same bits.  The product runs through :func:`_matmul`, in the column
    chunks ``product`` steps use, with the bits of one whole product.
    """
    k = len(targets)
    axes = [num_qubits - 1 - t for t in targets]
    batched = _in_order_batches(data.size, axes)
    if batched is not None:
        batches, columns = batched
        return _matmul(matrix, data.reshape(batches, 1 << k, columns)).reshape(-1)
    psi = data.reshape((2,) * num_qubits)
    psi = np.moveaxis(psi, axes, range(k))
    tail_shape = psi.shape[k:]
    flat = _matmul(matrix, psi.reshape(2**k, -1))
    flat = flat.reshape((2,) * k + tail_shape)
    return np.ascontiguousarray(np.moveaxis(flat, range(k), axes).reshape(-1))


def _matmul(matrix, operand, out=None):
    """``matrix @ operand`` into *out* (a new array when ``None``), with each
    BLAS call chunked to at most :data:`_MAX_PRODUCT_MACS` multiply-adds.

    *operand* is ``(..., 2^b * d, columns)``: *matrix* is one ``d x d``
    matrix, or ``2^b`` stacked blocks ``(2^b, d, d)``, block ``v`` acting on
    rows ``v * d`` to ``v * d + d - 1``.  The columns are cut into chunks of
    at least :data:`_MIN_PRODUCT_COLUMNS` (or all of them, when fewer), each
    one stacked call: a column's bits do not depend on how many columns
    share its call, so every chunking gives the bits of one whole product.
    """
    if out is None:
        out = np.empty(operand.shape, dtype=complex)
    *lead, stack, columns = operand.shape
    dim = matrix.shape[-1]
    chunk = min(columns, max(_MIN_PRODUCT_COLUMNS, _MAX_PRODUCT_MACS // (dim * dim)))
    shape = (*lead, stack // dim, dim, columns // chunk, chunk)
    n = len(lead)
    # (..., chunks, blocks, d, chunk): the blocks broadcast over the chunks
    axes = (*range(n), n + 2, n, n + 1, n + 3)
    np.matmul(
        matrix, operand.reshape(shape).transpose(axes), out=out.reshape(shape).transpose(axes)
    )
    return out


@functools.lru_cache(maxsize=256)
def _gather_order(num_qubits: int, axes: Tuple[int, ...]) -> np.ndarray:
    """The flat indices in the order :func:`dense_apply` lays out the
    operand of its matmul: the *axes* moved to the front."""
    order = np.arange(1 << num_qubits).reshape((2,) * num_qubits)
    order = np.moveaxis(order, axes, range(len(axes))).reshape(-1)
    order.flags.writeable = False
    return order


def block_product(factors, k: int) -> np.ndarray:
    """The ``2^k x 2^k`` product of *factors* applied in order, each a
    ``(matrix, positions)`` pair whose *positions* index the block's ``k``
    qubits (position 0 the most significant bit of a matrix index).

    How fusion builds a block: each factor multiplies the product from the
    left, as :func:`dense_apply` on the product's ``2k``-qubit flattening
    would, with the same bits.  Where that takes its transposing path, a
    memoised gather feeds the same contiguous operand to the same matmul
    and a scatter puts the result back.
    """
    num_qubits = 2 * k
    product = np.eye(1 << k, dtype=complex).reshape(-1)
    for matrix, positions in factors:
        # a factor's row bit is 2k - 1 - position, so its axis is the position
        axes = tuple(positions)
        rows = 1 << len(axes)
        batched = _in_order_batches(product.size, axes)
        if batched is not None:
            batches, columns = batched
            product = np.matmul(matrix, product.reshape(batches, rows, columns)).reshape(-1)
            continue
        order = _gather_order(num_qubits, axes)
        result = np.empty_like(product)
        result[order] = (matrix @ product[order].reshape(rows, -1)).reshape(-1)
        product = result
    return product.reshape(1 << k, 1 << k)


def _little_endian_axes(num_qubits: int, targets: Sequence[int]) -> list:
    """The axes of the ``(2,) * num_qubits`` view that *targets* occupy, in
    the order that puts ``targets[0]`` (the least significant bit) last
    when moved to the front: the front index is then the little-endian
    value over *targets*, the way registers encode integers."""
    return [num_qubits - 1 - t for t in reversed(targets)]


def marginal(weights, num_qubits: int, targets: Sequence[int]):
    """The sums of the real per-basis-state *weights* (``|amplitude|^2``, or
    the diagonal of ``rho``) over every value of *targets*: element ``v``
    is the weight of reading the little-endian value ``v``."""
    k = len(targets)
    tensor = weights.reshape((2,) * num_qubits)
    tensor = np.moveaxis(tensor, _little_endian_axes(num_qubits, targets), range(k))
    return tensor.reshape(2**k, -1).sum(axis=1)


def place(data, num_qubits: int, amplitudes, targets: Sequence[int]):
    """The state *data* with *targets*, all ``|0>``, set to *amplitudes*
    (little-endian over *targets*, as :func:`marginal` reads them): the
    product of the rest of the state with *amplitudes*.  Returns a new
    contiguous array."""
    k = len(targets)
    axes = _little_endian_axes(num_qubits, targets)
    psi = np.moveaxis(data.reshape((2,) * num_qubits), axes, range(k))
    tail_shape = psi.shape[k:]
    rest = psi.reshape(2**k, -1)[0]
    block = amplitudes[:, None] * rest
    psi = np.moveaxis(block.reshape((2,) * k + tail_shape), range(k), axes)
    return np.ascontiguousarray(psi.reshape(-1))


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
    if not operation.is_unitary or operation.num_qubits > MAX_LOWERED_QUBITS:
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


# ---------------------------------------------------------------------------
# Steps: lowering and the step kernels
# ---------------------------------------------------------------------------


def _axis_layout(qubits: Sequence[int]):
    """The view giving every qubit in *qubits* its own length-2 axis: its
    shape without the leading row axis (the highest block left to
    ``reshape`` as ``-1``), the axis map ``axes[q]`` into the view with the
    row axis, and that view's dimension count."""
    ordered = sorted(qubits)
    shape = []
    low = 0
    for q in ordered:
        shape.append(1 << (q - low))
        shape.append(2)
        low = q + 1
    shape.append(-1)
    shape.reverse()
    ndim = len(shape) + 1  # + leading row axis
    axes = {q: ndim - 2 - 2 * i for i, q in enumerate(ordered)}
    return tuple(shape), axes, ndim


def _value_index(base: list, axes, targets: Sequence[int], value: int) -> tuple:
    """The view index *base* with the *targets* axes selecting the slice
    whose bits spell *value* (``targets[0]`` most significant, matching the
    matrix convention)."""
    k = len(targets)
    index = list(base)
    for position, target in enumerate(targets):
        index[axes[target]] = (value >> (k - 1 - position)) & 1
    return tuple(index)


def _split_blocks(matrix: np.ndarray, targets: tuple) -> Tuple[tuple, tuple, tuple, np.ndarray]:
    """Split off the qubits of *targets* in which *matrix*, which is not
    monomial, mixes nothing across their two values (it only reads them);
    a matrix that reads every qubit is diagonal, so at least a ``2 x 2``
    block remains.  A qubit whose block at 0 is the identity is a control,
    pinned to 1: ``ch``, ``crx``, ``cu`` blocks run on half the state.  Any
    other is a batch axis: its two blocks are stacked, each on its half.

    Returns ``(controls, batch, targets, blocks)``: the other *targets* and
    the blocks *matrix* applies where every control reads 1, one ``d x d``
    matrix, or ``(2^b, d, d)`` stacked over the *batch* values (the first
    batch qubit most significant).  Each output then sums the same nonzero
    terms in the same order as the whole matrix's product; only terms whose
    matrix entry is zero are dropped.
    """
    k = len(targets)
    rows, cols = np.nonzero(matrix)
    # the bits in which some nonzero entry's row and column differ: the
    # qubits the matrix mixes
    mixed = int(np.bitwise_or.reduce(rows ^ cols)) if rows.size else 0
    reads = [p for p in range(k) if not (mixed >> (k - 1 - p)) & 1]
    controls: list = []
    batch: list = []
    blocks = matrix[None]
    for removed, original in enumerate(reads):
        position = original - removed  # the earlier reads are gone
        count, half = blocks.shape[0], blocks.shape[1] // 2
        low = half >> position
        view = blocks.reshape(count, 1 << position, 2, low, 1 << position, 2, low)
        zero = view[:, :, 0, :, :, 0].reshape(count, half, half)
        one = view[:, :, 1, :, :, 1].reshape(count, half, half)
        if (zero == np.eye(half)).all():
            controls.append(targets[original])
            blocks = one
        else:
            batch.append(targets[original])
            blocks = np.stack([zero, one], axis=1).reshape(2 * count, half, half)
    targets = tuple(t for p, t in enumerate(targets) if p not in reads)
    return tuple(controls), tuple(batch), targets, blocks if batch else blocks[0]


def _product_step(blocks: np.ndarray, targets: tuple, controls: tuple, batch: tuple) -> tuple:
    """The ``product`` step of *blocks* (see :func:`_split_blocks`) on
    *targets*, on the slice where every qubit of *controls* reads 1."""
    blocks = np.array(blocks)
    blocks.setflags(write=False)
    shape, pinned, order, plans = _product_geometry(targets, controls, batch)
    return ("product", shape, pinned, order, blocks, plans)


@functools.lru_cache(maxsize=1024)
def _product_geometry(targets: tuple, controls: tuple, batch: tuple) -> tuple:
    """The view ``shape``, ``pinned`` index and ``order`` transpose of a
    product step on these qubits, and the memo of its plans per row size
    (:func:`_product_plan`), shared by every step on the same qubits: none
    of it depends on the matrix."""
    shape, axes, ndim = _axis_layout(controls + batch + targets)
    base: list = [slice(None)] * ndim
    for control in controls:
        base[axes[control]] = 1
    # pinning drops the control axes: the ones after them shift down
    pinned_axes = [axes[control] for control in controls]
    kept = [a for a in range(ndim) if a not in pinned_axes]
    front = [kept.index(axes[qubit]) for qubit in batch + targets]
    order = (0, *front, *(a for a in range(1, len(kept)) if a not in front))
    return shape, tuple(base) if controls else (), order, {}


def _lower_matrix(
    matrix: np.ndarray, targets: tuple, controls: tuple, product: bool
) -> Tuple[tuple, bool]:
    """*matrix* on *targets*, on the slice where every qubit of *controls*
    reads 1, as a ``diag`` / ``perm`` / ``dense`` / ``product`` step with its
    indices baked in; plus whether a ``diag`` step runs as a ``diag_full``
    factor.  A matrix that is not monomial is a ``product`` step unless it
    is one qubit wide with no controls (a ``dense`` ladder), with the qubits
    it only reads pinned or stacked (:func:`_split_blocks`); *product* makes any
    matrix a ``product`` step.

    A control-pinned step carries no basis lookup (basis rows never run it).
    """
    dim = matrix.shape[0]
    table = basis_table(matrix)
    if product or (table is None and (controls or dim > 2)):
        more: tuple = ()
        batch: tuple = ()
        if table is None:
            more, batch, targets, matrix = _split_blocks(matrix, targets)
        return _product_step(matrix, targets, controls + more, batch), False
    qubits = controls + targets
    shape, axes, ndim = _axis_layout(qubits)
    base: list = [slice(None)] * ndim
    for control in controls:
        base[axes[control]] = 1
    indices = [_value_index(base, axes, targets, value) for value in range(dim)]
    if table is None:
        rows: list = [(row, []) for row in range(dim)]
        nonzero_rows, nonzero_cols = np.nonzero(matrix)
        entries = matrix[nonzero_rows, nonzero_cols]
        for row, col, entry in zip(nonzero_rows.tolist(), nonzero_cols.tolist(), entries):
            rows[row][1].append((col, entry))
        return ("dense", shape, indices, rows), False
    dest, factor = table
    lookup = None if controls else basis_lookup(table, targets)
    if np.array_equal(dest, np.arange(dim)):  # diagonal
        entries = [(indices[v], factor[v]) for v in np.flatnonzero(factor != 1).tolist()]
        # Low-qubit slices have short strided runs that thrash; when the
        # entries cover a large fraction of the state anyway, bake the whole
        # diagonal into one (2^n,) factor and apply it as a single contiguous
        # broadcast multiply.  Untouched amplitudes multiply by exactly 1.0,
        # so the result stays bitwise identical to the per-entry slices.  A
        # control-pinned diagonal covers at most half the state: slices.
        full = bool(entries) and not controls and (
            len(entries) > 4 or ((1 << min(targets)) < 32 and 4 * len(entries) >= dim)
        )
        return ("diag", shape, entries, lookup), full
    # permutation-like gate (x, cx, swap, iswap, cy, ...): each output slice
    # is one scaled input slice -- snapshot + write, no accumulate.  Identity
    # moves (the control-0 slices of a cx) are dropped so the gate only
    # touches the slices it permutes.
    moves = [
        (int(dest[col]), col, factor[col])
        for col in range(dim)
        if not (dest[col] == col and factor[col] == 1)
    ]
    return ("perm", shape, indices, moves, lookup), False


#: widest matrix whose step is memoised, and how many steps the memo keeps:
#: a 4-qubit dense step (the fusion budget's widest) holds 256 entries, so
#: the memo stays within a few MB
_MAX_MEMO_STEP_DIM = 16
_STEP_MEMO_SIZE = 256


@functools.lru_cache(maxsize=_STEP_MEMO_SIZE)
def _memo_step(
    data: bytes, dim: int, targets: tuple, controls: tuple, product: bool
) -> Tuple[tuple, bool]:
    matrix = np.frombuffer(data, dtype=complex).reshape(dim, dim)
    return _lower_matrix(matrix, targets, controls, product)


def restrict(matrix, positions: Sequence[int], values: Sequence[int]):
    """How the square *matrix* acts while its qubits at *positions* (0 the
    most significant bit of a matrix index) hold the basis *values*, or
    ``None`` when what they hold afterwards depends on the other qubits.

    Returns ``(outputs, restricted, dense)``: the basis values those qubits
    hold afterwards, the matrix on the other qubits (in their order) between
    the columns that read *values* and the rows that read *outputs*, and
    whether *matrix* is not monomial, so that *restricted* must run as a
    product (``lower(..., product=True)``) to round as *matrix*'s own
    ``product`` step does.  *restricted* is ``None`` when it is the
    identity; a ``1 x 1`` one is the phase the gate puts on the whole
    state.  Memoised
    and read-only, like the steps of :func:`lower`: the statevector session
    restricts the same few small gates over and over.
    """
    matrix = np.asarray(matrix, dtype=complex)
    return _memo_restrict(matrix.tobytes(), matrix.shape[0], tuple(positions), tuple(values))


@functools.lru_cache(maxsize=_STEP_MEMO_SIZE)
def _memo_restrict(data: bytes, dim: int, positions: tuple, values: tuple):
    matrix = np.frombuffer(data, dtype=complex).reshape(dim, dim)
    shifts = [dim.bit_length() - 2 - position for position in positions]

    def read(index: int) -> tuple:
        return tuple((index >> shift) & 1 for shift in shifts)

    columns = [col for col in range(dim) if read(col) == values]
    outputs = {read(row) for col in columns for row in np.flatnonzero(matrix[:, col]).tolist()}
    if len(outputs) != 1:
        return None
    (output,) = outputs
    rows = [row for row in range(dim) if read(row) == output]
    restricted = matrix[np.ix_(rows, columns)]
    dense = basis_table(matrix) is None
    if np.array_equal(restricted, np.eye(len(rows))):
        return output, None, dense
    restricted.setflags(write=False)
    return output, restricted, dense


def lower(
    gate, targets: Sequence[int], num_qubits: Optional[int] = None, product: bool = False
) -> tuple:
    """*gate* -- an :class:`~repro.qsim.instruction.Instruction` or a
    ``2^k x 2^k`` matrix -- on the qubits *targets*, as one step (see the
    module docstring).  *product* makes any matrix a ``product`` step: for
    a matrix a session restricts from a ``product`` gate (one of two or more
    qubits that is not monomial), so it computes what that gate's product
    computes, even where the restriction is one qubit wide or monomial.

    Raises :class:`SimulationError` when the matrix does not match the
    targets.  A :class:`ControlledGate` wider than
    :data:`MAX_LOWERED_QUBITS` is lowered as its base gate with the control
    axes pinned to 1.  Steps of matrices up to 4 qubits come from a bounded
    memo.  Given the state's *num_qubits*, a diagonal whose entries cover
    much of the state comes back as a ``diag_full`` factor, built on every
    call: worth it for a step applied to many rows or batches (the batched
    executor's plan), not for one application.
    """
    targets = tuple(targets)
    controls: tuple = ()
    if isinstance(gate, Instruction):
        if (
            isinstance(gate, ControlledGate)
            and gate.num_qubits > MAX_LOWERED_QUBITS
            and gate.base_gate.num_qubits <= MAX_LOWERED_QUBITS
        ):
            controls, targets = targets[: gate.num_controls], targets[gate.num_controls :]
            gate = gate.base_gate
        gate = gate.to_matrix()
    matrix = np.asarray(gate, dtype=complex)
    if matrix.shape != (1 << len(targets),) * 2:
        raise SimulationError(
            f"matrix shape {matrix.shape} does not match {len(targets)} target qubits"
        )
    if len(targets) > MAX_LOWERED_QUBITS:
        return ("wide", matrix, targets)
    if matrix.shape[0] <= _MAX_MEMO_STEP_DIM:
        step, full = _memo_step(matrix.tobytes(), matrix.shape[0], targets, controls, product)
    else:
        step, full = _lower_matrix(matrix, targets, controls, product)
    if not full or num_qubits is None:
        return step
    factor = np.ones(1 << num_qubits, dtype=complex)
    view = factor.reshape((1, *step[1]))
    for index, value in step[2]:
        view[index] = value
    return ("diag_full", factor)


def _apply_diag_batched(states, shape, entries) -> None:
    """Per-entry slice phase multiplies over the whole batch (unit entries
    were dropped at lowering time)."""
    view = states.reshape((states.shape[0], *shape))
    for index, value in entries:
        view[index] *= value


def _apply_diag_full_batched(states, factor) -> None:
    """One contiguous broadcast multiply of a full-state diagonal factor."""
    np.multiply(states, factor, out=states)


def _apply_perm_batched(states, shape, indices, moves) -> None:
    """Permutation gate: snapshot every source slice, then one write per row.

    ``entry`` is always unit-modulus here; a plain ``copyto`` handles the
    ``entry == 1`` case and a single scalar multiply the phased ones, so the
    whole gate costs two passes over its slices instead of the generic
    multiply-accumulate's four-plus.
    """
    view = states.reshape((states.shape[0], *shape))
    touched = sorted({col for _, col, _ in moves})
    slot = {col: i for i, col in enumerate(touched)}
    buffers = scratch(view[indices[0]].shape, max(len(touched), 1))
    for col in touched:
        np.copyto(buffers[slot[col]], view[indices[col]])
    for row, col, entry in moves:
        if entry == 1:
            np.copyto(view[indices[row]], buffers[slot[col]])
        else:
            np.multiply(buffers[slot[col]], entry, out=view[indices[row]])


def _apply_dense_batched(states, shape, indices, rows) -> None:
    """Scalar-times-slice accumulation of a one-qubit unitary over the batch.

    Fixed accumulation order (ascending column, zeros dropped at lowering)
    and purely elementwise arithmetic: the value computed for one shot row
    never depends on the batch size, which is what makes every batch split
    bit-identical.
    """
    view = states.reshape((states.shape[0], *shape))
    dim = len(indices)
    # snapshot every input slice into contiguous scratch first: the strided
    # state memory is then read exactly once and written exactly once per
    # gate, the multiply/add ladder runs contiguous-to-contiguous, and each
    # output slice can be written as soon as it is summed
    buffers = scratch(view[indices[0]].shape, dim + 2)
    snap = buffers[:dim]
    acc, tmp = buffers[dim], buffers[dim + 1]
    for col in range(dim):
        np.copyto(snap[col], view[indices[col]])
    for row, cols in rows:
        for position, (col, entry) in enumerate(cols):
            if position == 0:
                np.multiply(snap[col], entry, out=acc)
            else:
                np.multiply(snap[col], entry, out=tmp)
                np.add(acc, tmp, out=acc)
        view[indices[row]] = acc if cols else 0.0


#: the fewest columns a ``product`` step hands BLAS: narrower products run
#: kernels that round differently from those of wider ones
_MIN_PRODUCT_COLUMNS = 4

#: the most multiply-adds (rows x inner x columns) one BLAS call of
#: :func:`_matmul` runs (``product`` steps and :func:`dense_apply`).
#: OpenBLAS (0.3.31) starts its threads at 65,536; on a 2-vCPU host a
#: process sometimes gets threaded complex products 40x slower than one
#: thread (7 ms for a 4 x 4 x 16,384 product), for its whole life, so wider
#: products run as several single-threaded calls
_MAX_PRODUCT_MACS = 1 << 15


def _product_plan(step: tuple, size: int) -> tuple:
    """How the ``product`` *step* runs on rows of *size* amplitudes,
    memoised in its *plans*, which every step on the same qubits shares:
    ``(transpose, columns, layout)``.

    *transpose* orders the axes of the row view with the step's axes first
    (batch axes, then its targets in matrix order) and the other blocks
    after them, the largest innermost, which gives the copies their longest
    runs; *columns* is the count of those other values.  For a step that
    pins nothing, ``layout[b]`` is the bit of a row index that bit ``b``
    lands on when the products are left in that order (``None`` otherwise).
    """
    plans = step[5]
    plan = plans.get(size)
    if plan is None:  # racing threads compute the same plan
        plan = plans[size] = _compute_plan(step, size)
    return plan


def _compute_plan(step: tuple, size: int) -> tuple:
    _, shape, pinned, order, blocks, _ = step
    sizes = [1, -size // math.prod(shape), *shape[1:]]  # the view's axes, row axis first
    kept = [dim for dim, index in zip(sizes, pinned) if isinstance(index, slice)] if pinned else sizes
    front = (blocks.size // blocks.shape[-1]).bit_length()  # row axis + gate axes
    transpose = order[:front] + tuple(sorted(order[front:], key=kept.__getitem__))
    columns = math.prod(kept[axis] for axis in transpose[front:])
    if pinned:
        return transpose, columns, None
    bits = [dim.bit_length() - 1 for dim in kept]
    low = [0] * len(kept)  # the lowest row bit of each axis
    for axis in range(len(kept) - 2, 0, -1):
        low[axis] = low[axis + 1] + bits[axis + 1]
    layout = [0] * (low[1] + bits[1])
    moved = 0
    for axis in reversed(transpose[1:]):
        layout[low[axis] : low[axis] + bits[axis]] = range(moved, moved + bits[axis])
        moved += bits[axis]
    return transpose, columns, tuple(layout)


def _run_product(states, step: tuple, plan: tuple, out=None) -> tuple:
    """The products of *step* on every row of *states*, into *out* (a
    contiguous array as large as *states*) or a scratch buffer.

    The step's axes are copied to the front of scratch shaped ``(rows,
    2^(b+k), columns)``, and :func:`_matmul` computes every row's stacked
    products into the output.  Columns are padded with zeros to
    :data:`_MIN_PRODUCT_COLUMNS`, so every row's product runs the same BLAS
    kernels, whose columns round independently of the column count.
    Returns the view of *states* in the products' order and the products.
    """
    _, shape, pinned, _, blocks, _ = step
    transpose, columns, _ = plan
    count = states.shape[0]
    moved = states.reshape((count, *shape))[pinned].transpose(transpose)
    stack = blocks.size // blocks.shape[-1]
    padded = max(columns, _MIN_PRODUCT_COLUMNS)
    if out is None:
        operand, result = scratch((count, stack, padded), 2)
    else:
        (operand,) = scratch((count, stack, padded), 1)
        result = out.reshape(count, stack, padded)
    if padded > columns:
        operand[:, :, columns:] = 0.0
    # splitting axes of a strided view is a view: this copy writes the scratch
    np.copyto(operand[:, :, :columns].reshape(moved.shape), moved)
    _matmul(blocks, operand, result)
    return moved, result[:, :, :columns]


def apply_product_unordered(states, step: tuple) -> Optional[tuple]:
    """Run the ``product`` *step* on every row of the contiguous *states*,
    leaving each row's products where they come out, the step's axes
    first, instead of copying them back: the row is free once copied.

    Returns ``layout``: bit ``b`` of a row index is now bit ``layout[b]``
    (:func:`reorder_bits` puts it back).  A step that pins controls, or one
    with fewer than :data:`_MIN_PRODUCT_COLUMNS` columns, runs in place
    through :func:`apply_step` and returns ``None``.
    """
    plan = _product_plan(step, states.shape[1])
    if plan[2] is None or plan[1] < _MIN_PRODUCT_COLUMNS:
        apply_step(states, step)
        return None
    _run_product(states, step, plan, out=states)
    return plan[2]


def reorder_bits(states, sources: Sequence[int]) -> None:
    """Permute the bits of every row index of the contiguous *states*
    ``(rows, 2^w)`` in place: bit ``r`` is taken from bit ``sources[r]``.
    One transposing copy into scratch and one contiguous copy back, so the
    row's memory is reused."""
    rows, width = states.shape[0], len(sources)
    # the (rows, 2, ..., 2) view's axis width - b is bit b
    axes = [0] + [width - sources[bit] for bit in reversed(range(width))]
    bits = (rows,) + (2,) * width
    (buffer,) = scratch(states.shape, 1)
    np.copyto(buffer.reshape(bits), states.reshape(bits).transpose(axes))
    np.copyto(states, buffer)


def apply_step(states: np.ndarray, step: tuple) -> None:
    """Apply a :func:`lower` step in place to every row of *states*, a
    contiguous ``(rows, 2^n)`` array (a flat ``(2^n,)`` state is one row)."""
    if states.ndim == 1:
        states = states.reshape(1, -1)
    kind = step[0]
    if kind == "diag":
        _apply_diag_batched(states, step[1], step[2])
    elif kind == "diag_full":
        _apply_diag_full_batched(states, step[1])
    elif kind == "perm":
        _apply_perm_batched(states, step[1], step[2], step[3])
    elif kind == "dense":
        _apply_dense_batched(states, step[1], step[2], step[3])
    elif kind == "product":
        moved, result = _run_product(states, step, _product_plan(step, states.shape[1]))
        np.copyto(moved, result.reshape(moved.shape))
    else:  # wide
        _, matrix, targets = step
        num_qubits = states.shape[1].bit_length() - 1
        for row in states:
            row[:] = dense_apply(row, num_qubits, matrix, targets)


def apply_gate(data: np.ndarray, gate, targets: Sequence[int]) -> None:
    """Apply *gate* (an instruction or a matrix, as for :func:`lower`) to
    *targets* of the flat state *data* in place: the single-state entry
    point."""
    apply_step(data, lower(gate, targets))
