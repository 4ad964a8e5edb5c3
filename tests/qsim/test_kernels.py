"""The one gate-kernel set: every gate through ``kernels.lower`` + ``apply_step``.

Property-style checks of the single-state entry point
(:func:`repro.qsim.kernels.apply_gate`) on every gate shape the engines
emit -- every registry gate, multi-controlled gates up to eleven controls
(wide ones lowered with their control axes pinned), a controlled two-qubit
base, random unitaries of one to seven qubits.  Each case must

* match :func:`~repro.qsim.kernels.dense_apply` (the moveaxis + matmul
  reference) to 1e-12 on a single state, and
* be bit-equal to every row of a three-row batched application of the same
  step -- the batched executor's per-shot contract;

``perm`` and ``diag`` steps must moreover be bit-exact against a plain
slice-move or slice-multiply reference.  The step memo, thread safety,
buffer ownership, shape validation and the registry-arity check ride along.
"""

import threading

import numpy as np
import pytest

from repro.qsim import QuantumCircuit, Statevector
from repro.qsim import gates, kernels, shotbatch
from repro.qsim.backends import get_backend
from repro.qsim.exceptions import CircuitError, SimulationError
from repro.qsim.instruction import ControlledGate, Gate, UnitaryGate
from repro.qsim.transpiler import is_clifford

ATOL = 1e-12


def random_amplitudes(num_qubits: int, rng: np.random.Generator) -> np.ndarray:
    data = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return data / np.linalg.norm(data)


def random_state(num_qubits: int, rng: np.random.Generator) -> Statevector:
    data = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return Statevector(data)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    matrix = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(matrix)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def registry_gate(name: str, rng: np.random.Generator) -> Gate:
    spec = gates.GATE_REGISTRY[name]
    return Gate(name, spec.num_qubits, list(rng.uniform(0, 2 * np.pi, spec.num_params)))


def random_circuit(num_qubits: int, num_gates: int, rng: np.random.Generator) -> QuantumCircuit:
    """A random circuit covering every gate shape: registry gates,
    multi-controlled gates and explicit unitaries."""
    qc = QuantumCircuit(num_qubits)
    names = list(gates.GATE_REGISTRY)
    while qc.size() < num_gates:
        roll = rng.random()
        if roll < 0.80:
            name = names[rng.integers(len(names))]
            spec = gates.GATE_REGISTRY[name]
            params = list(rng.uniform(0, 2 * np.pi, spec.num_params))
            targets = [int(q) for q in rng.choice(num_qubits, spec.num_qubits, replace=False)]
            qc.append(Gate(name, spec.num_qubits, params), targets)
        elif roll < 0.90:
            num_controls = int(rng.integers(2, 4))
            base = [Gate("x", 1), Gate("z", 1), Gate("p", 1, [float(rng.uniform(0, np.pi))]),
                    Gate("h", 1)][rng.integers(4)]
            targets = [int(q) for q in rng.choice(num_qubits, num_controls + 1, replace=False)]
            qc.append(ControlledGate(base, num_controls), targets)
        else:
            arity = int(rng.integers(1, 3))
            targets = [int(q) for q in rng.choice(num_qubits, arity, replace=False)]
            qc.unitary(random_unitary(2**arity, rng), targets)
    return qc


def reference(state: np.ndarray, num_qubits: int, gate, targets) -> np.ndarray:
    """*gate* on *targets* through :func:`kernels.dense_apply`.  A controlled
    gate applies its base matrix to the control-satisfied sub-state, so a
    wide ``mcx`` needs no ``2^k x 2^k`` matrix here either."""
    if not isinstance(gate, ControlledGate):
        matrix = gate.to_matrix() if isinstance(gate, Gate) else gate
        return kernels.dense_apply(state.copy(), num_qubits, np.asarray(matrix), targets)
    controls, base_targets = targets[: gate.num_controls], targets[gate.num_controls :]
    out = state.copy()
    psi = out.reshape((2,) * num_qubits)
    index = [slice(None)] * num_qubits
    for control in controls:
        index[num_qubits - 1 - control] = 1
    index = tuple(index)
    # the sub-state's qubits are the non-control qubits, renumbered upwards
    remap = {q: sum(1 for c in controls if c < q) for q in base_targets}
    sub = np.ascontiguousarray(psi[index]).reshape(-1)
    sub = kernels.dense_apply(
        sub,
        num_qubits - len(controls),
        gate.base_gate.to_matrix(),
        [q - remap[q] for q in base_targets],
    )
    psi[index] = sub.reshape(psi[index].shape)
    return out


def check_gate(gate, targets, num_qubits: int, rng: np.random.Generator) -> tuple:
    """The two properties every step must have: the single application,
    and the step a batched plan runs (lowered with the state width, so a
    dense diagonal may come back as a ``diag_full`` factor); returns the
    plan's step."""
    state = random_amplitudes(num_qubits, rng)
    single = state.copy()
    kernels.apply_gate(single, gate, targets)
    np.testing.assert_allclose(single, reference(state, num_qubits, gate, targets), atol=ATOL, rtol=0)
    rows = np.stack([random_amplitudes(num_qubits, rng), state, random_amplitudes(num_qubits, rng)])
    step = kernels.lower(gate, targets, num_qubits)
    batched = rows.copy()
    kernels.apply_step(batched, step)
    for row, before in zip(batched, rows):
        alone = before.copy()
        kernels.apply_gate(alone, gate, targets)
        np.testing.assert_array_equal(row, alone)
    return step


def exact_monomial_reference(state, num_qubits: int, matrix, targets, controls=()) -> np.ndarray:
    """Basis state ``i`` (whose *controls* all read 1) moves to ``dest`` on
    its target bits and takes one scalar multiply by its factor (skipped for
    a unit factor): the slice moves and slice multiplies of a ``perm`` /
    ``diag`` step, done index by index."""
    dest, factor = kernels.basis_table(matrix)
    index = np.arange(2**num_qubits)
    active = np.ones(index.size, dtype=bool)
    for control in controls:
        active &= (index >> control) & 1 == 1
    value = kernels.target_value(index, targets)
    k = len(targets)
    moved = index.copy()
    for position, target in enumerate(targets):
        bit = (dest[value] >> (k - 1 - position)) & 1
        moved = np.where(active, (moved & ~(1 << target)) | (bit << target), moved)
    scale = np.where(active, factor[value], 1)
    scaled = state.copy()
    nonunit = scale != 1
    scaled[nonunit] = state[nonunit] * scale[nonunit]
    out = np.empty_like(state)
    out[moved] = scaled
    return out


# ---------------------------------------------------------------------------
# Every gate shape: dense reference, batch rows, exact monomials
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(gates.GATE_REGISTRY))
def test_every_registry_gate(name):
    rng = np.random.default_rng(sorted(gates.GATE_REGISTRY).index(name))
    gate = registry_gate(name, rng)
    for targets in ([5, 0, 3][: gate.num_qubits], [1, 6, 2][: gate.num_qubits]):
        step = check_gate(gate, targets, 7, rng)
        if step[0] in ("perm", "diag", "diag_full"):
            state = random_amplitudes(7, rng)
            fast = state.copy()
            kernels.apply_gate(fast, gate, targets)
            np.testing.assert_array_equal(
                fast, exact_monomial_reference(state, 7, gate.to_matrix(), targets)
            )


def test_registry_gates_lower_to_their_structure():
    kinds = {
        name: kernels.lower(registry_gate(name, np.random.default_rng(0)), targets, 8)[0]
        for name, targets in (
            ("x", [5]), ("cx", [6, 7]), ("swap", [4, 7]), ("iswap", [4, 7]), ("ccx", [5, 6, 7]),
            ("z", [7]), ("cz", [6, 7]), ("cp", [6, 7]), ("rzz", [6, 7]),
            ("h", [5]), ("crx", [6, 7]), ("rxx", [6, 7]),
        )
    }
    assert kinds == {
        "x": "perm", "cx": "perm", "swap": "perm", "iswap": "perm", "ccx": "perm",
        "z": "diag", "cz": "diag", "cp": "diag", "rzz": "diag",
        "h": "dense", "crx": "product", "rxx": "product",
    }


@pytest.mark.parametrize("num_controls", range(2, 12))
@pytest.mark.parametrize("base", ["x", "z", "p"])
def test_multi_controlled_gates(base, num_controls):
    rng = np.random.default_rng(100 + num_controls)
    gate = ControlledGate(registry_gate(base, rng), num_controls)
    n = num_controls + 2
    qubits = [int(q) for q in rng.permutation(n)]
    targets = qubits[: num_controls + 1]
    step = check_gate(gate, targets, n, rng)
    state = random_amplitudes(n, rng)
    fast = state.copy()
    kernels.apply_gate(fast, gate, targets)
    if gate.num_qubits <= kernels.MAX_LOWERED_QUBITS:
        expected = exact_monomial_reference(state, n, gate.to_matrix(), targets)
    else:  # the base, lowered with the control axes pinned to 1
        assert step[0] == ("perm" if base == "x" else "diag")
        expected = exact_monomial_reference(
            state, n, gate.base_gate.to_matrix(), targets[-1:], targets[:-1]
        )
    np.testing.assert_array_equal(fast, expected)


@pytest.mark.parametrize(
    "base,num_controls,kind",
    [
        (Gate("rxx", 2, [0.83]), 1, "product"),
        (Gate("rxx", 2, [0.83]), 5, "product"),
        (Gate("swap", 2), 1, "perm"),
        (Gate("swap", 2), 5, "perm"),
    ],
)
def test_controlled_two_qubit_bases(base, num_controls, kind):
    rng = np.random.default_rng(7 + num_controls)
    gate = ControlledGate(base, num_controls)
    n = gate.num_qubits + 1
    targets = [int(q) for q in rng.permutation(n)[: gate.num_qubits]]
    step = check_gate(gate, targets, n, rng)
    assert step[0] == kind
    if gate.num_qubits > kernels.MAX_LOWERED_QUBITS:  # the base alone, controls pinned
        assert (step[4].shape[0] if kind == "product" else len(step[2])) == 4


def test_controlled_unitary_label_collision_uses_the_matrix():
    # a UnitaryGate's label is free-form: one that collides with a registry
    # gate name ("s", "swap") must be applied by its matrix
    rng = np.random.default_rng(15)
    for label, base_dim, targets in (("s", 2, [0, 2]), ("swap", 4, [1, 0, 3])):
        base = UnitaryGate(random_unitary(base_dim, rng), label=label)
        check_gate(ControlledGate(base, 1), targets, 4, rng)


@pytest.mark.parametrize("num_qubits", range(1, 8))
def test_random_unitary_gates(num_qubits):
    rng = np.random.default_rng(200 + num_qubits)
    gate = UnitaryGate(random_unitary(2**num_qubits, rng))
    n = num_qubits + 2
    targets = [int(q) for q in rng.permutation(n)[:num_qubits]]
    step = check_gate(gate, targets, n, rng)
    kind = "wide" if num_qubits > kernels.MAX_LOWERED_QUBITS else "product"
    assert step[0] == ("dense" if num_qubits == 1 else kind)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("columns_log", [0, 1, 2, 12])
def test_product_columns_do_not_depend_on_the_row_width(k, columns_log):
    # a product step's columns are the values of the qubits it does not
    # touch: 1 and 2 columns are padded to 4, and each column of a wider
    # row (more qubits above) comes out with the same bits
    rng = np.random.default_rng(10 * k + columns_log)
    n = k + columns_log
    targets = [int(q) for q in rng.permutation(n)[:k]]
    matrix = random_unitary(2**k, rng)
    assert kernels.lower(matrix, targets)[0] == "product"
    narrow = random_amplitudes(n, rng)
    wide = random_amplitudes(n + max(2, 12 - columns_log), rng)
    wide[: 2**n] = narrow  # the qubits above n read 0
    kernels.apply_gate(narrow, matrix, targets)
    kernels.apply_gate(wide, matrix, targets)
    np.testing.assert_array_equal(wide[: 2**n], narrow)


@pytest.mark.parametrize("k", [1, 2, 4])
def test_product_rows_do_not_depend_on_the_batch(k):
    rng = np.random.default_rng(30 + k)
    targets = [int(q) for q in rng.permutation(9)[:k]]
    step = kernels.lower(random_unitary(2**k, rng), targets, product=True)
    assert step[0] == "product"
    rows = np.stack([random_amplitudes(9, rng) for _ in range(64)])
    alone = rows.copy()
    for row in alone:
        kernels.apply_step(row, step)
    for size in (1, 7, 64):
        batch = rows[:size].copy()
        kernels.apply_step(batch, step)
        np.testing.assert_array_equal(batch, alone[:size])


def block_diagonal_unitary(k: int, batch, controls, rng: np.random.Generator) -> np.ndarray:
    """A ``k``-qubit unitary that mixes nothing across the values of its
    qubits at the positions *batch* and *controls* (0 the most significant
    bit of a matrix index): the identity unless every control reads 1, and
    otherwise one random block on the other qubits per value of *batch*."""
    rest = [p for p in range(k) if p not in batch and p not in controls]

    def value(index, positions):
        return sum(((index >> (k - 1 - p)) & 1) << i for i, p in enumerate(reversed(positions)))

    blocks = [random_unitary(1 << len(rest), rng) for _ in range(1 << len(batch))]
    matrix = np.zeros((1 << k, 1 << k), dtype=complex)
    for row in range(1 << k):
        for col in range(1 << k):
            if value(row, batch + controls) != value(col, batch + controls):
                continue
            if value(row, controls) != (1 << len(controls)) - 1:
                matrix[row, col] = float(row == col)
            else:
                matrix[row, col] = blocks[value(row, batch)][value(row, rest), value(col, rest)]
    return matrix


@pytest.mark.parametrize("k", [2, 3, 4])
def test_block_diagonal_qubits_lower_to_stacked_blocks(k):
    # a qubit the matrix only reads is pinned (identity block at 0) or a
    # batch axis of stacked blocks; either way every output sums the same
    # nonzero terms in the same order as the whole matrix's product
    rng = np.random.default_rng(40 + k)
    for split in range(1, k):
        positions = [int(p) for p in rng.permutation(k)[:split]]
        controls = positions[: int(rng.integers(0, split + 1))]
        batch = positions[len(controls):]
        matrix = block_diagonal_unitary(k, batch, controls, rng)
        dim = 1 << (k - split)
        for columns_log in (0, 1, 2, 12):
            n = k + columns_log
            targets = tuple(int(q) for q in rng.permutation(n)[:k])
            step = kernels.lower(matrix, targets)
            assert step[0] == "product"
            assert step[4].shape == ((1 << len(batch), dim, dim) if batch else (dim, dim))
            assert sum(not isinstance(index, slice) for index in step[2]) == len(controls)
            whole = kernels._product_step(matrix, targets, (), ())
            count = shotbatch.default_batch_size(n, 64)
            rows = np.stack([random_amplitudes(n, rng) for _ in range(max(7, count))])
            alone = rows.copy()
            for row in alone:
                kernels.apply_step(row, whole)
            for size in (1, 7, count):
                batched = rows[:size].copy()
                kernels.apply_step(batched, step)
                np.testing.assert_array_equal(batched, alone[:size])
                # the same products left in the step's own axis order
                unordered = rows[:size].copy()
                layout = kernels.apply_product_unordered(unordered, step)
                if layout is not None:
                    kernels.reorder_bits(unordered, layout)
                np.testing.assert_array_equal(unordered, alone[:size])


def test_diagonal_unitary_gate_lowers_to_a_diagonal_step():
    rng = np.random.default_rng(12)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
    gate = UnitaryGate(np.diag(phases), label="diagtest")
    # all four entries non-unit: a plan applies one (2^n,) factor, a single
    # application the per-entry slices; on high targets a plan keeps slices
    assert check_gate(gate, [5, 3], 6, rng)[0] == "diag_full"
    assert kernels.lower(gate, [5, 3])[0] == "diag"
    assert kernels.lower(gate, [5, 7], 8)[0] == "diag"


@pytest.mark.parametrize("seed", range(5))
def test_random_circuit_matches_dense_apply(seed):
    rng = np.random.default_rng(seed)
    circuit = random_circuit(6, 80, rng)
    fast = random_state(6, rng)
    slow = fast.data.copy()
    for instr in circuit.data:
        targets = [circuit.qubit_index(q) for q in instr.qubits]
        kernels.apply_gate(fast.data, instr.operation, targets)
        slow = kernels.dense_apply(slow, 6, instr.operation.to_matrix(), targets)
    np.testing.assert_allclose(fast.data, slow, atol=1e-10, rtol=0)


def moveaxis_apply(data, num_qubits, matrix, targets):
    """:func:`kernels.dense_apply`'s general path, taken for every target
    order: the target axes moved to the front, one product, moved back."""
    k = len(targets)
    axes = [num_qubits - 1 - t for t in targets]
    psi = np.moveaxis(data.reshape((2,) * num_qubits), axes, range(k))
    tail_shape = psi.shape[k:]
    flat = (matrix @ psi.reshape(2**k, -1)).reshape((2,) * k + tail_shape)
    return np.ascontiguousarray(np.moveaxis(flat, range(k), axes).reshape(-1))


@pytest.mark.parametrize("num_qubits", range(1, 11))
def test_dense_apply_in_order_path_is_bit_identical(num_qubits):
    # every run of consecutive targets in order, the shape of each gate in a
    # fused block's product (its 2k-qubit flattening)
    rng = np.random.default_rng(num_qubits)
    for k in range(1, min(num_qubits, 7) + 1):
        for top in range(k - 1, num_qubits):
            targets = list(range(top, top - k, -1))
            matrix = random_unitary(2**k, rng)
            state = random_amplitudes(num_qubits, rng)
            np.testing.assert_array_equal(
                kernels.dense_apply(state, num_qubits, matrix, targets),
                moveaxis_apply(state, num_qubits, matrix, targets),
            )


@pytest.mark.parametrize("shape", ["wide", "kraus1", "kraus2"])
def test_dense_apply_chunks_keep_the_bits_of_one_product(shape):
    # dense_apply cuts its BLAS calls into column chunks; a wide step's
    # 7-qubit unitary and a density matrix's Kraus superoperators on the
    # 2n-qubit vector of rho give the bits of one unchunked product
    rng = np.random.default_rng(len(shape))
    if shape == "wide":
        n = 13
        targets = [int(q) for q in rng.permutation(n)[:7]]
    else:
        rho_qubits = 8
        n = 2 * rho_qubits
        qubits = [int(q) for q in rng.permutation(rho_qubits)[: int(shape[-1])]]
        targets = [q + rho_qubits for q in qubits] + qubits
    matrix = random_unitary(1 << len(targets), rng)
    state = random_amplitudes(n, rng)
    np.testing.assert_array_equal(
        kernels.dense_apply(state, n, matrix, targets), moveaxis_apply(state, n, matrix, targets)
    )


def test_wide_controlled_gate_never_builds_its_matrix(monkeypatch):
    def refuse(self):
        raise AssertionError(f"built the {self.num_qubits}-qubit matrix of {self.name}")

    monkeypatch.setattr(ControlledGate, "to_matrix", refuse)
    gate = ControlledGate(Gate("x", 1), 11)
    state = np.zeros(2**13, dtype=complex)
    state[0b0111111111110] = 1.0  # every control (qubits 1..11) reads 1
    kernels.apply_gate(state, gate, list(range(1, 12)) + [0])
    assert state[0b0111111111111] == 1.0
    assert np.count_nonzero(state) == 1


# ---------------------------------------------------------------------------
# The step memo
# ---------------------------------------------------------------------------


def test_memo_is_bounded_and_holds_no_full_diagonal_factor():
    rng = np.random.default_rng(21)
    cap = kernels._memo_step.cache_info().maxsize
    for _ in range(cap + 40):
        kernels.lower(np.diag(np.exp(1j * rng.uniform(0, 6, 4))), [0, 1], 10)
    assert kernels._memo_step.cache_info().currsize <= cap
    # a dense diagonal on low qubits runs as a (2^n,) factor in a plan, built
    # per call from the width-independent per-entry step the memo holds; a
    # single application runs that per-entry step
    matrix = np.diag(np.exp(1j * rng.uniform(0, 6, 8)))
    first, second = kernels.lower(matrix, [0, 1, 2], 10), kernels.lower(matrix, [0, 1, 2], 10)
    assert first[0] == second[0] == "diag_full"
    assert first[1] is not second[1]
    assert kernels.lower(matrix, [0, 1, 2])[0] == "diag"
    memoised, full = kernels._memo_step(matrix.tobytes(), 8, (0, 1, 2), (), False)
    assert memoised[0] == "diag" and full
    state = random_amplitudes(10, rng)
    planned, single = state.copy(), state.copy()
    kernels.apply_step(planned, first)
    kernels.apply_gate(single, matrix, [0, 1, 2])
    np.testing.assert_array_equal(planned, single)


def test_one_memoised_step_fits_every_register_width():
    # the Qutes live state grows as registers are allocated: the same step
    # serves a 3- and a 9-qubit state
    rng = np.random.default_rng(22)
    for n in (3, 9):
        check_gate(Gate("h", 1), [2], n, rng)
        check_gate(Gate("cx", 2), [0, 2], n, rng)


# ---------------------------------------------------------------------------
# Engines and ownership
# ---------------------------------------------------------------------------


def test_kernels_are_thread_safe_across_statevectors():
    rng = np.random.default_rng(17)
    circuits = [random_circuit(8, 40, np.random.default_rng(30 + i)) for i in range(4)]
    initial = [random_state(8, rng) for _ in circuits]

    def evolve(circuit, state):
        out = state.copy()
        for instr in circuit.data:
            targets = [circuit.qubit_index(q) for q in instr.qubits]
            kernels.apply_gate(out.data, instr.operation, targets)
        return out

    expected = [evolve(c, s) for c, s in zip(circuits, initial)]
    results = [None] * len(circuits)

    def work(index):
        for _ in range(5):  # repeat to widen the interleaving window
            results[index] = evolve(circuits[index], initial[index])

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(circuits))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for got, want in zip(results, expected):
        np.testing.assert_array_equal(got.data, want.data)


def test_statevector_owns_its_buffer():
    # in-place evolution must never leak into the caller's array
    buf = np.zeros(8, dtype=complex)
    buf[0] = 1.0
    original = buf.copy()
    state = Statevector(buf)
    assert not np.shares_memory(state.data, buf)
    state.apply_unitary(gates.H, [0])
    state.apply_unitary(np.diag([1, 1j]), [1])
    assert np.array_equal(buf, original)


def test_apply_unitary_validation_errors():
    state = Statevector.zero_state(3)
    with pytest.raises(SimulationError, match="does not match 1 target"):
        state.apply_unitary(np.eye(4), [0])
    with pytest.raises(SimulationError, match="out of range"):
        state.apply_unitary(np.eye(2), [5])
    with pytest.raises(SimulationError, match="does not match 2 target"):
        state.apply_unitary(np.ones(4), [0, 1])
    with pytest.raises(SimulationError, match="duplicate"):
        state.apply_unitary(gates.SWAP, [1, 1])


def _measured(qc: QuantumCircuit) -> QuantumCircuit:
    qc.measure_all()
    return qc


ENGINES = {
    "statevector": lambda qc: get_backend("statevector").run(_measured(qc), shots=8).result(),
    "density_matrix": lambda qc: get_backend("density_matrix").run(_measured(qc), shots=8).result(),
    "stabilizer": lambda qc: get_backend("stabilizer").run(_measured(qc), shots=8).result(),
    "is_clifford": is_clifford,
}


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("name,arity", [("z", 2), ("cx", 3), ("h", 2)])
def test_gate_contradicting_its_registered_arity_is_rejected(engine, name, arity):
    # never silently mangled: a z declared on two qubits would run as z on
    # the first target on one engine and fail on another
    def malformed():
        qc = QuantumCircuit(3)
        qc.append(Gate(name, arity), list(range(arity)))
        return qc

    registered = gates.GATE_REGISTRY[name].num_qubits
    with pytest.raises(CircuitError, match=f"gate '{name}' acts on {registered} qubit"):
        ENGINES[engine](malformed())
