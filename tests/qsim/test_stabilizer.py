"""Tests for the stabilizer (Clifford) engine and the Clifford pass.

Covers the tableau itself (canonical states, deterministic vs random
measurement), the simulator's deferred affine sampler (mid-circuit
measurement, reset, memory), the transpiler's Clifford detection /
decomposition (named gates, angle snapping, conjugation tables for fused
blocks), the backend integration (registry, batching, seeding, clean
rejection of non-Clifford circuits), and the cross-engine equivalence
property: random Clifford circuits sampled on ``stabilizer`` and
``statevector`` produce statistically identical counts.
"""

import numpy as np
import pytest

from repro.algorithms.entanglement import ghz_circuit, sample_ghz
from repro.algorithms.superposition import sample_uniform_superposition
from repro.algorithms.teleportation import (
    deferred_teleportation_circuit,
    run_teleportation,
)
from repro.qsim import QuantumCircuit, StatevectorSimulator, fuse_gates
from repro.qsim.backends import StabilizerBackend, get_backend, list_backends
from repro.qsim.exceptions import BackendError, SimulationError
from repro.qsim.instruction import Gate
from repro.qsim.stabilizer import StabilizerSimulator, StabilizerTableau
from repro.qsim.transpiler import (
    clifford_sequence,
    is_clifford,
    pauli_conjugation_table,
)

CLIFFORD_POOL = [
    ("h", 1), ("s", 1), ("sdg", 1), ("x", 1), ("y", 1), ("z", 1), ("sx", 1),
    ("cx", 2), ("cy", 2), ("cz", 2), ("swap", 2), ("iswap", 2),
]


def random_clifford_circuit(num_qubits, num_gates, seed, measure=True):
    rng = np.random.default_rng(seed)
    qc = QuantumCircuit(num_qubits, num_qubits)
    qc.name = f"clifford_{seed}"
    for _ in range(num_gates):
        name, arity = CLIFFORD_POOL[rng.integers(len(CLIFFORD_POOL))]
        qubits = [int(q) for q in rng.choice(num_qubits, arity, replace=False)]
        qc.append(Gate(name, arity), qubits)
    if measure:
        qc.measure(list(range(num_qubits)), list(range(num_qubits)))
    return qc


def total_variation(counts_a, counts_b, shots):
    keys = set(counts_a) | set(counts_b)
    return 0.5 * sum(abs(counts_a.get(k, 0) - counts_b.get(k, 0)) for k in keys) / shots


# ---------------------------------------------------------------------------
# tableau states after canonical circuits
# ---------------------------------------------------------------------------


class TestTableauStates:
    def test_initial_state(self):
        tab = StabilizerTableau(3)
        assert tab.stabilizers() == ["+ZII", "+IZI", "+IIZ"]
        assert tab.destabilizers() == ["+XII", "+IXI", "+IIX"]

    def test_bell_state(self):
        tab = StabilizerTableau(2)
        tab.h(0)
        tab.cx(0, 1)
        assert tab.stabilizers() == ["+XX", "+ZZ"]

    def test_ghz_state(self):
        tab = StabilizerTableau(3)
        tab.h(0)
        tab.cx(0, 1)
        tab.cx(1, 2)
        assert tab.stabilizers() == ["+XXX", "+ZZI", "+IZZ"]

    def test_minus_state_sign(self):
        tab = StabilizerTableau(1)
        tab.x(0)
        tab.h(0)
        assert tab.stabilizers() == ["-X"]

    def test_y_eigenstate(self):
        tab = StabilizerTableau(1)
        tab.h(0)
        tab.s(0)
        assert tab.stabilizers() == ["+Y"]
        tab.sdg(0)
        tab.sdg(0)  # net Sdg: back through |+> to |-i>
        assert tab.stabilizers() == ["-Y"]

    def test_teleportation_stabilizers_transfer_payload(self):
        # payload |-> teleported to Bob: after the protocol Bob's qubit is
        # stabilized by -X regardless of the measurement record
        circuit = deferred_teleportation_circuit(payload_prep=("x", "h"))
        tableau = StabilizerSimulator(seed=11).evolve(circuit, collapse_measurements=True)
        # bob is qubit 2; his inverse-prep (h then x) has been applied, so
        # bob must sit exactly in |0>, i.e. +Z on qubit 2 is a stabilizer
        assert tableau._pivot(2) is None
        assert tableau.measure(2, rng=np.random.default_rng(0)) == 0

    def test_swap_moves_columns(self):
        tab = StabilizerTableau(2)
        tab.x(0)  # |10> in qubit order: qubit0 = 1
        tab.swap(0, 1)
        assert tab.measure(0, rng=np.random.default_rng(0)) == 0
        assert tab.measure(1, rng=np.random.default_rng(0)) == 1


# ---------------------------------------------------------------------------
# deterministic vs random measurement outcomes
# ---------------------------------------------------------------------------


def tree_product_phase_expr(tab, stab_rows):
    """The phase vector of the product of *stab_rows*, reduced pairwise in a
    log-depth tree with exact mod-4 i-powers: the reference the one-pass
    :meth:`StabilizerTableau._product_phase_expr` is checked against."""
    expr = np.bitwise_xor.reduce(tab.phases[stab_rows], axis=0)
    xs = tab.xs[stab_rows].astype(np.int8)
    zs = tab.zs[stab_rows].astype(np.int8)
    i_powers = np.zeros(stab_rows.size, dtype=np.int64)
    while xs.shape[0] > 1:
        half = xs.shape[0] // 2
        x1, z1 = xs[:half], zs[:half]
        x2, z2 = xs[half : 2 * half], zs[half : 2 * half]
        g = StabilizerTableau._g(x1, z1, x2, z2).sum(axis=1, dtype=np.int64)
        merged_powers = i_powers[:half] + i_powers[half : 2 * half] + g
        merged_x, merged_z = x1 ^ x2, z1 ^ z2
        if xs.shape[0] % 2:
            merged_x = np.concatenate([merged_x, xs[-1:]])
            merged_z = np.concatenate([merged_z, zs[-1:]])
            merged_powers = np.concatenate([merged_powers, i_powers[-1:]])
        xs, zs, i_powers = merged_x, merged_z, merged_powers
    expr[0] ^= np.uint8((int(i_powers[0]) % 4) // 2)
    return expr


@pytest.mark.parametrize("seed", range(30))
def test_one_pass_product_phase_matches_the_tree_reduction(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 14))
    tab = StabilizerTableau(n, max_symbols=3)
    for _ in range(6 * n):
        gate = rng.choice(["h", "s", "sdg", "x", "y", "z", "cx", "cz"])
        if gate in ("cx", "cz"):
            if n > 1:
                getattr(tab, gate)(*(int(q) for q in rng.choice(n, 2, replace=False)))
        else:
            getattr(tab, gate)(int(rng.integers(n)))
    # symbolic phase columns only XOR: random ones check that half too
    tab.phases[:, 1:] = rng.integers(0, 2, tab.phases[:, 1:].shape, dtype=np.uint8)
    for _ in range(10):
        size = int(rng.integers(1, n + 1))
        rows = n + rng.choice(n, size, replace=False)
        np.testing.assert_array_equal(
            tab._product_phase_expr(rows), tree_product_phase_expr(tab, rows)
        )


class TestMeasurement:
    def test_zero_state_deterministic(self):
        tab = StabilizerTableau(1)
        assert tab._pivot(0) is None
        assert tab.measure(0, rng=np.random.default_rng(1)) == 0

    def test_flipped_state_deterministic_one(self):
        tab = StabilizerTableau(1)
        tab.x(0)
        assert tab._pivot(0) is None
        assert tab.measure(0, rng=np.random.default_rng(1)) == 1

    def test_plus_state_random_then_repeatable(self):
        rng = np.random.default_rng(5)
        tab = StabilizerTableau(1)
        tab.h(0)
        assert tab._pivot(0) is not None
        first = tab.measure(0, rng=rng)
        # collapsed: every further measurement is deterministic and equal
        assert tab._pivot(0) is None
        assert tab.measure(0, rng=rng) == first

    def test_plus_state_outcomes_are_unbiased(self):
        outcomes = []
        for seed in range(40):
            tab = StabilizerTableau(1)
            tab.h(0)
            outcomes.append(tab.measure(0, rng=np.random.default_rng(seed)))
        assert 5 < sum(outcomes) < 35

    def test_bell_pair_outcomes_correlate(self):
        for seed in range(10):
            tab = StabilizerTableau(2)
            tab.h(0)
            tab.cx(0, 1)
            rng = np.random.default_rng(seed)
            first = tab.measure(0, rng=rng)
            assert tab._pivot(1) is None
            assert tab.measure(1, rng=rng) == first

    def test_reset_returns_to_zero(self):
        tab = StabilizerTableau(1)
        tab.h(0)
        tab.reset(0, rng=np.random.default_rng(3))
        assert tab.stabilizers() == ["+Z"]

    @pytest.mark.parametrize("rng", [None, np.random.default_rng(0)])
    def test_measure_on_symbolic_tableau_raises_clean_error(self, rng):
        # regression: a tableau already carrying symbolic phases must reject
        # concrete measurement with the same clean "use symbolic sampling"
        # message the backend path gets -- for rng=None included, not an
        # opaque internal error
        tab = StabilizerTableau(2, max_symbols=2)
        tab.h(0)
        tab._measure_symbolic(0)
        for qubit in (0, 1):  # deterministic and untouched qubit alike
            with pytest.raises(SimulationError, match="symbolic sampling"):
                tab.measure(qubit, rng=rng)

    @pytest.mark.parametrize("rng", [None, np.random.default_rng(0)])
    def test_reset_on_symbolic_tableau_raises_clean_error(self, rng):
        tab = StabilizerTableau(2, max_symbols=2)
        tab.h(0)
        tab._measure_symbolic(0)
        before = tab.stabilizers()
        with pytest.raises(SimulationError, match="symbolic sampling"):
            tab.reset(1, rng=rng)
        # the rejection happened before any state mutation
        assert tab.stabilizers() == before

    def test_symbolic_noise_tableau_also_rejects_concrete_measure(self):
        tab = StabilizerTableau(1, max_symbols=1)
        tab.h(0)
        tab.inject_pauli_symbol(0, "Z", tab.allocate_symbol())
        with pytest.raises(SimulationError, match="symbolic sampling"):
            tab.measure(0)

    def test_inject_pauli_symbol_validates_inputs(self):
        tab = StabilizerTableau(1, max_symbols=1)
        with pytest.raises(SimulationError, match="column"):
            tab.inject_pauli_symbol(0, "X", 5)
        with pytest.raises(SimulationError, match="Pauli"):
            tab.inject_pauli_symbol(0, "Q", 1)
        with pytest.raises(SimulationError, match="capacity"):
            tab.allocate_symbol()
            tab.allocate_symbol()


# ---------------------------------------------------------------------------
# the simulator's deferred sampler
# ---------------------------------------------------------------------------


class TestStabilizerSimulator:
    def test_bell_counts(self):
        qc = QuantumCircuit(2, 2)
        qc.h(0)
        qc.cx(0, 1)
        qc.measure([0, 1], [0, 1])
        result = StabilizerSimulator(seed=0).run(qc, shots=2000)
        assert set(result.counts) == {"00", "11"}
        assert 800 < result.counts["00"] < 1200

    def test_deterministic_circuit_single_key(self):
        qc = QuantumCircuit(3, 3)
        qc.x(0)
        qc.x(2)
        qc.measure([0, 1, 2], [0, 1, 2])
        result = StabilizerSimulator(seed=0).run(qc, shots=64)
        assert result.counts == {"101": 64}

    def test_mid_circuit_measurement(self):
        # gate after measurement on the same qubit: second read is NOT first
        qc = QuantumCircuit(1, 2)
        qc.h(0)
        qc.measure(0, 0)
        qc.x(0)
        qc.measure(0, 1)
        counts = StabilizerSimulator(seed=2).run(qc, shots=1000).counts
        assert set(counts) == {"01", "10"}

    def test_reset_in_circuit(self):
        qc = QuantumCircuit(1, 2)
        qc.h(0)
        qc.measure(0, 0)
        qc.reset(0)
        qc.measure(0, 1)
        counts = StabilizerSimulator(seed=4).run(qc, shots=600).counts
        # post-reset bit (clbit 1, leftmost char) must always read 0
        assert all(key[0] == "0" for key in counts)
        assert set(counts) == {"00", "01"}

    def test_memory_matches_counts(self):
        qc = QuantumCircuit(2, 2)
        qc.h(0)
        qc.cx(0, 1)
        qc.measure([0, 1], [0, 1])
        result = StabilizerSimulator(seed=9).run(qc, shots=100, memory=True)
        assert len(result.memory) == 100
        tally = {}
        for key in result.memory:
            tally[key] = tally.get(key, 0) + 1
        assert tally == result.counts

    def test_seed_reproducibility(self):
        qc = random_clifford_circuit(4, 30, seed=7)
        a = StabilizerSimulator(seed=5).run(qc, shots=200).counts
        b = StabilizerSimulator(seed=5).run(qc, shots=200).counts
        c = StabilizerSimulator(seed=6).run(qc, shots=200).counts
        assert a == b
        assert a != c  # 4 random measurement symbols: collision is unlikely

    def test_per_call_seed_override(self):
        qc = random_clifford_circuit(4, 30, seed=8)
        a = get_backend("stabilizer", seed=1).run(qc, shots=150, seed=42).result().get_counts()
        b = get_backend("stabilizer", seed=99).run(qc, shots=150, seed=42).result().get_counts()
        assert a == b

    def test_non_clifford_rejected(self):
        qc = QuantumCircuit(1, 1)
        qc.t(0)
        qc.measure(0, 0)
        with pytest.raises(SimulationError, match="not a Clifford"):
            StabilizerSimulator().run(qc, shots=4)

    def test_superposition_initialize_rejected(self):
        qc = QuantumCircuit(2, 2)
        qc.initialize([1 / np.sqrt(2), 1 / np.sqrt(2), 0, 0], [0, 1])
        qc.measure([0, 1], [0, 1])
        with pytest.raises(SimulationError, match="initialize"):
            StabilizerSimulator().run(qc, shots=4)

    def test_basis_initialize_supported(self):
        qc = QuantumCircuit(3, 3)
        qc.initialize(5, [0, 1, 2])  # |101> little-endian over targets
        qc.measure([0, 1, 2], [0, 1, 2])
        assert StabilizerSimulator(seed=0).run(qc, shots=16).counts == {"101": 16}

    def test_initialize_on_non_zero_qubit_rejected(self):
        # same contract as Statevector.initialize_qubits: targets must be
        # exactly |0>, not merely present — matching the dense engines
        qc = QuantumCircuit(1, 1)
        qc.h(0)
        qc.initialize(1, [0])
        qc.measure(0, 0)
        with pytest.raises(SimulationError, match=r"\|0\.\.\.0> state"):
            StabilizerSimulator(seed=0).run(qc, shots=8)
        flipped = QuantumCircuit(1, 1)
        flipped.x(0)
        flipped.initialize(1, [0])
        flipped.measure(0, 0)
        with pytest.raises(SimulationError, match=r"\|0\.\.\.0> state"):
            StabilizerSimulator(seed=0).run(flipped, shots=8)

    def test_wide_register_runs_fast(self):
        qc = ghz_circuit(120)
        qc.measure_all()
        counts = StabilizerSimulator(seed=0).run(qc, shots=64).counts
        assert set(counts) <= {"0" * 120, "1" * 120}
        assert sum(counts.values()) == 64


# ---------------------------------------------------------------------------
# the Clifford pass in the transpiler
# ---------------------------------------------------------------------------


class TestCliffordPass:
    def test_named_sequences_match_matrices(self):
        # every named decomposition must reproduce the gate matrix up to a
        # global phase
        from repro.qsim import gates as gate_lib

        cases = [
            Gate("sx", 1), Gate("cy", 2), Gate("iswap", 2),
            Gate("rx", 1, [np.pi / 2]), Gate("rx", 1, [3 * np.pi / 2]),
            Gate("ry", 1, [np.pi / 2]), Gate("ry", 1, [3 * np.pi / 2]),
            Gate("rz", 1, [np.pi / 2]), Gate("rz", 1, [np.pi]),
            Gate("p", 1, [3 * np.pi / 2]), Gate("cp", 2, [np.pi]),
        ]
        for gate in cases:
            sequence = clifford_sequence(gate)
            assert sequence is not None, gate.name
            dim = 2**gate.num_qubits
            matrix = np.eye(dim, dtype=complex)
            for name, locals_ in sequence:
                part = gate_lib.gate_matrix(name, [])
                if len(locals_) == 1 and gate.num_qubits == 2:
                    factors = [np.eye(2), np.eye(2)]
                    factors[locals_[0]] = part
                    part = np.kron(factors[0], factors[1])
                matrix = part @ matrix
            overlap = np.trace(matrix.conj().T @ gate.to_matrix()) / dim
            assert abs(abs(overlap) - 1.0) < 1e-9, gate.name

    def test_angle_snapping(self):
        assert clifford_sequence(Gate("rz", 1, [np.pi / 2])) is not None
        assert clifford_sequence(Gate("rz", 1, [0.3])) is None
        assert clifford_sequence(Gate("cp", 2, [np.pi / 2])) is None  # CS gate

    def test_is_clifford_detection(self):
        qc = random_clifford_circuit(4, 25, seed=0)
        assert is_clifford(qc)
        qc.t(0)
        assert not is_clifford(qc)
        ccx = QuantumCircuit(3)
        ccx.ccx(0, 1, 2)
        assert not is_clifford(ccx)

    def test_conjugation_table_identifies_cliffords(self):
        from repro.qsim import gates as gate_lib

        assert pauli_conjugation_table(gate_lib.H) is not None
        assert pauli_conjugation_table(gate_lib.CX) is not None
        assert pauli_conjugation_table(gate_lib.ISWAP) is not None
        assert pauli_conjugation_table(gate_lib.T) is None
        assert pauli_conjugation_table(gate_lib.CCX) is None
        assert pauli_conjugation_table(gate_lib.crz(np.pi)) is not None

    def test_fused_clifford_circuit_runs_identically(self):
        # fuse_gates produces anonymous UnitaryGate blocks; the
        # conjugation-table path must execute them with the exact same
        # symbol structure, hence bit-identical counts under one seed
        qc = random_clifford_circuit(11, 60, seed=5)
        fused = fuse_gates(qc)
        assert any(op.operation.name.startswith("fused") for op in fused.data)
        assert is_clifford(fused)
        plain = StabilizerSimulator(seed=3).run(qc, shots=2000).counts
        via_tables = StabilizerSimulator(seed=3).run(fused, shots=2000).counts
        assert plain == via_tables


# ---------------------------------------------------------------------------
# backend integration
# ---------------------------------------------------------------------------


class TestStabilizerBackend:
    def test_registry(self):
        assert "stabilizer" in list_backends()
        assert isinstance(get_backend("stabilizer"), StabilizerBackend)
        assert isinstance(get_backend("chp"), StabilizerBackend)
        assert isinstance(get_backend("clifford"), StabilizerBackend)

    def test_unknown_backend_error_lists_options(self):
        with pytest.raises(BackendError, match="stabilizer"):
            get_backend("no_such_engine")

    def test_result_shape_matches_contract(self):
        qc = QuantumCircuit(2, 2)
        qc.h(0)
        qc.cx(0, 1)
        qc.measure([0, 1], [0, 1])
        experiment = get_backend("stabilizer").run(qc, shots=100, seed=3).result()[0]
        assert experiment.shots == 100
        assert experiment.seed == 3
        assert sum(experiment.counts.values()) == 100
        assert experiment.metadata["method"] == "stabilizer"
        assert all(len(key) == 2 for key in experiment.counts)

    def test_per_shot_fallback_is_labelled(self, monkeypatch):
        from repro.qsim import stabilizer
        from repro.qsim.noise import DepolarizingNoise

        def conditioned(gate):
            circuit = QuantumCircuit(2, 2)
            circuit.h(0).measure(0, 0)
            getattr(circuit, gate)(1).c_if(circuit.cregs[0], 1)
            circuit.measure(1, 1)
            return get_backend("stabilizer").run(circuit, shots=20, seed=3).result()[0].metadata

        # a conditioned Pauli stays on the symbolic path; a conditioned
        # non-Pauli re-evolves every shot and says which instruction did it
        assert conditioned("x") == {"method": "stabilizer"}
        assert conditioned("h") == {
            "method": "stabilizer_per_shot",
            "fallback_reason": "classically-conditioned non-Pauli instruction 'h'",
        }
        bell = QuantumCircuit(2, 2)
        bell.h(0).cx(0, 1)
        bell.measure([0, 1], [0, 1])
        backend = get_backend("stabilizer", noise_model=DepolarizingNoise(0.01))
        assert backend.run(bell, shots=20, seed=3).result()[0].metadata == {
            "method": "stabilizer_noisy"
        }
        # a frame over the cell budget re-evolves every shot
        monkeypatch.setattr(stabilizer, "MAX_SYMBOLIC_PHASE_CELLS", 1)
        metadata = backend.run(bell, shots=20, seed=3).result()[0].metadata
        assert metadata["method"] == "stabilizer_noisy_per_shot"
        assert "MAX_SYMBOLIC_PHASE_CELLS" in metadata["fallback_reason"]

    def test_batch_seeding_semantics(self):
        # batch entry i runs with seed + i, independently reproducible
        circuits = [random_clifford_circuit(4, 20, seed=s) for s in range(3)]
        batch = get_backend("stabilizer").run(circuits, shots=100, seed=50).result()
        for i, circuit in enumerate(circuits):
            solo = get_backend("stabilizer").run(circuit, shots=100, seed=50 + i).result()
            assert batch[i].counts == solo[0].counts

    def test_non_clifford_raises_backend_error(self):
        qc = QuantumCircuit(2, 2)
        qc.h(0)
        qc.crz(0.3, 0, 1)
        qc.measure([0, 1], [0, 1])
        with pytest.raises(BackendError, match="not a Clifford"):
            get_backend("stabilizer").run(qc, shots=8).result()

    def test_unknown_run_option_rejected(self):
        qc = QuantumCircuit(1, 1)
        qc.measure(0, 0)
        with pytest.raises(BackendError, match="unknown run options"):
            get_backend("stabilizer").run(qc, shots=8, bogus=1).result()


# ---------------------------------------------------------------------------
# cross-engine equivalence (property test)
# ---------------------------------------------------------------------------


class TestCrossEngineEquivalence:
    SHOTS = 6000

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_clifford_counts_match_statevector(self, seed):
        qc = random_clifford_circuit(5, 40, seed=seed)
        stab = get_backend("stabilizer").run(qc, shots=self.SHOTS, seed=11).result()
        dense = get_backend("statevector").run(qc, shots=self.SHOTS, seed=11).result()
        tvd = total_variation(stab[0].counts, dense[0].counts, self.SHOTS)
        support = len(set(stab[0].counts) | set(dense[0].counts))
        # two fair samplers of one distribution: TVD concentrates near
        # sqrt(2K / (pi N)); 4x margin keeps the test deterministic-stable
        assert tvd < max(0.05, 4.0 * np.sqrt(2.0 * support / (np.pi * self.SHOTS)))

    def test_exact_distribution_against_statevector_probabilities(self, ):
        qc = random_clifford_circuit(4, 30, seed=9)
        stab = get_backend("stabilizer").run(qc, shots=8000, seed=2).result()[0]
        # the dense engine's sampled path exposes the exact pre-measurement
        # state; compare stabilizer frequencies against exact probabilities
        state = StatevectorSimulator(seed=0).evolve(qc)
        probs = state.probabilities(list(range(4)))
        empirical = np.zeros(16)
        for key, count in stab.counts.items():
            empirical[int(key, 2)] = count / 8000.0
        assert 0.5 * np.abs(empirical - probs).sum() < 0.08

    def test_mid_circuit_equivalence(self):
        # teleportation-style feed-forward-free circuit with mid-circuit
        # measurement: both engines must agree
        qc = deferred_teleportation_circuit(payload_prep=("h",))
        shots = 4000
        stab = get_backend("stabilizer").run(qc, shots=shots, seed=1).result()[0]
        dense = get_backend("statevector").run(qc, shots=shots, seed=1).result()[0]
        assert total_variation(stab.counts, dense.counts, shots) < 0.08


# ---------------------------------------------------------------------------
# algorithm drivers on the stabilizer backend
# ---------------------------------------------------------------------------


class TestAlgorithmDrivers:
    def test_teleportation_on_stabilizer(self):
        result = run_teleportation(("h", "s"), shots=400, backend="stabilizer", seed=1)
        assert result.backend_name == "stabilizer"
        assert result.success_probability == 1.0

    def test_teleportation_on_statevector_matches(self):
        result = run_teleportation(("x",), shots=200, backend="statevector", seed=1)
        assert result.success_probability == 1.0

    def test_non_clifford_payload_rejected_cleanly(self):
        with pytest.raises(BackendError, match="not a Clifford"):
            run_teleportation(("t",), shots=16, backend="stabilizer", seed=1)

    def test_ghz_sampling_beyond_dense_reach(self):
        counts = sample_ghz(150, shots=500, backend="stabilizer", seed=3)
        assert set(counts) == {"0" * 150, "1" * 150}
        assert 150 < counts["0" * 150] < 350

    def test_uniform_superposition_sampling(self):
        counts = sample_uniform_superposition(64, shots=128, backend="stabilizer", seed=0)
        assert sum(counts.values()) == 128
        assert all(len(key) == 64 for key in counts)
