"""Tests for the density-matrix simulator and exact noise channels."""

import math

import numpy as np
import pytest

from repro.qsim import gates
from repro.qsim.backends import get_backend
from repro.qsim.circuit import QuantumCircuit
from repro.qsim.density import DensityMatrix, DensityMatrixSimulator
from repro.qsim.exceptions import SimulationError
from repro.qsim.instruction import ControlledGate, Gate
from repro.qsim.noise import (
    BitFlipNoise,
    DepolarizingNoise,
    NoiseModel,
    amplitude_damping_kraus,
    bit_flip_kraus,
    depolarizing_kraus,
    phase_flip_kraus,
)
from repro.qsim.simulator import StatevectorSimulator
from repro.qsim.statevector import Statevector


class TestKrausChannels:
    @pytest.mark.parametrize("factory", [bit_flip_kraus, phase_flip_kraus, depolarizing_kraus, amplitude_damping_kraus])
    def test_completeness_relation(self, factory):
        kraus = factory(0.3)
        total = sum(k.conj().T @ k for k in kraus)
        assert np.allclose(total, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("factory", [bit_flip_kraus, depolarizing_kraus])
    def test_invalid_probability(self, factory):
        with pytest.raises(SimulationError):
            factory(1.5)

    def test_zero_probability_is_identity_channel(self):
        dm = DensityMatrix.from_statevector(Statevector([1.0, 1.0]))
        before = dm.data.copy()
        dm.apply_kraus(bit_flip_kraus(0.0), [0])
        assert np.allclose(dm.data, before)


class TestNoiseModelValidation:
    """A noise model is one single-qubit channel, validated when it is built."""

    def test_valid_channel_accepted(self):
        model = NoiseModel(amplitude_damping_kraus(0.1))
        assert len(model.kraus) == 2
        assert model.pauli_terms() is None
        assert DensityMatrixSimulator(noise_model=model).noise_model is model

    def test_two_qubit_kraus_rejected_with_convention_in_message(self):
        # a 4x4 operator would silently degrade into nonsense; it fails
        # loudly, naming the per-touched-qubit convention
        bad = [np.eye(4, dtype=complex)]
        with pytest.raises(SimulationError, match="single-qubit .2x2. Kraus"):
            NoiseModel(bad)

    def test_incomplete_kraus_set_rejected(self):
        # K^dagger K sums to 0.5 I -- not trace preserving
        half = [math.sqrt(0.5) * gates.I1]
        with pytest.raises(SimulationError, match="sum K\\^dagger K != I"):
            NoiseModel(half)

    def test_pauli_terms_must_describe_the_kraus_channel(self):
        with pytest.raises(SimulationError, match="do not describe"):
            NoiseModel(bit_flip_kraus(0.1), (("Z", 0.1),))

    def test_empty_operator_list_rejected(self):
        with pytest.raises(SimulationError, match="at least one"):
            NoiseModel([])

    def test_wide_gates_take_the_channel_on_every_qubit(self):
        # a three-qubit unitary takes the channel independently per touched qubit
        qc = QuantumCircuit(3, 3)
        qc.ccx(0, 1, 2)
        qc.measure([0, 1, 2], [0, 1, 2])
        sim = DensityMatrixSimulator(seed=0, noise_model=BitFlipNoise(0.5))
        counts = sim.run(qc, shots=400).counts
        assert len(counts) == 8  # every qubit flips independently


class TestDensityMatrix:
    def test_zero_state(self):
        dm = DensityMatrix.zero_state(2)
        assert dm.purity() == pytest.approx(1.0)
        assert np.isclose(dm.probabilities([0, 1])[0], 1.0)

    def test_from_statevector_matches_probabilities(self):
        sv = Statevector.zero_state(2)
        sv.apply_unitary(gates.H, [0])
        sv.apply_unitary(gates.CX, [0, 1])
        dm = DensityMatrix.from_statevector(sv)
        assert np.allclose(dm.probabilities([0, 1]), sv.probabilities([0, 1]))
        assert dm.purity() == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(SimulationError):
            DensityMatrix(np.ones((2, 3)))
        with pytest.raises(SimulationError):
            DensityMatrix(np.array([[0, 1], [0, 0]]))  # not Hermitian

    def test_unitary_evolution_matches_statevector(self):
        sv = Statevector.zero_state(3)
        dm = DensityMatrix.zero_state(3)
        ops = [
            (gates.H, [0]),
            (gates.CX, [0, 1]),
            (gates.T, [1]),
            (gates.CCX, [0, 1, 2]),
            (gates.ry(0.7), [2]),
        ]
        for matrix, targets in ops:
            sv.apply_unitary(matrix, targets)
            dm.apply_unitary(matrix, targets)
        assert np.allclose(dm.probabilities(), sv.probabilities(), atol=1e-9)
        assert np.real(sv.data.conj() @ dm.data @ sv.data) == pytest.approx(1.0)

    def test_unitary_evolution_needs_no_hermitian_rho(self):
        # U X U^dagger for an operator X that is not Hermitian, such as |0><1|
        rng = np.random.default_rng(4)
        data = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        dm = DensityMatrix(data, validate=False)
        full = np.eye(1, dtype=complex)
        for qubit in reversed(range(3)):
            full = np.kron(full, gates.ry(0.3) if qubit == 1 else np.eye(2))
        cx = np.zeros((8, 8), dtype=complex)
        for index in range(8):  # control qubit 0, target qubit 2
            cx[index ^ (4 * (index & 1)), index] = 1.0
        dm.apply_unitary(gates.ry(0.3), [1])
        expected = full @ data @ full.conj().T
        np.testing.assert_allclose(dm.data, expected, atol=1e-12)
        dm.apply_unitary(gates.CX, [0, 2])
        np.testing.assert_allclose(dm.data, cx @ expected @ cx.conj().T, atol=1e-12)

    def test_wide_controlled_gate_keeps_its_controls_on_both_halves(self, monkeypatch):
        n = 8
        sv = Statevector.zero_state(n)
        for qubit in range(n):
            sv.apply_unitary(gates.ry(0.4 + 0.3 * qubit), [qubit])
        dm = DensityMatrix.from_statevector(sv)
        gate = ControlledGate(Gate("u3", 1, [0.9, 0.2, -0.7]), n - 1)

        def refuse(self):
            raise AssertionError(f"built the {self.num_qubits}-qubit matrix of {self.name}")

        monkeypatch.setattr(ControlledGate, "to_matrix", refuse)
        targets = list(range(1, n)) + [0]
        sv.apply_unitary(gate, targets)
        dm._sandwich(targets, gate)  # how the simulator applies an instruction
        np.testing.assert_allclose(dm.data, np.outer(sv.data, sv.data.conj()), atol=1e-12)

    def test_bit_flip_channel_mixes_state(self):
        dm = DensityMatrix.zero_state(1)
        dm.apply_kraus(bit_flip_kraus(0.25), [0])
        assert dm.purity() < 1.0
        assert np.allclose(dm.probabilities([0]), [0.75, 0.25])

    def test_amplitude_damping_decays_excited_state(self):
        dm = DensityMatrix.from_statevector(Statevector.from_int(1, 1))
        dm.apply_kraus(amplitude_damping_kraus(0.4), [0])
        assert np.isclose(dm.probabilities([0])[0], 0.4)

    def test_depolarizing_limits_to_maximally_mixed(self):
        dm = DensityMatrix.from_statevector(Statevector([1.0, 1.0]))
        for _ in range(50):
            dm.apply_kraus(depolarizing_kraus(0.5), [0])
        assert np.allclose(dm.probabilities([0]), [0.5, 0.5], atol=1e-3)
        assert dm.purity() == pytest.approx(0.5, abs=1e-3)

class TestDensityMatrixSimulator:
    def test_matches_statevector_on_noiseless_circuit(self):
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1).t(1).rz(0.4, 0)
        dm = DensityMatrixSimulator(seed=0).evolve(qc)
        sv = StatevectorSimulator(seed=0).evolve(qc)
        assert np.allclose(dm.probabilities(), sv.probabilities(), atol=1e-9)
        assert np.real(sv.data.conj() @ dm.data @ sv.data) == pytest.approx(1.0)

    def test_initialize_over_all_qubits(self):
        qc = QuantumCircuit(2)
        qc.initialize(np.array([1, 0, 0, 1]) / np.sqrt(2), [0, 1])
        dm = DensityMatrixSimulator(seed=0).evolve(qc)
        assert np.allclose(dm.probabilities([0, 1]), [0.5, 0, 0, 0.5])

    def test_partial_initialize_matches_statevector(self):
        qc = QuantumCircuit(3, 3)
        qc.h(2)
        qc.initialize(np.array([0.6, 0.0, 0.0, 0.8j]), [0, 1])
        qc.cx(0, 2)
        dm = DensityMatrixSimulator(seed=0).evolve(qc)
        sv = StatevectorSimulator(seed=0).evolve(qc)
        assert np.allclose(dm.probabilities(), sv.probabilities(), atol=1e-12)
        qc.measure([0, 1, 2], [0, 1, 2])
        counts = DensityMatrixSimulator(seed=4).run(qc, shots=500).counts
        assert set(counts) <= {"011", "100", "111", "000"} and sum(counts.values()) == 500

    def test_initialize_on_excited_targets_rejected(self):
        qc = QuantumCircuit(2)
        qc.x(0)
        qc.initialize(1, [0])
        with pytest.raises(SimulationError, match=r"\|0\.\.\.0>"):
            DensityMatrixSimulator(seed=0).evolve(qc)

    def test_noise_model_degrades_bell_fidelity(self):
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1)
        noisy = DensityMatrixSimulator(seed=0, noise_model=DepolarizingNoise(0.05))
        dm = noisy.evolve(qc)
        bell = StatevectorSimulator(seed=0).evolve(qc)
        fidelity = np.real(bell.data.conj() @ dm.data @ bell.data)
        assert 0.7 < fidelity < 1.0

    def test_exact_channel_matches_trajectory_average(self):
        # bit-flip p=0.2 after a single X gate: exact channel vs Monte Carlo
        qc = QuantumCircuit(1, 1)
        qc.x(0)
        qc.measure(0, 0)
        exact = DensityMatrixSimulator(seed=1, noise_model=BitFlipNoise(0.2))
        exact_counts = exact.run(qc, shots=200_00).int_counts()
        trajectory = StatevectorSimulator(seed=1, noise_model=BitFlipNoise(0.2))
        traj_counts = trajectory.run(qc, shots=200_00).counts
        exact_p1 = exact_counts.get(1, 0) / 200_00
        traj_p1 = traj_counts.get("1", 0) / 200_00
        assert abs(exact_p1 - 0.8) < 0.02
        assert abs(traj_p1 - exact_p1) < 0.03

    def test_run_counts_shim_is_gone(self):
        # the deprecated int-keyed shim is retired; Result.int_counts() is
        # the supported spelling
        assert not hasattr(DensityMatrixSimulator(seed=0), "run_counts")

    def test_run_returns_unified_result(self):
        qc = QuantumCircuit(2, 2)
        qc.h(0).cx(0, 1)
        qc.measure([0, 1], [0, 1])
        result = DensityMatrixSimulator(seed=0).run(qc, shots=300)
        assert set(result.counts) <= {"00", "11"}
        assert sum(result.counts.values()) == 300
        assert result.shots == 300
        assert result.density_matrix is not None
        assert result.density_matrix.purity() == pytest.approx(1.0)

    def test_run_matches_statevector_counts_noiseless(self):
        # regression for the historic inconsistency: int-keyed counts with
        # no Result object -- both engines must now produce the *same*
        # MSB-first bitstring histogram for the same seed
        qc = QuantumCircuit(2, 2)
        qc.h(0).cx(0, 1)
        qc.measure([0, 1], [0, 1])
        dm = DensityMatrixSimulator(seed=7).run(qc, shots=400)
        sv = StatevectorSimulator(seed=7).run(qc, shots=400)
        assert dm.counts == sv.counts

    def test_run_seed_override_is_reproducible(self):
        qc = QuantumCircuit(1, 1)
        qc.h(0)
        qc.measure(0, 0)
        backend = get_backend("density_matrix", seed=0)
        first = backend.run(qc, shots=100, seed=5).result().get_counts()
        second = backend.run(qc, shots=100, seed=5).result().get_counts()
        assert first == second

    def test_run_memory(self):
        qc = QuantumCircuit(1, 1)
        qc.x(0)
        qc.measure(0, 0)
        result = DensityMatrixSimulator(seed=0).run(qc, shots=10, memory=True)
        assert result.memory == ["1"] * 10

    def test_run_per_shot_with_mid_circuit_measurement(self):
        qc = QuantumCircuit(2, 2)
        qc.h(0)
        qc.measure(0, 0)
        qc.cx(0, 1)  # acts after the measurement -> per-shot collapse path
        qc.measure(1, 1)
        result = DensityMatrixSimulator(seed=1).run(qc, shots=80)
        assert set(result.counts) <= {"00", "11"}  # the two qubits always agree
        assert sum(result.counts.values()) == 80
        assert result.density_matrix is None

    def test_int_counts_match_bitstring_counts(self):
        qc = QuantumCircuit(2, 2)
        qc.h(0).cx(0, 1)
        qc.measure([0, 1], [0, 1])
        result = DensityMatrixSimulator(seed=4).run(qc, shots=200)
        assert result.int_counts() == {int(k, 2): v for k, v in result.counts.items()}

    def test_reset_in_circuit(self):
        qc = QuantumCircuit(1)
        qc.x(0).reset(0)
        dm = DensityMatrixSimulator(seed=0).evolve(qc)
        assert np.isclose(dm.probabilities([0])[0], 1.0)

    def test_measure_in_circuit_collapses(self):
        qc = QuantumCircuit(2, 1)
        qc.h(0).cx(0, 1)
        qc.measure(0, 0)
        dm = DensityMatrixSimulator(seed=3).evolve(qc)
        probs = dm.probabilities([0, 1])
        # after measuring one half of a Bell pair both qubits agree
        assert np.isclose(probs[0] + probs[3], 1.0)


class TestMemoryBudget:
    """``run`` and ``evolve`` refuse a ``rho`` over the memory budget with
    the sized error, before numpy is asked for it.  The budget is patched
    down to one byte under a 4-qubit ``rho`` (16 * 4^4 bytes), so no test
    ever requests a large allocation."""

    @pytest.fixture(autouse=True)
    def small_budget(self, monkeypatch):
        from repro.qsim import simulator

        monkeypatch.setattr(simulator, "DEFAULT_MEMORY_BUDGET_BYTES", 16 * 4**4 - 1)

    @staticmethod
    def circuit(monomial_prefix):
        qc = QuantumCircuit(4, 4)
        if monomial_prefix:  # runs on populations, then expands at the h
            qc.x(0).cx(0, 1)
        qc.h(2)
        qc.measure(list(range(4)), list(range(4)))
        return qc

    @pytest.mark.parametrize("monomial_prefix", [False, True])
    @pytest.mark.parametrize("entry", ["run", "evolve"])
    def test_rho_over_the_budget_is_refused_with_its_size(self, entry, monomial_prefix):
        engine = DensityMatrixSimulator(seed=1)
        qc = self.circuit(monomial_prefix)
        with pytest.raises(SimulationError, match="a 4-qubit density matrix needs 4096 bytes"):
            engine.run(qc, shots=10) if entry == "run" else engine.evolve(qc)

    def test_rho_within_the_budget_runs(self, monkeypatch):
        from repro.qsim import simulator

        monkeypatch.setattr(simulator, "DEFAULT_MEMORY_BUDGET_BYTES", 16 * 4**4)
        result = DensityMatrixSimulator(seed=1).run(self.circuit(True), shots=10)
        assert sum(result.counts.values()) == 10

    @pytest.mark.parametrize("width, attached", [(3, True), (4, False)])
    def test_a_population_leaf_attaches_rho_only_when_it_fits(self, width, attached):
        qc = QuantumCircuit(width, width)
        for qubit in range(width):
            qc.x(qubit)
        qc.measure(list(range(width)), list(range(width)))
        result = DensityMatrixSimulator(seed=1).run(qc, shots=10)
        assert result.counts == {"1" * width: 10}
        assert (result.density_matrix is not None) is attached


def test_a_wide_population_run_returns_its_counts_without_rho():
    """15 qubits of ``x`` stay on 2^15 populations; their 4^15-entry matrix
    is over the default budget, so the result carries the counts alone."""
    qc = QuantumCircuit(15, 15)
    for qubit in range(15):
        qc.x(qubit)
    qc.measure(list(range(15)), list(range(15)))
    result = DensityMatrixSimulator(seed=1).run(qc, shots=10)
    assert result.counts == {"1" * 15: 10}
    assert result.density_matrix is None
