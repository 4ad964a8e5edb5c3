"""Unit tests for the statevector simulator."""

import numpy as np
import pytest

from repro.qsim.circuit import QuantumCircuit
from repro.qsim.exceptions import SimulationError
from repro.qsim.noise import BitFlipNoise, DepolarizingNoise
from repro.qsim.registers import ClassicalRegister, QuantumRegister
from repro.qsim.result import ExperimentResult
from repro.qsim.simulator import StatevectorSimulator
from repro.qsim.statevector import Statevector


@pytest.fixture
def sim():
    return StatevectorSimulator(seed=42)


class TestEvolve:
    def test_bell_statevector(self, sim):
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1)
        state = sim.evolve(qc)
        assert np.allclose(np.abs(state.data) ** 2, [0.5, 0, 0, 0.5])

    def test_initial_state_override(self, sim):
        qc = QuantumCircuit(1)
        qc.x(0)
        state = sim.evolve(qc, initial_state=Statevector.from_int(1, 1))
        assert np.isclose(abs(state.data[0]), 1.0)

    def test_initial_state_size_mismatch(self, sim):
        qc = QuantumCircuit(2)
        with pytest.raises(SimulationError):
            sim.evolve(qc, initial_state=Statevector.from_int(1, 1))

    def test_initialize_instruction(self, sim):
        qc = QuantumCircuit(3)
        qc.initialize(6, [0, 1, 2])
        state = sim.evolve(qc)
        assert np.isclose(state.probabilities([0, 1, 2])[6], 1.0)

    def test_reset_instruction(self, sim):
        qc = QuantumCircuit(1)
        qc.x(0).reset(0)
        state = sim.evolve(qc)
        assert np.isclose(state.probabilities([0])[0], 1.0)

    def test_barrier_is_noop(self, sim):
        qc = QuantumCircuit(2)
        qc.h(0).barrier().cx(0, 1)
        state = sim.evolve(qc)
        assert np.allclose(np.abs(state.data) ** 2, [0.5, 0, 0, 0.5])


class TestRun:
    def test_deterministic_counts(self, sim):
        qc = QuantumCircuit(2, 2)
        qc.x(0)
        qc.measure([0, 1], [0, 1])
        result = sim.run(qc, shots=100)
        assert result.counts == {"01": 100}

    def test_counts_bit_order_msb_last_clbit(self, sim):
        qc = QuantumCircuit(2, 2)
        qc.x(1)
        qc.measure([0, 1], [0, 1])
        result = sim.run(qc, shots=10)
        # clbit 1 is the leftmost character
        assert result.counts == {"10": 10}

    def test_uniform_distribution(self, sim):
        qc = QuantumCircuit(1, 1)
        qc.h(0)
        qc.measure(0, 0)
        result = sim.run(qc, shots=4000)
        assert abs(result.counts.get("0", 0) - 2000) < 300

    def test_bell_correlations(self, sim):
        qc = QuantumCircuit(2, 2)
        qc.h(0).cx(0, 1)
        qc.measure([0, 1], [0, 1])
        result = sim.run(qc, shots=2000)
        assert set(result.counts) <= {"00", "11"}

    def test_result_helpers(self, sim):
        qc = QuantumCircuit(1, 1)
        qc.x(0)
        qc.measure(0, 0)
        result = sim.run(qc, shots=64)
        assert result.most_frequent() == "1"
        assert result.int_counts() == {1: 64}
        assert np.isclose(sum(result.probabilities().values()), 1.0)

    def test_no_measurements_gives_empty_counts(self, sim):
        qc = QuantumCircuit(1)
        qc.h(0)
        result = sim.run(qc, shots=10)
        assert result.counts == {}
        assert result.metadata["method"] == "sampled"

    def test_sampled_run_reads_the_row_marginal_not_the_full_state(self, sim, monkeypatch):
        from repro.qsim.shotbatch import StatevectorSession

        def refuse(session):
            raise AssertionError("the sampled run built the full 2^n state")

        monkeypatch.setattr(StatevectorSession, "state", property(refuse))
        qc = QuantumCircuit(12, 12)
        qc.h(0).cx(0, 1)
        for qubit in range(2, 12):
            qc.x(qubit)
        qc.measure(list(range(12)), list(range(12)))
        result = sim.run(qc, shots=200)
        assert result.metadata["method"] == "sampled"
        assert set(result.counts) <= {"1" * 10 + "00", "1" * 12}
        assert sum(result.counts.values()) == 200

    def test_most_frequent_raises_without_counts(self, sim):
        result = ExperimentResult(name="empty", counts={}, shots=1)
        with pytest.raises(SimulationError):
            result.most_frequent()

    def test_memory_collects_per_shot(self, sim):
        qc = QuantumCircuit(1, 1)
        qc.h(0)
        qc.measure(0, 0)
        result = sim.run(qc, shots=50, memory=True)
        assert len(result.memory) == 50
        assert set(result.memory) <= {"0", "1"}

    def test_shots_must_be_positive(self, sim):
        qc = QuantumCircuit(1, 1)
        with pytest.raises(SimulationError):
            sim.run(qc, shots=0)

    def test_seed_reproducibility(self):
        qc = QuantumCircuit(1, 1)
        qc.h(0)
        qc.measure(0, 0)
        a = StatevectorSimulator(seed=9).run(qc, shots=200).counts
        b = StatevectorSimulator(seed=9).run(qc, shots=200).counts
        assert a == b


class TestMidCircuitMeasurement:
    def test_gate_after_measure_triggers_per_shot_path(self):
        sim = StatevectorSimulator(seed=3)
        qc = QuantumCircuit(2, 2)
        qc.h(0)
        qc.measure(0, 0)
        qc.cx(0, 1)  # depends on the collapsed value
        qc.measure(1, 1)
        result = sim.run(qc, shots=300)
        # after collapse both bits must always agree
        assert set(result.counts) <= {"00", "11"}
        assert result.metadata["method"] == "batched_shots"

    def test_measurement_then_reuse_statistics(self):
        sim = StatevectorSimulator(seed=5)
        qc = QuantumCircuit(1, 2)
        qc.h(0)
        qc.measure(0, 0)
        qc.h(0)
        qc.measure(0, 1)
        result = sim.run(qc, shots=800)
        # second measurement is 50/50 regardless of the first
        ones_second = sum(v for k, v in result.counts.items() if k[0] == "1")
        assert abs(ones_second - 400) < 120


class TestNoise:
    def test_bitflip_noise_changes_outcomes(self):
        noisy = StatevectorSimulator(seed=1, noise_model=BitFlipNoise(1.0))
        qc = QuantumCircuit(1, 1)
        qc.id(0)
        qc.measure(0, 0)
        result = noisy.run(qc, shots=50)
        assert result.counts == {"1": 50}

    def test_zero_noise_matches_ideal(self):
        noisy = StatevectorSimulator(seed=1, noise_model=BitFlipNoise(0.0))
        qc = QuantumCircuit(1, 1)
        qc.x(0)
        qc.measure(0, 0)
        assert noisy.run(qc, shots=20).counts == {"1": 20}

    def test_depolarizing_probability_bounds(self):
        with pytest.raises(SimulationError):
            DepolarizingNoise(1.5)
        with pytest.raises(SimulationError):
            BitFlipNoise(-0.1)

    def test_depolarizing_degrades_bell_fidelity(self):
        noisy = StatevectorSimulator(seed=8, noise_model=DepolarizingNoise(0.3))
        qc = QuantumCircuit(2, 2)
        qc.h(0).cx(0, 1)
        qc.measure([0, 1], [0, 1])
        result = noisy.run(qc, shots=400)
        mismatches = sum(v for k, v in result.counts.items() if k in ("01", "10"))
        assert mismatches > 0
