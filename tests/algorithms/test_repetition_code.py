"""Tests for the repetition-code memory experiment (noise-aware QEC demo)."""

import time

import pytest

from repro.algorithms import (
    decode_majority,
    repetition_code_circuit,
    run_repetition_code,
)
from repro.qsim.backends import get_backend
from repro.qsim.exceptions import SimulationError
from repro.qsim.noise import BitFlipNoise
from repro.qsim.transpiler import is_clifford


class TestCircuitConstruction:
    def test_layout_and_registers(self):
        qc = repetition_code_circuit(3, rounds=2)
        assert qc.num_qubits == 5          # 3 data + 2 ancillas
        assert qc.num_clbits == 2 * 2 + 3  # 2 rounds x 2 syndromes + 3 data
        assert is_clifford(qc)

    def test_distance_one_has_no_ancillas(self):
        qc = repetition_code_circuit(1)
        assert qc.num_qubits == 1
        assert qc.num_clbits == 1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(SimulationError):
            repetition_code_circuit(0)
        with pytest.raises(SimulationError):
            repetition_code_circuit(3, rounds=0)
        with pytest.raises(SimulationError):
            repetition_code_circuit(3, logical_value=2)

    def test_decode_majority(self):
        assert decode_majority("000") == 0
        assert decode_majority("101") == 1
        assert decode_majority("010") == 0
        assert decode_majority("1111") == 1


class TestNoiselessRuns:
    @pytest.mark.parametrize("logical_value", [0, 1])
    def test_perfect_memory_without_noise(self, logical_value):
        result = run_repetition_code(
            5, p=0.0, logical_value=logical_value, shots=200, backend="stabilizer", seed=1
        )
        assert result.logical_error_rate == 0.0
        assert result.detection_rate == 0.0
        expected = ("1" if logical_value else "0") * 5
        assert result.data_counts == {expected: 200}


class TestNoisyRuns:
    def test_code_distance_suppresses_logical_errors(self):
        rates = {}
        for distance in (1, 5):
            rates[distance] = run_repetition_code(
                distance, p=0.05, noise="bit_flip", shots=3000,
                backend="stabilizer", seed=5,
            ).logical_error_rate
        # an unencoded qubit fails far more often than the distance-5 code
        assert rates[1] > 0.02
        assert rates[5] < rates[1] / 2

    def test_syndromes_detect_injected_errors(self):
        result = run_repetition_code(
            5, p=0.1, noise="bit_flip", shots=1000, backend="stabilizer", seed=2
        )
        assert result.detection_rate > 0.3

    def test_stabilizer_matches_statevector_statistically(self):
        results = {
            backend: run_repetition_code(
                3, p=0.05, noise="bit_flip", shots=4000, backend=backend, seed=11
            )
            for backend in ("stabilizer", "statevector")
        }
        stab, sv = results["stabilizer"], results["statevector"]
        assert abs(stab.logical_error_rate - sv.logical_error_rate) < 0.02
        assert abs(stab.detection_rate - sv.detection_rate) < 0.04

    def test_density_matrix_backend_validates_small_code(self):
        # the density-matrix engine applies the same noise model exactly
        result = run_repetition_code(
            3, p=0.05, noise="bit_flip", shots=1500, backend="density_matrix", seed=11
        )
        reference = run_repetition_code(
            3, p=0.05, noise="bit_flip", shots=1500, backend="stabilizer", seed=11
        )
        assert abs(result.logical_error_rate - reference.logical_error_rate) < 0.03
        assert abs(result.detection_rate - reference.detection_rate) < 0.05

    def test_noiseless_density_matrix_runs(self):
        result = run_repetition_code(3, p=0.0, shots=100, backend="density_matrix", seed=1)
        assert result.logical_error_rate == 0.0

    def test_preconfigured_backend_instance_accepted(self):
        backend = get_backend("stabilizer", seed=3, noise_model=BitFlipNoise(0.05))
        result = run_repetition_code(3, shots=500, backend=backend)
        assert result.shots == 500

    def test_unknown_noise_name_rejected(self):
        with pytest.raises(SimulationError, match="unknown noise channel"):
            run_repetition_code(3, noise="cosmic_rays", shots=10)

    def test_hundred_qubit_acceptance(self):
        # the ISSUE acceptance bound: 100+ qubits, depolarizing p=0.01, < 2 s
        start = time.perf_counter()
        result = run_repetition_code(
            51, rounds=2, p=0.01, shots=1024, backend="stabilizer", seed=7
        )
        elapsed = time.perf_counter() - start
        assert result.num_qubits == 101
        assert elapsed < 2.0
        assert result.logical_error_rate < 0.01
        assert result.detection_rate > 0.5