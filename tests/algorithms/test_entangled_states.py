"""Tests for the GHZ and W state preparation circuits."""

import numpy as np
import pytest

from repro.algorithms.entanglement import ghz_circuit, w_state_circuit
from repro.qsim.exceptions import CircuitError
from repro.qsim.simulator import StatevectorSimulator

SIM = StatevectorSimulator(seed=0)


class TestGHZ:
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_ghz_amplitudes(self, n):
        state = SIM.evolve(ghz_circuit(n))
        probs = state.probabilities()
        assert np.isclose(probs[0], 0.5)
        assert np.isclose(probs[-1], 0.5)
        assert np.isclose(probs[1:-1].sum(), 0.0, atol=1e-12)

    def test_ghz_measurement_correlations(self):
        qc = ghz_circuit(4)
        qc.measure_all()
        counts = StatevectorSimulator(seed=1).run(qc, shots=500).counts
        assert set(counts) <= {"0000", "1111"}

    def test_ghz_minimum_size(self):
        with pytest.raises(CircuitError):
            ghz_circuit(1)


class TestWState:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_w_state_single_excitation_support(self, n):
        state = SIM.evolve(w_state_circuit(n))
        probs = state.probabilities()
        expected_support = {1 << k for k in range(n)}
        for index, p in enumerate(probs):
            if index in expected_support:
                assert np.isclose(p, 1.0 / n, atol=1e-9)
            else:
                assert np.isclose(p, 0.0, atol=1e-9)

    def test_w_state_is_normalised(self):
        state = SIM.evolve(w_state_circuit(6))
        assert np.isclose(np.linalg.norm(state.data), 1.0)

    def test_w_state_minimum_size(self):
        with pytest.raises(CircuitError):
            w_state_circuit(1)

    def test_w_and_ghz_differ(self):
        ghz = SIM.evolve(ghz_circuit(3))
        w = SIM.evolve(w_state_circuit(3))
        assert abs(np.vdot(ghz.data, w.data)) ** 2 < 0.8
