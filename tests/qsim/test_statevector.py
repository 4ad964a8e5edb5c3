"""Unit tests for the dense statevector engine."""

import math

import numpy as np
import pytest

from repro.qsim import gates
from repro.qsim.exceptions import SimulationError
from repro.qsim.statevector import Statevector


class TestConstruction:
    def test_zero_state(self):
        sv = Statevector.zero_state(3)
        assert sv.num_qubits == 3
        assert sv.data[0] == 1.0
        assert np.allclose(np.linalg.norm(sv.data), 1.0)

    def test_from_int(self):
        sv = Statevector.from_int(5, 3)
        assert sv.data[5] == 1.0
        assert abs(np.linalg.norm(sv.data) - 1.0) < 1e-12

    def test_from_int_out_of_range(self):
        with pytest.raises(SimulationError):
            Statevector.from_int(8, 3)

    def test_normalization_on_construction(self):
        sv = Statevector([2.0, 0.0])
        assert np.isclose(abs(sv.data[0]), 1.0)

    def test_bad_length(self):
        with pytest.raises(SimulationError):
            Statevector([1.0, 0.0, 0.0])


class TestEvolution:
    def test_x_flips_qubit(self):
        sv = Statevector.zero_state(2)
        sv.apply_unitary(gates.X, [1])
        assert np.isclose(abs(sv.data[2]), 1.0)

    def test_h_makes_uniform(self):
        sv = Statevector.zero_state(1)
        sv.apply_unitary(gates.H, [0])
        assert np.allclose(np.abs(sv.data) ** 2, [0.5, 0.5])

    def test_cx_convention_control_first(self):
        # control = qubit 0, target = qubit 1
        sv = Statevector.from_int(1, 2)  # qubit 0 set
        sv.apply_unitary(gates.CX, [0, 1])
        assert np.isclose(abs(sv.data[3]), 1.0)  # both set now

    def test_cx_no_action_when_control_zero(self):
        sv = Statevector.from_int(2, 2)  # only qubit 1 set
        sv.apply_unitary(gates.CX, [0, 1])
        assert np.isclose(abs(sv.data[2]), 1.0)

    def test_bell_state(self):
        sv = Statevector.zero_state(2)
        sv.apply_unitary(gates.H, [0])
        sv.apply_unitary(gates.CX, [0, 1])
        probs = np.abs(sv.data) ** 2
        assert np.allclose(probs, [0.5, 0, 0, 0.5])

    def test_swap(self):
        sv = Statevector.from_int(1, 2)
        sv.apply_unitary(gates.SWAP, [0, 1])
        assert np.isclose(abs(sv.data[2]), 1.0)

    def test_toffoli(self):
        sv = Statevector.from_int(3, 3)  # controls (0,1) set
        sv.apply_unitary(gates.CCX, [0, 1, 2])
        assert np.isclose(abs(sv.data[7]), 1.0)

    def test_duplicate_targets_rejected(self):
        sv = Statevector.zero_state(2)
        with pytest.raises(SimulationError):
            sv.apply_unitary(gates.CX, [0, 0])

    def test_matrix_shape_mismatch(self):
        sv = Statevector.zero_state(2)
        with pytest.raises(SimulationError):
            sv.apply_unitary(gates.CX, [0])

    def test_unitarity_preserved(self):
        rng = np.random.default_rng(7)
        sv = Statevector.zero_state(4)
        for _ in range(20):
            theta = rng.uniform(0, 2 * math.pi)
            q = int(rng.integers(0, 4))
            sv.apply_unitary(gates.ry(theta), [q])
            q2 = int(rng.integers(0, 4))
            if q2 != q:
                sv.apply_unitary(gates.CX, [q, q2])
        assert abs(np.linalg.norm(sv.data) - 1.0) < 1e-9


class TestInitialize:
    def test_initialize_basis_value(self):
        sv = Statevector.zero_state(3)
        amps = np.zeros(4)
        amps[2] = 1.0
        sv.initialize_qubits(amps, [0, 1])
        # little-endian over targets: value 2 -> qubit1 = 1, qubit0 = 0
        assert np.isclose(sv.probabilities([0, 1])[2], 1.0)
        assert np.isclose(sv.probabilities([2])[0], 1.0)

    def test_initialize_superposition(self):
        sv = Statevector.zero_state(2)
        sv.initialize_qubits(np.array([1.0, 0.0, 0.0, 1.0]), [0, 1])
        probs = sv.probabilities([0, 1])
        assert np.allclose(probs, [0.5, 0, 0, 0.5])

    def test_initialize_requires_zero_state(self):
        sv = Statevector.zero_state(2)
        sv.apply_unitary(gates.X, [0])
        with pytest.raises(SimulationError):
            sv.initialize_qubits(np.array([0.0, 1.0]), [0])

    def test_initialize_preserves_other_qubits(self):
        sv = Statevector.zero_state(3)
        sv.apply_unitary(gates.H, [2])
        sv.initialize_qubits(np.array([0.0, 1.0, 0.0, 0.0]), [0, 1])
        assert np.allclose(sv.probabilities([2]), [0.5, 0.5])
        assert np.isclose(sv.probabilities([0, 1])[1], 1.0)


class TestMeasurement:
    def test_probabilities_marginal(self):
        sv = Statevector.zero_state(2)
        sv.apply_unitary(gates.H, [0])
        assert np.allclose(sv.probabilities([0]), [0.5, 0.5])
        assert np.allclose(sv.probabilities([1]), [1.0, 0.0])

    def test_probabilities_little_endian(self):
        sv = Statevector.from_int(6, 3)  # binary 110 -> qubits 1 and 2 set
        probs = sv.probabilities([0, 1, 2])
        assert np.isclose(probs[6], 1.0)

class TestAnalysis:
    def test_to_dict(self):
        sv = Statevector.from_int(2, 2)
        assert list(sv.to_dict()) == ["10"]
