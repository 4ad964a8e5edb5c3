"""Unit and property tests for the gate matrix library."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.qsim import gates


ALL_FIXED = {
    "I1": gates.I1,
    "X": gates.X,
    "Y": gates.Y,
    "Z": gates.Z,
    "H": gates.H,
    "S": gates.S,
    "SDG": gates.SDG,
    "T": gates.T,
    "TDG": gates.TDG,
    "SX": gates.SX,
    "CX": gates.CX,
    "CY": gates.CY,
    "CZ": gates.CZ,
    "CH": gates.CH,
    "SWAP": gates.SWAP,
    "ISWAP": gates.ISWAP,
    "CCX": gates.CCX,
    "CSWAP": gates.CSWAP,
}


class TestFixedGates:
    @pytest.mark.parametrize("name", sorted(ALL_FIXED))
    def test_all_fixed_gates_unitary(self, name):
        assert gates.is_unitary(ALL_FIXED[name])

    def test_pauli_algebra(self):
        assert np.allclose(gates.X @ gates.X, np.eye(2))
        assert np.allclose(gates.X @ gates.Y - gates.Y @ gates.X, 2j * gates.Z)
        assert np.allclose(gates.H @ gates.X @ gates.H, gates.Z)

    def test_s_and_t_relations(self):
        assert np.allclose(gates.S @ gates.S, gates.Z)
        assert np.allclose(gates.T @ gates.T, gates.S)
        assert np.allclose(gates.SDG @ gates.S, np.eye(2))

    def test_sx_squares_to_x(self):
        assert np.allclose(gates.SX @ gates.SX, gates.X)

    def test_cx_action_on_basis(self):
        # control listed first and most significant: |10> -> |11>
        state = np.zeros(4)
        state[2] = 1.0
        assert np.allclose(gates.CX @ state, np.eye(4)[3])

    def test_swap_matrix(self):
        state = np.zeros(4)
        state[1] = 1.0  # |01>
        assert np.allclose(gates.SWAP @ state, np.eye(4)[2])

    def test_ccx_only_flips_when_both_controls_set(self):
        for idx in range(8):
            out = gates.CCX @ np.eye(8)[idx]
            expected = idx ^ 1 if idx >= 6 else idx
            assert np.isclose(abs(out[expected]), 1.0)


class TestParametricGates:
    def test_rx_pi_is_x_up_to_phase(self):
        assert np.allclose(gates.rx(math.pi), -1j * gates.X)

    def test_ry_pi_is_y_up_to_phase(self):
        assert np.allclose(gates.ry(math.pi), -1j * gates.Y)

    def test_rz_pi_is_z_up_to_phase(self):
        assert np.allclose(gates.rz(math.pi), -1j * gates.Z)

    def test_phase_gate_values(self):
        assert np.allclose(gates.phase(math.pi), gates.Z)
        assert np.allclose(gates.phase(math.pi / 2), gates.S)

    def test_u3_reduces_to_known_gates(self):
        assert np.allclose(gates.u3(math.pi, 0, math.pi), gates.X)
        assert np.allclose(gates.u3(0, 0, 0), np.eye(2))

    @given(theta=st.floats(-10, 10, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_rotations_are_unitary(self, theta):
        for factory in (gates.rx, gates.ry, gates.rz, gates.phase):
            assert gates.is_unitary(factory(theta))

    @given(theta=st.floats(-6, 6), phi=st.floats(-6, 6), lam=st.floats(-6, 6))
    @settings(max_examples=40, deadline=None)
    def test_u3_unitary(self, theta, phi, lam):
        assert gates.is_unitary(gates.u3(theta, phi, lam))

    def test_two_qubit_rotations(self):
        for factory in (gates.rxx, gates.ryy, gates.rzz):
            m = factory(0.7)
            assert gates.is_unitary(m)
            assert np.allclose(factory(0.0), np.eye(4))

    def test_rzz_diagonal(self):
        theta = 1.1
        m = gates.rzz(theta)
        assert np.allclose(m, np.diag(np.diag(m)))


class TestCombinators:
    def test_controlled_adds_control_block(self):
        cu = gates.controlled(gates.H)
        assert cu.shape == (4, 4)
        assert np.allclose(cu[:2, :2], np.eye(2))
        assert np.allclose(cu[2:, 2:], gates.H)

    def test_double_controlled_x_is_ccx(self):
        assert np.allclose(gates.controlled(gates.X, 2), gates.CCX)

    def test_controlled_zero_is_identity_wrapper(self):
        assert np.allclose(gates.controlled(gates.X, 0), gates.X)

    def test_controlled_negative_raises(self):
        with pytest.raises(ValueError):
            gates.controlled(gates.X, -1)

    def test_expand_kron_order(self):
        m = gates.expand(gates.X, gates.I1)
        state = np.zeros(4)
        state[0] = 1.0  # |00>
        # left factor is most significant -> X acts on the first listed qubit
        assert np.allclose(m @ state, np.eye(4)[2])


class TestRegistry:
    def test_every_registry_entry_produces_unitary(self):
        for name, spec in gates.GATE_REGISTRY.items():
            params = [0.1 * (i + 1) for i in range(spec.num_params)]
            m = gates.gate_matrix(name, params)
            assert m.shape == (2**spec.num_qubits, 2**spec.num_qubits)
            assert gates.is_unitary(m)

    def test_unknown_gate_raises(self):
        with pytest.raises(KeyError):
            gates.gate_matrix("bogus")

    def test_wrong_param_count_raises(self):
        with pytest.raises(ValueError, match=r"gate 'rx' expects 1 parameter\(s\), got 0"):
            gates.gate_matrix("rx")
        with pytest.raises(ValueError, match=r"gate 'x' expects 0 parameter\(s\), got 1"):
            gates.gate_matrix("x", [0.1])

    @pytest.mark.parametrize(
        "name,params",
        [("cp", [0.0]), ("cp", [-0.0]), ("p", [-0.0]), ("rz", [-0.0]), ("rz", [2.5]),
         ("u3", [0.1, -0.0, 3.0]), ("rzz", [-1.25]), ("crx", [math.pi / 8])],
    )
    def test_parametrised_matrices_are_a_read_only_memo_of_fresh_builds(self, name, params):
        fresh = gates.GATE_REGISTRY[name].matrix(*params)
        memo = gates.gate_matrix(name, params)
        assert memo.tobytes() == fresh.tobytes()
        assert gates.gate_matrix(name, list(params)) is memo
        assert not memo.flags.writeable
        with pytest.raises(ValueError):
            memo[0, 0] = 0.0

    def test_signed_zero_parameters_are_distinct_entries(self):
        # rz(-0.0) and rz(0.0) differ in the sign of zero imaginary parts
        plus, minus = gates.gate_matrix("rz", [0.0]), gates.gate_matrix("rz", [-0.0])
        assert plus is not minus
        assert plus.tobytes() == gates.rz(0.0).tobytes()
        assert minus.tobytes() == gates.rz(-0.0).tobytes() != plus.tobytes()

    def test_is_unitary_rejects_non_square(self):
        assert not gates.is_unitary(np.ones((2, 3)))
        assert not gates.is_unitary(np.ones((2, 2)))
