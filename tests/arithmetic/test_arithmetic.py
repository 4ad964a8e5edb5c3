"""Unit and property tests for the quantum arithmetic circuits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arithmetic import (
    build_constant_adder,
    build_draper_adder,
    build_greater_than,
    build_qft,
    build_iqft,
    build_rotation_circuit,
    comparator_circuit,
    draper_adder_circuit,
    multiplier_circuit,
    qft_circuit,
    ripple_carry_adder_circuit,
    rotate_indices,
    rotation_depth,
)
from repro.qsim.circuit import QuantumCircuit
from repro.qsim.exceptions import CircuitError
from repro.qsim.simulator import StatevectorSimulator
from repro.qsim.statevector import Statevector

SIM = StatevectorSimulator(seed=0)


def _final_state(circuit, initial_value=0):
    init = Statevector.from_int(initial_value, circuit.num_qubits)
    return SIM.evolve(circuit, initial_state=init)


class TestQFT:
    def test_qft_of_zero_is_uniform(self):
        state = _final_state(qft_circuit(3))
        assert np.allclose(np.abs(state.data) ** 2, np.full(8, 1 / 8))

    def test_qft_inverse_roundtrip(self):
        qc = qft_circuit(3)
        qc.compose(qc.inverse())
        state = _final_state(qc, initial_value=5)
        assert np.isclose(state.probabilities([0, 1, 2])[5], 1.0)

    def test_build_iqft_matches_inverse(self):
        forward = qft_circuit(3)
        qc = qft_circuit(3)
        build_iqft(qc, [0, 1, 2])
        state = _final_state(qc, initial_value=3)
        assert np.isclose(state.probabilities([0, 1, 2])[3], 1.0)

    def test_qft_matrix_matches_dft(self):
        n = 2
        qc = qft_circuit(n)
        cols = []
        for value in range(2**n):
            cols.append(_final_state(qc, initial_value=value).data)
        unitary = np.array(cols).T
        dft = np.array(
            [[np.exp(2j * np.pi * x * y / 2**n) for x in range(2**n)] for y in range(2**n)]
        ) / np.sqrt(2**n)
        assert np.allclose(unitary, dft, atol=1e-9)


def _encode_operands(num_bits, a, b, circuit):
    """Prepare a and b (little-endian) by X gates on a fresh prefix circuit."""
    prep = QuantumCircuit(name="prep")
    for reg in circuit.qregs:
        prep.add_register(reg)
    for reg in circuit.cregs:
        prep.add_register(reg)
    for bit in range(num_bits):
        if (a >> bit) & 1:
            prep.x(bit)
        if (b >> bit) & 1:
            prep.x(num_bits + bit)
    prep.compose(circuit)
    return prep


class TestAdders:
    @pytest.mark.parametrize("a,b", [(0, 0), (1, 1), (3, 5), (7, 7), (6, 2)])
    def test_ripple_carry_adder(self, a, b):
        n = 3
        qc = _encode_operands(n, a, b, ripple_carry_adder_circuit(n))
        state = _final_state(qc)
        b_qubits = list(range(n, 2 * n))
        assert np.isclose(state.probabilities(b_qubits)[(a + b) % 2**n], 1.0)
        # operand a unchanged, ancilla back to zero
        assert np.isclose(state.probabilities(list(range(n)))[a], 1.0)
        assert np.isclose(state.probabilities([2 * n])[0], 1.0)

    @pytest.mark.parametrize("a,b", [(5, 6), (7, 7), (1, 0)])
    def test_ripple_carry_with_carry_out(self, a, b):
        n = 3
        qc = _encode_operands(n, a, b, ripple_carry_adder_circuit(n, with_carry_out=True))
        state = _final_state(qc)
        total = a + b
        b_qubits = list(range(n, 2 * n))
        cout = 2 * n + 1
        assert np.isclose(state.probabilities(b_qubits)[total % 2**n], 1.0)
        assert np.isclose(state.probabilities([cout])[total >> n], 1.0)

    @pytest.mark.parametrize("a,b", [(0, 0), (1, 2), (3, 3), (5, 7), (4, 6)])
    def test_draper_adder(self, a, b):
        n = 3
        qc = _encode_operands(n, a, b, draper_adder_circuit(n))
        state = _final_state(qc)
        b_qubits = list(range(n, 2 * n))
        assert np.isclose(state.probabilities(b_qubits)[(a + b) % 2**n], 1.0, atol=1e-6)
        assert np.isclose(state.probabilities(list(range(n)))[a], 1.0, atol=1e-6)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("a,b", [(0, 5), (1, 14), (3, 3), (2, 9)])
    def test_draper_adder_with_narrower_source(self, a, b, sign):
        # a 2-qubit source added into (or subtracted from) a 4-qubit target
        qc = QuantumCircuit(6)
        qc.initialize(a | (b << 2), list(range(6)))
        build_draper_adder(qc, [0, 1], [2, 3, 4, 5], sign=sign)
        state = SIM.evolve(qc)
        assert np.isclose(state.probabilities([2, 3, 4, 5])[(b + sign * a) % 16], 1.0, atol=1e-6)
        assert np.isclose(state.probabilities([0, 1])[a], 1.0, atol=1e-6)

    def test_draper_adder_rejects_a_wider_source(self):
        with pytest.raises(CircuitError, match="no wider than the target"):
            build_draper_adder(QuantumCircuit(3), [0, 1], [2])

    @given(a=st.integers(0, 15), b=st.integers(0, 15))
    @settings(max_examples=25, deadline=None)
    def test_adders_agree_property(self, a, b):
        n = 4
        ripple = _final_state(_encode_operands(n, a, b, ripple_carry_adder_circuit(n)))
        b_qubits = list(range(n, 2 * n))
        expected = (a + b) % 2**n
        assert np.isclose(ripple.probabilities(b_qubits)[expected], 1.0, atol=1e-6)

    @pytest.mark.parametrize("value,start", [(0, 0), (3, 1), (7, 7), (5, 2)])
    def test_constant_adder(self, value, start):
        n = 3
        qc = QuantumCircuit(n)
        if start:
            qc.initialize(start, list(range(n)))
        build_constant_adder(qc, value, list(range(n)))
        state = SIM.evolve(qc)
        assert np.isclose(state.probabilities(list(range(n)))[(start + value) % 2**n], 1.0, atol=1e-6)

    @pytest.mark.parametrize("value,start", [(3, 1), (7, 7), (5, 2)])
    def test_constant_subtractor(self, value, start):
        n = 3
        qc = QuantumCircuit(n)
        qc.initialize(start, list(range(n)))
        build_constant_adder(qc, value, list(range(n)), sign=-1)
        state = SIM.evolve(qc)
        assert np.isclose(state.probabilities(list(range(n)))[(start - value) % 2**n], 1.0, atol=1e-6)

    def test_adder_on_superposed_input(self):
        # |a> = (|1> + |2>)/sqrt(2), b = 3 -> result superposes 4 and 5
        n = 3
        qc = ripple_carry_adder_circuit(n)
        prep = QuantumCircuit(name="prep")
        for reg in qc.qregs:
            prep.add_register(reg)
        prep.initialize(np.array([0, 1, 1, 0, 0, 0, 0, 0]) / np.sqrt(2), [0, 1, 2])
        prep.initialize(3, [3, 4, 5])
        prep.compose(qc)
        state = SIM.evolve(prep)
        probs = state.probabilities([3, 4, 5])
        assert np.isclose(probs[4], 0.5, atol=1e-6)
        assert np.isclose(probs[5], 0.5, atol=1e-6)

    def test_size_mismatch_raises(self):
        qc = QuantumCircuit(5)
        with pytest.raises(CircuitError):
            from repro.arithmetic import build_ripple_carry_adder

            build_ripple_carry_adder(qc, [0, 1], [2, 3, 4][:3], 4)


class TestComparator:
    @pytest.mark.parametrize("a,b", [(0, 0), (1, 0), (0, 1), (5, 3), (3, 5), (7, 7), (6, 7)])
    def test_greater_than(self, a, b):
        n = 3
        qc = _encode_operands(n, a, b, comparator_circuit(n))
        state = _final_state(qc)
        result_qubit = 2 * n
        expected = 1 if a > b else 0
        assert np.isclose(state.probabilities([result_qubit])[expected], 1.0)
        # operands unchanged and ancilla restored
        assert np.isclose(state.probabilities(list(range(n)))[a], 1.0)
        assert np.isclose(state.probabilities(list(range(n, 2 * n)))[b], 1.0)
        assert np.isclose(state.probabilities([2 * n + 1])[0], 1.0)

    @given(a=st.integers(0, 15), b=st.integers(0, 15))
    @settings(max_examples=25, deadline=None)
    def test_greater_than_property(self, a, b):
        n = 4
        qc = _encode_operands(n, a, b, comparator_circuit(n))
        state = _final_state(qc)
        expected = 1 if a > b else 0
        assert np.isclose(state.probabilities([2 * n])[expected], 1.0)


class TestMultiplier:
    @pytest.mark.parametrize("a,b", [(0, 0), (1, 1), (2, 3), (3, 3), (3, 2)])
    def test_product(self, a, b):
        n = 2
        qc = multiplier_circuit(n)
        prep = QuantumCircuit(name="prep")
        for reg in qc.qregs:
            prep.add_register(reg)
        for bit in range(n):
            if (a >> bit) & 1:
                prep.x(bit)
            if (b >> bit) & 1:
                prep.x(n + bit)
        prep.compose(qc)
        state = SIM.evolve(prep)
        prod_qubits = list(range(2 * n, 2 * n + 2 * n))
        assert np.isclose(state.probabilities(prod_qubits)[a * b], 1.0, atol=1e-6)


class TestRotations:
    def test_rotate_indices_basic(self):
        assert rotate_indices([0, 1, 2, 3], 1) == [1, 2, 3, 0]
        assert rotate_indices([0, 1, 2, 3], 0) == [0, 1, 2, 3]
        assert rotate_indices([0, 1, 2, 3], 6) == [2, 3, 0, 1]
        assert rotate_indices([], 3) == []

    def test_rotation_circuit_matches_relabelling(self):
        n, k = 5, 2
        value = 0b10110
        qc = QuantumCircuit(n)
        qc.initialize(value, list(range(n)))
        build_rotation_circuit(qc, list(range(n)), k)
        state = SIM.evolve(qc)
        # after the swap network, reading the qubits in their original order
        # must equal reading the *rotated* qubit list before the network.
        rotated = rotate_indices(list(range(n)), k)
        expected = 0
        for i, q in enumerate(rotated):
            expected |= ((value >> q) & 1) << i
        assert np.isclose(state.probabilities(list(range(n)))[expected], 1.0)

    def test_rotation_zero_is_identity(self):
        qc = QuantumCircuit(4)
        build_rotation_circuit(qc, list(range(4)), 0)
        assert qc.size() == 0

    def test_rotation_depth_is_bounded(self):
        depths = [rotation_depth(n, 3) for n in range(4, 20)]
        assert max(depths) <= 3

    def test_rotation_empty_register_raises(self):
        qc = QuantumCircuit(1)
        with pytest.raises(CircuitError):
            build_rotation_circuit(qc, [], 1)

    @given(n=st.integers(2, 7), k=st.integers(0, 20), value=st.integers(0, 127))
    @settings(max_examples=25, deadline=None)
    def test_rotation_property(self, n, k, value):
        value %= 2**n
        qc = QuantumCircuit(n)
        if value:
            qc.initialize(value, list(range(n)))
        build_rotation_circuit(qc, list(range(n)), k)
        state = SIM.evolve(qc)
        rotated = rotate_indices(list(range(n)), k)
        expected = 0
        for i, q in enumerate(rotated):
            expected |= ((value >> q) & 1) << i
        assert np.isclose(state.probabilities(list(range(n)))[expected], 1.0)
