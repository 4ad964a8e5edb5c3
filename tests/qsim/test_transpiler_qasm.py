"""Tests for the transpiler passes and the OpenQASM exporter."""

import math

import numpy as np
import pytest

from repro.qsim.circuit import QuantumCircuit
from repro.qsim.exceptions import CircuitError
from repro.qsim.instruction import Gate
from repro.qsim.qasm import from_qasm, to_qasm
from repro.qsim.registers import QuantumRegister
from repro.qsim.simulator import StatevectorSimulator
from repro.qsim.transpiler import basis_gate_count, decompose, two_qubit_gate_count

_BASIS = {"id", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx",
          "rx", "ry", "rz", "p", "u2", "u3", "cx", "measure", "reset", "barrier"}


def _unitary_of(circuit):
    """Brute-force the unitary by evolving every basis state."""
    sim = StatevectorSimulator(seed=0)
    n = circuit.num_qubits
    cols = []
    from repro.qsim.statevector import Statevector

    for value in range(2**n):
        state = sim.evolve(circuit, initial_state=Statevector.from_int(value, n))
        cols.append(state.data)
    return np.array(cols).T


class TestDecompose:
    @pytest.mark.parametrize("builder", [
        lambda qc: qc.swap(0, 1),
        lambda qc: qc.cz(0, 1),
        lambda qc: qc.cy(0, 1),
        lambda qc: qc.ch(0, 1),
        lambda qc: qc.cp(0.7, 0, 1),
        lambda qc: qc.crx(0.5, 0, 1),
        lambda qc: qc.cry(0.5, 0, 1),
        lambda qc: qc.crz(0.5, 0, 1),
    ])
    def test_two_qubit_decompositions_preserve_unitary(self, builder):
        qc = QuantumCircuit(2)
        builder(qc)
        lowered = decompose(qc)
        assert all(i.operation.name in _BASIS for i in lowered.data)
        original = _unitary_of(qc)
        new = _unitary_of(lowered)
        phase = new[np.nonzero(np.abs(new) > 1e-9)][0] / original[np.nonzero(np.abs(new) > 1e-9)][0]
        assert np.allclose(new, phase * original, atol=1e-8)

    def test_toffoli_decomposition_exact(self):
        qc = QuantumCircuit(3)
        qc.ccx(0, 1, 2)
        lowered = decompose(qc)
        assert np.allclose(_unitary_of(lowered), _unitary_of(qc), atol=1e-8)

    def test_cswap_decomposition(self):
        qc = QuantumCircuit(3)
        qc.cswap(0, 1, 2)
        lowered = decompose(qc)
        assert np.allclose(_unitary_of(lowered), _unitary_of(qc), atol=1e-8)

    @pytest.mark.parametrize("controls", [3, 4])
    def test_mcx_vchain_matches_behaviour(self, controls):
        qc = QuantumCircuit(controls + 1)
        qc.mcx(list(range(controls)), controls)
        lowered = decompose(qc)
        # lowered circuit has extra ancillas; check action on every input of
        # the original qubits with ancillas in |0>.
        sim = StatevectorSimulator(seed=0)
        from repro.qsim.statevector import Statevector

        for value in range(2 ** (controls + 1)):
            init = Statevector.from_int(value, lowered.num_qubits)
            state = sim.evolve(lowered, initial_state=init)
            expected = value ^ (1 << controls) if all(
                (value >> c) & 1 for c in range(controls)
            ) else value
            assert np.isclose(state.probabilities(list(range(controls + 1)))[expected], 1.0)
            # ancillas restored to zero
            anc = list(range(controls + 1, lowered.num_qubits))
            if anc:
                assert np.isclose(state.probabilities(anc)[0], 1.0)

    def test_basis_gates_pass_through(self):
        qc = QuantumCircuit(2, 1)
        qc.h(0).cx(0, 1).rz(0.2, 1)
        qc.measure(0, 0)
        lowered = decompose(qc)
        assert [i.operation.name for i in lowered.data] == ["h", "cx", "rz", "measure"]

    @pytest.mark.parametrize("name, params", [
        ("iswap", []), ("ryy", [0.3]), ("ryy", [-2.2]), ("ryy", [math.pi]),
    ])
    def test_gates_qelib1_lacks_lower_to_the_basis(self, name, params):
        qc = QuantumCircuit(3)
        qc.append(Gate(name, 2, params), [2, 0])
        lowered = decompose(qc)
        assert all(i.operation.name in _BASIS for i in lowered.data)
        original, new = _unitary_of(qc), _unitary_of(lowered)
        idx = np.unravel_index(np.argmax(np.abs(original)), original.shape)
        assert np.allclose(new, new[idx] / original[idx] * original, atol=1e-10)
        # OpenQASM 2.0 writes the lowering, and it reads back unchanged
        back = from_qasm(to_qasm(qc))
        assert [i.operation.name for i in back.data] == [i.operation.name for i in lowered.data]
        assert np.allclose(_unitary_of(back), new, atol=1e-10)
        assert two_qubit_gate_count(qc) == 2
        assert basis_gate_count(qc) == len(lowered.data)

    def test_metric_helpers(self):
        qc = QuantumCircuit(2)
        qc.h(0).swap(0, 1)
        assert qc.count_ops() == {"h": 1, "swap": 1}
        assert basis_gate_count(qc) == 4  # h + 3 cx
        assert two_qubit_gate_count(qc) == 3
        assert qc.depth() == 2
        assert decompose(qc).depth() == 4


class TestQasm:
    def test_basic_program(self):
        qc = QuantumCircuit(QuantumRegister(2, "q"))
        qc.h(0).cx(0, 1)
        qc.measure_all()
        text = to_qasm(qc)
        assert "OPENQASM 2.0;" in text
        assert "qreg q[2];" in text
        assert "creg meas[2];" in text
        assert "h q[0];" in text
        assert "cx q[0], q[1];" in text
        assert "measure q[1] -> meas[1];" in text

    def test_parametric_gates(self):
        qc = QuantumCircuit(1)
        qc.rx(0.25, 0)
        assert "rx(0.25)" in to_qasm(qc)

    def test_multi_controlled_lowered_automatically(self):
        qc = QuantumCircuit(4)
        qc.mcx([0, 1, 2], 3)
        text = to_qasm(qc)
        assert "ccx" in text or "cx" in text

    def test_initialize_rejected(self):
        qc = QuantumCircuit(1)
        qc.initialize(1, [0])
        with pytest.raises(CircuitError):
            to_qasm(qc)

    def test_barrier_and_reset(self):
        qc = QuantumCircuit(2)
        qc.barrier()
        qc.reset(0)
        text = to_qasm(qc)
        assert "barrier" in text
        assert "reset q[0];" in text
