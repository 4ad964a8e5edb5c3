"""Unit tests for the circuit IR."""

import numpy as np
import pytest

from repro.qsim import gates
from repro.qsim.circuit import QuantumCircuit
from repro.qsim.exceptions import CircuitError
from repro.qsim.instruction import Barrier, Gate, Initialize, Measure
from repro.qsim.registers import ClassicalRegister, QuantumRegister
from repro.qsim.simulator import StatevectorSimulator


class TestConstruction:
    def test_int_shorthand(self):
        qc = QuantumCircuit(3, 2)
        assert qc.num_qubits == 3
        assert qc.num_clbits == 2

    def test_registers(self):
        a = QuantumRegister(2, "a")
        b = QuantumRegister(3, "b")
        c = ClassicalRegister(2, "c")
        qc = QuantumCircuit(a, b, c)
        assert qc.num_qubits == 5
        assert qc.qubit_index(b[0]) == 2

    def test_duplicate_register_name_rejected(self):
        qc = QuantumCircuit(QuantumRegister(2, "a"))
        with pytest.raises(CircuitError):
            qc.add_register(QuantumRegister(1, "a"))

    def test_foreign_qubit_rejected(self):
        qc = QuantumCircuit(2)
        other = QuantumRegister(1, "other")
        with pytest.raises(CircuitError):
            qc.h(other[0])

    def test_qubit_index_out_of_range(self):
        qc = QuantumCircuit(2)
        with pytest.raises(CircuitError):
            qc.x(5)


class TestAppending:
    def test_gate_builders_record_instructions(self):
        qc = QuantumCircuit(3)
        qc.h(0).cx(0, 1).ccx(0, 1, 2).rz(0.5, 2)
        assert [i.operation.name for i in qc.data] == ["h", "cx", "ccx", "rz"]

    def test_duplicate_operands_rejected(self):
        qc = QuantumCircuit(2)
        with pytest.raises(CircuitError):
            qc.cx(0, 0)

    def test_wrong_arity_rejected(self):
        qc = QuantumCircuit(2)
        with pytest.raises(CircuitError):
            qc.append(Gate("cx", 2), [0])

    @pytest.mark.parametrize("angle", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_parameter_rejected_at_construction(self, angle):
        # no pass, engine or export has a meaning for such an angle
        qc = QuantumCircuit(2)
        with pytest.raises(CircuitError, match="gate 'rz' has a non-finite parameter"):
            qc.rz(angle, 0)
        with pytest.raises(CircuitError, match="gate 'u3' has a non-finite parameter"):
            qc.u3(0.1, angle, 0.2, 0)
        with pytest.raises(CircuitError, match="gate 'cp' has a non-finite parameter"):
            qc.cp(angle, 0, 1)
        assert qc.size() == 0

    def test_measure_pairs(self):
        qc = QuantumCircuit(2, 2)
        qc.measure([0, 1], [0, 1])
        assert sum(isinstance(i.operation, Measure) for i in qc.data) == 2

    def test_measure_mismatch(self):
        qc = QuantumCircuit(2, 1)
        with pytest.raises(CircuitError):
            qc.measure([0, 1], [0])

    def test_measure_all_adds_register(self):
        qc = QuantumCircuit(3)
        qc.measure_all()
        assert qc.num_clbits == 3
        assert qc.has_measurements()

    def test_barrier_defaults_to_all_qubits(self):
        qc = QuantumCircuit(3)
        qc.barrier()
        assert isinstance(qc.data[0].operation, Barrier)
        assert len(qc.data[0].qubits) == 3

    def test_initialize_int_and_label(self):
        qc = QuantumCircuit(3)
        qc.initialize(5, [0, 1, 2])
        assert isinstance(qc.data[0].operation, Initialize)
        qc2 = QuantumCircuit(2)
        qc2.initialize("10", [0, 1])
        amps = qc2.data[0].operation.statevector
        assert np.isclose(abs(amps[2]), 1.0)

    def test_initialize_value_too_large(self):
        qc = QuantumCircuit(2)
        with pytest.raises(CircuitError):
            qc.initialize(4, [0, 1])

    def test_mcx_chooses_concrete_gate(self):
        qc = QuantumCircuit(4)
        qc.mcx([0], 3)
        qc.mcx([0, 1], 3)
        qc.mcx([0, 1, 2], 3)
        names = [i.operation.name for i in qc.data]
        assert names == ["cx", "ccx", "cccx"]


class TestComposeAndInverse:
    def test_compose_identity_mapping(self):
        inner = QuantumCircuit(2)
        inner.h(0).cx(0, 1)
        outer = QuantumCircuit(2)
        outer.compose(inner)
        assert [i.operation.name for i in outer.data] == ["h", "cx"]

    def test_compose_with_mapping(self):
        inner = QuantumCircuit(2)
        inner.cx(0, 1)
        outer = QuantumCircuit(3)
        outer.compose(inner, qubits=[2, 0])
        instr = outer.data[0]
        assert [outer.qubit_index(q) for q in instr.qubits] == [2, 0]

    def test_compose_size_mismatch(self):
        inner = QuantumCircuit(2)
        outer = QuantumCircuit(3)
        with pytest.raises(CircuitError):
            outer.compose(inner, qubits=[0])

    def test_inverse_undoes_circuit(self):
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1).t(1).rx(0.3, 0)
        roundtrip = qc.copy()
        roundtrip.compose(qc.inverse())
        sim = StatevectorSimulator(seed=0)
        state = sim.evolve(roundtrip)
        assert np.isclose(abs(state.data[0]), 1.0)

    def test_inverse_rejects_measurements(self):
        qc = QuantumCircuit(1, 1)
        qc.h(0)
        qc.measure(0, 0)
        with pytest.raises(CircuitError):
            qc.inverse()

    def test_copy_is_independent(self):
        qc = QuantumCircuit(1)
        qc.h(0)
        dup = qc.copy()
        dup.x(0)
        assert len(qc.data) == 1
        assert len(dup.data) == 2

    def test_power(self):
        qc = QuantumCircuit(1)
        qc.x(0)
        sim = StatevectorSimulator(seed=0)
        assert np.isclose(abs(sim.evolve(qc.power(2)).data[0]), 1.0)
        assert np.isclose(abs(sim.evolve(qc.power(3)).data[1]), 1.0)
        assert np.isclose(abs(sim.evolve(qc.power(0)).data[0]), 1.0)


class TestMetrics:
    def test_size_excludes_barriers(self):
        qc = QuantumCircuit(2)
        qc.h(0).barrier().cx(0, 1)
        assert qc.size() == 2
        assert len(qc) == 3

    def test_count_ops(self):
        qc = QuantumCircuit(2)
        qc.h(0).h(1).cx(0, 1)
        assert qc.count_ops() == {"h": 2, "cx": 1}

    def test_depth_parallel_gates(self):
        qc = QuantumCircuit(4)
        qc.h(0).h(1).h(2).h(3)
        assert qc.depth() == 1

    def test_depth_serial_chain(self):
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1).h(1)
        assert qc.depth() == 3

    def test_depth_empty(self):
        assert QuantumCircuit(3).depth() == 0

    def test_width(self):
        assert QuantumCircuit(3, 2).width() == 5

    def test_draw_contains_gate_names(self):
        qc = QuantumCircuit(2, 1)
        qc.h(0).cx(0, 1).measure(1, 0)
        text = qc.draw()
        assert "h" in text and "cx" in text and "measure" in text
