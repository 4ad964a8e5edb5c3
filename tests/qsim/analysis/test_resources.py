"""Resource-estimation tests, including the transpiler-delegation contract."""

from repro.qsim import transpiler
from repro.qsim.analysis import estimate_resources
from repro.qsim.circuit import QuantumCircuit
from repro.qsim.qasm import from_qasm
from repro.qsim.simulator import measurements_are_final


def bell():
    qc = QuantumCircuit(2, 2, name="bell")
    qc.h(0).cx(0, 1)
    qc.measure([0, 1], [0, 1])
    return qc


class TestEstimate:
    def test_counts_and_structure(self):
        est = estimate_resources(bell())
        assert est.num_qubits == 2 and est.num_clbits == 2
        assert est.size == 4
        assert est.gate_counts == {"h": 1, "cx": 1, "measure": 2}
        assert est.two_qubit_gates == 1
        assert est.measurements == 2
        assert not est.has_mid_circuit_measurement
        assert est.is_clifford and est.first_non_clifford is None

    def test_barriers_counted_but_excluded_from_size(self):
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.barrier()
        qc.cx(0, 1)
        est = estimate_resources(qc)
        assert est.size == 2
        assert est.gate_counts["barrier"] == 1

    def test_first_non_clifford_index(self):
        qc = QuantumCircuit(1)
        qc.h(0).s(0).t(0).t(0)
        est = estimate_resources(qc)
        assert est.first_non_clifford == 2  # the first t
        assert not est.is_clifford

    def test_first_non_monomial_index(self):
        qc = QuantumCircuit(3, 1)
        qc.x(0).barrier()
        qc.cx(0, 1).ccx(0, 1, 2).t(2).measure(2, 0)
        qc.reset(2)
        assert estimate_resources(qc).first_non_monomial is None
        qc.h(1).x(0)
        est = estimate_resources(qc)
        assert est.first_non_monomial == 7  # the h
        assert est.first_non_clifford == 3  # the ccx: monomial, not Clifford
        assert est.to_dict()["first_non_monomial"] == 7

    def test_first_non_monomial_covers_wide_and_initialize(self):
        wide = QuantumCircuit(8)
        wide.x(0).mcx(list(range(7)), 7)  # beyond the engines' table width
        assert estimate_resources(wide).first_non_monomial == 1
        prepared = QuantumCircuit(1)
        prepared.initialize([0, 1], [0])
        assert estimate_resources(prepared).first_non_monomial == 0

    def test_mid_circuit_measurement_detected(self):
        qc = QuantumCircuit(1, 1)
        qc.h(0)
        qc.measure(0, 0)
        qc.x(0)
        assert estimate_resources(qc).has_mid_circuit_measurement

    def test_second_measurement_of_a_qubit_is_mid_circuit(self):
        # agrees with the engines: the first measurement is not final
        qc = from_qasm(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\ncreg c[2];\n'
            "h q[0];\nmeasure q[0] -> c[0];\nmeasure q[0] -> c[1];\n"
        )
        est = estimate_resources(qc)
        assert est.has_mid_circuit_measurement
        assert est.measurements == 2
        assert not measurements_are_final(qc)

    def test_memory_estimates(self):
        est = estimate_resources(bell())
        assert est.statevector_bytes() == 16 * 4
        assert est.density_matrix_bytes() == 16 * 16
        assert est.stabilizer_bytes() == (4 * 5 + 7) // 8
        assert est.memory_bytes("statevector") == est.statevector_bytes()
        assert est.memory_bytes("warp_drive") is None

    def test_to_dict_shape(self):
        data = estimate_resources(bell()).to_dict()
        assert data["is_clifford"] is True
        assert data["memory_bytes"]["density_matrix"] == 16 * 16
        assert data["depth"] == estimate_resources(bell()).depth


class TestTranspilerDelegation:
    """The transpiler metric helpers are thin views over estimate_resources."""

    def test_count_ops_matches(self):
        qc = bell()
        assert qc.count_ops() == dict(estimate_resources(qc).gate_counts)

    def test_depth_matches(self):
        qc = bell()
        assert estimate_resources(qc).depth == qc.depth()

    def test_is_clifford_matches(self):
        clifford = bell()
        assert transpiler.is_clifford(clifford)
        nc = QuantumCircuit(1)
        nc.t(0)
        assert not transpiler.is_clifford(nc)
        assert estimate_resources(nc).first_non_clifford == 0

    def test_two_qubit_gate_count_counts_decomposed_cx(self):
        qc = QuantumCircuit(2)
        qc.swap(0, 1)  # decomposes to 3 cx
        assert transpiler.two_qubit_gate_count(qc) == 3
