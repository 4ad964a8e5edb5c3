"""Tests for the QuantumCircuitHandler and the TypeCastingHandler."""

import numpy as np
import pytest

from repro.lang.casting import TypeCastingHandler
from repro.lang.circuit_handler import QuantumCircuitHandler
from repro.lang.errors import QutesRuntimeError, QutesTypeError
from repro.lang.types import QutesType
from repro.qsim.circuit import QuantumCircuit


@pytest.fixture
def handler():
    return QuantumCircuitHandler(seed=11)


@pytest.fixture
def casting(handler):
    return TypeCastingHandler(handler)


class TestCircuitHandler:
    def test_allocate_register(self, handler):
        qubits = handler.allocate_register("a", 3)
        assert qubits == [0, 1, 2]
        assert handler.num_qubits == 3
        more = handler.allocate_register("b", 2)
        assert more == [3, 4]
        assert handler.num_qubits == 5

    def test_allocate_invalid_size(self, handler):
        with pytest.raises(QutesRuntimeError):
            handler.allocate_register("a", 0)

    def test_apply_gate_logs_and_evolves(self, handler):
        qubits = handler.allocate_register("a", 1)
        handler.apply_gate("x", qubits)
        assert handler.gate_counts() == {"x": 1}
        assert np.isclose(handler.session.state.probabilities(qubits)[1], 1.0)

    def test_apply_parametric_gate(self, handler):
        qubits = handler.allocate_register("a", 1)
        handler.apply_gate("rx", qubits, [np.pi])
        assert np.isclose(handler.session.state.probabilities(qubits)[1], 1.0)

    def test_initialize_basis(self, handler):
        qubits = handler.allocate_register("a", 3)
        handler.initialize_basis(5, qubits)
        assert np.isclose(handler.session.state.probabilities(qubits)[5], 1.0)
        assert handler.gate_counts().get("x", 0) == 2

    def test_initialize_basis_too_large(self, handler):
        qubits = handler.allocate_register("a", 2)
        with pytest.raises(QutesRuntimeError):
            handler.initialize_basis(4, qubits)

    def test_initialize_amplitudes(self, handler):
        qubits = handler.allocate_register("a", 2)
        handler.initialize(np.array([1, 0, 0, 1]) / np.sqrt(2), qubits)
        probs = handler.session.state.probabilities(qubits)
        assert np.allclose(probs, [0.5, 0, 0, 0.5])

    def test_measure_collapses_and_logs(self, handler):
        qubits = handler.allocate_register("a", 1)
        handler.apply_gate("h", qubits)
        outcome = handler.measure(qubits)
        assert outcome in (0, 1)
        assert np.isclose(handler.session.state.probabilities(qubits)[outcome], 1.0)
        assert handler.circuit.has_measurements()
        assert len(handler.measurements) == 1

    def test_measure_empty_rejected(self, handler):
        with pytest.raises(QutesRuntimeError):
            handler.measure([])

    def test_sample_does_not_collapse(self, handler):
        qubits = handler.allocate_register("a", 1)
        handler.apply_gate("h", qubits)
        counts = handler.sample(qubits, shots=200)
        assert sum(counts.values()) == 200
        assert np.allclose(handler.session.state.probabilities(qubits), [0.5, 0.5])

    def test_append_subcircuit(self, handler):
        qubits = handler.allocate_register("a", 2)
        sub = QuantumCircuit(2)
        sub.h(0).cx(0, 1)
        handler.append_subcircuit(sub, qubits)
        probs = handler.session.state.probabilities(qubits)
        assert np.allclose(probs, [0.5, 0, 0, 0.5])
        assert handler.gate_counts() == {"h": 1, "cx": 1}

    def test_append_subcircuit_size_mismatch(self, handler):
        qubits = handler.allocate_register("a", 1)
        sub = QuantumCircuit(2)
        with pytest.raises(QutesRuntimeError):
            handler.append_subcircuit(sub, qubits)

    def test_append_subcircuit_rejects_measurements(self, handler):
        qubits = handler.allocate_register("a", 1)
        sub = QuantumCircuit(1, 1)
        sub.measure(0, 0)
        with pytest.raises(QutesRuntimeError):
            handler.append_subcircuit(sub, qubits)

    @pytest.mark.parametrize("qubit_map", [[0, 0], [0, 2], [-1, 1], [0, 1.0]])
    def test_append_subcircuit_refuses_a_bad_qubit_map_before_splicing(self, handler, qubit_map):
        handler.allocate_register("a", 2)
        sub = QuantumCircuit(2)
        sub.h(0).h(1)  # neither gate reads both entries: the map itself is refused
        with pytest.raises(QutesRuntimeError, match="qubit map"):
            handler.append_subcircuit(sub, qubit_map)
        assert handler.circuit.data == []

    def test_append_subcircuit_maps_operands_through_the_log(self, handler):
        handler.allocate_register("a", 2)
        b = handler.allocate_register("b", 3)
        sub = QuantumCircuit(3)
        sub.x(0).x(2).cp(0.5, 0, 2).ccx(2, 0, 1)
        handler.append_subcircuit(sub, [b[2], b[0], b[1]])
        log = handler.circuit
        assert [(i.operation.name, [log.qubit_index(q) for q in i.qubits]) for i in log.data] == [
            ("x", [4]), ("x", [3]), ("cp", [4, 3]), ("ccx", [3, 4, 2]),
        ]
        assert all(q in log.qregs[1] for i in log.data for q in i.qubits)
        assert handler.measure(b) == 0b111  # the ccx read both its controls at 1

    def test_barrier_and_metrics(self, handler):
        qubits = handler.allocate_register("a", 2)
        handler.apply_gate("h", [qubits[0]])
        handler.barrier()
        handler.apply_gate("cx", qubits)
        assert handler.depth() == 2
        assert handler.size() == 2


class TestTypeCasting:
    def test_encode_bool(self, casting, handler):
        qv = casting.encode_bool(True)
        assert qv.size == 1
        assert np.isclose(handler.session.state.probabilities(qv.qubits)[1], 1.0)

    def test_encode_int(self, casting, handler):
        qv = casting.encode_int(6)
        assert qv.size == 3
        assert np.isclose(handler.session.state.probabilities(qv.qubits)[6], 1.0)

    def test_encode_int_with_explicit_size(self, casting):
        qv = casting.encode_int(1, num_qubits=4)
        assert qv.size == 4

    def test_encode_int_negative_rejected(self, casting):
        with pytest.raises(QutesRuntimeError):
            casting.encode_int(-1)

    def test_encode_bitstring(self, casting, handler):
        qv = casting.encode_bitstring("101")
        assert qv.size == 3
        # char 0 = '1' -> qubit 0 set, char 1 = '0', char 2 = '1'
        assert np.isclose(handler.session.state.probabilities(qv.qubits)[0b101], 1.0)

    def test_encode_bitstring_rejects_non_bits(self, casting):
        with pytest.raises(QutesTypeError):
            casting.encode_bitstring("10a")
        with pytest.raises(QutesTypeError):
            casting.encode_bitstring("")

    def test_encode_superposition(self, casting, handler):
        qv = casting.encode_superposition([1, 3])
        probs = handler.session.state.probabilities(qv.qubits)
        assert np.isclose(probs[1], 0.5) and np.isclose(probs[3], 0.5)

    def test_encode_ket_states(self, casting, handler):
        plus = casting.encode_ket("+")
        assert np.allclose(handler.session.state.probabilities(plus.qubits), [0.5, 0.5])
        one = casting.encode_ket("1")
        assert np.allclose(handler.session.state.probabilities(one.qubits), [0.0, 1.0])

    def test_measure_variable(self, casting):
        qv = casting.encode_int(5)
        assert casting.measure_variable(qv) == 5
        qb = casting.encode_bool(True)
        assert casting.measure_variable(qb) is True
        qs = casting.encode_bitstring("011")
        assert casting.measure_variable(qs) == "011"

    def test_peek_variable(self, casting):
        qv = casting.encode_superposition([0, 2])
        histogram = casting.peek_variable(qv, shots=300)
        assert set(histogram) <= {0, 2}
        assert sum(histogram.values()) == 300

    def test_to_int_measures_quantum(self, casting):
        qv = casting.encode_int(9)
        assert casting.to_int(qv) == 9

    def test_to_bool_variants(self, casting):
        assert casting.to_bool(0) is False
        assert casting.to_bool(2) is True
        assert casting.to_bool("") is False
        assert casting.to_bool("x") is True
        assert casting.to_bool([1]) is True

    def test_to_float(self, casting):
        assert casting.to_float(True) == 1.0
        assert casting.to_float(2) == 2.0
        with pytest.raises(QutesTypeError):
            casting.to_float("nope")

    def test_promote_to_quantum(self, casting):
        qv = casting.promote_to_quantum(5, QutesType.quint())
        assert qv.type == QutesType.quint()
        qb = casting.promote_to_quantum(True, QutesType.qubit())
        assert qb.type == QutesType.qubit()
        qs = casting.promote_to_quantum("01", QutesType.qustring())
        assert qs.type == QutesType.qustring()

    def test_promote_list_to_quint(self, casting, handler):
        qv = casting.promote_to_quantum([2, 3], QutesType.quint())
        assert np.allclose(handler.session.state.probabilities(qv.qubits), [0, 0, 0.5, 0.5])

    def test_promote_invalid(self, casting):
        with pytest.raises(QutesTypeError):
            casting.promote_to_quantum(3, QutesType.qustring())
        with pytest.raises(QutesTypeError):
            casting.promote_to_quantum(3, QutesType.int_())

    def test_coerce_for_declaration_classical(self, casting):
        assert casting.coerce_for_declaration(3, QutesType.float_(), "x") == 3.0
        assert casting.coerce_for_declaration(True, QutesType.int_(), "x") == 1
        assert casting.coerce_for_declaration("hi", QutesType.string(), "x") == "hi"

    def test_coerce_for_declaration_measures_quantum_into_classical(self, casting):
        qv = casting.encode_int(4)
        assert casting.coerce_for_declaration(qv, QutesType.int_(), "x") == 4

    def test_coerce_for_declaration_array(self, casting):
        result = casting.coerce_for_declaration([1, 2], QutesType.array_of(QutesType.quint()), "xs")
        assert len(result) == 2
        assert all(qv.type == QutesType.quint() for qv in result)

    def test_coerce_array_from_scalar_rejected(self, casting):
        with pytest.raises(QutesTypeError):
            casting.coerce_for_declaration(3, QutesType.array_of(QutesType.int_()), "xs")
