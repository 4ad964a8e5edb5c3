"""Tests for the type system and the symbol table."""

import pytest

from repro.lang.errors import QutesNameError, QutesTypeError
from repro.lang.symbols import FunctionSymbol, SymbolTable
from repro.lang.types import QutesType, TypeKind
from repro.lang.values import QuantumVariable, qubits_needed_for_int, type_of_python_value


class TestQutesType:
    def test_quantum_predicates(self):
        assert QutesType.qubit().is_quantum
        assert QutesType.quint().is_quantum
        assert QutesType.qustring().is_quantum
        assert not QutesType.int_().is_quantum
        assert QutesType.int_().is_classical
        assert not QutesType.qubit().is_classical

    def test_array_type_propagates_quantumness(self):
        assert QutesType.array_of(QutesType.qubit()).is_quantum
        assert QutesType.array_of(QutesType.int_()).is_classical

    def test_array_of_void_rejected(self):
        with pytest.raises(QutesTypeError):
            QutesType.array_of(QutesType.void())

    def test_measured_type(self):
        assert QutesType.qubit().measured_type() == QutesType.bool_()
        assert QutesType.quint().measured_type() == QutesType.int_()
        assert QutesType.qustring().measured_type() == QutesType.string()

    def test_measured_type_of_classical_rejected(self):
        with pytest.raises(QutesTypeError):
            QutesType.int_().measured_type()

    def test_promoted_type(self):
        assert QutesType.bool_().promoted_type() == QutesType.qubit()
        assert QutesType.int_().promoted_type() == QutesType.quint()
        assert QutesType.string().promoted_type() == QutesType.qustring()

    def test_promotion_of_float_rejected(self):
        with pytest.raises(QutesTypeError):
            QutesType.float_().promoted_type()

    def test_can_promote_matrix(self):
        assert QutesType.int_().can_promote_to(QutesType.quint())
        assert QutesType.bool_().can_promote_to(QutesType.float_())
        assert QutesType.quint().can_promote_to(QutesType.int_())
        assert not QutesType.float_().can_promote_to(QutesType.quint())
        assert not QutesType.string().can_promote_to(QutesType.int_())

    def test_array_promotion(self):
        classical = QutesType.array_of(QutesType.int_())
        quantum = QutesType.array_of(QutesType.quint())
        assert classical.can_promote_to(quantum)

    def test_str_rendering(self):
        assert str(QutesType.quint()) == "quint"
        assert str(QutesType.array_of(QutesType.qubit())) == "qubit[]"


class TestValues:
    def test_qubits_needed(self):
        assert qubits_needed_for_int(0) == 1
        assert qubits_needed_for_int(1) == 1
        assert qubits_needed_for_int(5) == 3
        assert qubits_needed_for_int(8) == 4

    def test_type_inference(self):
        assert type_of_python_value(True) == QutesType.bool_()
        assert type_of_python_value(3) == QutesType.int_()
        assert type_of_python_value(1.5) == QutesType.float_()
        assert type_of_python_value("x") == QutesType.string()
        assert type_of_python_value([1, 2]) == QutesType.array_of(QutesType.int_())
        qv = QuantumVariable("q", QutesType.quint(), [0, 1])
        assert type_of_python_value(qv) == QutesType.quint()

    def test_quantum_variable_size(self):
        qv = QuantumVariable("q", QutesType.quint(), [4, 5, 6])
        assert qv.size == 3


class TestSymbolTable:
    def test_declare_and_resolve(self):
        table = SymbolTable()
        table.declare("x", QutesType.int_(), 3)
        assert table.resolve("x").value == 3

    def test_undefined_variable(self):
        table = SymbolTable()
        with pytest.raises(QutesNameError):
            table.resolve("missing")

    def test_duplicate_declaration_same_scope(self):
        table = SymbolTable()
        table.declare("x", QutesType.int_())
        with pytest.raises(QutesNameError):
            table.declare("x", QutesType.int_())

    def test_shadowing_in_inner_scope(self):
        table = SymbolTable()
        table.declare("x", QutesType.int_(), 1)
        table.push_scope()
        table.declare("x", QutesType.int_(), 2)
        assert table.resolve("x").value == 2
        table.pop_scope()
        assert table.resolve("x").value == 1

    def test_inner_scope_sees_outer(self):
        table = SymbolTable()
        table.declare("x", QutesType.int_(), 7)
        table.push_scope()
        assert table.resolve("x").value == 7
        table.pop_scope()

    def test_pop_global_scope_rejected(self):
        table = SymbolTable()
        with pytest.raises(QutesNameError):
            table.pop_scope()

    def test_scope_levels(self):
        table = SymbolTable()
        assert table.depth == 0
        table.push_scope()
        assert table.depth == 1
        symbol = table.declare("y", QutesType.bool_())
        assert symbol.scope_level == 1

    def test_function_registry(self):
        table = SymbolTable()
        fn = FunctionSymbol("f", QutesType.int_(), [], None)
        table.declare_function(fn)
        assert table.resolve_function("f") is fn
        assert table.has_function("f")
        with pytest.raises(QutesNameError):
            table.declare_function(fn)
        with pytest.raises(QutesNameError):
            table.resolve_function("g")
