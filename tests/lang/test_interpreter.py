"""End-to-end tests of the interpreter: whole Qutes programs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import (
    QutesNameError,
    QutesRuntimeError,
    QutesSyntaxError,
    QutesTypeError,
    compile_source,
    run_source,
)


def run(source, seed=7, shots=256):
    return run_source(source, seed=seed, shots=shots)


class TestClassicalPrograms:
    def test_arithmetic(self):
        assert run("print 2 + 3 * 4;").printed == "14"
        assert run("print (2 + 3) * 4;").printed == "20"
        assert run("print 7 / 2;").printed == "3"
        assert run("print 7.0 / 2;").printed == "3.5"
        assert run("print 7 % 3;").printed == "1"
        assert run("print -5 + 2;").printed == "-3"

    def test_bool_logic(self):
        assert run("print true and false;").printed == "false"
        assert run("print true or false;").printed == "true"
        assert run("print not false;").printed == "true"

    def test_comparisons(self):
        assert run("print 3 > 2;").printed == "true"
        assert run("print 3 <= 2;").printed == "false"
        assert run("print 2 == 2;").printed == "true"
        assert run('print "ab" == "ab";').printed == "true"

    def test_string_concatenation(self):
        assert run('print "foo" + "bar";').printed == "foobar"

    def test_variables_and_assignment(self):
        source = """
            int x = 10;
            x = x + 5;
            print x;
        """
        assert run(source).printed == "15"

    def test_float_variable(self):
        assert run("float f = 1.5; print f * 2;").printed == "3"

    def test_if_else(self):
        source = """
            int x = 3;
            if (x > 5) { print "big"; } else { print "small"; }
        """
        assert run(source).printed == "small"

    def test_while_loop(self):
        source = """
            int i = 0;
            int total = 0;
            while (i < 10) { total = total + i; i = i + 1; }
            print total;
        """
        assert run(source).printed == "45"

    def test_do_while(self):
        source = """
            int i = 0;
            do { i = i + 1; } while (i < 3);
            print i;
        """
        assert run(source).printed == "3"

    def test_foreach_over_array(self):
        source = """
            int[] xs = [2, 4, 6];
            int total = 0;
            foreach x in xs { total = total + x; }
            print total;
        """
        assert run(source).printed == "12"

    def test_foreach_over_string(self):
        source = """
            int ones = 0;
            foreach c in "10110" { if (c == "1") { ones = ones + 1; } }
            print ones;
        """
        assert run(source).printed == "3"

    def test_array_indexing_and_assignment(self):
        source = """
            int[] xs = [1, 2, 3];
            xs[1] = 20;
            print xs[1];
            print xs;
        """
        result = run(source)
        assert result.output == ["20", "[1, 20, 3]"]

    def test_functions(self):
        source = """
            function int square(int x) { return x * x; }
            function int add(int a, int b) { return a + b; }
            print add(square(3), 1);
        """
        assert run(source).printed == "10"

    def test_recursive_function(self):
        source = """
            function int fib(int n) {
                if (n < 2) { return n; }
                return fib(n - 1) + fib(n - 2);
            }
            print fib(10);
        """
        assert run(source).printed == "55"

    def test_function_defined_after_use(self):
        source = """
            print helper(4);
            function int helper(int x) { return x + 1; }
        """
        assert run(source).printed == "5"

    def test_void_function(self):
        source = """
            function void announce(int x) { print x; }
            announce(9);
        """
        assert run(source).printed == "9"

    def test_default_initialisation(self):
        source = """
            int x;
            bool b;
            string s;
            print x;
            print b;
        """
        assert run(source).output == ["0", "false"]


class TestQuantumPrograms:
    def test_quantum_addition_basis_states(self):
        source = """
            quint a = 5q;
            quint b = 3q;
            quint c = a + b;
            print c;
        """
        assert run(source).printed == "8"

    def test_quantum_addition_with_classical(self):
        assert run("quint a = 6q; quint c = a + 3; print c;").printed == "9"
        assert run("quint a = 6q; quint c = 10 + a; print c;").printed == "16"

    def test_quantum_subtraction(self):
        assert run("quint a = 9q; quint c = a - 4; print c;").printed == "5"

    def test_quantum_multiplication(self):
        assert run("quint a = 3q; quint b = 5q; print a * b;").printed == "15"

    def test_quantum_square_multiplies_by_a_copy(self):
        assert run("quint a = 3q; quint b = a * a; print b;").printed == "9"

    def test_square_of_a_superposition_stays_entangled(self):
        # the copy follows the operand: 1*1 or 2*2, never the cross terms
        outputs = {run("quint a = [1, 2]; print a * a;", seed=s).printed for s in range(16)}
        assert outputs == {"1", "4"}

    def test_superposition_addition_lands_on_valid_sum(self):
        source = """
            quint a = [1, 3];
            quint c = a + 2;
            print c;
        """
        for seed in range(6):
            assert run(source, seed=seed).printed in ("3", "5")

    def test_superposition_measurement_statistics(self):
        # measure many independent runs: both branches appear
        seen = set()
        for seed in range(12):
            seen.add(run("quint a = [0, 2]; print a;", seed=seed).printed)
        assert seen == {"0", "2"}

    def test_hadamard_then_measure_is_random_but_valid(self):
        for seed in range(5):
            value = run("qubit q = |0>; hadamard q; print q;", seed=seed).printed
            assert value in ("true", "false")

    def test_pauli_gates(self):
        assert run("qubit q = 0q; paulix q; print q;", seed=1).printed == "true"
        assert run("quint a = 0q; paulix a; print a;", seed=1).printed == "1"
        assert run("qubit q = 1q; pauliz q; print q;", seed=1).printed == "true"

    def test_quantum_literal_zero_and_one(self):
        assert run("qubit q = 1q; print q;").printed == "true"
        assert run("qubit q = 0q; print q;").printed == "false"

    def test_ket_literals(self):
        assert run("qubit q = |1>; print q;").printed == "true"
        assert run("qubit q = |0>; print q;").printed == "false"

    def test_qustring_roundtrip(self):
        assert run('qustring s = "01101"; print s;').printed == "01101"
        assert run('qustring s = "01101"q; print size(s);').printed == "5"

    def test_quantum_condition_is_measured(self):
        source = """
            qubit q = 1q;
            if (q) { print "one"; } else { print "zero"; }
        """
        assert run(source).printed == "one"

    def test_quantum_to_classical_assignment_measures(self):
        source = """
            quint a = 6q;
            int x = a;
            print x;
        """
        result = run(source)
        assert result.printed == "6"
        assert any(m["label"].startswith("a") for m in result.measurements)

    def test_classical_to_quantum_promotion(self):
        source = """
            int x = 5;
            quint q = x;
            print q;
        """
        assert run(source).printed == "5"

    def test_measure_keyword(self):
        assert run("quint a = 7q; print measure a;").printed == "7"

    def test_cyclic_shift_left(self):
        # 3-qubit register holding 1 (001b); rotate-left by 1 -> 2 (010b)
        source = "quint a = 1q; quint b = a + 0q; print b << 1;"
        result = run(source)
        assert result.printed == "2"

    def test_cyclic_shift_right(self):
        source = "quint a = 1q; quint b = a + 0q; print b >> 1;"
        # b has 2 qubits (max size 1 + 1): 01 -> rotate right -> 10
        assert run(source).printed == "2"

    def test_classical_shift(self):
        assert run("print 1 << 3;").printed == "8"
        assert run("print 8 >> 2;").printed == "2"

    def test_grover_substring_found(self):
        source = """
            qustring text = "010110";
            print "11" in text;
        """
        assert run(source).printed == "true"

    def test_grover_substring_missing(self):
        source = """
            qustring text = "000000";
            print "11" in text;
        """
        assert run(source).printed == "false"

    def test_grover_retry_reuses_the_index_register(self):
        # seed 34 measures position 2 ("10") first, then retries and finds 1
        source = """
            qustring text = "01101000";
            print "11" in text;
        """
        result = run_source(source, seed=34)
        attempts = [m for m in result.measurements if m["label"].startswith("grover")]
        assert [m["outcome"] for m in attempts] == [2, 1]
        assert attempts[0]["qubits"] == attempts[1]["qubits"]
        assert result.printed == "true"
        # 8 text qubits plus one 3-qubit index register, however many attempts
        assert result.num_qubits == 11

    def test_in_operator_on_arrays(self):
        assert run("int[] xs = [1, 2, 3]; print 2 in xs;").printed == "true"
        assert run("int[] xs = [1, 2, 3]; print 9 in xs;").printed == "false"

    def test_quantum_comparison_auto_measures(self):
        assert run("quint a = 5q; quint b = 3q; print a > b;").printed == "true"

    def test_quantum_array(self):
        source = """
            qubit[] qs = [|0>, |1>, |0>];
            print qs[1];
        """
        assert run(source).printed == "true"

    def test_function_with_quantum_parameter_by_reference(self):
        source = """
            function void flip(qubit q) { paulix q; }
            qubit target = 0q;
            flip(target);
            print target;
        """
        assert run(source).printed == "true"

    def test_function_returning_quantum(self):
        source = """
            function quint make_three() { quint t = 3q; return t; }
            print make_three();
        """
        assert run(source).printed == "3"

    def test_builtins(self):
        result = run(
            """
            quint a = 5q;
            print size(a);
            hadamard a;
            print gate_count() > 0;
            print depth() > 0;
            """
        )
        assert result.output == ["3", "true", "true"]

    def test_sample_builtin_does_not_collapse(self):
        source = """
            quint a = [0, 3];
            int guess = sample(a, 200);
            print guess == 0 or guess == 3;
        """
        assert run(source).printed == "true"

    def test_barrier_statement(self):
        result = run("quint a = 1q; barrier; hadamard a;")
        assert "barrier" in result.gate_counts

    def test_circuit_is_logged(self):
        result = run("quint a = 3q; quint b = a + 1;")
        assert result.num_qubits >= 4
        assert result.gate_counts  # non-empty
        assert result.depth > 0

    def test_qasm_builtin(self):
        result = run('quint a = 3q; string text = qasm(); print size(text) > 0;')
        assert result.printed == "true"


class TestErrors:
    def test_undefined_variable(self):
        with pytest.raises(QutesNameError):
            run("print missing;")

    def test_duplicate_variable(self):
        with pytest.raises(QutesNameError):
            run("int x = 1; int x = 2;")

    def test_undefined_function(self):
        with pytest.raises(QutesNameError):
            run("print nothing(1);")

    def test_wrong_argument_count(self):
        with pytest.raises(QutesTypeError):
            run("function int id(int x) { return x; } print id(1, 2);")

    def test_missing_return_value(self):
        with pytest.raises(QutesTypeError):
            run("function int broken() { print 1; } print broken();")

    def test_index_out_of_range(self):
        with pytest.raises(QutesRuntimeError):
            run("int[] xs = [1]; print xs[4];")

    def test_division_by_zero(self):
        with pytest.raises(QutesRuntimeError):
            run("print 1 / 0;")

    def test_type_error_string_arithmetic(self):
        with pytest.raises(QutesTypeError):
            run('print "a" - "b";')

    def test_quantum_subtraction_wraps_modulo(self):
        # quantum subtraction is modular: 0 - 5 over 3 qubits wraps to 3
        assert run("quint a = 0q - 5; print a;").printed == "3"

    def test_syntax_error_bubbles_up(self):
        with pytest.raises(QutesSyntaxError):
            run("int = 3;")

    def test_foreach_over_int_rejected(self):
        with pytest.raises(QutesTypeError):
            run("foreach x in 5 { print x; }")

    def test_scope_isolation(self):
        with pytest.raises(QutesNameError):
            run("{ int hidden = 1; } print hidden;")

    @pytest.mark.parametrize("shots", [0, -5])
    def test_sample_refuses_a_non_positive_shot_count(self, shots):
        with pytest.raises(QutesRuntimeError, match=f"positive shot count, got {shots}"):
            run(f"quint a = 3q; print sample(a, {shots});")


class TestCompiledProgram:
    def test_compile_then_run_twice(self):
        program = compile_source("quint a = [0, 1]; print a;")
        first = program.run(seed=1)
        second = program.run(seed=2)
        assert first.printed in ("0", "1")
        assert second.printed in ("0", "1")

    def test_seed_reproducibility(self):
        program = compile_source("qubit q = |+>; print q;")
        assert program.run(seed=5).printed == program.run(seed=5).printed


class TestPropertyBased:
    @given(a=st.integers(0, 31), b=st.integers(0, 31))
    @settings(max_examples=20, deadline=None)
    def test_quantum_addition_matches_classical(self, a, b):
        source = f"quint x = {a}q; quint y = {b}q; print x + y;"
        assert run(source).printed == str(a + b)

    @given(a=st.integers(0, 15), b=st.integers(0, 15))
    @settings(max_examples=15, deadline=None)
    def test_quantum_multiplication_matches_classical(self, a, b):
        source = f"quint x = {a}q; quint y = {b}q; print x * y;"
        assert run(source).printed == str(a * b)

    @given(a=st.integers(0, 63), b=st.integers(0, 63))
    @settings(max_examples=20, deadline=None)
    def test_comparisons_match_python(self, a, b):
        source = f"quint x = {a}q; quint y = {b}q; print x > y; print x == y;"
        result = run(source)
        assert result.output == [
            "true" if a > b else "false",
            "true" if a == b else "false",
        ]

    @given(value=st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_promotion_measurement_roundtrip(self, value):
        source = f"int x = {value}; quint q = x; int y = q; print y;"
        assert run(source).printed == str(value)

    @given(bits=st.lists(st.sampled_from("01"), min_size=1, max_size=8))
    @settings(max_examples=20, deadline=None)
    def test_qustring_roundtrip_property(self, bits):
        text = "".join(bits)
        source = f'qustring s = "{text}"; print s;'
        assert run(source).printed == text
