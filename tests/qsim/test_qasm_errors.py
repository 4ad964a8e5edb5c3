"""Error-path tests for the OpenQASM 2.0 / OpenQASM 3 (subset) importer.

Every rejected input must raise :class:`QasmError` — never a bare
``ValueError`` or an internal crash — and the message must name the 1-based
source line and column of the offending token.  Covers malformed ``if``
conditionals, QASM3-mode rejections (unsupported subset features, ``ctrl``
misuse, assignment measurement) and dialect mixups in both directions.
"""

import pytest

from repro.qsim import QasmError, from_qasm

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


def error_for(source: str) -> QasmError:
    with pytest.raises(QasmError) as excinfo:
        from_qasm(source)
    return excinfo.value


def test_qasm_error_is_not_a_bare_value_error():
    assert not issubclass(QasmError, ValueError)


class TestMalformedHeaders:
    def test_missing_header(self):
        err = error_for("qreg q[2];\n")
        assert "OPENQASM 2.0" in str(err)
        assert (err.line, err.column) == (1, 1)

    @pytest.mark.parametrize("version", ["1.0", "4.0", "2.1"])
    def test_wrong_version(self, version):
        err = error_for(f"OPENQASM {version};\nqreg q[1];")
        assert "unsupported OpenQASM version" in str(err)
        assert "2.0 and 3" in str(err)
        assert (err.line, err.column) == (1, 10)

    def test_missing_version(self):
        err = error_for("OPENQASM;\n")
        assert "version number" in str(err)

    def test_missing_header_semicolon(self):
        err = error_for("OPENQASM 2.0\nqreg q[1];")
        assert "expected ';'" in str(err)
        assert err.line == 2

    def test_empty_file(self):
        err = error_for("")
        assert "OPENQASM" in str(err)


class TestTruncatedFiles:
    @pytest.mark.parametrize(
        "source",
        [
            "OPENQASM 2.0;\nqreg q[2]",
            "OPENQASM 2.0;\nqreg q[",
            HEADER + "qreg q[2];\nh q[0]",
            HEADER + "qreg q[2];\ngate foo a { h a;",
            HEADER + "qreg q[2];\ncreg c[2];\nmeasure q[0] ->",
        ],
    )
    def test_unexpected_eof_is_named(self, source):
        err = error_for(source)
        assert "end of file" in str(err)
        assert err.line is not None and err.column is not None

    def test_unterminated_string(self):
        err = error_for('OPENQASM 2.0;\ninclude "qelib1.inc\n')
        assert "unterminated string" in str(err)
        assert (err.line, err.column) == (2, 9)


class TestBadReferences:
    def test_out_of_range_qubit_index(self):
        err = error_for(HEADER + "qreg q[3];\nx q[3];")
        assert "out of range" in str(err)
        assert "size 3" in str(err)
        assert (err.line, err.column) == (4, 5)

    def test_out_of_range_clbit_index(self):
        err = error_for(HEADER + "qreg q[1];\ncreg c[1];\nmeasure q[0] -> c[4];")
        assert "out of range" in str(err)

    def test_undeclared_register(self):
        err = error_for(HEADER + "qreg q[1];\nx r[0];")
        assert "undeclared register 'r'" in str(err)

    def test_classical_register_where_quantum_needed(self):
        err = error_for(HEADER + "creg c[2];\nx c[0];")
        assert "classical register" in str(err)

    def test_quantum_register_as_measure_target(self):
        err = error_for(HEADER + "qreg q[2];\nmeasure q[0] -> q[1];")
        assert "quantum register" in str(err)

    def test_duplicate_register_name_across_kinds(self):
        err = error_for(HEADER + "qreg q[2];\ncreg q[2];")
        assert "already declared" in str(err)

    def test_zero_size_register(self):
        err = error_for(HEADER + "qreg q[0];")
        assert "positive" in str(err)

    def test_absurd_register_size_rejected_before_allocation(self):
        err = error_for(HEADER + "qreg q[9999999999];")
        assert "exceeds the supported maximum" in str(err)
        assert (err.line, err.column) == (3, 8)


class TestBadGateUsage:
    def test_unknown_gate(self):
        err = error_for(HEADER + "qreg q[1];\nfrobnicate q[0];")
        assert "unknown gate 'frobnicate'" in str(err)
        assert (err.line, err.column) == (4, 1)

    def test_qelib1_gate_without_include_gets_hint(self):
        err = error_for("OPENQASM 2.0;\nqreg q[1];\nh q[0];")
        assert "include \"qelib1.inc\"" in str(err)

    def test_wrong_parameter_count(self):
        err = error_for(HEADER + "qreg q[1];\nrz q[0];")
        assert "expects 1 parameter(s), got 0" in str(err)

    def test_parameters_on_parameterless_gate(self):
        err = error_for(HEADER + "qreg q[1];\nx(0.5) q[0];")
        assert "expects 0 parameter(s), got 1" in str(err)

    def test_wrong_qubit_count(self):
        err = error_for(HEADER + "qreg q[2];\ncx q[0];")
        assert "expects 2 qubit argument(s), got 1" in str(err)

    def test_duplicate_qubits(self):
        err = error_for(HEADER + "qreg q[2];\ncx q[0], q[0];")
        assert "duplicate qubits" in str(err)

    def test_mismatched_broadcast(self):
        err = error_for(HEADER + "qreg a[2];\nqreg b[3];\ncx a, b;")
        assert "mismatched register sizes" in str(err)

    def test_measure_size_mismatch(self):
        err = error_for(HEADER + "qreg q[3];\ncreg c[2];\nmeasure q -> c;")
        assert "sizes differ" in str(err)

    def test_redefining_a_gate(self):
        err = error_for(HEADER + "gate h a { x a; }\n")
        assert "already defined" in str(err)

    def test_user_gate_shadowed_by_later_include(self):
        # the include must not silently overwrite an earlier user definition
        err = error_for(
            'OPENQASM 2.0;\ngate h a { U(0, 0, 0) a; }\ninclude "qelib1.inc";\n'
        )
        assert "already defined" in str(err)
        assert err.line == 3

    def test_include_names_the_first_shadowed_user_gate(self):
        err = error_for(
            "OPENQASM 2.0;\ngate rzz(t) a, b { CX a, b; }\ngate u1(t) a { U(0, 0, t) a; }\n"
            'include "qelib1.inc";\n'
        )
        assert "gate 'rzz' is already defined" in str(err)

    def test_pi_as_parameter_name_rejected(self):
        err = error_for(HEADER + "gate bad(pi) a { rz(pi) a; }")
        assert "'pi' cannot be used as a parameter name" in str(err)

    def test_function_name_as_parameter_rejected(self):
        err = error_for(HEADER + "gate bad(sin) a { rz(sin) a; }")
        assert "'sin' cannot be used as a parameter name" in str(err)

    @pytest.mark.parametrize("keyword", ["if", "measure", "barrier", "pi"])
    def test_keyword_as_gate_name_rejected(self, keyword):
        # a definition would parse, but calls would be swallowed by the
        # statement dispatcher (or the pi constant) with misleading errors
        err = error_for(HEADER + f"gate {keyword} a {{ x a; }}")
        assert f"{keyword!r} cannot be used as a gate name" in str(err)

    def test_unknown_identifier_in_expression(self):
        err = error_for(HEADER + "qreg q[1];\nrz(theta) q[0];")
        assert "unknown identifier 'theta'" in str(err)

    def test_measure_inside_gate_body(self):
        err = error_for(HEADER + "qreg q[1];\ngate bad a { measure a; }")
        assert "not allowed inside a gate body" in str(err)

    def test_indexing_inside_gate_body(self):
        err = error_for(HEADER + "qreg q[1];\ngate bad a { x a[0]; }")
        assert "indexing is not allowed" in str(err)

    def test_undeclared_qubit_in_gate_body(self):
        err = error_for(HEADER + "gate bad a { x b; }")
        assert "undeclared qubit argument 'b'" in str(err)

    def test_gate_body_call_with_too_many_qubits(self):
        # regression: extra actuals used to be silently dropped by the binding
        err = error_for(
            HEADER + "gate w a, b { cx a, b; }\ngate g a, b, c { w a, b, c; }"
        )
        assert "'w' expects 2 qubit argument(s), got 3" in str(err)

    def test_gate_body_call_with_too_few_qubits(self):
        err = error_for(HEADER + "gate w a, b { cx a, b; }\ngate g a { w a; }")
        assert "'w' expects 2 qubit argument(s), got 1" in str(err)

    def test_gate_body_call_with_missing_params(self):
        err = error_for(HEADER + "gate g a { rx a; }")
        assert "'rx' expects 1 parameter(s), got 0" in str(err)


class TestUnsupportedFeatures:
    def test_opaque_declaration(self):
        err = error_for(HEADER + "opaque magic a, b;")
        assert "unsupported feature" in str(err)
        assert "opaque" in str(err)

    def test_non_qelib1_include(self):
        err = error_for('OPENQASM 2.0;\ninclude "mylib.inc";')
        assert 'unsupported include "mylib.inc"' in str(err)


HEADER3 = 'OPENQASM 3;\ninclude "stdgates.inc";\n'


class TestConditionalErrors:
    """Malformed ``if`` statements must raise positioned QasmErrors."""

    def test_missing_open_paren(self):
        err = error_for(HEADER + "qreg q[1];\ncreg c[1];\nif c == 1 x q[0];")
        assert "expected '('" in str(err)
        assert err.line == 5

    def test_single_equals_in_condition(self):
        err = error_for(HEADER + "qreg q[1];\ncreg c[1];\nif (c = 1) x q[0];")
        assert "expected '=='" in str(err)
        assert (err.line, err.column) == (5, 7)

    def test_missing_comparison_value(self):
        err = error_for(HEADER + "qreg q[1];\ncreg c[1];\nif (c ==) x q[0];")
        assert "integer comparison value" in str(err)

    def test_real_comparison_value(self):
        err = error_for(HEADER + "qreg q[1];\ncreg c[1];\nif (c == 1.5) x q[0];")
        assert "integer comparison value" in str(err)

    def test_undeclared_creg(self):
        err = error_for(HEADER + "qreg q[1];\nif (c == 1) x q[0];")
        assert "undeclared classical register 'c'" in str(err)
        assert (err.line, err.column) == (4, 5)

    def test_quantum_register_in_condition(self):
        err = error_for(HEADER + "qreg q[1];\ncreg c[1];\nif (q == 1) x q[0];")
        assert "'q' is a quantum register" in str(err)

    def test_oversized_comparison_value(self):
        err = error_for(HEADER + "qreg q[1];\ncreg c[2];\nif (c == 4) x q[0];")
        assert "does not fit in classical register 'c' of size 2" in str(err)
        assert (err.line, err.column) == (5, 10)

    def test_negative_comparison_value(self):
        # '-1' lexes as two tokens, so this fails at the value position
        err = error_for(HEADER + "qreg q[1];\ncreg c[1];\nif (c == -1) x q[0];")
        assert "integer comparison value" in str(err)

    def test_conditioned_barrier_rejected(self):
        err = error_for(HEADER + "qreg q[1];\ncreg c[1];\nif (c == 1) barrier q;")
        assert "cannot be classically conditioned" in str(err)

    def test_nested_if_rejected(self):
        err = error_for(
            HEADER + "qreg q[1];\ncreg c[1];\nif (c == 1) if (c == 1) x q[0];"
        )
        assert "cannot be classically conditioned" in str(err)

    def test_conditioned_declaration_rejected(self):
        err = error_for(HEADER + "qreg q[1];\ncreg c[1];\nif (c == 1) qreg r[1];")
        assert "cannot be classically conditioned" in str(err)

    def test_block_if_requires_qasm3(self):
        # '{' after the condition is QASM3 block syntax, not 2.0
        err = error_for(HEADER + "qreg q[1];\ncreg c[1];\nif (c == 1) { x q[0]; }")
        assert "expected a conditioned operation" in str(err)

    def test_empty_condition(self):
        err = error_for(HEADER + "qreg q[1];\ncreg c[1];\nif () x q[0];")
        assert "classical register name" in str(err)


class TestQasm3Errors:
    """QASM3-mode rejections: unsupported subset features stay positioned."""

    @pytest.mark.parametrize(
        "statement",
        [
            "for i in {0, 1} { x q[0]; }",
            "while (c == 0) { x q[0]; }",
            "def f() { }",
            "const int n = 3;",
            "input float theta;",
            "float theta = 0.5;",
            "negctrl @ x q[0], q[0];",
            "pow(2) @ x q[0];",
            "inv @ s q[0];",
            "box { x q[0]; }",
            "delay[100ns] q[0];",
        ],
    )
    def test_unsupported_qasm3_feature(self, statement):
        err = error_for(HEADER3 + "qubit[2] q;\nbit[2] c;\n" + statement)
        assert "unsupported OpenQASM 3 feature" in str(err)
        assert (err.line, err.column) == (5, 1)

    def test_unsupported_feature_inside_if_block(self):
        err = error_for(
            HEADER3 + "qubit[1] q;\nbit[1] c;\nif (c == 1) { for i { } }"
        )
        assert "unsupported OpenQASM 3 feature" in str(err)

    def test_qasm3_declarations_rejected_in_qasm2(self):
        err = error_for(HEADER + "qubit[2] q;")
        assert "require an 'OPENQASM 3;' header" in str(err)
        assert (err.line, err.column) == (3, 1)

    def test_bit_declaration_rejected_in_qasm2(self):
        err = error_for(HEADER + "bit[2] c;")
        assert "require an 'OPENQASM 3;' header" in str(err)

    def test_ctrl_rejected_in_qasm2(self):
        err = error_for(HEADER + "qreg q[2];\nctrl @ x q[0], q[1];")
        assert "unknown gate 'ctrl'" in str(err)

    def test_stdgates_include_rejected_in_qasm2(self):
        err = error_for('OPENQASM 2.0;\ninclude "stdgates.inc";')
        assert 'unsupported include "stdgates.inc"' in str(err)

    def test_unknown_include_in_qasm3_names_both_bundled(self):
        err = error_for('OPENQASM 3;\ninclude "mylib.inc";')
        assert '"qelib1.inc" or "stdgates.inc"' in str(err)

    def test_ctrl_without_at_sign(self):
        err = error_for(HEADER3 + "qubit[2] q;\nctrl x q[0], q[1];")
        assert "expected '@' after 'ctrl'" in str(err)

    def test_ctrl_on_user_gate(self):
        err = error_for(
            HEADER3 + "qubit[2] q;\ngate mine a { x a; }\nctrl @ mine q[0], q[1];"
        )
        assert "'ctrl @' cannot be applied to user-defined gate 'mine'" in str(err)

    def test_ctrl_arity_counts_controls(self):
        err = error_for(HEADER3 + "qubit[2] q;\nctrl @ x q[0];")
        assert "'ctrl @ x' expects 2 qubit argument(s), got 1" in str(err)

    def test_assignment_rhs_must_be_measure(self):
        err = error_for(HEADER3 + "qubit[1] q;\nbit[1] c;\nc[0] = x q[0];")
        assert "only 'measure' may appear" in str(err)

    def test_assignment_size_mismatch(self):
        err = error_for(HEADER3 + "qubit[2] q;\nbit[1] c;\nc = measure q;")
        assert "sizes differ" in str(err)

    def test_zero_size_qubit_declaration(self):
        err = error_for(HEADER3 + "qubit[0] q;")
        assert "positive" in str(err)

    def test_oversized_qubit_declaration(self):
        err = error_for(HEADER3 + "qubit[9999999999] q;")
        assert "exceeds the supported maximum" in str(err)

    def test_duplicate_v3_register(self):
        err = error_for(HEADER3 + "qubit[1] q;\nbit[1] q;")
        assert "already declared" in str(err)

    def test_unterminated_if_block(self):
        err = error_for(HEADER3 + "qubit[1] q;\nbit[1] c;\nif (c == 1) { x q[0];")
        assert "end of file" in str(err)


class TestExpressionErrors:
    def test_division_by_zero_names_position(self):
        err = error_for(HEADER + "qreg q[1];\nrx(pi/0) q[0];")
        assert "division by zero" in str(err)
        assert (err.line, err.column) == (4, 6)

    def test_division_by_zero_inside_gate_body(self):
        err = error_for(
            HEADER + "qreg q[1];\ngate bad(n) a { rx(pi/n) a; }\nbad(0) q[0];"
        )
        assert "division by zero" in str(err)

    def test_invalid_function_argument(self):
        err = error_for(HEADER + "qreg q[1];\nrx(sqrt(-1)) q[0];")
        assert "invalid argument to sqrt()" in str(err)

    def test_overflowing_power(self):
        err = error_for(HEADER + "qreg q[1];\nrx(9 ^ 9999) q[0];")
        assert "cannot evaluate" in str(err)
        assert err.line == 4

    def test_zero_to_negative_power(self):
        err = error_for(HEADER + "qreg q[1];\nrx(0 ^ -1) q[0];")
        assert "cannot evaluate" in str(err)

    def test_complex_power_rejected(self):
        err = error_for(HEADER + "qreg q[1];\nrx((-2) ^ 0.5) q[0];")
        assert "not a real number" in str(err)

    @pytest.mark.parametrize("expr", ["1e400", "1e308 * 10", "1e400 - 1e400"])
    def test_non_finite_parameters_rejected(self, expr):
        err = error_for(HEADER + f"qreg q[1];\nrx({expr}) q[0];")
        assert "non-finite gate parameter" in str(err)
        assert err.line == 4

    @pytest.mark.parametrize(
        "body, message, line, column",
        [
            # an int literal past the float range, as a gate parameter
            pytest.param("qreg q[1];\nrz(" + "1" * 400 + ") q[0];",
                         "too large for a parameter", 4, 4, id="param"),
            pytest.param("qreg q[1];\nrz(2 * " + "1" * 400 + ") q[0];",
                         "too large for a parameter", 4, 8, id="param-in-expression"),
            # past Python's int-string limit, anywhere an int literal goes
            pytest.param("qreg q[" + "1" * 5000 + "];",
                         "of 5000 digits is too long", 3, 8, id="register-size"),
            pytest.param("qreg q[2];\nh q[" + "1" * 5000 + "];",
                         "of 5000 digits is too long", 4, 5, id="index"),
            pytest.param("qreg q[1];\nrz(" + "1" * 5000 + ") q[0];",
                         "of 5000 digits is too long", 4, 4, id="param-digits"),
        ],
    )
    def test_oversized_integer_literals_are_positioned(self, body, message, line, column):
        err = error_for(HEADER + body)
        assert message in str(err)
        assert (err.line, err.column) == (line, column)

    def test_non_finite_parameter_from_macro_body(self):
        err = error_for(
            HEADER + "qreg q[1];\ngate g(t) a { rx(t * 1e308) a; }\ng(10) q[0];"
        )
        assert "non-finite gate parameter" in str(err)

    def test_overflowing_function(self):
        err = error_for(HEADER + "qreg q[1];\nrx(exp(99999)) q[0];")
        assert "invalid argument to exp()" in str(err)

    def test_deeply_nested_expression_rejected(self):
        # must be a positioned QasmError, never a raw RecursionError
        expr = "(" * 500 + "0" + ")" * 500
        err = error_for(HEADER + f"qreg q[1];\nrx({expr}) q[0];")
        assert "nesting exceeds the maximum depth" in str(err)
        assert err.line == 4

    def test_deep_gate_expansion_chain_rejected(self):
        lines = ["gate g0 a { x a; }"]
        lines += [f"gate g{i} a {{ g{i-1} a; }}" for i in range(1, 300)]
        source = HEADER + "qreg q[1];\n" + "\n".join(lines) + "\ng299 q[0];"
        err = error_for(source)
        assert "gate expansion exceeds the maximum nesting depth" in str(err)
        assert err.line is not None

    def test_exponential_macro_expansion_rejected_instantly(self):
        # doubling macros: g40 would expand to 2^40 instructions; the
        # precomputed size must reject the call before any expansion work
        lines = ["gate g0 a { x a; }"]
        lines += [f"gate g{i} a {{ g{i-1} a; g{i-1} a; }}" for i in range(1, 41)]
        source = HEADER + "qreg q[1];\n" + "\n".join(lines) + "\ng40 q[0];"
        err = error_for(source)
        assert "expand to more than" in str(err)

    def test_pathological_power_chain_rejected(self):
        err = error_for(HEADER + "qreg q[1];\nrx(1" + "^1" * 5000 + ") q[0];")
        assert "nesting exceeds the maximum depth" in str(err)

    def test_long_sign_chain_is_handled_iteratively(self):
        # sign chains fold iteratively, so this is merely silly, not fatal
        from repro.qsim import from_qasm

        qc = from_qasm(HEADER + "qreg q[1];\nrx(" + "-" * 5000 + "1) q[0];")
        assert qc.data[0].operation.params == [1.0]

    def test_long_additive_chain_evaluates_iteratively(self):
        # a left-deep AST from 20000 '+' terms must evaluate, not recurse
        from repro.qsim import from_qasm

        qc = from_qasm(HEADER + "qreg q[1];\nrz(" + "+".join(["1"] * 20000) + ") q[0];")
        assert qc.data[0].operation.params == [20000.0]


class TestLexicalErrors:
    def test_unexpected_character(self):
        err = error_for(HEADER + "qreg q[1];\nx q[0]; $")
        assert "unexpected character '$'" in str(err)
        assert (err.line, err.column) == (4, 9)

    def test_stray_at_symbol_is_a_parse_error_not_a_crash(self):
        # '@' is a token now (for 'ctrl @'), so a stray one must fail in the
        # parser with a position, not in the tokenizer
        err = error_for(HEADER + "qreg q[1];\nx q[0]; @")
        assert "expected a statement" in str(err)
        assert (err.line, err.column) == (4, 9)

    def test_stray_number_statement(self):
        err = error_for(HEADER + "qreg q[1];\n42;")
        assert "expected a statement" in str(err)
