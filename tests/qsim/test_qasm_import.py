"""Unit tests for the OpenQASM 2.0 importer (``from_qasm``)."""

import math

import numpy as np
import pytest

from repro.qsim import QuantumCircuit, from_qasm, from_qasm_file, to_qasm
from repro.qsim.gates import GATE_REGISTRY, gate_matrix
from repro.qsim.instruction import ControlledGate, Gate
from repro.qsim.transpiler import decompose

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


def names(circuit):
    return [i.operation.name for i in circuit.data]


def qubit_indices(circuit):
    return [[circuit.qubit_index(q) for q in i.qubits] for i in circuit.data]


class TestHeaderAndRegisters:
    def test_minimal_program(self):
        qc = from_qasm("OPENQASM 2.0;\nqreg q[3];\n")
        assert qc.num_qubits == 3
        assert qc.num_clbits == 0
        assert qc.data == []

    def test_version_as_int_accepted(self):
        # lenient: "OPENQASM 2;" appears in the wild
        assert from_qasm("OPENQASM 2;\nqreg q[1];").num_qubits == 1

    def test_registers_keep_declaration_order_and_names(self):
        qc = from_qasm("OPENQASM 2.0;\nqreg a[2];\ncreg m[2];\nqreg b[1];\n")
        assert [r.name for r in qc.qregs] == ["a", "b"]
        assert [r.name for r in qc.cregs] == ["m"]
        assert qc.num_qubits == 3

    def test_comments_and_whitespace_ignored(self):
        qc = from_qasm(HEADER + "// a comment\nqreg q[1];  // trailing\n\n\nx q[0];")
        assert names(qc) == ["x"]

    def test_circuit_name(self):
        assert from_qasm("OPENQASM 2.0;\nqreg q[1];", name="mycirc").name == "mycirc"

    def test_from_qasm_file_names_after_file(self, tmp_path):
        path = tmp_path / "bell_pair.qasm"
        path.write_text(HEADER + "qreg q[2];\nh q[0];\ncx q[0], q[1];\n")
        qc = from_qasm_file(path)
        assert qc.name == "bell_pair"
        assert names(qc) == ["h", "cx"]


class TestGateMapping:
    @pytest.mark.parametrize("gate", ["id", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx"])
    def test_simple_single_qubit_gates(self, gate):
        qc = from_qasm(HEADER + f"qreg q[1];\n{gate} q[0];")
        assert names(qc) == [gate]

    @pytest.mark.parametrize("gate", ["cx", "cy", "cz", "ch", "swap"])
    def test_two_qubit_gates(self, gate):
        qc = from_qasm(HEADER + f"qreg q[2];\n{gate} q[0], q[1];")
        assert names(qc) == [gate]
        assert qubit_indices(qc) == [[0, 1]]

    @pytest.mark.parametrize("gate", ["ccx", "cswap"])
    def test_three_qubit_gates(self, gate):
        qc = from_qasm(HEADER + f"qreg q[3];\n{gate} q[0], q[1], q[2];")
        assert names(qc) == [gate]

    def test_u1_u_and_cu1_alias_to_registry_names(self):
        qc = from_qasm(HEADER + "qreg q[2];\nu1(0.5) q[0];\nu(1,2,3) q[0];\ncu1(0.25) q[0], q[1];")
        assert names(qc) == ["p", "u3", "cp"]
        assert [i.operation.num_qubits for i in qc.data] == [1, 1, 2]
        assert [i.operation.params for i in qc.data] == [[0.5], [1.0, 2.0, 3.0], [0.25]]

    def test_builtin_U_and_CX_without_include(self):
        qc = from_qasm("OPENQASM 2.0;\nqreg q[2];\nU(0.1, 0.2, 0.3) q[0];\nCX q[0], q[1];")
        assert names(qc) == ["u3", "cx"]
        assert [i.operation.params for i in qc.data] == [[0.1, 0.2, 0.3], []]

    def test_u0_drops_duration_parameter(self):
        qc = from_qasm(HEADER + "qreg q[1];\nu0(3) q[0];")
        assert names(qc) == ["id"]
        assert qc.data[0].operation.params == []
        assert qc.data[0].operation.num_qubits == 1

    def test_cu3_macro_matches_controlled_u3(self):
        theta, phi, lam = 0.3, 0.7, -0.4
        qc = from_qasm(HEADER + f"qreg q[2];\ncu3({theta}, {phi}, {lam}) q[0], q[1];")
        got = np.eye(4, dtype=complex)
        for instr in qc.data:
            op = instr.operation
            local = [qc.qubit_index(q) for q in instr.qubits]
            mat = op.to_matrix()
            if len(local) == 1:
                full = np.kron(np.eye(2), mat) if local[0] == 1 else np.kron(mat, np.eye(2))
            else:
                full = mat if local == [0, 1] else None
                assert full is not None
            got = full @ got
        expected = np.eye(4, dtype=complex)
        expected[2:, 2:] = gate_matrix("u3", [theta, phi, lam])
        # qelib1 macros may differ by a global phase
        idx = np.unravel_index(np.argmax(np.abs(expected)), expected.shape)
        phase = got[idx] / expected[idx]
        assert np.allclose(got, phase * expected, atol=1e-10)

    def test_sxdg_macro_inlines(self):
        qc = from_qasm(HEADER + "qreg q[1];\nsxdg q[0];")
        assert names(qc) == ["s", "h", "s"]

    @pytest.mark.parametrize("name", sorted(GATE_REGISTRY))
    def test_every_registry_gate_round_trips_or_is_refused(self, name):
        spec = GATE_REGISTRY[name]
        params = [0.1 * (i + 1) for i in range(spec.num_params)]
        qc = QuantumCircuit(spec.num_qubits)
        qc.append(Gate(name, spec.num_qubits, params), list(range(spec.num_qubits)))
        back = from_qasm(to_qasm(qc))
        if name in ("iswap", "ryy"):
            # qelib1 has no such gate: to_qasm writes its {1q, cx} lowering
            assert names(back) == names(decompose(qc))
            assert "cx" in names(back) and name not in names(back)
            return
        assert names(back) == [name]
        assert back.data[0].operation.params == pytest.approx(params, rel=1e-11)

    @pytest.mark.parametrize(
        "call, kind, name, params",
        [
            ("ctrl @ x q[0], q[1];", Gate, "cx", []),
            ("ctrl @ ctrl @ x q[0], q[1], q[2];", Gate, "ccx", []),
            ("ctrl @ cx q[0], q[1], q[2];", Gate, "ccx", []),
            ("ctrl @ swap q[0], q[1], q[2];", Gate, "cswap", []),
            ("ctrl @ h q[0], q[1];", Gate, "ch", []),
            ("ctrl @ rx(0.5) q[0], q[1];", Gate, "crx", [0.5]),
            ("ctrl @ u1(0.5) q[0], q[1];", Gate, "cp", [0.5]),
            ("ctrl @ ctrl @ ctrl @ x q[0], q[1], q[2], q[3];", ControlledGate, "cccx", []),
            ("ctrl @ ctrl @ z q[0], q[1], q[2];", ControlledGate, "ccz", []),
            ("ctrl @ ctrl @ p(0.5) q[0], q[1], q[2];", ControlledGate, "ccp", [0.5]),
            ("ctrl @ s q[0], q[1];", ControlledGate, "cs", []),
            ("ctrl @ u0(3) q[0], q[1];", ControlledGate, "cid", []),
            ("ctrl @ rzz(0.5) q[0], q[1], q[2];", ControlledGate, "crzz", [0.5]),
        ],
    )
    def test_ctrl_chains_map_onto_registry_gates(self, call, kind, name, params):
        qc = from_qasm('OPENQASM 3;\ninclude "stdgates.inc";\nqubit[4] q;\n' + call)
        (instr,) = qc.data
        assert type(instr.operation) is kind
        assert instr.operation.name == name
        assert instr.operation.num_qubits == len(instr.qubits)
        assert instr.operation.params == params


class TestParameterExpressions:
    @pytest.mark.parametrize(
        "expr, value",
        [
            ("pi", math.pi),
            ("pi/2", math.pi / 2),
            ("-pi/4", -math.pi / 4),
            ("3*pi/4", 3 * math.pi / 4),
            ("2^3", 8.0),
            ("2^3^2", 512.0),            # right-associative
            ("1 + 2 * 3", 7.0),
            ("(1 + 2) * 3", 9.0),
            ("sin(pi/2)", 1.0),
            ("cos(0)", 1.0),
            ("sqrt(4)", 2.0),
            ("ln(exp(1))", 1.0),
            ("tan(0)", 0.0),
            ("1.5e-1", 0.15),
            ("-(0.5 - 0.25)", -0.25),
        ],
    )
    def test_expression_evaluation(self, expr, value):
        qc = from_qasm(HEADER + f"qreg q[1];\nrz({expr}) q[0];")
        assert qc.data[0].operation.params[0] == pytest.approx(value, abs=1e-12)


class TestGateDefinitions:
    def test_definition_inlines_at_call_site(self):
        qc = from_qasm(
            HEADER
            + "qreg q[2];\n"
            + "gate entangle a, b { h a; cx a, b; }\n"
            + "entangle q[0], q[1];\nentangle q[1], q[0];"
        )
        assert names(qc) == ["h", "cx", "h", "cx"]
        assert qubit_indices(qc) == [[0], [0, 1], [1], [1, 0]]

    def test_parameterised_definition(self):
        qc = from_qasm(
            HEADER
            + "qreg q[1];\n"
            + "gate wiggle(theta) a { rz(theta/2) a; rx(-theta) a; }\n"
            + "wiggle(pi) q[0];"
        )
        assert names(qc) == ["rz", "rx"]
        assert qc.data[0].operation.params[0] == pytest.approx(math.pi / 2)
        assert qc.data[1].operation.params[0] == pytest.approx(-math.pi)

    def test_nested_definitions(self):
        qc = from_qasm(
            HEADER
            + "qreg q[2];\n"
            + "gate inner a { h a; }\n"
            + "gate outer a, b { inner a; cx a, b; inner b; }\n"
            + "outer q[0], q[1];"
        )
        assert names(qc) == ["h", "cx", "h"]

    def test_barrier_inside_gate_body(self):
        qc = from_qasm(
            HEADER + "qreg q[2];\ngate wall a, b { x a; barrier a, b; x b; }\nwall q[0], q[1];"
        )
        assert names(qc) == ["x", "barrier", "x"]

    def test_empty_body_gate(self):
        qc = from_qasm(HEADER + "qreg q[1];\ngate nop a { }\nnop q[0];")
        assert qc.data == []


class TestBroadcastAndNonUnitary:
    def test_single_qubit_gate_broadcasts_over_register(self):
        qc = from_qasm(HEADER + "qreg q[3];\nh q;")
        assert names(qc) == ["h", "h", "h"]
        assert qubit_indices(qc) == [[0], [1], [2]]

    def test_two_register_broadcast_is_pairwise(self):
        qc = from_qasm(HEADER + "qreg a[2];\nqreg b[2];\ncx a, b;")
        assert qubit_indices(qc) == [[0, 2], [1, 3]]

    def test_single_qubit_broadcasts_against_register(self):
        qc = from_qasm(HEADER + "qreg a[1];\nqreg b[3];\ncx a[0], b;")
        assert qubit_indices(qc) == [[0, 1], [0, 2], [0, 3]]

    def test_measure_register_to_register(self):
        qc = from_qasm(HEADER + "qreg q[2];\ncreg c[2];\nmeasure q -> c;")
        assert names(qc) == ["measure", "measure"]
        assert [[qc.clbit_index(c) for c in i.clbits] for i in qc.data] == [[0], [1]]

    def test_measure_single_bits(self):
        qc = from_qasm(HEADER + "qreg q[2];\ncreg c[2];\nmeasure q[1] -> c[0];")
        assert qubit_indices(qc) == [[1]]
        assert [qc.clbit_index(c) for c in qc.data[0].clbits] == [0]

    def test_reset_register_and_single(self):
        qc = from_qasm(HEADER + "qreg q[2];\nreset q;\nreset q[1];")
        assert names(qc) == ["reset", "reset", "reset"]

    def test_barrier_register_and_mixed(self):
        qc = from_qasm(HEADER + "qreg q[2];\nqreg r[1];\nbarrier q;\nbarrier q[0], r;")
        assert names(qc) == ["barrier", "barrier"]
        assert qubit_indices(qc) == [[0, 1], [0, 2]]

    def test_mid_circuit_measure_and_reset_preserved_in_order(self):
        qc = from_qasm(
            HEADER
            + "qreg q[2];\ncreg c[2];\n"
            + "h q[0];\nmeasure q[0] -> c[0];\nreset q[0];\ncx q[0], q[1];\nmeasure q[1] -> c[1];"
        )
        assert names(qc) == ["h", "measure", "reset", "cx", "measure"]

    def test_include_twice_is_harmless(self):
        qc = from_qasm(HEADER + 'include "qelib1.inc";\nqreg q[1];\nh q[0];')
        assert names(qc) == ["h"]

    def test_utf8_bom_tolerated(self, tmp_path):
        path = tmp_path / "bom.qasm"
        path.write_bytes(("\ufeff" + HEADER + "qreg q[1];\nh q[0];").encode("utf-8"))
        assert names(from_qasm_file(path)) == ["h"]
