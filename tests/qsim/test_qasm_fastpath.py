"""The importer's one-line fast path against the full recursive-descent parser.

``from_qasm`` reads a plain statement (``[if (c == n)] name[(params)] args;``
or ``measure a -> b;``) straight from one regex match, and hands anything
else to the full parser.  Forcing every statement through the full parser
(by swapping in a statement regex that never matches) must give the same
circuit -- instruction by instruction, float for float, span for span -- or
the same positioned :class:`QasmError`.
"""

import glob
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.qsim import QasmError, QuantumCircuit, from_qasm, to_qasm
from repro.qsim import qasm
from repro.qsim.instruction import Gate

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..")
CORPUS = sorted(glob.glob(os.path.join(ROOT, "benchmarks", "circuits", "*.qasm")))
HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
NEVER = re.compile(r"(?!)")


def outcome(source, filename=None):
    """Everything a parse decides: the circuit's content, or the error."""
    try:
        circuit = from_qasm(source, filename=filename)
    except QasmError as err:
        return ("error", str(err), err.line, err.column)
    instructions = [
        (
            type(instr.operation).__name__,
            instr.operation.name,
            tuple(float(p).hex() for p in instr.operation.params),
            tuple(circuit.qubit_index(q) for q in instr.qubits),
            tuple(circuit.clbit_index(c) for c in instr.clbits),
            tuple(instr.span),
            None if instr.condition is None else (instr.condition[0].name, instr.condition[1]),
        )
        for instr in circuit.data
    ]
    registers = [
        (type(reg).__name__, reg.name, reg.size, tuple(circuit.register_spans[reg]))
        for reg in circuit.qregs + circuit.cregs
    ]
    return ("circuit", registers, instructions)


def assert_same_parse(source, monkeypatch, filename=None):
    fast = outcome(source, filename)
    with monkeypatch.context() as patch:
        patch.setattr(qasm, "_PLAIN_STATEMENT_RE", NEVER)
        full = outcome(source, filename)
    assert fast == full
    return fast


def random_circuit_qasm(seed, num_qubits=16, num_gates=1000):
    """The benchmark's random-circuit shape: 24 registry gates, uniform angles."""
    pool = [
        ("h", 1, 0), ("x", 1, 0), ("y", 1, 0), ("z", 1, 0), ("s", 1, 0),
        ("sdg", 1, 0), ("t", 1, 0), ("tdg", 1, 0), ("sx", 1, 0),
        ("rx", 1, 1), ("ry", 1, 1), ("rz", 1, 1), ("p", 1, 1), ("u3", 1, 3),
        ("cx", 2, 0), ("cy", 2, 0), ("cz", 2, 0), ("ch", 2, 0), ("swap", 2, 0),
        ("crx", 2, 1), ("cry", 2, 1), ("crz", 2, 1), ("cp", 2, 1),
    ]
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(num_qubits)
    for _ in range(num_gates):
        name, arity, num_params = pool[rng.integers(len(pool))]
        params = list(rng.uniform(0, 2 * np.pi, num_params))
        targets = [int(q) for q in rng.choice(num_qubits, arity, replace=False)]
        circuit.append(Gate(name, arity, params), targets)
    circuit.measure_all()
    return to_qasm(circuit)


def service_payload_qasm(seed, num_qubits=10, num_gates=200):
    """The service benchmark's cold-job shape: 1q gates, rotations, cx, measure."""
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(num_qubits, num_qubits)
    for _ in range(num_gates):
        draw = rng.random()
        if draw < 0.5:
            gate = ["h", "x", "z", "s", "t"][rng.integers(5)]
            getattr(circuit, gate)(int(rng.integers(num_qubits)))
        elif draw < 0.8:
            gate = ["rx", "ry", "rz"][rng.integers(3)]
            getattr(circuit, gate)(float(rng.random() * 3.0), int(rng.integers(num_qubits)))
        else:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circuit.cx(int(a), int(b))
    circuit.measure(list(range(num_qubits)), list(range(num_qubits)))
    return to_qasm(circuit)


@pytest.mark.parametrize("path", CORPUS, ids=os.path.basename)
def test_corpus_file_parses_identically(path, monkeypatch):
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    assert assert_same_parse(source, monkeypatch, filename=path)[0] == "circuit"


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_benchmark_shapes_parse_identically(seed, monkeypatch):
    for source in (random_circuit_qasm(seed), service_payload_qasm(seed)):
        assert assert_same_parse(source, monkeypatch)[0] == "circuit"


def test_plain_statements_skip_the_full_parser(monkeypatch):
    calls = []
    full = qasm._QasmParser._parse_statement
    monkeypatch.setattr(
        qasm._QasmParser, "_parse_statement", lambda self: calls.append(1) or full(self)
    )
    circuit = from_qasm(random_circuit_qasm(3))
    # only the include and the two register declarations need the full parser
    assert len(calls) == 3
    assert len(circuit.data) == 1016


_SPACE = st.sampled_from(["", " ", "  ", "\t"])
_GAP = st.sampled_from([" ", "  ", "\t"])
_PARAM = st.one_of(
    st.floats(-10, 10, allow_nan=False).map(repr),
    st.sampled_from(["pi", "-pi/2", "pi / 4", "2*pi", "-(pi/8)", "0.5e1", ".25", "3", "1.",
                     "cos(pi)", "sqrt(2)/2", "2^3", "-1e-3", "+0.5", "(pi)"]),
)
_GATES = [("h", 0, 1), ("x", 0, 1), ("rz", 1, 1), ("u3", 3, 1), ("u2", 2, 1),
          ("cx", 0, 2), ("cu1", 1, 2), ("cp", 1, 2), ("swap", 0, 2), ("ccx", 0, 3), ("cu3", 3, 2)]


@st.composite
def _argument(draw, register, size, broadcast):
    if broadcast and draw(st.booleans()):
        return register
    return f"{register}{draw(_SPACE)}[{draw(_SPACE)}{draw(st.integers(0, size - 1))}{draw(_SPACE)}]"


@st.composite
def _statement(draw):
    if draw(st.integers(0, 5)) == 0:
        text = (f"measure{draw(_GAP)}{draw(_argument('q', 3, True))}{draw(_SPACE)}->"
                f"{draw(_SPACE)}{draw(_argument('c', 3, True))}")
    else:
        name, num_params, num_qubits = draw(st.sampled_from(_GATES))
        text = name
        if num_params:
            params = [draw(_PARAM) for _ in range(num_params)]
            text += f"{draw(_SPACE)}({draw(_SPACE)}{','.join(params)}{draw(_SPACE)}){draw(_SPACE)}"
        else:
            text += draw(_GAP)
        registers = draw(st.permutations(["q", "r", "q", "r"]))[:num_qubits]
        args = [draw(_argument(reg, 3 if reg == "q" else 2, True)) for reg in registers]
        text += f"{draw(_SPACE)},{draw(_SPACE)}".join(args)
    if draw(st.integers(0, 3)) == 0:
        value = draw(st.integers(0, 8))
        text = (f"if{draw(_SPACE)}({draw(_SPACE)}c{draw(_SPACE)}=={draw(_SPACE)}{value})"
                f"{draw(_SPACE)}{text}")
    return text + draw(_SPACE) + ";"


@st.composite
def _program(draw):
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', "qreg q[3];", "qreg r[2];", "creg c[3];"]
    for statement in draw(st.lists(_statement(), min_size=1, max_size=12)):
        if draw(st.integers(0, 4)) == 0:
            lines.append("// between statements")
        lines.append(draw(_SPACE) + statement)
    return newline.join(lines) + newline


@settings(max_examples=80, deadline=None)
@given(_program())
def test_generated_plain_statements_parse_identically(source):
    # no monkeypatch fixture under @given: patch and restore by hand
    fast = outcome(source)
    saved = qasm._PLAIN_STATEMENT_RE
    qasm._PLAIN_STATEMENT_RE = NEVER
    try:
        full = outcome(source)
    finally:
        qasm._PLAIN_STATEMENT_RE = saved
    assert fast == full


@pytest.mark.parametrize(
    "body",
    [
        "qreg q[2];\nh q[2];\n",                       # index out of range
        "qreg q[2];\nh r[0];\n",                       # unknown register
        "qreg q[2];\nrz(1e400) q[0];\n",               # non-finite literal
        pytest.param("qreg q[2];\nrz(" + "1" * 400 + ") q[0];\n", id="int-past-float-range"),
        pytest.param("qreg q[2];\nh q[" + "1" * 5000 + "];\n", id="index-past-int-limit"),
        "qreg q[2];\nrz(pi*1e308*10) q[0];\n",         # non-finite expression
        "qreg q[2];\ncx q[0], q[0];\n",                # duplicate qubits
        "qreg q[2];\ncx q[0];\n",                      # arity
        "qreg q[2];\nrz(1/0) q[0];\n",                 # evaluation error
        "qreg q[2];\ncreg c[1];\nif (c == 2) x q[0];\n",   # condition does not fit
        "qreg q[2];\ncreg c[1];\nmeasure q -> c;\n",   # broadcast sizes differ
        "qreg q[2];\nxq[0];\n",                        # no gap after the name
    ],
)
def test_fast_looking_errors_match_the_full_parser(body, monkeypatch):
    assert assert_same_parse(HEADER + body, monkeypatch)[0] == "error"


@pytest.mark.parametrize(
    "body",
    [
        "rz(0.5 // a comment\n) q[0];\n",             # comment inside the statement
        "rz(0.5) // rz(7) q[1];\nq[0];\n",              # comment after the params
        "cx q[0],\n   q[1];\n",                       # statement across lines
        "rz(1111111111111111111111.5) q[0];\n",       # long literal
        "x q[000000000001];\n",                       # index with leading zeros
        "u3(sin(0.1), cos((0.2)), ln(3)) q[1];\n",    # nested parentheses
        "x q[0]; x q[1]; measure q -> c;\n",          # statements sharing a line
    ],
)
def test_statements_the_fast_path_misses_parse_identically(body, monkeypatch):
    source = HEADER + "qreg q[2];\ncreg c[2];\n" + body
    assert assert_same_parse(source, monkeypatch)[0] == "circuit"


def test_qelib1_gate_before_include_matches_the_full_parser(monkeypatch):
    result = assert_same_parse("OPENQASM 2.0;\nqreg q[1];\nh q[0];\n", monkeypatch)
    assert result[0] == "error" and "include" in result[1]


def test_qasm3_keyword_named_gate_matches_the_full_parser(monkeypatch):
    # 'pow' may name a gate, but an OpenQASM 3 call of it is the unsupported modifier
    source = 'OPENQASM 3;\ninclude "stdgates.inc";\nqubit[1] q;\ngate pow a { x a; }\npow q[0];\n'
    result = assert_same_parse(source, monkeypatch)
    assert result[0] == "error" and "unsupported OpenQASM 3 feature" in result[1]
