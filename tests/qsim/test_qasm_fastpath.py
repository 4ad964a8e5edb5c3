"""The importer's statement reader against the full recursive-descent parser.

``from_qasm`` reads each statement -- the header, ``include``, declarations,
gate calls (``ctrl @`` ones too), ``measure`` in both spellings, ``reset``,
``barrier`` and ``if`` with its OpenQASM 3 block -- from one regex match, and
hands anything else to the full parser.  Forcing every statement through the
full parser (``full_parser_only``) must give the same circuit -- instruction
by instruction, float for float, span for span -- or the same positioned
:class:`QasmError`.
"""

import contextlib
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
FEED_FORWARD = ["teleport_cond_n3.qasm", "ghz_cond_n4.qasm", "qec_cond_n5.qasm",
                "qec_repetition_n5.qasm"]
HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
HEADER3 = 'OPENQASM 3;\ninclude "stdgates.inc";\n'


@contextlib.contextmanager
def full_parser_only():
    """Make the statement reader miss everything, header included."""
    parser = qasm._QasmParser
    saved = parser._read, parser._read_header
    parser._read = lambda self, start, readers: False
    parser._read_header = lambda self, start: False
    try:
        yield
    finally:
        parser._read, parser._read_header = saved


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


def assert_same_parse(source, filename=None):
    fast = outcome(source, filename)
    with full_parser_only():
        full = outcome(source, filename)
    assert fast == full
    return fast


@contextlib.contextmanager
def count_full_parser_statements():
    """Yield a list that gets one entry per statement the full parser reads."""
    parser, calls = qasm._QasmParser, []
    saved = parser._parse_statement, parser._parse_header

    def statement(self, conditioned=False):
        calls.append("statement")
        return saved[0](self, conditioned)

    def header(self):
        calls.append("header")
        return saved[1](self)

    parser._parse_statement, parser._parse_header = statement, header
    try:
        yield calls
    finally:
        parser._parse_statement, parser._parse_header = saved


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
def test_corpus_file_parses_identically(path):
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    assert assert_same_parse(source, filename=path)[0] == "circuit"


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_benchmark_shapes_parse_identically(seed):
    for source in (random_circuit_qasm(seed), service_payload_qasm(seed)):
        assert assert_same_parse(source)[0] == "circuit"


def test_plain_statements_skip_the_full_parser():
    with count_full_parser_statements() as calls:
        circuit = from_qasm(random_circuit_qasm(3))
    assert calls == []
    assert len(circuit.data) == 1016


@pytest.mark.parametrize("name", FEED_FORWARD)
def test_feed_forward_files_skip_the_full_parser(name):
    with open(os.path.join(ROOT, "benchmarks", "circuits", name), encoding="utf-8") as handle:
        source = handle.read()
    with count_full_parser_statements() as calls:
        circuit = from_qasm(source)
    assert calls == []
    assert circuit.data


# -- generated programs -------------------------------------------------------

_SPACE = st.sampled_from(["", " ", "  ", "\t"])
_GAP = st.sampled_from([" ", "  ", "\t"])
#: OpenQASM 3 gaps may hold block comments, on one line or across lines
_SPACE3 = st.sampled_from(["", " ", "\t", "/**/", " /* c */ ", "/* a\nb */"])
_GAP3 = st.sampled_from([" ", "\t", " /* c */ ", "/**/ ", " /* a\nb */ "])


def _blanks(comments):
    """The (optional, required) blank strategies inside a statement."""
    return (_SPACE3, _GAP3) if comments else (_SPACE, _GAP)
_PARAM = st.one_of(
    st.floats(-10, 10, allow_nan=False).map(repr),
    st.sampled_from(["pi", "-pi/2", "pi / 4", "2*pi", "-(pi/8)", "0.5e1", ".25", "3", "1.",
                     "cos(pi)", "sqrt(2)/2", "2^3", "-1e-3", "+0.5", "(pi)"]),
)
_GATES = [("h", 0, 1), ("x", 0, 1), ("rz", 1, 1), ("u3", 3, 1), ("u2", 2, 1),
          ("cx", 0, 2), ("cu1", 1, 2), ("cp", 1, 2), ("swap", 0, 2), ("ccx", 0, 3), ("cu3", 3, 2)]
#: stdgates.inc gates a ``ctrl @`` chain may control
_CONTROLLABLE = [("x", 0, 1), ("z", 0, 1), ("h", 0, 1), ("rz", 1, 1), ("p", 1, 1), ("swap", 0, 2)]
#: quantum registers (name -> size) of each dialect's preamble; ``s`` is a bare ``qubit s;``
_QREGS = {2: {"q": 3, "r": 2}, 3: {"q": 3, "r": 2, "s": 1}}


@st.composite
def _argument(draw, register, size, broadcast):
    if broadcast and draw(st.booleans()):
        return register
    return f"{register}{draw(_SPACE)}[{draw(_SPACE)}{draw(st.integers(0, size - 1))}{draw(_SPACE)}]"


@st.composite
def _gate_call(draw, version, comments, gates=_GATES, controls=0):
    space, gap = _blanks(comments)
    name, num_params, num_qubits = draw(st.sampled_from(gates))
    text = name
    if num_params:
        params = [draw(_PARAM) for _ in range(num_params)]
        text += f"{draw(_SPACE)}({draw(_SPACE)}{','.join(params)}{draw(_SPACE)}){draw(space)}"
    else:
        text += draw(gap)
    qregs = _QREGS[version]
    pool = [name for name in qregs for _ in range(2)]
    registers = draw(st.permutations(pool))[:num_qubits + controls]
    args = [draw(_argument(reg, qregs[reg], True)) for reg in registers]
    return text + f"{draw(space)},{draw(space)}".join(args)


@st.composite
def _measure(draw, version, comments):
    space, gap = _blanks(comments)
    if version == 3 and draw(st.booleans()):
        # assignment measurement of one bit, of a register, or of a bare bit
        source, target = draw(st.sampled_from([
            (draw(_argument("q", 3, False)), draw(_argument("c", 3, False))),
            ("q", "c"), ("s", "b"), (draw(_argument("q", 3, False)), "b"),
        ]))
        return f"{target}{draw(space)}={draw(space)}measure{draw(gap)}{source}"
    return (f"measure{draw(gap)}{draw(_argument('q', 3, True))}{draw(space)}->"
            f"{draw(space)}{draw(_argument('c', 3, True))}")


@st.composite
def _operation(draw, version, comments):
    """A statement an ``if`` may condition (without its ';')."""
    space, gap = _blanks(comments)
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(_measure(version, comments))
    if kind == 1:
        return f"reset{draw(gap)}{draw(_argument(draw(st.sampled_from(['q', 'r'])), 2, True))}"
    if version == 3 and kind in (2, 3):
        controls = draw(st.integers(1, 2))
        chain = "".join(f"ctrl{draw(space)}@{draw(gap)}" for _ in range(controls))
        return chain + draw(_gate_call(version, comments, _CONTROLLABLE, controls))
    return draw(_gate_call(version, comments))


@st.composite
def _statement(draw, version, comments):
    space, gap = _blanks(comments)
    kind = draw(st.integers(0, 7))
    if kind == 0:
        operands = draw(st.permutations(["q", "r[0]", "r[1]", "q[1]"]).map(lambda p: p[:2]))
        if "q" in operands and "q[1]" in operands:
            operands = ["q", "r[1]"]
        text = f"barrier{draw(gap)}{f'{draw(space)},{draw(space)}'.join(operands)}"
    elif kind == 1:
        value = draw(st.integers(0, 8))
        condition = f"if{draw(space)}({draw(space)}c{draw(space)}=={draw(space)}{value})"
        if version == 3 and draw(st.booleans()):
            body = draw(st.lists(_operation(version, comments), min_size=0, max_size=3))
            newline = draw(st.sampled_from([" ", "\n  "]))
            inner = "".join(f"{newline}{op}{draw(space)};" for op in body)
            return f"{condition}{draw(space)}{{{inner}{newline}}}"
        text = f"{condition}{draw(space)}{draw(_operation(version, comments))}"
    else:
        text = draw(_operation(version, comments))
    return text + draw(space) + ";"


#: one malformed variant of each form the reader takes, per dialect
_MALFORMED = {
    2: ["qreg z[0];", "creg z[100001];", "qreg z[1234567890];", "qreg q[2];", "creg r[1];",
        'include "stdgates.inc";', 'include "other.inc";', "qubit[2] z;", "bit z;",
        "barrier q[0], q[0];", "barrier q, q[2];", "if (c == 1) creg z[1];",
        "if (c == 1) barrier q;", "/* block */", "x q[0]; /* trailing",
        "if (c == 1) { x q[0]; }", "reset q, r;"],
    3: ["qubit[0] z;", "bit[100001] z;", "qubit[1234567890] z;", "bit[2] q;", "qubit c;",
        'include "other.inc";', "qreg q[1];", "if (c == 1) { qubit[2] z; }",
        "if (c == 1) { bit z; }", "if (c == 1) { x q[0]; barrier q; }",
        "if (c == 1) { if (c == 1) { x q[0]; } }", "barrier q, q[1];",
        "barrier s, s;", "x q[0]; /* never closed", "ctrl @ ctrl @ x q[0], q[1], q[0];",
        "if (c == 9) { x q[0]; }", "if (c == 1) { x q[0];", "c[0] = measure r;",
        "b = measure q;"],
}


@st.composite
def _program(draw, version):
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    # OpenQASM 3 programs with block comments inside statements, or without
    comments = version == 3 and draw(st.booleans())
    if version == 3:
        gap = _blanks(comments)[1]
        lines = [draw(st.sampled_from(["OPENQASM 3;", "OPENQASM 3.0;", "/* first */ OPENQASM 3;"])),
                 'include "stdgates.inc";', "qubit[3] q;", f"qubit{draw(gap)}[2] r;",
                 "bit[3] c;", f"qubit{draw(gap)}s;", "bit b;"]
    else:
        lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', "qreg q[3];", "qreg r[2];",
                 "creg c[3];"]
    for statement in draw(st.lists(_statement(version, comments), min_size=1, max_size=12)):
        if draw(st.integers(0, 4)) == 0:
            lines.append("// between statements")
        if version == 3 and draw(st.integers(0, 4)) == 0:
            lines.append("/* between\n   statements */")
        lines.append(draw(_SPACE) + statement)
    if draw(st.integers(0, 3)) == 3:
        lines.insert(draw(st.integers(2, len(lines))), draw(st.sampled_from(_MALFORMED[version])))
    return newline.join(lines) + newline


@pytest.mark.parametrize("version", [2, 3])
def test_generated_programs_parse_identically(version):
    @settings(max_examples=80, deadline=None)
    @given(_program(version))
    def check(source):
        assert_same_parse(source)

    check()


@pytest.mark.slow
@pytest.mark.parametrize("version", [2, 3])
def test_generated_programs_parse_identically_deep(version):
    @settings(max_examples=2000, deadline=None)
    @given(_program(version))
    def check(source):
        assert_same_parse(source)

    check()


@pytest.mark.parametrize(
    "version, statement", [(v, text) for v in (2, 3) for text in _MALFORMED[v]]
)
def test_malformed_statements_raise_the_full_parsers_error(version, statement):
    preamble = (HEADER3 + "qubit[3] q;\nqubit[2] r;\nbit[3] c;\nqubit s;\nbit b;\n"
                if version == 3 else HEADER + "qreg q[3];\nqreg r[2];\ncreg c[3];\n")
    source = preamble + "h q[0];\n" + statement + "\nx q[1];\n"
    assert assert_same_parse(source)[0] == "error"


# -- hand-picked cases --------------------------------------------------------

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
        "qreg q[2];\nqreg q[1];\n",                    # redeclared register
        "qreg q[0];\n",                                # empty register
        "qreg q[2];\nbarrier q, q[1];\n",              # repeated barrier operand
        "qreg q[2];\nreset q[0], q[1];\n",             # reset takes one operand
        "gate g a, b { barrier a, b; }\nqreg q[2];\ng q[0], q[0];\n",   # repeat in a macro
        'include "qelib1.inc";\ngate h a { x a; }\n',  # redefined qelib1 gate
        "qreg q[1];\n/* a block comment */\nx q[0];\n",   # OpenQASM 3 only
        "qreg q[1];\nx q[0] /* inside */;\n",
    ],
)
def test_fast_looking_errors_match_the_full_parser(body):
    assert assert_same_parse(HEADER + body)[0] == "error"


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
        "qreg r [ 3 ] ;\nreset r;\nbarrier r, q[0];\n",   # spaced declaration, broadcasts
        "if(c==3)\n  reset q[1];\n",                  # condition on its own line
    ],
)
def test_statements_the_fast_path_misses_parse_identically(body):
    source = HEADER + "qreg q[2];\ncreg c[2];\n" + body
    assert assert_same_parse(source)[0] == "circuit"


@pytest.mark.parametrize(
    "body",
    [
        "x /* inside */ q[0];\nrz(/*a*/pi/2) q[1];\n",
        "/* between\nstatements */ cx q[0], q[1];\n",
        "if (c == 1) { /* in a block */ x q[0]; }\n",
        "ctrl @ /* c */ ctrl @ x q[0], q[1], q[2];\n",
        "c[0] = /* c */ measure q[0];\n",
        "x q[0]; /* same line */ x q[1];\n",
        "/** stars ***/ x q[0];\n",
    ],
)
def test_block_comments_read_as_blank_in_openqasm3(body):
    source = HEADER3 + "qubit[3] q;\nbit[2] c;\n" + body
    result = assert_same_parse(source)
    assert result[0] == "circuit"
    plain = assert_same_parse(HEADER3 + "qubit[3] q;\nbit[2] c;\n" + _strip_block_comments(body))
    assert [row[:5] + row[6:] for row in result[2]] == [row[:5] + row[6:] for row in plain[2]]


def _strip_block_comments(text):
    return re.sub(r"/\*.*?\*/", " ", text, flags=re.S)


def test_block_comment_before_the_header():
    assert assert_same_parse("/* lead */\n" + HEADER3 + "qubit q;\nx q;\n")[0] == "circuit"
    result = assert_same_parse("/* lead */\n" + HEADER + "qreg q[1];\n")
    assert result[0] == "error" and "OpenQASM 3 only" in result[1]
    assert result[2:] == (1, 1)


@pytest.mark.parametrize(
    "header,column",
    [
        ("OPENQASM /* c */ 3;\n", None),
        ("OPENQASM 3 /* c */;\n", None),
        ("OPENQASM /* c */ 2.0;\n", 10),
    ],
)
def test_block_comment_inside_the_header(header, column):
    body = 'include "stdgates.inc";\nqubit q;\nx q;\n' if column is None else "qreg q[1];\n"
    result = assert_same_parse(header + body)
    if column is None:
        assert result[0] == "circuit"
    else:
        message = f"line 1, column {column}: " + qasm._BLOCK_COMMENT_ERROR
        assert result == ("error", message, 1, column)


def test_block_comment_in_openqasm2_names_its_position():
    result = assert_same_parse(HEADER + "qreg q[1];\nx q[0];\n  /* no */\n")
    assert result == ("error", "line 5, column 3: " + qasm._BLOCK_COMMENT_ERROR, 5, 3)


def test_unterminated_block_comment_in_openqasm3():
    result = assert_same_parse(HEADER3 + "qubit q;\n/* open\nx q;\n")
    assert result == ("error", "line 4, column 1: unterminated block comment", 4, 1)


def test_qelib1_gate_before_include_matches_the_full_parser():
    result = assert_same_parse("OPENQASM 2.0;\nqreg q[1];\nh q[0];\n")
    assert result[0] == "error" and "include" in result[1]


def test_qasm3_keyword_named_gate_matches_the_full_parser():
    # 'pow' may name a gate, but an OpenQASM 3 call of it is the unsupported modifier
    source = 'OPENQASM 3;\ninclude "stdgates.inc";\nqubit[1] q;\ngate pow a { x a; }\npow q[0];\n'
    result = assert_same_parse(source)
    assert result[0] == "error" and "unsupported OpenQASM 3 feature" in result[1]


def test_a_miss_inside_an_if_block_takes_back_the_block():
    # the first statement is read, the second is not: the full parser re-reads both
    source = HEADER3 + "qubit[2] q;\nbit[1] c;\nif (c == 1) {\n  x q[0];\n  cx q[0],\nq[1];\n}\n"
    result = assert_same_parse(source)
    assert [row[1] for row in result[2]] == ["x", "cx"]


def test_parameter_memo_reads_each_text_once_per_parse(monkeypatch):
    calls = []
    evaluate = qasm._QasmParser._evaluate_source
    monkeypatch.setattr(
        qasm._QasmParser, "_evaluate_source",
        lambda self, start, end: calls.append(self._source[start:end]) or evaluate(self, start, end),
    )
    source = HEADER + "qreg q[2];\n" + "cu1(pi/2) q[1], q[0];\nrz(pi/2) q[0];\n" * 3
    first, second = from_qasm(source), from_qasm(source)
    assert calls == ["pi/2", "pi/2"]
    assert [i.operation.params for i in first.data] == [i.operation.params for i in second.data]
    assert first.data[0].operation.params == [np.pi / 2]
