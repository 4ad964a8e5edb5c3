"""OpenQASM 2.0 interchange: export (:func:`to_qasm`) and import (:func:`from_qasm`).

The paper lists "export Qutes code to ... QASM" as a roadmap item; this
module implements both directions of that interoperability path:

* :func:`to_qasm` serialises every circuit the Qutes front-end can produce.
  Gates without a direct OpenQASM 2.0 counterpart (multi-controlled gates,
  explicit unitaries, ``initialize``) are first lowered through
  :func:`repro.qsim.transpiler.decompose`; anything still not expressible
  raises :class:`~repro.qsim.exceptions.CircuitError`.  Register names that
  are not valid OpenQASM identifiers (reserved words, uppercase first
  letter, non-identifier characters, qreg/creg name collisions) are
  sanitised so the emitted program always re-parses.

* :func:`from_qasm` / :func:`from_qasm_file` parse an OpenQASM 2.0 *or*
  OpenQASM 3 (subset) program into a
  :class:`~repro.qsim.circuit.QuantumCircuit` via a hand-written scanner
  and recursive-descent parser; a plain one-line gate call or ``measure``
  is read from one regex match instead, and the full parser re-reads any
  statement that match cannot settle.  The 2.0 subset covers the header,
  ``include "qelib1.inc"``, register declarations, the qelib1 gate set,
  parameter expressions, user ``gate`` definitions (inlined at the call
  site), ``measure``/``reset``/``barrier``, register broadcast and
  classically-conditioned operations (``if (c == n) qop;``).  An
  ``OPENQASM 3;`` header switches the same machinery into QASM3 mode,
  adding ``qubit[n]``/``bit[n]`` declarations,
  ``include "stdgates.inc"``, ``if (c == n) { ... }`` blocks,
  ``c = measure q;`` assignment measurement and ``ctrl @`` gate
  modifiers.  ``opaque`` declarations and QASM3 features outside the
  subset raise :class:`~repro.qsim.exceptions.QasmError` with a clear
  unsupported-feature message; every syntax or semantic error names the
  1-based source line and column.  See ``docs/qasm.md`` for the guide.
"""

from __future__ import annotations

import math
import os
import re
from collections import deque
from typing import (
    Callable, Deque, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union,
)

from .circuit import CircuitInstruction, QuantumCircuit, SourceSpan
from .exceptions import CircuitError, QasmError
from .gates import GATE_REGISTRY
from .instruction import (
    Barrier,
    ControlledGate,
    Gate,
    Initialize,
    Measure,
    Reset,
    mcp_gate,
    mcx_gate,
    mcz_gate,
)
from .registers import ClassicalRegister, Clbit, QuantumRegister, Qubit

__all__ = ["to_qasm", "exportable", "from_qasm", "from_qasm_file"]

#: registry gates OpenQASM 2.0's qelib1 has no gate for: :func:`to_qasm`
#: sends them to lowering and :func:`from_qasm` does not know them
_NOT_IN_QELIB1 = frozenset({"iswap", "ryy"})
#: the registry gates :func:`to_qasm` writes under their own name
_QASM2_GATES = frozenset(GATE_REGISTRY) - _NOT_IN_QELIB1


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def to_qasm(circuit: QuantumCircuit) -> str:
    """Serialise *circuit* to an OpenQASM 2.0 program string.

    The program is :func:`exportable` of *circuit*, and every parameter is
    written as the shortest text that reads back as the same double, so
    ``from_qasm(to_qasm(c))`` runs the gates, operands, conditions and
    parameters of ``exportable(c)`` bit for bit (register names may be
    sanitised).
    """
    target = exportable(circuit)
    names = _sanitize_register_names(target)
    lines: List[str] = ["OPENQASM 2.0;", 'include "qelib1.inc";']
    for qreg in target.qregs:
        lines.append(f"qreg {names[qreg]}[{qreg.size}];")
    for creg in target.cregs:
        lines.append(f"creg {names[creg]}[{creg.size}];")

    for instr in target.data:
        op = instr.operation
        qubit_refs = [f"{names[q.register]}[{q.index}]" for q in instr.qubits]
        prefix = ""
        if instr.condition is not None:
            creg, value = instr.condition
            prefix = f"if({names[creg]}=={value}) "
        if isinstance(op, Barrier):
            lines.append(f"barrier {', '.join(qubit_refs)};")
            continue
        if isinstance(op, Measure):
            clbit = instr.clbits[0]
            lines.append(
                f"{prefix}measure {qubit_refs[0]} -> {names[clbit.register]}[{clbit.index}];"
            )
            continue
        if isinstance(op, Reset):
            lines.append(f"{prefix}reset {qubit_refs[0]};")
            continue
        if op.name in _QASM2_GATES:
            call = op.name
            if GATE_REGISTRY[op.name].num_params:
                call += f"({', '.join(_format_param(p) for p in op.params)})"
            lines.append(f"{prefix}{call} {', '.join(qubit_refs)};")
            continue
        raise CircuitError(f"instruction {op.name!r} has no OpenQASM 2.0 form")
    return "\n".join(lines) + "\n"


def exportable(circuit: QuantumCircuit) -> QuantumCircuit:
    """The circuit :func:`to_qasm` writes: *circuit* itself, or its lowering
    when it holds an instruction with no OpenQASM 2.0 form;
    :class:`CircuitError` if lowering leaves one."""
    from .transpiler import decompose  # local import avoids a module cycle

    if not _needs_lowering(circuit):
        return circuit
    target = decompose(circuit)
    if _needs_lowering(target):
        raise CircuitError("circuit contains instructions not expressible in OpenQASM 2.0")
    return target


def _needs_lowering(circuit: QuantumCircuit) -> bool:
    for instr in circuit.data:
        op = instr.operation
        if isinstance(op, (Barrier, Measure, Reset)):
            continue
        if isinstance(op, Initialize):
            return True
        if op.name not in _QASM2_GATES:
            return True
    return False


def _format_param(value: float) -> str:
    # the shortest text that reads back as the same double
    return repr(float(value))


#: identifiers an emitted register must never shadow: OpenQASM 2.0 keywords,
#: the builtin ``U``/``CX``/``pi``, and every gate name qelib1 brings in
_QASM2_RESERVED = frozenset(
    {
        "OPENQASM",
        "include",
        "opaque",
        "barrier",
        "measure",
        "reset",
        "qreg",
        "creg",
        "gate",
        "if",
        "pi",
        "U",
        "CX",
        "sin",
        "cos",
        "tan",
        "exp",
        "ln",
        "sqrt",
    }
)


def _sanitize_register_names(circuit: QuantumCircuit) -> Dict[object, str]:
    """Map every register to a valid, unique OpenQASM 2.0 identifier.

    OpenQASM 2.0 identifiers must match ``[a-z][A-Za-z0-9_]*`` and qregs and
    cregs share a single namespace, while :class:`QuantumCircuit` is far more
    permissive (uppercase names, reserved words, a qreg and a creg with the
    same name).  Valid unique names pass through unchanged.
    """
    reserved = _QASM2_RESERVED | set(_qelib1_table())
    mapping: Dict[object, str] = {}
    used: set = set()
    for reg in list(circuit.qregs) + list(circuit.cregs):
        # ASCII-only: QASM2 identifiers are [a-z][A-Za-z0-9_]*, so unicode
        # word characters must be replaced, not passed through
        name = re.sub(r"[^A-Za-z0-9_]", "_", reg.name)
        if re.match(r"[A-Z]", name):
            name = name[0].lower() + name[1:]
        if not re.match(r"[a-z]", name):
            name = "r" + name
        if name in reserved:
            name += "_reg"
        if name in used:
            i = 0
            while f"{name}{i}" in used:
                i += 1
            name = f"{name}{i}"
        used.add(name)
        mapping[reg] = name
    return mapping


# ---------------------------------------------------------------------------
# Import: scanner
# ---------------------------------------------------------------------------

class _Token(NamedTuple):
    type: str          # 'id' | 'int' | 'real' | 'string' | symbol | 'eof'
    value: object
    line: int
    column: int


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>//[^\n]*)
  | (?P<newline>\n)
  | (?P<blockcomment>/\*[^*]*\*+(?:[^/*][^*]*\*+)*/)
  | (?P<opencomment>/\*)
  | (?P<real>(\d+\.\d*|\.\d+)([eE][+-]?\d+)?|\d+[eE][+-]?\d+)
  | (?P<int>\d+)
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"[^"\n]*")
  | (?P<badstring>"[^"\n]*)
  | (?P<symbol>->|==|[;,()\[\]{}+\-*/^@=])
    """,
    re.VERBOSE,
)

#: blanks and comments before a statement; OpenQASM 3 adds ``/* ... */``
_BLANK_RE = re.compile(r"(?:[ \t\r\n]+|//[^\n]*)*")
_BLANK3_RE = re.compile(r"(?:[ \t\r\n]+|//[^\n]*|/\*[^*]*\*+(?:[^/*][^*]*\*+)*/)*")
_BLOCK_COMMENT_ERROR = "block comments are OpenQASM 3 only (use '//' in OpenQASM 2.0)"

# The statement reader: one regex match per statement, on one line without
# comments.  The first word picks the form; each pattern below is matched
# from the end of that word (``_ASSIGNMENT_RE`` from its start).  An ``arg``
# is ``reg`` or ``reg[i]``; params may nest one level of parentheses.
_ID = r"[A-Za-z_][A-Za-z0-9_]*"
_ARG = rf"{_ID}(?:[ \t]*\[[ \t]*[0-9]{{1,9}}[ \t]*\])?"
_ARGS = rf"{_ARG}(?:[ \t]*,[ \t]*{_ARG})*"
_TEXT = r"[^()\n;/]*(?:/(?!/)[^()\n;/]*)*"    # no parentheses, comment, newline or ';'
_SIZE = r"[ \t]*\[[ \t]*(?P<size>[0-9]{1,9})[ \t]*\][ \t]*"
_WORD_RE = re.compile(_ID)
_HEADER_RE = re.compile(r"OPENQASM[ \t]+(?P<version>2\.0|3(?:\.0)?)[ \t]*;")
_INCLUDE_RE = re.compile(r'[ \t]*(?P<file>"[^"\n]*")[ \t]*;')
_REG_RE = re.compile(rf"[ \t]*(?P<name>{_ID}){_SIZE};")              # qreg / creg
_QUBIT_RE = re.compile(rf"(?:{_SIZE}|[ \t]+)(?P<name>{_ID})[ \t]*;")    # qubit / bit
_CALL_RE = re.compile(
    rf"(?:[ \t]*\((?P<params>{_TEXT}(?:\({_TEXT}\){_TEXT})*)\)[ \t]*|[ \t]+)(?P<args>{_ARGS})[ \t]*;"
)
_MEASURE_RE = re.compile(rf"[ \t]+(?P<source>{_ARG})[ \t]*->[ \t]*(?P<target>{_ARG})[ \t]*;")
_ASSIGNMENT_RE = re.compile(rf"(?P<target>{_ARG})[ \t]*=[ \t]*measure[ \t]+(?P<source>{_ARG})[ \t]*;")
_OPERANDS_RE = re.compile(rf"[ \t]*(?P<args>{_ARGS})[ \t]*;")         # reset / barrier
_CTRL_RE = re.compile(r"[ \t]*@[ \t]*(?P<more>(?:ctrl[ \t]*@[ \t]*)*)")
_CONDITION_RE = re.compile(
    rf"[ \t]*\([ \t]*(?P<creg>{_ID})[ \t]*==[ \t]*(?P<value>[0-9]{{1,18}})[ \t]*\)"
)
_ARG_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:[ \t]*\[[ \t]*([0-9]+)[ \t]*\])?")


def _digits(text: str) -> Optional[int]:
    """A run of decimal digits as an int, or None past Python's limit on
    int-string conversion (4300 digits by default)."""
    try:
        return int(text)
    except ValueError:
        return None


#: a parameter that is one numeric literal, read with ``float()``
_LITERAL_RE = re.compile(
    r"[ \t]*[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?[ \t]*"
)


# ---------------------------------------------------------------------------
# Import: gate table
# ---------------------------------------------------------------------------

class _NativeGate(NamedTuple):
    """A QASM gate that maps directly onto the registry gate *name*."""

    name: str
    num_params: int
    num_qubits: int
    drop_params: bool = False

    def build(self, params: Sequence[float]) -> Gate:
        return Gate(self.name, self.num_qubits, [] if self.drop_params else list(params))


class _MacroGate(NamedTuple):
    """A ``gate`` definition, inlined statement by statement at the call site."""

    name: str
    params: Tuple[str, ...]
    qubits: Tuple[str, ...]
    body: Tuple[tuple, ...]    # ('gate', name, param_exprs, qubit_names, loc) | ('barrier', names, loc)
    size: int                  # total instructions one call expands to

    @property
    def num_params(self) -> int:
        return len(self.params)

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)


def _gate_size(spec) -> int:
    """Instructions one call to *spec* expands to (natives count as one)."""
    return spec.size if isinstance(spec, _MacroGate) else 1


def _controlled_gate(base: Gate, num_controls: int) -> Gate:
    """The registry gate realising ``ctrl @``x*num_controls* applied to *base*.

    Combinations with a dedicated registry gate (``ctrl @ x`` -> ``cx``,
    ``ctrl @ ctrl @ x`` -> ``ccx``, ``ctrl @ swap`` -> ``cswap``, ...) map
    onto it; higher control counts of x/z/p use the multi-controlled
    helpers; anything else becomes a generic :class:`ControlledGate`.
    """
    name = "c" * num_controls + base.name
    spec = GATE_REGISTRY.get(name)
    if spec is not None:
        return Gate(name, spec.num_qubits, list(base.params))
    if base.name == "x" and not base.params:
        return mcx_gate(num_controls)
    if base.name == "z" and not base.params:
        return mcz_gate(num_controls)
    if base.name == "p":
        return mcp_gate(base.params[0], num_controls)
    return ControlledGate(base, num_controls)


#: qelib1 gates with a registry counterpart (name -> spec): every gate
#: :func:`to_qasm` writes, plus the qelib1 spellings ``u1``/``cu1``/``u`` of
#: ``p``/``cp``/``u3`` and ``u0``, an identity-length marker whose duration
#: parameter is dropped
_QELIB1_NATIVE: Dict[str, _NativeGate] = {
    name: _NativeGate(name, spec.num_params, spec.num_qubits)
    for name, spec in GATE_REGISTRY.items()
    if name in _QASM2_GATES
}
_QELIB1_NATIVE.update(
    u1=_QELIB1_NATIVE["p"],
    cu1=_QELIB1_NATIVE["cp"],
    u=_QELIB1_NATIVE["u3"],
    u0=_NativeGate("id", 1, 1, drop_params=True),
)

#: composite qelib1 gates without a registry counterpart, defined here in
#: QASM itself and parsed with the same machinery as user ``gate`` statements
#: (matrices match the qiskit qelib1.inc definitions, up to global phase)
_QELIB1_MACRO_SRC = """
gate cu3(theta, phi, lambda) c, t {
  p((lambda + phi) / 2) c;
  p((lambda - phi) / 2) t;
  cx c, t;
  u3(-theta / 2, 0, -(phi + lambda) / 2) t;
  cx c, t;
  u3(theta / 2, phi, 0) t;
}
gate sxdg a { s a; h a; s a; }
gate csx c, t { h t; cu1(pi / 2) c, t; h t; }
gate cu(theta, phi, lambda, gamma) c, t {
  p(gamma) c;
  p((lambda + phi) / 2) c;
  p((lambda - phi) / 2) t;
  cx c, t;
  u3(-theta / 2, 0, -(phi + lambda) / 2) t;
  cx c, t;
  u3(theta / 2, phi, 0) t;
}
"""

#: lazily-built full qelib1 gate table (natives + parsed macros); macro
#: entries are immutable NamedTuples, so one table serves every parse --
#: and it is the single source of qelib1 names for the sanitizer and the
#: missing-include hint, so adding a macro above cannot leave them stale
_QELIB1_TABLE: Optional[Dict[str, object]] = None


def _qelib1_table() -> Dict[str, object]:
    global _QELIB1_TABLE
    if _QELIB1_TABLE is None:
        table: Dict[str, object] = dict(_QELIB1_NATIVE)
        macro_parser = _QasmParser(_QELIB1_MACRO_SRC)
        macro_parser._gates = table
        while macro_parser._peek().type != "eof":
            macro_parser._parse_gate_definition()
        _QELIB1_TABLE = table
    return _QELIB1_TABLE

#: parse-time ceiling on declared register sizes: far beyond any engine's
#: reach, but small enough that a typo'd size raises a positioned QasmError
#: instead of exhausting memory allocating bit objects
_MAX_REGISTER_SIZE = 100_000

#: statement keywords that must not name a gate — a definition would parse
#: but its call site would be intercepted by the statement dispatcher
_STATEMENT_KEYWORDS = frozenset(
    {
        "OPENQASM", "include", "qreg", "creg", "gate", "opaque", "if",
        "measure", "reset", "barrier", "qubit", "bit", "ctrl",
    }
)

#: OpenQASM 3 constructs deliberately outside the supported subset; naming
#: them explicitly turns "unknown gate 'for'" into an actionable error
_QASM3_UNSUPPORTED = frozenset(
    {
        "for", "while", "def", "return", "input", "output", "const", "let",
        "array", "angle", "float", "int", "uint", "bool", "complex",
        "duration", "stretch", "box", "delay", "defcal", "defcalgrammar",
        "cal", "extern", "switch", "case", "default", "break", "continue",
        "end", "pragma", "gphase", "negctrl", "inv", "pow",
    }
)

#: nesting ceilings keeping pathological inputs from blowing the Python
#: stack with a raw RecursionError instead of a positioned QasmError
_MAX_EXPR_DEPTH = 64
_MAX_GATE_EXPANSION_DEPTH = 128

#: ceiling on the total number of instructions gate calls may expand to;
#: chained doubling macros reach astronomic sizes in a few lines, so every
#: macro carries its precomputed expansion size and bombs are rejected
#: before any expansion work happens
_MAX_EXPANDED_INSTRUCTIONS = 1_000_000

_EXPR_FUNCTIONS: Dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "ln": math.log,
    "sqrt": math.sqrt,
}


# ---------------------------------------------------------------------------
# Import: recursive-descent parser
# ---------------------------------------------------------------------------

class _QasmParser:
    """One-pass recursive-descent parser building a :class:`QuantumCircuit`."""

    def __init__(self, source: str, name: str = "from_qasm", filename: Optional[str] = None):
        # the scanner reads a statement's tokens from ``_offset`` (up to
        # ``_end``) when the parser first looks at it; ``_buffer`` holds
        # the ones not consumed yet
        self._source = source
        self._offset = 0
        self._end = len(source)
        self._line, self._line_start = 1, 0
        self._buffer: Deque[_Token] = deque()
        #: (operand list text, quantum?) -> its bits per operand
        self._resolved: Dict[Tuple[str, bool], List[List]] = {}
        #: parameter text -> its value, or None if it does not evaluate: a
        #: constant expression's value depends on its text alone
        self._params: Dict[str, Optional[float]] = {}
        self._filename = filename
        self.circuit = QuantumCircuit(name=name)
        self._qregs: Dict[str, QuantumRegister] = {}
        self._cregs: Dict[str, ClassicalRegister] = {}
        self._gates: Dict[str, Union[_NativeGate, _MacroGate]] = {
            "U": _QELIB1_NATIVE["u3"],
            "CX": _QELIB1_NATIVE["cx"],
        }
        self._included_qelib1 = False
        self._expr_depth = 0
        self._expanded_ops = 0
        self._set_version(2)
        #: ``(line, column)`` of the first block comment; one before or
        #: inside the header is legal only if the header says 3
        self._comment: Optional[Tuple[int, int]] = None
        #: the ``(creg, value)`` condition of the enclosing ``if``, stamped
        #: onto every instruction appended while it is set
        self._condition: Optional[Tuple[ClassicalRegister, int]] = None

    def _set_version(self, version: int) -> None:
        """Select the dialect: its blank rule and its statement readers."""
        self._version = version
        self._blank = _BLANK3_RE if version >= 3 else _BLANK_RE
        self._readers, self._conditioned = _READERS[version >= 3]

    # -- token plumbing -----------------------------------------------------

    def _fill(self) -> None:
        """Scan the rest of the statement onto the buffer: the tokens up to the
        next ``;``, ``{`` or ``}``, or ``eof`` at ``_end``."""
        source, end, append = self._source, self._end, self._buffer.append
        while self._offset < end:
            pos = self._offset
            match = _TOKEN_RE.match(source, pos, end)
            column = pos - self._line_start + 1
            if match is None:
                raise QasmError(f"unexpected character {source[pos]!r}", self._line, column)
            self._offset = match.end()
            kind = match.lastgroup
            if kind == "newline":
                self._line += 1
                self._line_start = self._offset
            elif kind == "real":
                append(_Token("real", float(match.group()), self._line, column))
            elif kind == "int":
                value = _digits(match.group())
                if value is None:
                    raise QasmError(
                        f"integer literal of {match.end() - pos} digits is too long",
                        self._line,
                        column,
                    )
                append(_Token("int", value, self._line, column))
            elif kind == "id":
                append(_Token("id", match.group(), self._line, column))
            elif kind == "string":
                append(_Token("string", match.group()[1:-1], self._line, column))
            elif kind == "badstring":
                raise QasmError("unterminated string", self._line, column)
            elif kind == "symbol":
                text = match.group()
                append(_Token(text, text, self._line, column))
                if text in (";", "{", "}"):
                    return
            elif kind in ("blockcomment", "opencomment"):
                if self._version < 3:
                    raise QasmError(_BLOCK_COMMENT_ERROR, self._line, column)
                if kind == "opencomment":
                    raise QasmError("unterminated block comment", self._line, column)
                if self._comment is None:
                    self._comment = (self._line, column)
                newlines = source.count("\n", pos, self._offset)
                if newlines:
                    self._line += newlines
                    self._line_start = source.rindex("\n", pos, self._offset) + 1
        append(_Token("eof", None, self._line, end - self._line_start + 1))

    def _peek(self, ahead: int = 0) -> _Token:
        while len(self._buffer) <= ahead:
            self._fill()
        return self._buffer[ahead]

    def _advance(self) -> _Token:
        # past the end, scanning again gives the same eof token
        if not self._buffer:
            self._fill()
        return self._buffer.popleft()

    def _error(self, message: str, token: Optional[_Token] = None) -> QasmError:
        token = token or self._peek()
        if token.type == "eof":
            message = f"unexpected end of file: {message}"
        return QasmError(message, token.line, token.column)

    def _expect(self, token_type: str, what: Optional[str] = None) -> _Token:
        token = self._advance()
        if token.type != token_type:
            expected = what or f"'{token_type}'"
            raise self._error(f"expected {expected}, found {self._describe(token)}", token)
        return token

    @staticmethod
    def _describe(token: _Token) -> str:
        if token.type == "eof":
            return "end of file"
        return f"{token.value!r}"

    def _span(self, loc: Tuple[int, int]) -> SourceSpan:
        """The :class:`SourceSpan` for a ``(line, column)`` statement position."""
        return SourceSpan(loc[0], loc[1], self._filename)

    def _parse_list(self, item: Callable[[], object]) -> list:
        """``item (',' item)*``."""
        items = [item()]
        while self._peek().type == ",":
            self._advance()
            items.append(item())
        return items

    def _parse_parenthesized(self, item: Callable[[], object]) -> list:
        """An optional ``'(' [item (',' item)*] ')'``; no parentheses is ``[]``."""
        if self._peek().type != "(":
            return []
        self._advance()
        items = [] if self._peek().type == ")" else self._parse_list(item)
        self._expect(")")
        return items

    # -- program ------------------------------------------------------------

    def parse(self) -> QuantumCircuit:
        # a block comment before or inside the header is legal if it says 3
        start = self._skip_blank(0)
        if self._source.startswith("/*", start):
            self._comment = self._loc(start)
            start = self._skip_blank(start, _BLANK3_RE)
        if not self._read_header(start):
            self._offset = start
            self._version = 3    # scan the header's comments; its version decides
            self._parse_header()
        if self._comment is not None and self._version < 3:
            raise QasmError(_BLOCK_COMMENT_ERROR, *self._comment)
        while True:
            start = self._skip_blank(self._offset)
            if start == self._end:
                return self.circuit
            line, line_start = self._line, self._line_start
            if not self._read(start, self._readers):
                self._offset, self._line, self._line_start = start, line, line_start
                self._parse_statement()

    def _skip_blank(self, pos: int, blank: "Optional[re.Pattern[str]]" = None) -> int:
        """The offset of the first non-blank at or after *pos*, counting lines."""
        source = self._source
        start = (blank or self._blank).match(source, pos).end()
        newlines = source.count("\n", pos, start)
        if newlines:
            self._line += newlines
            self._line_start = source.rindex("\n", pos, start) + 1
        return start

    def _loc(self, pos: int) -> Tuple[int, int]:
        """``(line, column)`` of *pos*, a position on the current line."""
        return self._line, pos - self._line_start + 1

    # -- the statement reader -------------------------------------------------
    #
    # Every statement is first read from one regex match, picked by its first
    # word (``_READERS``), and handed to the tail the full parser ends in, so
    # the checks there (arity, broadcast, duplicate qubits, register sizes,
    # includes) raise the same errors on both paths.  Anything else the match
    # cannot settle -- an unknown register or gate, an index out of range, a
    # keyword in the wrong place, a parameter that does not evaluate to a
    # finite float -- is a miss: the reader returns False having appended
    # nothing, and the full parser re-reads the statement from its start and
    # raises its positioned error, so a miss changes speed, never the result.

    def _read(self, start: int, readers: Dict[str, Optional[Callable]]) -> bool:
        """Read the statement at *start* with the reader its first word picks."""
        word = _WORD_RE.match(self._source, start)
        if word is None:
            return False
        reader = readers.get(word.group(), _QasmParser._read_call)
        return reader is not None and reader(self, word)

    def _read_header(self, start: int) -> bool:
        match = _HEADER_RE.match(self._source, start)
        if match is None:
            return False
        self._set_version(2 if match["version"] == "2.0" else 3)
        self._offset = match.end()
        return True

    def _read_include(self, word: "re.Match[str]") -> bool:
        match = _INCLUDE_RE.match(self._source, word.end())
        if match is None:
            return False
        self._include(match["file"], self._loc(match.start("file")))
        self._offset = match.end()
        return True

    def _read_register(self, word: "re.Match[str]") -> bool:
        """``qreg name[n];`` / ``creg name[n];``, or ``qubit[n] name;`` /
        ``bit[n] name;`` / ``qubit name;`` / ``bit name;``."""
        kind = word.group()
        pattern = _REG_RE if kind in ("qreg", "creg") else _QUBIT_RE
        match = pattern.match(self._source, word.end())
        if match is None:
            return False
        size = match["size"]
        self._declare(
            kind, match["name"], self._loc(word.start()), self._loc(match.start("name")),
            int(size) if size else 1, self._loc(match.start("size")) if size else None,
        )
        self._offset = match.end()
        return True

    def _read_if(self, word: "re.Match[str]") -> bool:
        """``if (c == n) op;``, or in OpenQASM 3 ``if (c == n) { op; ... }``."""
        match = _CONDITION_RE.match(self._source, word.end())
        if match is None:
            return False
        register = self._cregs.get(match["creg"])
        value = int(match["value"])
        if register is None or value.bit_length() > register.size:
            return False
        start = self._skip_blank(match.end())
        self._condition = (register, value)
        try:
            if self._version >= 3 and self._source.startswith("{", start):
                return self._read_block(start + 1)
            return self._read(start, self._conditioned)
        finally:
            self._condition = None

    def _read_block(self, pos: int) -> bool:
        """The statements of an ``if`` block up to its ``}``.  A miss inside
        takes back what the block appended, so the full parser re-reads the
        whole ``if`` statement."""
        data, source = self.circuit.data, self._source
        mark, expanded = len(data), self._expanded_ops
        while True:
            pos = self._skip_blank(pos)
            if source.startswith("}", pos):
                self._offset = pos + 1
                return True
            if not self._read(pos, self._conditioned):
                del data[mark:]
                self._expanded_ops = expanded
                return False
            pos = self._offset

    def _read_measure(self, word: "re.Match[str]") -> bool:
        """``measure a -> b;``."""
        match = _MEASURE_RE.match(self._source, word.end())
        return match is not None and self._read_measurement(match, word.start())

    def _read_assignment(self, word: "re.Match[str]") -> bool:
        """OpenQASM 3 ``b = measure a;``."""
        match = _ASSIGNMENT_RE.match(self._source, word.start())
        return match is not None and self._read_measurement(match, word.start())

    def _read_measurement(self, match: "re.Match[str]", start: int) -> bool:
        sources = self._plain_arguments(match["source"])
        targets = self._plain_arguments(match["target"], False)
        if sources is None or targets is None:
            return False
        self._emit_measure(sources[0], targets[0], self._loc(start))
        self._offset = match.end()
        return True

    def _read_reset(self, word: "re.Match[str]") -> bool:
        match = _OPERANDS_RE.match(self._source, word.end())
        arguments = None if match is None else self._plain_arguments(match["args"])
        if arguments is None or len(arguments) != 1:
            return False
        self._emit_reset(arguments[0], self._loc(word.start()))
        self._offset = match.end()
        return True

    def _read_barrier(self, word: "re.Match[str]") -> bool:
        match = _OPERANDS_RE.match(self._source, word.end())
        arguments = None if match is None else self._plain_arguments(match["args"])
        if arguments is None:
            return False
        self._append_barrier([q for arg in arguments for q in arg], self._span(self._loc(word.start())))
        self._offset = match.end()
        return True

    def _read_ctrl(self, word: "re.Match[str]") -> bool:
        """OpenQASM 3 ``ctrl @ [ctrl @ ...] name args;``."""
        match = _CTRL_RE.match(self._source, word.end())
        name = None if match is None else _WORD_RE.match(self._source, match.end())
        return name is not None and self._read_call(name, 1 + match["more"].count("@"))

    def _read_call(self, word: "re.Match[str]", num_controls: int = 0) -> bool:
        """``name[(params)] args;``; in OpenQASM 3 a word that starts no gate
        call may start an assignment measurement."""
        name = word.group()
        spec = self._gates.get(name)
        match = None if spec is None else _CALL_RE.match(self._source, word.end())
        if match is None:
            return not num_controls and self._version >= 3 and self._read_assignment(word)
        if num_controls and not isinstance(spec, _NativeGate):
            return False
        params = [] if match["params"] is None else self._plain_params(match)
        arguments = self._plain_arguments(match["args"])
        if params is None or arguments is None:
            return False
        loc = (self._line, word.start() - self._line_start + 1)
        self._emit_gate_call(name, spec, params, arguments, loc, num_controls)
        self._offset = match.end()
        return True

    def _plain_arguments(self, text: str, quantum: bool = True) -> Optional[List[List]]:
        """The bits of each ``reg``/``reg[i]`` in the operand list *text*, or
        None if one does not resolve; registers are never redeclared, so a
        resolved text is memoised."""
        key = (text, quantum)
        arguments = self._resolved.get(key)
        if arguments is not None:
            return arguments
        registers = self._qregs if quantum else self._cregs
        arguments = []
        for name, index in _ARG_RE.findall(text):
            register = registers.get(name)
            if register is None:
                return None
            if not index:
                arguments.append(list(register))
            elif int(index) < register.size:    # at most 9 digits
                arguments.append([register[int(index)]])
            else:
                return None
        self._resolved[key] = arguments
        return arguments

    def _plain_params(self, match: "re.Match[str]") -> Optional[List[float]]:
        """The values of the parameter texts *match* read, or None if one
        does not evaluate to a finite float."""
        text = match["params"]
        if not text.strip():
            return []
        params = []
        start = match.start("params")
        for piece in text.split(","):
            if _LITERAL_RE.fullmatch(piece):
                value: Optional[float] = float(piece)
            elif piece in self._params:
                value = self._params[piece]
            else:
                value = self._params[piece] = self._evaluate_source(start, start + len(piece))
            if value is None or not math.isfinite(value):
                return None
            params.append(value)
            start += len(piece) + 1
        return params

    def _evaluate_source(self, start: int, end: int) -> Optional[float]:
        """The constant expression ``source[start:end]``, or None if it fails."""
        self._offset, self._end = start, end
        try:
            node = self._parse_expression(())
            return self._evaluate(node, {}) if self._peek().type == "eof" else None
        except QasmError:
            return None
        finally:
            self._end = len(self._source)
            self._buffer.clear()

    # -- the full parser --------------------------------------------------------

    def _parse_header(self) -> None:
        token = self._peek()
        if token.type != "id" or token.value != "OPENQASM":
            raise self._error("expected 'OPENQASM 2.0;' or 'OPENQASM 3;' header", token)
        self._advance()
        version = self._peek()
        if version.type not in ("real", "int"):
            raise self._error("expected a version number after 'OPENQASM'", version)
        self._advance()
        if float(version.value) == 2.0:
            self._set_version(2)
        elif float(version.value) == 3.0:
            self._set_version(3)
        else:
            raise self._error(
                f"unsupported OpenQASM version {version.value} "
                "(supported: 2.0 and 3)",
                version,
            )
        self._expect(";")

    def _parse_statement(self, conditioned: bool = False) -> None:
        """One statement; *conditioned* ones are in the scope of an ``if``.

        Only quantum operations may be conditioned: gate calls, ``measure``
        and ``reset`` (plus ``ctrl @`` calls and assignment measurement in
        QASM3 mode).  Declarations, includes, nested ``if`` and ``barrier``
        raise a positioned error.
        """
        token = self._peek()
        if token.type != "id":
            what = "a conditioned operation" if conditioned else "a statement"
            raise self._error(f"expected {what}, found {self._describe(token)}", token)
        keyword = token.value
        if keyword == "measure":
            self._parse_measure()
        elif keyword == "reset":
            self._parse_reset()
        elif self._version >= 3 and keyword == "ctrl":
            self._parse_gate_call(num_controls=self._parse_ctrl_modifiers())
        elif conditioned and keyword in _STATEMENT_KEYWORDS:
            raise self._error(
                f"{keyword!r} statements cannot be classically conditioned "
                "(only gate calls, measure and reset can)",
                token,
            )
        elif keyword == "include":
            self._parse_include()
        elif keyword in ("qreg", "creg", "qubit", "bit"):
            if self._version < 3 and keyword in ("qubit", "bit"):
                raise self._error(
                    f"'{keyword}' declarations require an 'OPENQASM 3;' header "
                    "(use qreg/creg in OpenQASM 2.0)",
                    token,
                )
            self._parse_register_decl()
        elif keyword == "gate":
            self._parse_gate_definition()
        elif keyword == "opaque":
            raise self._error(
                "unsupported feature: 'opaque' gate declarations have no simulable "
                "body; define the gate with a 'gate' block instead",
                token,
            )
        elif keyword == "if":
            self._parse_if()
        elif keyword == "barrier":
            self._parse_barrier()
        elif self._version >= 3 and keyword in _QASM3_UNSUPPORTED:
            raise self._error(
                f"unsupported OpenQASM 3 feature: {keyword!r} is outside the "
                "supported subset (see docs/qasm.md)",
                token,
            )
        elif self._version >= 3 and self._next_is_assignment():
            self._parse_v3_measure_assignment()
        else:
            self._parse_gate_call()

    def _parse_include(self) -> None:
        self._advance()
        filename = self._expect("string", "a quoted filename")
        self._expect(";")
        self._include(f'"{filename.value}"', (filename.line, filename.column))

    def _include(self, quoted: str, loc: Tuple[int, int]) -> None:
        """Bring in the gates of the ``"file"`` named by *quoted* at *loc*."""
        allowed = ('"qelib1.inc"', '"stdgates.inc"') if self._version >= 3 else ('"qelib1.inc"',)
        if quoted not in allowed:
            raise QasmError(
                f"unsupported include {quoted} (only {' or '.join(allowed)} is bundled)", *loc
            )
        if self._included_qelib1:
            return
        table = _qelib1_table()
        for gate_name in self._gates:
            # a user gate defined before the include would be silently
            # overwritten by update(); mirror the 'already defined' error
            # the parser raises for the opposite ordering
            if gate_name in table:
                raise QasmError(
                    f"gate {gate_name!r} is already defined "
                    '(put include "qelib1.inc" before gate definitions)',
                    *loc,
                )
        self._included_qelib1 = True
        self._gates.update(table)

    def _parse_register_decl(self) -> None:
        """``qreg name[n];`` / ``creg name[n];``, or OpenQASM 3 ``qubit[n] name;``
        / ``bit[n] name;`` (bare = size 1)."""
        kind = self._advance()
        qasm2 = kind.value in ("qreg", "creg")    # name[n], where QASM3 writes [n] name
        name = self._expect("id", "a register name") if qasm2 else None
        size: Optional[_Token] = None
        if qasm2 or self._peek().type == "[":
            self._expect("[")
            size = self._expect("int", "a register size")
            self._expect("]")
        name = name or self._expect("id", "a register name")
        self._expect(";")
        self._declare(
            kind.value, name.value, (kind.line, kind.column), (name.line, name.column),
            size.value if size else 1, (size.line, size.column) if size else None,
        )

    def _declare(self, kind: str, name: str, kind_loc: Tuple[int, int],
                 name_loc: Tuple[int, int], size: int,
                 size_loc: Optional[Tuple[int, int]]) -> None:
        """Add the register a read declaration names: the tail both parse paths share."""
        if name in self._qregs or name in self._cregs:
            raise QasmError(f"register {name!r} is already declared", *name_loc)
        if size <= 0:
            raise QasmError(f"register size must be positive, got {size}", *(size_loc or name_loc))
        if size > _MAX_REGISTER_SIZE:
            raise QasmError(
                f"register size {size} exceeds the supported maximum of {_MAX_REGISTER_SIZE}",
                *(size_loc or name_loc),
            )
        register: Union[QuantumRegister, ClassicalRegister]
        if kind in ("qreg", "qubit"):
            register = QuantumRegister(size, name)
            self._qregs[name] = register
        else:
            register = ClassicalRegister(size, name)
            self._cregs[name] = register
        self.circuit.add_register(register)
        self.circuit.register_spans[register] = self._span(kind_loc)

    # -- classical control flow ----------------------------------------------

    def _parse_if(self) -> None:
        """``if (creg == n) qop;`` (2.0) or ``if (creg == n) { ... }`` (3)."""
        self._advance()
        self._expect("(")
        name = self._expect("id", "a classical register name")
        register = self._cregs.get(name.value)
        if register is None:
            if name.value in self._qregs:
                raise self._error(
                    f"{name.value!r} is a quantum register; an 'if' condition "
                    "compares a classical register",
                    name,
                )
            raise self._error(f"undeclared classical register {name.value!r}", name)
        self._expect("==", "'=='")
        value = self._expect("int", "an integer comparison value")
        if not 0 <= value.value < 2 ** register.size:
            raise self._error(
                f"comparison value {value.value} does not fit in classical "
                f"register {name.value!r} of size {register.size}",
                value,
            )
        self._expect(")")
        self._condition = (register, value.value)
        try:
            if self._version >= 3 and self._peek().type == "{":
                self._advance()
                while self._peek().type != "}":
                    self._parse_statement(conditioned=True)
                self._expect("}")
            else:
                self._parse_statement(conditioned=True)
        finally:
            self._condition = None

    # -- gate definitions ---------------------------------------------------

    def _parse_gate_definition(self) -> None:
        self._advance()
        name = self._expect("id", "a gate name")
        if name.value in self._gates:
            raise self._error(f"gate {name.value!r} is already defined", name)
        if name.value in _STATEMENT_KEYWORDS or name.value == "pi":
            raise self._error(
                f"{name.value!r} cannot be used as a gate name", name
            )
        params: List[str] = self._parse_parenthesized(self._expect_param_name)
        qubits: List[str] = self._parse_list(
            lambda: self._expect("id", "a qubit argument name").value
        )
        if len(set(params)) != len(params) or len(set(qubits)) != len(qubits):
            raise self._error(f"duplicate argument names in gate {name.value!r}", name)
        self._expect("{")
        body: List[tuple] = []
        size = 0
        while self._peek().type != "}":
            statement = self._parse_gate_body_statement(name.value, params, qubits)
            body.append(statement)
            size += 1 if statement[0] == "barrier" else _gate_size(self._gates[statement[1]])
        self._expect("}")
        self._gates[name.value] = _MacroGate(
            name.value, tuple(params), tuple(qubits), tuple(body), size
        )

    def _expect_param_name(self) -> str:
        token = self._expect("id", "a parameter name")
        if token.value == "pi" or token.value in _EXPR_FUNCTIONS:
            # 'pi' would be silently shadowed by the constant in expression
            # evaluation; function names would fail confusingly at use
            raise self._error(
                f"{token.value!r} cannot be used as a parameter name", token
            )
        return token.value

    def _parse_gate_body_statement(
        self, gate_name: str, params: Sequence[str], qubits: Sequence[str]
    ) -> tuple:
        token = self._peek()
        if token.type != "id":
            raise self._error(
                f"expected a gate operation in the body of {gate_name!r}, "
                f"found {self._describe(token)}",
                token,
            )
        if token.value in ("measure", "reset", "if", "opaque", "gate"):
            raise self._error(
                f"{token.value!r} is not allowed inside a gate body "
                "(only gate calls and barriers are)",
                token,
            )
        if token.value == "barrier":
            self._advance()
            names = self._parse_list(lambda: self._expect_body_qubit(qubits))
            self._expect(";")
            return ("barrier", tuple(names), (token.line, token.column))
        call_name = self._advance()
        exprs = self._parse_parenthesized(lambda: self._parse_expression(params))
        names = self._parse_list(lambda: self._expect_body_qubit(qubits))
        self._expect(";")
        inner = self._gates.get(call_name.value)
        if inner is None:
            raise self._error(self._unknown_gate_message(call_name.value), call_name)
        # arity must be checked here: at expansion time the binding zips
        # formals against actuals and would silently drop extras
        if len(exprs) != inner.num_params:
            raise self._error(
                f"gate {call_name.value!r} expects {inner.num_params} parameter(s), "
                f"got {len(exprs)}",
                call_name,
            )
        if len(names) != inner.num_qubits:
            raise self._error(
                f"gate {call_name.value!r} expects {inner.num_qubits} qubit "
                f"argument(s), got {len(names)}",
                call_name,
            )
        return (
            "gate",
            call_name.value,
            tuple(exprs),
            tuple(names),
            (call_name.line, call_name.column),
        )

    def _expect_body_qubit(self, declared: Sequence[str]) -> str:
        token = self._expect("id", "a qubit argument name")
        if self._peek().type == "[":
            raise self._error("register indexing is not allowed inside a gate body")
        if token.value not in declared:
            raise self._error(f"undeclared qubit argument {token.value!r}", token)
        return token.value

    # -- quantum operations --------------------------------------------------

    def _parse_measure(self) -> None:
        keyword = self._advance()
        sources = self._parse_quantum_argument()
        self._expect("->", "'->'")
        targets = self._parse_classical_argument()
        self._expect(";")
        self._emit_measure(sources, targets, (keyword.line, keyword.column))

    def _emit_measure(
        self, sources: List[Qubit], targets: List[Clbit], loc: Tuple[int, int]
    ) -> None:
        if len(sources) != len(targets):
            raise QasmError(
                f"measure source and target sizes differ "
                f"({len(sources)} qubits vs {len(targets)} bits)",
                *loc,
            )
        span, condition, append = self._span(loc), self._condition, self.circuit.data.append
        for qubit, clbit in zip(sources, targets):
            append(CircuitInstruction(Measure(), (qubit,), (clbit,), span, condition))

    def _parse_v3_measure_assignment(self) -> None:
        """OpenQASM 3 assignment measurement: ``c = measure q;``."""
        start = self._peek()
        targets = self._parse_classical_argument()
        self._expect("=", "'='")
        keyword = self._expect("id", "'measure'")
        if keyword.value != "measure":
            raise self._error(
                "only 'measure' may appear on the right-hand side of an "
                f"assignment, found {self._describe(keyword)}",
                keyword,
            )
        sources = self._parse_quantum_argument()
        self._expect(";")
        self._emit_measure(sources, targets, (start.line, start.column))

    def _next_is_assignment(self) -> bool:
        """Lookahead: current id starts ``name = ...`` or ``name[i] = ...``."""
        if self._peek(1).type != "[":
            return self._peek(1).type == "="
        return (
            self._peek(2).type == "int"
            and self._peek(3).type == "]"
            and self._peek(4).type == "="
        )

    def _parse_reset(self) -> None:
        keyword = self._advance()
        qubits = self._parse_quantum_argument()
        self._expect(";")
        self._emit_reset(qubits, (keyword.line, keyword.column))

    def _emit_reset(self, qubits: List[Qubit], loc: Tuple[int, int]) -> None:
        span, condition, append = self._span(loc), self._condition, self.circuit.data.append
        for qubit in qubits:
            append(CircuitInstruction(Reset(), (qubit,), (), span, condition))

    def _parse_barrier(self) -> None:
        keyword = self._advance()
        qubits = [q for arg in self._parse_list(self._parse_quantum_argument) for q in arg]
        self._expect(";")
        self._append_barrier(qubits, self._span((keyword.line, keyword.column)))

    def _append_barrier(self, qubits: List[Qubit], span: SourceSpan) -> None:
        if len(set(qubits)) < len(qubits):
            raise QasmError("duplicate qubits in 'barrier' operands", span.line, span.column)
        self.circuit.data.append(CircuitInstruction(Barrier(len(qubits)), qubits, (), span))

    def _parse_ctrl_modifiers(self) -> int:
        """Consume a chain of ``ctrl @`` prefixes, returning its length."""
        num_controls = 0
        while self._peek().type == "id" and self._peek().value == "ctrl":
            self._advance()
            self._expect("@", "'@' after 'ctrl'")
            num_controls += 1
        return num_controls

    def _parse_gate_call(self, num_controls: int = 0) -> None:
        name = self._advance()
        spec = self._gates.get(name.value)
        if spec is None:
            raise self._error(self._unknown_gate_message(name.value), name)
        if num_controls and not isinstance(spec, _NativeGate):
            raise self._error(
                f"'ctrl @' cannot be applied to user-defined gate {name.value!r} "
                "(only standard-library gates can be controlled)",
                name,
            )
        params = self._parse_parenthesized(lambda: self._evaluate(self._parse_expression(()), {}))
        arguments = self._parse_list(self._parse_quantum_argument)
        self._expect(";")
        self._emit_gate_call(
            name.value, spec, params, arguments, (name.line, name.column), num_controls
        )

    def _emit_gate_call(self, name: str, spec: Union[_NativeGate, _MacroGate], params: list,
                        arguments: List[List[Qubit]], loc: Tuple[int, int],
                        num_controls: int = 0) -> None:
        """Check a read gate call and append it: the tail both parse paths share."""
        if len(params) != spec.num_params:
            raise QasmError(
                f"gate {name!r} expects {spec.num_params} parameter(s), got {len(params)}",
                *loc,
            )
        expected_qubits = spec.num_qubits + num_controls
        if len(arguments) != expected_qubits:
            call = "ctrl @ " * num_controls + name
            raise QasmError(
                f"gate {call!r} expects {expected_qubits} qubit argument(s), "
                f"got {len(arguments)}",
                *loc,
            )
        # register broadcast: every register-sized argument must have the same
        # length; single qubits are repeated across the broadcast
        repeat = max(map(len, arguments))
        if repeat > 1:
            widths = set(map(len, arguments)) - {1}
            if len(widths) > 1:
                raise QasmError(
                    f"mismatched register sizes in {name!r} broadcast: {sorted(widths)}", *loc
                )
        self._expanded_ops += _gate_size(spec) * repeat
        if self._expanded_ops > _MAX_EXPANDED_INSTRUCTIONS:
            raise QasmError(
                f"gate calls expand to more than {_MAX_EXPANDED_INSTRUCTIONS} instructions",
                *loc,
            )
        if repeat > 1:
            arguments = [arg * repeat if len(arg) == 1 else arg for arg in arguments]
        span = self._span(loc)
        try:
            if isinstance(spec, _NativeGate):
                self._append_gates(spec, params, zip(*arguments), span, num_controls)
            else:
                for qubits in zip(*arguments):
                    self._apply_gate(spec, params, qubits, span)
        except CircuitError as exc:
            raise QasmError(str(exc), *loc) from exc

    def _append_gates(self, spec: _NativeGate, params: Sequence[float],
                      operands: Iterable[Sequence[Qubit]], span: SourceSpan,
                      num_controls: int = 0) -> None:
        """Append one *spec* gate (under *num_controls* ``ctrl @``) on each
        qubit tuple of *operands*, each carrying *span* and the condition of
        the enclosing ``if``.  Of the checks :meth:`QuantumCircuit.append`
        makes, only the one for a repeated qubit can fail here: arities and
        conditions are checked where they are read."""
        # literals like 1e400 and overflowing +/-/* produce inf/nan without
        # raising; reject them here, where every gate application passes
        for value in params:
            if not math.isfinite(value):
                raise QasmError(f"non-finite gate parameter {value}", span.line, span.column)
        append, condition = self.circuit.data.append, self._condition
        for qubits in operands:
            gate = spec.build(params)
            if num_controls:
                gate = _controlled_gate(gate, num_controls)
            if len(qubits) > 1 and len(set(qubits)) < len(qubits):
                raise QasmError(f"duplicate qubits in {gate.name!r} operands", span.line, span.column)
            append(CircuitInstruction(gate, qubits, (), span, condition))

    def _apply_gate(
        self,
        spec: Union[_NativeGate, _MacroGate],
        params: Sequence[float],
        qubits: Sequence[Qubit],
        span: SourceSpan,
        depth: int = 0,
    ) -> None:
        """Append one call of *spec*; every instruction it expands to carries
        the call site's *span*."""
        if depth > _MAX_GATE_EXPANSION_DEPTH:
            raise QasmError(
                f"gate expansion exceeds the maximum nesting depth of "
                f"{_MAX_GATE_EXPANSION_DEPTH}",
                span.line, span.column,
            )
        if isinstance(spec, _NativeGate):
            # a condition on the call distributes over every expanded gate
            # (exact, since a gate body never writes the condition's register)
            self._append_gates(spec, params, (qubits,), span)
            return
        env = dict(zip(spec.params, params))
        binding = dict(zip(spec.qubits, qubits))
        for node in spec.body:
            if node[0] == "barrier":
                _, names, _loc = node
                self._append_barrier([binding[n] for n in names], span)
                continue
            _, call_name, exprs, names, _loc = node
            inner = self._gates[call_name]
            inner_params = [self._evaluate(expr, env) for expr in exprs]
            self._apply_gate(inner, inner_params, [binding[n] for n in names], span, depth + 1)

    def _unknown_gate_message(self, name: str) -> str:
        if not self._included_qelib1 and name in _qelib1_table():
            return (
                f"unknown gate {name!r} "
                "(did you forget 'include \"qelib1.inc\";'?)"
            )
        return f"unknown gate {name!r}"

    # -- arguments ------------------------------------------------------------

    def _parse_quantum_argument(self) -> List[Qubit]:
        return self._parse_argument(self._qregs, "quantum")

    def _parse_classical_argument(self) -> List[Clbit]:
        return self._parse_argument(self._cregs, "classical")

    def _parse_argument(self, registers: Dict[str, object], kind: str) -> List:
        name = self._expect("id", f"a {kind} register")
        register = registers.get(name.value)
        if register is None:
            other = self._cregs if kind == "quantum" else self._qregs
            if name.value in other:
                raise self._error(
                    f"{name.value!r} is a {'classical' if kind == 'quantum' else 'quantum'} "
                    f"register, but a {kind} argument is required",
                    name,
                )
            raise self._error(f"undeclared register {name.value!r}", name)
        if self._peek().type != "[":
            return list(register)
        self._advance()
        index = self._expect("int", "a bit index")
        self._expect("]")
        if not 0 <= index.value < register.size:
            raise self._error(
                f"index {index.value} is out of range for register "
                f"{name.value!r} of size {register.size}",
                index,
            )
        return [register[index.value]]

    # -- parameter expressions -------------------------------------------------
    #
    # expr   := term (('+' | '-') term)*
    # term   := factor (('*' | '/') factor)*
    # factor := ('-' | '+') factor | power
    # power  := atom ('^' factor)?
    # atom   := real | int | 'pi' | param | fn '(' expr ')' | '(' expr ')'
    #
    # Expressions are parsed to a small tuple AST so gate-body expressions can
    # be re-evaluated with each call's parameter binding.

    def _parse_expression(self, params: Sequence[str]) -> tuple:
        self._expr_depth += 1
        if self._expr_depth > _MAX_EXPR_DEPTH:
            raise self._error(
                f"parameter expression nesting exceeds the maximum depth "
                f"of {_MAX_EXPR_DEPTH}"
            )
        try:
            node = self._parse_term(params)
            while self._peek().type in ("+", "-"):
                op = self._advance()
                node = ("bin", op.type, node, self._parse_term(params), (op.line, op.column))
            return node
        finally:
            self._expr_depth -= 1

    def _parse_term(self, params: Sequence[str]) -> tuple:
        node = self._parse_factor(params)
        while self._peek().type in ("*", "/"):
            op = self._advance()
            node = ("bin", op.type, node, self._parse_factor(params), (op.line, op.column))
        return node

    def _parse_factor(self, params: Sequence[str]) -> tuple:
        # consume sign chains iteratively: '-----1' must not recurse
        negate = False
        while self._peek().type in ("+", "-"):
            if self._advance().type == "-":
                negate = not negate
        self._expr_depth += 1
        if self._expr_depth > _MAX_EXPR_DEPTH:
            # also guards '^' chains, whose right operands re-enter here
            raise self._error(
                f"parameter expression nesting exceeds the maximum depth "
                f"of {_MAX_EXPR_DEPTH}"
            )
        try:
            node = self._parse_power(params)
        finally:
            self._expr_depth -= 1
        return ("neg", node) if negate else node

    def _parse_power(self, params: Sequence[str]) -> tuple:
        node = self._parse_atom(params)
        if self._peek().type == "^":
            op = self._advance()
            node = ("bin", "^", node, self._parse_factor(params), (op.line, op.column))
        return node

    def _parse_atom(self, params: Sequence[str]) -> tuple:
        token = self._peek()
        if token.type in ("real", "int"):
            self._advance()
            try:
                return ("num", float(token.value))
            except OverflowError:  # an int literal past the float range
                raise self._error("integer literal too large for a parameter", token) from None
        if token.type == "(":
            self._advance()
            node = self._parse_expression(params)
            self._expect(")")
            return node
        if token.type == "id":
            self._advance()
            if token.value == "pi":
                return ("num", math.pi)
            if token.value in _EXPR_FUNCTIONS:
                self._expect("(")
                node = self._parse_expression(params)
                self._expect(")")
                return ("call", token.value, node, (token.line, token.column))
            if token.value in params:
                return ("param", token.value)
            raise self._error(
                f"unknown identifier {token.value!r} in parameter expression", token
            )
        raise self._error(
            f"expected a parameter expression, found {self._describe(token)}", token
        )

    def _evaluate(self, node: tuple, env: Dict[str, float]) -> float:
        # explicit post-order work stack: a 20000-term '1+1+...' chain builds
        # a left-deep AST iteratively, so evaluation must not recurse either
        work: List[Tuple[tuple, bool]] = [(node, False)]
        values: List[float] = []
        while work:
            current, ready = work.pop()
            kind = current[0]
            if kind == "num":
                values.append(current[1])
            elif kind == "param":
                values.append(env[current[1]])
            elif kind == "neg":
                if ready:
                    values.append(-values.pop())
                else:
                    work.append((current, True))
                    work.append((current[1], False))
            elif kind == "call":
                _, fn, inner, loc = current
                if ready:
                    value = values.pop()
                    try:
                        values.append(_EXPR_FUNCTIONS[fn](value))
                    except (ValueError, OverflowError) as exc:
                        raise QasmError(
                            f"invalid argument to {fn}(): {value}", *loc
                        ) from exc
                else:
                    work.append((current, True))
                    work.append((inner, False))
            else:
                _, op, left, right, loc = current
                if ready:
                    rhs = values.pop()
                    lhs = values.pop()
                    values.append(self._apply_binary(op, lhs, rhs, loc))
                else:
                    work.append((current, True))
                    work.append((right, False))
                    work.append((left, False))
        return values[0]

    @staticmethod
    def _apply_binary(op: str, lhs: float, rhs: float, loc: Tuple[int, int]) -> float:
        if op == "+":
            return lhs + rhs
        if op == "-":
            return lhs - rhs
        if op == "*":
            return lhs * rhs
        if op == "^":
            try:
                result = lhs ** rhs
            except (OverflowError, ZeroDivisionError) as exc:
                raise QasmError(f"cannot evaluate {lhs} ^ {rhs}", *loc) from exc
            if isinstance(result, complex):
                # e.g. (-2)^0.5 — gate parameters must stay real
                raise QasmError(f"{lhs} ^ {rhs} is not a real number", *loc)
            return result
        if rhs == 0:
            raise QasmError("division by zero in parameter expression", *loc)
        return lhs / rhs


def _reader_table(qasm3: bool, conditioned: bool) -> Dict[str, Optional[Callable]]:
    """First word -> its statement reader; None sends the statement to the
    full parser.  A word not in the table starts a gate call (or, in
    OpenQASM 3, an assignment measurement)."""
    parser = _QasmParser
    table: Dict[str, Optional[Callable]] = dict.fromkeys(_STATEMENT_KEYWORDS)
    if qasm3:
        table.update(dict.fromkeys(_QASM3_UNSUPPORTED), ctrl=parser._read_ctrl)
    table.update(measure=parser._read_measure, reset=parser._read_reset)
    if not conditioned:
        table.update(include=parser._read_include, qreg=parser._read_register,
                     creg=parser._read_register, barrier=parser._read_barrier)
        table["if"] = parser._read_if
        if qasm3:
            table.update(qubit=parser._read_register, bit=parser._read_register)
    return table


#: OpenQASM 3 or not -> the reader tables at top level and under an ``if``
_READERS = {qasm3: (_reader_table(qasm3, False), _reader_table(qasm3, True))
            for qasm3 in (False, True)}


# ---------------------------------------------------------------------------
# Import: public API
# ---------------------------------------------------------------------------

def from_qasm(
    source: str, name: str = "from_qasm", filename: Optional[str] = None
) -> QuantumCircuit:
    """Parse an OpenQASM 2.0 or OpenQASM 3 (subset) program string.

    The header selects the dialect: ``OPENQASM 2.0;`` gives the full 2.0
    subset including ``if (c == n) qop;`` conditionals, ``OPENQASM 3;``
    additionally enables ``qubit[n]``/``bit[n]`` declarations,
    ``include "stdgates.inc"``, ``if (c == n) { ... }`` blocks,
    ``c = measure q;`` and ``ctrl @`` gate modifiers.

    Raises :class:`~repro.qsim.exceptions.QasmError` (with the 1-based source
    line and column) for syntax errors, undeclared registers, out-of-range
    indices, unknown gates and unsupported features (``opaque``, QASM3
    constructs outside the subset, includes other than the bundled ones).
    See ``docs/qasm.md`` for the exact supported subset and the qelib1
    mapping table.

    Every appended instruction carries a
    :class:`~repro.qsim.circuit.SourceSpan` with its 1-based statement
    position (*filename*, when given, names the source in diagnostics), so
    the static analyzer (``docs/analysis.md``) can report ``file:line:col``.
    """
    if source.startswith("\ufeff"):
        source = source[1:]    # tolerate a UTF-8 BOM from Windows editors
    return _QasmParser(source, name=name, filename=filename).parse()


def from_qasm_file(path: Union[str, "os.PathLike"], name: Optional[str] = None) -> QuantumCircuit:
    """Parse the OpenQASM 2.0/3 file at *path* (circuit named after the file).

    A file that is not UTF-8 text raises :class:`QasmError` at its first
    undecodable byte, like any other source the parser cannot read.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            source = handle.read()
        except UnicodeDecodeError as exc:
            line = exc.object.count(b"\n", 0, exc.start) + 1
            column = exc.start - exc.object.rfind(b"\n", 0, exc.start)
            raise QasmError("not a UTF-8 text file", line, column) from None
    if name is None:
        name = os.path.splitext(os.path.basename(str(path)))[0] or "from_qasm"
    return from_qasm(source, name=name, filename=str(path))
