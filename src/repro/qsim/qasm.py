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
from typing import Callable, Deque, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .circuit import CircuitInstruction, QuantumCircuit, SourceSpan
from .exceptions import CircuitError, QasmError
from .gates import GATE_REGISTRY
from .instruction import (
    Barrier,
    ControlledGate,
    Gate,
    Initialize,
    Instruction,
    Measure,
    Reset,
    mcp_gate,
    mcx_gate,
    mcz_gate,
)
from .registers import ClassicalRegister, Clbit, QuantumRegister, Qubit

__all__ = ["to_qasm", "exported_circuit", "from_qasm", "from_qasm_file"]

#: registry gates OpenQASM 2.0's qelib1 has no gate for: :func:`to_qasm`
#: sends them to lowering and :func:`from_qasm` does not know them
_NOT_IN_QELIB1 = frozenset({"iswap", "ryy"})
#: the registry gates :func:`to_qasm` writes under their own name
_QASM2_GATES = frozenset(GATE_REGISTRY) - _NOT_IN_QELIB1


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def to_qasm(circuit: QuantumCircuit) -> str:
    """Serialise *circuit* to an OpenQASM 2.0 program string."""
    target = _lowered(circuit)
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


def _lowered(circuit: QuantumCircuit) -> QuantumCircuit:
    """*circuit*, or its lowering when it holds an instruction with no
    OpenQASM 2.0 form; :class:`CircuitError` if lowering leaves one."""
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
    return format(float(value), ".12g")


def exported_circuit(circuit: QuantumCircuit) -> QuantumCircuit:
    """``from_qasm(to_qasm(circuit))``, built without writing or parsing text.

    *circuit* is lowered as :func:`to_qasm` lowers it (raising the same
    :class:`CircuitError`), every gate parameter is snapped to the float
    its :func:`_format_param` text reads back as, and registers are renamed
    as :func:`to_qasm` names them, so the result runs float-for-float like
    the parse (it carries no source spans).
    """
    circuit = _lowered(circuit)
    names = _sanitize_register_names(circuit)
    out = QuantumCircuit(name="from_qasm")
    registers: Dict[object, object] = {}
    for old in circuit.qregs:
        registers[old] = QuantumRegister(old.size, names[old])
    for old in circuit.cregs:
        registers[old] = ClassicalRegister(old.size, names[old])
    for register in registers.values():
        out.add_register(register)
    for instr in circuit.data:
        op = instr.operation
        qubits = [registers[q.register][q.index] for q in instr.qubits]
        clbits = [registers[c.register][c.index] for c in instr.clbits]
        if isinstance(op, Barrier):
            copy: Instruction = Barrier(len(qubits))
        elif isinstance(op, Measure):
            copy = Measure()
        elif isinstance(op, Reset):
            copy = Reset()
        else:
            spec = GATE_REGISTRY[op.name]
            params = [float(_format_param(p)) for p in op.params] if spec.num_params else []
            copy = Gate(op.name, spec.num_qubits, params)
        condition = instr.condition
        if condition is not None:
            condition = (registers[condition[0]], condition[1])
        # the source circuit already validated these operands
        out.data.append(CircuitInstruction(copy, qubits, clbits, condition=condition))
    return out


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
  | (?P<real>(\d+\.\d*|\.\d+)([eE][+-]?\d+)?|\d+[eE][+-]?\d+)
  | (?P<int>\d+)
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"[^"\n]*")
  | (?P<badstring>"[^"\n]*)
  | (?P<symbol>->|==|[;,()\[\]{}+\-*/^@=])
    """,
    re.VERBOSE,
)

#: blanks and comments before a statement
_BLANK_RE = re.compile(r"(?:[ \t\r\n]+|//[^\n]*)*")

#: the dominant statement, on one line without comments:
#: ``[if (c == n)] name[(params)] arg, ...;`` or ``[if (c == n)] measure arg -> arg;``
#: with ``arg`` either ``reg`` or ``reg[i]``; params may nest one level of parentheses
_ARG = r"[A-Za-z_][A-Za-z0-9_]*(?:[ \t]*\[[ \t]*[0-9]{1,9}[ \t]*\])?"
_TEXT = r"[^()\n;/]*(?:/(?!/)[^()\n;/]*)*"    # no parentheses, comment, newline or ';'
_PLAIN_STATEMENT_RE = re.compile(
    rf"""
    (?:if[ \t]*\([ \t]*(?P<creg>[A-Za-z_][A-Za-z0-9_]*)[ \t]*
       ==[ \t]*(?P<value>[0-9]{{1,18}})[ \t]*\)[ \t]*)?
    (?:
        (?P<measure>measure)[ \t]+(?P<source>{_ARG})[ \t]*->[ \t]*(?P<target>{_ARG})
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
        (?:[ \t]*\((?P<params>{_TEXT}(?:\({_TEXT}\){_TEXT})*)\)[ \t]*|[ \t]+)
        (?P<args>{_ARG}(?:[ \t]*,[ \t]*{_ARG})*)
    )
    [ \t]*;
    """,
    re.VERBOSE,
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
        self._resolved: Dict[Tuple[str, bool], List[List]] = {}
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
        self._version = 2
        #: the ``(creg, value)`` condition of the enclosing ``if``, stamped
        #: onto every instruction appended while it is set
        self._condition: Optional[Tuple[ClassicalRegister, int]] = None

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
        self._parse_header()
        source = self._source
        while True:
            start = _BLANK_RE.match(source, self._offset).end()
            newlines = source.count("\n", self._offset, start)
            if newlines:
                self._line += newlines
                self._line_start = source.rindex("\n", self._offset, start) + 1
            self._offset = start
            if start == self._end:
                return self.circuit
            match = _PLAIN_STATEMENT_RE.match(source, start)
            if match is None or not self._parse_plain(match):
                self._offset = start
                self._parse_statement()

    # -- plain statements ---------------------------------------------------
    #
    # A statement matching _PLAIN_STATEMENT_RE is read from the match and
    # appended through the emit tail the full parser ends in, so the checks
    # there (arity, broadcast, duplicate qubits) raise the same errors on
    # both paths.  Anything else the match cannot settle -- an unknown
    # register or gate, an index out of range, a keyword, a parameter that
    # does not evaluate to a finite float -- is a miss: the full parser
    # re-reads the statement from its start and raises its positioned
    # error, so a miss changes speed, never the result.

    def _parse_plain(self, match: "re.Match[str]") -> bool:
        """Append the statement *match* read; False (a miss) if it cannot."""
        creg, measure, name = match.group("creg", "measure", "name")
        condition = None
        if creg is not None:
            register = self._cregs.get(creg)
            value = _digits(match["value"])
            if register is None or value is None or value.bit_length() > register.size:
                return False
            condition = (register, value)
        if measure is not None:
            sources = self._plain_arguments(match["source"], self._qregs)
            targets = self._plain_arguments(match["target"], self._cregs)
            if sources is None or targets is None:
                return False
            loc = (self._line, match.start("measure") - self._line_start + 1)
        else:
            spec = self._gates.get(name)
            if spec is None or (self._version >= 3 and name in _QASM3_UNSUPPORTED):
                return False
            params = self._plain_params(match)
            arguments = self._plain_arguments(match["args"], self._qregs)
            if params is None or arguments is None:
                return False
            loc = (self._line, match.start("name") - self._line_start + 1)
        self._condition = condition
        try:
            if measure is not None:
                self._emit_measure(sources[0], targets[0], loc)
            else:
                self._emit_gate_call(name, spec, params, arguments, loc)
        finally:
            self._condition = None
        self._offset = match.end()
        return True

    def _plain_arguments(self, text: str, registers: Dict[str, object]) -> Optional[List[List]]:
        """The bits of each ``reg``/``reg[i]`` in *text*, or None if one does not
        resolve; registers are never redeclared, so a resolved text is memoised."""
        key = (text, registers is self._qregs)
        arguments = self._resolved.get(key)
        if arguments is not None:
            return arguments
        arguments = []
        for name, index in _ARG_RE.findall(text):
            register = registers.get(name)
            if register is None:
                return None
            position = _digits(index) if index else None
            if not index:
                arguments.append(list(register))
            elif position is not None and position < register.size:
                arguments.append([register[position]])
            else:
                return None
        self._resolved[key] = arguments
        return arguments

    def _plain_params(self, match: "re.Match[str]") -> Optional[List[float]]:
        text = match["params"]
        if text is None or not text.strip():
            return []
        params = []
        start = match.start("params")
        for piece in text.split(","):
            if _LITERAL_RE.fullmatch(piece):
                value: Optional[float] = float(piece)
            else:
                value = self._evaluate_source(start, start + len(piece))
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
            self._version = 2
        elif float(version.value) == 3.0:
            self._version = 3
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
        allowed = ("qelib1.inc", "stdgates.inc") if self._version >= 3 else ("qelib1.inc",)
        if filename.value not in allowed:
            bundled = " or ".join(f'"{inc}"' for inc in allowed)
            raise self._error(
                f'unsupported include "{filename.value}" (only {bundled} is bundled)',
                filename,
            )
        if self._included_qelib1:
            return
        table = _qelib1_table()
        for gate_name in self._gates:
            # a user gate defined before the include would be silently
            # overwritten by update(); mirror the 'already defined' error
            # the parser raises for the opposite ordering
            if gate_name in table:
                raise self._error(
                    f"gate {gate_name!r} is already defined "
                    '(put include "qelib1.inc" before gate definitions)',
                    filename,
                )
        self._included_qelib1 = True
        self._gates.update(table)

    def _parse_register_decl(self) -> None:
        """``qreg name[n];`` / ``creg name[n];``, or OpenQASM 3 ``qubit[n] name;``
        / ``bit[n] name;`` (bare = size 1)."""
        kind = self._advance()
        qasm2 = kind.value in ("qreg", "creg")    # name[n], where QASM3 writes [n] name
        name = self._expect("id", "a register name") if qasm2 else None
        size_token: Optional[_Token] = None
        if qasm2 or self._peek().type == "[":
            self._expect("[")
            size_token = self._expect("int", "a register size")
            self._expect("]")
        name = name or self._expect("id", "a register name")
        self._expect(";")
        size = size_token.value if size_token else 1
        if name.value in self._qregs or name.value in self._cregs:
            raise self._error(f"register {name.value!r} is already declared", name)
        if size <= 0:
            raise self._error(f"register size must be positive, got {size}", size_token or name)
        if size > _MAX_REGISTER_SIZE:
            raise self._error(
                f"register size {size} exceeds the supported maximum "
                f"of {_MAX_REGISTER_SIZE}",
                size_token or name,
            )
        register: Union[QuantumRegister, ClassicalRegister]
        if kind.value in ("qreg", "qubit"):
            register = QuantumRegister(size, name.value)
            self._qregs[name.value] = register
        else:
            register = ClassicalRegister(size, name.value)
            self._cregs[name.value] = register
        self.circuit.add_register(register)
        self.circuit.register_spans[register] = self._span((kind.line, kind.column))

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
        span = self._span(loc)
        for qubit, clbit in zip(sources, targets):
            self.circuit.append(
                Measure(), [qubit], [clbit], span=span, condition=self._condition
            )

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
        span = self._span((keyword.line, keyword.column))
        for qubit in self._parse_quantum_argument():
            self.circuit.append(Reset(), [qubit], span=span, condition=self._condition)
        self._expect(";")

    def _parse_barrier(self) -> None:
        keyword = self._advance()
        qubits = [q for arg in self._parse_list(self._parse_quantum_argument) for q in arg]
        self._expect(";")
        try:
            self.circuit.append(
                Barrier(len(qubits)), qubits, span=self._span((keyword.line, keyword.column))
            )
        except CircuitError as exc:
            raise QasmError(str(exc), keyword.line, keyword.column) from exc

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
        widths = set(map(len, arguments))
        widths.discard(1)
        if len(widths) > 1:
            raise QasmError(
                f"mismatched register sizes in {name!r} broadcast: {sorted(widths)}", *loc
            )
        repeat = widths.pop() if widths else 1
        self._expanded_ops += _gate_size(spec) * repeat
        if self._expanded_ops > _MAX_EXPANDED_INSTRUCTIONS:
            raise QasmError(
                f"gate calls expand to more than {_MAX_EXPANDED_INSTRUCTIONS} instructions",
                *loc,
            )
        if repeat > 1:
            arguments = [arg * repeat if len(arg) == 1 else arg for arg in arguments]
        try:
            for qubits in zip(*arguments):
                self._apply_gate(spec, params, qubits, loc, num_controls=num_controls)
        except CircuitError as exc:
            raise QasmError(str(exc), *loc) from exc

    def _apply_gate(
        self,
        spec: Union[_NativeGate, _MacroGate],
        params: Sequence[float],
        qubits: Sequence[Qubit],
        loc: Tuple[int, int],
        depth: int = 0,
        num_controls: int = 0,
    ) -> None:
        if depth > _MAX_GATE_EXPANSION_DEPTH:
            raise QasmError(
                f"gate expansion exceeds the maximum nesting depth of "
                f"{_MAX_GATE_EXPANSION_DEPTH}",
                *loc,
            )
        if isinstance(spec, _NativeGate):
            # literals like 1e400 and overflowing +/-/* produce inf/nan
            # without raising; reject them here, the one point every gate
            # application passes through, instead of at simulation time
            for value in params:
                if not math.isfinite(value):
                    raise QasmError(f"non-finite gate parameter {value}", *loc)
            # macro expansions carry the *call-site* loc, so every expanded
            # instruction of `mygate q;` points at that statement; a condition
            # on the call distributes over every expanded gate (exact, since
            # a gate body never writes the condition's register)
            gate = spec.build(params)
            self.circuit.append(
                _controlled_gate(gate, num_controls) if num_controls else gate, qubits,
                span=self._span(loc), condition=self._condition,
            )
            return
        env = dict(zip(spec.params, params))
        binding = dict(zip(spec.qubits, qubits))
        for node in spec.body:
            if node[0] == "barrier":
                _, names, _loc = node
                self.circuit.append(
                    Barrier(len(names)), [binding[n] for n in names], span=self._span(loc)
                )
                continue
            _, call_name, exprs, names, _loc = node
            inner = self._gates[call_name]
            inner_params = [self._evaluate(expr, env) for expr in exprs]
            self._apply_gate(inner, inner_params, [binding[n] for n in names], loc, depth + 1)

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
