"""The quantum circuit intermediate representation.

:class:`QuantumCircuit` is the object the Qutes ``QuantumCircuitHandler``
builds while traversing the AST.  It stores registers, an ordered list of
:class:`CircuitInstruction` entries, and offers the familiar gate-level
builder API (``h``, ``cx``, ``measure`` ...), composition, inversion and
simple metrics (depth, gate counts).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .exceptions import CircuitError
from .instruction import (
    Barrier,
    ControlledGate,
    Gate,
    Initialize,
    Instruction,
    Measure,
    Reset,
    UnitaryGate,
    mcp_gate,
    mcx_gate,
    mcz_gate,
)
from .registers import ClassicalRegister, Clbit, QuantumRegister, Qubit

__all__ = ["QuantumCircuit", "CircuitInstruction", "SourceSpan"]

QubitSpec = Union[Qubit, int]
ClbitSpec = Union[Clbit, int]


def unique_register_name(
    registers: Iterable[Union[QuantumRegister, ClassicalRegister]], base: str
) -> str:
    """*base*, or *base* with the smallest number suffix that no register
    in *registers* (one kind: the circuit's qregs or its cregs) is named."""
    existing = {r.name for r in registers}
    if base not in existing:
        return base
    i = 0
    while f"{base}{i}" in existing:
        i += 1
    return f"{base}{i}"


class SourceSpan(NamedTuple):
    """Where an instruction (or register declaration) came from in a source text.

    ``line`` and ``column`` are 1-based, matching the positions
    :class:`~repro.qsim.exceptions.QasmError` reports; ``source`` is the
    file path (or ``None`` for circuits parsed from a string).  The QASM
    importer stamps one of these on every instruction it appends, which is
    how analyzer diagnostics point back at ``file:line:col``.
    """

    line: int
    column: int
    source: Optional[str] = None

    def location(self) -> str:
        """``source:line:column`` (``line:column`` when the source is unnamed)."""
        prefix = f"{self.source}:" if self.source else ""
        return f"{prefix}{self.line}:{self.column}"


class CircuitInstruction:
    """An :class:`Instruction` bound to concrete qubits and classical bits.

    ``condition`` implements OpenQASM 2 classical control flow: when set to
    ``(creg, value)``, the instruction executes in a shot only if the integer
    read from *creg* (little-endian over its bits, unmeasured bits 0) equals
    *value*.  Conditioned instructions force the per-shot execution paths and
    act as fusion/optimization barriers.
    """

    __slots__ = ("operation", "qubits", "clbits", "span", "condition")

    def __init__(
        self,
        operation: Instruction,
        qubits: Sequence[Qubit],
        clbits: Sequence[Clbit] = (),
        span: Optional[SourceSpan] = None,
        condition: Optional[Tuple[ClassicalRegister, int]] = None,
    ):
        self.operation = operation
        self.qubits = tuple(qubits)
        self.clbits = tuple(clbits)
        self.span = span
        self.condition = condition

    def __repr__(self) -> str:
        cond = ""
        if self.condition is not None:
            cond = f", condition=({self.condition[0].name!r}, {self.condition[1]})"
        return (
            f"CircuitInstruction({self.operation.name!r}, "
            f"qubits={[q.index for q in self.qubits]}, "
            f"clbits={[c.index for c in self.clbits]}{cond})"
        )


class QuantumCircuit:
    """A register-aware list of quantum instructions.

    Parameters may be registers, or plain integers as shorthand for an
    anonymous quantum/classical register of that size::

        qc = QuantumCircuit(3, 3)      # 3 qubits, 3 classical bits
        qc = QuantumCircuit(QuantumRegister(4, "a"), ClassicalRegister(4, "m"))
    """

    def __init__(self, *regs: Union[QuantumRegister, ClassicalRegister, int], name: str = "circuit"):
        self.name = name
        self.qregs: List[QuantumRegister] = []
        self.cregs: List[ClassicalRegister] = []
        self.qubits: List[Qubit] = []
        self.clbits: List[Clbit] = []
        self._qubit_index: Dict[Qubit, int] = {}
        self._clbit_index: Dict[Clbit, int] = {}
        self.data: List[CircuitInstruction] = []
        #: register -> declaration :class:`SourceSpan`, filled by the QASM
        #: importer so analyzer diagnostics about whole registers (unused
        #: qubits, never-written clbits) can point at the qreg/creg line
        self.register_spans: Dict[object, SourceSpan] = {}

        int_args = [r for r in regs if isinstance(r, int)]
        if int_args:
            if len(int_args) > 2 or any(not isinstance(r, int) for r in regs):
                raise CircuitError(
                    "integer shorthand accepts at most (num_qubits, num_clbits)"
                )
            if int_args[0]:
                self.add_register(QuantumRegister(int_args[0], "q"))
            if len(int_args) == 2 and int_args[1]:
                self.add_register(ClassicalRegister(int_args[1], "c"))
        else:
            for reg in regs:
                self.add_register(reg)

    # -- interchange ---------------------------------------------------------

    @classmethod
    def from_qasm(cls, source: str, name: str = "from_qasm") -> "QuantumCircuit":
        """Build a circuit from an OpenQASM 2.0 program string.

        Thin wrapper over :func:`repro.qsim.qasm.from_qasm`; see
        ``docs/qasm.md`` for the supported subset.  Raises
        :class:`~repro.qsim.exceptions.QasmError` on invalid input.  Like
        :meth:`copy` and :meth:`inverse`, the result is always a base
        :class:`QuantumCircuit`, even when called on a subclass.
        """
        from .qasm import from_qasm  # local import avoids a module cycle

        return from_qasm(source, name=name)

    @classmethod
    def from_qasm_file(cls, path, name: Optional[str] = None) -> "QuantumCircuit":
        """Build a circuit from the OpenQASM 2.0 file at *path*."""
        from .qasm import from_qasm_file  # local import avoids a module cycle

        return from_qasm_file(path, name=name)

    # -- register management -------------------------------------------------

    def add_register(self, register: Union[QuantumRegister, ClassicalRegister]) -> None:
        """Append *register*; its bits get global indices after existing ones."""
        if isinstance(register, QuantumRegister):
            if any(r.name == register.name for r in self.qregs):
                raise CircuitError(f"duplicate quantum register name {register.name!r}")
            self.qregs.append(register)
            for qubit in register:
                self._qubit_index[qubit] = len(self.qubits)
                self.qubits.append(qubit)
        elif isinstance(register, ClassicalRegister):
            if any(r.name == register.name for r in self.cregs):
                raise CircuitError(f"duplicate classical register name {register.name!r}")
            self.cregs.append(register)
            for clbit in register:
                self._clbit_index[clbit] = len(self.clbits)
                self.clbits.append(clbit)
        else:
            raise CircuitError(f"cannot add register of type {type(register).__name__}")

    @property
    def num_qubits(self) -> int:
        """Total number of qubits across all quantum registers."""
        return len(self.qubits)

    @property
    def num_clbits(self) -> int:
        """Total number of classical bits across all classical registers."""
        return len(self.clbits)

    def qubit_index(self, qubit: QubitSpec) -> int:
        """Resolve *qubit* (a :class:`Qubit` or global index) to its global index."""
        if isinstance(qubit, int):
            if not 0 <= qubit < self.num_qubits:
                raise CircuitError(f"qubit index {qubit} out of range")
            return qubit
        try:
            return self._qubit_index[qubit]
        except KeyError as exc:
            raise CircuitError(f"qubit {qubit!r} is not in this circuit") from exc

    def clbit_index(self, clbit: ClbitSpec) -> int:
        """Resolve *clbit* (a :class:`Clbit` or global index) to its global index."""
        if isinstance(clbit, int):
            if not 0 <= clbit < self.num_clbits:
                raise CircuitError(f"clbit index {clbit} out of range")
            return clbit
        try:
            return self._clbit_index[clbit]
        except KeyError as exc:
            raise CircuitError(f"clbit {clbit!r} is not in this circuit") from exc

    def _resolve_qubits(self, qubits: Iterable[QubitSpec]) -> List[Qubit]:
        resolved = []
        for q in qubits:
            idx = self.qubit_index(q)
            resolved.append(self.qubits[idx])
        return resolved

    def _resolve_clbits(self, clbits: Iterable[ClbitSpec]) -> List[Clbit]:
        resolved = []
        for c in clbits:
            idx = self.clbit_index(c)
            resolved.append(self.clbits[idx])
        return resolved

    # -- instruction appending ------------------------------------------------

    def append(
        self,
        operation: Instruction,
        qubits: Sequence[QubitSpec],
        clbits: Sequence[ClbitSpec] = (),
        span: Optional[SourceSpan] = None,
        condition: Optional[Tuple[ClassicalRegister, int]] = None,
    ) -> "QuantumCircuit":
        """Append *operation* acting on the given qubits / classical bits."""
        qubits = self._resolve_qubits(qubits)
        clbits = self._resolve_clbits(clbits)
        if len(qubits) != operation.num_qubits:
            raise CircuitError(
                f"{operation.name!r} expects {operation.num_qubits} qubits, got {len(qubits)}"
            )
        if len(set(qubits)) != len(qubits):
            raise CircuitError(f"duplicate qubits in {operation.name!r} operands")
        if len(clbits) != operation.num_clbits:
            raise CircuitError(
                f"{operation.name!r} expects {operation.num_clbits} clbits, got {len(clbits)}"
            )
        if condition is not None:
            condition = self._validate_condition(condition, operation)
        self.data.append(
            CircuitInstruction(operation, qubits, clbits, span=span, condition=condition)
        )
        return self

    def _validate_condition(
        self,
        condition: Tuple[ClassicalRegister, int],
        operation: Instruction,
    ) -> Tuple[ClassicalRegister, int]:
        try:
            creg, value = condition
        except (TypeError, ValueError):
            raise CircuitError(
                f"condition must be a (ClassicalRegister, int) pair, got {condition!r}"
            ) from None
        if not isinstance(creg, ClassicalRegister):
            raise CircuitError(
                f"condition register must be a ClassicalRegister, got {type(creg).__name__}"
            )
        if not any(reg is creg for reg in self.cregs):
            raise CircuitError(
                f"condition register {creg.name!r} is not in this circuit"
            )
        if not isinstance(value, int) or isinstance(value, bool):
            raise CircuitError(f"condition value must be an int, got {value!r}")
        if not 0 <= value < 2 ** creg.size:
            raise CircuitError(
                f"condition value {value} does not fit in {creg.size}-bit "
                f"register {creg.name!r}"
            )
        if isinstance(operation, Barrier):
            raise CircuitError("barriers cannot carry a classical condition")
        return (creg, value)

    def c_if(self, creg: ClassicalRegister, value: int) -> "QuantumCircuit":
        """Condition the most recently appended instruction on ``creg == value``.

        Chainable with the builder API::

            qc.x(2).c_if(c, 1)
        """
        if not self.data:
            raise CircuitError("c_if() requires a previously appended instruction")
        last = self.data[-1]
        last.condition = self._validate_condition((creg, value), last.operation)
        return self

    # -- single-qubit gates ---------------------------------------------------

    def id(self, qubit: QubitSpec) -> "QuantumCircuit":
        """Identity gate (useful as an explicit no-op / scheduling marker)."""
        return self.append(Gate("id", 1), [qubit])

    def x(self, qubit: QubitSpec) -> "QuantumCircuit":
        """Pauli-X (NOT) gate."""
        return self.append(Gate("x", 1), [qubit])

    def y(self, qubit: QubitSpec) -> "QuantumCircuit":
        """Pauli-Y gate."""
        return self.append(Gate("y", 1), [qubit])

    def z(self, qubit: QubitSpec) -> "QuantumCircuit":
        """Pauli-Z gate."""
        return self.append(Gate("z", 1), [qubit])

    def h(self, qubit: QubitSpec) -> "QuantumCircuit":
        """Hadamard gate."""
        return self.append(Gate("h", 1), [qubit])

    def s(self, qubit: QubitSpec) -> "QuantumCircuit":
        """Phase gate S (sqrt of Z)."""
        return self.append(Gate("s", 1), [qubit])

    def sdg(self, qubit: QubitSpec) -> "QuantumCircuit":
        """Inverse of the S gate."""
        return self.append(Gate("sdg", 1), [qubit])

    def t(self, qubit: QubitSpec) -> "QuantumCircuit":
        """T gate (fourth root of Z)."""
        return self.append(Gate("t", 1), [qubit])

    def tdg(self, qubit: QubitSpec) -> "QuantumCircuit":
        """Inverse of the T gate."""
        return self.append(Gate("tdg", 1), [qubit])

    def sx(self, qubit: QubitSpec) -> "QuantumCircuit":
        """Square root of X."""
        return self.append(Gate("sx", 1), [qubit])

    def rx(self, theta: float, qubit: QubitSpec) -> "QuantumCircuit":
        """Rotation about X by *theta*."""
        return self.append(Gate("rx", 1, [theta]), [qubit])

    def ry(self, theta: float, qubit: QubitSpec) -> "QuantumCircuit":
        """Rotation about Y by *theta*."""
        return self.append(Gate("ry", 1, [theta]), [qubit])

    def rz(self, theta: float, qubit: QubitSpec) -> "QuantumCircuit":
        """Rotation about Z by *theta*."""
        return self.append(Gate("rz", 1, [theta]), [qubit])

    def p(self, lam: float, qubit: QubitSpec) -> "QuantumCircuit":
        """Phase gate ``diag(1, e^{i lam})``."""
        return self.append(Gate("p", 1, [lam]), [qubit])

    def u3(self, theta: float, phi: float, lam: float, qubit: QubitSpec) -> "QuantumCircuit":
        """Generic single-qubit rotation."""
        return self.append(Gate("u3", 1, [theta, phi, lam]), [qubit])

    # -- multi-qubit gates ----------------------------------------------------

    def cx(self, control: QubitSpec, target: QubitSpec) -> "QuantumCircuit":
        """Controlled-X (CNOT) gate."""
        return self.append(Gate("cx", 2), [control, target])

    def cy(self, control: QubitSpec, target: QubitSpec) -> "QuantumCircuit":
        """Controlled-Y gate."""
        return self.append(Gate("cy", 2), [control, target])

    def cz(self, control: QubitSpec, target: QubitSpec) -> "QuantumCircuit":
        """Controlled-Z gate."""
        return self.append(Gate("cz", 2), [control, target])

    def ch(self, control: QubitSpec, target: QubitSpec) -> "QuantumCircuit":
        """Controlled-Hadamard gate."""
        return self.append(Gate("ch", 2), [control, target])

    def swap(self, qubit1: QubitSpec, qubit2: QubitSpec) -> "QuantumCircuit":
        """SWAP gate."""
        return self.append(Gate("swap", 2), [qubit1, qubit2])

    def iswap(self, qubit1: QubitSpec, qubit2: QubitSpec) -> "QuantumCircuit":
        """iSWAP gate."""
        return self.append(Gate("iswap", 2), [qubit1, qubit2])

    def crx(self, theta: float, control: QubitSpec, target: QubitSpec) -> "QuantumCircuit":
        """Controlled X rotation."""
        return self.append(Gate("crx", 2, [theta]), [control, target])

    def cry(self, theta: float, control: QubitSpec, target: QubitSpec) -> "QuantumCircuit":
        """Controlled Y rotation."""
        return self.append(Gate("cry", 2, [theta]), [control, target])

    def crz(self, theta: float, control: QubitSpec, target: QubitSpec) -> "QuantumCircuit":
        """Controlled Z rotation."""
        return self.append(Gate("crz", 2, [theta]), [control, target])

    def cp(self, lam: float, control: QubitSpec, target: QubitSpec) -> "QuantumCircuit":
        """Controlled phase gate."""
        return self.append(Gate("cp", 2, [lam]), [control, target])

    def ccx(self, control1: QubitSpec, control2: QubitSpec, target: QubitSpec) -> "QuantumCircuit":
        """Toffoli (doubly-controlled X) gate."""
        return self.append(Gate("ccx", 3), [control1, control2, target])

    def cswap(self, control: QubitSpec, qubit1: QubitSpec, qubit2: QubitSpec) -> "QuantumCircuit":
        """Fredkin (controlled-SWAP) gate."""
        return self.append(Gate("cswap", 3), [control, qubit1, qubit2])

    def mcx(self, controls: Sequence[QubitSpec], target: QubitSpec) -> "QuantumCircuit":
        """Multi-controlled X gate (controls may be empty)."""
        controls = list(controls)
        return self.append(mcx_gate(len(controls)), [*controls, target])

    def mcz(self, controls: Sequence[QubitSpec], target: QubitSpec) -> "QuantumCircuit":
        """Multi-controlled Z gate."""
        controls = list(controls)
        return self.append(mcz_gate(len(controls)), [*controls, target])

    def mcp(self, lam: float, controls: Sequence[QubitSpec], target: QubitSpec) -> "QuantumCircuit":
        """Multi-controlled phase gate."""
        controls = list(controls)
        return self.append(mcp_gate(lam, len(controls)), [*controls, target])

    def unitary(self, matrix: np.ndarray, qubits: Sequence[QubitSpec], label: str = "unitary") -> "QuantumCircuit":
        """Apply an arbitrary unitary *matrix* to *qubits*."""
        return self.append(UnitaryGate(matrix, label), list(qubits))

    # -- non-unitary operations -----------------------------------------------

    def measure(self, qubits: Union[QubitSpec, Sequence[QubitSpec]],
                clbits: Union[ClbitSpec, Sequence[ClbitSpec]]) -> "QuantumCircuit":
        """Measure *qubits* into *clbits* pairwise (Z basis)."""
        if isinstance(qubits, (Qubit, int)):
            qubits = [qubits]
        if isinstance(clbits, (Clbit, int)):
            clbits = [clbits]
        qubits = list(qubits)
        clbits = list(clbits)
        if len(qubits) != len(clbits):
            raise CircuitError("measure needs as many clbits as qubits")
        for q, c in zip(qubits, clbits):
            self.append(Measure(), [q], [c])
        return self

    def measure_all(self) -> "QuantumCircuit":
        """Measure every qubit into a fresh classical register ``meas``."""
        creg = ClassicalRegister(self.num_qubits, unique_register_name(self.cregs, "meas"))
        self.add_register(creg)
        for i, qubit in enumerate(self.qubits):
            self.append(Measure(), [qubit], [creg[i]])
        return self

    def reset(self, qubit: QubitSpec) -> "QuantumCircuit":
        """Reset *qubit* to |0>."""
        return self.append(Reset(), [qubit])

    def barrier(self, *qubits: QubitSpec) -> "QuantumCircuit":
        """Insert a barrier over *qubits* (defaults to all qubits)."""
        targets = list(qubits) if qubits else list(self.qubits)
        if not targets:
            return self
        return self.append(Barrier(len(targets)), targets)

    def initialize(self, state: Union[int, str, Sequence[complex]],
                   qubits: Sequence[QubitSpec]) -> "QuantumCircuit":
        """Initialise *qubits* (assumed |0...0>) to *state*.

        *state* may be an integer (computational basis value, little-endian
        over *qubits*), a bitstring label such as ``"0101"`` (leftmost char is
        the most significant qubit), or an explicit amplitude vector.
        """
        qubits = list(qubits)
        n = len(qubits)
        if isinstance(state, int):
            if not 0 <= state < 2**n:
                raise CircuitError(f"value {state} does not fit in {n} qubits")
            amplitudes = np.zeros(2**n, dtype=complex)
            amplitudes[state] = 1.0
        elif isinstance(state, str):
            if len(state) != n or any(ch not in "01" for ch in state):
                raise CircuitError(f"invalid basis label {state!r} for {n} qubits")
            amplitudes = np.zeros(2**n, dtype=complex)
            amplitudes[int(state, 2)] = 1.0
        else:
            amplitudes = np.asarray(state, dtype=complex)
            if amplitudes.size != 2**n:
                raise CircuitError(
                    f"statevector of length {amplitudes.size} does not match {n} qubits"
                )
        return self.append(Initialize(amplitudes), qubits)

    # -- composition and transformation ---------------------------------------

    def compose(self, other: "QuantumCircuit",
                qubits: Optional[Sequence[QubitSpec]] = None,
                clbits: Optional[Sequence[ClbitSpec]] = None) -> "QuantumCircuit":
        """Append a copy of *other*'s instructions onto this circuit.

        *qubits* / *clbits* map the other circuit's bits (by position) onto
        bits of this circuit; they default to the identity mapping.
        """
        if qubits is None:
            qubits = list(range(other.num_qubits))
        if clbits is None:
            clbits = list(range(other.num_clbits))
        qubits = self._resolve_qubits(qubits)
        clbits = self._resolve_clbits(clbits)
        if len(qubits) != other.num_qubits:
            raise CircuitError("qubit mapping size mismatch in compose()")
        if len(clbits) != other.num_clbits:
            raise CircuitError("clbit mapping size mismatch in compose()")
        for instr in other.data:
            mapped_q = [qubits[other.qubit_index(q)] for q in instr.qubits]
            mapped_c = [clbits[other.clbit_index(c)] for c in instr.clbits]
            condition = instr.condition
            if condition is not None and not any(r is condition[0] for r in self.cregs):
                raise CircuitError(
                    f"cannot compose conditioned instruction: register "
                    f"{condition[0].name!r} is not in the target circuit"
                )
            self.append(
                instr.operation.copy(), mapped_q, mapped_c,
                span=instr.span, condition=condition,
            )
        return self

    def inverse(self) -> "QuantumCircuit":
        """Return a new circuit implementing the inverse unitary.

        Only valid for circuits made of unitary gates (and barriers).
        """
        inv = QuantumCircuit(name=f"{self.name}_dg")
        for reg in self.qregs:
            inv.add_register(reg)
        for reg in self.cregs:
            inv.add_register(reg)
        for instr in reversed(self.data):
            op = instr.operation
            if instr.condition is not None:
                raise CircuitError(
                    "cannot invert circuit containing classically-conditioned "
                    f"instruction {op.name!r}"
                )
            if isinstance(op, Barrier):
                inv.append(op.copy(), instr.qubits)
                continue
            if not op.is_unitary:
                raise CircuitError(
                    f"cannot invert circuit containing {op.name!r}"
                )
            inv.append(op.inverse(), instr.qubits)
        return inv

    def copy(self, name: Optional[str] = None) -> "QuantumCircuit":
        """Return a shallow copy sharing registers but with its own data list."""
        new = QuantumCircuit(name=name or self.name)
        for reg in self.qregs:
            new.add_register(reg)
        for reg in self.cregs:
            new.add_register(reg)
        new.register_spans = dict(self.register_spans)
        for instr in self.data:
            new.append(
                instr.operation.copy(), instr.qubits, instr.clbits,
                span=instr.span, condition=instr.condition,
            )
        return new

    def power(self, exponent: int) -> "QuantumCircuit":
        """Return this circuit repeated *exponent* times (inverse if negative)."""
        if exponent == 0:
            empty = QuantumCircuit(name=f"{self.name}^0")
            for reg in self.qregs:
                empty.add_register(reg)
            for reg in self.cregs:
                empty.add_register(reg)
            return empty
        base = self if exponent > 0 else self.inverse()
        result = base.copy(name=f"{self.name}^{exponent}")
        for _ in range(abs(exponent) - 1):
            result.compose(base)
        return result

    # -- metrics ----------------------------------------------------------------

    def size(self) -> int:
        """Number of instructions, barriers excluded."""
        return sum(1 for i in self.data if not isinstance(i.operation, Barrier))

    def count_ops(self) -> Dict[str, int]:
        """Histogram of instruction names."""
        return dict(Counter(i.operation.name for i in self.data))

    def depth(self) -> int:
        """Circuit depth: longest chain of instructions sharing bits.

        Barriers synchronise the qubits they cover but do not add depth.
        """
        levels: Dict[object, int] = {}
        max_depth = 0
        for instr in self.data:
            bits = list(instr.qubits) + list(instr.clbits)
            start = max((levels.get(b, 0) for b in bits), default=0)
            is_barrier = isinstance(instr.operation, Barrier)
            level = start if is_barrier else start + 1
            for b in bits:
                levels[b] = level
            max_depth = max(max_depth, level)
        return max_depth

    def width(self) -> int:
        """Total number of qubits plus classical bits."""
        return self.num_qubits + self.num_clbits

    def has_measurements(self) -> bool:
        """Whether the circuit contains any measurement instruction."""
        return any(isinstance(i.operation, Measure) for i in self.data)

    def has_conditions(self) -> bool:
        """Whether any instruction carries a classical ``condition``."""
        return any(i.condition is not None for i in self.data)

    # -- misc -------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return (
            f"QuantumCircuit(name={self.name!r}, qubits={self.num_qubits}, "
            f"clbits={self.num_clbits}, size={self.size()})"
        )

    def draw(self) -> str:
        """Return a plain-text, one-instruction-per-line rendering."""
        lines = [f"circuit {self.name}: {self.num_qubits} qubits, {self.num_clbits} clbits"]
        for instr in self.data:
            qs = ", ".join(f"{q.register.name}[{q.index}]" for q in instr.qubits)
            cs = ", ".join(f"{c.register.name}[{c.index}]" for c in instr.clbits)
            params = ""
            if instr.operation.params:
                params = "(" + ", ".join(f"{p:g}" for p in instr.operation.params) + ")"
            prefix = ""
            if instr.condition is not None:
                prefix = f"if({instr.condition[0].name}=={instr.condition[1]}) "
            line = f"  {prefix}{instr.operation.name}{params} {qs}"
            if cs:
                line += f" -> {cs}"
            lines.append(line)
        return "\n".join(lines)


def _with_final_measure(circuit: QuantumCircuit) -> QuantumCircuit:
    """*circuit*, or a copy with a final measure-all if it has qubits but no
    measurement (as hardware toolchains do), so a run returns counts."""
    if not circuit.num_qubits or circuit.has_measurements():
        return circuit
    return circuit.copy().measure_all()
