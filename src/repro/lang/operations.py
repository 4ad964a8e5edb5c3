"""Operator semantics of the Qutes language.

This module implements the behaviour of every operator once operand values
are available: classical operands use plain Python semantics, quantum
operands are lowered onto circuit constructions from :mod:`repro.arithmetic`
and :mod:`repro.algorithms` through the
:class:`~repro.lang.circuit_handler.QuantumCircuitHandler`, and mixed
operands go through the :class:`~repro.lang.casting.TypeCastingHandler`
(promotion for arithmetic that can stay quantum, automatic measurement for
intrinsically classical operations such as comparisons, division and logic).
"""

from __future__ import annotations

import math
from functools import lru_cache

from ..algorithms.grover import grover_circuit, substring_match_positions
from ..arithmetic.adder import build_constant_adder, build_draper_adder
from ..arithmetic.multiplier import build_fourier_multiplier
from ..arithmetic.rotations import rotate_indices
from ..qsim.circuit import QuantumCircuit
from .casting import TypeCastingHandler
from .circuit_handler import QuantumCircuitHandler, Subcircuit
from .errors import QutesRuntimeError, QutesTypeError
from .types import QutesType, TypeKind
from .values import QuantumVariable, qubits_needed_for_int, type_of_python_value

__all__ = ["OperationEngine"]

_GATE_NAME_MAP = {
    "hadamard": "h",
    "paulix": "x",
    "pauliy": "y",
    "pauliz": "z",
    "phase": "s",
}

#: distinct operand shapes each arithmetic builder keeps (least recently used
#: goes first); a program rarely has more than a handful
_MAX_SHAPES = 256


# Each builder runs once per operand shape and returns a frozen Subcircuit:
# its instructions, which every program's log then shares, and the classical
# function they compute on basis inputs, which also gives the result's hint.


@lru_cache(maxsize=_MAX_SHAPES)
def _draper_adder(source_size: int, target_size: int, sign: int) -> Subcircuit:
    """``target <- target + sign * source (mod 2^n)``, source first."""
    sub = QuantumCircuit(source_size + target_size, name="qadd")
    positions = list(range(sub.num_qubits))
    build_draper_adder(sub, positions[:source_size], positions[source_size:], sign)
    mask, modulus = (1 << source_size) - 1, 1 << target_size

    def add(value: int) -> int:
        source = value & mask
        return source | ((value >> source_size) + sign * source) % modulus << source_size

    return Subcircuit.of(sub, add)


@lru_cache(maxsize=_MAX_SHAPES)
def _constant_adder(value: int, size: int, sign: int) -> Subcircuit:
    """``target <- target + sign * value (mod 2^n)`` for ``0 <= value < 2^n``."""
    sub = QuantumCircuit(size, name="qadd_const")
    build_constant_adder(sub, value, list(range(size)), sign)
    modulus = 1 << size
    return Subcircuit.of(sub, lambda target: (target + sign * value) % modulus)


@lru_cache(maxsize=_MAX_SHAPES)
def _multiplier(a_size: int, b_size: int, product_size: int) -> Subcircuit:
    """``product <- product + a * b (mod 2^m)`` over ``a``, ``b``, ``product``."""
    operands = a_size + b_size
    sub = QuantumCircuit(operands + product_size, name="qmul")
    positions = list(range(sub.num_qubits))
    build_fourier_multiplier(
        sub, positions[:a_size], positions[a_size:operands], positions[operands:]
    )
    a_mask, b_mask, modulus = (1 << a_size) - 1, (1 << b_size) - 1, 1 << product_size

    def multiply(value: int) -> int:
        product = (value >> operands) + (value & a_mask) * (value >> a_size & b_mask)
        return value & ((1 << operands) - 1) | product % modulus << operands

    return Subcircuit.of(sub, multiply)


class OperationEngine:
    """Evaluates unary and binary operators over runtime values."""

    def __init__(self, handler: QuantumCircuitHandler, casting: TypeCastingHandler):
        self.handler = handler
        self.casting = casting

    # ------------------------------------------------------------------ helpers

    def _is_quantum(self, value) -> bool:
        return isinstance(value, QuantumVariable)

    def _quint_operands(self, value) -> QuantumVariable:
        if isinstance(value, QuantumVariable):
            return value
        raise QutesTypeError(f"expected a quantum operand, got {type_of_python_value(value)}")

    # ------------------------------------------------------------------ gates

    def apply_gate_keyword(self, gate: str, value) -> QuantumVariable:
        """Apply a prefix gate keyword (``hadamard``/``paulix``/.../``phase``).

        The gate is applied to every qubit of the operand; classical operands
        are promoted to their quantum counterpart first (type promotion as
        described in the paper).  Returns the quantum variable so gate
        applications compose as expressions.
        """
        if gate == "measure":
            raise QutesRuntimeError("measure is handled by the interpreter")
        gate_name = _GATE_NAME_MAP.get(gate)
        if gate_name is None:
            raise QutesRuntimeError(f"unknown gate keyword {gate!r}")
        if not isinstance(value, QuantumVariable):
            target_type = type_of_python_value(value)
            if target_type.kind is TypeKind.ARRAY:
                raise QutesTypeError("gates cannot be applied to whole arrays; index an element")
            value = self.casting.promote_to_quantum(
                value, target_type.promoted_type(), name=f"anon_{gate}"
            )
        for qubit in value.qubits:
            self.handler.apply_gate(gate_name, [qubit])
        self._update_hint_after_gate(value, gate_name)
        return value

    def two_qubit_gate(self, gate_name: str, left, right) -> QuantumVariable:
        """Pairwise two-qubit gate between two registers (``cx``/``cz``/``swap``).

        Qubit ``i`` of *left* is paired with qubit ``i`` of *right*; both
        operands must be quantum (classical operands are promoted first) and
        have the same width.
        """
        if not isinstance(left, QuantumVariable):
            left = self.casting.promote_to_quantum(
                left, type_of_python_value(left).promoted_type(), name=f"anon_{gate_name}_c"
            )
        if not isinstance(right, QuantumVariable):
            right = self.casting.promote_to_quantum(
                right, type_of_python_value(right).promoted_type(), name=f"anon_{gate_name}_t"
            )
        if left.size != right.size:
            raise QutesTypeError(
                f"{gate_name}() needs equally sized registers, got {left.size} and {right.size}"
            )
        if set(left.qubits) & set(right.qubits):
            raise QutesRuntimeError(f"{gate_name}() needs two distinct registers")
        for control, target in zip(left.qubits, right.qubits):
            self.handler.apply_gate(gate_name, [control, target])
        if gate_name == "cx":
            if left.classical_hint is not None and right.classical_hint is not None:
                right.classical_hint ^= left.classical_hint
            else:
                right.invalidate_hint()
        elif gate_name == "swap":
            left.classical_hint, right.classical_hint = (
                right.classical_hint,
                left.classical_hint,
            )
        # cz is phase-only: hints survive untouched
        return right

    def _update_hint_after_gate(self, variable: QuantumVariable, gate_name: str) -> None:
        if variable.classical_hint is None:
            return
        if gate_name in ("z", "s"):
            return  # phase-only gates keep the basis value
        if gate_name in ("x", "y"):
            mask = (1 << variable.size) - 1
            variable.classical_hint ^= mask
            return
        variable.invalidate_hint()

    # ------------------------------------------------------------------ arithmetic

    def binary(self, operator: str, left, right):
        """Evaluate ``left <operator> right`` for ``+ - * / %``."""
        left_quantum = self._is_quantum(left)
        right_quantum = self._is_quantum(right)

        if operator in ("/", "%"):
            # division and modulo are classical operations (paper section 4):
            # quantum operands are measured automatically.
            return self._classical_arithmetic(operator, left, right)

        if not left_quantum and not right_quantum:
            return self._classical_arithmetic(operator, left, right)

        if operator == "+":
            return self._quantum_add(left, right, subtract=False)
        if operator == "-":
            return self._quantum_add(left, right, subtract=True)
        if operator == "*":
            return self._quantum_multiply(left, right)
        raise QutesTypeError(f"unsupported operator {operator!r} on quantum operands")

    def _classical_arithmetic(self, operator: str, left, right):
        if isinstance(left, str) or isinstance(right, str):
            if operator == "+" and isinstance(left, str) and isinstance(right, str):
                return left + right
            raise QutesTypeError(f"operator {operator!r} is not defined on strings")
        lhs = self.casting.to_float(left) if self._needs_float(left, right) else self.casting.to_int(left)
        rhs = self.casting.to_float(right) if self._needs_float(left, right) else self.casting.to_int(right)
        if operator == "+":
            return lhs + rhs
        if operator == "-":
            return lhs - rhs
        if operator == "*":
            return lhs * rhs
        if operator == "/":
            if rhs == 0:
                raise QutesRuntimeError("division by zero")
            result = lhs / rhs
            return result if isinstance(lhs, float) or isinstance(rhs, float) else int(lhs // rhs)
        if operator == "%":
            if rhs == 0:
                raise QutesRuntimeError("modulo by zero")
            if isinstance(lhs, float) or isinstance(rhs, float):
                return math.fmod(lhs, rhs)
            return lhs % rhs
        raise QutesTypeError(f"unknown arithmetic operator {operator!r}")

    def _needs_float(self, left, right) -> bool:
        return isinstance(left, float) or isinstance(right, float)

    # -- quantum addition / subtraction ------------------------------------------------

    def _quantum_add(self, left, right, subtract: bool) -> QuantumVariable:
        """Out-of-place quantum addition: allocate ``result`` and add into it.

        ``result`` starts as a CNOT copy of the right operand (or its encoded
        classical value) and the left operand is then added (or subtracted)
        in the Fourier basis, so superposed operands produce the correct
        entangled sum register.
        """
        # Classical-only fast paths were handled by binary(); at least one
        # operand is quantum here.  Order matters for subtraction: a - b.
        a, b = left, right
        a_quantum = self._is_quantum(a)
        b_quantum = self._is_quantum(b)

        a_size = a.size if a_quantum else qubits_needed_for_int(max(self.casting.to_int(a), 0))
        b_size = b.size if b_quantum else qubits_needed_for_int(max(self.casting.to_int(b), 0))
        result_size = max(a_size, b_size) + (0 if subtract else 1)
        modulus = 1 << result_size
        result_qubits = self.handler.allocate_register("sum", result_size)
        result = QuantumVariable(
            name="sum", type=QutesType.quint(), qubits=result_qubits, classical_hint=None
        )

        # seed the result with the left operand (a); a classical one is
        # reduced mod 2^n as the constant adder reduces the right one
        if a_quantum:
            for position, qubit in enumerate(a.qubits):
                self.handler.apply_gate("cx", [qubit, result_qubits[position]])
            a_hint = a.classical_hint
        else:
            a_hint = self.casting.to_int(a) % modulus
            self.handler.initialize_basis(a_hint, result_qubits)

        # add (or subtract) the right operand (b) into the result
        sign = -1 if subtract else 1
        if b_quantum:
            sub = _draper_adder(b.size, result_size, sign)
            self.handler.append_subcircuit(sub, b.qubits + result_qubits)
            if a_hint is not None and b.classical_hint is not None:
                result.classical_hint = sub.function(b.classical_hint | a_hint << b.size) >> b.size
        else:
            sub = _constant_adder(self.casting.to_int(b) % modulus, result_size, sign)
            self.handler.append_subcircuit(sub, result_qubits)
            if a_hint is not None:
                result.classical_hint = sub.function(a_hint)
        return result

    # -- quantum multiplication -----------------------------------------------------------

    def _copy(self, variable: QuantumVariable) -> QuantumVariable:
        """A fresh register holding *variable*'s basis values, entangled with
        it by ``cx`` (as :meth:`_quantum_add` seeds its result)."""
        qubits = self.handler.allocate_register("copy", variable.size)
        for source, target in zip(variable.qubits, qubits):
            self.handler.apply_gate("cx", [source, target])
        return QuantumVariable(
            name="copy", type=variable.type, qubits=qubits, classical_hint=variable.classical_hint
        )

    def _quantum_multiply(self, left, right) -> QuantumVariable:
        a = left if self._is_quantum(left) else self.casting.promote_to_quantum(
            left, QutesType.quint(), name="mul_a"
        )
        b = right if self._is_quantum(right) else self.casting.promote_to_quantum(
            right, QutesType.quint(), name="mul_b"
        )
        if set(a.qubits) & set(b.qubits):  # a * a: multiply by an entangled copy
            b = self._copy(b)
        product_size = a.size + b.size
        product_qubits = self.handler.allocate_register("prod", product_size)
        sub = _multiplier(a.size, b.size, product_size)
        self.handler.append_subcircuit(sub, a.qubits + b.qubits + product_qubits)
        hint = None
        if a.classical_hint is not None and b.classical_hint is not None:
            operands = a.classical_hint | b.classical_hint << a.size
            hint = sub.function(operands) >> (a.size + b.size)
        return QuantumVariable(
            name="prod", type=QutesType.quint(), qubits=product_qubits, classical_hint=hint
        )

    # ------------------------------------------------------------------ shifts

    def cyclic_shift(self, operator: str, value, amount) -> QuantumVariable:
        """Cyclic register rotation (``<<`` rotate left, ``>>`` rotate right).

        Implemented as the O(1) logical relabelling of the Faro--Pavone--Viola
        construction: no gates are emitted, the variable's qubit order (and
        classical hint) are permuted in place.
        """
        k = self.casting.to_int(amount)
        if not self._is_quantum(value):
            # classical operands use ordinary (non-cyclic) bit shifts
            number = self.casting.to_int(value)
            return number << k if operator == "<<" else number >> k
        variable = self._quint_operands(value)
        n = variable.size
        if n == 0:
            return variable
        k %= n
        if k == 0:
            return variable
        if variable.type.kind is TypeKind.QUSTRING:
            # string semantics: `<< k` moves characters towards lower indices
            offset = k if operator == "<<" else n - k
        else:
            # integer semantics: `<< k` rotates the binary value towards
            # higher significance (like a bitwise rotate-left)
            offset = n - k if operator == "<<" else k
        permutation = [(i + offset) % n for i in range(n)]
        old_qubits = list(variable.qubits)
        variable.qubits = [old_qubits[p] for p in permutation]
        if variable.classical_hint is not None:
            old_hint = variable.classical_hint
            new_hint = 0
            for i, p in enumerate(permutation):
                if (old_hint >> p) & 1:
                    new_hint |= 1 << i
            variable.classical_hint = new_hint
        return variable

    # ------------------------------------------------------------------ comparisons & logic

    def compare(self, operator: str, left, right) -> bool:
        """Comparisons are classical: quantum operands are measured first."""
        lhs = self.casting.to_classical(left)
        rhs = self.casting.to_classical(right)
        if isinstance(lhs, str) != isinstance(rhs, str):
            if operator in ("==", "!="):
                return operator == "!="
            raise QutesTypeError("cannot order strings against numbers")
        if operator == "==":
            return lhs == rhs
        if operator == "!=":
            return lhs != rhs
        if operator == ">":
            return lhs > rhs
        if operator == ">=":
            return lhs >= rhs
        if operator == "<":
            return lhs < rhs
        if operator == "<=":
            return lhs <= rhs
        raise QutesTypeError(f"unknown comparison operator {operator!r}")

    def logical(self, operator: str, left_value, right_thunk):
        """Short-circuiting ``and`` / ``or`` with automatic measurement."""
        left_bool = self.casting.to_bool(left_value)
        if operator == "and":
            if not left_bool:
                return False
            return self.casting.to_bool(right_thunk())
        if operator == "or":
            if left_bool:
                return True
            return self.casting.to_bool(right_thunk())
        raise QutesTypeError(f"unknown logical operator {operator!r}")

    def unary(self, operator: str, value):
        """Unary ``-``, ``+`` and ``not`` (classical; quantum operands measured)."""
        if operator == "not":
            return not self.casting.to_bool(value)
        number = self.casting.to_float(value) if isinstance(value, float) else self.casting.to_int(value)
        if operator == "-":
            return -number
        if operator == "+":
            return number
        raise QutesTypeError(f"unknown unary operator {operator!r}")

    # ------------------------------------------------------------------ Grover search (`in`)

    def membership(self, needle, haystack) -> bool:
        """The ``in`` operator: Grover substring search over a ``qustring``.

        The pattern must be classical (or a quantum register still holding a
        known basis state); the haystack must be a ``qustring``.  The search
        allocates an index register, splices the Grover iterations into the
        program circuit and measures the index register; the measured
        position is then verified against the pattern, which also catches the
        "no match" case.
        """
        pattern = self._as_bitstring(needle, role="pattern")
        text_variable, text = self._haystack_text(haystack)

        positions = substring_match_positions(text, pattern)
        num_positions = max(1, len(text) - len(pattern) + 1)
        index_qubits_count = max(1, math.ceil(math.log2(num_positions)))

        if not positions:
            # no marked state: prepare and measure a uniform index register so
            # the circuit still reflects the attempted search, then report the
            # miss after classical verification.
            index_qubits = self.handler.allocate_register("grover_idx", index_qubits_count)
            for qubit in index_qubits:
                self.handler.apply_gate("h", [qubit])
            self.handler.measure(index_qubits, label="grover")
            return False

        # Grover search with the standard verification loop: measure a
        # candidate position, check it classically, retry a bounded number of
        # times.  Every attempt reuses one index register, returned to
        # |0...0> by an x on each qubit that measured 1, so a retry does not
        # grow the live session.
        index_qubits = self.handler.allocate_register("grover_idx", index_qubits_count)
        search = Subcircuit.of(grover_circuit(index_qubits_count, positions, measure=False))
        measured_position = 0
        for _attempt in range(3):
            for bit, qubit in enumerate(index_qubits):
                if (measured_position >> bit) & 1:
                    self.handler.apply_gate("x", [qubit])
            self.handler.append_subcircuit(search, index_qubits)
            measured_position = self.handler.measure(index_qubits, label="grover")
            if measured_position < num_positions and (
                text[measured_position : measured_position + len(pattern)] == pattern
            ):
                return True
        return False

    def _as_bitstring(self, value, role: str) -> str:
        if isinstance(value, QuantumVariable):
            if value.type.kind is not TypeKind.QUSTRING:
                raise QutesTypeError(f"the {role} of 'in' must be a (qu)string")
            hinted = value.hint_as_string()
            if hinted is not None:
                return hinted
            measured = self.casting.measure_variable(value)
            return measured  # type: ignore[return-value]
        if isinstance(value, str):
            if not value or any(ch not in "01" for ch in value):
                raise QutesTypeError(f"the {role} of 'in' must be a non-empty bitstring")
            return value
        raise QutesTypeError(f"the {role} of 'in' must be a (qu)string")

    def _haystack_text(self, haystack):
        if isinstance(haystack, QuantumVariable):
            if haystack.type.kind is not TypeKind.QUSTRING:
                raise QutesTypeError("the right operand of 'in' must be a qustring")
            hinted = haystack.hint_as_string()
            if hinted is not None:
                return haystack, hinted
            return haystack, self.casting.measure_variable(haystack)
        if isinstance(haystack, str):
            if not haystack or any(ch not in "01" for ch in haystack):
                raise QutesTypeError("the right operand of 'in' must be a bitstring")
            return None, haystack
        raise QutesTypeError("the right operand of 'in' must be a (qu)string")
