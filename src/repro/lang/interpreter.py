"""The two-pass Qutes interpreter.

Mirroring the architecture of the paper (Section 3):

1. :class:`SymbolDeclarationPass` walks the AST once and registers every
   top-level function (and validates duplicate declarations), so functions
   may be called before their textual definition.
2. :class:`Interpreter` walks the AST a second time and executes it:
   classical operations run directly in Python, quantum operations are
   delegated to the :class:`~repro.lang.operations.OperationEngine`, which
   logs circuit instructions through the
   :class:`~repro.lang.circuit_handler.QuantumCircuitHandler`; every
   classical <-> quantum boundary crossing goes through the
   :class:`~repro.lang.casting.TypeCastingHandler`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from . import ast_nodes as ast
from .casting import TypeCastingHandler
from .circuit_handler import QuantumCircuitHandler
from .errors import QutesRuntimeError, QutesTypeError
from .operations import OperationEngine
from .symbols import FunctionSymbol, SymbolTable
from .types import QutesType, TypeKind
from .values import QuantumVariable, type_of_python_value

__all__ = ["SymbolDeclarationPass", "Interpreter", "MAX_LOOP_ITERATIONS"]

#: guard against non-terminating while/do-while loops in user programs
MAX_LOOP_ITERATIONS = 100_000


class _ReturnSignal(Exception):
    """Internal control-flow signal used to unwind out of function bodies."""

    def __init__(self, value: Any):
        self.value = value
        super().__init__("return")


class SymbolDeclarationPass:
    """First AST pass: collect function declarations into the symbol table."""

    def __init__(self, symbols: SymbolTable):
        self.symbols = symbols

    def run(self, program: ast.Program) -> SymbolTable:
        for statement in program.statements:
            if isinstance(statement, ast.FunctionDeclaration):
                self.symbols.declare_function(
                    FunctionSymbol(
                        name=statement.name,
                        return_type=statement.return_type,
                        parameters=statement.parameters,
                        body=statement.body,
                        declared_line=statement.line,
                    )
                )
        return self.symbols


class Interpreter:
    """Second AST pass: execute the program."""

    def __init__(
        self,
        handler: Optional[QuantumCircuitHandler] = None,
        shots: int = 1024,
        seed: Optional[int] = None,
        backend=None,
    ):
        # the execution backend (repro.qsim.backends) runs the program: the
        # handler's session comes from it, and so do the min_of()/max_of()
        # quantum search rounds.  A registry name is resolved here, seeded
        # like the session so `--backend NAME --seed S` runs stay
        # deterministic end to end.
        if isinstance(backend, str):
            from ..qsim.backends import get_backend

            backend = get_backend(backend, seed=seed)
        self.backend = backend
        self.handler = handler or QuantumCircuitHandler(seed=seed, backend=backend)
        self.casting = TypeCastingHandler(self.handler)
        self.operations = OperationEngine(self.handler, self.casting)
        self.symbols = SymbolTable()
        self.output: List[str] = []
        self.shots = shots
        self._builtins: Dict[str, Callable[..., Any]] = {
            "size": self._builtin_size,
            "sample": self._builtin_sample,
            "depth": self._builtin_depth,
            "gate_count": self._builtin_gate_count,
            "qasm": self._builtin_qasm,
            "to_int": self._builtin_to_int,
            "to_bool": self._builtin_to_bool,
            "cx": self._builtin_cx,
            "cz": self._builtin_cz,
            "swap": self._builtin_swap,
            "min_of": self._builtin_min_of,
            "max_of": self._builtin_max_of,
        }

    # -- program entry point ---------------------------------------------------------

    def run(self, program: ast.Program) -> None:
        """Execute *program* (both passes)."""
        SymbolDeclarationPass(self.symbols).run(program)
        for statement in program.statements:
            self._execute(statement)

    # -- statement dispatch -------------------------------------------------------------

    def _execute(self, node: ast.Node) -> None:
        method = getattr(self, f"_exec_{type(node).__name__}", None)
        if method is None:
            raise QutesRuntimeError(f"cannot execute node {type(node).__name__}", node.line)
        method(node)

    def _exec_FunctionDeclaration(self, node: ast.FunctionDeclaration) -> None:
        # already registered by the declaration pass; nothing to execute.
        return

    def _exec_VarDeclaration(self, node: ast.VarDeclaration) -> None:
        value: Any = None
        if node.initializer is not None:
            value = self._evaluate(node.initializer)
            value = self.casting.coerce_for_declaration(value, node.type, node.name)
        else:
            value = self._default_value(node.type, node.name)
        symbol = self.symbols.declare(node.name, node.type, value, line=node.line)
        if isinstance(value, QuantumVariable):
            value.name = node.name
            symbol.value = value

    def _default_value(self, var_type: QutesType, name: str) -> Any:
        kind = var_type.kind
        if kind is TypeKind.BOOL:
            return False
        if kind is TypeKind.INT:
            return 0
        if kind is TypeKind.FLOAT:
            return 0.0
        if kind is TypeKind.STRING:
            return ""
        if kind is TypeKind.ARRAY:
            return []
        if kind is TypeKind.QUBIT:
            return self.casting.encode_bool(False, name)
        if kind is TypeKind.QUINT:
            return self.casting.encode_int(0, name, num_qubits=var_type.size)
        if kind is TypeKind.QUSTRING:
            return self.casting.encode_bitstring("0" * (var_type.size or 1), name)
        raise QutesTypeError(f"cannot default-initialise type {var_type}")

    def _exec_Block(self, node: ast.Block) -> None:
        self.symbols.push_scope()
        try:
            for statement in node.statements:
                self._execute(statement)
        finally:
            self.symbols.pop_scope()

    def _exec_If(self, node: ast.If) -> None:
        condition = self.casting.to_bool(self._evaluate(node.condition))
        if condition:
            self._execute(node.then_branch)
        elif node.else_branch is not None:
            self._execute(node.else_branch)

    def _exec_While(self, node: ast.While) -> None:
        iterations = 0
        while self.casting.to_bool(self._evaluate(node.condition)):
            self._execute(node.body)
            iterations += 1
            if iterations > MAX_LOOP_ITERATIONS:
                raise QutesRuntimeError("while loop exceeded the iteration limit", node.line)

    def _exec_DoWhile(self, node: ast.DoWhile) -> None:
        iterations = 0
        while True:
            self._execute(node.body)
            iterations += 1
            if not self.casting.to_bool(self._evaluate(node.condition)):
                break
            if iterations > MAX_LOOP_ITERATIONS:
                raise QutesRuntimeError("do-while loop exceeded the iteration limit", node.line)

    def _exec_Foreach(self, node: ast.Foreach) -> None:
        iterable = self._evaluate(node.iterable)
        if isinstance(iterable, QuantumVariable):
            raise QutesTypeError("foreach iterates over arrays or strings", node.line)
        if isinstance(iterable, str):
            items: List[Any] = list(iterable)
        elif isinstance(iterable, list):
            items = iterable
        else:
            raise QutesTypeError(
                f"cannot iterate over {type_of_python_value(iterable)}", node.line
            )
        for item in items:
            self.symbols.push_scope()
            try:
                self.symbols.declare(node.variable, type_of_python_value(item), item, line=node.line)
                self._execute(node.body)
            finally:
                self.symbols.pop_scope()

    def _exec_Return(self, node: ast.Return) -> None:
        value = self._evaluate(node.value) if node.value is not None else None
        raise _ReturnSignal(value)

    def _exec_Print(self, node: ast.Print) -> None:
        value = self._evaluate(node.value)
        rendered = self._render(value)
        self.output.append(rendered)

    def _render(self, value: Any) -> str:
        if isinstance(value, QuantumVariable):
            # printing a quantum variable requires a measurement (paper §5)
            measured = self.casting.measure_variable(value)
            return self._render(measured)
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return f"{value:g}"
        if isinstance(value, list):
            return "[" + ", ".join(self._render(v) for v in value) + "]"
        return str(value)

    def _exec_BarrierStatement(self, node: ast.BarrierStatement) -> None:
        self.handler.barrier()

    def _exec_ExpressionStatement(self, node: ast.ExpressionStatement) -> None:
        self._evaluate(node.expression)

    # -- expression dispatch -----------------------------------------------------------

    def _evaluate(self, node: ast.Node) -> Any:
        method = getattr(self, f"_eval_{type(node).__name__}", None)
        if method is None:
            raise QutesRuntimeError(f"cannot evaluate node {type(node).__name__}", node.line)
        return method(node)

    def _eval_Literal(self, node: ast.Literal) -> Any:
        return node.value

    def _eval_QuantumLiteral(self, node: ast.QuantumLiteral) -> QuantumVariable:
        if node.type.kind is TypeKind.QUINT:
            return self.casting.encode_int(node.value, name="qlit")
        if node.type.kind is TypeKind.QUSTRING:
            return self.casting.encode_bitstring(node.value, name="qslit")
        raise QutesTypeError(f"unsupported quantum literal type {node.type}", node.line)

    def _eval_KetLiteral(self, node: ast.KetLiteral) -> QuantumVariable:
        return self.casting.encode_ket(node.state, name="ket")

    def _eval_ArrayLiteral(self, node: ast.ArrayLiteral) -> List[Any]:
        return [self._evaluate(element) for element in node.elements]

    def _eval_Identifier(self, node: ast.Identifier) -> Any:
        symbol = self.symbols.resolve(node.name, line=node.line)
        return symbol.value

    def _eval_Unary(self, node: ast.Unary) -> Any:
        return self.operations.unary(node.operator, self._evaluate(node.operand))

    def _eval_GateApplication(self, node: ast.GateApplication) -> Any:
        operand = self._evaluate(node.operand)
        if node.gate == "measure":
            if isinstance(operand, QuantumVariable):
                return self.casting.measure_variable(operand)
            if isinstance(operand, list):
                return self.casting.to_classical(operand)
            return operand
        return self.operations.apply_gate_keyword(node.gate, operand)

    def _eval_Binary(self, node: ast.Binary) -> Any:
        left = self._evaluate(node.left)
        right = self._evaluate(node.right)
        return self.operations.binary(node.operator, left, right)

    def _eval_Logical(self, node: ast.Logical) -> Any:
        left = self._evaluate(node.left)
        return self.operations.logical(node.operator, left, lambda: self._evaluate(node.right))

    def _eval_Comparison(self, node: ast.Comparison) -> bool:
        left = self._evaluate(node.left)
        right = self._evaluate(node.right)
        return self.operations.compare(node.operator, left, right)

    def _eval_InExpression(self, node: ast.InExpression) -> bool:
        needle = self._evaluate(node.needle)
        haystack = self._evaluate(node.haystack)
        if isinstance(haystack, list):
            # classical membership over arrays
            classical_needle = self.casting.to_classical(needle)
            return classical_needle in [self.casting.to_classical(item) for item in haystack]
        return self.operations.membership(needle, haystack)

    def _eval_ShiftExpression(self, node: ast.ShiftExpression) -> Any:
        value = self._evaluate(node.value)
        amount = self._evaluate(node.amount)
        return self.operations.cyclic_shift(node.operator, value, amount)

    def _eval_IndexAccess(self, node: ast.IndexAccess) -> Any:
        collection = self._evaluate(node.collection)
        index = self.casting.to_int(self._evaluate(node.index))
        if isinstance(collection, QuantumVariable):
            # indexing a quantum register yields a single-qubit view sharing
            # the underlying qubit, so gates applied to it affect the parent.
            if not 0 <= index < collection.size:
                raise QutesRuntimeError(
                    f"index {index} out of range for {collection.type} of {collection.size} qubits",
                    node.line,
                )
            return QuantumVariable(
                name=f"{collection.name}[{index}]",
                type=QutesType.qubit(),
                qubits=[collection.qubits[index]],
            )
        if isinstance(collection, list):
            if not 0 <= index < len(collection):
                raise QutesRuntimeError(
                    f"index {index} out of range for array of length {len(collection)}", node.line
                )
            return collection[index]
        if isinstance(collection, str):
            if not 0 <= index < len(collection):
                raise QutesRuntimeError(
                    f"index {index} out of range for string of length {len(collection)}", node.line
                )
            return collection[index]
        raise QutesTypeError(
            f"cannot index a value of type {type_of_python_value(collection)}", node.line
        )

    def _eval_Assignment(self, node: ast.Assignment) -> Any:
        value = self._evaluate(node.value)
        target = node.target
        if isinstance(target, ast.Identifier):
            symbol = self.symbols.resolve(target.name, line=node.line)
            coerced = self.casting.coerce_for_declaration(value, symbol.type, target.name)
            if isinstance(coerced, QuantumVariable):
                coerced.name = target.name
            symbol.value = coerced
            return coerced
        if isinstance(target, ast.IndexAccess):
            collection = self._evaluate(target.collection)
            index = self.casting.to_int(self._evaluate(target.index))
            if not isinstance(collection, list):
                raise QutesTypeError("only array elements can be assigned by index", node.line)
            if not 0 <= index < len(collection):
                raise QutesRuntimeError(
                    f"index {index} out of range for array of length {len(collection)}", node.line
                )
            collection[index] = value
            return value
        raise QutesTypeError("invalid assignment target", node.line)

    def _eval_Call(self, node: ast.Call) -> Any:
        if not isinstance(node.callee, ast.Identifier):
            raise QutesTypeError("only named functions can be called", node.line)
        name = node.callee.name
        arguments = [self._evaluate(arg) for arg in node.arguments]
        if name in self._builtins and not self.symbols.has_function(name):
            return self._builtins[name](*arguments)
        function = self.symbols.resolve_function(name, line=node.line)
        return self._call_function(function, arguments, node.line)

    def _call_function(self, function: FunctionSymbol, arguments: List[Any], line: int) -> Any:
        if len(arguments) != function.arity:
            raise QutesTypeError(
                f"function {function.name!r} expects {function.arity} argument(s), "
                f"got {len(arguments)}",
                line,
            )
        # Function scopes chain off the global scope (lexical, not dynamic).
        caller_scope = self.symbols.current_scope
        self.symbols._current = self.symbols.global_scope
        self.symbols.push_scope()
        try:
            for parameter, argument in zip(function.parameters, arguments):
                bound = argument
                if isinstance(argument, QuantumVariable) or isinstance(argument, list):
                    # quantum values and arrays are passed by reference (paper §4)
                    bound = argument
                else:
                    bound = self.casting.coerce_for_declaration(
                        argument, parameter.type, parameter.name
                    )
                self.symbols.declare(parameter.name, parameter.type, bound, line=line)
            try:
                for statement in function.body.statements:
                    self._execute(statement)
            except _ReturnSignal as signal:
                return self._coerce_return(function, signal.value, line)
            return self._coerce_return(function, None, line)
        finally:
            self.symbols.pop_scope()
            self.symbols._current = caller_scope

    def _coerce_return(self, function: FunctionSymbol, value: Any, line: int) -> Any:
        if function.return_type.kind is TypeKind.VOID:
            return None
        if value is None:
            raise QutesTypeError(
                f"function {function.name!r} must return a value of type {function.return_type}",
                line,
            )
        return self.casting.coerce_for_declaration(value, function.return_type, function.name)

    # -- builtins ------------------------------------------------------------------------

    def _builtin_size(self, value: Any = None) -> int:
        """``size(x)``: number of qubits of a quantum value or length of an array/string."""
        if isinstance(value, QuantumVariable):
            return value.size
        if isinstance(value, (list, str)):
            return len(value)
        raise QutesTypeError("size() expects a quantum variable, array or string")

    def _builtin_sample(self, value: Any = None, shots: Any = None) -> Any:
        """``sample(x[, shots])``: most frequent measured value without collapsing ``x``."""
        if not isinstance(value, QuantumVariable):
            return value
        shots_int = self.casting.to_int(shots) if shots is not None else self.shots
        if shots_int <= 0:
            raise QutesRuntimeError(f"sample() needs a positive shot count, got {shots_int}")
        histogram = self.casting.peek_variable(value, shots=shots_int)
        best = max(histogram.items(), key=lambda kv: kv[1])[0]
        return best

    def _builtin_depth(self) -> int:
        """``depth()``: depth of the circuit logged so far."""
        return self.handler.depth()

    def _builtin_gate_count(self) -> int:
        """``gate_count()``: number of logged instructions."""
        return self.handler.size()

    def _builtin_qasm(self) -> str:
        """``qasm()``: OpenQASM 2.0 text of the circuit logged so far."""
        from ..qsim.qasm import to_qasm

        return to_qasm(self.handler.circuit)

    def _builtin_to_int(self, value: Any = None) -> int:
        """``to_int(x)``: coerce (measuring quantum operands) to an integer."""
        return self.casting.to_int(value)

    def _builtin_to_bool(self, value: Any = None) -> bool:
        """``to_bool(x)``: coerce (measuring quantum operands) to a boolean."""
        return self.casting.to_bool(value)

    def _builtin_cx(self, control: Any = None, target: Any = None) -> Any:
        """``cx(control, target)``: pairwise controlled-X between two registers."""
        return self.operations.two_qubit_gate("cx", control, target)

    def _builtin_cz(self, control: Any = None, target: Any = None) -> Any:
        """``cz(control, target)``: pairwise controlled-Z between two registers."""
        return self.operations.two_qubit_gate("cz", control, target)

    def _builtin_swap(self, left: Any = None, right: Any = None) -> Any:
        """``swap(a, b)``: pairwise SWAP between two equally sized registers."""
        return self.operations.two_qubit_gate("swap", left, right)

    def _collect_int_values(self, values: Any, builtin: str) -> List[int]:
        if not isinstance(values, list) or not values:
            raise QutesTypeError(f"{builtin}() expects a non-empty array")
        return [self.casting.to_int(v) for v in values]

    def _builtin_min_of(self, values: Any = None) -> int:
        """``min_of(xs)``: minimum of an array via Dürr--Høyer quantum search."""
        from ..algorithms.minimum_finding import find_minimum

        ints = self._collect_int_values(values, "min_of")
        result = find_minimum(
            ints, seed=int(self.handler.rng.integers(0, 2**31)), backend=self.backend
        )
        return result.value if result.success else min(ints)

    def _builtin_max_of(self, values: Any = None) -> int:
        """``max_of(xs)``: maximum of an array via Dürr--Høyer quantum search."""
        from ..algorithms.minimum_finding import find_maximum

        ints = self._collect_int_values(values, "max_of")
        result = find_maximum(
            ints, seed=int(self.handler.rng.integers(0, 2**31)), backend=self.backend
        )
        return result.value if result.success else max(ints)
