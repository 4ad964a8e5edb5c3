"""User-facing compile / run API of the Qutes implementation.

``run_source`` is the one-call entry point used by the CLI, the examples and
the benchmarks: it parses, type-checks (via the declaration pass) and executes
a program, returning a :class:`QutesExecutionResult` that bundles the printed
output, final variable bindings, the logged quantum circuit and its metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Optional

from ..qsim.circuit import QuantumCircuit
from . import ast_nodes as ast
from .interpreter import Interpreter
from .parser import parse

__all__ = [
    "CompiledProgram",
    "QutesExecutionResult",
    "parse_source",
    "compile_source",
    "run_source",
    "run_file",
]


@dataclass
class CompiledProgram:
    """A parsed (and declaration-checked) Qutes program."""

    source: str
    ast: ast.Program

    def run(
        self, shots: int = 1024, seed: Optional[int] = None, backend=None
    ) -> "QutesExecutionResult":
        """Execute the compiled program.

        *backend* (a :class:`repro.qsim.backends.Backend` instance or a
        registry name such as ``"stabilizer"``) is the engine that runs the
        whole program: every gate goes to its session, and ``sample``,
        ``min_of`` and ``max_of`` run on it too.  ``None`` means a fresh
        statevector backend.
        """
        return _execute(self.source, self.ast, shots=shots, seed=seed, backend=backend)


@dataclass
class QutesExecutionResult:
    """Everything produced by one execution of a Qutes program."""

    output: List[str]
    variables: Dict[str, Any]
    circuit: QuantumCircuit
    measurements: List[Dict[str, Any]]
    gate_counts: Dict[str, int] = field(default_factory=dict)
    num_qubits: int = 0
    #: how the program was computed: ``engine`` (the backend's name) and
    #: ``method`` (``"session"``)
    metadata: Dict[str, Any] = field(default_factory=dict)

    @cached_property
    def depth(self) -> int:
        """Depth of the logged circuit, computed when first read."""
        return self.circuit.depth()

    @property
    def printed(self) -> str:
        """The program's print output joined with newlines."""
        return "\n".join(self.output)

    def variable(self, name: str) -> Any:
        """Final value of the top-level variable *name*."""
        return self.variables[name]

    def __repr__(self) -> str:
        return (
            f"QutesExecutionResult(qubits={self.num_qubits}, depth={self.depth}, "
            f"prints={len(self.output)})"
        )


def parse_source(source: str) -> ast.Program:
    """Parse Qutes *source* and return its AST."""
    return parse(source)


def compile_source(source: str) -> CompiledProgram:
    """Parse *source* into a reusable :class:`CompiledProgram`."""
    return CompiledProgram(source=source, ast=parse(source))


def _execute(
    source: str,
    tree: ast.Program,
    shots: int,
    seed: Optional[int],
    backend=None,
) -> QutesExecutionResult:
    interpreter = Interpreter(shots=shots, seed=seed, backend=backend)
    interpreter.run(tree)
    variables: Dict[str, Any] = {}
    for name, symbol in interpreter.symbols.global_scope.symbols.items():
        value = symbol.value
        variables[name] = value
    return QutesExecutionResult(
        output=list(interpreter.output),
        variables=variables,
        circuit=interpreter.handler.circuit,
        measurements=list(interpreter.handler.measurements),
        gate_counts=interpreter.handler.gate_counts(),
        num_qubits=interpreter.handler.num_qubits,
        metadata={"engine": interpreter.handler.backend.name, "method": "session"},
    )


def run_source(
    source: str, shots: int = 1024, seed: Optional[int] = None, backend=None
) -> QutesExecutionResult:
    """Parse and execute Qutes *source* text.

    *backend* (a :class:`repro.qsim.backends.Backend` or registry name)
    selects the engine that runs the program (see :meth:`CompiledProgram.run`).
    """
    return _execute(source, parse(source), shots=shots, seed=seed, backend=backend)


def run_file(
    path: str, shots: int = 1024, seed: Optional[int] = None, backend=None
) -> QutesExecutionResult:
    """Parse and execute the Qutes program stored at *path*."""
    with open(path, "r", encoding="utf-8") as handle:
        return run_source(handle.read(), shots=shots, seed=seed, backend=backend)
