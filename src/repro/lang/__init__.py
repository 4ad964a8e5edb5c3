"""The Qutes language: lexer, parser, type system, and hybrid runtime.

This package is the reproduction of the paper's primary contribution.  The
pipeline mirrors the one described in Section 3 of the paper:

1. :mod:`repro.lang.lexer` + :mod:`repro.lang.parser` turn source text into an
   AST (:mod:`repro.lang.ast_nodes`), replacing the ANTLR-generated parser.
2. A first pass (:class:`repro.lang.interpreter.SymbolDeclarationPass`)
   instantiates :class:`~repro.lang.symbols.Symbol` objects with type and
   scope information.
3. A second pass (:class:`repro.lang.interpreter.Interpreter`) executes the
   program: classical operations run directly in Python, quantum operations
   are logged by the :class:`~repro.lang.circuit_handler.QuantumCircuitHandler`
   and applied to the live session of the program's execution backend.
4. The :class:`~repro.lang.casting.TypeCastingHandler` mediates every
   classical <-> quantum conversion (encoding values into registers,
   automatic measurement when quantum data meets classical context).

The user-facing entry points are re-exported from :mod:`repro.lang.compiler`.
"""

from .errors import (
    QutesError,
    QutesNameError,
    QutesRuntimeError,
    QutesSyntaxError,
    QutesTypeError,
)
from .types import QutesType, TypeKind
from .compiler import (
    CompiledProgram,
    QutesExecutionResult,
    compile_source,
    parse_source,
    run_file,
    run_source,
)

__all__ = [
    "QutesError",
    "QutesSyntaxError",
    "QutesTypeError",
    "QutesNameError",
    "QutesRuntimeError",
    "QutesType",
    "TypeKind",
    "CompiledProgram",
    "QutesExecutionResult",
    "compile_source",
    "parse_source",
    "run_source",
    "run_file",
]
