"""Reproduction of "Qutes: A High-Level Quantum Programming Language for
Simplified Quantum Computing" (Faro, Marino, Messina -- HPDC 2025).

Layout
------
* :mod:`repro.qsim` -- NumPy statevector simulator, circuit IR, transpiler and
  OpenQASM export (the substrate replacing Qiskit / Aer).
* :mod:`repro.arithmetic` -- quantum adders, comparator, multiplier, QFT and
  the constant-depth cyclic-rotation construction.
* :mod:`repro.algorithms` -- Grover search (incl. substring search),
  Deutsch--Jozsa, entanglement swapping, phase estimation, state preparation.
* :mod:`repro.lang` -- the Qutes language itself: lexer, parser, type system,
  ``QuantumCircuitHandler``, ``TypeCastingHandler`` and the two-pass
  interpreter (the paper's primary contribution).
* :mod:`repro.cli` -- the ``qutes`` command-line runner.

Quickstart
----------
>>> from repro import run_source
>>> result = run_source('''
...     quint a = 5q;
...     quint b = 3q;
...     quint c = a + b;
...     print c;
... ''', seed=1)
>>> result.printed
'8'
"""

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "run_source",
    "run_file",
    "compile_source",
    "parse_source",
    "CompiledProgram",
    "QutesExecutionResult",
    "QutesError",
    "QutesSyntaxError",
    "QutesTypeError",
    "QutesNameError",
    "QutesRuntimeError",
]


def __getattr__(name: str):
    # PEP 562: the language front end loads on first use, so importing a
    # subpackage such as repro.qsim does not pull in repro.lang
    if name in __all__:
        from . import lang

        value = getattr(lang, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
