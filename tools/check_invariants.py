#!/usr/bin/env python3
"""Repo invariant checker: an AST lint over ``src/`` enforcing seeded randomness
and one home for the qubit-to-axis mapping.

**Seeded randomness** (``INV101``/``INV102``/``INV103``): reproducibility is
a headline property of the simulator, so library code must draw randomness
from an explicitly threaded ``numpy.random.Generator`` -- never the stdlib
``random`` module, never the legacy global ``np.random.seed``/``np.random.rand``
API, and never an argument-less ``np.random.default_rng()`` (OS-entropy
seeding) unless the line opts out.

**One axis layout** (``INV201``): ``np.moveaxis``, ``np.transpose`` and
``np.swapaxes`` (and the ``transpose``/``swapaxes`` array methods) -- placing
qubits on tensor axes -- appear only in ``src/repro/qsim/kernels.py``, so no
engine, session, fusion pass or marginal keeps its own copy of that mapping.

A finding on a deliberate line is silenced by appending the marker comment::

    rng = np.random.default_rng()  # invariant: allow

Run from the repo root (CI does, after the corpus lint)::

    python tools/check_invariants.py [--root DIR]

Exit status: 0 when clean, 1 with one ``file:line:col: INVxxx: message``
per finding otherwise.  Tests: ``tests/test_invariants.py``.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import List, NamedTuple, Set

#: marker comment that silences every rule on its line
ALLOW_MARKER = "invariant: allow"

#: the seedable new-style pieces of ``np.random`` library code may touch
ALLOWED_NP_RANDOM = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64", "Philox", "SFC64"}
)


#: the one module that maps qubits to tensor axes (``INV201``)
AXIS_HOME = "src/repro/qsim/kernels.py"

#: what moves tensor axes (``INV201``): the numpy functions, and the array
#: methods of the same names
AXIS_FUNCTIONS = frozenset({"moveaxis", "transpose", "swapaxes"})
AXIS_METHODS = frozenset({"transpose", "swapaxes"})


class Finding(NamedTuple):
    path: str
    line: int
    col: int
    code: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code}: {self.message}"


def _allow_lines(source: str) -> Set[int]:
    """1-indexed lines carrying the ``# invariant: allow`` marker."""
    return {
        i for i, text in enumerate(source.splitlines(), start=1) if ALLOW_MARKER in text
    }


class _Checker(ast.NodeVisitor):
    def __init__(self, path: str, allow: Set[int]):
        self.path = path
        self.allow = allow
        self.numpy_aliases: Set[str] = set()
        self.findings: List[Finding] = []

    def _emit(self, node: ast.AST, code: str, message: str) -> None:
        line = getattr(node, "lineno", 0)
        if line in self.allow:
            return
        self.findings.append(
            Finding(self.path, line, getattr(node, "col_offset", 0) + 1, code, message)
        )

    # -- imports ---------------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "numpy":
                self.numpy_aliases.add(alias.asname or "numpy")
            if alias.name == "random" or alias.name.startswith("random."):
                self._emit(
                    node,
                    "INV101",
                    "stdlib 'random' is banned in library code; thread a seeded "
                    "numpy Generator instead",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random" and node.level == 0:
            self._emit(
                node,
                "INV101",
                "stdlib 'random' is banned in library code; thread a seeded "
                "numpy Generator instead",
            )
        if node.module == "numpy":
            for alias in node.names:
                if alias.name in AXIS_FUNCTIONS:
                    self._moves_axes(node, alias.name)
        self.generic_visit(node)

    # -- the qubit-to-axis mapping ---------------------------------------------

    def _moves_axes(self, node: ast.AST, name: str) -> None:
        if self.path != AXIS_HOME:
            self._emit(
                node,
                "INV201",
                f"{name} outside {AXIS_HOME}; map qubits to axes through "
                "repro.qsim.kernels (dense_apply, marginal, place, reorder_bits)",
            )

    # -- the legacy global np.random API ---------------------------------------

    def _is_numpy_attr(self, node: ast.AST, attr_path: List[str]) -> bool:
        """True when *node* is ``<numpy alias>.attr_path[0].attr_path[1]...``."""
        for attr in reversed(attr_path):
            if not (isinstance(node, ast.Attribute) and node.attr == attr):
                return False
            node = node.value
        return isinstance(node, ast.Name) and node.id in self.numpy_aliases

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr in AXIS_METHODS or self._is_numpy_attr(node, ["moveaxis"]):
            self._moves_axes(node, node.attr)
        if self._is_numpy_attr(node, ["random", node.attr]):
            if node.attr not in ALLOWED_NP_RANDOM:
                self._emit(
                    node,
                    "INV102",
                    f"legacy 'np.random.{node.attr}' uses the global seed state; "
                    "use a threaded np.random.default_rng(seed) Generator",
                )
        self.generic_visit(node)

    # -- unseeded randomness ---------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        if (
            not node.args
            and not node.keywords
            and (
                self._is_numpy_attr(node.func, ["random", "default_rng"])
                or (isinstance(node.func, ast.Name) and node.func.id == "default_rng")
            )
        ):
            self._emit(
                node,
                "INV103",
                "argument-less default_rng() seeds from OS entropy and breaks "
                "reproducibility; pass the run's seed through",
            )
        self.generic_visit(node)


def check_file(path: Path, rel: str) -> List[Finding]:
    """All findings for one source file (*rel* is the path printed)."""
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=rel)
    except SyntaxError as exc:
        return [
            Finding(rel, exc.lineno or 0, (exc.offset or 0), "INV000", f"syntax error: {exc.msg}")
        ]
    checker = _Checker(rel, _allow_lines(source))
    checker.visit(tree)
    return checker.findings


def check_tree(src_root: Path) -> List[Finding]:
    """Findings across every ``*.py`` under *src_root*, sorted by position."""
    findings: List[Finding] = []
    for path in sorted(src_root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        rel = str(path.relative_to(src_root.parent))
        findings.extend(check_file(path, rel))
    findings.sort(key=lambda f: (f.path, f.line, f.col))
    return findings


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=str(Path(__file__).resolve().parent.parent),
        help="repository root containing src/ (default: the checkout this "
        "script lives in)",
    )
    args = parser.parse_args(argv)
    src_root = Path(args.root) / "src"
    if not src_root.is_dir():
        print(f"error: no src/ directory under {args.root}", file=sys.stderr)
        return 2
    findings = check_tree(src_root)
    for finding in findings:
        print(finding.format())
    if findings:
        print(f"{len(findings)} invariant violation(s)", file=sys.stderr)
        return 1
    print(f"invariants hold across {src_root}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
