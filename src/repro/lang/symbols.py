"""Symbols and scoped symbol tables.

As in the original implementation, the first AST pass instantiates a
:class:`Symbol` for every declared name, carrying its type and scope; the
execution pass then binds runtime values to those symbols.  Scoping is
lexical with a simple stack of dictionaries; functions get their own scope
chain rooted at the global scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .errors import QutesNameError
from .types import QutesType

__all__ = ["Symbol", "FunctionSymbol", "Scope", "SymbolTable"]


@dataclass
class Symbol:
    """A declared variable.

    Attributes:
        name: the identifier.
        type: the declared Qutes type.
        scope_level: nesting depth of the declaring scope (0 = global).
        value: the runtime value currently bound to the symbol.
        declared_line: source line of the declaration (for diagnostics).
    """

    name: str
    type: QutesType
    scope_level: int = 0
    value: Any = None
    declared_line: Optional[int] = None

    def __repr__(self) -> str:
        return f"Symbol({self.name!r}: {self.type}, scope={self.scope_level})"


@dataclass
class FunctionSymbol:
    """A user-defined function registered during the declaration pass."""

    name: str
    return_type: QutesType
    parameters: List[Any]  # list of ast.Parameter
    body: Any  # ast.Block
    declared_line: Optional[int] = None

    @property
    def arity(self) -> int:
        return len(self.parameters)

    def __repr__(self) -> str:
        params = ", ".join(str(p.type) for p in self.parameters)
        return f"FunctionSymbol({self.name}({params}) -> {self.return_type})"


class Scope:
    """A single lexical scope: a mapping from names to symbols."""

    def __init__(self, level: int, parent: Optional["Scope"] = None):
        self.level = level
        self.parent = parent
        self.symbols: Dict[str, Symbol] = {}

    def declare(self, symbol: Symbol) -> Symbol:
        if symbol.name in self.symbols:
            raise QutesNameError(
                f"variable {symbol.name!r} is already declared in this scope",
                symbol.declared_line,
            )
        symbol.scope_level = self.level
        self.symbols[symbol.name] = symbol
        return symbol

    def resolve(self, name: str) -> Optional[Symbol]:
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope.symbols:
                return scope.symbols[name]
            scope = scope.parent
        return None


class SymbolTable:
    """A stack of scopes plus the global function registry."""

    def __init__(self) -> None:
        self.global_scope = Scope(0)
        self._current = self.global_scope
        self.functions: Dict[str, FunctionSymbol] = {}

    # -- scope management ---------------------------------------------------------

    @property
    def current_scope(self) -> Scope:
        return self._current

    @property
    def depth(self) -> int:
        return self._current.level

    def push_scope(self, parent: Optional[Scope] = None) -> Scope:
        """Enter a new scope (child of *parent*, default the current scope)."""
        base = parent if parent is not None else self._current
        self._current = Scope(base.level + 1, base)
        return self._current

    def pop_scope(self) -> Scope:
        """Leave the current scope and return to its parent."""
        if self._current.parent is None:
            raise QutesNameError("cannot pop the global scope")
        old = self._current
        self._current = self._current.parent
        return old

    # -- variables -------------------------------------------------------------------

    def declare(self, name: str, var_type: QutesType, value: Any = None,
                line: Optional[int] = None) -> Symbol:
        """Declare a new variable in the current scope."""
        symbol = Symbol(name=name, type=var_type, value=value, declared_line=line)
        return self._current.declare(symbol)

    def resolve(self, name: str, line: Optional[int] = None) -> Symbol:
        """Look *name* up through the enclosing scopes; raise if unknown."""
        symbol = self._current.resolve(name)
        if symbol is None:
            raise QutesNameError(f"undefined variable {name!r}", line)
        return symbol

    # -- functions -------------------------------------------------------------------

    def declare_function(self, function: FunctionSymbol) -> FunctionSymbol:
        if function.name in self.functions:
            raise QutesNameError(
                f"function {function.name!r} is already defined", function.declared_line
            )
        self.functions[function.name] = function
        return function

    def resolve_function(self, name: str, line: Optional[int] = None) -> FunctionSymbol:
        if name not in self.functions:
            raise QutesNameError(f"undefined function {name!r}", line)
        return self.functions[name]

    def has_function(self, name: str) -> bool:
        return name in self.functions
