"""Quantum and classical registers.

A register is an ordered, named collection of bits.  Bits are value objects:
two ``Qubit`` instances are equal when they refer to the same index of the
same register, which lets circuits freely re-create bit handles.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List

from .exceptions import RegisterError

__all__ = ["QuantumRegister", "ClassicalRegister", "Qubit", "Clbit"]

_anonymous_counter = itertools.count()


class _Bit:
    """A single addressable bit inside a register."""

    __slots__ = ("register", "index", "_hash")

    def __init__(self, register: "_Register", index: int):
        self.register = register
        self.index = index
        # bits never change after their register builds them: hash them once
        self._hash = hash((id(register), index, type(self).__name__))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.register is other.register and self.index == other.index

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.register.name!r}, {self.index})"


class Qubit(_Bit):
    """A single qubit belonging to a :class:`QuantumRegister`."""


class Clbit(_Bit):
    """A single classical bit belonging to a :class:`ClassicalRegister`."""


class _Register:
    """Common behaviour of quantum and classical registers."""

    bit_type = _Bit
    prefix = "r"

    def __init__(self, size: int, name: str | None = None):
        if not isinstance(size, int) or size <= 0:
            raise RegisterError(f"register size must be a positive int, got {size!r}")
        if name is None:
            name = f"{self.prefix}{next(_anonymous_counter)}"
        if not name or not isinstance(name, str):
            raise RegisterError(f"invalid register name {name!r}")
        self.name = name
        self.size = size
        self._bits: List[_Bit] = [self.bit_type(self, i) for i in range(size)]

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, index):
        return self._bits[index]

    def __iter__(self) -> Iterator[_Bit]:
        return iter(self._bits)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self is other

    def __hash__(self) -> int:
        return id(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.size}, {self.name!r})"


class QuantumRegister(_Register):
    """An ordered collection of qubits, addressed little-endian.

    ``register[0]`` is the least-significant qubit when the register encodes
    an integer, mirroring the convention of the original Qutes/Qiskit stack.
    """

    bit_type = Qubit
    prefix = "q"


class ClassicalRegister(_Register):
    """An ordered collection of classical bits used to store measurements."""

    bit_type = Clbit
    prefix = "c"
