"""Gate matrix library.

All matrices follow the *textbook* tensor convention used throughout this
package: for an operation applied to qubits ``(q0, q1, ..., qk-1)`` the
matrix row/column index is the bitstring ``q0 q1 ... qk-1`` read with ``q0``
as the **most significant bit**.  With that convention a controlled gate with
the control listed first is simply ``|0><0| (x) I + |1><1| (x) U``.

The module exposes:

* constants for the common 1- and 2-qubit gates (``H``, ``X``, ``CX``, ...),
* parametric constructors (:func:`rx`, :func:`ry`, :func:`rz`, :func:`phase`,
  :func:`u3`, ...),
* combinators (:func:`controlled`, :func:`expand`) used by the circuit IR and
  the transpiler,
* :data:`GATE_REGISTRY`, mapping canonical gate names to a :class:`GateSpec`
  (arity, parameter count, matrix): the one gate table, which the circuit
  IR, the simulator and the OpenQASM tables all read.
"""

from __future__ import annotations

import cmath
import functools
import math
import struct
from typing import Callable, Dict, NamedTuple, Sequence, Union

import numpy as np

__all__ = [
    "I1",
    "X",
    "Y",
    "Z",
    "H",
    "S",
    "SDG",
    "T",
    "TDG",
    "SX",
    "CX",
    "CY",
    "CZ",
    "CH",
    "SWAP",
    "ISWAP",
    "CCX",
    "CSWAP",
    "rx",
    "ry",
    "rz",
    "phase",
    "u2",
    "u3",
    "crx",
    "cry",
    "crz",
    "cphase",
    "rxx",
    "ryy",
    "rzz",
    "controlled",
    "expand",
    "is_unitary",
    "gate_matrix",
    "GateSpec",
    "GATE_REGISTRY",
]

_SQRT2_INV = 1.0 / math.sqrt(2.0)

# ---------------------------------------------------------------------------
# Fixed gates
# ---------------------------------------------------------------------------

I1 = np.eye(2, dtype=complex)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[_SQRT2_INV, _SQRT2_INV], [_SQRT2_INV, -_SQRT2_INV]], dtype=complex)
S = np.array([[1, 0], [0, 1j]], dtype=complex)
SDG = S.conj().T
T = np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=complex)
TDG = T.conj().T
SX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)


def is_unitary(matrix: np.ndarray, atol: float = 1e-10) -> bool:
    """Return ``True`` if *matrix* is unitary within tolerance *atol*."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    ident = np.eye(matrix.shape[0])
    return bool(np.allclose(matrix.conj().T @ matrix, ident, atol=atol))


def controlled(matrix: np.ndarray, num_controls: int = 1) -> np.ndarray:
    """Return the controlled version of *matrix* with *num_controls* controls.

    Controls occupy the most-significant index bits, i.e. the returned matrix
    acts on qubits ``(c0, ..., c_{m-1}, t0, ..., t_{k-1})`` in the package's
    ordering convention.
    """
    if num_controls < 0:
        raise ValueError("num_controls must be non-negative")
    result = np.asarray(matrix, dtype=complex)
    for _ in range(num_controls):
        dim = result.shape[0]
        out = np.eye(2 * dim, dtype=complex)
        out[dim:, dim:] = result
        result = out
    return result


def expand(*matrices: np.ndarray) -> np.ndarray:
    """Kronecker product of the given matrices, left factor most significant."""
    result = np.array([[1.0 + 0.0j]])
    for matrix in matrices:
        result = np.kron(result, np.asarray(matrix, dtype=complex))
    return result


CX = controlled(X)
CY = controlled(Y)
CZ = controlled(Z)
CH = controlled(H)
CCX = controlled(X, 2)

SWAP = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)
ISWAP = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 1j, 0],
        [0, 1j, 0, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)
CSWAP = controlled(SWAP)


# ---------------------------------------------------------------------------
# Parametric gates
# ---------------------------------------------------------------------------

def rx(theta: float) -> np.ndarray:
    """Rotation of *theta* radians about the X axis."""
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def ry(theta: float) -> np.ndarray:
    """Rotation of *theta* radians about the Y axis."""
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz(theta: float) -> np.ndarray:
    """Rotation of *theta* radians about the Z axis."""
    return np.array(
        [[cmath.exp(-0.5j * theta), 0], [0, cmath.exp(0.5j * theta)]], dtype=complex
    )


def phase(lam: float) -> np.ndarray:
    """Diagonal phase gate ``diag(1, e^{i lam})``."""
    return np.array([[1, 0], [0, cmath.exp(1j * lam)]], dtype=complex)


def u2(phi: float, lam: float) -> np.ndarray:
    """Single-qubit gate ``U2(phi, lam)`` (a pi/2 rotation with two phases)."""
    return u3(math.pi / 2.0, phi, lam)


def u3(theta: float, phi: float, lam: float) -> np.ndarray:
    """Generic single-qubit rotation ``U3(theta, phi, lam)``."""
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    return np.array(
        [
            [c, -cmath.exp(1j * lam) * s],
            [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
        ],
        dtype=complex,
    )


def crx(theta: float) -> np.ndarray:
    """Controlled :func:`rx`."""
    return controlled(rx(theta))


def cry(theta: float) -> np.ndarray:
    """Controlled :func:`ry`."""
    return controlled(ry(theta))


def crz(theta: float) -> np.ndarray:
    """Controlled :func:`rz`."""
    return controlled(rz(theta))


def cphase(lam: float) -> np.ndarray:
    """Controlled :func:`phase`."""
    return controlled(phase(lam))


def _two_qubit_rotation(pauli: np.ndarray, theta: float) -> np.ndarray:
    generator = np.kron(pauli, pauli)
    eigvals, eigvecs = np.linalg.eigh(generator)
    return (eigvecs * np.exp(-0.5j * theta * eigvals)) @ eigvecs.conj().T


def rxx(theta: float) -> np.ndarray:
    """Two-qubit ``exp(-i theta XX / 2)`` interaction."""
    return _two_qubit_rotation(X, theta)


def ryy(theta: float) -> np.ndarray:
    """Two-qubit ``exp(-i theta YY / 2)`` interaction."""
    return _two_qubit_rotation(Y, theta)


def rzz(theta: float) -> np.ndarray:
    """Two-qubit ``exp(-i theta ZZ / 2)`` interaction."""
    return _two_qubit_rotation(Z, theta)


# ---------------------------------------------------------------------------
# Registry used by the circuit IR and the simulator
# ---------------------------------------------------------------------------

class GateSpec(NamedTuple):
    """A registry gate: its arity, its parameter count and its matrix, a
    constant for a fixed gate or a function of the parameters."""

    num_qubits: int
    num_params: int
    matrix: Union[np.ndarray, Callable[..., np.ndarray]]


#: The one gate table: canonical name -> :class:`GateSpec`.  The circuit IR
#: checks arities against it, and :mod:`repro.qsim.qasm` derives its qelib1
#: import and export tables from it.
GATE_REGISTRY: Dict[str, GateSpec] = {
    "id": GateSpec(1, 0, I1),
    "x": GateSpec(1, 0, X),
    "y": GateSpec(1, 0, Y),
    "z": GateSpec(1, 0, Z),
    "h": GateSpec(1, 0, H),
    "s": GateSpec(1, 0, S),
    "sdg": GateSpec(1, 0, SDG),
    "t": GateSpec(1, 0, T),
    "tdg": GateSpec(1, 0, TDG),
    "sx": GateSpec(1, 0, SX),
    "rx": GateSpec(1, 1, rx),
    "ry": GateSpec(1, 1, ry),
    "rz": GateSpec(1, 1, rz),
    "p": GateSpec(1, 1, phase),
    "u2": GateSpec(1, 2, u2),
    "u3": GateSpec(1, 3, u3),
    "cx": GateSpec(2, 0, CX),
    "cy": GateSpec(2, 0, CY),
    "cz": GateSpec(2, 0, CZ),
    "ch": GateSpec(2, 0, CH),
    "swap": GateSpec(2, 0, SWAP),
    "iswap": GateSpec(2, 0, ISWAP),
    "crx": GateSpec(2, 1, crx),
    "cry": GateSpec(2, 1, cry),
    "crz": GateSpec(2, 1, crz),
    "cp": GateSpec(2, 1, cphase),
    "rxx": GateSpec(2, 1, rxx),
    "ryy": GateSpec(2, 1, ryy),
    "rzz": GateSpec(2, 1, rzz),
    "ccx": GateSpec(3, 0, CCX),
    "cswap": GateSpec(3, 0, CSWAP),
}


def gate_matrix(name: str, params: Sequence[float] = ()) -> np.ndarray:
    """Look up the unitary matrix for gate *name* with the given *params*.

    A parametrised gate's matrix comes from a bounded memo keyed by the
    parameters' exact bits (``cp(0.0)`` and ``cp(-0.0)`` are two entries),
    so the engines, fusion and the Qutes session build each one once; like a
    fixed gate's constant, the array is shared and must not be written (the
    memo's are read-only).

    Multi-controlled ``x``/``z``/``p`` gates are resolved dynamically for
    names of the form ``mcx``, ``mcz`` and ``mcp`` -- the caller supplies the
    number of qubits via the instruction, so those are handled in
    :mod:`repro.qsim.instruction` instead.
    """
    try:
        spec = GATE_REGISTRY[name]
    except KeyError as exc:
        raise KeyError(f"unknown gate {name!r}") from exc
    if len(params) != spec.num_params:
        raise ValueError(
            f"gate {name!r} expects {spec.num_params} parameter(s), got {len(params)}"
        )
    if not spec.num_params:
        return spec.matrix
    return _memo_matrix(name, struct.pack(f"{spec.num_params}d", *params))


#: parametrised matrices the memo keeps: more than the distinct angles of a
#: 1000-gate random circuit, at well under 1 KB an entry
_MATRIX_MEMO_SIZE = 1024


@functools.lru_cache(maxsize=_MATRIX_MEMO_SIZE)
def _memo_matrix(name: str, bits: bytes) -> np.ndarray:
    matrix = GATE_REGISTRY[name].matrix(*struct.unpack(f"{len(bits) // 8}d", bits))
    matrix.setflags(write=False)
    return matrix
