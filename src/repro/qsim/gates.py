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
* :data:`GATE_REGISTRY`, mapping canonical gate names to their arity and
  matrix factory, which the simulator uses to resolve instructions.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, Dict, Optional, Sequence

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

def _fixed(matrix: np.ndarray) -> Callable[..., np.ndarray]:
    def factory(*params: float) -> np.ndarray:
        if params:
            raise ValueError("gate takes no parameters")
        return matrix

    return factory


def _parametric(func: Callable[..., np.ndarray], arity: int) -> Callable[..., np.ndarray]:
    def factory(*params: float) -> np.ndarray:
        if len(params) != arity:
            raise ValueError(f"gate expects {arity} parameter(s), got {len(params)}")
        return func(*params)

    return factory


#: Maps canonical gate names to ``(num_qubits, matrix_factory)``.
GATE_REGISTRY: Dict[str, tuple] = {
    "id": (1, _fixed(I1)),
    "x": (1, _fixed(X)),
    "y": (1, _fixed(Y)),
    "z": (1, _fixed(Z)),
    "h": (1, _fixed(H)),
    "s": (1, _fixed(S)),
    "sdg": (1, _fixed(SDG)),
    "t": (1, _fixed(T)),
    "tdg": (1, _fixed(TDG)),
    "sx": (1, _fixed(SX)),
    "rx": (1, _parametric(rx, 1)),
    "ry": (1, _parametric(ry, 1)),
    "rz": (1, _parametric(rz, 1)),
    "p": (1, _parametric(phase, 1)),
    "u2": (1, _parametric(u2, 2)),
    "u3": (1, _parametric(u3, 3)),
    "cx": (2, _fixed(CX)),
    "cy": (2, _fixed(CY)),
    "cz": (2, _fixed(CZ)),
    "ch": (2, _fixed(CH)),
    "swap": (2, _fixed(SWAP)),
    "iswap": (2, _fixed(ISWAP)),
    "crx": (2, _parametric(crx, 1)),
    "cry": (2, _parametric(cry, 1)),
    "crz": (2, _parametric(crz, 1)),
    "cp": (2, _parametric(cphase, 1)),
    "rxx": (2, _parametric(rxx, 1)),
    "ryy": (2, _parametric(ryy, 1)),
    "rzz": (2, _parametric(rzz, 1)),
    "ccx": (3, _fixed(CCX)),
    "cswap": (3, _fixed(CSWAP)),
}


def gate_matrix(name: str, params: Sequence[float] = ()) -> np.ndarray:
    """Look up the unitary matrix for gate *name* with the given *params*.

    Multi-controlled ``x``/``z``/``p`` gates are resolved dynamically for
    names of the form ``mcx``, ``mcz`` and ``mcp`` -- the caller supplies the
    number of qubits via the instruction, so those are handled in
    :mod:`repro.qsim.instruction` instead.
    """
    try:
        _, factory = GATE_REGISTRY[name]
    except KeyError as exc:
        raise KeyError(f"unknown gate {name!r}") from exc
    return factory(*params)
