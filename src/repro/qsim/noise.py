"""The one description of noise for every engine.

The original Qutes stack inherits noise modelling from Qiskit Aer.  Here a
:class:`NoiseModel` is one validated single-qubit channel, applied after
every unitary instruction to each qubit that instruction touched.  It holds
the channel's 2x2 Kraus operators and, for a Pauli channel, its exact
``(pauli, probability)`` terms, and every engine takes it as
``noise_model=``:

* the density-matrix engine builds its superoperator and its population
  map from :attr:`NoiseModel.kraus` and runs any channel exactly;
* the statevector engine's batched trajectory executor
  (:mod:`repro.qsim.shotbatch`) injects the Paulis of
  :meth:`NoiseModel.pauli_terms` on pre-drawn shot rows, and the stabilizer
  engine rides them on the tableau's symbolic phases (see
  :mod:`repro.qsim.stabilizer`).  Both refuse a model without Pauli terms
  with the one message of :func:`require_pauli`.

The channel is checked once, when the model is built; engines sample it only
in their ``run()``.  :data:`NOISE_CHANNELS` names the channels a run may be
described with (CLI flags, service payloads).  :func:`check_unfused` is the
one guard every ``run()`` calls against fused blocks, which would take one
error for a whole block.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import gates
from .exceptions import SimulationError

__all__ = [
    "NoiseModel",
    "BitFlipNoise",
    "PhaseFlipNoise",
    "DepolarizingNoise",
    "NOISE_CHANNELS",
    "DEFAULT_NOISE_CHANNEL",
    "bit_flip_kraus",
    "phase_flip_kraus",
    "depolarizing_kraus",
    "amplitude_damping_kraus",
]

#: ``(pauli, probability)`` pairs describing a single-qubit Pauli channel
PauliTerms = Tuple[Tuple[str, float], ...]

_PAULIS = {"X": gates.X, "Y": gates.Y, "Z": gates.Z}

#: ``P (x) P*`` per Pauli: the superoperator of a Pauli channel's terms
_PAULI_SUPEROPERATORS = {
    pauli: np.kron(matrix, matrix.conj()) for pauli, matrix in _PAULIS.items()
}

#: how far the Pauli probabilities may sum past 1 (floating-point residue)
_PAULI_SUM_TOLERANCE = 1e-12


# ---------------------------------------------------------------------------
# Kraus channel constructors (single qubit)
# ---------------------------------------------------------------------------

def bit_flip_kraus(p: float) -> List[np.ndarray]:
    """Bit-flip channel: X applied with probability *p*."""
    _check_probability(p)
    return [math.sqrt(1 - p) * gates.I1, math.sqrt(p) * gates.X]


def phase_flip_kraus(p: float) -> List[np.ndarray]:
    """Phase-flip channel: Z applied with probability *p*."""
    _check_probability(p)
    return [math.sqrt(1 - p) * gates.I1, math.sqrt(p) * gates.Z]


def depolarizing_kraus(p: float) -> List[np.ndarray]:
    """Depolarizing channel with error probability *p* (X, Y, Z equally likely)."""
    _check_probability(p)
    return [
        math.sqrt(1 - p) * gates.I1,
        math.sqrt(p / 3) * gates.X,
        math.sqrt(p / 3) * gates.Y,
        math.sqrt(p / 3) * gates.Z,
    ]


def amplitude_damping_kraus(gamma: float) -> List[np.ndarray]:
    """Amplitude damping (T1 decay) with decay probability *gamma*."""
    _check_probability(gamma)
    k0 = np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex)
    return [k0, k1]


def _check_probability(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise SimulationError("channel probability must be in [0, 1]")


# ---------------------------------------------------------------------------
# The noise model
# ---------------------------------------------------------------------------

def _checked_kraus(kraus_operators: Iterable[np.ndarray]) -> Tuple[np.ndarray, ...]:
    """The operators as complex 2x2 arrays, refused unless they form a
    trace-preserving (complete) single-qubit channel."""
    operators = tuple(np.asarray(kraus, dtype=complex) for kraus in kraus_operators)
    if not operators:
        raise SimulationError("a noise channel needs at least one Kraus operator")
    for kraus in operators:
        if kraus.shape != (2, 2):
            raise SimulationError(
                "a noise channel takes single-qubit (2x2) Kraus operators, applied "
                "independently to each qubit a gate touches; got an operator of "
                f"shape {kraus.shape}"
            )
    completeness = sum(kraus.conj().T @ kraus for kraus in operators)
    if not np.allclose(completeness, np.eye(2), atol=1e-8):
        raise SimulationError(
            "the Kraus operators are not complete (sum K^dagger K != I); the "
            "channel would not be trace-preserving"
        )
    return operators


def _checked_terms(terms: Iterable[Tuple[str, float]]) -> PauliTerms:
    """The terms as a tuple, refused on an unknown Pauli, a probability
    outside [0, 1] or probabilities summing past 1."""
    checked = tuple((pauli, p) for pauli, p in terms)
    for pauli, p in checked:
        if pauli not in _PAULIS:
            raise SimulationError(
                f"unknown Pauli {pauli!r} in a noise channel (expected X, Y or Z)"
            )
        if not 0.0 <= p <= 1.0:
            raise SimulationError(f"Pauli error probability {p!r} is not in [0, 1]")
    if sum(p for _, p in checked) > 1.0 + _PAULI_SUM_TOLERANCE:
        raise SimulationError("Pauli error probabilities sum to more than 1")
    return checked


class NoiseModel:
    """One single-qubit channel, applied after every unitary instruction to
    each qubit that instruction touched.

    *kraus* are the channel's 2x2 Kraus operators.  *pauli_terms*, when the
    channel is a Pauli channel, gives its exact ``(("X"|"Y"|"Z",
    probability), ...)`` terms, which the statevector and stabilizer engines
    sample; they must describe the same channel as *kraus*.  Everything is
    validated here, once: a bad channel raises :class:`SimulationError`
    before any engine sees it.
    """

    def __init__(
        self,
        kraus: Sequence[np.ndarray],
        pauli_terms: Optional[Iterable[Tuple[str, float]]] = None,
    ):
        terms = None if pauli_terms is None else _checked_terms(pauli_terms)
        self.kraus = _checked_kraus(kraus)
        if terms is not None:
            expected = max(0.0, 1.0 - sum(p for _, p in terms)) * np.eye(4)
            for pauli, p in terms:
                expected = expected + p * _PAULI_SUPEROPERATORS[pauli]
            stacked = np.stack(self.kraus)
            actual = np.einsum("kab,kcd->acbd", stacked, stacked.conj()).reshape(4, 4)
            if np.abs(actual - expected).max() > 1e-8:
                raise SimulationError("the Pauli terms do not describe the Kraus channel")
        self._pauli_terms = terms

    @classmethod
    def pauli(cls, x: float = 0.0, y: float = 0.0, z: float = 0.0) -> "NoiseModel":
        """The Pauli channel applying X, Y and Z with probabilities *x*, *y*, *z*."""
        terms = _checked_terms((("X", x), ("Y", y), ("Z", z)))
        identity = max(0.0, 1.0 - x - y - z)
        kraus = [math.sqrt(identity) * gates.I1]
        kraus += [math.sqrt(p) * _PAULIS[pauli] for pauli, p in terms]
        return cls(kraus, terms)

    def pauli_terms(self) -> Optional[PauliTerms]:
        """The channel as ``(("X"|"Y"|"Z", probability), ...)`` terms, or ``None``.

        The terms are the non-identity single-qubit Paulis the channel applies
        (independently per touched qubit) with their probabilities; the
        identity fills the remainder.  ``None`` means the channel is not a
        Pauli channel, so only the density-matrix engine can run it.
        """
        return self._pauli_terms


class BitFlipNoise(NoiseModel):
    """Independent bit-flip (X) errors with probability *p* per touched qubit."""

    def __init__(self, p: float):
        super().__init__(bit_flip_kraus(p), (("X", p),))
        self.p = p


class PhaseFlipNoise(NoiseModel):
    """Independent phase-flip (Z) errors with probability *p* per touched qubit."""

    def __init__(self, p: float):
        super().__init__(phase_flip_kraus(p), (("Z", p),))
        self.p = p


class DepolarizingNoise(NoiseModel):
    """Single-qubit depolarizing channel: X, Y or Z, each with probability *p*/3."""

    def __init__(self, p: float):
        super().__init__(depolarizing_kraus(p), (("X", p / 3), ("Y", p / 3), ("Z", p / 3)))
        self.p = p


class _ChannelTable(dict):
    """Channel name -> noise model class; an unknown name is refused."""

    def __missing__(self, name):
        raise SimulationError(f"unknown noise channel {name!r} (choose from {sorted(self)})")


#: the noise model of each channel name a run may give (``--noise-model``, a
#: payload's ``noise["channel"]``): ``NOISE_CHANNELS[channel](p)`` builds it
NOISE_CHANNELS = _ChannelTable(
    bit_flip=BitFlipNoise, phase_flip=PhaseFlipNoise, depolarizing=DepolarizingNoise
)
#: the channel of a run that gives a noise probability but names no channel
DEFAULT_NOISE_CHANNEL = "depolarizing"


# ---------------------------------------------------------------------------
# Run-time guards
# ---------------------------------------------------------------------------

def require_pauli(noise_model: NoiseModel) -> PauliTerms:
    """The Pauli terms of *noise_model*, for the engines that sample Pauli
    errors (statevector and stabilizer); one message refuses any other model."""
    terms = noise_model.pauli_terms()
    if terms is None:
        raise SimulationError(
            "noise model is not a single-qubit Pauli channel; run it on the "
            "density_matrix backend, which applies any Kraus channel exactly"
        )
    return terms


def check_unfused(circuit, noise_model: Optional[NoiseModel]) -> None:
    """Refuse a circuit with fused blocks under a noise model.

    The channel follows every unitary instruction, so a block fused from
    several gates (:func:`repro.qsim.fusion.fuse_gates`) would
    take one error where the gates it merged take one each.
    """
    if noise_model is None:
        return
    for instr in circuit.data:
        if getattr(instr.operation, "is_fused_block", False):
            raise SimulationError(
                "cannot run a fused circuit under a noise model: noise follows "
                "every gate, so a fused block would take one error for all the "
                "gates it merged; pass the unfused circuit instead"
            )
