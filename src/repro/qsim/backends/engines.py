"""The built-in backends: statevector, density matrix and stabilizer.

All are thin adapters over
:class:`~repro.qsim.simulator.StatevectorSimulator`,
:class:`~repro.qsim.density.DensityMatrixSimulator` and
:class:`~repro.qsim.stabilizer.StabilizerSimulator`, and differ only in
their ``name`` and engine class: each is built from ``(seed=None,
noise_model=None)``, holds a template engine built from the same two
arguments, and builds a freshly seeded copy of it for a seeded experiment;
:meth:`Backend._run_experiment <repro.qsim.backends.backend.Backend._run_experiment>`
does the rest.  An unseeded experiment runs on the template engine itself,
preserving the sequential RNG stream that the algorithm drivers and their
regression seeds rely on.
"""

from __future__ import annotations

from typing import Any, Optional, Union

from ..density import DensityMatrixSimulator
from ..exceptions import BackendError
from ..noise import DEFAULT_NOISE_CHANNEL, NOISE_CHANNELS, NoiseModel
from ..simulator import StatevectorSimulator
from ..stabilizer import StabilizerSimulator
from .backend import Backend

__all__ = [
    "StatevectorBackend",
    "DensityMatrixBackend",
    "StabilizerBackend",
    "resolve_backend",
    "build_noisy_backend",
    "NOISE_CHANNELS",
]

class _EngineBackend(Backend):
    """A built-in backend: its engine is ``engine_class(seed=, noise_model=)``."""

    engine_class: type

    def __init__(self, seed: Optional[int] = None, noise_model: Optional[NoiseModel] = None):
        self._engine = self.engine_class(seed=seed, noise_model=noise_model)

    def _fresh_engine(self, seed: int) -> Any:
        # seeded experiments must carry the template's noise model, or a
        # noisy backend would silently run noiseless under a seed
        return self.engine_class(seed=seed, noise_model=self._engine.noise_model)


class StatevectorBackend(_EngineBackend):
    """Dense statevector execution behind the unified backend API.

    An unseeded experiment draws from the engine's own RNG, so ``seed``
    alone makes a backend reproducible.

    Final-measurement circuits without noise are sampled from one evolved
    state; every other run (Pauli noise, mid-circuit measurement, reset,
    classical conditions) evolves its shots on the batched trajectory
    executor of :mod:`repro.qsim.shotbatch`.  Noiseless runs are fused by
    :func:`repro.qsim.simulator.prepare`.  A noise model that is not a
    Pauli channel raises :class:`BackendError` naming the density-matrix
    backend, which runs any Kraus channel exactly.
    """

    name = "statevector"
    engine_class = StatevectorSimulator


class DensityMatrixBackend(_EngineBackend):
    """Exact density-matrix execution behind the unified backend API.

    ``noise_model`` is applied exactly, as on :class:`DensityMatrixSimulator`,
    whose run metadata (``method``, ``branches``) also tags the run span.
    """

    name = "density_matrix"
    engine_class = DensityMatrixSimulator


class StabilizerBackend(_EngineBackend):
    """Polynomial-time Clifford execution behind the unified backend API.

    Wraps :class:`~repro.qsim.stabilizer.StabilizerSimulator` (CHP tableau
    with deferred affine sampling), so Clifford circuits on hundreds of
    qubits run in milliseconds.  Submitting a non-Clifford circuit raises a
    clean :class:`BackendError` naming the offending instruction; use
    :func:`repro.qsim.transpiler.is_clifford` to pre-check.

    ``noise_model`` injects a single-qubit **Pauli** channel
    (:class:`~repro.qsim.noise.BitFlipNoise`,
    :class:`~repro.qsim.noise.PhaseFlipNoise`,
    :class:`~repro.qsim.noise.DepolarizingNoise`) after every unitary
    instruction -- as on every engine, but still polynomial because Pauli
    errors ride the tableau's symbolic phases; see ``docs/noise.md``.
    """

    name = "stabilizer"
    engine_class = StabilizerSimulator


def build_noisy_backend(
    name: Optional[str],
    p: Optional[float],
    channel: str = DEFAULT_NOISE_CHANNEL,
    seed: Optional[int] = None,
) -> Backend:
    """Instantiate backend *name* with noise *channel* at probability *p*.

    The one builder of a run described by flags or a payload (the CLI, a
    service job, the algorithm drivers).  ``p=None`` is a noiseless run and
    delegates to :func:`resolve_backend`.  *name* may be ``None``
    (``statevector``).  Raises :class:`SimulationError` for an unknown
    channel or a probability outside [0, 1] and :class:`BackendError` for a
    backend that takes no ``noise_model``.
    """
    from .registry import get_backend

    if p is None:
        return resolve_backend(name, default_seed=seed)
    noise_model = NOISE_CHANNELS[channel](p)
    name = name or "statevector"
    try:
        return get_backend(name, seed=seed, noise_model=noise_model)
    except TypeError as exc:
        raise BackendError(
            f"backend {name!r} does not support noise injection: {exc}"
        ) from exc


def resolve_backend(
    backend: Union["Backend", str, None],
    default_seed: Optional[int] = None,
) -> Backend:
    """Normalise a driver's ``backend=`` argument.

    *backend* is a :class:`Backend` instance or a registry name; with
    ``None``, a statevector backend seeded with *default_seed* is built --
    the drivers' historical default behaviour.
    """
    if backend is None:
        return StatevectorBackend(seed=default_seed)
    if isinstance(backend, str):
        from .registry import get_backend

        # a registry name must behave like backend=None with that engine:
        # the driver's seed still seeds it, or reproducibility silently dies
        if default_seed is not None:
            return get_backend(backend, seed=default_seed)
        return get_backend(backend)
    if not isinstance(backend, Backend):
        raise BackendError(f"cannot use {type(backend).__name__} as a backend")
    return backend
