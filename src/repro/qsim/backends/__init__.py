"""Unified Backend / Job / Result execution API.

One stable contract over every simulation engine::

    from repro.qsim.backends import get_backend

    backend = get_backend("statevector", seed=7)
    job = backend.run([qc1, qc2, qc3], shots=1024, seed=42)
    result = job.result()
    for experiment in result:
        print(experiment.name, experiment.counts)

* :mod:`~repro.qsim.backends.backend` -- the :class:`Backend` ABC with
  argument validation, batching, seed resolution and the one experiment
  runner,
* :mod:`~repro.qsim.backends.job` -- :class:`Job`, a finished batch whose
  ``result()`` returns the :class:`Result` or raises the batch's error,
* :class:`Result` + :class:`ExperimentResult` (bitstring counts,
  probabilities, optional state, timing metadata), re-exported from
  :mod:`repro.qsim.result`,
* :mod:`~repro.qsim.backends.engines` -- :class:`StatevectorBackend`,
  :class:`DensityMatrixBackend`, :class:`StabilizerBackend` and the driver
  helper :func:`resolve_backend`,
* :mod:`~repro.qsim.backends.registry` -- :func:`get_backend`,
  :func:`list_backends`, :func:`register_backend`.

See ``docs/backends.md`` for the full contract and the guide to plugging in
a third-party engine.
"""

from .backend import Backend
from .job import Job
from ..result import ExperimentResult, Result
from .engines import (
    NOISE_CHANNELS,
    DensityMatrixBackend,
    StabilizerBackend,
    StatevectorBackend,
    build_noisy_backend,
    resolve_backend,
)
from .registry import get_backend, list_backends, register_backend

__all__ = [
    "Backend",
    "Job",
    "ExperimentResult",
    "Result",
    "StatevectorBackend",
    "DensityMatrixBackend",
    "StabilizerBackend",
    "resolve_backend",
    "build_noisy_backend",
    "NOISE_CHANNELS",
    "get_backend",
    "list_backends",
    "register_backend",
]
