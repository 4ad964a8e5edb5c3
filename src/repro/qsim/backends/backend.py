"""The :class:`Backend` ABC: one execution API over every engine.

A backend turns ``run(circuit_or_circuits, shots=..., seed=...)`` into a
:class:`~repro.qsim.backends.job.Job` whose
:class:`~repro.qsim.backends.result.Result` always has the same shape,
regardless of which engine (statevector, density matrix, or a third-party
registration) does the work.  The base class owns everything that is
engine-independent: batch normalisation, per-experiment seed resolution, and
serial / thread-pool / process-pool dispatch.  Engines implement a single
method, :meth:`Backend._run_experiment`.

Seed resolution
---------------
``run(..., seed=...)`` accepts:

* ``None`` -- serial runs draw on the engine's own sequential RNG stream
  (exactly what the legacy ``StatevectorSimulator.run`` did); parallel runs
  derive one concrete seed per experiment from the backend's RNG, so a
  backend constructed with ``seed=S`` is still fully reproducible.
* an ``int`` -- experiment ``i`` of the batch runs with seed ``seed + i``,
  making every batch entry independently reproducible: re-running circuit
  ``i`` alone with ``seed + i`` gives identical counts.
* a sequence of ints -- explicit per-experiment seeds.

Whenever an experiment has a concrete seed, its result is identical under
serial, thread-pool and process-pool dispatch.
"""

from __future__ import annotations

import abc
import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from ..circuit import QuantumCircuit
from ..exceptions import BackendError
from .. import telemetry
from .job import Job
from .result import ExperimentResult

__all__ = ["Backend"]

_EXECUTORS = ("thread", "process")


def _execute_experiment(
    backend: "Backend",
    circuit: QuantumCircuit,
    shots: int,
    seed: Optional[int],
    memory: bool,
    options: Dict[str, Any],
) -> ExperimentResult:
    """Module-level task wrapper so process pools can pickle the work item."""
    return backend._run_experiment(circuit, shots, seed, memory, **options)


class Backend(abc.ABC):
    """Abstract execution backend: ``run() -> Job -> Result``."""

    #: registry name; subclasses override (third-party engines pick their own)
    name: str = "abstract"

    def __init__(self, seed: Optional[int] = None):
        self._rng = np.random.default_rng(seed)

    # -- subclass contract -------------------------------------------------------

    @abc.abstractmethod
    def _run_experiment(
        self,
        circuit: QuantumCircuit,
        shots: int,
        seed: Optional[int],
        memory: bool,
        **options: Any,
    ) -> ExperimentResult:
        """Execute one circuit and return its :class:`ExperimentResult`.

        Must be safe to call concurrently when *seed* is not ``None`` (the
        dispatch layer only parallelises seeded experiments), which in
        practice means: build a fresh engine instance per call instead of
        mutating shared state.
        """

    # -- public API --------------------------------------------------------------

    def run(
        self,
        circuits: Union[QuantumCircuit, Sequence[QuantumCircuit]],
        *args: Any,
        shots: int = 1024,
        seed: Union[int, Sequence[int], None] = None,
        memory: bool = False,
        workers: Optional[int] = None,
        executor: str = "process",
        **options: Any,
    ) -> Job:
        """Submit one circuit or a batch and return a :class:`Job`.

        Only the circuit batch may be passed positionally; every run option
        is keyword-only, identically across all engines and the service
        payload path, so a call like ``run(qc, 2000)`` cannot silently bind
        ``2000`` to the wrong option between backends.

        Args:
            circuits: a single :class:`QuantumCircuit` or a sequence of them.
            shots: shots per circuit.
            seed: per-call seed override (see the module docstring for the
                ``None`` / int / sequence semantics).
            memory: also record per-shot bitstrings.
            workers: degree of batch parallelism.  ``None``, 0 or 1 run the
                batch serially in the calling thread; ``N > 1`` dispatches
                experiments onto a worker pool.
            executor: ``"process"`` (default; real multi-core parallelism via
                fork) or ``"thread"`` for a thread pool.
            **options: further engine-specific run options, forwarded to
                :meth:`_run_experiment`.
        """
        if args:
            raise TypeError(
                "Backend.run() accepts only the circuit batch positionally; "
                "pass run options as keywords, e.g. "
                "run(circuit, shots=2000, seed=7)"
            )
        batch = self._normalize_circuits(circuits)
        if shots <= 0:
            raise BackendError("shots must be positive")
        if executor not in _EXECUTORS:
            raise BackendError(f"unknown executor {executor!r} (choose from {_EXECUTORS})")
        parallel = workers is not None and workers > 1 and len(batch) > 1
        seeds = self._resolve_seeds(seed, len(batch), force_explicit=parallel)

        if telemetry.enabled():
            telemetry.counter("backend.batches").inc()
            telemetry.counter("backend.circuits").inc(len(batch))
        submitted_at = time.perf_counter()
        if not parallel:
            # serial dispatch runs in the calling thread, so the batch span
            # encloses every engine.<name>.run span the experiments open
            with telemetry.span(
                "backend.run", backend=self.name, circuits=len(batch), dispatch="serial"
            ):
                futures: List[Future] = []
                for circuit, circuit_seed in zip(batch, seeds):
                    future: Future = Future()
                    try:
                        future.set_result(
                            self._run_experiment(circuit, shots, circuit_seed, memory, **options)
                        )
                    except BaseException as exc:  # noqa: BLE001 - delivered via Job.result()
                        future.set_exception(exc)
                    futures.append(future)
                    if future.exception() is not None:
                        break
            return Job(self, futures, submitted_at=submitted_at)

        # parallel dispatch: the span covers submission only -- the pool's
        # workers trace into their own threads/processes
        with telemetry.span(
            "backend.run", backend=self.name, circuits=len(batch), dispatch=executor
        ):
            pool_cls = ProcessPoolExecutor if executor == "process" else ThreadPoolExecutor
            pool = pool_cls(max_workers=min(workers, len(batch)))
            try:
                futures = [
                    pool.submit(
                        _execute_experiment, self, circuit, shots, circuit_seed, memory, options
                    )
                    for circuit, circuit_seed in zip(batch, seeds)
                ]
            except BaseException:
                pool.shutdown(wait=False)
                raise
        return Job(self, futures, executor=pool, submitted_at=submitted_at)

    # -- internals ---------------------------------------------------------------

    @staticmethod
    def _normalize_circuits(
        circuits: Union[QuantumCircuit, Sequence[QuantumCircuit]],
    ) -> List[QuantumCircuit]:
        if isinstance(circuits, QuantumCircuit):
            return [circuits]
        batch = list(circuits)
        if not batch:
            raise BackendError("run() needs at least one circuit")
        for entry in batch:
            if not isinstance(entry, QuantumCircuit):
                raise BackendError(f"cannot run {type(entry).__name__} (expected QuantumCircuit)")
        return batch

    def _resolve_seeds(
        self,
        seed: Union[int, Sequence[int], None],
        num_circuits: int,
        force_explicit: bool,
    ) -> List[Optional[int]]:
        if seed is None:
            if not force_explicit:
                return [None] * num_circuits
            # parallel dispatch: engines must not share RNG state across
            # workers, so derive concrete (but backend-reproducible) seeds
            return [int(self._rng.integers(0, 2**63)) for _ in range(num_circuits)]
        if isinstance(seed, (int, np.integer)):
            return [int(seed) + i for i in range(num_circuits)]
        seeds = [int(s) for s in seed]
        if len(seeds) != num_circuits:
            raise BackendError(
                f"got {len(seeds)} seeds for {num_circuits} circuits"
            )
        return seeds

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
