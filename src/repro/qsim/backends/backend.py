"""The :class:`Backend` ABC: one execution API over every engine.

A backend turns ``run(circuit_or_circuits, shots=..., seed=...)`` into a
:class:`~repro.qsim.backends.job.Job` whose :class:`~repro.qsim.result.Result`
always has the same shape, regardless of which engine (statevector, density
matrix, stabilizer, or a third-party registration) does the work.  The base
class owns everything that is engine-independent: argument validation, batch
normalisation, per-experiment seed resolution and the one experiment runner,
:meth:`Backend._run_experiment`, which calls ``engine.run(circuit,
shots=..., memory=...)``.  A subclass holds its configured engine in
``self._engine`` and says how to build a freshly seeded copy of it
(:meth:`Backend._fresh_engine`).

Seed resolution
---------------
``run(..., seed=...)`` accepts:

* ``None`` -- the experiments draw on the engine's own sequential RNG
  stream, so a backend constructed with ``seed=S`` is fully reproducible.
* an ``int`` -- experiment ``i`` of the batch runs with seed ``seed + i``,
  making every batch entry independently reproducible: re-running circuit
  ``i`` alone with ``seed + i`` gives identical counts.
* a sequence with one entry per circuit -- explicit per-experiment seeds
  (an entry may be ``None``: that experiment uses the engine's stream).

Seeds are non-negative ints (never ``bool``); anything else raises a
:class:`BackendError` before any engine runs.
"""

from __future__ import annotations

import abc
import collections.abc
import time
from typing import Any, List, Optional, Sequence, Union

import numpy as np

from ..circuit import QuantumCircuit
from ..exceptions import BackendError, SimulationError
from ..result import ExperimentResult
from .. import telemetry
from .job import Job

__all__ = ["Backend"]


def _is_int(value: Any) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class Backend(abc.ABC):
    """Abstract execution backend: ``run() -> Job -> Result``.

    Subclasses set ``self._engine`` (anything with ``run(circuit, shots=,
    memory=) -> ExperimentResult``) in ``__init__`` and implement
    :meth:`_fresh_engine`.
    """

    #: registry name; subclasses override (third-party engines pick their own)
    name: str = "abstract"

    _engine: Any

    # -- subclass contract -------------------------------------------------------

    @abc.abstractmethod
    def _fresh_engine(self, seed: int) -> Any:
        """A new engine configured like ``self._engine``, seeded with *seed*.

        Seeded experiments run on it, so they never touch the template
        engine's sequential RNG stream.
        """

    # -- public API --------------------------------------------------------------

    def run(
        self,
        circuits: Union[QuantumCircuit, Sequence[QuantumCircuit]],
        *args: Any,
        shots: int = 1024,
        seed: Union[int, Sequence[Optional[int]], None] = None,
        memory: bool = False,
        **options: Any,
    ) -> Job:
        """Run one circuit or a batch, in order, and return its :class:`Job`.

        Only the circuit batch may be passed positionally; every run option
        is keyword-only, identically across all engines and the service
        payload path, so a call like ``run(qc, 2000)`` cannot silently bind
        ``2000`` to the wrong option between backends.

        Args:
            circuits: a single :class:`QuantumCircuit` or a sequence of them.
            shots: shots per circuit, a positive ``int``.
            seed: per-call seed override (see the module docstring for the
                ``None`` / int / sequence semantics).
            memory: also record per-shot bitstrings.
            **options: accepted only to be rejected by name: no engine
                takes further run options.

        The batch stops at the first experiment that raises; the job then
        reports that error from :meth:`Job.result`.
        """
        if args:
            raise TypeError(
                "Backend.run() accepts only the circuit batch positionally; "
                "pass run options as keywords, e.g. "
                "run(circuit, shots=2000, seed=7)"
            )
        batch = self._normalize_circuits(circuits)
        if not _is_int(shots) or shots <= 0:
            raise BackendError(f"shots must be a positive int, got {shots!r}")
        shots = int(shots)
        seeds = self._resolve_seeds(seed, len(batch))
        if options:
            raise BackendError(f"unknown run options {sorted(options)} for {self.name!r}")

        submitted_at = time.perf_counter()
        results: List[ExperimentResult] = []
        error: Optional[BaseException] = None
        # the batch span encloses every engine.<name>.run span of the batch
        with telemetry.span("backend.run", backend=self.name, circuits=len(batch)):
            for circuit, circuit_seed in zip(batch, seeds):
                try:
                    results.append(
                        self._run_experiment(circuit, shots, circuit_seed, memory)
                    )
                except Exception as exc:  # noqa: BLE001 - delivered via Job.result()
                    error = exc
                    break
        return Job(self, results, error=error, submitted_at=submitted_at)

    def _run_experiment(
        self,
        circuit: QuantumCircuit,
        shots: int,
        seed: Optional[int],
        memory: bool,
    ) -> ExperimentResult:
        """Execute one circuit on the engine and return its :class:`ExperimentResult`.

        An unseeded experiment runs on the template engine (its sequential
        RNG stream); a seeded one on :meth:`_fresh_engine`.  The engine's
        ``metadata`` tags the run span, whose tags are the per-engine
        traffic facts (:func:`repro.qsim.telemetry.export.metrics_from_traces`).
        Engine errors surface as :class:`BackendError`.
        """
        started = time.perf_counter()
        engine = self._engine if seed is None else self._fresh_engine(seed)
        with telemetry.span(
            f"engine.{self.name}.run", circuit=circuit.name, gates=len(circuit.data), shots=shots
        ) as sp:
            try:
                result = engine.run(circuit, shots=shots, memory=memory)
            except SimulationError as exc:
                raise BackendError(str(exc)) from exc
            sp.tag(**result.metadata)
        result.seed = seed
        result.time_taken = time.perf_counter() - started
        return result

    def session(self, seed: Optional[int] = None) -> Any:
        """A live register on this backend's engine, built up one
        instruction at a time: ``allocate(k)``, ``apply(instruction,
        qubits)``, ``measure(qubits) -> int`` (collapses) and
        ``sample(qubits, shots) -> counts`` (does not), with integer
        outcomes little-endian over *qubits*.  The Qutes runtime runs every
        program on one.

        Like an experiment, an unseeded session draws on the template
        engine's RNG and a seeded one on :meth:`_fresh_engine`.
        """
        engine = self._engine if seed is None else self._fresh_engine(seed)
        if not hasattr(engine, "session"):
            raise BackendError(f"backend {self.name!r} has no session to run a program on")
        return engine.session()

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

    @staticmethod
    def _resolve_seeds(
        seed: Union[int, Sequence[Optional[int]], None], num_circuits: int
    ) -> List[Optional[int]]:
        if seed is None:
            return [None] * num_circuits
        if _is_int(seed) and seed >= 0:
            return [int(seed) + i for i in range(num_circuits)]
        sequence = isinstance(seed, (collections.abc.Sequence, np.ndarray))
        if sequence and not isinstance(seed, (str, bytes)):
            seeds = list(seed)
            if len(seeds) != num_circuits:
                raise BackendError(
                    f"seed must be one seed per circuit: got {len(seeds)} seeds "
                    f"for {num_circuits} circuits"
                )
            if all(s is None or (_is_int(s) and s >= 0) for s in seeds):
                return [None if s is None else int(s) for s in seeds]
        raise BackendError(
            "seed must be None, a non-negative int, or a sequence of them "
            f"(one per circuit), got {seed!r}"
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
