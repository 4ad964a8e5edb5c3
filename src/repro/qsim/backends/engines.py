"""The built-in backends: statevector, density matrix and stabilizer.

All are thin adapters: the heavy lifting stays in
:class:`~repro.qsim.simulator.StatevectorSimulator`,
:class:`~repro.qsim.density.DensityMatrixSimulator` and
:class:`~repro.qsim.stabilizer.StabilizerSimulator`; the backend classes
translate the unified ``run`` contract (per-experiment seeds, batching,
memory, timing) onto those engines and wrap their legacy results into
:class:`~repro.qsim.backends.result.ExperimentResult`.

Thread/process safety rule: a seeded experiment always runs on a **fresh
engine instance** configured from the backend's template, so concurrent
experiments never share RNG state; an unseeded (serial) experiment runs on
the template engine itself, preserving the legacy sequential RNG stream that
the algorithm drivers and their regression seeds rely on.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Union

import numpy as np

from ..circuit import QuantumCircuit
from ..density import DensityMatrixSimulator
from ..exceptions import BackendError, SimulationError
from ..simulator import (
    SIMULATOR_MAX_FUSED_QUBITS,
    Result as EngineResult,
    StatevectorSimulator,
)
from ..stabilizer import StabilizerSimulator
from .. import shotbatch, telemetry
from .backend import Backend
from .result import ExperimentResult

__all__ = [
    "StatevectorBackend",
    "DensityMatrixBackend",
    "StabilizerBackend",
    "resolve_backend",
    "build_noisy_backend",
    "NOISE_CHANNELS",
]

#: channel names understood by :func:`build_noisy_backend` (and the CLI's
#: ``--noise-model`` flag)
NOISE_CHANNELS = ("bit_flip", "phase_flip", "depolarizing")

#: registry names (and aliases) that take exact Kraus ``gate_noise`` instead
#: of a trajectory / Pauli-frame ``noise_model``
_KRAUS_BACKENDS = frozenset({"density_matrix", "dm", "density"})


def _run_span(backend_name: str, circuit: QuantumCircuit, shots: int) -> telemetry.span:
    """Span plus throughput counters for one experiment on *backend_name*.

    The counters are the per-engine traffic axes the service aggregates
    (experiments, shots, gate volume); the span is what nests under the
    worker's per-job trace.  Guarded on the telemetry switch so a disabled
    run allocates nothing.
    """
    if telemetry.enabled():
        telemetry.counter(f"engine.{backend_name}.experiments").inc()
        telemetry.counter(f"engine.{backend_name}.shots").inc(shots)
        telemetry.counter(f"engine.{backend_name}.gates").inc(len(circuit.data))
    return telemetry.span(
        f"engine.{backend_name}.run",
        circuit=circuit.name,
        gates=len(circuit.data),
        shots=shots,
    )


def _wrap(
    circuit: QuantumCircuit,
    engine_result: EngineResult,
    shots: int,
    seed: Optional[int],
    started: float,
    metadata: Dict[str, Any],
) -> ExperimentResult:
    time_taken = time.perf_counter() - started
    if telemetry.enabled():
        telemetry.histogram("engine.run.seconds").observe(time_taken)
    return ExperimentResult(
        name=circuit.name,
        counts=dict(engine_result.counts),
        shots=shots,
        seed=seed,
        time_taken=time_taken,
        statevector=engine_result.statevector,
        density_matrix=engine_result.density_matrix,
        memory=engine_result.memory,
        metadata=dict(metadata),
    )


class StatevectorBackend(Backend):
    """Dense statevector execution behind the unified backend API.

    Accepts either engine options (``seed``, ``noise_model``, ``fusion``,
    ``max_fused_qubits``) or a pre-built *simulator* to wrap; an unseeded
    experiment draws from that engine's own RNG.

    Final-measurement circuits without noise are sampled from one evolved
    state; every other run (Pauli noise, mid-circuit measurement, reset,
    classical conditions) evolves its shots on the batched trajectory
    executor of :mod:`repro.qsim.shotbatch`.  ``shot_batching`` sets how
    many trajectories evolve at once: ``"auto"`` (default) and
    ``"batched"`` use the cache-sized batch, ``"per_shot"`` one trajectory
    at a time -- bit-identical counts at the same seed, which is also the
    contract the property tests pin down.  A noise model that is not a
    Pauli channel raises :class:`BackendError` naming the density-matrix
    backend, which runs any Kraus channel exactly.
    """

    name = "statevector"

    #: accepted ``shot_batching`` modes
    SHOT_BATCHING_MODES = ("auto", "batched", "per_shot")

    def __init__(
        self,
        seed: Optional[int] = None,
        noise_model: Optional[object] = None,
        fusion: bool = True,
        max_fused_qubits: int = SIMULATOR_MAX_FUSED_QUBITS,
        simulator: Optional[StatevectorSimulator] = None,
        shot_batching: str = "auto",
    ):
        super().__init__(seed)
        if shot_batching not in self.SHOT_BATCHING_MODES:
            raise BackendError(
                f"unknown shot_batching mode {shot_batching!r} "
                f"(choose from {self.SHOT_BATCHING_MODES})"
            )
        self.shot_batching = shot_batching
        if simulator is not None:
            self._engine = simulator
        else:
            self._engine = StatevectorSimulator(
                seed=seed,
                noise_model=noise_model,
                fusion=fusion,
                max_fused_qubits=max_fused_qubits,
            )

    def _fresh_engine(self, seed: Optional[int]) -> StatevectorSimulator:
        template = self._engine
        return StatevectorSimulator(
            seed=seed,
            noise_model=template.noise_model,
            fusion=template.fusion,
            max_fused_qubits=template.max_fused_qubits,
        )

    def _run_experiment(
        self,
        circuit: QuantumCircuit,
        shots: int,
        seed: Optional[int],
        memory: bool,
        **options: Any,
    ) -> ExperimentResult:
        if options:
            raise BackendError(f"unknown run options {sorted(options)} for {self.name!r}")
        started = time.perf_counter()
        engine = self._engine if seed is None else self._fresh_engine(seed)
        reason = shotbatch.ineligible_reason(circuit, engine.noise_model)
        if reason is not None:
            raise BackendError(f"cannot run on {self.name!r}: {reason}")
        batch_size = 1 if self.shot_batching == "per_shot" else None
        with _run_span(self.name, circuit, shots) as sp:
            engine_result = engine._execute(
                circuit, shots, memory, engine._rng, batch_size=batch_size
            )
            method = engine_result.metadata["method"]
            if telemetry.enabled() and method != "sampled":
                telemetry.counter(f"engine.{self.name}.{method}").inc(shots)
            sp.tag(**engine_result.metadata)
            return _wrap(circuit, engine_result, shots, seed, started, engine_result.metadata)


class DensityMatrixBackend(Backend):
    """Exact density-matrix execution behind the unified backend API.

    ``gate_noise`` maps gate arity (1 or 2) to single-qubit Kraus operators,
    exactly as on :class:`DensityMatrixSimulator`, whose run metadata
    (``method``, ``branches``) also tags the run span.
    """

    name = "density_matrix"

    def __init__(
        self,
        seed: Optional[int] = None,
        gate_noise: Optional[Dict[int, List[np.ndarray]]] = None,
        simulator: Optional[DensityMatrixSimulator] = None,
    ):
        super().__init__(seed)
        if simulator is not None:
            self._engine = simulator
        else:
            self._engine = DensityMatrixSimulator(seed=seed, gate_noise=gate_noise)

    def _run_experiment(
        self,
        circuit: QuantumCircuit,
        shots: int,
        seed: Optional[int],
        memory: bool,
        **options: Any,
    ) -> ExperimentResult:
        if options:
            raise BackendError(f"unknown run options {sorted(options)} for {self.name!r}")
        started = time.perf_counter()
        with _run_span(self.name, circuit, shots) as sp:
            engine = self._engine
            if seed is not None:
                engine = DensityMatrixSimulator(seed=seed, gate_noise=engine.gate_noise)
            engine_result = engine.run(circuit, shots=shots, memory=memory)
            sp.tag(**engine_result.metadata)
            return _wrap(circuit, engine_result, shots, seed, started, engine_result.metadata)


class StabilizerBackend(Backend):
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
    instruction -- the same hook the statevector engine exposes, but still
    polynomial because Pauli errors ride the tableau's symbolic phases.
    ``noise_method`` (``"auto"``/``"symbolic"``/``"per_shot"``) picks the
    execution strategy for noisy runs; see ``docs/noise.md``.
    """

    name = "stabilizer"

    def __init__(
        self,
        seed: Optional[int] = None,
        noise_model: Optional[object] = None,
        noise_method: str = "auto",
        simulator: Optional[StabilizerSimulator] = None,
    ):
        super().__init__(seed)
        if simulator is not None:
            if noise_model is not None or noise_method != "auto":
                # a wrapped engine carries its own noise configuration;
                # accepting both would silently discard one of them
                raise BackendError(
                    "pass either simulator= or noise_model=/noise_method=, not both "
                    "(configure the noise on the StabilizerSimulator you wrap)"
                )
            self._engine = simulator
        else:
            try:
                self._engine = StabilizerSimulator(
                    seed=seed, noise_model=noise_model, noise_method=noise_method
                )
            except SimulationError as exc:
                raise BackendError(str(exc)) from exc

    def _fresh_engine(self, seed: Optional[int]) -> StabilizerSimulator:
        # seeded experiments (incl. the batch seed+i expansion under
        # parallel dispatch) must carry the template's noise configuration,
        # or a noisy backend would silently run noiseless when parallelised
        template = self._engine
        return StabilizerSimulator(
            seed=seed,
            noise_model=template.noise_model,
            noise_method=template.noise_method,
        )

    def _run_experiment(
        self,
        circuit: QuantumCircuit,
        shots: int,
        seed: Optional[int],
        memory: bool,
        **options: Any,
    ) -> ExperimentResult:
        if options:
            raise BackendError(f"unknown run options {sorted(options)} for {self.name!r}")
        started = time.perf_counter()
        with _run_span(self.name, circuit, shots) as sp:
            engine = self._engine if seed is None else self._fresh_engine(seed)
            try:
                engine_result = engine.run(circuit, shots=shots, memory=memory)
            except SimulationError as exc:
                raise BackendError(str(exc)) from exc
            sp.tag(**engine_result.metadata)
            return _wrap(circuit, engine_result, shots, seed, started, engine_result.metadata)


def build_noisy_backend(
    name: Optional[str],
    p: float,
    channel: str = "depolarizing",
    seed: Optional[int] = None,
) -> Backend:
    """Instantiate backend *name* with noise *channel* at probability *p*.

    The one place that knows which noise form each engine takes:
    density-matrix style backends receive the exact single-qubit Kraus
    channel as ``gate_noise={1: ..., 2: ...}``, every other backend the
    matching trajectory / Pauli-frame ``noise_model`` -- so the CLI's
    ``--noise`` flag and the algorithm drivers construct noisy engines
    identically.  *name* may be ``None`` (defaults to ``statevector``).
    Raises :class:`SimulationError` for an unknown channel name and
    :class:`BackendError` for a backend that accepts neither noise form.
    """
    from ..density import bit_flip_kraus, depolarizing_kraus, phase_flip_kraus
    from ..noise import BitFlipNoise, DepolarizingNoise, PhaseFlipNoise
    from .registry import get_backend

    channels = {
        "bit_flip": (BitFlipNoise, bit_flip_kraus),
        "phase_flip": (PhaseFlipNoise, phase_flip_kraus),
        "depolarizing": (DepolarizingNoise, depolarizing_kraus),
    }
    if channel not in channels:
        raise SimulationError(
            f"unknown noise channel {channel!r} (choose from {sorted(channels)})"
        )
    model_cls, kraus_fn = channels[channel]
    name = name or "statevector"
    if name.lower() in _KRAUS_BACKENDS:
        kraus = kraus_fn(p)
        return get_backend(name, seed=seed, gate_noise={1: kraus, 2: kraus})
    try:
        return get_backend(name, seed=seed, noise_model=model_cls(p))
    except TypeError as exc:
        raise BackendError(
            f"backend {name!r} does not support noise injection: {exc}"
        ) from exc


def resolve_backend(
    backend: Union["Backend", str, None],
    simulator: Optional[StatevectorSimulator] = None,
    default_seed: Optional[int] = None,
) -> Backend:
    """Normalise the ``backend=`` / legacy ``simulator=`` pair of a driver.

    The algorithm drivers accept both the new ``backend=`` parameter (a
    :class:`Backend` instance or registry name) and the legacy
    ``simulator=`` one; passing both is ambiguous and rejected.  With
    neither, a statevector backend seeded with *default_seed* is built --
    reproducing the drivers' historical default behaviour exactly.
    """
    if backend is not None and simulator is not None:
        raise BackendError("pass either backend= or simulator=, not both")
    if backend is None:
        if simulator is not None:
            return StatevectorBackend(simulator=simulator)
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
