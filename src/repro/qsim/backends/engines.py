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
    measurements_are_final,
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

#: the per-shot collapse path is split into this many deterministic chunks
#: (each with a seed spawned from the experiment seed), so the merged counts
#: are identical no matter how many workers execute the chunks
PER_SHOT_CHUNKS = 8


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
    ``max_fused_qubits``) or a pre-built *simulator* to wrap.  The run option
    ``shot_workers=N`` (N > 1) parallelises the per-shot collapse path
    (mid-circuit measurement or noise models) over deterministic shot
    chunks; without an explicit experiment seed, one is derived from the
    backend's RNG so the chunked path stays reproducible.

    ``shot_batching`` controls how Pauli-noise trajectories execute (see
    :mod:`repro.qsim.shotbatch`): ``"auto"`` (default) evolves all shots of
    an eligible circuit as one ``(shots, 2^n)`` tensor, ``"batched"``
    requires it (raising :class:`BackendError` with the reason when the
    circuit is ineligible), and ``"per_shot"`` runs the same executor one
    trajectory at a time -- bit-identical counts to ``"batched"`` at the
    same seed, which is also the contract the property tests pin down.
    Circuits the batched executor cannot take (mid-circuit measurement,
    reset/initialize, non-Pauli noise) fall back to the legacy per-shot
    loop under ``"auto"``/``"per_shot"``.
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
        shot_workers: Optional[int] = None,
        **options: Any,
    ) -> ExperimentResult:
        if options:
            raise BackendError(f"unknown run options {sorted(options)} for {self.name!r}")
        started = time.perf_counter()
        noise_model = self._engine.noise_model
        per_shot = noise_model is not None or not measurements_are_final(circuit)
        if per_shot and shot_workers is not None and shot_workers > 1 and seed is None:
            # chunked shot execution needs a concrete seed; derive one from
            # the backend RNG (reproducible given the backend's own seed)
            # instead of silently ignoring the shot_workers request
            seed = int(self._rng.integers(0, 2**63))
        with _run_span(self.name, circuit, shots) as sp:
            if per_shot and shot_workers is not None and seed is not None:
                engine_result = self._run_per_shot_chunked(
                    circuit, shots, seed, memory, shot_workers
                )
                metadata = {"method": "per_shot_chunked", "chunks": min(shots, PER_SHOT_CHUNKS)}
                sp.tag(method=metadata["method"])
                return _wrap(circuit, engine_result, shots, seed, started, metadata)
            if per_shot and noise_model is not None and shot_workers is None:
                reason = shotbatch.ineligible_reason(circuit, noise_model)
                if self.shot_batching == "batched" and reason is not None:
                    raise BackendError(
                        f"shot_batching='batched' requested but {reason}"
                    )
                if reason is None:
                    if seed is None:
                        # the trajectory executor pre-draws its random tables
                        # from one concrete seed; derive it from the backend
                        # RNG (reproducible given the backend's own seed)
                        seed = int(self._rng.integers(0, 2**63))
                    if self.shot_batching == "per_shot":
                        batch_size = 1
                        method = "per_shot_trajectory"
                    else:
                        batch_size = shotbatch.default_batch_size(
                            circuit.num_qubits, shots
                        )
                        method = "batched_shots"
                    engine_result = shotbatch.run_batched(
                        circuit,
                        noise_model,
                        shots,
                        seed,
                        memory=memory,
                        batch_size=batch_size,
                    )
                    if telemetry.enabled():
                        telemetry.counter(f"engine.{self.name}.{method}").inc(shots)
                    metadata = {"method": method, "batch_size": batch_size}
                    sp.tag(method=method, batch_size=batch_size)
                    return _wrap(circuit, engine_result, shots, seed, started, metadata)
                sp.tag(batching_fallback=reason)
            engine = self._engine if seed is None else self._fresh_engine(seed)
            engine_result = engine.run(circuit, shots=shots, memory=memory)
            metadata = {"method": "per_shot" if per_shot else "sampled"}
            sp.tag(method=metadata["method"])
            return _wrap(circuit, engine_result, shots, seed, started, metadata)

    def _run_per_shot_chunked(
        self,
        circuit: QuantumCircuit,
        shots: int,
        seed: int,
        memory: bool,
        shot_workers: int,
    ) -> EngineResult:
        """Per-shot collapse split into seed-spawned chunks.

        The chunking (sizes and per-chunk seeds) depends only on ``shots``
        and ``seed`` -- never on ``shot_workers`` -- so the merged result is
        identical whether the chunks run serially or on a thread pool.
        """
        num_chunks = min(shots, PER_SHOT_CHUNKS)
        base, remainder = divmod(shots, num_chunks)
        chunk_sizes = [base + (1 if i < remainder else 0) for i in range(num_chunks)]
        chunk_seeds = np.random.SeedSequence(seed).spawn(num_chunks)

        def run_chunk(chunk_shots: int, chunk_seed: np.random.SeedSequence) -> EngineResult:
            engine = self._fresh_engine(chunk_seed)
            return engine.run(circuit, shots=chunk_shots, memory=memory)

        if shot_workers > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=min(shot_workers, num_chunks)) as pool:
                partials = list(pool.map(run_chunk, chunk_sizes, chunk_seeds))
        else:
            partials = [run_chunk(size, sq) for size, sq in zip(chunk_sizes, chunk_seeds)]

        counts: Dict[str, int] = {}
        shot_values: List[str] = []
        for partial in partials:
            for key, value in partial.counts.items():
                counts[key] = counts.get(key, 0) + value
            if memory and partial.memory is not None:
                shot_values.extend(partial.memory)
        return EngineResult(
            counts=counts, shots=shots, memory=shot_values if memory else None
        )


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
