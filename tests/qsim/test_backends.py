"""Tests for the unified Backend/Job/Result execution API."""

import inspect

import numpy as np
import pytest

from repro.qsim import DepolarizingNoise, QuantumCircuit, StabilizerSimulator
from repro.qsim.backends import (
    Backend,
    DensityMatrixBackend,
    ExperimentResult,
    StabilizerBackend,
    StatevectorBackend,
    get_backend,
    list_backends,
    register_backend,
    resolve_backend,
)
from repro.qsim.backends.registry import _ALIASES, _REGISTRY
from repro.qsim.density import DensityMatrixSimulator
from repro.qsim.exceptions import BackendError
from repro.qsim.shotbatch import run_batched
from repro.qsim.simulator import StatevectorSimulator


def bell_circuit(name="bell"):
    qc = QuantumCircuit(2, 2)
    qc.h(0).cx(0, 1)
    qc.measure([0, 1], [0, 1])
    qc.name = name
    return qc


def basis_circuit(value, num_qubits=3):
    """Deterministic circuit preparing and measuring |value>."""
    qc = QuantumCircuit(num_qubits, num_qubits)
    for bit in range(num_qubits):
        if (value >> bit) & 1:
            qc.x(bit)
    qc.measure(list(range(num_qubits)), list(range(num_qubits)))
    qc.name = f"basis_{value}"
    return qc


def midcircuit_circuit():
    """Mid-circuit measurement: every shot collapses on its own."""
    qc = QuantumCircuit(2, 2)
    qc.h(0)
    qc.measure(0, 0)
    qc.x(1)
    qc.cx(0, 1)
    qc.measure(1, 1)
    return qc


class TestRegistry:
    def test_round_trip(self):
        backend = get_backend("statevector")
        assert isinstance(backend, StatevectorBackend)
        assert backend.name == "statevector"
        assert isinstance(get_backend("density_matrix"), DensityMatrixBackend)

    def test_aliases(self):
        assert isinstance(get_backend("sv"), StatevectorBackend)
        assert isinstance(get_backend("dm"), DensityMatrixBackend)
        assert isinstance(get_backend("DENSITY"), DensityMatrixBackend)

    def test_list_backends(self):
        names = list_backends()
        assert "statevector" in names and "density_matrix" in names
        assert "sv" not in names
        assert "sv" in list_backends(include_aliases=True)

    def test_unknown_name(self):
        with pytest.raises(BackendError, match="unknown backend"):
            get_backend("no_such_engine")

    def test_unknown_name_lists_available_backends(self):
        # the error must be actionable: every registered name (and the
        # aliases) spelled out, exactly what list_backends() reports
        with pytest.raises(BackendError) as excinfo:
            get_backend("no_such_engine")
        message = str(excinfo.value)
        for name in list_backends():
            assert name in message
        assert "aliases" in message and "sv" in message

    def test_options_forwarded(self):
        backend = get_backend("statevector", seed=3)
        counts_a = backend.run(bell_circuit(), shots=100).result().get_counts()
        counts_b = get_backend("statevector", seed=3).run(bell_circuit(), shots=100).result().get_counts()
        assert counts_a == counts_b

    def test_register_third_party_backend(self):
        class EchoEngine:
            def run(self, circuit, shots, memory):
                return ExperimentResult(name=circuit.name, counts={"0": shots}, shots=shots)

        class EchoBackend(Backend):
            name = "echo"

            def __init__(self, seed=None):
                self._engine = EchoEngine()

            def _fresh_engine(self, seed):
                return EchoEngine()

        register_backend("echo", EchoBackend)
        try:
            backend = get_backend("echo")
            result = backend.run(bell_circuit(), shots=7).result()
            assert result.get_counts() == {"0": 7}
            seeded = backend.run(bell_circuit(), shots=7, seed=3).result()[0]
            assert seeded.seed == 3 and seeded.name == "bell"
        finally:
            _REGISTRY.pop("echo", None)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(BackendError, match="already registered"):
            register_backend("statevector", StatevectorBackend)

    def test_factory_must_return_backend(self):
        register_backend("broken", lambda **kw: object())
        try:
            with pytest.raises(BackendError, match="not a Backend"):
                get_backend("broken")
        finally:
            _REGISTRY.pop("broken", None)

    def test_alias_cleanup_guard(self):
        # the alias table must never point at an unregistered name
        for alias, target in _ALIASES.items():
            assert target in _REGISTRY


class TestRunContract:
    def test_single_circuit_matches_legacy_engine(self):
        qc = bell_circuit()
        unified = get_backend("statevector").run(qc, shots=256, seed=11).result()
        legacy = StatevectorSimulator(seed=11).run(qc, shots=256)
        assert unified.get_counts() == legacy.counts
        assert unified[0].shots == 256
        assert unified[0].seed == 11
        assert unified[0].time_taken >= 0.0

    def test_job_lifecycle(self):
        job = get_backend("statevector").run(bell_circuit(), shots=32, seed=0)
        result = job.result()
        assert result.job_id == job.job_id
        assert job.result() is result  # cached

    def test_batch_of_n_equals_n_sequential_runs(self):
        circuits = [bell_circuit(f"c{i}") for i in range(4)]
        batch = get_backend("statevector").run(circuits, shots=128, seed=40).result()
        assert len(batch) == 4
        for i, experiment in enumerate(batch):
            single = StatevectorSimulator(seed=40 + i).run(circuits[i], shots=128)
            assert experiment.counts == single.counts
            assert experiment.seed == 40 + i

    def test_explicit_seed_list(self):
        circuits = [bell_circuit(), bell_circuit()]
        result = get_backend("statevector").run(circuits, shots=64, seed=[5, 5]).result()
        assert result[0].counts == result[1].counts

    def test_seed_list_length_mismatch(self):
        with pytest.raises(BackendError, match="seeds"):
            get_backend("statevector").run([bell_circuit()], shots=8, seed=[1, 2])

    def test_per_call_seed_leaves_engine_stream_untouched(self):
        a = get_backend("statevector", seed=2)
        b = get_backend("statevector", seed=2)
        a.run(bell_circuit(), shots=50, seed=999)  # seeded call must not advance the stream
        first = a.run(bell_circuit(), shots=50).result().get_counts()
        assert first == b.run(bell_circuit(), shots=50).result().get_counts()

    def test_result_lookup_by_name_and_index(self):
        circuits = [bell_circuit("first"), bell_circuit("second")]
        result = get_backend("statevector").run(circuits, shots=16, seed=1).result()
        assert result.get_counts("second") == result.get_counts(1)
        with pytest.raises(BackendError, match="no experiment named"):
            result.get_counts("third")
        with pytest.raises(BackendError, match="pass an index"):
            result.get_counts()

    def test_memory(self):
        result = get_backend("statevector").run(bell_circuit(), shots=20, seed=3, memory=True).result()
        memory = result.get_memory()
        assert len(memory) == 20
        assert set(memory) <= {"00", "11"}

    def test_invalid_inputs(self):
        backend = get_backend("statevector")
        with pytest.raises(BackendError, match="shots"):
            backend.run(bell_circuit(), shots=0)
        with pytest.raises(BackendError, match="at least one circuit"):
            backend.run([])
        with pytest.raises(BackendError, match="expected QuantumCircuit"):
            backend.run(["nope"])
        with pytest.raises(BackendError, match="unknown run options"):
            backend.run(bell_circuit(), shots=8, bogus_option=1).result()

    def test_experiment_result_helpers(self):
        result = get_backend("statevector").run(basis_circuit(5), shots=30, seed=0).result()
        experiment = result[0]
        assert experiment.most_frequent() == "101"
        assert experiment.int_counts() == {5: 30}
        assert experiment.probabilities() == {"101": 1.0}


class TestBatchDispatch:
    CIRCUITS = 6

    def _batch(self):
        return [bell_circuit(f"c{i}") for i in range(self.CIRCUITS)]

    def test_batch_entry_reruns_alone_with_seed_plus_i(self):
        backend = get_backend("statevector")
        batch = backend.run(self._batch(), shots=96, seed=8).result()
        for i, circuit in enumerate(self._batch()):
            alone = backend.run(circuit, shots=96, seed=8 + i).result()[0]
            assert batch[i].counts == alone.counts
            assert batch[i].seed == 8 + i

    def test_unseeded_batch_reproducible_from_backend_seed(self):
        a = get_backend("statevector", seed=17).run(self._batch(), shots=48).result()
        b = get_backend("statevector", seed=17).run(self._batch(), shots=48).result()
        assert [e.counts for e in a] == [e.counts for e in b]

    def test_mid_circuit_batch_size_invariant(self):
        reference = get_backend("statevector").run(
            midcircuit_circuit(), shots=103, seed=6
        ).result()[0]
        assert reference.metadata == {
            "method": "batched_shots",
            "batch_size": 103,
            "trajectories": 103,
            "classical_prefix": 0,
        }
        assert sum(reference.counts.values()) == 103
        for batch_size in (1, 7):
            other = run_batched(midcircuit_circuit(), None, 103, seed=6, batch_size=batch_size)
            assert reference.counts == other.counts

    def test_unseeded_mid_circuit_follows_backend_seed(self):
        a = get_backend("statevector", seed=21).run(midcircuit_circuit(), shots=50).result()[0]
        b = get_backend("statevector", seed=21).run(midcircuit_circuit(), shots=50).result()[0]
        assert a.metadata["method"] == "batched_shots"
        assert a.counts == b.counts

    def test_mid_circuit_memory_order_deterministic(self):
        m1 = run_batched(midcircuit_circuit(), None, 40, seed=9, memory=True, batch_size=1).memory
        m2 = get_backend("statevector").run(
            midcircuit_circuit(), shots=40, seed=9, memory=True
        ).result().get_memory()
        assert m1 == m2 and len(m1) == 40


class TestDensityBackend:
    def test_same_counts_format_as_statevector(self):
        qc = bell_circuit()
        sv = get_backend("statevector").run(qc, shots=200, seed=12).result()
        dm = get_backend("density_matrix").run(qc, shots=200, seed=12).result()
        assert set(sv.get_counts()) == set(dm.get_counts()) <= {"00", "11"}
        # noiseless, same seed, same sampling pipeline: identical histograms
        assert sv.get_counts() == dm.get_counts()

    def test_deterministic_circuit_identical_counts(self):
        qc = basis_circuit(6)
        sv = get_backend("statevector").run(qc, shots=50, seed=1).result()
        dm = get_backend("density_matrix").run(qc, shots=50, seed=1).result()
        assert sv.get_counts() == dm.get_counts() == {"110": 50}

    def test_noise_model_option(self):
        backend = get_backend("density_matrix", seed=0, noise_model=DepolarizingNoise(0.2))
        counts = backend.run(bell_circuit(), shots=2000, seed=0).result().get_counts()
        correlated = counts.get("00", 0) + counts.get("11", 0)
        assert 0.6 < correlated / 2000 < 0.98  # noise visibly degrades the Bell pair

    def test_mid_circuit_measurement_branched(self):
        result = get_backend("density_matrix").run(midcircuit_circuit(), shots=60, seed=2).result()
        assert result[0].metadata["method"] == "branched"
        assert result[0].metadata["branches"] == 2
        assert sum(result[0].counts.values()) == 60
        assert set(result[0].counts) <= {"01", "10"}


class TestResolveBackend:
    def test_default_builds_seeded_statevector(self):
        backend = resolve_backend(None, default_seed=44)
        assert isinstance(backend, StatevectorBackend)
        a = backend.run(bell_circuit(), shots=64).result().get_counts()
        b = StatevectorSimulator(seed=44).run(bell_circuit(), shots=64).counts
        assert a == b

    def test_name_resolution(self):
        assert isinstance(resolve_backend("density_matrix"), DensityMatrixBackend)

    def test_name_resolution_keeps_default_seed(self):
        a = resolve_backend("statevector", default_seed=44)
        b = StatevectorSimulator(seed=44)
        assert a.run(bell_circuit(), shots=64).result().get_counts() == b.run(
            bell_circuit(), shots=64
        ).counts

    def test_driver_seed_reaches_named_backend(self):
        from repro.algorithms.minimum_finding import find_minimum

        first = find_minimum([9, 4, 7, 2], seed=5, backend="statevector")
        second = find_minimum([9, 4, 7, 2], seed=5, backend="statevector")
        assert (first.value, first.index, first.grover_rounds) == (
            second.value,
            second.index,
            second.grover_rounds,
        )

    def test_bad_type_rejected(self):
        with pytest.raises(BackendError, match="cannot use"):
            resolve_backend(42)


class TestDriverIntegration:
    def test_grover_on_density_backend(self):
        from repro.algorithms import grover_search

        result = grover_search([5], 3, shots=256, backend="density_matrix")
        assert result.found and result.value == 5

    def test_simon_batched(self):
        from repro.algorithms.simon import run_simon

        result = run_simon(3, 0b101, backend=get_backend("statevector", seed=33), batch_size=4)
        assert result.success
        assert result.recovered == 0b101

    def test_minimum_finding_backend_param(self):
        from repro.algorithms.minimum_finding import find_minimum

        result = find_minimum([9, 4, 7, 2], seed=5, backend=get_backend("statevector", seed=5))
        assert result.value == 2


class TestResultSerialization:
    """to_dict/from_dict is the wire format the execution service persists."""

    @pytest.mark.parametrize("backend_name", ["statevector", "density_matrix", "stabilizer"])
    def test_round_trip_through_json_preserves_artifacts(self, backend_name):
        import json

        from repro.qsim.backends import Result

        backend = get_backend(backend_name)
        result = backend.run(
            [bell_circuit("a"), bell_circuit("b")], shots=64, seed=9, memory=True
        ).result()
        restored = Result.from_dict(json.loads(json.dumps(result.to_dict())))
        assert restored.backend_name == result.backend_name
        assert restored.job_id == result.job_id
        assert restored.success is True
        assert len(restored) == 2
        for before, after in zip(result, restored):
            assert after.name == before.name
            assert after.counts == before.counts
            assert after.shots == before.shots
            assert after.seed == before.seed
            assert after.memory == before.memory
        # counts access works identically on the restored object
        assert restored.get_counts("a") == result.get_counts("a")
        assert restored.get_memory("b") == result.get_memory("b")

    def test_arrays_are_deliberately_dropped(self):
        backend = get_backend("density_matrix")
        result = backend.run(bell_circuit(), shots=32, seed=4).result()
        assert result[0].density_matrix is not None  # one branch produced one
        from repro.qsim.backends import Result

        restored = Result.from_dict(result.to_dict())
        assert restored[0].density_matrix is None
        assert restored[0].counts == result[0].counts

    def test_malformed_dicts_are_rejected(self):
        from repro.qsim.backends import Result

        with pytest.raises(BackendError, match="malformed result dict"):
            Result.from_dict({"job_id": "x"})
        with pytest.raises(BackendError, match="malformed experiment dict"):
            ExperimentResult.from_dict({"name": "a"})


ENGINES = ["statevector", "density_matrix", "stabilizer"]


class TestRunArgumentValidation:
    """shots and seed are checked once, in Backend.run, before any engine runs."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "kwargs,argument",
        [
            ({"shots": 2.5}, "shots"),
            ({"shots": True}, "shots"),
            ({"shots": "8"}, "shots"),
            ({"shots": -1}, "shots"),
            ({"seed": "12"}, "seed"),
            ({"seed": 1.5}, "seed"),
            ({"seed": -3}, "seed"),
            ({"seed": True}, "seed"),
            ({"seed": [1, -2]}, "seed"),
            ({"seed": [1, 2, 3]}, "seed"),
            ({"seed": [1, "2"]}, "seed"),
        ],
    )
    def test_bad_argument_named_before_any_engine_runs(self, engine, kwargs, argument, monkeypatch):
        backend = get_backend(engine)

        def no_engine(*args, **kw):
            raise AssertionError("an engine ran")

        monkeypatch.setattr(backend, "_run_experiment", no_engine)
        options = {"shots": 8, **kwargs}
        with pytest.raises(BackendError, match=f"^{argument} must be"):
            backend.run([bell_circuit("a"), bell_circuit("b")], **options)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_valid_forms_run(self, engine):
        backend = get_backend(engine)
        batch = [bell_circuit("a"), bell_circuit("b")]
        for seed in (None, 0, np.int64(4), [3, None], (5, 6), np.array([7, 8])):
            result = backend.run(batch, shots=np.int64(16), seed=seed).result()
            assert [sum(e.counts.values()) for e in result] == [16, 16]
        assert [e.seed for e in backend.run(batch, shots=4, seed=[3, None]).result()] == [3, None]


class TestInterchangeableEngines:
    """Every built-in engine is built from (seed, noise_model) and runs
    run(circuit, shots=, memory=): whichever engine is picked, one set of
    arguments builds and runs it."""

    @pytest.mark.parametrize(
        "cls",
        [
            StatevectorSimulator,
            DensityMatrixSimulator,
            StabilizerSimulator,
            StatevectorBackend,
            DensityMatrixBackend,
            StabilizerBackend,
        ],
    )
    def test_constructor_is_seed_and_noise_model(self, cls):
        parameters = inspect.signature(cls).parameters
        assert [(p.name, p.default) for p in parameters.values()] == [
            ("seed", None),
            ("noise_model", None),
        ]

    @pytest.mark.parametrize(
        "cls", [StatevectorSimulator, DensityMatrixSimulator, StabilizerSimulator]
    )
    def test_run_takes_circuit_shots_and_memory(self, cls):
        assert list(inspect.signature(cls.run).parameters) == [
            "self",
            "circuit",
            "shots",
            "memory",
        ]


class TestInitializePrecondition:
    """initialize needs its targets in |0...0> on every engine: a state the
    circuit already moved is refused, never silently overwritten."""

    @pytest.mark.parametrize(
        "engine,state",
        [(engine, 2) for engine in ENGINES]
        # the stabilizer engine initializes basis states only
        + [(engine, [0.6, 0.8, 0, 0]) for engine in ENGINES[:2]],
    )
    def test_initialize_after_a_gate_is_refused(self, engine, state):
        qc = QuantumCircuit(2, 2)
        qc.x(0)
        qc.initialize(state, [0, 1])
        qc.measure([0, 1], [0, 1])
        with pytest.raises(BackendError, match=r"target qubits to be in the \|0\.\.\.0> state"):
            get_backend(engine).run(qc, shots=1000, seed=1).result()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_initialize_from_zero_runs(self, engine):
        qc = QuantumCircuit(2, 2)
        qc.initialize(2, [0, 1])
        qc.measure([0, 1], [0, 1])
        counts = get_backend(engine).run(qc, shots=100, seed=1).result().get_counts()
        assert counts == {"10": 100}


def engine_and_backend(engine, noisy, seed):
    """A seeded engine and the backend over an equally configured one."""
    noise = DepolarizingNoise(0.05) if noisy else None
    backend = get_backend(engine, noise_model=noise)
    return backend.engine_class(seed=seed, noise_model=noise), backend


class TestEngineRunMatchesBackend:
    """engine.run(...) returns the same ExperimentResult the backend reports."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("circuit", [bell_circuit(), midcircuit_circuit()], ids=["final", "mid"])
    def test_counts_memory_and_metadata_agree(self, engine, noisy, circuit):
        direct_engine, backend = engine_and_backend(engine, noisy, seed=11)
        direct = direct_engine.run(circuit, shots=64, memory=True)
        via_backend = backend.run(circuit, shots=64, seed=11, memory=True).result()[0]
        assert direct.counts == via_backend.counts
        assert direct.memory == via_backend.memory
        assert direct.metadata == via_backend.metadata
        assert direct.name == via_backend.name == circuit.name
        assert via_backend.seed == 11 and direct.seed is None
