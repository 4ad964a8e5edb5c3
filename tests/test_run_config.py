"""One run configuration: every front door builds its backend the same way.

A run is described by ``(backend, seed, noise p, noise channel)``.  The
``--from-qasm`` runner, a service job (``execute_payload``) and
``run_repetition_code`` must all turn it into the same engine and noise
model through :func:`repro.qsim.backends.build_noisy_backend`, refuse bad
noise with the same message, and ``qutes submit`` / ``qutes lint`` must
refuse a noise probability outside [0, 1] before any job is queued.
"""

import json

import pytest

from repro.algorithms.repetition_code import run_repetition_code
from repro.cli import build_arg_parser, main
from repro.qsim import (
    DensityMatrixSimulator,
    QuantumCircuit,
    StabilizerSimulator,
    StatevectorSimulator,
)
from repro.qsim.backends.backend import Backend
from repro.qsim.exceptions import SimulationError
from repro.qsim.noise import NOISE_CHANNELS
from repro.qsim.service import (
    BatchPayload,
    CircuitCache,
    JobStore,
    ServiceError,
    execute_payload,
    submit_payload,
    worker_loop,
)

BELL_QASM = (
    'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
    "qreg q[2];\ncreg c[2];\nh q[0];\ncx q[0], q[1];\nmeasure q -> c;\n"
)


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.qasm"
    path.write_text(BELL_QASM)
    return str(path)


@pytest.fixture
def db(tmp_path):
    return str(tmp_path / "svc.db")


def bell(name="bell"):
    qc = QuantumCircuit(2, 2, name=name)
    qc.h(0).cx(0, 1).measure([0, 1], [0, 1])
    return qc


def ghz():
    qc = QuantumCircuit(3, name="ghz")
    qc.h(0).cx(0, 1).cx(1, 2)
    return qc


def stored_payload(**noise):
    """A payload as the job store holds it, with *noise* as its noise dict."""
    data = json.loads(BatchPayload.from_circuits([bell()], shots=8, seed=3).to_json())
    data["noise"] = noise
    return BatchPayload.from_json(json.dumps(data))


@pytest.fixture
def built(monkeypatch):
    """Records ``(engine class, noise model class, p)`` of every backend run."""
    runs = []
    original = Backend.run

    def spy(self, *args, **kwargs):
        model = self._engine.noise_model
        runs.append((type(self._engine), type(model), getattr(model, "p", None)))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Backend, "run", spy)
    return runs


def from_qasm_run(path, backend, seed, p, channel):
    argv = ["--from-qasm", path, "--backend", backend, "--shots", "8"]
    if seed is not None:
        argv += ["--seed", str(seed)]
    if p is not None:
        argv += ["--noise", str(p), "--noise-model", channel]
    return main(argv)


def payload_run(tmp_path, backend, seed, p, channel):
    payload = BatchPayload.from_circuits(
        [bell()], shots=8, seed=seed, backend=backend, noise_p=p, noise_channel=channel
    )
    with JobStore(str(tmp_path / "cache.db")) as store:
        return execute_payload(payload, CircuitCache(store))


def repetition_run(backend, seed, p, channel):
    return run_repetition_code(
        3, p=p or 0.0, noise=channel, shots=8, backend=backend, seed=seed
    )


ENGINES = {
    "statevector": StatevectorSimulator,
    "density_matrix": DensityMatrixSimulator,
    "stabilizer": StabilizerSimulator,
}
RUN_CONFIGS = [
    (backend, seed, p, channel)
    for backend in ("statevector", "density_matrix", "stabilizer")
    for seed in (None, 7)
    for p, channel in (
        (None, "depolarizing"),
        (0.05, "bit_flip"),
        (0.05, "phase_flip"),
        (0.2, "depolarizing"),
    )
]


class TestOneBuilder:
    @pytest.mark.parametrize("backend, seed, p, channel", RUN_CONFIGS)
    def test_front_doors_build_the_same_engine_and_noise(
        self, backend, seed, p, channel, bell_file, tmp_path, built, capsys
    ):
        assert from_qasm_run(bell_file, backend, seed, p, channel) == 0
        payload_run(tmp_path, backend, seed, p, channel)
        repetition_run(backend, seed, p, channel)
        capsys.readouterr()
        assert len(built) == 3
        assert built[0] == built[1] == built[2]
        engine, model, model_p = built[0]
        assert engine is ENGINES[backend]
        if p is None:
            assert model is type(None)
        else:
            assert (model, model_p) == (NOISE_CHANNELS[channel], p)

    @pytest.mark.parametrize(
        "p, channel, message",
        [
            (1.5, "depolarizing", "channel probability must be in [0, 1]"),
            (0.1, "thermal", "unknown noise channel 'thermal'"),
        ],
    )
    def test_front_doors_refuse_bad_noise_with_one_message(
        self, p, channel, message, bell_file, tmp_path
    ):
        from repro import cli

        # the flag's own `choices` stop an unknown channel before the
        # builder, so the runner is handed the parsed flags directly
        args = build_arg_parser().parse_args(["--from-qasm", bell_file, "--noise", str(p)])
        args.noise_model = channel
        with pytest.raises(cli._Exit) as from_flags:
            cli._run_qasm_file(args)
        with JobStore(str(tmp_path / "cache.db")) as store:
            with pytest.raises(SimulationError) as from_payload:
                execute_payload(stored_payload(p=p, channel=channel), CircuitCache(store))
        with pytest.raises(SimulationError) as from_driver:
            run_repetition_code(3, p=p, noise=channel, shots=8, backend="statevector")
        assert message in str(from_payload.value)
        assert from_flags.value.args == (1, str(from_payload.value))
        assert str(from_payload.value) == str(from_driver.value)

    def test_zero_noise_runs_noiselessly_on_the_driver(self, built):
        repetition_run("stabilizer", 1, 0.0, "depolarizing")
        assert built[0][1] is type(None)


class TestPayloadBytes:
    """``to_json()`` and ``noise_tag()`` (part of the cache keys in sqlite)
    are pinned to the strings the payload produced before the run config
    was normalised."""

    BELL = (
        '{"name": "bell", "qasm": "OPENQASM 2.0;\\ninclude \\"qelib1.inc\\";\\nqreg q[2];'
        '\\ncreg c[2];\\nh q[0];\\ncx q[0], q[1];\\nmeasure q[0] -> c[0];'
        '\\nmeasure q[1] -> c[1];\\n"}'
    )
    GHZ = (
        '{"name": "ghz", "qasm": "OPENQASM 2.0;\\ninclude \\"qelib1.inc\\";\\nqreg q[3];'
        '\\ncreg meas[3];\\nh q[0];\\ncx q[0], q[1];\\ncx q[1], q[2];'
        '\\nmeasure q[0] -> meas[0];\\nmeasure q[1] -> meas[1];\\nmeasure q[2] -> meas[2];\\n"}'
    )

    def cases(self):
        return {
            "noiseless": BatchPayload.from_circuits([bell(), ghz()], shots=64, seed=3),
            "bit_flip": BatchPayload.from_circuits(
                [bell()], shots=33, seed=9, backend="stabilizer", noise_p=0.125,
                noise_channel="bit_flip", memory=True, metadata={"user": "alice"},
            ),
            "phase_flip": BatchPayload.from_circuits(
                [ghz()], shots=16, backend="density_matrix", noise_p=0.01,
                noise_channel="phase_flip",
            ),
            "depolarizing": BatchPayload.from_circuits([bell()], seed=7, noise_p=0.1),
        }

    def expected(self):
        return {
            "noiseless": (
                '{"version": 1, "circuits": [' + self.BELL + ", " + self.GHZ + '], '
                '"shots": 64, "seed": 3, "backend": "statevector", "noise": null, '
                '"memory": false, "metadata": {}}',
                "noiseless",
            ),
            "bit_flip": (
                '{"version": 1, "circuits": [' + self.BELL + '], "shots": 33, "seed": 9, '
                '"backend": "stabilizer", "noise": {"p": 0.125, "channel": "bit_flip"}, '
                '"memory": true, "metadata": {"user": "alice"}}',
                "bit_flip:0.125",
            ),
            "phase_flip": (
                '{"version": 1, "circuits": [' + self.GHZ + '], "shots": 16, "seed": null, '
                '"backend": "density_matrix", "noise": {"p": 0.01, "channel": "phase_flip"}, '
                '"memory": false, "metadata": {}}',
                "phase_flip:0.01",
            ),
            "depolarizing": (
                '{"version": 1, "circuits": [' + self.BELL + '], "shots": 1024, "seed": 7, '
                '"backend": "statevector", "noise": {"p": 0.1, "channel": "depolarizing"}, '
                '"memory": false, "metadata": {}}',
                "depolarizing:0.1",
            ),
        }

    @pytest.mark.parametrize("name", ["noiseless", "bit_flip", "phase_flip", "depolarizing"])
    def test_built_payload_bytes(self, name):
        payload = self.cases()[name]
        text, tag = self.expected()[name]
        assert payload.to_json() == text
        assert payload.noise_tag() == tag
        loaded = BatchPayload.from_json(text)
        assert loaded.to_json() == text and loaded.noise_tag() == tag

    def test_stored_payload_without_channel(self):
        text = (
            '{"version": 1, "circuits": [' + self.BELL + '], "shots": 1024, "seed": 7, '
            '"backend": "statevector", "noise": {"p": 0.05}, "memory": false, '
            '"metadata": {}}'
        )
        loaded = BatchPayload.from_json(text)
        assert loaded.to_json() == text
        assert loaded.noise_tag() == "depolarizing:0.05"
        assert (loaded.noise_p, loaded.noise_channel) == (0.05, "depolarizing")

    def test_noiseless_payload_normalises_to_none(self):
        payload = self.cases()["noiseless"]
        assert (payload.noise_p, payload.noise_channel) == (None, None)

    def test_malformed_stored_noise_is_a_service_error(self):
        with pytest.raises(ServiceError, match="malformed payload noise"):
            stored_payload(channel="bit_flip")


class TestNoiseRefusedAtSubmitAndLint:
    @pytest.mark.parametrize("p", [1.5, -0.25])
    def test_from_circuits_refuses_probability_outside_unit_interval(self, p):
        with pytest.raises(ServiceError, match=r"must be in \[0, 1\]"):
            BatchPayload.from_circuits([bell()], noise_p=p)

    def test_from_circuits_refuses_unknown_channel(self):
        with pytest.raises(ServiceError, match="unknown noise channel 'thermal'"):
            BatchPayload.from_circuits([bell()], noise_p=0.1, noise_channel="thermal")

    @pytest.mark.parametrize("extra", [[], ["--no-lint"]])
    def test_submit_exits_1_and_queues_nothing(self, bell_file, db, capsys, extra):
        assert main(["submit", bell_file, "--db", db, "--noise", "1.5"] + extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: channel probability must be in [0, 1]\n"
        with JobStore(db) as store:
            assert sum(store.stats()["states"].values()) == 0

    def test_submit_accepts_a_valid_probability(self, bell_file, db, capsys):
        assert main(["submit", bell_file, "--db", db, "--noise", "1.0"]) == 0
        assert capsys.readouterr().out.startswith("job-")

    @pytest.mark.parametrize("p", ["1.5", "-0.5"])
    def test_lint_exits_1_with_qa407(self, bell_file, capsys, p):
        assert main(["lint", bell_file, "--noise", p]) == 1
        assert "error[QA407]" in capsys.readouterr().out

    def test_lint_accepts_a_valid_probability(self, bell_file, capsys):
        assert main(["lint", bell_file, "--noise", "0.5"]) == 0
        assert "QA407" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "noise, code", [({"p": 1.5}, "QA407"), ({"p": 0.1, "channel": "x"}, "QA404")]
    )
    def test_stored_payload_with_bad_noise_is_rejected_at_submit(self, db, noise, code):
        with JobStore(db) as store:
            job_id, reports, rejected = submit_payload(store, stored_payload(**noise))
            assert rejected and store.get(job_id).state == "FAILED"
        assert [d.code for d in reports[0].errors] == [code]

    def test_from_qasm_keeps_its_error(self, bell_file, capsys):
        assert main(["--from-qasm", bell_file, "--noise", "1.5"]) == 1
        assert capsys.readouterr().err == "error: channel probability must be in [0, 1]\n"


class TestMaxJobs:
    def submit_two(self, db):
        with JobStore(db) as store:
            for seed in (1, 2):
                submit_payload(store, BatchPayload.from_circuits([bell()], shots=4, seed=seed))

    def states(self, db):
        with JobStore(db) as store:
            return {state: n for state, n in store.stats()["states"].items() if n}

    def test_zero_processes_no_job(self, db):
        self.submit_two(db)
        assert worker_loop(db, burst=True, max_jobs=0) == 0
        assert self.states(db) == {"QUEUED": 2}

    def test_bound_stops_after_that_many_jobs(self, db):
        self.submit_two(db)
        assert worker_loop(db, burst=True, max_jobs=1) == 1
        assert self.states(db) == {"QUEUED": 1, "DONE": 1}

    def test_cli_max_jobs_zero(self, db, capsys):
        self.submit_two(db)
        assert main(["worker", "--db", db, "--burst", "--max-jobs", "0"]) == 0
        assert capsys.readouterr().out == "worker processed 0 job(s)\n"
        assert self.states(db) == {"QUEUED": 2}
