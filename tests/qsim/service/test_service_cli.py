"""Service CLI coverage: error paths, observability verbs, purge.

Every verb goes through :func:`repro.cli.main` exactly as a shell user
would invoke it, so these tests pin exit codes and the ``error:`` stderr
contract alongside the happy paths for ``trace``/``metrics``/``purge``.
"""

import json

import pytest

from repro.cli import main
from repro.qsim import QuantumCircuit, telemetry, to_qasm
from repro.qsim.service import BatchPayload, JobStore, worker_loop


@pytest.fixture(autouse=True)
def clean_telemetry():
    telemetry.enable()
    telemetry.clear_spans()
    yield
    telemetry.enable()
    telemetry.clear_spans()


@pytest.fixture
def db(tmp_path):
    return str(tmp_path / "service.db")


@pytest.fixture
def qasm_file(tmp_path):
    qc = QuantumCircuit(2, 2, name="bell")
    qc.h(0).cx(0, 1)
    qc.measure([0, 1], [0, 1])
    path = tmp_path / "bell.qasm"
    path.write_text(to_qasm(qc))
    return str(path)


def submit(db, qasm_file, capsys, *extra):
    assert main(["submit", qasm_file, "--db", db, "--shots", "16", *extra]) == 0
    return capsys.readouterr().out.strip()


def submit_done(db, qasm_file, capsys):
    job_id = submit(db, qasm_file, capsys)
    worker_loop(db, burst=True)
    return job_id


def submit_failed(db, qasm_file, capsys):
    # an unknown backend is rejected at submit time by static analysis
    # (QA405): rc 1, job recorded FAILED before any worker can claim it
    assert (
        main(["submit", qasm_file, "--db", db, "--shots", "16", "--backend", "nosuch"]) == 1
    )
    return capsys.readouterr().out.strip()


class TestErrorPaths:
    @pytest.mark.parametrize("verb", ["status", "result", "cancel", "trace"])
    def test_unknown_job_id_fails_clearly(self, verb, db, capsys):
        assert main([verb, "job-nope", "--db", db]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "no such job" in err

    def test_result_on_failed_job(self, db, qasm_file, capsys):
        job_id = submit_failed(db, qasm_file, capsys)
        assert main(["result", job_id, "--db", db]) == 1
        err = capsys.readouterr().err
        assert "error: job ended FAILED" in err
        assert "nosuch" in err  # last line of the stored traceback names the cause

    def test_result_on_unfinished_job(self, db, qasm_file, capsys):
        job_id = submit(db, qasm_file, capsys)
        assert main(["result", job_id, "--db", db]) == 1
        assert "not finished (state QUEUED)" in capsys.readouterr().err

    def test_cancel_on_done_job(self, db, qasm_file, capsys):
        job_id = submit_done(db, qasm_file, capsys)
        assert main(["cancel", job_id, "--db", db]) == 1
        assert "already terminal (DONE)" in capsys.readouterr().err

    def test_trace_on_queued_job_has_no_artifact(self, db, qasm_file, capsys):
        job_id = submit(db, qasm_file, capsys)
        assert main(["trace", job_id, "--db", db]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "no telemetry artifact" in err

    def test_submit_missing_file(self, db, capsys):
        assert main(["submit", "/nonexistent.qasm", "--db", db]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_purge_negative_ttl(self, db, capsys):
        assert main(["purge", "--db", db, "--older-than", "-5"]) == 1
        assert "must be >= 0" in capsys.readouterr().err


class TestTraceVerb:
    def test_trace_prints_span_tree_for_done_job(self, db, qasm_file, capsys):
        job_id = submit_done(db, qasm_file, capsys)
        assert main(["trace", job_id, "--db", db]) == 0
        out = capsys.readouterr().out
        assert f"job {job_id} state=DONE" in out
        for stage in ("claim", "cache.lookup", "engine.statevector.run", "finalize"):
            assert stage in out
        assert "%" in out

    def test_trace_attribution_sums_to_recorded_duration(self, db, qasm_file, capsys):
        # the job span encloses its claim, so the root is the whole duration
        job_id = submit_done(db, qasm_file, capsys)
        with JobStore(db) as store:
            artifact = store.get(job_id).telemetry_dict()
        assert artifact["trace"]["children"][0]["name"] == "claim"
        assert artifact["duration_s"] == artifact["trace"]["wall_s"]


class TestMetricsVerb:
    def test_metrics_prometheus_default(self, db, qasm_file, capsys):
        submit_done(db, qasm_file, capsys)
        assert main(["metrics", "--db", db]) == 0
        out = capsys.readouterr().out
        assert "# TYPE qsim_engine_statevector_shots counter" in out
        assert "qsim_engine_statevector_shots 16" in out

    def test_metrics_json(self, db, qasm_file, capsys):
        submit_done(db, qasm_file, capsys)
        submit_done(db, qasm_file, capsys)
        assert main(["metrics", "--db", db, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["counters"]["engine.statevector.shots"] == 32  # two DONE jobs
        assert data["histograms"]["engine.run.seconds"]["count"] == 2

    def test_metrics_counts_a_fixed_job_mix(self, db, capsys):
        # a cold miss, a disk hit and a memory hit, a 2-circuit batch, noisy
        # statevector trajectories, a branching density-matrix run and a
        # stabilizer run; apart from the third bell job and its disk hit,
        # the expected values are what the process-wide metrics registry
        # reported for this mix before spans replaced it
        def circuit(num_qubits, name, build):
            qc = QuantumCircuit(num_qubits, num_qubits, name=name)
            build(qc)
            return qc

        def bell(qc):
            qc.h(0).cx(0, 1)
            qc.measure([0, 1], [0, 1])

        def feedforward(qc):
            qc.h(0).measure(0, 0)
            qc.h(1).c_if(qc.cregs[0], 1)
            qc.measure(1, 1)

        def ghz(qc):
            qc.h(0).cx(0, 1).cx(1, 2)
            qc.measure([0, 1, 2], [0, 1, 2])

        def flip(qc):
            qc.x(0).measure(0, 0)

        def rotations(qc):
            qc.h(0).h(1).rz(0.3, 1).rz(0.4, 1)
            qc.measure([0, 1], [0, 1])

        payloads = [
            BatchPayload.from_circuits([circuit(2, "bell", bell)], shots=16, seed=3),
            BatchPayload.from_circuits([circuit(2, "bell", bell)], shots=16, seed=4),
            BatchPayload.from_circuits([circuit(2, "bell", bell)], shots=16, seed=9),
            BatchPayload.from_circuits(
                [circuit(1, "a", flip), circuit(2, "b", rotations)], shots=8, seed=5
            ),
            BatchPayload.from_circuits(
                [circuit(2, "bell", bell)], shots=24, seed=6, noise_p=0.01
            ),
            BatchPayload.from_circuits(
                [circuit(2, "ff", feedforward)], shots=40, seed=7, backend="density_matrix"
            ),
            BatchPayload.from_circuits(
                [circuit(3, "ghz", ghz)], shots=12, seed=8, backend="stabilizer"
            ),
        ]
        with JobStore(db) as store:
            for payload in payloads:
                store.submit(payload.to_json())
        assert worker_loop(db, burst=True) == len(payloads)
        assert main(["metrics", "--db", db, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["counters"] == {
            "backend.batches": 7,
            "backend.circuits": 8,
            "cache.disk_hits": 1,
            "cache.memory_hits": 1,
            "cache.misses": 6,
            "engine.density_matrix.branched": 40,
            "engine.density_matrix.experiments": 1,
            "engine.density_matrix.gates": 4,
            "engine.density_matrix.shots": 40,
            "engine.stabilizer.experiments": 1,
            "engine.stabilizer.gates": 6,
            "engine.stabilizer.shots": 12,
            "engine.stabilizer.stabilizer": 12,
            "engine.statevector.batched_shots": 24,
            "engine.statevector.experiments": 6,
            "engine.statevector.gates": 23,
            "engine.statevector.shots": 88,
            "transpile.circuits": 5,
            "transpile.gates_in": 22,
        }
        assert data["gauges"] == {}
        assert list(data["histograms"]) == ["engine.run.seconds"]
        assert data["histograms"]["engine.run.seconds"]["count"] == 8
        assert sum(data["histograms"]["engine.run.seconds"]["counts"]) == 8

    def test_metrics_on_empty_store(self, db, capsys):
        assert main(["metrics", "--db", db, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"counters": {}, "gauges": {}, "histograms": {}}


class TestQueueStats:
    def test_reports_job_cache_hit_rate(self, db, qasm_file, capsys):
        submit_done(db, qasm_file, capsys)  # cold compile: miss
        submit_done(db, qasm_file, capsys)  # warm: a fresh worker's disk hit
        assert main(["queue-stats", "--db", db]) == 0
        out = capsys.readouterr().out
        assert "job-cache-hits 1" in out
        assert "job-cache-misses 1" in out
        assert "job-cache-hit-rate 0.500" in out

    def test_hit_rate_na_when_no_done_jobs(self, db, capsys):
        assert main(["queue-stats", "--db", db]) == 0
        assert "job-cache-hit-rate n/a" in capsys.readouterr().out


class TestPurgeVerb:
    def test_purge_removes_terminal_jobs_only(self, db, qasm_file, capsys):
        done = submit_done(db, qasm_file, capsys)
        failed = submit_failed(db, qasm_file, capsys)
        queued = submit(db, qasm_file, capsys)
        assert main(["purge", "--db", db]) == 0
        assert "purged 1 job(s)" in capsys.readouterr().out
        with JobStore(db) as store:
            remaining = {record.job_id for record in store.list_jobs()}
        assert done not in remaining
        assert {failed, queued} <= remaining  # FAILED kept for post-mortem

    def test_purge_respects_ttl(self, db, qasm_file, capsys):
        submit_done(db, qasm_file, capsys)
        assert main(["purge", "--db", db, "--older-than", "3600"]) == 0
        assert "purged 0 job(s)" in capsys.readouterr().out


class TestWorkerVerbosityFlags:
    def test_worker_verbose_flag_parses_and_drains(self, db, qasm_file, capsys):
        submit(db, qasm_file, capsys)
        assert main(["worker", "--db", db, "--burst", "-v"]) == 0
        assert "worker processed 1 job(s)" in capsys.readouterr().out

    def test_worker_quiet_flag_parses(self, db, capsys):
        assert main(["worker", "--db", db, "--burst", "-qq"]) == 0
        capsys.readouterr()
