"""Per-job telemetry artifacts: worker capture, store persistence, aggregation."""

import json
import os
import subprocess
import sys
import time

import pytest

from repro.qsim import QuantumCircuit, telemetry
from repro.qsim.telemetry.export import metrics_from_traces
from repro.qsim.service import BatchPayload, JobStore, ServiceError, worker_loop
from repro.qsim.service.worker import TELEMETRY_ARTIFACT_VERSION


@pytest.fixture(autouse=True)
def clean_telemetry():
    telemetry.enable()
    telemetry.clear_spans()
    yield
    telemetry.enable()
    telemetry.clear_spans()


def bell_payload(shots=32):
    qc = QuantumCircuit(2, 2, name="bell")
    qc.h(0).cx(0, 1)
    qc.measure([0, 1], [0, 1])
    return BatchPayload.from_circuits([qc], shots=shots, seed=11)


@pytest.fixture
def store(tmp_path):
    with JobStore(tmp_path / "service.db") as job_store:
        yield job_store


def run_one(store, payload=None):
    job_id = store.submit((payload or bell_payload()).to_json())
    worker_loop(store.path, burst=True)
    return job_id


class TestArtifactCapture:
    def test_done_job_carries_versioned_artifact(self, store):
        record = store.get(run_one(store))
        assert record.state == "DONE"
        artifact = record.telemetry_dict()
        assert artifact["version"] == TELEMETRY_ARTIFACT_VERSION
        assert set(artifact) == {"version", "duration_s", "trace"}

    def test_trace_covers_the_whole_job_lifecycle(self, store):
        artifact = store.get(run_one(store)).telemetry_dict()
        tree = artifact["trace"]
        assert tree["name"] == "job"
        stages = [child["name"] for child in tree["children"]]
        assert stages[0] == "claim"
        assert "payload.parse" in stages
        assert "cache.compile_batch" in stages
        assert "backend.run" in stages
        assert stages[-1] == "finalize"
        run = next(c for c in tree["children"] if c["name"] == "backend.run")
        assert [g["name"] for g in run["children"]] == ["engine.statevector.run"]

    def test_duration_is_the_root_wall_claim_included(self, store):
        artifact = store.get(run_one(store)).telemetry_dict()
        assert artifact["trace"]["children"][0]["name"] == "claim"
        assert artifact["duration_s"] == artifact["trace"]["wall_s"]
        # every child is accounted for inside the total
        assert all(
            child["wall_s"] <= artifact["duration_s"] + 1e-9
            for child in artifact["trace"]["children"]
        )

    def test_slow_claim_leaves_no_negative_self_time(self, store, monkeypatch):
        claim = JobStore.claim

        def slow_claim(self, *args, **kwargs):
            time.sleep(0.02)
            return claim(self, *args, **kwargs)

        monkeypatch.setattr(JobStore, "claim", slow_claim)
        tree = store.get(run_one(store)).telemetry_dict()["trace"]
        assert tree["children"][0]["name"] == "claim"
        assert tree["children"][0]["wall_s"] >= 0.02

        def self_times(node):
            children = node.get("children", [])
            yield node["name"], node["wall_s"] - sum(c["wall_s"] for c in children)
            for child in children:
                yield from self_times(child)

        negative = [(name, s) for name, s in self_times(tree) if s < 0]
        assert negative == []

    def test_fresh_worker_imports_the_job_path_before_its_first_claim(self, store):
        # a module a job imports lazily would charge its import to the first
        # job's spans; a fresh process shows which are loaded by the claim
        probe = (
            "import sys\n"
            "from repro.qsim.service import worker\n"
            "from repro.qsim.service.store import JobStore\n"
            "def claim(self, *args):\n"
            "    print(sorted(m for m in ('numpy.random', 'repro.qsim.backends',\n"
            "                             'repro.qsim.shotbatch') if m in sys.modules))\n"
            "JobStore.claim = claim\n"
            f"worker.worker_loop({str(store.path)!r}, burst=True)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
        ).stdout
        assert out.strip() == "['numpy.random', 'repro.qsim.backends', 'repro.qsim.shotbatch']"

    @pytest.mark.parametrize("noise_p", [None, 0.01])
    def test_cold_compile_parses_once(self, store, noise_p):
        # the submitted text is parsed; the compiled text it stores is not
        qc = QuantumCircuit(3, 3, name="cold")
        qc.h(0).cx(0, 1).rz(0.1, 2).rz(0.2, 2).cx(1, 2)
        payload = BatchPayload.from_circuits([qc], shots=16, seed=5, noise_p=noise_p)
        trace = store.get(run_one(store, payload)).telemetry_dict()["trace"]

        def find(node, name):
            found = [node] if node["name"] == name else []
            for child in node.get("children", []):
                found += find(child, name)
            return found

        (compile_span,) = find(trace, "cache.compile")
        assert len(find(compile_span, "cache.parse")) == 1
        assert len(find(trace, "cache.parse")) == 1

    def test_metrics_are_per_job_not_process_wide(self, store):
        first = store.get(run_one(store)).telemetry_dict()
        second = store.get(run_one(store)).telemetry_dict()
        # each trace holds only its own job's spans, so both count the same
        for artifact in (first, second):
            counters = metrics_from_traces([artifact["trace"]])["counters"]
            assert counters["engine.statevector.shots"] == 32

    def test_worker_leaves_no_span_residue(self, store):
        run_one(store)
        assert telemetry.drain_spans() == []

    def test_disabled_telemetry_yields_no_artifact_but_job_succeeds(self, store):
        telemetry.disable()
        record = store.get(run_one(store))
        assert record.state == "DONE"
        assert record.telemetry is None
        with pytest.raises(ServiceError, match="no telemetry artifact"):
            record.telemetry_dict()

    def test_artifact_survives_store_reopen(self, store, tmp_path):
        job_id = run_one(store)
        with JobStore(store.path) as reopened:
            artifact = reopened.get(job_id).telemetry_dict()
        assert artifact["trace"]["name"] == "job"


class TestAggregation:
    def test_aggregate_counts_done_jobs(self, store):
        run_one(store)
        run_one(store)
        merged = metrics_from_traces(store.telemetry_traces())
        assert merged["counters"]["engine.statevector.shots"] == 64
        assert merged["counters"]["engine.statevector.experiments"] == 2
        assert merged["histograms"]["engine.run.seconds"]["count"] == 2

    def test_aggregate_empty_store(self, store):
        assert list(store.telemetry_traces()) == []
        assert metrics_from_traces(store.telemetry_traces()) == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_aggregate_skips_jobs_without_artifacts(self, store):
        run_one(store)
        telemetry.disable()
        run_one(store)
        telemetry.enable()
        merged = metrics_from_traces(store.telemetry_traces())
        assert merged["counters"]["engine.statevector.experiments"] == 1

    def test_aggregate_skips_unreadable_artifacts(self, store):
        run_one(store)
        broken = run_one(store)
        store._conn.execute(
            "UPDATE jobs SET telemetry = ? WHERE job_id = ?", ("{not json", broken)
        )
        assert len(list(store.telemetry_traces())) == 1
        merged = metrics_from_traces(store.telemetry_traces())
        assert merged["counters"]["engine.statevector.experiments"] == 1

    def test_version_1_artifacts_still_aggregate(self, store):
        # a v1 artifact also carried a "metrics" snapshot; its trace counts
        job_id = run_one(store)
        artifact = store.get(job_id).telemetry_dict()
        artifact.update(version=1, metrics={"counters": {"stale": 9.0}})
        store._conn.execute(
            "UPDATE jobs SET telemetry = ? WHERE job_id = ?", (json.dumps(artifact), job_id)
        )
        merged = metrics_from_traces(store.telemetry_traces())
        assert merged["counters"]["engine.statevector.shots"] == 32
        assert "stale" not in merged["counters"]

    def test_stats_job_cache_hit_rate(self, store):
        run_one(store)  # cold: compile miss
        run_one(store)  # warm: a fresh worker's disk hit
        job_cache = store.stats()["job_cache"]
        assert job_cache == {
            "hits": 1,
            "misses": 1,
            "corrupt": 0,
            "jobs": 2,
            "hit_rate": 0.5,
        }


class TestPurge:
    def test_purge_deletes_done_and_cancelled(self, store):
        done = run_one(store)
        cancelled = store.submit(bell_payload().to_json())
        store.cancel(cancelled)
        queued = store.submit(bell_payload().to_json())
        assert store.purge(older_than=0) == 2
        remaining = {record.job_id for record in store.list_jobs()}
        assert remaining == {queued}
        assert done not in remaining

    def test_purge_keeps_young_jobs(self, store):
        run_one(store)
        assert store.purge(older_than=3600) == 0
        assert len(store.list_jobs()) == 1

    def test_purge_rejects_negative_ttl(self, store):
        with pytest.raises(ServiceError, match=">= 0"):
            store.purge(older_than=-1)
