"""Submit-time validation: diagnostics artifact + reject-before-claim."""

import json

import pytest

from repro.qsim import QuantumCircuit
from repro.qsim.analysis import Severity
from repro.qsim.service import (
    BatchPayload,
    JobStore,
    ServiceError,
    submit_payload,
    validate_payload,
    worker_loop,
)
from repro.qsim.service.validation import analysis_target, serialize_reports


@pytest.fixture
def db(tmp_path):
    return str(tmp_path / "svc.db")


def bell():
    qc = QuantumCircuit(2, 2, name="bell")
    qc.h(0).cx(0, 1)
    qc.measure([0, 1], [0, 1])
    return qc


def t_circuit():
    qc = QuantumCircuit(1, 1, name="tee")
    qc.t(0)
    qc.measure(0, 0)
    return qc


class TestAnalysisTarget:
    def test_mirrors_payload_config(self):
        payload = BatchPayload.from_circuits(
            [bell()], shots=64, backend="dm", noise_p=0.02, noise_channel="bit_flip"
        )
        target = analysis_target(payload)
        assert target.backend == "dm"
        assert target.shots == 64
        assert target.noise_p == 0.02
        assert target.noise_channel == "bit_flip"

    def test_no_noise_leaves_channel_unset(self):
        payload = BatchPayload.from_circuits([bell()], shots=8)
        target = analysis_target(payload)
        assert target.noise_p is None and target.noise_channel is None


class TestValidatePayload:
    def test_one_report_per_entry_in_order(self):
        payload = BatchPayload.from_circuits([bell(), t_circuit()], shots=16)
        reports = validate_payload(payload)
        assert [r.circuit_name for r in reports] == ["bell", "tee"]
        assert not any(r.has_errors for r in reports)

    def test_stabilizer_target_flags_non_clifford(self):
        payload = BatchPayload.from_circuits(
            [bell(), t_circuit()], shots=16, backend="stabilizer"
        )
        reports = validate_payload(payload)
        assert not reports[0].has_errors
        assert [d.code for d in reports[1].errors] == ["QA401"]

    def test_unparsable_entry_becomes_qa001_not_a_crash(self):
        payload = BatchPayload.from_circuits([bell()], shots=16)
        data = json.loads(payload.to_json())
        data["circuits"][0]["qasm"] = "OPENQASM 2.0;\nqreg q[1;\n"
        broken = BatchPayload.from_json(json.dumps(data))
        (report,) = validate_payload(broken)
        (d,) = list(report)
        assert d.code == "QA001" and d.severity is Severity.ERROR
        assert "line 2" in d.message


class TestSubmitPayload:
    def test_clean_payload_queues_and_runs(self, db):
        payload = BatchPayload.from_circuits([bell()], shots=32, seed=5)
        with JobStore(db) as store:
            job_id, reports, rejected = submit_payload(store, payload)
            assert not rejected and len(reports) == 1
            assert store.get(job_id).state == "QUEUED"
        worker_loop(db, burst=True)
        with JobStore(db) as store:
            record = store.get(job_id)
        assert record.state == "DONE"
        assert sum(record.result_dict()["results"][0]["counts"].values()) == 32

    def test_error_payload_rejected_before_any_claim(self, db):
        payload = BatchPayload.from_circuits(
            [t_circuit()], shots=16, backend="stabilizer"
        )
        with JobStore(db) as store:
            job_id, reports, rejected = submit_payload(store, payload)
            assert rejected and reports[0].has_errors
            record = store.get(job_id)
        assert record.state == "FAILED"
        assert record.attempts == 0  # no worker ever touched it
        assert "rejected at submit time" in record.error
        assert "QA401" in record.error
        # a draining worker must skip it entirely
        assert worker_loop(db, burst=True) == 0
        with JobStore(db) as store:
            assert store.get(job_id).attempts == 0

    def test_rejection_names_the_entry_of_a_finding_without_a_span(self, db):
        payload = BatchPayload.from_circuits([bell(), t_circuit()], backend="nosuch")
        with JobStore(db) as store:
            job_id, _, rejected = submit_payload(store, payload)
            record = store.get(job_id)
        assert rejected
        lines = record.error.splitlines()[1:]
        assert [line.split(": ")[0] for line in lines] == ["bell", "tee"]
        assert all("error[QA405]" in line for line in lines)

    def test_diagnostics_artifact_persisted_for_both_outcomes(self, db):
        clean = BatchPayload.from_circuits([bell()], shots=8)
        bad = BatchPayload.from_circuits([t_circuit()], shots=8, backend="chp")
        with JobStore(db) as store:
            clean_id, _, _ = submit_payload(store, clean)
            bad_id, _, _ = submit_payload(store, bad)
            clean_art = store.get(clean_id).diagnostics_dict()
            bad_art = store.get(bad_id).diagnostics_dict()
        assert clean_art["version"] == 1
        assert clean_art["reports"][0]["diagnostics"] == []
        assert clean_art["reports"][0]["resources"]["num_qubits"] == 2
        codes = [d["code"] for d in bad_art["reports"][0]["diagnostics"]]
        assert "QA401" in codes

    def test_validate_false_skips_analysis_and_artifact(self, db):
        payload = BatchPayload.from_circuits(
            [t_circuit()], shots=8, backend="stabilizer"
        )
        with JobStore(db) as store:
            job_id, reports, rejected = submit_payload(store, payload, validate=False)
            assert reports == [] and not rejected
            record = store.get(job_id)
            assert record.state == "QUEUED"
            assert record.diagnostics is None
            with pytest.raises(ServiceError, match="no diagnostics"):
                record.diagnostics_dict()

    def test_caller_supplied_reports_are_used_verbatim(self, db):
        payload = BatchPayload.from_circuits([bell()], shots=8)
        reports = validate_payload(payload)
        with JobStore(db) as store:
            job_id, returned, rejected = submit_payload(store, payload, reports=reports)
            stored = store.get(job_id).diagnostics
        assert returned == reports and not rejected
        assert stored == serialize_reports(reports)

    def test_artifact_roundtrips_through_analysis_report(self, db):
        from repro.qsim.analysis import AnalysisReport

        payload = BatchPayload.from_circuits([t_circuit()], shots=8, backend="chp")
        with JobStore(db) as store:
            job_id, _, _ = submit_payload(store, payload)
            artifact = store.get(job_id).diagnostics_dict()
        report = AnalysisReport.from_dict(artifact["reports"][0])
        assert report.has_errors
        assert report.errors[0].code == "QA401"
