"""Per-code fixture tests for the core passes, plus the registry and report.

Each fixture circuit comes through the QASM importer so every assertion can
pin the *span* (line/column) a diagnostic points at, not just its code.
"""

import pytest

from repro.qsim.analysis import (
    AnalysisReport,
    AnalysisTarget,
    Severity,
    analyze,
    available_passes,
    register_pass,
)
from repro.qsim.analysis.passes import _PASSES
from repro.qsim.circuit import QuantumCircuit
from repro.qsim.qasm import from_qasm

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


def lint(body, target=None, filename="fix.qasm"):
    from repro.qsim.qasm import _QasmParser

    parser = _QasmParser(HEADER + body, name="fixture", filename=filename)
    return analyze(parser.parse(), target)


def only(report, code):
    found = [d for d in report if d.code == code]
    assert found, f"no {code} in {[d.code for d in report]}"
    return found


class TestMeasureFlow:
    def test_qa101_gate_after_measure(self):
        report = lint(
            "qreg q[1];\ncreg c[1];\nh q[0];\nmeasure q[0] -> c[0];\nx q[0];\n"
        )
        (d,) = only(report, "QA101")
        assert d.severity is Severity.WARNING
        assert (d.span.line, d.span.column) == (7, 1)  # the x gate's line
        assert d.span.source == "fix.qasm"

    def test_qa101_reported_once_per_measure(self):
        report = lint(
            "qreg q[1];\ncreg c[1];\nmeasure q[0] -> c[0];\nx q[0];\ny q[0];\n"
        )
        assert len(only(report, "QA101")) == 1

    def test_qa101_silenced_by_reset(self):
        report = lint(
            "qreg q[1];\ncreg c[1];\nmeasure q[0] -> c[0];\nreset q[0];\nx q[0];\n"
        )
        assert [d for d in report if d.code == "QA101"] == []

    def test_qa102_clbit_clobber_mentions_previous_site(self):
        report = lint(
            "qreg q[2];\ncreg c[1];\nh q[0];\nh q[1];\n"
            "measure q[0] -> c[0];\nmeasure q[1] -> c[0];\n"
        )
        (d,) = only(report, "QA102")
        assert d.severity is Severity.WARNING
        assert d.span.line == 8  # the second measure
        assert "fix.qasm:7:1" in d.message  # points back at the first

    def test_qa103_redundant_remeasure(self):
        report = lint(
            "qreg q[1];\ncreg c[2];\nh q[0];\n"
            "measure q[0] -> c[0];\nmeasure q[0] -> c[1];\n"
        )
        (d,) = only(report, "QA103")
        assert d.severity is Severity.INFO
        assert d.span.line == 7

    def test_clean_bell_circuit_has_no_flow_findings(self):
        report = lint(
            "qreg q[2];\ncreg c[2];\nh q[0];\ncx q[0], q[1];\n"
            "measure q[0] -> c[0];\nmeasure q[1] -> c[1];\n"
        )
        assert list(report) == []

    def test_qa101_suppressed_for_conditioned_feedforward(self):
        # active teleportation-style correction: conditioned gate on a
        # measured qubit is deliberate, not a forgotten reset
        report = lint(
            "qreg q[1];\ncreg c[1];\nh q[0];\nmeasure q[0] -> c[0];\n"
            "if(c==1) x q[0];\n"
        )
        assert [d for d in report if d.code in ("QA101", "QA104")] == []

    def test_qa104_condition_before_any_measurement(self):
        report = lint(
            "qreg q[1];\ncreg c[1];\nif(c==1) x q[0];\nmeasure q[0] -> c[0];\n"
        )
        (d,) = only(report, "QA104")
        assert d.severity is Severity.WARNING
        assert (d.span.line, d.span.column) == (5, 10)  # the conditioned x
        assert "'c'" in d.message and "never executes" in d.message

    def test_qa104_value_zero_reports_always_executes(self):
        report = lint(
            "qreg q[1];\ncreg c[1];\nif(c==0) x q[0];\nmeasure q[0] -> c[0];\n"
        )
        (d,) = only(report, "QA104")
        assert "always executes" in d.message

    def test_qa104_reported_once_per_register(self):
        report = lint(
            "qreg q[1];\ncreg c[1];\nif(c==1) x q[0];\nif(c==1) y q[0];\n"
            "measure q[0] -> c[0];\n"
        )
        assert len(only(report, "QA104")) == 1

    def test_qa104_silenced_by_partial_register_write(self):
        # one measured bit is enough: the register can vary at runtime
        report = lint(
            "qreg q[2];\ncreg c[2];\nh q[0];\nmeasure q[0] -> c[0];\n"
            "if(c==1) x q[1];\nmeasure q[1] -> c[1];\n"
        )
        assert [d for d in report if d.code == "QA104"] == []


class TestUnused:
    def test_qa201_single_unused_qubit(self):
        report = lint("qreg q[2];\ncreg c[1];\nh q[0];\nmeasure q[0] -> c[0];\n")
        (d,) = only(report, "QA201")
        assert d.severity is Severity.INFO
        assert "q[1]" in d.message
        assert d.span.line == 3  # the qreg declaration

    def test_qa201_whole_register_aggregated(self):
        report = lint(
            "qreg q[1];\nqreg spare[3];\ncreg c[1];\nh q[0];\nmeasure q[0] -> c[0];\n"
        )
        (d,) = only(report, "QA201")
        assert "'spare'" in d.message and "3 qubit(s)" in d.message
        assert d.span.line == 4

    def test_qa202_unwritten_creg(self):
        report = lint("qreg q[1];\ncreg c[1];\ncreg never[2];\nh q[0];\nmeasure q[0] -> c[0];\n")
        (d,) = only(report, "QA202")
        assert "'never'" in d.message

    def test_barrier_is_not_a_use(self):
        report = lint("qreg q[2];\ncreg c[1];\nh q[0];\nbarrier q;\nmeasure q[0] -> c[0];\n")
        assert len(only(report, "QA201")) == 1  # q[1] still unused


class TestNoiseFlow:
    BODY = "qreg q[2];\ncreg c[1];\nh q[0];\ncx q[0], q[1];\nmeasure q[0] -> c[0];\n"

    def test_qa301_requires_noise_in_target(self):
        assert [d for d in lint(self.BODY) if d.code == "QA301"] == []
        report = lint(self.BODY, AnalysisTarget(noise_p=0.01))
        (d,) = only(report, "QA301")
        assert d.severity is Severity.WARNING
        assert "q[1]" in d.message
        assert d.span.line == 6  # the cx, the last gate touching q[1]

    def test_qa301_circuit_level_when_nothing_measured(self):
        report = lint(
            "qreg q[1];\nh q[0];\n", AnalysisTarget(noise_p=0.05, noise_channel="bit_flip")
        )
        (d,) = only(report, "QA301")
        assert d.span is None
        assert "no measurements" in d.message and "bit_flip" in d.message

    def test_zero_probability_is_quiet(self):
        report = lint(self.BODY, AnalysisTarget(noise_p=0.0))
        assert [d for d in report if d.code == "QA301"] == []


class TestBackendCompat:
    CLEAN = "qreg q[2];\ncreg c[2];\nh q[0];\ncx q[0], q[1];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\n"

    def test_qa401_non_clifford_on_stabilizer_with_span(self):
        report = lint(
            "qreg q[1];\ncreg c[1];\nt q[0];\nmeasure q[0] -> c[0];\n",
            AnalysisTarget(backend="chp"),  # alias resolves like get_backend
        )
        (d,) = only(report, "QA401")
        assert d.severity is Severity.ERROR
        assert "'t'" in d.message
        assert d.span.line == 5

    def test_clifford_circuit_fine_on_stabilizer(self):
        report = lint(self.CLEAN, AnalysisTarget(backend="stabilizer"))
        assert not report.has_errors

    def test_qa402_statevector_memory(self):
        body = "qreg q[32];\ncreg c[1];\nh q[0];\nmeasure q[0] -> c[0];\n"
        report = lint(body, AnalysisTarget(backend="sv"))
        (d,) = only(report, "QA402")
        assert d.severity is Severity.ERROR
        assert "GiB" in d.message

    def test_qa403_density_matrix_memory_with_custom_budget(self):
        report = lint(
            self.CLEAN,
            AnalysisTarget(backend="dm", memory_budget_bytes=16),
        )
        (d,) = only(report, "QA403")
        assert "budget" in d.message

    def test_qa404_unknown_noise_channel(self):
        report = lint(
            self.CLEAN, AnalysisTarget(noise_p=0.1, noise_channel="thermal")
        )
        (d,) = only(report, "QA404")
        assert "thermal" in d.message and "depolarizing" in d.message

    @pytest.mark.parametrize("p", [1.5, -0.1, float("nan")])
    def test_qa407_noise_probability_outside_unit_interval(self, p):
        report = lint(self.CLEAN, AnalysisTarget(noise_p=p, noise_channel="bit_flip"))
        (d,) = only(report, "QA407")
        assert d.severity is Severity.ERROR
        assert "[0, 1]" in d.message

    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_qa407_quiet_inside_unit_interval(self, p):
        report = lint(self.CLEAN, AnalysisTarget(noise_p=p, noise_channel="bit_flip"))
        assert [d for d in report if d.code == "QA407"] == []

    def test_qa405_unknown_backend_lists_names(self):
        report = lint(self.CLEAN, AnalysisTarget(backend="quantumz"))
        (d,) = only(report, "QA405")
        assert "statevector" in d.message and "aliases" in d.message

    def test_qa406_nonpositive_shots(self):
        report = lint(self.CLEAN, AnalysisTarget(shots=0))
        (d,) = only(report, "QA406")
        assert d.severity is Severity.ERROR

    def test_no_target_means_no_compat_findings(self):
        body = "qreg q[32];\ncreg c[1];\nt q[0];\nmeasure q[0] -> c[0];\n"
        report = lint(body)
        assert [d for d in report if d.code.startswith("QA4")] == []


class TestAnalyzeDriver:
    def test_diagnostics_sorted_by_instruction_with_circuit_level_last(self):
        report = lint(
            "qreg q[2];\ncreg c[1];\nmeasure q[0] -> c[0];\nx q[0];\n",
            AnalysisTarget(noise_p=0.1),
        )
        indices = [d.instruction_index for d in report]
        anchored = [i for i in indices if i is not None]
        assert anchored == sorted(anchored)
        assert all(i is not None for i in indices[: len(anchored)])

    def test_pass_subset_selection(self):
        report = lint("qreg q[2];\ncreg c[1];\nh q[0];\nmeasure q[0] -> c[0];\n")
        circuit = from_qasm(HEADER + "qreg q[2];\ncreg c[1];\nh q[0];\nmeasure q[0] -> c[0];\n")
        subset = analyze(circuit, passes=["measure_flow"])
        assert list(subset) == []  # QA201 comes from the skipped 'unused' pass
        assert only(report, "QA201")

    def test_unknown_pass_name_raises(self):
        with pytest.raises(ValueError, match="unknown analysis pass"):
            analyze(QuantumCircuit(1), passes=["ghost"])

    def test_report_carries_resources(self):
        report = lint("qreg q[2];\ncreg c[2];\nh q[0];\ncx q[0], q[1];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\n")
        assert report.resources is not None
        assert report.resources.num_qubits == 2
        assert report.resources.two_qubit_gates == 1


class TestRegistry:
    def test_core_passes_registered_in_order(self):
        assert available_passes() == [
            "measure_flow",
            "unused",
            "noise_flow",
            "backend_compat",
        ]

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_pass("measure_flow", lambda ctx: [])

    def test_decorator_form_and_overwrite(self):
        @register_pass("scratch_pass")
        def scratch(ctx):
            return []

        try:
            assert "scratch_pass" in available_passes()
            register_pass("scratch_pass", lambda ctx: [], overwrite=True)
        finally:
            _PASSES.pop("scratch_pass", None)

    def test_custom_pass_diagnostics_flow_through(self):
        from repro.qsim.analysis import Diagnostic

        @register_pass("always_info")
        def always_info(ctx):
            yield Diagnostic("QA201", Severity.INFO, "custom finding", source="always_info")

        try:
            report = analyze(QuantumCircuit(1, name="c"))
            assert any(d.source == "always_info" for d in report)
        finally:
            _PASSES.pop("always_info", None)


class TestReport:
    def _report(self):
        return lint(
            "qreg q[1];\ncreg c[1];\nmeasure q[0] -> c[0];\nx q[0];\n",
            AnalysisTarget(backend="nope"),
        )

    def test_severity_views(self):
        report = self._report()
        assert report.has_errors
        assert report.max_severity is Severity.ERROR
        assert {d.code for d in report.errors} == {"QA405"}
        assert {d.code for d in report.warnings} == {"QA101"}
        assert len(report.at_least(Severity.WARNING)) == 2

    def test_format_filters_by_min_severity(self):
        report = self._report()
        text = report.format(min_severity=Severity.ERROR)
        assert "QA405" in text and "QA101" not in text

    def test_dict_roundtrip_preserves_diagnostics(self):
        report = self._report()
        back = AnalysisReport.from_dict(report.to_dict())
        assert back.circuit_name == report.circuit_name
        assert back.diagnostics == report.diagnostics
        assert back.resources is None  # resources stay serialized

    def test_empty_report(self):
        report = AnalysisReport("empty", [])
        assert not report.has_errors
        assert report.max_severity is None
        assert report.format() == ""
        assert len(report) == 0
