"""Diagnostic / Severity / code-catalogue unit tests."""

import pytest

from repro.qsim.analysis import DIAGNOSTIC_CODES, AnalysisReport, Diagnostic, Severity
from repro.qsim.circuit import SourceSpan


class TestSeverity:
    def test_ordering(self):
        assert Severity.INFO < Severity.WARNING < Severity.ERROR

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("info", Severity.INFO),
            ("warning", Severity.WARNING),
            ("warn", Severity.WARNING),
            ("error", Severity.ERROR),
            ("ERROR", Severity.ERROR),
        ],
    )
    def test_parse(self, text, expected):
        assert Severity.parse(text) is expected

    def test_parse_unknown_raises(self):
        with pytest.raises(ValueError, match="severity"):
            Severity.parse("fatal")

    def test_labels(self):
        assert Severity.INFO.label == "info"
        assert Severity.WARNING.label == "warning"
        assert Severity.ERROR.label == "error"


class TestCatalogue:
    def test_every_code_has_qa_prefix_and_summary(self):
        for code, summary in DIAGNOSTIC_CODES.items():
            assert code.startswith("QA") and len(code) == 5
            assert summary

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError, match="QA999"):
            Diagnostic("QA999", Severity.INFO, "nope")


class TestDiagnostic:
    def test_format_with_span(self):
        d = Diagnostic(
            "QA101",
            Severity.WARNING,
            "gate after measure",
            span=SourceSpan(7, 3, "bell.qasm"),
        )
        assert d.format() == "bell.qasm:7:3: warning[QA101]: gate after measure"

    def test_format_without_span_uses_placeholder(self):
        d = Diagnostic("QA406", Severity.ERROR, "bad shots")
        assert d.format() == "<circuit>: error[QA406]: bad shots"

    def test_report_locates_spanless_findings_at_its_circuit(self):
        spanned = Diagnostic(
            "QA101", Severity.WARNING, "m", span=SourceSpan(2, 5, "bell.qasm")
        )
        spanless = Diagnostic("QA406", Severity.ERROR, "bad shots")
        report = AnalysisReport("dir/bell.qasm", [spanned, spanless])
        assert report.format().splitlines() == [
            "bell.qasm:2:5: warning[QA101]: m",
            "dir/bell.qasm: error[QA406]: bad shots",
        ]

    def test_span_without_source_is_line_col(self):
        d = Diagnostic("QA101", Severity.WARNING, "m", span=SourceSpan(2, 5))
        assert d.location() == "2:5"

    def test_dict_roundtrip(self):
        d = Diagnostic(
            "QA102",
            Severity.WARNING,
            "clobber",
            span=SourceSpan(4, 1, "x.qasm"),
            instruction_index=9,
            source="measure_flow",
        )
        back = Diagnostic.from_dict(d.to_dict())
        assert back == d

    def test_dict_roundtrip_without_span(self):
        d = Diagnostic("QA406", Severity.ERROR, "bad shots", source="backend_compat")
        assert Diagnostic.from_dict(d.to_dict()) == d

    def test_frozen(self):
        d = Diagnostic("QA406", Severity.ERROR, "bad shots")
        with pytest.raises(AttributeError):
            d.message = "other"
