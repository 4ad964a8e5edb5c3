"""Structured diagnostics: stable codes, severities, source locations.

A :class:`Diagnostic` is one finding of the static analyzer: a stable code
(``QA101``), a :class:`Severity`, a human message, and — when the circuit
came through the QASM importer — a :class:`~repro.qsim.circuit.SourceSpan`
pointing at the offending ``file:line:column``.  The full code catalogue
lives in :data:`DIAGNOSTIC_CODES`; ``docs/analysis.md`` is the guide.

Codes are grouped by family:

* ``QA0xx`` — input problems (parse errors surfaced as diagnostics),
* ``QA1xx`` — measurement-flow findings,
* ``QA2xx`` — unused-resource findings,
* ``QA3xx`` — noise-flow findings,
* ``QA4xx`` — backend-compatibility findings (only emitted when an
  :class:`~repro.qsim.analysis.passes.AnalysisTarget` is supplied).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from ..circuit import SourceSpan

__all__ = ["Severity", "Diagnostic", "DIAGNOSTIC_CODES"]


class Severity(enum.IntEnum):
    """Diagnostic severity, ordered so comparisons mean what you expect."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        """Lower-case name used in formatted output (``error``, ...)."""
        return self.name.lower()

    @classmethod
    def parse(cls, text: str) -> "Severity":
        """Parse a severity name; accepts ``warn`` as ``warning``."""
        normalized = text.strip().lower()
        if normalized == "warn":
            normalized = "warning"
        try:
            return cls[normalized.upper()]
        except KeyError:
            choices = ", ".join(s.label for s in cls)
            raise ValueError(f"unknown severity {text!r} (choose from {choices})") from None


#: every stable diagnostic code -> one-line description (the catalogue)
DIAGNOSTIC_CODES: Dict[str, str] = {
    "QA001": "OpenQASM source failed to parse",
    "QA101": "gate applied to a measured qubit without an intervening reset",
    "QA102": "measurement overwrites a classical bit that was already written",
    "QA103": "qubit re-measured with no gate or reset since its last measurement",
    "QA104": "condition compares a classical register no measurement has written yet",
    "QA201": "qubit is never used by any instruction",
    "QA202": "classical bit is never written by any measurement",
    "QA301": "noise accumulates on a qubit that is never measured",
    "QA401": "non-Clifford instruction targets the stabilizer backend",
    "QA402": "statevector memory estimate exceeds the budget",
    "QA403": "density-matrix memory estimate exceeds the budget",
    "QA404": "unknown noise channel for the target backend",
    "QA405": "unknown backend name",
    "QA406": "shot count must be positive",
    "QA407": "noise probability outside [0, 1]",
}


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding; immutable and JSON-serializable.

    ``instruction_index`` is the position in ``circuit.data`` the finding
    anchors to (``None`` for circuit-level findings such as an unused
    register), and ``source`` names the pass that produced it.
    """

    code: str
    severity: Severity
    message: str
    span: Optional[SourceSpan] = None
    instruction_index: Optional[int] = None
    source: Optional[str] = None

    def __post_init__(self) -> None:
        if self.code not in DIAGNOSTIC_CODES:
            raise ValueError(
                f"unknown diagnostic code {self.code!r}; register it in "
                "repro.qsim.analysis.diagnostics.DIAGNOSTIC_CODES"
            )

    def location(self, circuit: str = "<circuit>") -> str:
        """``file:line:column`` when a span is known, *circuit* otherwise."""
        if self.span is None:
            return circuit
        return self.span.location()

    def format(self, circuit: str = "<circuit>") -> str:
        """gcc-style one-liner: ``file:line:col: error[QA401]: message``; a
        finding without a span is located at *circuit*."""
        return f"{self.location(circuit)}: {self.severity.label}[{self.code}]: {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form, the shape persisted in the service job record."""
        payload: Dict[str, Any] = {
            "code": self.code,
            "severity": self.severity.label,
            "message": self.message,
        }
        if self.span is not None:
            payload["span"] = {
                "line": self.span.line,
                "column": self.span.column,
                "source": self.span.source,
            }
        if self.instruction_index is not None:
            payload["instruction_index"] = self.instruction_index
        if self.source is not None:
            payload["source"] = self.source
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Diagnostic":
        """Rebuild a diagnostic from :meth:`to_dict` output."""
        span_data = data.get("span")
        span = None
        if span_data is not None:
            span = SourceSpan(
                int(span_data["line"]),
                int(span_data["column"]),
                span_data.get("source"),
            )
        return cls(
            code=str(data["code"]),
            severity=Severity.parse(str(data["severity"])),
            message=str(data["message"]),
            span=span,
            instruction_index=data.get("instruction_index"),
            source=data.get("source"),
        )
