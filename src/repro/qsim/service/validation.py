"""Submit-time payload validation: the service's reject-early front door.

Every :class:`~repro.qsim.service.payload.BatchPayload` is analyzed at
submission — before the job row is even inserted — against the payload's
own run config (backend, shots, noise).  The per-circuit
:class:`~repro.qsim.analysis.AnalysisReport` objects are serialized into
the job's ``diagnostics`` column as a durable artifact; a payload with any
error-severity finding (a non-Clifford circuit headed for ``stabilizer``,
a 30-qubit dense request, an unknown backend name) is recorded directly as
``FAILED`` so no worker ever claims it and no amplitude is ever allocated.

CLI: ``qutes submit`` prints the findings and exits non-zero on rejection
(``--no-lint`` skips validation entirely); ``qutes status`` summarises the
stored artifact.  See ``docs/analysis.md`` and ``docs/service.md``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..analysis import AnalysisReport, AnalysisTarget, Diagnostic, Severity, analyze
from ..exceptions import QasmError
from ..qasm import from_qasm
from .payload import BatchPayload
from .store import JobStore

__all__ = ["DIAGNOSTICS_ARTIFACT_VERSION", "analysis_target", "validate_payload", "submit_payload"]

#: bumped whenever the diagnostics artifact JSON shape changes incompatibly
DIAGNOSTICS_ARTIFACT_VERSION = 1


def analysis_target(payload: BatchPayload) -> AnalysisTarget:
    """The :class:`AnalysisTarget` described by *payload*'s run config."""
    return AnalysisTarget(
        backend=payload.backend,
        shots=payload.shots,
        noise_p=payload.noise_p,
        noise_channel=payload.noise_channel,
    )


def validate_payload(payload: BatchPayload) -> List[AnalysisReport]:
    """Analyze every circuit of *payload* against its own run config.

    Returns one report per payload entry, in order.  An entry whose QASM
    does not parse yields a report with a single ``QA001`` error (carrying
    the parse position) instead of raising — at submit time a broken entry
    is a finding, not a crash.
    """
    target = analysis_target(payload)
    reports: List[AnalysisReport] = []
    for i, entry in enumerate(payload.circuits):
        name = entry.get("name", f"experiment-{i}")
        try:
            circuit = from_qasm(entry["qasm"], name=name)
        except QasmError as exc:
            diagnostic = Diagnostic(
                "QA001",
                Severity.ERROR,
                f"entry {name!r} failed to parse: {exc}",
                source="validation",
            )
            reports.append(AnalysisReport(name, [diagnostic]))
            continue
        reports.append(analyze(circuit, target))
    return reports


def serialize_reports(reports: List[AnalysisReport]) -> str:
    """The JSON artifact stored in the job record's ``diagnostics`` column."""
    import json

    return json.dumps(
        {
            "version": DIAGNOSTICS_ARTIFACT_VERSION,
            "reports": [report.to_dict() for report in reports],
        }
    )


def submit_payload(
    store: JobStore,
    payload: BatchPayload,
    max_attempts: int = 3,
    not_before: float = 0.0,
    reports: Optional[List[AnalysisReport]] = None,
    validate: bool = True,
) -> Tuple[str, List[AnalysisReport], bool]:
    """Validate and submit *payload*; returns ``(job_id, reports, rejected)``.

    With *validate* (the default) the payload is analyzed first — callers
    that already ran :func:`validate_payload` (the CLI does, to report spans
    against the original files) pass their *reports* in instead of paying
    for a second analysis.  Error severity inserts the job directly as
    ``FAILED`` with the formatted findings as its error artifact, so it is
    rejected before any worker can claim it; otherwise the job queues
    normally.  Either way the serialized reports are persisted on the row.
    """
    if validate and reports is None:
        reports = validate_payload(payload)
    diagnostics_json = None if reports is None else serialize_reports(reports)
    rejected_error = None
    if reports is not None:
        error_lines = [report.format(Severity.ERROR) for report in reports if report.errors]
        if error_lines:
            rejected_error = "rejected at submit time by static analysis:\n" + "\n".join(
                error_lines
            )
    job_id = store.submit(
        payload.to_json(),
        max_attempts=max_attempts,
        not_before=not_before,
        diagnostics=diagnostics_json,
        rejected_error=rejected_error,
    )
    return job_id, list(reports or []), rejected_error is not None
