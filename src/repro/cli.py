"""Command-line runner: ``qutes program.qut`` plus the execution service.

Options mirror what a user of the original implementation gets from its
runner scripts: print the program output, optionally dump the generated
circuit (text or OpenQASM 2.0) and the final values of global variables.

The durable execution service (see ``docs/service.md``) is exposed as
verbs -- ``qutes submit / status / result / cancel / worker / queue-stats /
trace / metrics / purge`` -- sharing the familiar
``--backend/--noise/--shots/--seed`` flags with the direct runner.  The
observability verbs (``trace``, ``metrics``; guide in
``docs/observability.md``) read the per-job telemetry artifacts workers
record through :mod:`repro.qsim.telemetry`.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .lang import QutesError, run_file
from .qsim.backends import build_noisy_backend
from .qsim.circuit import QuantumCircuit, _with_final_measure
from .qsim.exceptions import BackendError, CircuitError, QasmError, SimulationError
from .qsim.noise import DEFAULT_NOISE_CHANNEL, NOISE_CHANNELS
from .qsim.qasm import from_qasm_file, to_qasm

__all__ = [
    "main",
    "build_arg_parser",
    "build_service_parser",
    "build_lint_parser",
    "SERVICE_VERBS",
]

#: first-positional-argument verbs that dispatch to the execution service
SERVICE_VERBS = (
    "submit",
    "status",
    "result",
    "cancel",
    "worker",
    "queue-stats",
    "trace",
    "metrics",
    "purge",
)

#: default service database (override per call with --db)
DEFAULT_SERVICE_DB = os.environ.get("QUTES_SERVICE_DB", "qutes-service.db")


def build_arg_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="qutes",
        description="Run a Qutes program on the bundled simulation backends.",
        epilog="Extra verbs: `qutes lint FILE...` statically analyzes circuits "
        "without running them (docs/analysis.md); service verbs (durable job "
        "queue; see docs/service.md): "
        + " / ".join(SERVICE_VERBS)
        + ".  Run `qutes <verb> --help` for their options.",
    )
    parser.add_argument("program", nargs="?", default=None, help="path to the .qut source file")
    parser.add_argument(
        "--from-qasm",
        default=None,
        metavar="FILE",
        help="run an OpenQASM 2.0 or OpenQASM 3 (subset) circuit file instead "
        "of a Qutes program (composes with --backend/--noise/--shots/--seed; "
        "circuits without measurements get a final measure-all)",
    )
    parser.add_argument("--seed", type=int, default=None, help="RNG seed for measurements")
    parser.add_argument("--shots", type=int, default=1024, help="shots used by sample()")
    parser.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help="execution backend that runs the program (every gate, measurement "
        "and sample(); stabilizer accepts Clifford programs only); see "
        "--list-backends",
    )
    parser.add_argument(
        "--list-backends",
        action="store_true",
        help="print the registered execution backends and exit",
    )
    parser.add_argument(
        "--noise",
        type=float,
        default=None,
        metavar="P",
        help="inject noise with probability P per qubit touched by each gate "
        "into the selected backend (statevector and stabilizer take the "
        "trajectory/Pauli-frame model, density_matrix the exact Kraus channel)",
    )
    parser.add_argument(
        "--noise-model",
        default=DEFAULT_NOISE_CHANNEL,
        choices=sorted(NOISE_CHANNELS),
        help="noise channel used with --noise (default: depolarizing)",
    )
    parser.add_argument(
        "--lint",
        nargs="?",
        const="error",
        default=None,
        choices=("error", "warn"),
        metavar="SEVERITY",
        help="statically analyze the --from-qasm circuit before running and "
        "abort when findings reach SEVERITY ('error' when the flag is bare, "
        "or 'warn'); see docs/analysis.md",
    )
    parser.add_argument("--show-circuit", action="store_true", help="print the logged circuit")
    parser.add_argument("--qasm", action="store_true", help="print the OpenQASM 2.0 export")
    parser.add_argument("--show-variables", action="store_true", help="print final global variables")
    parser.add_argument("--ast", action="store_true", help="print the parsed AST and exit")
    return parser


def build_service_parser() -> argparse.ArgumentParser:
    """Argument parser for the service verbs (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="qutes",
        description="Durable execution service: submit jobs, run workers, collect results.",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)

    def add_db(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--db",
            default=DEFAULT_SERVICE_DB,
            help="service database path (default: %(default)s, or $QUTES_SERVICE_DB)",
        )

    submit = verbs.add_parser(
        "submit", help="queue OpenQASM 2.0 circuit files as one durable job"
    )
    submit.add_argument("files", nargs="+", metavar="FILE", help="OpenQASM 2.0 circuit files")
    add_db(submit)
    submit.add_argument("--backend", default="statevector", metavar="NAME")
    submit.add_argument("--shots", type=int, default=1024)
    submit.add_argument("--seed", type=int, default=None)
    submit.add_argument("--noise", type=float, default=None, metavar="P")
    submit.add_argument(
        "--noise-model", default=DEFAULT_NOISE_CHANNEL, choices=sorted(NOISE_CHANNELS)
    )
    submit.add_argument(
        "--max-attempts", type=int, default=3, help="retry budget before FAILED"
    )
    submit.add_argument(
        "--no-lint",
        action="store_true",
        help="skip submit-time static analysis (jobs queue unvalidated and "
        "no diagnostics artifact is stored)",
    )

    status = verbs.add_parser("status", help="print a job's lifecycle state")
    status.add_argument("job_id")
    add_db(status)

    result = verbs.add_parser("result", help="print a finished job's counts")
    result.add_argument("job_id")
    add_db(result)
    result.add_argument(
        "--wait",
        type=float,
        default=None,
        metavar="SECONDS",
        help="poll until the job is terminal (at most SECONDS)",
    )

    cancel = verbs.add_parser("cancel", help="cancel a queued or running job")
    cancel.add_argument("job_id")
    add_db(cancel)

    worker = verbs.add_parser("worker", help="run worker processes draining the queue")
    add_db(worker)
    worker.add_argument("--workers", type=int, default=1)
    worker.add_argument("--burst", action="store_true", help="exit when the queue is empty")
    worker.add_argument("--max-jobs", type=int, default=None)
    worker.add_argument("--lease", type=float, default=None, help="lease timeout (s)")
    worker.add_argument("--poll", type=float, default=None, help="idle poll interval (s)")
    worker.add_argument("--retry-delay", type=float, default=None, help="retry backoff base (s)")
    worker.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="more service logging (repeatable; -v enables DEBUG)",
    )
    worker.add_argument(
        "-q",
        "--quiet",
        action="count",
        default=0,
        help="less service logging (repeatable; -q shows warnings only)",
    )

    stats = verbs.add_parser("queue-stats", help="print queue depth and cache statistics")
    add_db(stats)

    trace = verbs.add_parser(
        "trace", help="print a finished job's execution trace (span tree)"
    )
    trace.add_argument("job_id")
    add_db(trace)

    metrics = verbs.add_parser(
        "metrics", help="print metrics counted from the traces of finished jobs"
    )
    add_db(metrics)
    metrics.add_argument(
        "--format",
        dest="fmt",
        default="prometheus",
        choices=("prometheus", "json"),
        help="output format (default: %(default)s)",
    )

    purge = verbs.add_parser(
        "purge", help="delete DONE/CANCELLED jobs older than a TTL"
    )
    add_db(purge)
    purge.add_argument(
        "--older-than",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="only delete jobs last updated at least SECONDS ago (default: all)",
    )
    return parser


def build_lint_parser() -> argparse.ArgumentParser:
    """Argument parser for the ``lint`` verb (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="qutes lint",
        description="Statically analyze OpenQASM 2.0/3 circuit files without "
        "running them; see docs/analysis.md for the diagnostic catalogue.",
    )
    parser.add_argument("files", nargs="+", metavar="FILE", help="OpenQASM 2.0/3 circuit files")
    parser.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help="also check backend compatibility (Clifford-only restriction, "
        "state-memory budget) against NAME",
    )
    parser.add_argument("--shots", type=int, default=None, help="shot count to validate")
    parser.add_argument(
        "--noise", type=float, default=None, metavar="P", help="noise probability to validate"
    )
    parser.add_argument(
        "--noise-model",
        default=None,
        help="noise channel to validate with --noise (default: depolarizing)",
    )
    parser.add_argument(
        "--min-severity",
        default="info",
        choices=("info", "warn", "warning", "error"),
        help="hide findings below this severity (default: %(default)s)",
    )
    parser.add_argument(
        "--format",
        dest="fmt",
        default="text",
        choices=("text", "json"),
        help="output format (default: %(default)s)",
    )
    return parser


def _parse_error_report(path: str, exc: QasmError):
    """An :class:`AnalysisReport` carrying a single ``QA001`` for *exc*."""
    from .qsim.analysis import AnalysisReport, Diagnostic, Severity
    from .qsim.circuit import SourceSpan

    span = None
    message = str(exc)
    if exc.line is not None:
        span = SourceSpan(exc.line, exc.column or 1, path)
        # QasmError prefixes its message with the position; the span already
        # carries it, so strip the prefix instead of printing it twice
        prefix = f"line {exc.line}, column {exc.column}: "
        if message.startswith(prefix):
            message = message[len(prefix):]
    diagnostic = Diagnostic(
        "QA001",
        Severity.ERROR,
        f"cannot parse: {message}",
        span=span,
        source="parser",
    )
    return AnalysisReport(path, [diagnostic])


class _Exit(Exception):
    """``_Exit(status, message)`` ends a command: :func:`main` prints
    ``error: <message>`` to stderr and returns *status*."""


def _read_qasm(path: str) -> QuantumCircuit:
    """The circuit in the OpenQASM file *path*; an unreadable file ends the
    command with status 2, a parse error raises :class:`QasmError`."""
    try:
        return from_qasm_file(path)
    except FileNotFoundError:
        raise _Exit(2, f"no such file: {path}") from None
    except OSError as exc:
        raise _Exit(2, f"cannot read {path}: {exc}") from None


def _read_circuits(paths: List[str]) -> List[QuantumCircuit]:
    """The circuits of the files *paths* about to run; a parse error ends
    the command with status 1."""
    circuits = []
    for path in paths:
        try:
            circuits.append(_read_qasm(path))
        except QasmError as exc:
            raise _Exit(1, f"{path}: {exc}") from None
    return circuits


def _analysis_target(args: argparse.Namespace):
    """The :class:`~repro.qsim.analysis.AnalysisTarget` the run flags describe."""
    from .qsim.analysis import AnalysisTarget

    return AnalysisTarget(
        backend=args.backend, shots=args.shots, noise_p=args.noise, noise_channel=args.noise_model
    )


def _lint_main(argv: List[str]) -> int:
    """The ``lint`` verb: analyze files, report findings, exit non-zero on errors."""
    import json

    from .qsim.analysis import Severity, analyze

    args = build_lint_parser().parse_args(argv)
    min_severity = Severity.parse(args.min_severity)
    target = _analysis_target(args)
    reports = []
    for path in args.files:
        try:
            circuit = _read_qasm(path)
        except QasmError as exc:
            reports.append(_parse_error_report(path, exc))
            continue
        report = analyze(circuit, target)
        # named after its file, as a parse-error report is, so a finding
        # without a span still says which file it is about
        report.circuit_name = path
        reports.append(report)
    if args.fmt == "json":
        print(json.dumps([report.to_dict() for report in reports], indent=2))
    else:
        for report in reports:
            text = report.format(min_severity=min_severity)
            if text:
                print(text)
    return 1 if any(report.has_errors for report in reports) else 0


def _service_submit(args: argparse.Namespace) -> int:
    circuits = _read_circuits(args.files)
    from .qsim.service import BatchPayload, JobStore, ServiceError, submit_payload
    from .qsim.service.validation import analysis_target

    try:
        payload = BatchPayload.from_circuits(
            circuits,
            shots=args.shots,
            seed=args.seed,
            backend=args.backend,
            noise_p=args.noise,
            noise_channel=args.noise_model,
        )
        reports = None
        if not args.no_lint:
            # analyze what the payload runs (measure-all'd, as --from-qasm
            # --lint does), built from the imported circuits rather than the
            # payload's QASM round-trip, so spans point at the user's files
            from .qsim.analysis import Severity, analyze

            target = analysis_target(payload)
            reports = [analyze(_with_final_measure(circuit), target) for circuit in circuits]
            for report in reports:
                findings = report.format(min_severity=Severity.WARNING)
                if findings:
                    print(findings, file=sys.stderr)
        with JobStore(args.db) as store:
            job_id, _, rejected = submit_payload(
                store,
                payload,
                max_attempts=args.max_attempts,
                reports=reports,
                validate=not args.no_lint,
            )
    except (CircuitError, BackendError, SimulationError, ServiceError) as exc:
        raise _Exit(1, str(exc)) from None
    print(job_id)
    if rejected:
        hint = "see findings above; --no-lint submits anyway"
        raise _Exit(1, f"job {job_id} rejected by static analysis ({hint})")
    return 0


def _print_counts(counts: dict) -> None:
    """One ``bitstring count`` line per outcome, most frequent first."""
    for bitstring, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"{bitstring} {count}")


def _service_other(args: argparse.Namespace) -> int:
    import time as _time

    from .qsim.service import JobStore, ServiceError, configure_logging, worker_loop
    from .qsim.service.worker import WorkerFleet

    if args.verb == "worker":
        configure_logging(args.verbose - args.quiet)
        kwargs = {
            key: value
            for key, value in (
                ("lease_timeout", args.lease),
                ("poll_interval", args.poll),
                ("retry_delay", args.retry_delay),
                ("max_jobs", args.max_jobs),
            )
            if value is not None
        }
        kwargs["burst"] = args.burst
        if args.workers <= 1:
            processed = worker_loop(args.db, **kwargs)
            print(f"worker processed {processed} job(s)")
        else:
            fleet = WorkerFleet(args.db, workers=args.workers, **kwargs)
            fleet.start()
            fleet.join()
        return 0

    try:
        with JobStore(args.db) as store:
            if args.verb == "status":
                record = store.get(args.job_id)
                line = f"{record.job_id} {record.state} attempts={record.attempts}"
                if record.worker_id:
                    line += f" worker={record.worker_id}"
                print(line)
                if record.diagnostics:
                    from .qsim.analysis import AnalysisReport

                    reports = [
                        AnalysisReport.from_dict(entry)
                        for entry in record.diagnostics_dict()["reports"]
                    ]
                    errors = sum(len(r.errors) for r in reports)
                    warnings = sum(len(r.warnings) for r in reports)
                    print(
                        f"diagnostics: {errors} error(s), {warnings} warning(s) "
                        f"across {len(reports)} circuit(s)"
                    )
                if record.state == "FAILED" and record.error:
                    print(record.error.rstrip().splitlines()[-1], file=sys.stderr)
                return 0
            if args.verb == "cancel":
                if store.cancel(args.job_id):
                    print(f"{args.job_id} CANCELLED")
                    return 0
                raise _Exit(1, f"job is already terminal ({store.get(args.job_id).state})")
            if args.verb == "queue-stats":
                stats = store.stats()
                for state, count in stats["states"].items():
                    print(f"{state} {count}")
                print(f"cache-entries {stats['cache_entries']}")
                print(f"cache-disk-hits {stats['cache_disk_hits']}")
                job_cache = stats["job_cache"]
                print(f"job-cache-hits {job_cache['hits']}")
                print(f"job-cache-misses {job_cache['misses']}")
                rate = job_cache["hit_rate"]
                print(f"job-cache-hit-rate {'n/a' if rate is None else f'{rate:.3f}'}")
                return 0
            if args.verb == "trace":
                from .qsim import telemetry

                record = store.get(args.job_id)
                artifact = record.telemetry_dict()
                print(f"job {record.job_id} state={record.state}")
                print(
                    telemetry.format_span_tree(
                        artifact["trace"], artifact.get("duration_s")
                    )
                )
                return 0
            if args.verb == "metrics":
                from .qsim.telemetry import export as telemetry_export

                snapshot = telemetry_export.metrics_from_traces(store.telemetry_traces())
                if args.fmt == "json":
                    print(telemetry_export.to_json(snapshot))
                else:
                    print(telemetry_export.to_prometheus(snapshot))
                return 0
            if args.verb == "purge":
                deleted = store.purge(older_than=args.older_than)
                print(f"purged {deleted} job(s)")
                return 0
            # result
            record = store.get(args.job_id)
            deadline = None if args.wait is None else _time.monotonic() + args.wait
            while not record.is_terminal:
                if deadline is None or _time.monotonic() >= deadline:
                    raise _Exit(1, f"job {args.job_id} not finished (state {record.state})")
                _time.sleep(0.1)
                record = store.get(args.job_id)
            if record.state != "DONE":
                print(f"error: job ended {record.state}", file=sys.stderr)
                if record.error:
                    print(record.error.rstrip().splitlines()[-1], file=sys.stderr)
                return 1
            experiments = record.result_dict().get("results", [])
            for experiment in experiments:
                if len(experiments) > 1:
                    print(f"--- {experiment.get('name', '?')} ---")
                _print_counts(experiment.get("counts", {}))
            return 0
    except ServiceError as exc:
        raise _Exit(1, str(exc)) from None


def _service_main(argv: List[str]) -> int:
    args = build_service_parser().parse_args(argv)
    if args.verb == "submit":
        return _service_submit(args)
    return _service_other(args)


def _run_qasm_file(args: argparse.Namespace) -> int:
    """Execute an imported OpenQASM 2.0 circuit on the selected backend."""
    [circuit] = _read_circuits([args.from_qasm])
    if args.show_circuit:
        print("--- circuit ---")
        print(circuit.draw())
    if args.qasm:
        print("--- qasm ---")
        try:
            print(to_qasm(circuit), end="")
        except Exception as exc:  # defensive: every importable gate exports today
            print(f"(cannot export to OpenQASM 2.0: {exc})", file=sys.stderr)
    if circuit.num_qubits == 0:
        # a header-only program is valid QASM; there is just nothing to run
        print(f"note: {args.from_qasm} declares no qubits; nothing to run", file=sys.stderr)
        return 0
    circuit = _with_final_measure(circuit)
    if args.lint is not None:
        # analyze the exact circuit about to run (after measure-all
        # normalization) against the run config the flags describe
        from .qsim.analysis import Severity, analyze

        report = analyze(circuit, _analysis_target(args))
        threshold = Severity.parse(args.lint)
        findings = report.format(min_severity=Severity.WARNING)
        if findings:
            print(findings, file=sys.stderr)
        if report.at_least(threshold):
            print(
                f"error: {args.from_qasm} failed static analysis at severity "
                f"{threshold.label!r}; drop --lint to run anyway",
                file=sys.stderr,
            )
            return 1
    try:
        backend = build_noisy_backend(args.backend, args.noise, args.noise_model, args.seed)
        counts = backend.run(circuit, shots=args.shots).result().get_counts()
    except (BackendError, SimulationError) as exc:
        raise _Exit(1, str(exc)) from None
    _print_counts(counts)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point used by the ``qutes`` console script."""
    try:
        return _main(argv)
    except _Exit as exc:
        status, message = exc.args
        print(f"error: {message}", file=sys.stderr)
        return status
    except BrokenPipeError:
        # the downstream consumer (e.g. `qutes --from-qasm ... | head`)
        # closed the pipe mid-print.  Swap both streams for /dev/null so the
        # interpreter's exit-time flush cannot raise again, and exit with
        # the conventional SIGPIPE status (like cat/grep) — never 0, since
        # the broken stream may have been stderr carrying an error report
        devnull = os.open(os.devnull, os.O_WRONLY)
        for stream in (sys.stdout, sys.stderr):
            try:
                os.dup2(devnull, stream.fileno())
            except (OSError, ValueError):
                pass
        return 141


def _main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        return _lint_main(list(argv[1:]))
    if argv and argv[0] in SERVICE_VERBS:
        return _service_main(list(argv))
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    if args.list_backends:
        from .qsim.backends import list_backends

        for name in list_backends():
            print(name)
        return 0
    if args.from_qasm is not None:
        if args.program is not None:
            parser.error("pass either a .qut program or --from-qasm FILE, not both")
        if args.ast:
            parser.error("--ast applies to Qutes programs, not --from-qasm input")
        if args.show_variables:
            parser.error("--show-variables applies to Qutes programs, not --from-qasm input")
        return _run_qasm_file(args)
    if args.lint is not None:
        parser.error("--lint applies to --from-qasm input (use `qutes lint FILE...` standalone)")
    if args.program is None:
        parser.error("the program argument is required (or use --list-backends / --from-qasm)")
    try:
        if args.ast:
            from .lang.ast_printer import dump_ast
            from .lang.parser import parse

            with open(args.program, "r", encoding="utf-8") as handle:
                print(dump_ast(parse(handle.read())))
            return 0
        backend = args.backend
        if args.noise is not None:
            backend = build_noisy_backend(args.backend, args.noise, args.noise_model, args.seed)
        result = run_file(args.program, shots=args.shots, seed=args.seed, backend=backend)
    except FileNotFoundError:
        raise _Exit(2, f"no such file: {args.program}") from None
    except (QutesError, BackendError, SimulationError) as exc:
        raise _Exit(1, str(exc)) from None

    if result.output:
        print(result.printed)
    if args.show_variables:
        print("--- variables ---")
        for name, value in result.variables.items():
            print(f"{name} = {value}")
    if args.show_circuit:
        print("--- circuit ---")
        print(result.circuit.draw())
    if args.qasm:
        print("--- qasm ---")
        try:
            print(to_qasm(result.circuit))
        except Exception as exc:  # Initialize-based states have no QASM2 form
            print(f"(cannot export to OpenQASM 2.0: {exc})", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
