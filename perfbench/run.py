#!/usr/bin/env python3
"""End-to-end benchmark of the Qutes stack, with an optional traced run.

One command runs a named workload through the program's public front doors
(QASM text, Qutes source, service submit), checks every output, prints the
end-to-end metrics by name and unit, and ends with one JSON line::

    python3 perfbench/run.py --workload feedforward --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Workloads (see ``workloads.py``): ``feedforward``, ``static``, ``service``,
``qutes``; ``all`` runs each in its own process, one after the other.

``--trace 0`` measures untraced passes for ``--seconds`` and reports the
end-to-end metrics: ``setup_s`` (the median of five fresh interpreters'
import of the program plus the median of five complete set-ups: input
generation, store and worker start, warm-up), ``pass_s`` (one pass of the
workload's fixed operation list: the sum of each operation's fastest time,
see ``measure.pass_cost``) and ``peak_rss_mb``.  Both timings are scaled
to one host speed by ``measure.HostSpeed``, whose reference computation
the workloads time between operations, so that a slow spell of a shared
host, which slows the reference too, does not read as a slower program;
the unscaled host times are printed beside them.  The workload's own
throughput and latency figures (shots/s per engine, jobs/s and job
latency percentiles, programs/s, ``failed_ratio``) are printed above the
JSON line; their time is the operations' own, without the short pauses
the workloads take between operations (``Workload.pause``).

``--trace 1`` spends half the time untraced and half traced, and reports
the per-layer metrics: busy seconds and call or shot counts per pass of
each layer's public functions, timed from outside, the service worker's
phases read from each job's persisted telemetry artifact, and
``trace.overhead_ratio``.  It also prints the span tree with self time.

Inputs and run seeds derive from ``--seed``.  Nothing is written outside
``perfbench/.work``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from measure import Ledger, find_spans, format_tree, merge_tree, pass_cost, percentile, throughput

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(HERE, ".work")
WORKLOAD_NAMES = ("feedforward", "static", "service", "qutes")
#: set-ups per run; ``setup_s`` reports their median
SETUP_REPEATS = 5

#: a fresh interpreter timing its own import of the workloads (and so of
#: the program under test); the search path arrives as arguments
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:]\n"
    "started = time.perf_counter()\n"
    "import workloads\n"
    "print(time.perf_counter() - started)\n"
)

#: the end-to-end metrics every ``--trace 0`` run reports, with units
END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}

#: the per-layer metrics every ``--trace 1`` run reports (per pass), with units
PER_LAYER = {
    "lang.parse.busy_s": "s",
    "lang.parse.calls": "count",
    "lang.interpret.busy_s": "s",
    "lang.interpret.calls": "count",
    "lang.interpret.gates": "count",
    "qasm.parse.busy_s": "s",
    "qasm.parse.calls": "count",
    "analysis.lint.busy_s": "s",
    "analysis.lint.calls": "count",
    "engine.statevector.busy_s": "s",
    "engine.statevector.shots": "count",
    "engine.statevector.fast_path_ratio": "ratio",
    "engine.statevector.per_shot.busy_s": "s",
    "engine.density_matrix.busy_s": "s",
    "engine.density_matrix.shots": "count",
    "engine.density_matrix.per_shot.busy_s": "s",
    "engine.stabilizer.busy_s": "s",
    "engine.stabilizer.shots": "count",
    "service.submit.busy_s": "s",
    "service.wait.busy_s": "s",
    "service.fetch.busy_s": "s",
    "service.worker.claim_s": "s",
    "service.worker.compile_s": "s",
    "service.worker.engine_s": "s",
    "service.worker.finalize_s": "s",
    "service.cache.hit_ratio": "ratio",
    "service.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Pass:
    wall_s: float
    records: list

    @property
    def busy_s(self) -> float:
        """The pass's operations' own time, pauses between them left out."""
        return sum(record.seconds for record in self.records)


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1, help="workload seed (inputs and run seeds)")
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so memory and traces stay its own."""
    status = 0
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        sys.stdout.flush()
        status = max(status, subprocess.run(command, check=False).returncode)
    return status


def run_passes(
    workload, span, budget_s: float, first: int, ledger: Ledger
) -> Tuple[List[Pass], List[dict]]:
    """Closed loop of whole passes filling *budget_s* (at least one pass).

    *span* is ``telemetry.span`` for traced passes and
    ``workloads.untraced`` otherwise.  Returns the passes and, when traced,
    each pass's span tree (``Span.to_dict`` shape), which also holds the
    program's own spans opened inside it.  Another pass starts only if it
    would end no more than half a pass past the budget, so a run of long
    passes overshoots by at most that much.
    """
    from repro.qsim.telemetry import drain_spans

    passes: List[Pass] = []
    trees: List[dict] = []
    deadline = time.perf_counter() + budget_s
    while True:
        index = first + len(passes)
        workload.prepare_pass(index)
        drain_spans()  # root spans the program left outside any pass
        started = time.perf_counter()
        with span("pass"):
            records, problems = workload.run_pass(index, span)
        passes.append(Pass(time.perf_counter() - started, records))
        trees.extend(root.to_dict() for root in drain_spans() if root.name == "pass")
        for found in problems:
            ledger.record(found)
        if time.perf_counter() + passes[-1].wall_s / 2 >= deadline:
            return passes, trees


def pass_seconds(passes: List[Pass]) -> float:
    samples: Dict[str, List[float]] = {}
    for one in passes:
        for record in one.records:
            samples.setdefault(record.key, []).append(record.seconds)
    return pass_cost(samples, len(passes))


def import_seconds(search_path: List[str]) -> float:
    """Seconds a fresh interpreter spends importing the workloads module."""
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, *search_path],
        capture_output=True, text=True, check=True,
    )
    return float(probe.stdout)


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any worker it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def workload_figures(name: str, passes: List[Pass], ledger: Ledger) -> List[Tuple[str, float, str, str]]:
    """The workload's own throughput and latency figures, from untraced passes."""
    records = [record for one in passes for record in one.records]
    busy = sum(one.busy_s for one in passes)
    figures = []
    if name in ("feedforward", "static"):
        for engine in ("statevector", "density_matrix", "stabilizer"):
            mine = [r for r in records if r.engine == engine]
            shots = sum(r.shots for r in mine)
            seconds = sum(r.seconds for r in mine)
            rate = throughput([r.shots for r in mine], [r.seconds for r in mine])
            figures.append((f"shots_per_s.{engine}", rate, "shots/s", f"{shots} shots in {seconds:.3f} s"))
    elif name == "service":
        figures.append(("jobs_per_s", len(records) / busy, "jobs/s", f"{len(records)} jobs in {busy:.3f} s"))
        latencies = [1e3 * r.seconds for r in records]
        for rank in (50, 90):
            point = percentile(latencies, rank)
            figures.append(
                (f"job_ms.p{rank}", point.value, "ms", f"n={point.samples}, {point.beyond} beyond")
            )
    elif name == "qutes":
        figures.append(
            ("programs_per_s", len(records) / busy, "programs/s", f"{len(records)} programs in {busy:.3f} s")
        )
    figures.append(
        ("failed_ratio", ledger.failed_ratio, "ratio", f"{ledger.failed} of {ledger.attempted} operations and run-end checks")
    )
    return figures


def layer_metrics(workload, trees: List[dict], traced: List[Pass], untraced: List[Pass]) -> Dict[str, float]:
    """Per-pass layer metrics from the traced passes' span trees."""
    per = len(traced)
    metrics: Dict[str, float] = {}

    def busy(spans) -> float:
        return sum(span["wall_s"] for span in spans) / per

    def tag(span, name, default=0):
        return span.get("tags", {}).get(name, default)

    for layer in ("lang.parse", "lang.interpret", "qasm.parse", "analysis.lint"):
        spans = find_spans(trees, layer)
        metrics[f"{layer}.busy_s"] = busy(spans)
        metrics[f"{layer}.calls"] = len(spans) / per
    metrics["lang.interpret.gates"] = sum(tag(s, "gates") for s in find_spans(trees, "lang.interpret")) / per

    from workloads import FAST_METHODS, PER_SHOT_METHODS

    for engine in ("statevector", "density_matrix", "stabilizer"):
        spans = find_spans(trees, "engine." + engine)
        shots = sum(tag(s, "shots") for s in spans)
        metrics[f"engine.{engine}.busy_s"] = busy(spans)
        metrics[f"engine.{engine}.shots"] = shots / per
        if engine == "statevector":
            fast = sum(tag(s, "shots") for s in spans if tag(s, "method") in FAST_METHODS)
            metrics[f"engine.{engine}.fast_path_ratio"] = fast / shots if shots else 0.0
        if engine != "stabilizer":
            metrics[f"engine.{engine}.per_shot.busy_s"] = busy(
                s for s in spans if tag(s, "method") in PER_SHOT_METHODS
            )

    for phase in ("submit", "wait", "fetch"):
        metrics[f"service.{phase}.busy_s"] = busy(find_spans(trees, f"service.{phase}"))
    worker = getattr(workload, "worker_stats", {})
    for phase in ("claim_s", "compile_s", "engine_s", "finalize_s"):
        metrics[f"service.worker.{phase}"] = worker.get(phase, 0.0) / per
    lookups = worker.get("cache_lookups", 0)
    metrics["service.cache.hit_ratio"] = worker.get("cache_hits", 0) / lookups if lookups else 0.0
    metrics["service.unattributed_s"] = worker.get("unattributed_s", 0.0) / per

    metrics["trace.overhead_ratio"] = statistics.median(p.busy_s for p in traced) / statistics.median(
        p.busy_s for p in untraced
    )
    return {name: metrics[name] for name in PER_LAYER}


def print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:40} {value:14.6g} {unit:10} {note}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no program source under {src}", file=sys.stderr)
        return 2
    search_path = [HERE, src, os.path.join(ROOT, "benchmarks")]
    sys.path[:0] = search_path[1:]
    os.makedirs(WORKDIR, exist_ok=True)
    os.environ["TMPDIR"] = WORKDIR
    # a terminated run still stops its worker processes (the finally below);
    # a forked worker inherits the handler and must die at once instead
    parent = os.getpid()

    def on_sigterm(signum, frame):
        if os.getpid() != parent:
            os._exit(128 + signum)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_sigterm)

    import workloads
    from repro.qsim import telemetry

    imports = [import_seconds(search_path) for _ in range(SETUP_REPEATS)]
    workload = workloads.WORKLOADS[args.workload](args.seed, WORKDIR)
    ledger = Ledger()
    setups: List[float] = []
    traced: List[Pass] = []
    trees: List[dict] = []
    try:
        for repeat in range(SETUP_REPEATS):
            if repeat:
                workload.teardown()
            time.sleep(workload.PAUSE_S)
            started = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - started)
        budget = args.seconds / 2 if args.trace else args.seconds
        untraced, _ = run_passes(workload, workloads.untraced, budget, 0, ledger)
        if args.trace:
            traced, trees = run_passes(workload, telemetry.span, budget, len(untraced), ledger)
        for found in workload.final_checks():
            ledger.record(found)
    finally:
        workload.teardown()

    print(
        f"workload {args.workload}: seed {args.seed}, {len(untraced)} untraced + "
        f"{len(traced)} traced passes of {len(untraced[0].records)} operations"
    )
    host = workload.host_speed
    setup_host_s = statistics.median(imports) + statistics.median(setups)
    pass_host_s = pass_seconds(untraced)
    end_to_end = {
        "setup_s": setup_host_s * host.factor,
        "pass_s": pass_host_s * host.factor,
        "peak_rss_mb": peak_rss_mb(),
    }
    print(
        f"  host speed: reference {1e3 * min(host.samples):.4f} ms fastest of {len(host.samples)}, "
        f"{1e3 * host.QUIET_S:.4f} ms when quiet: timings below are scaled by {host.factor:.4f}"
    )
    print_metric(
        "setup_s", end_to_end["setup_s"], "s",
        f"{setup_host_s:.4f} s on the host: median import "
        + ", ".join(f"{s:.3f}" for s in imports)
        + " + median set-up " + ", ".join(f"{s:.3f}" for s in setups),
    )
    busy = sorted(one.busy_s for one in untraced)
    print_metric(
        "pass_s", end_to_end["pass_s"], "s",
        f"{pass_host_s:.4f} s on the host: sum of per-operation fastest times; "
        f"passes took {busy[0]:.3f} .. {busy[-1]:.3f} s",
    )
    print_metric("peak_rss_mb", end_to_end["peak_rss_mb"], "MB")
    for name, value, unit, note in workload_figures(args.workload, untraced, ledger):
        print_metric(name, value, unit, note)
    for message in ledger.messages:
        print(f"  FAILED: {message}")

    if args.trace:
        metrics = layer_metrics(workload, trees, traced, untraced)
        print(f"\nper-layer metrics (per traced pass, {len(traced)} passes):")
        for name, value in metrics.items():
            print_metric(name, value, PER_LAYER[name])
        print("\nspan tree (this process, per traced pass):")
        print(format_tree(merge_tree(trees), per=len(traced)))
        worker_traces = getattr(workload, "worker_traces", None)
        if worker_traces:
            print("\nspan tree (worker process, from job telemetry artifacts, per traced pass):")
            print(format_tree(merge_tree(worker_traces), per=len(traced)))
        units = PER_LAYER
    else:
        metrics, units = end_to_end, END_TO_END

    print(
        json.dumps(
            {
                "correct": ledger.failed == 0,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
