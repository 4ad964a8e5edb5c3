#!/usr/bin/env python3
"""Warm-path overhead benchmark for the telemetry subsystem.

Telemetry ships enabled by default, so its cost on the hot execution path
is a standing tax on every job.  This benchmark times
:func:`repro.qsim.service.execute_payload` -- the exact code a worker runs
per claim, including the compiled-circuit cache -- over the same payload
with telemetry **disabled** vs **enabled**, and reports the relative
overhead of the enabled path.

The warm path is what matters: after the first iteration the cache serves
every experiment, so the measured region is cache lookup + engine run --
precisely where the spans live.  Both modes run against the
*same* warmed cache in alternating rounds, so machine drift (frequency
scaling, page cache, a noisy neighbour) hits both sides equally instead of
masquerading as overhead; the median over all rounds decides.

The run is gated: it fails if the enabled path is more than
``--max-overhead-pct`` percent slower than the disabled path (default 5;
pass 0 to disable the gate).

Run directly::

    PYTHONPATH=src python benchmarks/bench_telemetry.py
    PYTHONPATH=src python benchmarks/bench_telemetry.py --iterations 200 --out telemetry.json
"""

from __future__ import annotations

import argparse
import os
import statistics
import tempfile
import time
from typing import Dict, List

from repro.qsim import telemetry
from repro.qsim.service import BatchPayload, CircuitCache, JobStore, execute_payload

from bench_service import workload_circuit
from benchutil import add_out_argument, write_results


def time_iterations(
    payload: BatchPayload, cache: CircuitCache, enabled: bool, iterations: int
) -> List[float]:
    """Per-iteration wall times of the warm execute path, in seconds."""
    if enabled:
        telemetry.enable()
    else:
        telemetry.disable()
    samples = []
    for _ in range(iterations):
        started = time.perf_counter()
        execute_payload(payload, cache=cache)
        samples.append(time.perf_counter() - started)
        # spans accumulate per thread; drain like the worker loop does
        telemetry.drain_spans()
    return samples


def summarize(enabled: bool, samples: List[float]) -> Dict[str, float]:
    return {
        "enabled": enabled,
        "iterations": len(samples),
        "median_s": statistics.median(samples),
        "mean_s": statistics.fmean(samples),
        "min_s": min(samples),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--qubits", type=int, default=6)
    parser.add_argument("--gates", type=int, default=120)
    parser.add_argument("--shots", type=int, default=256)
    parser.add_argument("--iterations", type=int, default=160, help="per mode, total")
    parser.add_argument("--rounds", type=int, default=8, help="alternating mode rounds")
    parser.add_argument("--warmup", type=int, default=10)
    parser.add_argument(
        "--max-overhead-pct",
        type=float,
        default=5.0,
        help="fail if enabled is more than this %% slower (0 disables the gate)",
    )
    add_out_argument(parser)
    args = parser.parse_args()

    circuit = workload_circuit(args.qubits, args.gates, seed=7)
    payload = BatchPayload.from_circuits([circuit], shots=args.shots, seed=11)

    telemetry.clear_spans()
    chunk = max(1, args.iterations // (2 * args.rounds))  # 2 chunks/mode/round
    disabled_samples: List[float] = []
    enabled_samples: List[float] = []
    round_overheads: List[float] = []
    with tempfile.TemporaryDirectory() as tmp:
        with JobStore(os.path.join(tmp, "bench.db")) as store:
            cache = CircuitCache(store)
            # one shared cache: both modes measure the identical warm path
            time_iterations(payload, cache, True, args.warmup)
            time_iterations(payload, cache, False, args.warmup)
            for _ in range(args.rounds):
                # ABBA ordering: a machine drifting monotonically within a
                # round penalizes both modes equally, not whichever ran last
                round_disabled = time_iterations(payload, cache, False, chunk)
                round_enabled = time_iterations(payload, cache, True, chunk)
                round_enabled += time_iterations(payload, cache, True, chunk)
                round_disabled += time_iterations(payload, cache, False, chunk)
                disabled_samples += round_disabled
                enabled_samples += round_enabled
                round_overheads.append(
                    statistics.median(round_enabled) / statistics.median(round_disabled)
                    - 1.0
                )
    telemetry.enable()

    disabled = summarize(False, disabled_samples)
    enabled = summarize(True, enabled_samples)
    # gate on the median of per-round paired overheads: a load spike that
    # lands on a few rounds moves those rounds, not the verdict
    overhead_pct = 100.0 * statistics.median(round_overheads)
    print(f"telemetry disabled: median {disabled['median_s'] * 1e3:.3f} ms/iter")
    print(f"telemetry enabled:  median {enabled['median_s'] * 1e3:.3f} ms/iter")
    print(f"overhead: {overhead_pct:+.2f}% (median of {len(round_overheads)} paired rounds)")

    write_results(
        args.out,
        "telemetry",
        config={
            "qubits": args.qubits,
            "gates": args.gates,
            "shots": args.shots,
            "iterations": args.iterations,
            "rounds": args.rounds,
            "warmup": args.warmup,
        },
        results=[disabled, enabled],
        overhead_pct=overhead_pct,
        round_overheads_pct=[100.0 * value for value in round_overheads],
    )

    if args.max_overhead_pct and overhead_pct > args.max_overhead_pct:
        print(
            f"error: telemetry overhead {overhead_pct:.2f}% exceeds "
            f"{args.max_overhead_pct:.1f}% budget"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
