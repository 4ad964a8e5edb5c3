#!/usr/bin/env python3
"""Noise-stack benchmark: noisy stabilizer vs exact density-matrix channels.

Two questions, answered end-to-end through ``get_backend(...).run(...)``:

1. **Convergence** (correctness): on small registers the noisy stabilizer
   engine's Pauli-frame sampling, the statevector trajectory model and the
   density-matrix engine's exact Kraus channel must describe the *same*
   distribution.  The harness runs a noisy Bell/GHZ circuit with growing
   shot counts and reports the total-variation distance of each sampled
   engine against the exact channel -- it must shrink roughly as
   ``1/sqrt(shots)`` and end below a statistical bound.

2. **Scale** (the tentpole claim): a 100+ qubit repetition-code memory
   circuit with depolarizing noise runs on the stabilizer backend in under
   two seconds, a register width no dense engine can even represent.

Run directly::

    PYTHONPATH=src python benchmarks/bench_noise.py
    PYTHONPATH=src python benchmarks/bench_noise.py --distance 101 --noise-p 0.02
"""

from __future__ import annotations

import argparse
import time
from typing import List

import numpy as np

from repro.algorithms import run_repetition_code
from repro.algorithms.entanglement import ghz_circuit
from repro.qsim import QuantumCircuit
from repro.qsim.backends import get_backend
from repro.qsim.noise import DepolarizingNoise

from benchutil import add_out_argument, total_variation, write_results


def noisy_ghz_circuit(num_qubits: int) -> QuantumCircuit:
    qc = ghz_circuit(num_qubits)
    qc.measure_all()
    return qc


def convergence_rows(num_qubits: int, p: float, shot_ladder: List[int], seed: int):
    """TVD of each sampled engine against the exact channel, per shot count."""
    circuit = noisy_ghz_circuit(num_qubits)
    exact = (
        get_backend("density_matrix", seed=seed, noise_model=DepolarizingNoise(p))
        .run(circuit, shots=200_000)
        .result()
        .get_counts()
    )
    rows = []
    for shots in shot_ladder:
        row = {"qubits": num_qubits, "noise_p": p, "shots": shots}
        for name in ("stabilizer", "statevector"):
            counts = (
                get_backend(name, seed=seed, noise_model=DepolarizingNoise(p))
                .run(circuit, shots=shots)
                .result()
                .get_counts()
            )
            row[f"tvd_{name}"] = total_variation(counts, exact)
        rows.append(row)
    return rows


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--qubits", type=int, default=3,
                        help="register width of the convergence circuit (2-4 is exact-friendly)")
    parser.add_argument("--noise-p", type=float, default=0.05,
                        help="depolarizing probability of the convergence study")
    parser.add_argument("--shot-ladder", type=str, default="256,1024,4096,16384",
                        help="comma-separated shot counts for the convergence study")
    parser.add_argument("--distance", type=int, default=51,
                        help="repetition-code distance of the scale run "
                        "(51 -> 101 qubits)")
    parser.add_argument("--rounds", type=int, default=2,
                        help="syndrome-extraction rounds of the scale run")
    parser.add_argument("--scale-p", type=float, default=0.01,
                        help="depolarizing probability of the scale run")
    parser.add_argument("--shots", type=int, default=1024, help="shots of the scale run")
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats (best kept)")
    parser.add_argument("--require-qubits", type=int, default=100,
                        help="the scale run must reach this register width to count "
                        "as the <2s acceptance (lower it for smaller smoke runs)")
    parser.add_argument("--seed", type=int, default=2026)
    add_out_argument(parser)
    args = parser.parse_args(argv)

    shot_ladder = [int(s) for s in args.shot_ladder.split(",") if s.strip()]

    print(f"convergence: {args.qubits}-qubit GHZ, depolarizing p={args.noise_p}, "
          "TVD vs exact density-matrix channel")
    print(f"{'shots':>7} {'stabilizer':>11} {'statevector':>12}")
    rows = convergence_rows(args.qubits, args.noise_p, shot_ladder, args.seed)
    for row in rows:
        print(f"{row['shots']:>7} {row['tvd_stabilizer']:>11.4f} {row['tvd_statevector']:>12.4f}")

    # statistical acceptance at the top of the ladder: the TVD of a
    # K-category empirical histogram concentrates near sqrt(2K/(pi N));
    # allow 4x before calling the engines divergent
    support = 2 ** args.qubits
    bound = 4.0 * np.sqrt(2.0 * support / (np.pi * shot_ladder[-1]))
    final = rows[-1]
    converged = (final["tvd_stabilizer"] < bound and final["tvd_statevector"] < bound)
    if not converged:
        print(f"FAIL: final TVD exceeds the statistical bound {bound:.4f}")
    else:
        print(f"final TVDs within the statistical bound {bound:.4f}")

    # scale: noisy repetition code on the stabilizer engine
    best = float("inf")
    result = None
    for _ in range(args.repeats):
        start = time.perf_counter()
        result = run_repetition_code(
            args.distance, rounds=args.rounds, p=args.scale_p,
            shots=args.shots, backend="stabilizer", seed=args.seed,
        )
        best = min(best, time.perf_counter() - start)
    print(f"\nscale: distance-{args.distance} repetition code "
          f"({result.num_qubits} qubits, {args.rounds} rounds, "
          f"depolarizing p={args.scale_p}, {args.shots} shots)")
    print(f"  logical error rate {result.logical_error_rate:.4f}, "
          f"syndrome detection rate {result.detection_rate:.3f}, "
          f"best of {args.repeats}: {best * 1000.0:.1f} ms")

    rows.append({
        "benchmark_part": "scale",
        "distance": args.distance,
        "qubits": result.num_qubits,
        "rounds": args.rounds,
        "noise_p": args.scale_p,
        "shots": args.shots,
        "logical_error_rate": result.logical_error_rate,
        "detection_rate": result.detection_rate,
        "time_ms": best * 1000.0,
    })
    write_results(
        args.out,
        "noise",
        {"qubits": args.qubits, "noise_p": args.noise_p, "shot_ladder": shot_ladder,
         "distance": args.distance, "rounds": args.rounds, "scale_p": args.scale_p,
         "shots": args.shots, "repeats": args.repeats, "seed": args.seed},
        rows,
    )

    # acceptance: require-qubits+ of noisy Clifford in < 2 s, converged stats
    if result.num_qubits >= args.require_qubits and best < 2.0 and converged:
        print(f"\nacceptance: {result.num_qubits}-qubit noisy repetition code in "
              f"{best * 1000.0:.1f} ms (< 2 s) with cross-engine convergence")
        return 0
    if result.num_qubits < args.require_qubits:
        print(f"WARNING: scale run used only {result.num_qubits} qubits "
              f"(< {args.require_qubits})")
    if best >= 2.0:
        print(f"WARNING: scale run took {best:.2f} s (>= 2 s acceptance bound)")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
