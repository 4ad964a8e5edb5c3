#!/usr/bin/env python3
"""Asymptotic benchmark: stabilizer tableau engine vs the dense statevector.

Builds GHZ-plus-random-Clifford-layer circuits (H/S/X/Z single-qubit layer +
a random CX matching, repeated) with a full terminal measurement and runs
them end-to-end through ``get_backend(...).run(...)``:

* the **statevector** engine on small registers, where its ``O(2^n)`` cost
  curve is already visible,
* the **stabilizer** engine on the same small registers *and* on registers
  far past the dense engines' wall (hundreds of qubits), where the CHP
  tableau's ``O(n^2)``-per-measurement / ``O(n)``-per-gate cost keeps runs
  in the milliseconds.

Before any timing, the two engines are cross-checked on the smallest size:
a plain GHZ circuit must produce exactly the two keys ``0...0`` / ``1...1``
on both, and their mixed-layer counts must agree within a total-variation
tolerance (they sample the same distribution with different RNG paths).

The acceptance target for this repo: the headline size (default 200 qubits,
well past ``--require-qubits 100``) must complete all shots in under one
second wall-clock.

A second axis, **feed-forward**, times classically conditioned circuits
under depolarizing noise (``NOISE_P``) on the symbolic path against the
per-shot path (one concrete tableau per shot, reached by setting
``stabilizer.MAX_SYMBOLIC_PHASE_CELLS`` to 0) on the same circuit: the
three conditioned corpus files plus a generated active-correction round
of the repetition code (``FEEDFORWARD_DISTANCE`` data qubits, 51 qubits in
all) with one 2-bit syndrome register per interior data qubit.  Each pair of runs must agree within the corpus TVD
floor (on the repetition round: the distribution of the number of data
bits read as 0), the symbolic run must report ``stabilizer_noisy`` with no
fallback, the noiseless repetition round must read every data bit as 1,
and at ``--ff-shots`` >= 1000 the symbolic path must be >= 10x faster.

Run directly::

    PYTHONPATH=src python benchmarks/bench_stabilizer.py
    PYTHONPATH=src python benchmarks/bench_stabilizer.py --sizes 100,200,400 --shots 128
    PYTHONPATH=src python benchmarks/bench_stabilizer.py --ff-shots 64 --repeats 1  # smoke
"""

from __future__ import annotations

import argparse
import os
import time
from collections import Counter
from typing import Dict, List

import numpy as np

from repro.qsim import QuantumCircuit, from_qasm, stabilizer
from repro.qsim.backends import get_backend
from repro.qsim.noise import DepolarizingNoise
from repro.qsim.registers import ClassicalRegister, QuantumRegister

from benchutil import add_out_argument, total_variation, tvd_floor, write_results

#: the single-qubit Clifford layer draws uniformly from these
LAYER_GATES = ("h", "s", "x", "z", "sdg", "y")

CIRCUITS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "circuits")

#: the corpus files with classically conditioned gates
CONDITIONED_FILES = ("teleport_cond_n3", "ghz_cond_n4", "qec_cond_n5")

#: data qubits of the generated repetition round: 2d - 1 = 51 qubits in all
FEEDFORWARD_DISTANCE = 26
#: depolarizing probability of the feed-forward axis
NOISE_P = 0.01


def ghz_clifford_circuit(num_qubits: int, layers: int, seed: int) -> QuantumCircuit:
    """GHZ ladder followed by *layers* of random 1q Cliffords + a CX matching."""
    rng = np.random.default_rng(seed)
    qc = QuantumCircuit(num_qubits, num_qubits)
    qc.name = f"ghz_clifford_{num_qubits}"
    qc.h(0)
    for i in range(1, num_qubits):
        qc.cx(i - 1, i)
    for _ in range(layers):
        for q in range(num_qubits):
            getattr(qc, LAYER_GATES[rng.integers(len(LAYER_GATES))])(q)
        order = rng.permutation(num_qubits)
        for a, b in zip(order[::2], order[1::2]):
            qc.cx(int(a), int(b))
    qc.measure(list(range(num_qubits)), list(range(num_qubits)))
    return qc


def repetition_round_circuit(distance: int) -> QuantumCircuit:
    """One active-correction round of the bit-flip repetition code.

    Logical |1> is encoded on *distance* data qubits and X errors are
    injected on every fourth interior data qubit.  Ancilla ``j`` takes the
    parity of data qubits ``j`` and ``j + 1``.  Interior data qubit ``i``
    has its own 2-bit register holding the parities of its two pairs and is
    flipped under ``if(syn == 3)``.  Without noise every data bit reads 1.
    """
    data = QuantumRegister(distance, "data")
    anc = QuantumRegister(distance - 1, "anc")
    syndromes = [ClassicalRegister(2, f"syn{i}") for i in range(1, distance - 1)]
    out = ClassicalRegister(distance, "out")
    qc = QuantumCircuit(data, anc, *syndromes, out, name=f"repetition_cond_d{distance}")
    qc.x(data[0])
    for i in range(1, distance):
        qc.cx(data[i - 1], data[i])
    for i in range(2, distance - 1, 4):
        qc.x(data[i])
    for j in range(distance - 1):
        qc.cx(data[j], anc[j])
        qc.cx(data[j + 1], anc[j])
    for i, syn in enumerate(syndromes, start=1):
        qc.measure(anc[i - 1], syn[0])
        qc.measure(anc[i], syn[1])
    for i, syn in enumerate(syndromes, start=1):
        qc.x(data[i]).c_if(syn, 3)
    qc.measure(data, out)
    return qc


def zero_weights(counts: Dict[str, int], distance: int) -> Counter:
    """Histogram of how many data bits read 0 (``out`` is the leftmost register)."""
    weights: Counter = Counter()
    for key, count in counts.items():
        weights[key[:distance].count("0")] += count
    return weights


def feedforward_axis(distance: int, shots: int, noise_p: float, seed: int, repeats: int,
                     failures: List[str]) -> List[Dict[str, object]]:
    """Symbolic feed-forward vs the per-shot tableau loop on conditioned circuits."""
    circuits = []
    for name in CONDITIONED_FILES:
        with open(os.path.join(CIRCUITS_DIR, name + ".qasm"), encoding="utf-8") as handle:
            circuits.append((name, from_qasm(handle.read(), name=name), None))
    repetition = repetition_round_circuit(distance)
    circuits.append((repetition.name, repetition, distance))

    clean = get_backend("stabilizer").run(repetition, shots=shots, seed=seed).result()[0]
    if zero_weights(clean.counts, distance) != Counter({0: shots}):
        failures.append(f"{repetition.name}: noiseless round left data bits at 0")
    if clean.metadata != {"method": "stabilizer"}:
        failures.append(f"{repetition.name}: noiseless round ran {clean.metadata}")

    rows = []
    print(f"\nfeed-forward: {shots} shots, depolarizing p={noise_p}, best of {repeats}")
    print(f"{'circuit':<22} {'qubits':>7} {'per-shot (ms)':>14} {'symbolic (ms)':>14} "
          f"{'speedup':>9} {'tvd':>7}")
    for name, circuit, weights_of in circuits:
        backend = get_backend("stabilizer", noise_model=DepolarizingNoise(noise_p))
        modes = ("per_shot", "symbolic")
        results = {mode: run_mode(backend, circuit, shots, seed, mode) for mode in modes}
        if results["symbolic"].metadata != {"method": "stabilizer_noisy"}:
            failures.append(f"{name}: symbolic run reported {results['symbolic'].metadata}")
        if results["per_shot"].metadata["method"] != "stabilizer_noisy_per_shot":
            failures.append(f"{name}: per-shot run reported {results['per_shot'].metadata}")
        a, b = (results[mode].counts for mode in ("per_shot", "symbolic"))
        if weights_of is not None:
            a, b = zero_weights(a, weights_of), zero_weights(b, weights_of)
        tvd = total_variation(a, b)
        allowed = tvd_floor(max(len(a), len(b)), shots)
        if tvd > allowed:
            failures.append(f"{name}: TVD {tvd:.3f} between the two paths exceeds {allowed:.3f}")
        best = {mode: float("inf") for mode in modes}
        for _ in range(repeats):
            for mode in modes:
                start = time.perf_counter()
                run_mode(backend, circuit, shots, seed, mode)
                best[mode] = min(best[mode], time.perf_counter() - start)
        speedup = best["per_shot"] / best["symbolic"]
        print(f"{name:<22} {circuit.num_qubits:>7} {best['per_shot'] * 1e3:>14.1f} "
              f"{best['symbolic'] * 1e3:>14.2f} {speedup:>8.1f}x {tvd:>7.4f}")
        rows.append({"circuit": name, "qubits": circuit.num_qubits,
                     "per_shot_ms": best["per_shot"] * 1e3,
                     "symbolic_ms": best["symbolic"] * 1e3, "speedup": speedup, "tvd": tvd})
        # acceptance target: >= 10x over the per-shot loop at 1000+ shots
        if speedup < 10.0 and shots >= 1000:
            failures.append(f"{name}: symbolic speedup {speedup:.1f}x below the 10x target")
    return rows


def run_mode(backend, circuit: QuantumCircuit, shots: int, seed: int, mode: str):
    """One run on the symbolic path, or, for ``mode="per_shot"``, with a zero
    phase-cell budget, which sends every noisy run to the per-shot path."""
    budget = stabilizer.MAX_SYMBOLIC_PHASE_CELLS
    if mode == "per_shot":
        stabilizer.MAX_SYMBOLIC_PHASE_CELLS = 0
    try:
        return backend.run(circuit, shots=shots, seed=seed).result()[0]
    finally:
        stabilizer.MAX_SYMBOLIC_PHASE_CELLS = budget


def run_once(backend_name: str, circuit: QuantumCircuit, shots: int, seed: int) -> Dict[str, int]:
    return get_backend(backend_name).run(circuit, shots=shots, seed=seed).result().get_counts()


def check_equivalence(num_qubits: int, layers: int, shots: int, seed: int) -> bool:
    """Cross-engine sanity gate run before any timing is reported."""
    ghz = QuantumCircuit(num_qubits, num_qubits)
    ghz.h(0)
    for i in range(1, num_qubits):
        ghz.cx(i - 1, i)
    ghz.measure(list(range(num_qubits)), list(range(num_qubits)))
    expected = {"0" * num_qubits, "1" * num_qubits}
    for name in ("stabilizer", "statevector"):
        keys = set(run_once(name, ghz, shots, seed))
        if not keys <= expected:
            print(f"FAIL: {name} GHZ produced unexpected keys {sorted(keys - expected)[:3]}")
            return False
    mixed = ghz_clifford_circuit(num_qubits, layers, seed)
    counts_stab = run_once("stabilizer", mixed, shots, seed)
    counts_sv = run_once("statevector", mixed, shots, seed)
    tvd = total_variation(counts_stab, counts_sv)
    # both engines are fair samplers of the same distribution, so the TVD of
    # two K-category empirical histograms concentrates near sqrt(2K/(pi N));
    # allow a 3x margin before declaring divergence
    support = len(set(counts_stab) | set(counts_sv))
    limit = max(0.05, 3.0 * np.sqrt(2.0 * support / (np.pi * shots)))
    if tvd > limit:
        print(f"FAIL: cross-engine total variation {tvd:.3f} exceeds {limit:.3f}")
        return False
    print(f"equivalence: GHZ keys exact on both engines; mixed-layer TVD {tvd:.3f}")
    return True


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=str, default="50,100,200,400",
                        help="comma-separated stabilizer register widths")
    parser.add_argument("--sv-sizes", type=str, default="8,12,16,18",
                        help="comma-separated statevector register widths")
    parser.add_argument("--layers", type=int, default=4, help="random Clifford layers")
    parser.add_argument("--shots", type=int, default=256)
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats (best is kept)")
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--check-qubits", type=int, default=6,
                        help="register width of the cross-engine equivalence gate")
    parser.add_argument("--require-qubits", type=int, default=100,
                        help="a stabilizer run at least this wide must finish <1s")
    parser.add_argument("--ff-shots", type=int, default=1000,
                        help="shots of the feed-forward axis (0 skips it)")
    add_out_argument(parser)
    args = parser.parse_args(argv)

    if not check_equivalence(args.check_qubits, args.layers, max(args.shots, 2000), args.seed):
        return 1

    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    sv_sizes = [int(s) for s in args.sv_sizes.split(",") if s.strip()]

    rows = []
    print(f"\nGHZ + {args.layers} random Clifford layers, {args.shots} shots, "
          f"best of {args.repeats}")
    print(f"{'engine':<12} {'qubits':>7} {'gates':>7} {'time (ms)':>10}")
    for backend_name, widths in (("statevector", sv_sizes), ("stabilizer", sizes)):
        for num_qubits in widths:
            circuit = ghz_clifford_circuit(num_qubits, args.layers, args.seed)
            best = float("inf")
            for _ in range(args.repeats):
                start = time.perf_counter()
                run_once(backend_name, circuit, args.shots, args.seed)
                best = min(best, time.perf_counter() - start)
            rows.append({
                "engine": backend_name,
                "qubits": num_qubits,
                "gates": circuit.size(),
                "time_ms": best * 1000.0,
            })
            print(f"{backend_name:<12} {num_qubits:>7} {circuit.size():>7} {best * 1000.0:>10.1f}")

    failures: List[str] = []
    feedforward_rows: List[Dict[str, object]] = []
    if args.ff_shots > 0:
        feedforward_rows = feedforward_axis(
            FEEDFORWARD_DISTANCE, args.ff_shots, NOISE_P, args.seed, args.repeats, failures
        )

    write_results(
        args.out,
        "stabilizer",
        {"sizes": sizes, "sv_sizes": sv_sizes, "layers": args.layers,
         "shots": args.shots, "repeats": args.repeats, "seed": args.seed,
         "ff_shots": args.ff_shots, "ff_distance": FEEDFORWARD_DISTANCE,
         "noise_p": NOISE_P},
        rows,
        feedforward=feedforward_rows,
    )

    # acceptance: a >=require-qubits Clifford circuit end-to-end in under 1 s
    headline = [r for r in rows
                if r["engine"] == "stabilizer" and r["qubits"] >= args.require_qubits]
    if not headline:
        failures.append(f"no stabilizer size >= {args.require_qubits} was benchmarked")
    else:
        slowest = max(r["time_ms"] for r in headline)
        widest = max(r["qubits"] for r in headline)
        if slowest >= 1000.0:
            failures.append(f"{args.require_qubits}+ qubit stabilizer run took "
                            f"{slowest:.0f} ms (>= 1 s acceptance bound)")
        else:
            print(f"\nacceptance: {widest}-qubit Clifford circuit end-to-end in "
                  f"{slowest:.1f} ms (< 1 s) -- a register width the dense engines "
                  "cannot represent at all")
    for failure in failures:
        print(f"WARNING: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
