#!/usr/bin/env python3
"""OpenQASM 2.0 interchange benchmark: parse throughput + cross-engine agreement.

Drives the importer over the committed QASMBench-style corpus in
``benchmarks/circuits/``:

* **Parse throughput** — every ``.qasm`` file is parsed ``--repeats`` times
  through :func:`repro.qsim.qasm.from_qasm`; the table reports file size,
  instruction count, the best parse time in ms per call and MB/s.  Two
  generated programs join the table, parsed only: the random 16-qubit,
  1000-gate circuit of ``bench_kernels`` (its ``GATE_POOL`` without
  ``iswap``, measured) and the 10-qubit, 200-gate cold-job payload of
  ``bench_service``.

* **Cross-engine agreement** — each imported circuit is executed end-to-end
  through ``get_backend(...).run(...)`` on every engine that can take it
  (statevector always, density-matrix up to ``--dm-qubits`` qubits,
  stabilizer when the Clifford-detection pass accepts the circuit) and the
  pairwise total-variation distance of the normalised counts must stay
  under the sampling-noise floor ``1.3*sqrt(outcomes/shots)`` plus the
  systematic ``--tvd-tolerance``, capped at 0.5 so total cross-engine
  disagreement always fails.  Deterministic circuits (one outcome) agree
  exactly.  Classically-conditioned circuits ride the same gates: every
  engine routes them onto its per-shot path, so the conditional corpus
  members double as feed-forward regression tests.

* **Golden counts** — files whose outcome support is known in closed form
  (``GOLDEN_SUPPORT``) fail the run if any engine ever reports a bitstring
  outside that support; the ``*_cond_*`` members must also actually carry
  conditioned instructions, so a parser regression that silently drops
  ``if`` cannot pass.

* **Scale acceptance** — the largest Clifford member of the corpus (the
  127-qubit GHZ chain) must import and finish all shots on the stabilizer
  engine within ``--max-large-seconds`` wall-clock, proving the QASM door
  is open at sizes the dense engines cannot touch.

Run directly::

    PYTHONPATH=src python benchmarks/bench_qasm.py
    PYTHONPATH=src python benchmarks/bench_qasm.py --shots 2048 --repeats 5
"""

from __future__ import annotations

import argparse
import glob
import math
import os
import time
from typing import Dict, List

import numpy as np

from repro.qsim import QuantumCircuit, from_qasm, is_clifford, to_qasm
from repro.qsim.backends import get_backend
from repro.qsim.instruction import Gate

from bench_kernels import GATE_POOL
from bench_service import workload_circuit
from benchutil import add_out_argument, total_variation, write_results

CIRCUITS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "circuits")

#: per-engine qubit ceilings for the agreement runs (the stabilizer engine
#: has no ceiling here: Clifford membership is the only gate)
SV_MAX_QUBITS = 16
DM_MAX_QUBITS = 10

#: exact outcome support per corpus file, for circuits whose distribution is
#: known in closed form; every engine's observed bitstrings must be a subset
#: (bitstrings are MSB-first over all clbits, later registers leftmost)
GOLDEN_SUPPORT: Dict[str, set] = {
    # teleported |1>: out always 1, Bell measurement bits uniform
    "teleport_cond_n3.qasm": {"100", "101", "110", "111"},
    # repetition-code round repairs the injected error: data always 111,
    # and the syndrome deterministically reads s0=s1=1
    "qec_cond_n5.qasm": {"11111"},
    # steered GHZ: all four measured bits agree
    "ghz_cond_n4.qasm": {"0000", "1111"},
    # W state: exactly one excitation across the three bits
    "wstate_n3.qasm": {"001", "010", "100"},
}

#: corpus members that must carry classically-conditioned instructions —
#: guards against an importer regression that parses but drops `if`
CONDITIONAL_FILES = {"teleport_cond_n3.qasm", "qec_cond_n5.qasm", "ghz_cond_n4.qasm"}


def generated_sources(seed: int) -> Dict[str, str]:
    """The benchmark programs that are generated, not read from the corpus."""
    pool = [entry for entry in GATE_POOL if entry[0] != "iswap"]
    rng = np.random.default_rng(seed)
    random_circuit = QuantumCircuit(16)
    for _ in range(1000):
        name, arity, num_params = pool[rng.integers(len(pool))]
        params = list(rng.uniform(0, 2 * np.pi, num_params))
        targets = [int(q) for q in rng.choice(16, arity, replace=False)]
        random_circuit.append(Gate(name, arity, params), targets)
    random_circuit.measure_all()
    return {
        "random_n16 (generated)": to_qasm(random_circuit),
        "service_n10 (generated)": to_qasm(workload_circuit(10, 200, seed)),
    }


def parse_throughput(label: str, source: str, repeats: int) -> Dict[str, object]:
    """Parse *source* ``repeats`` times and report instructions, ms per call and MB/s."""
    circuit = from_qasm(source)
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        from_qasm(source)
        best = min(best, time.perf_counter() - started)
    return {
        "file": label,
        "bytes": len(source),
        "qubits": circuit.num_qubits,
        "instructions": len(circuit.data),
        "parse_seconds": best,
        "parse_ms": best * 1e3,
        "mb_per_second": len(source) / best / 1e6,
        "circuit": circuit,
    }


def agreement_run(
    circuit, shots: int, seed: int, dm_qubits: int
) -> Dict[str, object]:
    """Run *circuit* on every applicable engine; report pairwise TVD and counts."""
    engines = ["statevector"] if circuit.num_qubits <= SV_MAX_QUBITS else []
    if circuit.num_qubits <= dm_qubits:
        engines.append("density_matrix")
    clifford = is_clifford(circuit)
    if clifford:
        engines.append("stabilizer")
    counts: Dict[str, Dict[str, int]] = {}
    timings: Dict[str, float] = {}
    for engine in engines:
        started = time.perf_counter()
        counts[engine] = (
            get_backend(engine, seed=seed).run(circuit, shots=shots).result().get_counts()
        )
        timings[engine] = time.perf_counter() - started
    max_tvd = 0.0
    names = list(counts)
    outcomes = 1
    for i, a in enumerate(names):
        outcomes = max(outcomes, len(counts[a]))
        for b in names[i + 1:]:
            max_tvd = max(max_tvd, total_variation(counts[a], counts[b]))
    return {
        "engines": names,
        "clifford": clifford,
        "max_tvd": max_tvd,
        "outcomes": outcomes,
        "seconds": timings,
        "counts": counts,
    }


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shots", type=int, default=1024)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=3, help="parse repetitions per file")
    parser.add_argument("--dm-qubits", type=int, default=DM_MAX_QUBITS,
                        help="density-matrix engine ceiling for agreement runs")
    parser.add_argument("--tvd-tolerance", type=float, default=0.02,
                        help="systematic TVD allowance on top of the sampling-noise "
                        "floor 1.3*sqrt(outcomes/shots) (total capped at 0.5)")
    parser.add_argument("--max-large-seconds", type=float, default=5.0,
                        help="wall-clock budget for the largest Clifford file")
    parser.add_argument("--circuits", default=None, metavar="GLOB",
                        help="override the corpus file pattern")
    add_out_argument(parser)
    args = parser.parse_args(argv)

    pattern = args.circuits or os.path.join(CIRCUITS_DIR, "*.qasm")
    paths = sorted(glob.glob(pattern))
    if not paths:
        parser.error(f"no .qasm files match {pattern!r}")

    rows: List[Dict[str, object]] = []
    failures: List[str] = []
    largest_clifford: Dict[str, object] = {}
    print(f"{'file':28} {'qubits':>6} {'instrs':>7} {'parse ms':>9} {'MB/s':>7}  engines (max TVD)")
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            row = parse_throughput(os.path.basename(path), handle.read(), args.repeats)
        circuit = row.pop("circuit")
        agreement = agreement_run(circuit, args.shots, args.seed, args.dm_qubits)
        counts = agreement.pop("counts")
        row.update(agreement)
        rows.append(row)
        if row["file"] in CONDITIONAL_FILES and not circuit.has_conditions():
            failures.append(
                f"{row['file']}: importer dropped the classical conditions "
                "(circuit.has_conditions() is False)"
            )
        golden = GOLDEN_SUPPORT.get(row["file"])
        if golden is not None:
            for engine, engine_counts in counts.items():
                stray = sorted(set(engine_counts) - golden)
                if stray:
                    failures.append(
                        f"{row['file']}: {engine} produced outcomes outside the "
                        f"golden support: {stray}"
                    )
        if agreement["clifford"] and (
            not largest_clifford or row["qubits"] > largest_clifford["qubits"]
        ):
            largest_clifford = row
        # two independent n-shot samples over k outcomes differ by roughly
        # 0.75*sqrt(k/n) in TVD even when the engines agree perfectly, so the
        # gate allows that sampling-noise floor (with headroom) plus the
        # systematic tolerance — capped at 0.5 so total disagreement
        # (TVD = 1) can never slip through, no matter how many outcomes
        allowed = min(
            0.5,
            args.tvd_tolerance + 1.3 * math.sqrt(agreement["outcomes"] / args.shots),
        )
        row["tvd_allowed"] = allowed
        if len(agreement["engines"]) > 1 and agreement["max_tvd"] > allowed:
            failures.append(
                f"{row['file']}: TVD {agreement['max_tvd']:.3f} "
                f"exceeds {allowed:.3f} across {agreement['engines']}"
            )
        engines = ", ".join(agreement["engines"]) or "none (too large for dense engines)"
        print(
            f"{row['file']:28} {row['qubits']:>6} {row['instructions']:>7} "
            f"{row['parse_ms']:>9.2f} {row['mb_per_second']:>7.2f}  "
            f"{engines} ({agreement['max_tvd']:.3f})"
        )

    for label, source in generated_sources(args.seed).items():
        row = parse_throughput(label, source, args.repeats)
        del row["circuit"]
        rows.append(row)
        print(
            f"{label:28} {row['qubits']:>6} {row['instructions']:>7} "
            f"{row['parse_ms']:>9.2f} {row['mb_per_second']:>7.2f}  parse only"
        )

    if largest_clifford:
        name = largest_clifford["file"]
        seconds = largest_clifford["seconds"].get("stabilizer", float("inf"))
        print(
            f"\nscale acceptance: {name} ({largest_clifford['qubits']} qubits) "
            f"ran {args.shots} shots on the stabilizer engine in {seconds * 1e3:.0f} ms"
        )
        if largest_clifford["qubits"] < 100:
            failures.append("corpus has no 100+ qubit Clifford circuit")
        elif seconds > args.max_large_seconds:
            failures.append(
                f"{name}: stabilizer run took {seconds:.2f}s > {args.max_large_seconds}s"
            )
    else:
        failures.append("corpus has no Clifford circuit at all")

    write_results(
        args.out,
        "qasm",
        {
            "shots": args.shots,
            "seed": args.seed,
            "repeats": args.repeats,
            "tvd_tolerance": args.tvd_tolerance,
        },
        rows,
        failures=failures,
    )
    if failures:
        print("\nFAIL:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nall agreement and scale gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
