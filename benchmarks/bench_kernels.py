#!/usr/bin/env python3
"""Microbenchmark: specialized gate kernels + fusion vs the generic path.

Builds a random circuit of 1- and 2-qubit gates (the shapes dominating the
Grover / arithmetic / Fig. 6 workloads) and times four execution strategies
over the same statevector evolution:

* ``generic`` -- every gate through :func:`repro.qsim.kernels.dense_apply`
  (the moveaxis/reshape + matmul path, what the engine did before the
  kernel layer),
* ``kernels`` -- every gate through :func:`repro.qsim.kernels.apply_gate`,
  the one entry point of the step kernels every dense engine shares,
* ``fused``   -- gate fusion (:mod:`repro.qsim.fusion`) first, then the
  step kernels through ``apply_gate``, each product copied back into the
  state's ascending qubit order; the reported time includes the fusion
  pass itself.
* ``session`` -- ``StatevectorSimulator().evolve``, what the engine runs:
  the same fusion (at the engine's own budget of 4 qubits), then the
  statevector session, which leaves each product's result in its own axis
  order and puts the row back in ascending order once, at the end.

Every strategy's final statevector is checked against the generic path to
1e-10 before any timing is reported.  The acceptance target for this repo is
a >= 2x wall-clock speedup of ``kernels`` over ``generic`` at 16 qubits /
1000 gates (the default configuration).

Four further axes ride along, three of them timed against
:func:`reference_per_shot_loop`, a short per-shot trajectory loop kept in
this script (one full circuit pass per shot in Python on a statevector
session, the way the statevector engine ran noise and feed-forward before
the batched executor):

* **noisy shots** -- the same random circuit family with a full final
  measurement and a depolarizing channel, executed three ways: the
  reference loop, the batched ``(shots, 2^n)`` tensor executor
  (:mod:`repro.qsim.shotbatch`) one trajectory at a time (``per_shot``,
  ``batch_size=1``), and the same executor at its default batch size.
  ``batched`` and ``per_shot`` counts are asserted *bitwise equal* at the
  shared seed; the acceptance target is a >= 3x speedup of ``batched`` over
  the reference loop at 12 qubits / 2000 shots (the default noisy
  configuration).  It runs twice: at depolarizing ``--noise-p`` (0.01,
  the gated row), where most shots share one trajectory until their first
  error, and at ``HIGH_NOISE_P`` (0.2, reported only), where every shot
  errs early and nothing is shared.  Each row records the ``trajectories``
  each mode evolved.
* **feed-forward** -- the four mid-circuit / reset / conditional corpus
  files (``FEEDFORWARD_FILES``) at ``--noisy-shots`` shots, noiseless and
  at depolarizing ``--noise-p``, on the batched executor against the
  reference loop; both must agree in distribution (the corpus TVD floor),
  and the acceptance target at 2000 shots is a >= 10x speedup on every
  row.
* **classical prefix** -- noisy ``adder_n10`` (only ``x``/``cx``/``ccx``:
  monomial end to end) at ``--noisy-shots`` shots and depolarizing
  ``--noise-p``, where both dense engines never leave the computational
  basis: the statevector engine's basis rows against the reference loop,
  and the density-matrix engine's population vector against
  :func:`reference_full_rho`, a full ``2^n x 2^n`` walk kept in this
  script.  Each pair must agree in distribution (the corpus TVD floor),
  and the acceptance target at 2000 shots is a >= 10x speedup on both.
* **dense diagonals** -- regression guard for the batched executor's
  choice of a ``diag_full`` step (one ``(2^n,)`` factor and one broadcast
  multiply) over the per-entry ``diag`` step a single application runs, for
  a dense diagonal on low qubits: applying it must not be slower, and must
  produce bitwise-identical amplitudes.

Run directly::

    PYTHONPATH=src python benchmarks/bench_kernels.py
    PYTHONPATH=src python benchmarks/bench_kernels.py --qubits 8 --gates 120 --repeats 1
"""

from __future__ import annotations

import argparse
import os
import time
from typing import Dict, List

import numpy as np

from repro.qsim import DepolarizingNoise, QuantumCircuit, Statevector, from_qasm
from repro.qsim import kernels
from repro.qsim.backends import StatevectorBackend, build_noisy_backend
from repro.qsim.density import DensityMatrix
from repro.qsim.noise import depolarizing_kraus
from repro.qsim.fusion import fuse_gates, fusion_summary
from repro.qsim.instruction import Barrier, Gate, Measure
from repro.qsim.shotbatch import run_batched
from repro.qsim.simulator import (
    StatevectorSimulator,
    compile_condition,
    condition_met,
    sample_rows,
    tally,
)

from benchutil import add_out_argument, total_variation, tvd_floor, write_results

ATOL = 1e-10

#: (name, arity, number of parameters) -- every 1q/2q registry gate the
#: repo's workloads (Grover, QFT arithmetic, Fig. 6 programs) actually emit;
#: the Heisenberg interactions rxx/ryy/rzz appear in no workload and are
#: covered by the equivalence tests instead.
GATE_POOL = [
    ("h", 1, 0), ("x", 1, 0), ("y", 1, 0), ("z", 1, 0), ("s", 1, 0),
    ("sdg", 1, 0), ("t", 1, 0), ("tdg", 1, 0), ("sx", 1, 0),
    ("rx", 1, 1), ("ry", 1, 1), ("rz", 1, 1), ("p", 1, 1), ("u3", 1, 3),
    ("cx", 2, 0), ("cy", 2, 0), ("cz", 2, 0), ("ch", 2, 0),
    ("swap", 2, 0), ("iswap", 2, 0),
    ("crx", 2, 1), ("cry", 2, 1), ("crz", 2, 1), ("cp", 2, 1),
]


def random_circuit(num_qubits: int, num_gates: int, seed: int) -> QuantumCircuit:
    rng = np.random.default_rng(seed)
    qc = QuantumCircuit(num_qubits)
    for _ in range(num_gates):
        name, arity, num_params = GATE_POOL[rng.integers(len(GATE_POOL))]
        params = list(rng.uniform(0, 2 * np.pi, num_params))
        targets = [int(q) for q in rng.choice(num_qubits, arity, replace=False)]
        qc.append(Gate(name, arity, params), targets)
    return qc


def run_generic(circuit: QuantumCircuit) -> Statevector:
    state = Statevector.zero_state(circuit.num_qubits)
    for instr in circuit.data:
        targets = [circuit.qubit_index(q) for q in instr.qubits]
        state.data = kernels.dense_apply(
            state.data, state.num_qubits, instr.operation.to_matrix(), targets
        )
    return state


def run_kernels(circuit: QuantumCircuit) -> Statevector:
    state = Statevector.zero_state(circuit.num_qubits)
    for instr in circuit.data:
        targets = [circuit.qubit_index(q) for q in instr.qubits]
        kernels.apply_gate(state.data, instr.operation, targets)
    return state


def run_fused(circuit: QuantumCircuit, max_fused_qubits: int) -> Statevector:
    return run_kernels(fuse_gates(circuit, max_fused_qubits))


def run_session(circuit: QuantumCircuit) -> Statevector:
    return StatevectorSimulator().evolve(circuit)


# ---------------------------------------------------------------------------
# Trajectory axes: reference per-shot loop vs the batched tensor executor
# ---------------------------------------------------------------------------

CIRCUITS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "circuits")

#: depolarizing strength of the noisy-shot axis's second, ungated row: every
#: shot errs within a few gates, so no trajectory is shared
HIGH_NOISE_P = 0.2

#: the corpus files with mid-circuit measurement, reset or ``if``
FEEDFORWARD_FILES = ("teleport_cond_n3", "ghz_cond_n4", "qec_cond_n5", "qec_repetition_n5")


def reference_per_shot_loop(circuit, noise, shots: int, seed: int) -> Dict[str, int]:
    """One full circuit pass per shot in a Python loop (the regression
    baseline), each shot on a fresh statevector session of one engine:
    gates and resets through ``apply`` (which draws one Pauli error per
    touched qubit from the model's ``pauli_terms()``), collapse through
    ``measure``."""
    engine = StatevectorSimulator(seed=seed, noise_model=noise)
    conditions = [compile_condition(circuit, instr.condition) for instr in circuit.data]
    values = np.zeros((shots, circuit.num_clbits), dtype=np.uint8)
    for bits in values:
        session = engine.session()
        session.allocate(circuit.num_qubits)
        for instr, condition in zip(circuit.data, conditions):
            if not condition_met(condition, bits):
                continue
            targets = [circuit.qubit_index(q) for q in instr.qubits]
            if isinstance(instr.operation, Measure):
                bits[circuit.clbit_index(instr.clbits[0])] = session.measure(targets)
            else:
                session.apply(instr.operation, targets)
    return tally(circuit, values, False, {}).counts


def noisy_random_circuit(num_qubits: int, num_gates: int, seed: int) -> QuantumCircuit:
    """The :func:`random_circuit` family plus a full final measurement."""
    rng = np.random.default_rng(seed)
    qc = QuantumCircuit(num_qubits, num_qubits)
    for _ in range(num_gates):
        name, arity, num_params = GATE_POOL[rng.integers(len(GATE_POOL))]
        params = list(rng.uniform(0, 2 * np.pi, num_params))
        targets = [int(q) for q in rng.choice(num_qubits, arity, replace=False)]
        qc.append(Gate(name, arity, params), targets)
    # measure qubit q into clbit q (measure_all would add a second register,
    # doubling the bitstring width and hiding the qubit<->bit correspondence
    # marginal_ones relies on)
    qc.measure(list(range(num_qubits)), list(range(num_qubits)))
    return qc


def run_noisy_mode(circuit, noise, shots: int, seed: int, mode: str):
    """The trajectory executor one trajectory at a time (``per_shot``) or at
    its default batch size (``batched``); returns the experiment result
    (counts plus ``trajectories`` metadata)."""
    return run_batched(circuit, noise, shots, seed, batch_size=1 if mode == "per_shot" else None)


def noisy_axis(num_qubits: int, num_gates: int, shots: int, noise_p: float, seed: int,
               repeats: int, failures: List[str], gated: bool) -> Dict:
    """Reference loop vs the executor's ``per_shot`` and ``batched`` modes at
    one depolarizing strength; returns the artifact row.  *gated* applies
    the >= 3x acceptance target to this row."""
    noisy = noisy_random_circuit(num_qubits, num_gates, seed)
    noise = DepolarizingNoise(noise_p)
    label = f"p={noise_p}"

    batched = run_noisy_mode(noisy, noise, shots, seed, "batched")
    per_shot = run_noisy_mode(noisy, noise, shots, seed, "per_shot")
    bit_equal = batched.counts == per_shot.counts
    if not bit_equal:
        failures.append(f"{label}: batched and per_shot counts differ at the shared seed")
    counts_loop = reference_per_shot_loop(noisy, noise, shots, seed)
    drift = max(
        abs(a - b)
        for a, b in zip(
            marginal_ones(batched.counts, num_qubits, shots),
            marginal_ones(counts_loop, num_qubits, shots),
        )
    )
    # the two samplers draw independent trajectories, so their marginals
    # only agree statistically: allow ~4.5 sigma of binomial noise
    drift_tolerance = max(0.05, 4.5 * (0.5 / shots) ** 0.5)
    if drift > drift_tolerance:
        failures.append(
            f"{label}: batched marginals drift {drift:.3f} from the reference loop "
            f"(tolerance {drift_tolerance:.3f})"
        )

    t_loop, t_mode, t_batched = _time_interleaved(
        [
            lambda: reference_per_shot_loop(noisy, noise, shots, seed),
            lambda: run_noisy_mode(noisy, noise, shots, seed, "per_shot"),
            lambda: run_noisy_mode(noisy, noise, shots, seed, "batched"),
        ],
        repeats,
    )
    trajectories = {
        "per_shot": per_shot.metadata["trajectories"],
        "batched": batched.metadata["trajectories"],
    }
    print(f"\nnoisy shots: {num_qubits} qubits, {num_gates} gates, "
          f"{shots} shots, depolarizing p={noise_p}")
    print(f"{'strategy':<16} {'time (s)':>10} {'vs loop':>9} {'trajectories':>13}")
    for name, elapsed, rows in (
        ("reference loop", t_loop, shots),
        ("per_shot mode", t_mode, trajectories["per_shot"]),
        ("batched", t_batched, trajectories["batched"]),
    ):
        print(f"{name:<16} {elapsed:>10.2f} {t_loop / elapsed:>8.2f}x {rows:>13}")
    print(f"counts: batched == per_shot (bitwise): {bit_equal}; "
          f"max marginal drift vs loop: {drift:.4f}")
    # acceptance target: batched trajectories must beat the reference
    # per-shot loop >= 3x at 12 qubits / 2000 shots
    if gated and t_loop / t_batched < 3.0 and num_qubits >= 12 and shots >= 2000:
        failures.append(f"{label}: batched speedup below the 3x acceptance target")
    return {
        "noise_p": noise_p,
        "trajectories": trajectories,
        "strategies": [
            {"strategy": name, "time_s": elapsed, "speedup_vs_loop": t_loop / elapsed}
            for name, elapsed in
            (("loop", t_loop), ("per_shot", t_mode), ("batched", t_batched))
        ],
    }


def feedforward_axis(shots: int, noise_p: float, seed: int, repeats: int, failures: List[str]):
    """Batched executor vs the reference loop on the feed-forward corpus."""
    rows = []
    print(f"\nfeed-forward corpus: {shots} shots, noiseless and depolarizing p={noise_p}")
    print(f"{'circuit':<28} {'loop (ms)':>10} {'batched (ms)':>13} {'speedup':>9} {'tvd':>7}")
    for name in FEEDFORWARD_FILES:
        with open(os.path.join(CIRCUITS_DIR, name + ".qasm"), encoding="utf-8") as handle:
            circuit = from_qasm(handle.read(), name=name)
        for noise in (None, DepolarizingNoise(noise_p)):
            backend = StatevectorBackend(noise_model=noise)

            def batched():
                return backend.run(circuit, shots=shots, seed=seed).result()[0]

            result = batched()
            loop_counts = reference_per_shot_loop(circuit, noise, shots, seed)
            tvd = total_variation(result.counts, loop_counts)
            allowed = tvd_floor(max(len(result.counts), len(loop_counts)), shots)
            label = name + ("" if noise is None else "+noise")
            if result.metadata["method"] != "batched_shots":
                failures.append(f"{label}: ran {result.metadata['method']}, not batched_shots")
            if tvd > allowed:
                failures.append(f"{label}: TVD {tvd:.3f} to the reference loop exceeds {allowed:.3f}")
            t_loop, t_batched = _time_interleaved(
                [lambda: reference_per_shot_loop(circuit, noise, shots, seed), batched],
                repeats,
            )
            speedup = t_loop / t_batched
            print(f"{label:<28} {t_loop * 1e3:>10.1f} {t_batched * 1e3:>13.2f} "
                  f"{speedup:>8.1f}x {tvd:>7.4f}")
            rows.append({"circuit": label, "loop_ms": t_loop * 1e3,
                         "batched_ms": t_batched * 1e3, "speedup": speedup, "tvd": tvd})
            # acceptance target: >= 10x over the reference loop at 2000 shots
            if speedup < 10.0 and shots >= 2000:
                failures.append(f"{label}: batched speedup {speedup:.1f}x below the 10x target")
    return rows


#: the classical-prefix axis's circuit: reversible arithmetic, monomial end to end
CLASSICAL_PREFIX_FILE = "adder_n10"


def reference_full_rho(circuit, noise_p: float, shots: int, seed: int) -> Dict[str, int]:
    """The density-matrix engine before its population path: the full
    ``2^n x 2^n`` rho through every gate and every per-qubit depolarizing
    channel, final measurements sampled with one multinomial (the circuit
    must measure only at the end)."""
    state = DensityMatrix.zero_state(circuit.num_qubits)
    kraus = depolarizing_kraus(noise_p)
    final = []
    for instr in circuit.data:
        op = instr.operation
        targets = [circuit.qubit_index(q) for q in instr.qubits]
        if isinstance(op, Barrier):
            continue
        if isinstance(op, Measure):
            final.append((targets[0], circuit.clbit_index(instr.clbits[0])))
            continue
        if final:
            raise ValueError("reference_full_rho needs final measurements only")
        state.apply_unitary(op.to_matrix(), targets)
        for qubit in targets:
            state.apply_kraus(kraus, [qubit])
    probs = state.probabilities([qubit for qubit, _ in final])
    bits = np.zeros(circuit.num_clbits, dtype=np.uint8)
    values = sample_rows(probs, shots, final, bits, np.random.default_rng(seed))
    return tally(circuit, values, False, {}).counts


def classical_prefix_axis(shots: int, noise_p: float, seed: int, repeats: int,
                          failures: List[str]) -> List[Dict]:
    """Both dense engines on noisy ``adder_n10`` against their references."""
    with open(os.path.join(CIRCUITS_DIR, CLASSICAL_PREFIX_FILE + ".qasm"), encoding="utf-8") as f:
        circuit = from_qasm(f.read(), name=CLASSICAL_PREFIX_FILE)
    noise = DepolarizingNoise(noise_p)
    engines = {
        "statevector": (
            build_noisy_backend("statevector", noise_p, "depolarizing"),
            lambda: reference_per_shot_loop(circuit, noise, shots, seed),
        ),
        "density_matrix": (
            build_noisy_backend("density_matrix", noise_p, "depolarizing"),
            lambda: reference_full_rho(circuit, noise_p, shots, seed),
        ),
    }
    rows = []
    print(f"\nclassical prefix: {CLASSICAL_PREFIX_FILE}, {shots} shots, "
          f"depolarizing p={noise_p}")
    print(f"{'engine':<16} {'reference (ms)':>15} {'engine (ms)':>12} {'speedup':>9} "
          f"{'prefix':>7} {'tvd':>7}")
    for engine, (backend, reference) in engines.items():

        def run():
            return backend.run(circuit, shots=shots, seed=seed).result()[0]

        result = run()
        reference_counts = reference()
        tvd = total_variation(result.counts, reference_counts)
        allowed = tvd_floor(max(len(result.counts), len(reference_counts)), shots)
        prefix = result.metadata["classical_prefix"]
        if prefix != len(circuit.data):
            failures.append(f"{engine}: classical prefix {prefix} of {len(circuit.data)}")
        if tvd > allowed:
            failures.append(f"{engine}: TVD {tvd:.3f} to its reference exceeds {allowed:.3f}")
        t_reference, t_engine = _time_interleaved([reference, run], repeats)
        speedup = t_reference / t_engine
        print(f"{engine:<16} {t_reference * 1e3:>15.1f} {t_engine * 1e3:>12.2f} "
              f"{speedup:>8.1f}x {prefix:>7} {tvd:>7.4f}")
        rows.append({"engine": engine, "circuit": CLASSICAL_PREFIX_FILE,
                     "reference_ms": t_reference * 1e3, "engine_ms": t_engine * 1e3,
                     "speedup": speedup, "classical_prefix": prefix, "tvd": tvd})
        # acceptance target: >= 10x over the reference at 2000 shots
        if speedup < 10.0 and shots >= 2000:
            failures.append(f"{engine}: classical-prefix speedup {speedup:.1f}x below 10x")
    return rows


def marginal_ones(counts, num_qubits: int, shots: int) -> List[float]:
    """Per-qubit frequency of measuring 1 (keys are MSB-first bitstrings)."""
    freq = [0] * num_qubits
    for key, count in counts.items():
        for q in range(num_qubits):
            if key[-1 - q] == "1":
                freq[q] += count
    return [f / shots for f in freq]


# ---------------------------------------------------------------------------
# Dense-diagonal regression: the diag_full factor vs per-entry diag slices
# ---------------------------------------------------------------------------


def _time_interleaved(funcs, repeats: int) -> List[float]:
    """Best-of-*repeats* wall time per function, measured round-robin.

    Interleaving decorrelates the strategies from transient machine load, so
    a noisy core affects all of them instead of biasing one.
    """
    best = [float("inf")] * len(funcs)
    for _ in range(repeats):
        for position, func in enumerate(funcs):
            start = time.perf_counter()
            func()
            best[position] = min(best[position], time.perf_counter() - start)
    return best


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--qubits", type=int, default=16)
    parser.add_argument("--gates", type=int, default=1000)
    parser.add_argument("--repeats", type=int, default=5, help="timing repeats (best is kept)")
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--max-fused-qubits", type=int, default=4,
                        help="fusion budget (default matches StatevectorSimulator)")
    parser.add_argument("--noisy-qubits", type=int, default=12,
                        help="qubits for the noisy-shot axis (acceptance config: 12)")
    parser.add_argument("--noisy-gates", type=int, default=60,
                        help="gates for the noisy-shot axis")
    parser.add_argument("--noisy-shots", type=int, default=2000,
                        help="trajectories for the noisy-shot, feed-forward and "
                             "classical-prefix axes (0 skips all three)")
    parser.add_argument("--noise-p", type=float, default=0.01,
                        help="depolarizing probability for the noisy-shot, "
                             "feed-forward and classical-prefix axes")
    add_out_argument(parser)
    args = parser.parse_args(argv)
    failures: List[str] = []

    circuit = random_circuit(args.qubits, args.gates, args.seed)
    summary = fusion_summary(circuit, args.max_fused_qubits)

    reference = run_generic(circuit)
    for label, state in (
        ("kernels", run_kernels(circuit)),
        ("fused", run_fused(circuit, args.max_fused_qubits)),
        ("session", run_session(circuit)),
    ):
        error = float(np.abs(state.data - reference.data).max())
        if error > ATOL:
            print(f"FAIL: {label} path deviates from generic path by {error:.3e}")
            return 1

    t_generic, t_kernels, t_fused, t_session = _time_interleaved(
        [
            lambda: run_generic(circuit),
            lambda: run_kernels(circuit),
            lambda: run_fused(circuit, args.max_fused_qubits),
            lambda: run_session(circuit),
        ],
        args.repeats,
    )
    strategies = (
        ("generic", t_generic), ("kernels", t_kernels), ("fused", t_fused),
        ("session", t_session),
    )

    print(f"random circuit: {args.qubits} qubits, {args.gates} gates "
          f"(seed {args.seed}, best of {args.repeats})")
    print(f"fusion: {summary['before']} -> {summary['after']} instructions "
          f"(budget {args.max_fused_qubits} qubits)")
    print(f"{'strategy':<10} {'time (ms)':>10} {'speedup':>9}")
    for label, elapsed in strategies:
        print(f"{label:<10} {elapsed * 1000.0:>10.2f} {t_generic / elapsed:>8.2f}x")

    # acceptance target: the engine's fast path (kernels + fusion, what
    # StatevectorSimulator runs by default) must beat the generic path >= 2x
    if t_generic / t_fused < 2.0 and args.qubits >= 16 and args.gates >= 1000:
        failures.append("fast-path speedup below the 2x acceptance target")
    print("equivalence: all paths match the generic statevector to 1e-10")

    # -- noisy-shot axis ----------------------------------------------------
    # --noise-p (gated), where most shots share their trajectory until their
    # first error, and HIGH_NOISE_P (reported), where nothing is shared
    noisy_results = []
    if args.noisy_shots > 0:
        noisy_results = [
            noisy_axis(args.noisy_qubits, args.noisy_gates, args.noisy_shots, p,
                       args.seed, args.repeats, failures, gated=p == args.noise_p)
            for p in (args.noise_p, HIGH_NOISE_P)
        ]

    feedforward_rows = []
    classical_rows = []
    if args.noisy_shots > 0:
        feedforward_rows = feedforward_axis(
            args.noisy_shots, args.noise_p, args.seed, args.repeats, failures
        )
        classical_rows = classical_prefix_axis(
            args.noisy_shots, args.noise_p, args.seed, args.repeats, failures
        )

    # -- dense-diagonal regression ------------------------------------------
    diag_qubits = min(args.qubits, 16)
    diag_targets = tuple(range(1, 1 + min(5, diag_qubits - 1)))
    rng = np.random.default_rng(args.seed)
    diag = np.exp(1j * rng.uniform(0.1, 2 * np.pi, 1 << len(diag_targets)))
    base = rng.standard_normal(1 << diag_qubits) * (1 + 0j)
    base /= np.linalg.norm(base)
    matrix = np.diag(diag)
    # the batched executor's plan lowers with the state width (diag_full);
    # a single application lowers without it (the per-entry diag step)
    full = kernels.lower(matrix, diag_targets, diag_qubits)
    per_entry = kernels.lower(matrix, diag_targets)
    if (full[0], per_entry[0]) != ("diag_full", "diag"):
        failures.append("a dense diagonal on low qubits no longer lowers to diag_full")
    vectorised, reference = base.copy(), base.copy()
    kernels.apply_step(vectorised, full)
    kernels.apply_step(reference, per_entry)
    if not np.array_equal(vectorised, reference):
        failures.append("diag_full is not bitwise equal to the per-entry diag step")
    t_vec, t_ref = _time_interleaved(
        [
            lambda: kernels.apply_step(base.copy(), full),
            lambda: kernels.apply_step(base.copy(), per_entry),
        ],
        max(args.repeats, 3) * 5,
    )
    print(f"\ndense diagonal ({diag_qubits} qubits, {len(diag_targets)} targets, "
          f"all {diag.size} entries non-unit): "
          f"diag_full {t_vec * 1e3:.2f} ms, per-entry diag {t_ref * 1e3:.2f} ms "
          f"({t_ref / t_vec:.2f}x)")
    # regression guard for the lowering's choice: applying a diag_full step
    # (what every batch of a plan does) must never lose to the per-entry
    # step it replaces
    if t_vec > t_ref:
        failures.append("diag_full slower than the per-entry diag step")

    write_results(
        args.out,
        "kernels",
        {"qubits": args.qubits, "gates": args.gates, "repeats": args.repeats,
         "seed": args.seed, "max_fused_qubits": args.max_fused_qubits,
         "noisy_qubits": args.noisy_qubits, "noisy_gates": args.noisy_gates,
         "noisy_shots": args.noisy_shots, "noise_p": args.noise_p,
         "high_noise_p": HIGH_NOISE_P},
        [
            {"strategy": label, "time_ms": elapsed * 1000.0,
             "speedup": t_generic / elapsed}
            for label, elapsed in strategies
        ],
        fusion=summary,
        noisy_shots=noisy_results,
        feedforward=feedforward_rows,
        classical_prefix=classical_rows,
        dense_diagonal={"time_vectorised_ms": t_vec * 1e3,
                        "time_per_entry_ms": t_ref * 1e3,
                        "speedup": t_ref / t_vec},
    )

    for failure in failures:
        print(f"WARNING: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
