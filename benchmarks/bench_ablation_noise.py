"""Ablation -- noise robustness of the Bell-pair / entanglement showcase.

The paper's protocols are presented noise-free; this harness measures how
their signature observable (end-to-end correlation of a Bell pair) degrades
under increasing depolarizing noise, using both the exact density-matrix
channel and the Monte-Carlo trajectory model, and checks the two agree.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.qsim.backends import get_backend
from repro.qsim.circuit import QuantumCircuit
from repro.qsim.noise import DepolarizingNoise

NOISE_LEVELS = [0.0, 0.01, 0.05, 0.1, 0.2]


def _bell_circuit() -> QuantumCircuit:
    qc = QuantumCircuit(2, 2)
    qc.h(0).cx(0, 1)
    qc.measure([0, 1], [0, 1])
    return qc


def _correlation(counts: dict, shots: int) -> float:
    return (counts.get("00", 0) + counts.get("11", 0)) / shots


def _correlation_exact(p: float) -> float:
    # exact channel and trajectory model run through the same unified
    # backend API and the same noise model -- only the registry name differs
    backend = get_backend("density_matrix", seed=0, noise_model=DepolarizingNoise(p))
    counts = backend.run(_bell_circuit(), shots=20000).result().get_counts()
    return _correlation(counts, sum(counts.values()))


def _correlation_trajectory(p: float) -> float:
    backend = get_backend("statevector", seed=0, noise_model=DepolarizingNoise(p))
    counts = backend.run(_bell_circuit(), shots=4000).result().get_counts()
    return _correlation(counts, sum(counts.values()))


@pytest.mark.parametrize("p", NOISE_LEVELS)
def test_exact_and_trajectory_agree(p):
    assert abs(_correlation_exact(p) - _correlation_trajectory(p)) < 0.06


def test_noise_monotonically_degrades_correlation():
    correlations = [_correlation_exact(p) for p in NOISE_LEVELS]
    assert correlations[0] > 0.999
    assert all(b <= a + 1e-9 for a, b in zip(correlations, correlations[1:]))
    assert correlations[-1] < 0.95


def test_ablation_noise_series(report, benchmark):
    rows = []
    for p in NOISE_LEVELS:
        exact = _correlation_exact(p)
        trajectory = _correlation_trajectory(p)
        rows.append([p, round(exact, 4), round(trajectory, 4)])
    report(
        "Ablation: Bell correlation vs depolarizing noise",
        ["noise p", "exact channel", "trajectory model"],
        rows,
    )
    assert rows[0][1] > 0.999

    benchmark(lambda: _correlation_exact(0.05))
