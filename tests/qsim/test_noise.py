"""Tests for the noise stack across all three engines.

Covers the one noise model (its channel description and its validation at
construction), the one guard against fused blocks under noise, the
noise-aware stabilizer engine (symbolic Pauli frame vs per-shot fallback,
rejection of non-Pauli channels), cross-engine statistical agreement
(chi-squared of every engine against the exact density-matrix
distribution of the same model), and seed+i bit-equality of noisy batches.
"""

import re

import numpy as np
import pytest

from repro.qsim import QuantumCircuit, fuse_gates, stabilizer
from repro.qsim.backends import build_noisy_backend, get_backend
from repro.qsim.density import DensityMatrixSimulator
from repro.qsim.exceptions import BackendError, SimulationError
from repro.qsim.instruction import Measure
from repro.qsim.noise import (
    BitFlipNoise,
    DepolarizingNoise,
    NoiseModel,
    PhaseFlipNoise,
    amplitude_damping_kraus,
    bit_flip_kraus,
)
from repro.qsim.stabilizer import StabilizerSimulator
from repro.qsim.simulator import StatevectorSimulator

ENGINES = ("statevector", "density_matrix", "stabilizer")


def bell_circuit() -> QuantumCircuit:
    qc = QuantumCircuit(2, 2)
    qc.h(0).cx(0, 1)
    qc.measure([0, 1], [0, 1])
    return qc


def ghz_circuit(n: int) -> QuantumCircuit:
    qc = QuantumCircuit(n, n)
    qc.h(0)
    for i in range(1, n):
        qc.cx(i - 1, i)
    qc.measure(list(range(n)), list(range(n)))
    return qc


def ghz_x_basis(n: int) -> QuantumCircuit:
    """A GHZ state read out in the X basis: phase flips become bit flips."""
    qc = QuantumCircuit(n, n)
    qc.h(0)
    for i in range(1, n):
        qc.cx(i - 1, i)
    for i in range(n):
        qc.h(i)
    qc.measure(list(range(n)), list(range(n)))
    return qc


def hadamard_sandwich() -> QuantumCircuit:
    """Phase flips between two H's become observable bit flips."""
    qc = QuantumCircuit(1, 1)
    qc.h(0).id(0).h(0)
    qc.measure([0], [0])
    return qc


# ---------------------------------------------------------------------------
# the noise model
# ---------------------------------------------------------------------------

class TestNoiseModels:
    def test_phase_flip_invisible_in_z_basis(self):
        qc = QuantumCircuit(1, 1)
        qc.x(0)
        qc.measure([0], [0])
        backend = get_backend("statevector", seed=1, noise_model=PhaseFlipNoise(0.5))
        assert backend.run(qc, shots=500).result().get_counts() == {"1": 500}

    def test_phase_flip_visible_between_hadamards(self):
        backend = get_backend("statevector", seed=1, noise_model=PhaseFlipNoise(0.2))
        counts = backend.run(hadamard_sandwich(), shots=8000).result().get_counts()
        # two effective Z locations (the one after the final H is invisible):
        # P(flip) = 2 p (1 - p) = 0.32
        assert abs(counts.get("1", 0) / 8000 - 0.32) < 0.03

    @pytest.mark.parametrize("model_cls", [BitFlipNoise, PhaseFlipNoise, DepolarizingNoise])
    def test_probability_validated(self, model_cls):
        with pytest.raises(SimulationError):
            model_cls(1.5)
        with pytest.raises(SimulationError):
            model_cls(-0.1)

    def test_pauli_terms_descriptions(self):
        assert BitFlipNoise(0.1).pauli_terms() == (("X", 0.1),)
        assert PhaseFlipNoise(0.2).pauli_terms() == (("Z", 0.2),)
        third = 0.3 / 3
        assert DepolarizingNoise(0.3).pauli_terms() == (("X", third), ("Y", third), ("Z", third))
        assert NoiseModel.pauli(x=0.2, z=0.1).pauli_terms() == (
            ("X", 0.2), ("Y", 0.0), ("Z", 0.1)
        )
        assert NoiseModel(amplitude_damping_kraus(0.1)).pauli_terms() is None

    def test_constructors_carry_the_kraus_channel(self):
        model = BitFlipNoise(0.25)
        np.testing.assert_array_equal(model.kraus, bit_flip_kraus(0.25))
        pauli = NoiseModel.pauli(x=0.25)
        np.testing.assert_allclose(pauli.kraus[:2], bit_flip_kraus(0.25), atol=1e-15)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: NoiseModel.pauli(x=0.1, y=-0.2),
            lambda: NoiseModel.pauli(x=0.5, z=0.5 + 5e-10),
            lambda: NoiseModel(bit_flip_kraus(0.1), (("W", 0.1),)),
        ],
        ids=["negative", "sum_over_one", "unknown_pauli"],
    )
    def test_bad_pauli_channel_rejected_at_construction(self, build):
        # regression: these used to reach the engines, where statevector ran
        # a negative probability silently, stabilizer accepted a sum of
        # 1 + 5e-10 that statevector refused, and an unknown Pauli failed
        # mid-run with a different message on each engine
        with pytest.raises(SimulationError, match="Pauli"):
            build()


class TestFusedBlocksUnderNoise:
    """One guard: a fused block would take one error for all its gates."""

    @staticmethod
    def fused_circuit():
        qc = QuantumCircuit(2, 2)
        for _ in range(5):
            qc.h(0).cx(0, 1).s(1).cx(1, 0)
        qc.measure([0, 1], [0, 1])
        return qc, fuse_gates(qc, max_fused_qubits=2)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_every_backend_refuses_a_fused_circuit(self, engine):
        qc, fused = self.fused_circuit()
        assert len(qc.data) == 22
        assert any(getattr(i.operation, "is_fused_block", False) for i in fused.data)
        backend = build_noisy_backend(engine, 0.1, "depolarizing", seed=1)
        with pytest.raises(BackendError, match="fused circuit under a noise model"):
            backend.run(fused, shots=100).result()
        assert sum(backend.run(qc, shots=100).result().get_counts().values()) == 100

    @pytest.mark.parametrize("engine", ENGINES)
    def test_fused_circuit_runs_noiseless(self, engine):
        _, fused = self.fused_circuit()
        counts = get_backend(engine, seed=1).run(fused, shots=100).result().get_counts()
        assert sum(counts.values()) == 100


class TestNonPauliModel:
    MODEL = NoiseModel(amplitude_damping_kraus(0.1))

    def test_runs_on_density_matrix(self):
        qc = QuantumCircuit(1, 1)
        qc.x(0).id(0)
        qc.measure(0, 0)
        counts = get_backend("density_matrix", seed=2, noise_model=self.MODEL).run(
            qc, shots=4000
        ).result().get_counts()
        # two decay chances of 0.1 each: P(0) = 1 - 0.9^2 = 0.19
        assert abs(counts["0"] / 4000 - 0.19) < 0.03

    def test_statevector_and_stabilizer_refuse_it_alike(self):
        messages = set()
        for engine in (StatevectorSimulator, StabilizerSimulator):
            with pytest.raises(SimulationError, match="density_matrix") as info:
                engine(seed=0, noise_model=self.MODEL).run(bell_circuit(), shots=10)
            messages.add(str(info.value))
        (message,) = messages
        for engine in ("statevector", "stabilizer"):
            backend = get_backend(engine, seed=0, noise_model=self.MODEL)
            with pytest.raises(BackendError, match=re.escape(message)):
                backend.run(bell_circuit(), shots=10).result()

    def test_evolve_refuses_noise(self):
        for engine in (StatevectorSimulator, StabilizerSimulator):
            with pytest.raises(SimulationError, match="evolve\\(\\) is noiseless"):
                engine(noise_model=BitFlipNoise(0.1)).evolve(bell_circuit())


# ---------------------------------------------------------------------------
# noise-aware stabilizer engine
# ---------------------------------------------------------------------------

class TestNoisyStabilizer:
    def test_bit_flip_full_strength_flips_deterministically(self):
        qc = QuantumCircuit(1, 1)
        qc.id(0)
        qc.measure([0], [0])
        sim = StabilizerSimulator(seed=0, noise_model=BitFlipNoise(1.0))
        assert sim.run(qc, shots=200).counts == {"1": 200}

    def test_phase_flip_invisible_in_z_basis(self):
        qc = QuantumCircuit(1, 1)
        qc.x(0)
        qc.measure([0], [0])
        sim = StabilizerSimulator(seed=0, noise_model=PhaseFlipNoise(0.5))
        assert sim.run(qc, shots=300).counts == {"1": 300}

    def test_phase_flip_visible_between_hadamards(self):
        sim = StabilizerSimulator(seed=2, noise_model=PhaseFlipNoise(0.2))
        counts = sim.run(hadamard_sandwich(), shots=8000).counts
        assert abs(counts.get("1", 0) / 8000 - 0.32) < 0.03

    def test_zero_probability_matches_noiseless_exactly(self):
        noiseless = StabilizerSimulator(seed=9).run(bell_circuit(), shots=1000).counts
        noisy = StabilizerSimulator(seed=9, noise_model=BitFlipNoise(0.0)).run(
            bell_circuit(), shots=1000
        ).counts
        assert noisy == noiseless

    @pytest.mark.parametrize("model", [BitFlipNoise(0.1), PhaseFlipNoise(0.15),
                                       DepolarizingNoise(0.12)])
    def test_symbolic_and_per_shot_agree(self, model, monkeypatch):
        shots = 6000
        symbolic = StabilizerSimulator(seed=5, noise_model=model).run(bell_circuit(), shots=shots)
        monkeypatch.setattr(stabilizer, "MAX_SYMBOLIC_PHASE_CELLS", 0)
        per_shot = StabilizerSimulator(seed=5, noise_model=model).run(bell_circuit(), shots=shots)
        assert symbolic.metadata == {"method": "stabilizer_noisy"}
        assert per_shot.metadata["method"] == "stabilizer_noisy_per_shot"
        symbolic, per_shot = symbolic.counts, per_shot.counts
        keys = set(symbolic) | set(per_shot)
        tvd = 0.5 * sum(abs(symbolic.get(k, 0) - per_shot.get(k, 0)) for k in keys) / shots
        assert tvd < 0.04

    def test_noisy_memory_and_mid_circuit_reset(self):
        qc = QuantumCircuit(2, 2)
        qc.h(0).cx(0, 1)
        qc.measure([0], [0])
        qc.reset(0)
        qc.x(0)
        qc.measure([0], [1])
        sim = StabilizerSimulator(seed=4, noise_model=DepolarizingNoise(0.05))
        result = sim.run(qc, shots=500, memory=True)
        assert len(result.memory) == 500
        assert sum(result.counts.values()) == 500

    def test_crossover_picks_per_shot_for_huge_frames(self, monkeypatch):
        sim = StabilizerSimulator(seed=0, noise_model=DepolarizingNoise(0.01))
        # bell: 2 noise touches x 2 symbols + 2 measure events over 5 rows
        frame = (2 * 2 + 1) * (1 + 2 * 3 + 2)
        monkeypatch.setattr(stabilizer, "MAX_SYMBOLIC_PHASE_CELLS", frame)
        assert sim.run(bell_circuit(), shots=10).metadata == {"method": "stabilizer_noisy"}
        monkeypatch.setattr(stabilizer, "MAX_SYMBOLIC_PHASE_CELLS", frame - 1)
        assert sim.run(bell_circuit(), shots=10).metadata == {
            "method": "stabilizer_noisy_per_shot",
            "fallback_reason": "symbolic phase frame over MAX_SYMBOLIC_PHASE_CELLS "
            "(see docs/noise.md)",
        }

    def test_backend_noise_model_option(self):
        backend = get_backend("stabilizer", seed=1, noise_model=BitFlipNoise(1.0))
        qc = QuantumCircuit(1, 1)
        qc.id(0)
        qc.measure([0], [0])
        result = backend.run(qc, shots=100).result()
        assert result.get_counts() == {"1": 100}
        assert result[0].metadata["method"] == "stabilizer_noisy"


# ---------------------------------------------------------------------------
# cross-engine statistical agreement
# ---------------------------------------------------------------------------

def chi_squared(counts, probabilities, shots: int, num_clbits: int) -> float:
    """Pearson chi-squared of sampled *counts* against exact *probabilities*.

    Outcome value v (little-endian over the measured qubits) maps to the
    MSB-first bitstring key; zero-probability cells must be unobserved.
    """
    statistic = 0.0
    for value, p in enumerate(probabilities):
        key = format(value, f"0{num_clbits}b")
        observed = counts.get(key, 0)
        if p < 1e-12:
            assert observed == 0, f"impossible outcome {key} observed"
            continue
        expected = shots * p
        statistic += (observed - expected) ** 2 / expected
    return statistic


def exact_distribution(circuit: QuantumCircuit, model: NoiseModel) -> np.ndarray:
    """The exact outcome distribution of a final-measurement *circuit*."""
    unmeasured = QuantumCircuit(circuit.num_qubits, circuit.num_clbits)
    measured = []
    for instr in circuit.data:
        if isinstance(instr.operation, Measure):
            measured.append(circuit.qubit_index(instr.qubits[0]))
            continue
        unmeasured.append(instr.operation, [circuit.qubit_index(q) for q in instr.qubits])
    rho = DensityMatrixSimulator(noise_model=model).evolve(unmeasured)
    return rho.probabilities(measured)


CIRCUITS = {
    "bell": bell_circuit,
    "ghz3": lambda: ghz_circuit(3),
    "ghz4_x_basis": lambda: ghz_x_basis(4),
}

MODELS = {
    "bit_flip": BitFlipNoise(0.1),
    "phase_flip": PhaseFlipNoise(0.1),
    "depolarizing": DepolarizingNoise(0.1),
}


class TestCrossEngineAgreement:
    @pytest.mark.parametrize("circuit", sorted(CIRCUITS))
    @pytest.mark.parametrize("channel", sorted(MODELS))
    def test_one_model_on_every_engine_matches_the_exact_distribution(self, circuit, channel):
        """The same NoiseModel instance goes to all three backends."""
        model, shots = MODELS[channel], 8000
        qc = CIRCUITS[circuit]()
        probs = exact_distribution(qc, model)
        for engine in ENGINES:
            counts = (
                get_backend(engine, seed=13, noise_model=model)
                .run(qc, shots=shots)
                .result()
                .get_counts()
            )
            statistic = chi_squared(counts, probs, shots, qc.num_clbits)
            # dof = 2^n - 1; mean dof, std sqrt(2 dof) -- allow ~5 sigma (seeded,
            # so this is a regression bound, not a flaky statistical test)
            dof = 2**qc.num_clbits - 1
            assert statistic < dof + 5.0 * np.sqrt(2.0 * dof), engine


class TestNoisyBatchSeeds:
    @pytest.mark.parametrize("engine_options", [
        ("stabilizer", {"noise_model": DepolarizingNoise(0.05)}),
        ("statevector", {"noise_model": BitFlipNoise(0.05)}),
        ("density_matrix", {"noise_model": PhaseFlipNoise(0.05)}),
    ])
    def test_seed_plus_i_bit_equality(self, engine_options):
        name, options = engine_options
        circuits = [ghz_circuit(3) for _ in range(3)]
        batch = get_backend(name, **options).run(circuits, shots=300, seed=40).result()
        for i in range(3):
            alone = get_backend(name, **options).run(circuits[i], shots=300, seed=40 + i)
            assert batch.get_counts(i) == alone.result().get_counts(0)
            assert batch[i].seed == 40 + i

    def test_single_experiment_reproducible_with_seed_plus_i(self):
        name, options = "stabilizer", {"noise_model": DepolarizingNoise(0.05)}
        circuits = [ghz_circuit(3) for _ in range(3)]
        batch = get_backend(name, **options).run(circuits, shots=300, seed=40).result()
        alone = get_backend(name, **options).run(circuits[2], shots=300, seed=42).result()
        assert batch.get_counts(2) == alone.get_counts(0)
