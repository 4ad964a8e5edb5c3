"""Tests for the noise stack across all three engines.

Covers the trajectory models themselves (PhaseFlipNoise, target bounds
checks, the ``pauli_terms`` channel description), the noise-aware stabilizer
engine (symbolic Pauli-frame vs per-shot fallback, crossover, rejection of
non-Pauli channels), cross-engine statistical agreement (chi-squared against
the exact density-matrix channel), and seed+i bit-equality of noisy
batches.
"""

import numpy as np
import pytest

from repro.qsim import QuantumCircuit
from repro.qsim.backends import get_backend
from repro.qsim.density import DensityMatrixSimulator, depolarizing_kraus
from repro.qsim.exceptions import BackendError, SimulationError
from repro.qsim.noise import BitFlipNoise, DepolarizingNoise, NoiseModel, PhaseFlipNoise
from repro.qsim.stabilizer import StabilizerSimulator
from repro.qsim.statevector import Statevector


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


def hadamard_sandwich() -> QuantumCircuit:
    """Phase flips between two H's become observable bit flips."""
    qc = QuantumCircuit(1, 1)
    qc.h(0).id(0).h(0)
    qc.measure([0], [0])
    return qc


# ---------------------------------------------------------------------------
# trajectory models
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
        terms = dict(DepolarizingNoise(0.3).pauli_terms())
        assert set(terms) == {"X", "Y", "Z"}
        assert all(abs(p - 0.1) < 1e-12 for p in terms.values())
        assert NoiseModel().pauli_terms() is None

    @pytest.mark.parametrize("model_cls", [BitFlipNoise, PhaseFlipNoise, DepolarizingNoise])
    def test_out_of_range_target_named_in_error(self, model_cls):
        state = Statevector.zero_state(2)
        rng = np.random.default_rng(0)
        with pytest.raises(SimulationError, match="qubit 5.*2-qubit"):
            model_cls(1.0).apply(state, [0, 5], rng)

    def test_out_of_range_target_checked_before_mutation(self):
        state = Statevector.zero_state(1)
        with pytest.raises(SimulationError):
            BitFlipNoise(1.0).apply(state, [1, 0], np.random.default_rng(0))
        # qubit 0 untouched: the bounds check fires before any error lands
        assert abs(state.data[0] - 1.0) < 1e-12


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
    def test_symbolic_and_per_shot_agree(self, model):
        shots = 6000
        symbolic = StabilizerSimulator(
            seed=5, noise_model=model, noise_method="symbolic"
        ).run(bell_circuit(), shots=shots).counts
        per_shot = StabilizerSimulator(
            seed=5, noise_model=model, noise_method="per_shot"
        ).run(bell_circuit(), shots=shots).counts
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

    def test_non_pauli_model_rejected_with_clear_error(self):
        class AmplitudeDampingish(NoiseModel):
            def apply(self, state, targets, rng):  # pragma: no cover
                pass

        sim = StabilizerSimulator(seed=0, noise_model=AmplitudeDampingish())
        with pytest.raises(SimulationError, match="only supports Pauli noise"):
            sim.run(bell_circuit(), shots=10)

    def test_unknown_noise_method_rejected(self):
        with pytest.raises(SimulationError, match="noise_method"):
            StabilizerSimulator(noise_method="bogus")

    def test_auto_crossover_picks_per_shot_for_huge_frames(self):
        sim = StabilizerSimulator(noise_model=DepolarizingNoise(0.01))
        assert not sim._use_per_shot(num_qubits=100, capacity=1000)
        assert sim._use_per_shot(num_qubits=100, capacity=2_000_000)
        forced = StabilizerSimulator(noise_model=DepolarizingNoise(0.01),
                                     noise_method="per_shot")
        assert forced._use_per_shot(num_qubits=2, capacity=1)

    def test_noisy_evolve_samples_a_trajectory(self):
        qc = QuantumCircuit(1, 0)
        qc.id(0)
        sim = StabilizerSimulator(seed=0, noise_model=BitFlipNoise(1.0))
        tableau = sim.evolve(qc)
        assert tableau.stabilizers() == ["-Z"]  # the X error fired concretely

    def test_backend_noise_model_option(self):
        backend = get_backend("stabilizer", seed=1, noise_model=BitFlipNoise(1.0))
        qc = QuantumCircuit(1, 1)
        qc.id(0)
        qc.measure([0], [0])
        result = backend.run(qc, shots=100).result()
        assert result.get_counts() == {"1": 100}
        assert result[0].metadata["method"] == "stabilizer_noisy"

    def test_backend_rejects_non_pauli_noise_cleanly(self):
        class NotPauli(NoiseModel):
            pass

        backend = get_backend("stabilizer", noise_model=NotPauli())
        with pytest.raises(BackendError, match="only supports Pauli noise"):
            backend.run(bell_circuit(), shots=10).result()


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


CHI2_CASES = [
    # (circuit builder, qubits, channel factory)
    (bell_circuit, 2, lambda p: DepolarizingNoise(p)),
    (lambda: ghz_circuit(3), 3, lambda p: DepolarizingNoise(p)),
    (lambda: ghz_circuit(4), 4, lambda p: BitFlipNoise(p)),
]


class TestCrossEngineAgreement:
    @pytest.mark.parametrize("builder,num_qubits,channel", CHI2_CASES)
    @pytest.mark.parametrize("engine", ["stabilizer", "statevector"])
    def test_chi_squared_against_exact_channel(self, builder, num_qubits, channel, engine):
        p, shots = 0.1, 8000
        model = channel(p)
        if engine == "stabilizer" and model.pauli_terms() is None:
            pytest.skip("non-Pauli channel")
        # exact reference distribution needs the matching Kraus channel
        from repro.qsim.density import bit_flip_kraus

        kraus = depolarizing_kraus(p) if isinstance(model, DepolarizingNoise) else bit_flip_kraus(p)
        sim = DensityMatrixSimulator(seed=0, gate_noise={1: kraus, 2: kraus})
        circuit = builder()
        from repro.qsim.instruction import Measure

        unmeasured = QuantumCircuit(num_qubits, num_qubits)
        measured_qubits = []
        for instr in circuit.data:
            if isinstance(instr.operation, Measure):
                measured_qubits.append(circuit.qubit_index(instr.qubits[0]))
                continue
            unmeasured.append(instr.operation,
                              [circuit.qubit_index(q) for q in instr.qubits])
        probs = sim.evolve(unmeasured).probabilities(measured_qubits)

        counts = (
            get_backend(engine, seed=13, noise_model=model)
            .run(builder(), shots=shots)
            .result()
            .get_counts()
        )
        statistic = chi_squared(counts, probs, shots, num_qubits)
        # dof = 2^n - 1; mean dof, std sqrt(2 dof) -- allow ~5 sigma (seeded,
        # so this is a regression bound, not a flaky statistical test)
        dof = 2**num_qubits - 1
        assert statistic < dof + 5.0 * np.sqrt(2.0 * dof)

    def test_three_engine_bell_correlation_agrees(self):
        p, shots = 0.08, 12000
        kraus = depolarizing_kraus(p)
        correlations = {}
        exact_counts = (
            get_backend("density_matrix", seed=3, gate_noise={1: kraus, 2: kraus})
            .run(bell_circuit(), shots=shots).result().get_counts()
        )
        correlations["density_matrix"] = (
            exact_counts.get("00", 0) + exact_counts.get("11", 0)
        ) / shots
        for engine in ("stabilizer", "statevector"):
            counts = (
                get_backend(engine, seed=3, noise_model=DepolarizingNoise(p))
                .run(bell_circuit(), shots=shots).result().get_counts()
            )
            correlations[engine] = (counts.get("00", 0) + counts.get("11", 0)) / shots
        values = list(correlations.values())
        assert max(values) - min(values) < 0.03, correlations


# ---------------------------------------------------------------------------
# noisy batches: seed+i bit-equality
# ---------------------------------------------------------------------------

class TestNoisyBatchSeeds:
    @pytest.mark.parametrize("engine_options", [
        ("stabilizer", {"noise_model": DepolarizingNoise(0.05)}),
        ("statevector", {"noise_model": BitFlipNoise(0.05)}),
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
