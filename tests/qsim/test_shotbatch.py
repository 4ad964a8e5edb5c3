"""The dense kernels and the batched trajectory executor.

Three property families:

* **helpers** -- the batch-invariant row reduction, ``abs2`` and the
  per-thread scratch pool;
* **diagonal steps** -- per-entry slices and the full-state factor are
  both *bit-identical* to a per-entry multiply (every other step shape is
  covered by ``test_kernels.py``);
* **batched shots** -- every batch size, down to ``batch_size=1`` (one
  trajectory at a time), produces bit-equal counts and memory at a fixed
  seed on 8-14 qubits (also with mid-circuit measurement, reset and wide
  gates), the backend's run equals the executor's, and a non-Pauli noise
  model is rejected with its reason.
"""

import numpy as np
import pytest

from repro.qsim import (
    BitFlipNoise,
    DepolarizingNoise,
    NoiseModel,
    PhaseFlipNoise,
    QuantumCircuit,
    StatevectorBackend,
    amplitude_damping_kraus,
    kernels,
    shotbatch,
)
from repro.qsim.backends import DensityMatrixBackend
from repro.qsim.analysis import estimate_resources
from repro.qsim.exceptions import BackendError, SimulationError
from repro.qsim.fusion import fuse_gates
from repro.qsim.instruction import Gate, UnitaryGate
from repro.qsim.simulator import StatevectorSimulator
from repro.qsim.qasm import from_qasm

from test_shotbatch_golden import (
    CIRCUITS,
    basis_free_start,
    monomial_then_h,
    phased_basis_start,
)

ATOL = 1e-12


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def random_state(num_qubits: int, rng: np.random.Generator) -> np.ndarray:
    data = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return data / np.linalg.norm(data)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    matrix = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(matrix)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def noisy_circuit(num_qubits: int, depth: int, rng: np.random.Generator) -> QuantumCircuit:
    """Random batchable circuit: named 1q/2q gates, all measurements final."""
    qc = QuantumCircuit(num_qubits, num_qubits)
    one_q = ["h", "x", "y", "z", "s", "t", "rx", "ry", "rz"]
    two_q = ["cx", "cz", "swap", "rzz"]
    params = {"rx": 1, "ry": 1, "rz": 1, "rzz": 1}
    for _ in range(depth):
        if rng.random() < 0.65:
            name = one_q[rng.integers(len(one_q))]
            targets = [int(rng.integers(num_qubits))]
        else:
            name = two_q[rng.integers(len(two_q))]
            targets = [int(q) for q in rng.choice(num_qubits, 2, replace=False)]
        angle = list(rng.uniform(0, 2 * np.pi, params.get(name, 0)))
        qc.append(Gate(name, len(targets), angle), targets)
    qc.measure_all()
    return qc


def assert_batch_sizes_bit_equal(qc, noise, shots=120, seed=31, initial_state=None, prefix=None):
    """Counts and ``memory=True`` order agree at batch sizes 1, 7 and the
    default, and the default run is labelled as the batched executor.

    *prefix* is the expected ``classical_prefix``; by default, the
    analyzer's first non-monomial instruction (a run from ``|0...0>``).
    """
    runs = [
        shotbatch.run_batched(
            qc,
            noise,
            shots=shots,
            seed=seed,
            memory=True,
            batch_size=size,
            initial_state=initial_state,
        )
        for size in (1, 7, None)
    ]
    for run in runs[1:]:
        assert run.counts == runs[0].counts
        assert run.memory == runs[0].memory
    assert sum(runs[0].counts.values()) == shots
    if prefix is None:
        first = estimate_resources(qc).first_non_monomial
        prefix = len(qc.data) if first is None else first
    assert runs[0].metadata == {
        "method": "per_shot_trajectory",
        "batch_size": 1,
        "trajectories": shots,
        "classical_prefix": prefix,
    }
    assert runs[2].metadata["method"] == "batched_shots"
    return runs[2]


# ---------------------------------------------------------------------------
# Helper contracts
# ---------------------------------------------------------------------------


class TestBatchHelpers:
    def test_row_sums_is_batch_invariant(self):
        """row_sums(x[i:i+1]) must be bit-identical to row_sums(x)[i].

        This is the reduction invariance the batched measurement collapse
        rests on: a shot's probabilities may not depend on how many other
        shots share its batch.
        """
        rng = np.random.default_rng(5)
        x = rng.normal(size=(32, 1 << 10))
        whole = shotbatch.row_sums(x)
        for i in (0, 1, 7, 31):
            row = shotbatch.row_sums(x[i : i + 1])
            assert row[0] == whole[i]

    def test_abs2(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=64) + 1j * rng.normal(size=64)
        got = shotbatch.abs2(a)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, np.real(a) ** 2 + np.imag(a) ** 2)

    def test_scratch_buffers_are_disjoint(self):
        a, b, c = kernels.scratch((4, 8), 3)
        assert a.shape == b.shape == c.shape == (4, 8)
        a[:] = 1.0
        b[:] = 2.0
        c[:] = 3.0
        assert np.all(a == 1.0) and np.all(b == 2.0) and np.all(c == 3.0)

    def test_scratch_pool_grows(self):
        (small,) = kernels.scratch((16,), 1)
        (big,) = kernels.scratch((1 << 12,), 1)
        assert big.size == 1 << 12
        assert small.size == 16


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


class TestDiagonalKernel:
    def _per_entry_reference(self, state, n, diag, targets):
        """The full-state diagonal factor, built index by index (exact)."""
        k = len(targets)
        factor = np.empty(2**n, dtype=complex)
        for i in range(2**n):
            value = 0
            for position, target in enumerate(targets):
                value |= ((i >> target) & 1) << (k - 1 - position)
            factor[i] = diag[value]
        return state * factor

    def _apply(self, state, n, diag, targets):
        """The diagonal as the batched executor lowers it; returns the state
        and the kind of step it lowered to."""
        fast = state.copy()
        step = kernels.lower(np.diag(diag), targets, n)
        kernels.apply_step(fast, step)
        return fast, step[0]

    def test_sparse_branch_is_exact(self):
        rng = np.random.default_rng(200)
        n = 8
        diag = np.ones(8, dtype=complex)
        diag[7] = np.exp(1j * 0.7)  # ccz-like: one non-unit entry
        targets = (6, 3, 1)
        state = random_state(n, rng)
        fast, kind = self._apply(state, n, diag, targets)
        assert kind == "diag"
        np.testing.assert_array_equal(
            fast, self._per_entry_reference(state, n, diag, targets)
        )

    @pytest.mark.parametrize("targets", [(6, 3, 1), (1, 3, 6), (0, 7, 4)])
    def test_dense_branch_is_exact(self, targets):
        """The full-state factor (``diag_full``) must stay bit-identical to
        per-entry multiplication for every target-axis permutation."""
        rng = np.random.default_rng(210)
        n = 8
        diag = np.exp(1j * rng.normal(size=8))  # all 8 entries non-unit
        state = random_state(n, rng)
        fast, kind = self._apply(state, n, diag, targets)
        assert kind == "diag_full"
        np.testing.assert_array_equal(
            fast, self._per_entry_reference(state, n, diag, targets)
        )

    @pytest.mark.parametrize("targets,kind", [((7, 5, 6), "diag"), ((5, 2, 0), "diag_full")])
    def test_dense_branch_threshold(self, targets, kind):
        """Four non-unit entries of eight: slices on high qubits, the full
        factor once the lowest target's runs are short; both sides of the
        choice agree bitwise with the per-entry reference."""
        rng = np.random.default_rng(220)
        n = 8
        diag = np.ones(8, dtype=complex)
        diag[:4] = np.exp(1j * rng.normal(size=4))
        state = random_state(n, rng)
        fast, lowered = self._apply(state, n, diag, targets)
        assert lowered == kind
        np.testing.assert_array_equal(
            fast, self._per_entry_reference(state, n, diag, targets)
        )


# ---------------------------------------------------------------------------
# Batched noisy shots
# ---------------------------------------------------------------------------


#: a channel with no Pauli description: only the density matrix runs it
NON_PAULI = NoiseModel(amplitude_damping_kraus(0.1))


class TestEligibility:
    def test_eligible_circuit(self):
        qc = noisy_circuit(4, 10, np.random.default_rng(0))
        assert_batch_sizes_bit_equal(qc, DepolarizingNoise(0.01))

    def test_zero_qubits(self):
        qc = QuantumCircuit(0)
        result = shotbatch.run_batched(qc, BitFlipNoise(0.1), shots=5, seed=0)
        assert result.counts == {}

    def test_non_pauli_noise(self):
        qc = noisy_circuit(3, 5, np.random.default_rng(1))
        with pytest.raises(SimulationError, match="not a single-qubit Pauli.*density_matrix"):
            shotbatch.run_batched(qc, NON_PAULI, shots=5, seed=0)

    def test_mid_circuit_measurement(self):
        qc = QuantumCircuit(2, 2)
        qc.h(0)
        qc.measure(0, 0)
        qc.x(0)
        qc.measure(1, 1)
        assert_batch_sizes_bit_equal(qc, BitFlipNoise(0.1))

    def test_reset_requires_collapse(self):
        # reset measures its qubit: the Bell partner must collapse shot by
        # shot (a sampled single collapse would give one outcome for all)
        qc = QuantumCircuit(2, 2)
        qc.h(0)
        qc.cx(0, 1)
        qc.reset(0)
        qc.measure([0, 1], [0, 1])
        assert_batch_sizes_bit_equal(qc, BitFlipNoise(0.1))
        noiseless = assert_batch_sizes_bit_equal(qc, None)
        assert set(noiseless.counts) == {"00", "10"}
        sampled = StatevectorSimulator(seed=1).run(qc, shots=120)
        assert sampled.metadata["method"] == "batched_shots"
        assert set(sampled.counts) == {"00", "10"}

    def test_fused_blocks_under_noise(self):
        qc = QuantumCircuit(3)
        for _ in range(4):
            qc.h(0)
            qc.cx(0, 1)
        fused = fuse_gates(qc)
        with pytest.raises(SimulationError, match="fused circuit under a noise model"):
            shotbatch.run_batched(fused, PhaseFlipNoise(0.1), shots=5, seed=0)
        # without noise the fused run is batchable
        assert shotbatch.run_batched(fused, None, shots=5, seed=0).shots == 5

    def test_wide_gate(self):
        n = 7
        qc = QuantumCircuit(n)
        qc.h(0)
        qc.append(UnitaryGate(random_unitary(2**n, np.random.default_rng(3))), list(range(n)))
        qc.measure_all()
        assert_batch_sizes_bit_equal(qc, BitFlipNoise(0.1), shots=40)

    def test_wide_controlled_gate(self):
        """A 7-control ``mcx`` runs batched on its control-satisfied slice
        (its base lowered with the controls pinned) and ends the basis-row
        prefix, like any gate with no basis lookup."""
        qc = QuantumCircuit(9)
        for qubit in range(7):
            qc.x(qubit)
        qc.mcx(list(range(7)), 8)
        qc.h(7)
        qc.measure_all()
        assert_batch_sizes_bit_equal(qc, BitFlipNoise(0.05), shots=40)
        clean = shotbatch.run_batched(qc, None, shots=50, seed=3)
        assert set(clean.counts) == {"101111111", "111111111"}
        assert clean.metadata["classical_prefix"] == 7


class TestBatchedExecutor:
    @pytest.mark.parametrize("batch_size", [1, 7, 64, 500])
    def test_batch_split_invariance(self, batch_size):
        """Counts and memory are bit-identical for every batch split."""
        rng = np.random.default_rng(42)
        qc = noisy_circuit(8, 40, rng)
        noise = DepolarizingNoise(0.02)
        reference = shotbatch.run_batched(qc, noise, shots=500, seed=9, memory=True, batch_size=1)
        result = shotbatch.run_batched(
            qc, noise, shots=500, seed=9, memory=True, batch_size=batch_size
        )
        assert result.counts == reference.counts
        assert result.memory == reference.memory

    def test_dense_gates_of_two_to_four_qubits_split_bit_equal(self):
        """Product steps (random 2- to 4-qubit unitaries) between noisy
        single-qubit gates and mid-circuit measurements: every split gives
        the same counts and memory."""
        rng = np.random.default_rng(17)
        qc = QuantumCircuit(7, 7)
        for layer in range(10):
            k = int(rng.integers(2, 5))
            z = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
            qc.unitary(np.linalg.qr(z)[0], [int(q) for q in rng.choice(7, k, replace=False)])
            qc.h(int(rng.integers(7)))
            if layer % 4 == 3:
                qubit = int(rng.integers(7))
                qc.measure(qubit, qubit)
        qc.measure(list(range(7)), list(range(7)))
        assert_batch_sizes_bit_equal(qc, DepolarizingNoise(0.05), shots=150)

    def test_long_measure_chain_does_not_underflow(self):
        """1100 rounds of h + measure halve the tracked norm each time; the
        power-of-two rescale keeps it representable and the outcome fair."""
        qc = QuantumCircuit(1, 1)
        for _ in range(1100):
            qc.h(0)
            qc.measure(0, 0)
        shots = 50
        result = shotbatch.run_batched(qc, None, shots=shots, seed=8)
        ones = result.counts.get("1", 0)
        assert sum(result.counts.values()) == shots
        # Binomial(50, 1/2): mean 25, sd 3.5; +-4.2 sd
        assert 10 <= ones <= 40
        single = shotbatch.run_batched(qc, None, shots=shots, seed=8, batch_size=1)
        assert single.counts == result.counts

    def test_no_measurements_gives_empty_counts(self):
        qc = QuantumCircuit(3)
        qc.h(0)
        result = shotbatch.run_batched(qc, BitFlipNoise(0.1), shots=10, seed=0)
        assert result.counts == {}

    def test_default_batch_size_is_cache_sized(self):
        # the default targets a cache-resident working set, not the memory cap
        assert shotbatch.default_batch_size(12, 2000) == 16
        assert shotbatch.default_batch_size(8, 2000) == 256
        assert shotbatch.default_batch_size(23, 64) == 1
        assert shotbatch.default_batch_size(30, 1000) == 1
        # never more rows than shots
        assert shotbatch.default_batch_size(4, 10) == 10
        big = shotbatch.default_batch_size(14, 10**6)
        assert big * (1 << 14) <= shotbatch.MAX_BATCH_AMPLITUDES

#: every touched qubit takes X or Z, never nothing: every shot errs at every
#: noise site, and the shots of one row split between two Paulis
X_OR_Z = NoiseModel.pauli(x=0.5, z=0.5)


class TestSharedPrefix:
    """The leading unitary and noise steps run once per distinct error
    pattern; every shot's outcome stays bit-identical to ``batch_size=1``."""

    SHOTS = 300  # more than one default batch at 8 qubits (256 rows)

    def check(self, qc, noise, initial_state=None):
        runs = [
            shotbatch.run_batched(
                qc,
                noise,
                shots=self.SHOTS,
                seed=13,
                memory=True,
                batch_size=size,
                initial_state=initial_state,
            )
            for size in (1, 7, None)
        ]
        for run in runs[1:]:
            assert run.counts == runs[0].counts
            assert run.memory == runs[0].memory
        return runs

    def test_row_whose_shots_all_err_with_different_paulis(self):
        # three noise sites, each splitting every row between X and Z: at
        # most 8 patterns, and the Z shots keep the row the X shots leave
        qc = QuantumCircuit(8, 8)
        qc.h(0)
        qc.cx(0, 1)
        qc.measure_all()
        runs = self.check(qc, X_OR_Z)
        # batches of 256 and 44 shots, 8 rows each
        assert runs[2].metadata["trajectories"] == 16

    def test_every_shot_errs_everywhere_identically(self):
        qc = noisy_circuit(8, 20, np.random.default_rng(5))
        runs = self.check(qc, BitFlipNoise(1.0))
        # one row per batch: every shot draws the same X at every site
        assert runs[2].metadata["trajectories"] == 2
        assert runs[0].metadata["trajectories"] == self.SHOTS

    def test_noiseless_channel_leaves_one_shared_row(self):
        qc = noisy_circuit(8, 30, np.random.default_rng(6))
        runs = self.check(qc, DepolarizingNoise(0.0))
        # one row per batch of 1, 7 and 256 shots
        assert [run.metadata["trajectories"] for run in runs] == [300, 43, 2]

    def test_initial_state_is_broadcast_into_the_shared_rows(self):
        from repro.qsim.statevector import Statevector

        qc = noisy_circuit(8, 30, np.random.default_rng(7))
        start = Statevector(random_state(8, np.random.default_rng(8)))
        runs = self.check(qc, DepolarizingNoise(0.01), initial_state=start)
        assert runs[2].metadata["trajectories"] < self.SHOTS
        # a basis state through x gates lands on one known outcome
        flips = QuantumCircuit(8)
        flips.x(0).x(3)
        flips.measure_all()
        runs = self.check(flips, DepolarizingNoise(0.0), Statevector.from_int(0b10000010, 8))
        assert runs[2].counts == {"10001011": self.SHOTS}

    def test_wide_gate_ends_the_prefix(self):
        n = 8
        qc = QuantumCircuit(n, n)
        qc.h(0).cx(0, 1).rx(0.3, 2)
        qc.append(
            UnitaryGate(random_unitary(2**7, np.random.default_rng(9))), list(range(7))
        )
        qc.cx(6, 7).h(3)
        qc.measure_all()
        runs = self.check(qc, DepolarizingNoise(0.05))
        assert runs[2].metadata["trajectories"] < self.SHOTS

    def test_initialize_ends_the_prefix(self):
        qc = QuantumCircuit(8, 8)
        qc.h(0).cx(0, 1).ry(0.4, 2)
        qc.initialize(random_state(2, np.random.default_rng(10)), [5, 6])
        qc.cx(5, 0).h(6)
        qc.measure_all()
        runs = self.check(qc, DepolarizingNoise(0.05))
        assert runs[2].metadata["trajectories"] < self.SHOTS


class TestClassicalPrefix:
    """The plan's leading monomial steps run on basis rows (an index and a
    phase per shot) and expand into amplitude rows at the first step that is
    not monomial; every outcome stays bit-identical across batch sizes (and,
    by the golden digests, to plain amplitude rows)."""

    @pytest.mark.parametrize("name", ["qec_cond_n5", "qec_repetition_n5"])
    @pytest.mark.parametrize("p", [0.02, 0.3])
    def test_monomial_end_to_end_with_conditions_and_resets(self, name, p, monkeypatch):
        qc = from_qasm((CIRCUITS / f"{name}.qasm").read_text(encoding="utf-8"))
        run = assert_batch_sizes_bit_equal(qc, DepolarizingNoise(p), shots=300)
        assert run.metadata["classical_prefix"] == len(qc.data)
        assert run.metadata["trajectories"] == 300

        # no amplitude row is ever allocated: only _run_amplitudes makes them
        def no_amplitudes(*args, **kwargs):
            raise AssertionError("amplitude rows allocated")

        monkeypatch.setattr(shotbatch, "_run_amplitudes", no_amplitudes)
        again = shotbatch.run_batched(
            qc, DepolarizingNoise(p), shots=300, seed=31, memory=True
        )
        assert again.memory == run.memory

    def test_prefix_ending_at_h_under_always_erring_noise(self):
        qc, noise, _ = monomial_then_h()
        run = assert_batch_sizes_bit_equal(qc, noise, shots=200)
        position = [instr.operation.name for instr in qc.data].index("h")
        assert run.metadata["classical_prefix"] == position
        # every shot errs at every site: the basis rows are (nearly) all
        # distinct, and the shared prefix starts from one row per pattern
        assert run.metadata["trajectories"] > 100

    def test_non_basis_initial_state_has_no_prefix(self):
        qc, noise, start = basis_free_start()
        assert estimate_resources(qc).first_non_monomial is None
        assert_batch_sizes_bit_equal(qc, noise, initial_state=start, prefix=0)

    def test_phased_basis_initial_state_runs_the_prefix(self):
        qc, noise, start = phased_basis_start()
        assert_batch_sizes_bit_equal(qc, noise, initial_state=start)

    def test_gates_collapse_and_reset_on_basis_rows(self):
        # q0 reads 1 and is reset to 0; the phased |1> on q1 (from y) still
        # flips q2 through the cx
        qc = QuantumCircuit(3, 3)
        qc.x(0).y(1).measure(0, 0).reset(0).cx(1, 2).measure(2, 2)
        qc.measure(0, 1)
        result = shotbatch.run_batched(qc, None, shots=50, seed=1)
        assert result.counts == {"101": 50}
        assert result.metadata["classical_prefix"] == len(qc.data)


class TestBatchSizes:
    """The backend's batched run equals the executor one trajectory at a
    time (``batch_size=1``), bit for bit, at the same seed."""

    @pytest.mark.parametrize("num_qubits,shots", [(8, 400), (10, 300), (12, 200), (14, 100)])
    def test_batched_and_per_shot_counts_bit_equal(self, num_qubits, shots):
        """Same seed, same counts and memory, 8-14 qubits."""
        rng = np.random.default_rng(1000 + num_qubits)
        qc = noisy_circuit(num_qubits, 3 * num_qubits, rng)
        noise = DepolarizingNoise(0.02)
        backend = StatevectorBackend(noise_model=noise)
        batched = backend.run(qc, shots=shots, seed=77, memory=True).result()[0]
        per_shot = shotbatch.run_batched(qc, noise, shots, seed=77, memory=True, batch_size=1)
        assert batched.counts == per_shot.counts
        assert batched.memory == per_shot.memory
        assert batched.metadata["method"] == "batched_shots"
        assert per_shot.metadata["method"] == "per_shot_trajectory"
        assert batched.metadata["batch_size"] > 1
        assert per_shot.metadata["batch_size"] == 1

    @pytest.mark.parametrize("noise_cls", [BitFlipNoise, PhaseFlipNoise, DepolarizingNoise])
    def test_every_pauli_channel(self, noise_cls):
        qc = noisy_circuit(8, 24, np.random.default_rng(55))
        backend = StatevectorBackend(noise_model=noise_cls(0.05))
        batched = backend.run(qc, shots=300, seed=5).result().get_counts()
        per_shot = shotbatch.run_batched(qc, noise_cls(0.05), 300, seed=5, batch_size=1)
        assert batched == per_shot.counts

    def test_noise_runs_batched(self):
        qc = noisy_circuit(6, 12, np.random.default_rng(60))
        backend = StatevectorBackend(noise_model=BitFlipNoise(0.05))
        result = backend.run(qc, shots=100, seed=1).result()
        assert result[0].metadata["method"] == "batched_shots"

    def test_mid_circuit_runs_batched(self):
        qc = QuantumCircuit(2, 2)
        qc.h(0)
        qc.measure(0, 0)
        qc.x(0)
        qc.measure(1, 1)
        backend = StatevectorBackend(noise_model=BitFlipNoise(0.05))
        result = backend.run(qc, shots=50, seed=2).result()
        assert sum(result.get_counts().values()) == 50
        assert result[0].metadata == {
            "method": "batched_shots",
            "batch_size": 50,
            "trajectories": 50,
            "classical_prefix": 0,
        }

    def test_non_pauli_noise_rejected(self):
        qc = QuantumCircuit(2, 2)
        qc.h(0)
        qc.measure(0, 0)
        qc.x(0)
        qc.measure(1, 1)
        backend = StatevectorBackend(noise_model=NON_PAULI)
        job = backend.run(qc, shots=50, seed=2)
        with pytest.raises(BackendError, match="not a single-qubit Pauli.*density_matrix"):
            job.result()

    def test_noiseless_runs_stay_on_sampled_path(self):
        """Without a noise model the trajectory executor never engages."""
        qc = noisy_circuit(5, 10, np.random.default_rng(70))
        result = StatevectorBackend().run(qc, shots=200, seed=4).result()
        assert sum(result.get_counts().values()) == 200
        assert result[0].metadata.get("method") not in (
            "batched_shots",
            "per_shot_trajectory",
        )


# ---------------------------------------------------------------------------
# Backend.run is keyword-only (API satellite)
# ---------------------------------------------------------------------------


class TestRunSignature:
    @pytest.mark.parametrize("backend_cls", [StatevectorBackend, DensityMatrixBackend])
    def test_positional_options_rejected(self, backend_cls):
        qc = QuantumCircuit(1, 1)
        qc.h(0)
        qc.measure(0, 0)
        backend = backend_cls(seed=0)
        with pytest.raises(TypeError, match="keywords"):
            backend.run(qc, 100)

    def test_error_names_the_fix(self):
        qc = QuantumCircuit(1, 1)
        qc.measure(0, 0)
        with pytest.raises(TypeError, match=r"run\(circuit, shots=2000, seed=7\)"):
            StatevectorBackend(seed=0).run(qc, 128, 7)

    def test_keyword_form_works_everywhere(self):
        qc = QuantumCircuit(2, 2)
        qc.h(0)
        qc.cx(0, 1)
        qc.measure_all()
        for backend in (StatevectorBackend(seed=1), DensityMatrixBackend(seed=1)):
            counts = backend.run(qc, shots=64, seed=3, memory=False).result().get_counts()
            assert sum(counts.values()) == 64

    def test_shot_workers_keyword_is_forwarded(self):
        # no longer a Backend.run parameter: like any unknown option,
        # Backend.run rejects it by name
        qc = QuantumCircuit(2, 2)
        qc.h(0)
        qc.measure(0, 0)
        qc.x(1)
        qc.measure(1, 1)
        with pytest.raises(BackendError, match="unknown run options.*shot_workers"):
            StatevectorBackend(seed=5).run(qc, shots=64, seed=11, shot_workers=2).result()
