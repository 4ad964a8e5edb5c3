"""Density-matrix engine: kernel-path evolution and shot-weighted branching.

Two properties pin the engine down:

* its evolution of ``rho`` through the shared gate kernels equals a
  reference built here from ``np.kron``-embedded operators, for random
  1-3-qubit gates (controlled, swap, explicit unitaries) and Kraus noise;
* its one run path -- a depth-first walk over shot-weighted branches --
  splits only where a measurement is not deferred, keeps deterministic
  feed-forward on one branch, and reproduces the statevector engine's
  distributions.
"""

from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.qsim import QuantumCircuit, from_qasm
from repro.qsim.backends import build_noisy_backend, get_backend
from repro.qsim.density import (
    DensityMatrix,
    DensityMatrixSimulator,
    _Populations,
    _zero_state,
    deferred_measurements,
)
from repro.qsim.instruction import Gate, UnitaryGate, mcx_gate
from repro.qsim.noise import DepolarizingNoise, NoiseModel, amplitude_damping_kraus

CIRCUITS = Path(__file__).resolve().parents[2] / "benchmarks" / "circuits"

#: (name, arity, parameter count) of the registry gates drawn at random
GATE_POOL = [
    ("h", 1, 0), ("x", 1, 0), ("y", 1, 0), ("s", 1, 0), ("t", 1, 0), ("sx", 1, 0),
    ("rx", 1, 1), ("ry", 1, 1), ("rz", 1, 1), ("u3", 1, 3),
    ("cx", 2, 0), ("cy", 2, 0), ("cz", 2, 0), ("ch", 2, 0), ("crx", 2, 1), ("cp", 2, 1),
    ("swap", 2, 0), ("iswap", 2, 0), ("rzz", 2, 1), ("rxx", 2, 1), ("ccx", 3, 0),
]


def tvd(counts_a, counts_b):
    """Total variation distance between two count histograms."""
    total_a = sum(counts_a.values())
    total_b = sum(counts_b.values())
    return 0.5 * sum(
        abs(counts_a.get(k, 0) / total_a - counts_b.get(k, 0) / total_b)
        for k in set(counts_a) | set(counts_b)
    )


def tvd_gate(outcomes, shots):
    """Allowed TVD of two samples of one distribution (as in bench_qasm.py)."""
    return min(0.5, 0.02 + 1.3 * np.sqrt(outcomes / shots))


def corpus(name):
    return from_qasm((CIRCUITS / f"{name}.qasm").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# kernel-path evolution against a kron-built reference
# ---------------------------------------------------------------------------


def embed(matrix, targets, num_qubits):
    """The ``2^n x 2^n`` operator of *matrix* on *targets* (targets[0] = MSB)."""
    k = len(targets)
    rest = [q for q in reversed(range(num_qubits)) if q not in targets]
    order = list(targets) + rest  # qubit on each tensor axis of the kron product
    full = np.kron(matrix, np.eye(2 ** (num_qubits - k))).reshape((2,) * (2 * num_qubits))
    axes = [order.index(q) for q in reversed(range(num_qubits))]
    full = full.transpose(axes + [num_qubits + a for a in axes])
    return full.reshape(2**num_qubits, 2**num_qubits)


def random_unitary(rng, num_qubits):
    dim = 2**num_qubits
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_circuit(seed, num_qubits=4, num_gates=30):
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(num_qubits)
    for _ in range(num_gates):
        kind = rng.integers(4)
        if kind == 0:
            arity = int(rng.integers(1, 4))
            operation = UnitaryGate(random_unitary(rng, arity))
        elif kind == 1:
            operation = [mcx_gate(2), Gate("swap", 2).control(1), Gate("h", 1).control(2)][
                rng.integers(3)
            ]
        else:
            name, arity, num_params = GATE_POOL[rng.integers(len(GATE_POOL))]
            operation = Gate(name, arity, list(rng.uniform(0, 2 * np.pi, num_params)))
        targets = [int(q) for q in rng.choice(num_qubits, operation.num_qubits, replace=False)]
        circuit.append(operation, targets)
    return circuit


def reference_evolution(circuit, kraus):
    """rho after *circuit*, each gate followed by the single-qubit *kraus*
    channel on every qubit it touched."""
    n = circuit.num_qubits
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    for instr in circuit.data:
        targets = [circuit.qubit_index(q) for q in instr.qubits]
        full = embed(instr.operation.to_matrix(), targets, n)
        rho = full @ rho @ full.conj().T
        for qubit in targets if kraus else []:
            terms = [embed(k, [qubit], n) for k in kraus]
            rho = sum(term @ rho @ term.conj().T for term in terms)
    return rho


class TestKernelEvolution:
    def test_embed_matches_statevector_convention(self):
        # the reference itself: cx with control 2, target 0 on |100> -> |101>
        cx = embed(Gate("cx", 2).to_matrix(), [2, 0], 3)
        assert cx[0b101, 0b100] == 1 and cx[0b001, 0b001] == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_noiseless_matches_kron_reference(self, seed):
        circuit = random_circuit(seed)
        got = DensityMatrixSimulator(seed=0).evolve(circuit).data
        assert np.abs(got - reference_evolution(circuit, [])).max() < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "model", [NoiseModel(amplitude_damping_kraus(0.1)), DepolarizingNoise(0.05)],
        ids=["amplitude_damping", "depolarizing"],
    )
    def test_kraus_noise_matches_kron_reference(self, seed, model):
        circuit = random_circuit(100 + seed, num_qubits=3, num_gates=20)
        got = DensityMatrixSimulator(seed=0, noise_model=model).evolve(circuit).data
        assert np.abs(got - reference_evolution(circuit, model.kraus)).max() < 1e-12

    def test_two_qubit_kraus_matches_kron_reference(self):
        rng = np.random.default_rng(5)
        dm = DensityMatrix(np.eye(8, dtype=complex) / 8, validate=False)
        dm.apply_unitary(random_unitary(rng, 3), [0, 1, 2])
        unitaries = [random_unitary(rng, 2) for _ in range(3)]
        kraus = [u / np.sqrt(3) for u in unitaries]
        expected = sum(embed(k, [2, 0], 3) @ dm.data @ embed(k, [2, 0], 3).conj().T for k in kraus)
        dm.apply_kraus(kraus, [2, 0])
        assert np.abs(dm.data - expected).max() < 1e-12

    def test_evolution_never_writes_into_the_callers_array(self):
        data = np.asfortranarray(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
        dm = DensityMatrix(data, validate=False)
        dm.apply_unitary(Gate("h", 1).to_matrix(), [0])
        assert data[0, 0] == 1.0 and dm.data[0, 1] == pytest.approx(0.5)

    def test_reset_is_the_exact_channel(self):
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1).reset(0)
        dm = DensityMatrixSimulator(seed=0).evolve(qc)
        # |0><0| on the reset qubit, its Bell partner left maximally mixed
        assert np.allclose(dm.probabilities([0, 1]), [0.5, 0.0, 0.5, 0.0])
        assert dm.purity() == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# population path: a diagonal rho carried as its diagonal
# ---------------------------------------------------------------------------

#: (name, arity, parameter count) of monomial registry gates
MONOMIAL_POOL = [
    ("x", 1, 0), ("y", 1, 0), ("z", 1, 0), ("s", 1, 0), ("t", 1, 0), ("rz", 1, 1),
    ("cx", 2, 0), ("cy", 2, 0), ("cz", 2, 0), ("cp", 2, 1), ("swap", 2, 0),
    ("iswap", 2, 0), ("ccx", 3, 0), ("cswap", 3, 0),
]


def random_monomial_circuit(seed, num_qubits=4, num_gates=25, measure=True):
    """Monomial gates with resets and (with *measure*) mid-circuit
    measurements, each into its own clbit so a leaf's bits name its whole
    branch."""
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(num_qubits, num_gates)
    clbit = 0
    for _ in range(num_gates):
        roll = rng.random()
        qubit = int(rng.integers(num_qubits))
        if roll < 0.15 and measure:
            circuit.measure(qubit, clbit)
            clbit += 1
        elif roll < 0.25:
            circuit.reset(qubit)
        else:
            name, arity, num_params = MONOMIAL_POOL[rng.integers(len(MONOMIAL_POOL))]
            targets = [int(q) for q in rng.choice(num_qubits, arity, replace=False)]
            circuit.append(Gate(name, arity, list(rng.uniform(0, 2 * np.pi, num_params))), targets)
    return circuit


def reference_branch(circuit, kraus, bits):
    """:func:`reference_evolution` along one branch: each measurement
    projects onto its outcome in *bits* (renormalised), a reset is the
    exact channel."""
    n = circuit.num_qubits
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    for instr in circuit.data:
        targets = [circuit.qubit_index(q) for q in instr.qubits]
        op = instr.operation
        if op.name == "measure":
            keep = embed(p1 if bits[circuit.clbit_index(instr.clbits[0])] else p0, targets, n)
            rho = keep @ rho @ keep
            rho /= np.trace(rho).real
            continue
        if op.name == "reset":
            terms = [embed(p0, targets, n), embed(np.array([[0, 1], [0, 0]]), targets, n)]
        else:
            terms = [embed(op.to_matrix(), targets, n)]
        rho = sum(term @ rho @ term.conj().T for term in terms)
        for qubit in targets if op.is_unitary and kraus else []:
            noise = [embed(k, [qubit], n) for k in kraus]
            rho = sum(term @ rho @ term.conj().T for term in noise)
    return rho


class TestPopulationPath:
    """While every instruction is monomial the walk carries ``diag(rho)``
    only; each leaf must equal the kron-built reference along its branch."""

    #: monomial channels: amplitude damping, and a Z-or-X Pauli channel
    #: given by Kraus operators alone
    CHANNELS = {
        "amplitude_damping": NoiseModel(amplitude_damping_kraus(0.2)),
        "z_or_x": NoiseModel([
            np.sqrt(0.9) * np.eye(2),
            np.sqrt(0.05) * np.diag([1, -1]),
            np.sqrt(0.05) * np.array([[0, 1], [1, 0]]),
        ]),
    }

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("channel", sorted(CHANNELS))
    def test_leaves_match_kron_reference(self, seed, channel):
        model = self.CHANNELS[channel]
        circuit = random_monomial_circuit(seed)
        sim = DensityMatrixSimulator(seed=0, noise_model=model)
        prefix, sources = sim._lower(circuit)
        assert prefix == len(circuit.data)
        start = _zero_state(circuit.num_qubits, prefix)
        leaves = list(sim._walk(circuit, 400, np.random.default_rng(seed), set(), start, prefix, sources))
        assert sum(count for _, count, _ in leaves) == 400
        for bits, _, state in leaves:
            assert isinstance(state, _Populations)
            reference = reference_branch(circuit, model.kraus, bits)
            # the reference stays diagonal, and its diagonal is the populations
            assert np.abs(reference - np.diag(np.diagonal(reference))).max() < 1e-12
            assert np.abs(state.probs - np.diagonal(reference).real).max() < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("channel", sorted(CHANNELS))
    def test_expansion_matches_kron_reference(self, seed, channel):
        model = self.CHANNELS[channel]
        # a monomial prefix, then gates that leave the basis: evolve expands
        # the populations to diag(p) and continues on the full rho
        circuit = random_monomial_circuit(seed, num_qubits=3, num_gates=12, measure=False)
        tail = random_circuit(50 + seed, num_qubits=3, num_gates=8)
        for instr in tail.data:
            circuit.append(instr.operation, [tail.qubit_index(q) for q in instr.qubits])
        sim = DensityMatrixSimulator(seed=0, noise_model=model)
        assert 12 <= sim._lower(circuit)[0] < len(circuit.data)
        got = sim.evolve(circuit).data
        assert np.abs(got - reference_branch(circuit, model.kraus, {})).max() < 1e-12

    def test_non_monomial_channel_ends_the_prefix_at_the_first_gate(self):
        hadamard_noise = NoiseModel(
            [np.sqrt(0.9) * np.eye(2), np.sqrt(0.1) * Gate("h", 1).to_matrix()]
        )
        circuit = QuantumCircuit(2, 2)
        circuit.barrier()
        circuit.x(0).cx(0, 1)
        circuit.measure([0, 1], [0, 1])
        assert DensityMatrixSimulator(seed=1).run(circuit, shots=10).metadata == {
            "method": "sampled",
            "classical_prefix": len(circuit.data),
        }
        noisy = DensityMatrixSimulator(seed=1, noise_model=hadamard_noise)
        assert noisy.run(circuit, shots=10).metadata["classical_prefix"] == 1

    def test_adder_population_run_matches_the_full_rho(self):
        # the same walk forced onto the full rho from the start draws the
        # same binomials and multinomial: counts agree exactly
        circuit = corpus("adder_n10")
        noise = DepolarizingNoise(0.01)
        sim = DensityMatrixSimulator(seed=7, noise_model=noise)
        populations = sim.run(circuit, shots=2000)
        assert populations.metadata["classical_prefix"] == len(circuit.data)
        full = DensityMatrixSimulator(seed=7, noise_model=noise)
        full._lower = lambda circuit: (0, [])
        reference = full.run(circuit, shots=2000)
        assert reference.metadata["classical_prefix"] == 0
        assert populations.counts == reference.counts
        assert np.abs(
            populations.density_matrix.data - reference.density_matrix.data
        ).max() < 1e-12


# ---------------------------------------------------------------------------
# shot-weighted branching
# ---------------------------------------------------------------------------


def independent_measurements(k):
    """k qubits in |+>, each measured mid-circuit (a reset follows)."""
    qc = QuantumCircuit(k, k)
    for qubit in range(k):
        qc.h(qubit)
        qc.measure(qubit, qubit)
        qc.reset(qubit)
    return qc


class TestBranching:
    def test_deferral_rule(self):
        qc = QuantumCircuit(2, 2)
        qc.h(0)
        qc.measure(0, 0)       # a condition follows: not deferred
        qc.x(0).c_if(qc.cregs[0], 1)
        qc.measure(0, 0)       # nothing later touches q0 or c0: deferred
        qc.measure(1, 1)
        assert deferred_measurements(qc) == {3, 4}
        qc.x(1)
        assert deferred_measurements(qc) == {3}  # q1 is touched again
        clobber = QuantumCircuit(2, 1)
        clobber.measure(0, 0)  # its clbit is written again: not deferred
        clobber.measure(1, 0)
        assert deferred_measurements(clobber) == {1}

    @pytest.mark.parametrize("name", ["qec_cond_n5", "qec_repetition_n5"])
    def test_deterministic_feed_forward_is_one_branch(self, name):
        circuit = corpus(name)
        result = get_backend("density_matrix").run(circuit, shots=500, seed=3).result()[0]
        # monomial end to end: the whole walk runs on populations
        assert result.metadata == {
            "method": "branched",
            "branches": 1,
            "classical_prefix": len(circuit.data),
        }
        assert result.counts == {"11111": 500}
        assert result.density_matrix is not None

    def test_final_measurements_are_sampled(self):
        backend = get_backend("density_matrix")
        result = backend.run(corpus("teleport_n3"), shots=100, seed=1).result()[0]
        assert result.metadata == {"method": "sampled", "classical_prefix": 1}  # x, then h

    @pytest.mark.parametrize("k,shots", [(2, 1), (3, 5), (3, 4000), (6, 40)])
    def test_independent_measurements_bound_the_branches(self, k, shots):
        sim = DensityMatrixSimulator(seed=11)
        result = sim.run(independent_measurements(k), shots=shots, memory=True)
        assert 1 <= result.metadata["branches"] <= min(shots, 2**k)
        assert sum(result.counts.values()) == shots
        assert Counter(result.memory) == Counter(result.counts)
        if shots >= 1000:
            uniform = {format(v, f"0{k}b"): shots / 2**k for v in range(2**k)}
            assert tvd(result.counts, uniform) < tvd_gate(2**k, shots)

    def test_same_seed_same_counts_and_memory(self):
        circuit = corpus("teleport_cond_n3")
        first = DensityMatrixSimulator(seed=9).run(circuit, shots=300, memory=True)
        second = DensityMatrixSimulator(seed=9).run(circuit, shots=300, memory=True)
        assert first.counts == second.counts
        assert first.memory == second.memory

    def test_reset_of_plus_state_keeps_one_branch(self):
        qc = QuantumCircuit(1, 2)
        qc.h(0).reset(0)
        qc.measure(0, 0)  # reads 0 on every shot; the x after it forces a split check
        qc.x(0)
        qc.measure(0, 1)
        result = DensityMatrixSimulator(seed=2).run(qc, shots=200)
        assert result.metadata == {"method": "branched", "branches": 1, "classical_prefix": 0}
        assert result.counts == {"10": 200}

    def test_noisy_feed_forward_matches_statevector_trajectories(self):
        circuit = corpus("teleport_cond_n3")
        shots = 2000
        counts = {
            name: build_noisy_backend(name, 0.05, "depolarizing", seed=4)
            .run(circuit, shots=shots)
            .result()
            .get_counts()
            for name in ("statevector", "density_matrix")
        }
        outcomes = len(set(counts["statevector"]) | set(counts["density_matrix"]))
        assert tvd(counts["statevector"], counts["density_matrix"]) < tvd_gate(outcomes, shots)
