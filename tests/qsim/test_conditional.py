"""Classical control flow: cross-engine conditional execution tests.

The ``condition=(creg, value)`` field must mean the same thing on every
engine: the instruction executes in a shot iff the little-endian integer
over the register's bits (unmeasured bits read 0) equals ``value``.  These
tests pin that down three ways:

* exact outcome sets on the density-matrix engine, whose shot-weighted
  branching samples each branch's exact distribution, and the same sets on
  the statevector's batched trajectory executor and the stabilizer's
  symbolic feed-forward; distributional (TVD) agreement of both with the
  density-matrix engine as the oracle (random circuits with conditions,
  resets and Pauli noise);
* statistical (TVD) agreement between *active* teleportation (measure +
  conditioned corrections) and its deferred-measurement rewrite;
* batch entries re-run alone with ``seed + i``, and every executor batch
  size, staying bit-for-bit equal.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from repro.qsim import QuantumCircuit
from repro.qsim.backends import StatevectorBackend, get_backend
from repro.qsim.circuit import CircuitError
from repro.qsim.density import DensityMatrixSimulator
from repro.qsim.exceptions import SimulationError
from repro.qsim.fusion import fuse_gates
from repro.qsim.instruction import Initialize, UnitaryGate
from repro.qsim.noise import BitFlipNoise, DepolarizingNoise
from repro.qsim.optimizer import optimize
from repro.qsim.qasm import from_qasm, to_qasm
from repro.qsim.registers import ClassicalRegister, QuantumRegister
from repro.qsim.shotbatch import run_batched
from repro.qsim.simulator import StatevectorSimulator, measurements_are_final
from repro.qsim.stabilizer import StabilizerSimulator
from repro.qsim.transpiler import decompose

CIRCUITS = Path(__file__).resolve().parents[2] / "benchmarks" / "circuits"


def tvd(counts_a, counts_b):
    """Total variation distance between two count histograms."""
    total_a = sum(counts_a.values()) or 1
    total_b = sum(counts_b.values()) or 1
    keys = set(counts_a) | set(counts_b)
    return 0.5 * sum(
        abs(counts_a.get(k, 0) / total_a - counts_b.get(k, 0) / total_b) for k in keys
    )


def teleport_registers():
    q = QuantumRegister(3, "q")
    m0 = ClassicalRegister(1, "m0")
    m1 = ClassicalRegister(1, "m1")
    out = ClassicalRegister(1, "out")
    return q, m0, m1, out


def active_teleport(theta=0.0):
    """Teleport RY(theta)|0> from q[0] to q[2] with live corrections."""
    q, m0, m1, out = teleport_registers()
    qc = QuantumCircuit(q, m0, m1, out, name="teleport_active")
    if theta:
        qc.ry(theta, q[0])
    qc.h(q[1]).cx(q[1], q[2])
    qc.cx(q[0], q[1]).h(q[0])
    qc.measure(q[0], m0[0])
    qc.measure(q[1], m1[0])
    qc.x(q[2]).c_if(m1, 1)
    qc.z(q[2]).c_if(m0, 1)
    qc.measure(q[2], out[0])
    return qc


def deferred_teleport(theta=0.0):
    """The same teleportation with corrections deferred to controlled gates."""
    q, m0, m1, out = teleport_registers()
    qc = QuantumCircuit(q, m0, m1, out, name="teleport_deferred")
    if theta:
        qc.ry(theta, q[0])
    qc.h(q[1]).cx(q[1], q[2])
    qc.cx(q[0], q[1]).h(q[0])
    qc.cx(q[1], q[2])
    qc.cz(q[0], q[2])
    qc.measure(q[0], m0[0])
    qc.measure(q[1], m1[0])
    qc.measure(q[2], out[0])
    return qc


def conditioned_flip(value=1, size=2, execute=True):
    """Measure a known register value, then flip q[1] iff creg == *value*."""
    q = QuantumRegister(2, "q")
    c = ClassicalRegister(size, "c")
    r = ClassicalRegister(1, "r")
    qc = QuantumCircuit(q, c, r, name="conditioned_flip")
    prepared = value if execute else (value ^ 1) % (2**size)
    if prepared & 1:
        qc.x(q[0])
    qc.measure(q[0], c[0])
    qc.x(q[1]).c_if(c, value)
    qc.measure(q[1], r[0])
    return qc


class TestConditionSemantics:
    def test_condition_taken_and_not_taken(self):
        sim = StatevectorSimulator(seed=1)
        taken = sim.run(conditioned_flip(execute=True), shots=64).counts
        skipped = sim.run(conditioned_flip(execute=False), shots=64).counts
        assert all(key[0] == "1" for key in taken)     # r reads 1: flip ran
        assert all(key[0] == "0" for key in skipped)   # r reads 0: flip skipped

    def test_unmeasured_bits_read_zero(self):
        # c has 2 bits but only c[0] is measured; c == 1 must still match
        sim = StatevectorSimulator(seed=2)
        counts = sim.run(conditioned_flip(value=1, size=2), shots=32).counts
        assert all(key[0] == "1" for key in counts)

    def test_whole_register_comparison(self):
        # condition on c == 2 when only bit 0 is ever 1: never taken
        sim = StatevectorSimulator(seed=3)
        counts = sim.run(conditioned_flip(value=2, size=2, execute=True), shots=32).counts
        # prepared value is 2 & 1 == 0, so c reads 0, not 2: no flip
        assert all(key[0] == "0" for key in counts)

    def test_conditioned_circuit_forces_per_shot(self):
        assert not measurements_are_final(active_teleport())
        # the deferred rewrite has only-final measurements and no conditions,
        # so it keeps the sampled fast path
        assert measurements_are_final(deferred_teleport())

    def test_shotbatch_accepts_conditionals(self):
        circuit = active_teleport(theta=0.7)
        runs = [
            run_batched(circuit, None, shots=150, seed=4, memory=True, batch_size=size)
            for size in (1, 7, None)
        ]
        for run in runs[1:]:
            assert run.counts == runs[0].counts
            assert run.memory == runs[0].memory
        assert runs[2].metadata == {
            "method": "batched_shots",
            "batch_size": 150,
            "trajectories": 150,
            "classical_prefix": 0,
        }

    def test_evolve_without_collapse_raises(self):
        message = "cannot evolve a classically-conditioned circuit"
        with pytest.raises(SimulationError, match=message):
            StatevectorSimulator(seed=0).evolve(active_teleport())
        with pytest.raises(SimulationError, match=message):
            StabilizerSimulator(seed=0).evolve(active_teleport())

    def test_inverse_rejected(self):
        with pytest.raises(CircuitError, match="cannot invert"):
            active_teleport().inverse()


class TestConditionValidation:
    def test_condition_value_out_of_range(self):
        q = QuantumRegister(1, "q")
        c = ClassicalRegister(2, "c")
        qc = QuantumCircuit(q, c)
        qc.x(q[0])
        with pytest.raises(CircuitError, match="does not fit"):
            qc.c_if(c, 4)
        with pytest.raises(CircuitError, match="does not fit"):
            qc.c_if(c, -1)

    def test_condition_on_foreign_register(self):
        q = QuantumRegister(1, "q")
        qc = QuantumCircuit(q, ClassicalRegister(1, "c"))
        other = ClassicalRegister(1, "other")
        qc.x(q[0])
        with pytest.raises(CircuitError, match="not in this circuit"):
            qc.c_if(other, 1)

    def test_condition_on_barrier_rejected(self):
        q = QuantumRegister(2, "q")
        c = ClassicalRegister(1, "c")
        qc = QuantumCircuit(q, c)
        qc.barrier()
        with pytest.raises(CircuitError, match="barrier"):
            qc.c_if(c, 1)

    def test_copy_and_compose_propagate_conditions(self):
        qc = active_teleport()
        assert qc.copy().has_conditions()
        target = QuantumCircuit(*qc.qregs, *qc.cregs, name="host")
        target.compose(qc)
        assert target.has_conditions()


def corpus(name):
    return from_qasm((CIRCUITS / f"{name}.qasm").read_text(encoding="utf-8"))


class TestCrossEngineAgreement:
    """The three engines share shot semantics: same outcomes, same distribution."""

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_density_exact_outcome_sets(self, seed):
        sim = DensityMatrixSimulator(seed=seed)
        teleport = sim.run(corpus("teleport_cond_n3"), shots=200).counts
        assert teleport and all(key[0] == "1" for key in teleport)  # out bit always 1
        assert sim.run(corpus("qec_cond_n5"), shots=200).counts == {"11111": 200}
        ghz = sim.run(corpus("ghz_cond_n4"), shots=200).counts
        assert set(ghz) <= {"0000", "1111"} and sum(ghz.values()) == 200

    def test_statevector_vs_density_distribution(self):
        circuit = active_teleport()
        sv = StatevectorSimulator(seed=7).run(circuit, shots=3000)
        dm = DensityMatrixSimulator(seed=7).run(circuit, shots=3000)
        assert set(sv.counts) == set(dm.counts)
        assert tvd(sv.counts, dm.counts) < 0.06

    def test_statevector_vs_stabilizer_distribution(self):
        # the stabilizer samples every shot from its symbolic phase frame
        # (conditioned Paulis included), drawing only the genuinely random
        # columns, so agreement is distributional, not bit-for-bit: same
        # circuit, same outcome set, TVD-close counts
        circuit = active_teleport()
        sv = StatevectorSimulator(seed=7).run(circuit, shots=3000)
        st = StabilizerSimulator(seed=7).run(circuit, shots=3000)
        assert set(sv.counts) == set(st.counts)
        assert tvd(sv.counts, st.counts) < 0.06

    def test_stabilizer_runs_conditionals_via_concrete_fallback(self):
        # the conditioned x/z corrections run symbolically; teleportation
        # output must be |0> when theta=0: out bit always 0
        result = StabilizerSimulator(seed=5).run(active_teleport(), shots=300)
        assert result.metadata == {"method": "stabilizer"}
        assert all(key[0] == "0" for key in result.counts)

    def test_noisy_stabilizer_conditionals_still_run(self):
        from repro.qsim.noise import DepolarizingNoise

        result = StabilizerSimulator(seed=5, noise_model=DepolarizingNoise(0.05)).run(
            active_teleport(), shots=100
        )
        assert sum(result.counts.values()) == 100

    def test_active_matches_deferred_exactly_for_clifford_input(self):
        # theta=0 teleports |0>: both variants give out=0 deterministically,
        # and the m0/m1 marginals are uniform; compare full distributions
        active = StatevectorSimulator(seed=11).run(active_teleport(), shots=2000)
        deferred = StatevectorSimulator(seed=11).run(deferred_teleport(), shots=2000)
        assert tvd(active.counts, deferred.counts) < 0.08


ENGINES = {
    "statevector": StatevectorSimulator,
    "density_matrix": DensityMatrixSimulator,
    "stabilizer": StabilizerSimulator,
}


class TestEveryShotIsCounted:
    """Every engine counts every shot, whichever measurements a shot ran:
    a clbit never written reads 0, and counts iterate in ascending register
    value."""

    NEVER_FIRES = (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\ncreg c[1];\n'
        "if(c==1) measure q[0] -> c[0];\n"
    )

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize("shots", [1, 100])
    def test_never_firing_conditioned_measurement(self, engine, shots):
        result = ENGINES[engine](seed=3).run(from_qasm(self.NEVER_FIRES), shots=shots, memory=True)
        assert result.counts == {"0": shots}
        assert result.memory == ["0"] * shots

    #: circuit -> the outcomes every engine must return, and only those
    SUPPORT = {
        "never_fires": (NEVER_FIRES, {"0"}),
        # the second measurement reads the collapsed qubit: both bits agree
        "double_final_measure": (
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\ncreg c[2];\n'
            "h q[0];\nmeasure q[0] -> c[0];\nmeasure q[0] -> c[1];\n",
            {"00", "11"},
        ),
    }

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize("case", sorted(SUPPORT))
    def test_support(self, engine, case):
        source, support = self.SUPPORT[case]
        result = ENGINES[engine](seed=3).run(from_qasm(source), shots=200, memory=True)
        assert set(result.counts) == support
        assert sum(result.counts.values()) == 200 and len(result.memory) == 200

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_branched_measurement_counts_every_shot(self, engine):
        c = ClassicalRegister(2, "c")
        qc = QuantumCircuit(QuantumRegister(2, "q"), c)
        qc.h(0)
        qc.measure(0, c[0])
        qc.h(1)
        qc.measure(1, c[1]).c_if(c, 1)
        result = ENGINES[engine](seed=5).run(qc, shots=400, memory=True)
        assert sum(result.counts.values()) == 400 and len(result.memory) == 400
        assert set(result.counts) == {"00", "01", "11"}
        assert {key: result.memory.count(key) for key in result.counts} == result.counts
        assert list(result.counts) == sorted(result.counts)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_final_counts_iterate_in_ascending_register_value(self, engine):
        qc = QuantumCircuit(3, 3)
        qc.h(0).h(1).h(2)
        qc.measure([2, 1, 0], [2, 1, 0])  # clbit 2 is the first measured
        counts = ENGINES[engine](seed=9).run(qc, shots=500).counts
        assert len(counts) == 8 and list(counts) == sorted(counts)


FEEDFORWARD_FILES = ("teleport_cond_n3", "ghz_cond_n4", "qec_cond_n5", "qec_repetition_n5")


def random_feedforward_circuit(rng, num_qubits=3):
    """Random 1q/2q gates interleaved with mid-circuit measurements, resets
    and gates conditioned on a 2-bit register, plus a final measure."""
    q = QuantumRegister(num_qubits, "q")
    c = ClassicalRegister(2, "c")
    out = ClassicalRegister(num_qubits, "out")
    qc = QuantumCircuit(q, c, out, name="random_feedforward")
    one_q = ["h", "x", "s", "t", "ry"]
    two_q = ["cx", "cz", "swap"]
    for _ in range(14):
        kind = rng.random()
        qubit = int(rng.integers(num_qubits))
        if kind < 0.15:
            qc.measure(q[qubit], c[int(rng.integers(2))])
        elif kind < 0.22:
            qc.reset(q[qubit])
        elif kind < 0.62:
            name = one_q[int(rng.integers(len(one_q)))]
            if name == "ry":
                qc.ry(float(rng.uniform(0, np.pi)), q[qubit])
            else:
                getattr(qc, name)(q[qubit])
        else:
            a, b = (int(x) for x in rng.choice(num_qubits, 2, replace=False))
            getattr(qc, two_q[int(rng.integers(len(two_q)))])(q[a], q[b])
        if rng.random() < 0.3 and qc.data[-1].operation.name != "barrier":
            qc.c_if(c, int(rng.integers(4)))
    qc.measure(q, out)
    return qc


def random_clifford_feedforward_circuit(rng, num_qubits=3):
    """Random Clifford gates interleaved with mid-circuit measurements,
    resets and Paulis conditioned on a 2-bit register, ending in one more
    measured-and-conditioned step and a final measure."""
    q = QuantumRegister(num_qubits, "q")
    c = ClassicalRegister(2, "c")
    out = ClassicalRegister(num_qubits, "out")
    qc = QuantumCircuit(q, c, out, name="random_clifford_feedforward")
    one_q = ["h", "s", "sdg", "x", "y", "z"]
    two_q = ["cx", "cz", "swap"]
    for _ in range(16):
        kind = rng.random()
        qubit = int(rng.integers(num_qubits))
        if kind < 0.15:
            qc.measure(q[qubit], c[int(rng.integers(2))])
        elif kind < 0.22:
            qc.reset(q[qubit])
        elif kind < 0.45:
            getattr(qc, ["x", "y", "z", "id"][int(rng.integers(4))])(q[qubit])
            qc.c_if(c, int(rng.integers(4)))
        elif kind < 0.75:
            getattr(qc, one_q[int(rng.integers(len(one_q)))])(q[qubit])
        else:
            a, b = (int(x) for x in rng.choice(num_qubits, 2, replace=False))
            getattr(qc, two_q[int(rng.integers(len(two_q)))])(q[a], q[b])
    qc.measure(q[0], c[1])
    qc.y(q[int(rng.integers(num_qubits))]).c_if(c, int(rng.integers(4)))
    qc.measure(q, out)
    return qc


class TestDensityMatrixOracle:
    """The statevector's batched executor and the stabilizer's symbolic
    feed-forward against the exact density matrix."""

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_statevector_exact_outcome_sets(self, seed):
        sim = StatevectorSimulator(seed=seed)
        outcomes = {name: sim.run(corpus(name), shots=200) for name in FEEDFORWARD_FILES}
        teleport = outcomes["teleport_cond_n3"].counts
        assert teleport and all(key[0] == "1" for key in teleport)  # out bit always 1
        assert outcomes["qec_cond_n5"].counts == {"11111": 200}
        assert outcomes["qec_repetition_n5"].counts == {"11111": 200}
        ghz = outcomes["ghz_cond_n4"].counts
        assert set(ghz) <= {"0000", "1111"} and sum(ghz.values()) == 200
        for result in outcomes.values():
            assert result.metadata["method"] == "batched_shots"

    @pytest.mark.parametrize("case", range(6))
    def test_random_feedforward_matches_density_matrix(self, case):
        rng = np.random.default_rng(500 + case)
        circuit = random_feedforward_circuit(rng)
        p = 0.05
        noise = DepolarizingNoise(p) if case % 2 else BitFlipNoise(p)
        shots = 3000
        sv = StatevectorSimulator(seed=case, noise_model=noise).run(circuit, shots=shots)
        dm = DensityMatrixSimulator(seed=case, noise_model=noise).run(circuit, shots=shots)
        assert sv.metadata["method"] == "batched_shots"
        assert tvd(sv.counts, dm.counts) < 0.06

    def test_skipped_gate_draws_no_noise(self):
        # c reads 0, so the conditioned id never runs: a certain bit flip
        # on it must never fire; when the condition holds it always fires
        for prepared, expected in ((False, "0"), (True, "1")):
            q = QuantumRegister(2, "q")
            c = ClassicalRegister(1, "c")
            r = ClassicalRegister(1, "r")
            qc = QuantumCircuit(q, c, r)
            if prepared:  # initialize is not a gate, so it draws no noise
                qc.append(Initialize([0, 1]), [q[0]])
            qc.measure(q[0], c[0])
            qc.id(q[1]).c_if(c, 1)
            qc.measure(q[1], r[0])
            counts = (
                StatevectorSimulator(seed=2, noise_model=BitFlipNoise(1.0))
                .run(qc, shots=64)
                .counts
            )
            assert all(key[0] == expected for key in counts), counts

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_stabilizer_exact_outcome_sets(self, seed):
        sim = StabilizerSimulator(seed=seed)
        outcomes = {name: sim.run(corpus(name), shots=200) for name in FEEDFORWARD_FILES}
        teleport = outcomes["teleport_cond_n3"].counts
        assert teleport and all(key[0] == "1" for key in teleport)  # out bit always 1
        assert outcomes["qec_cond_n5"].counts == {"11111": 200}  # if(s==3) on 2 bits
        assert outcomes["qec_repetition_n5"].counts == {"11111": 200}
        ghz = outcomes["ghz_cond_n4"].counts
        assert set(ghz) <= {"0000", "1111"} and sum(ghz.values()) == 200
        for result in outcomes.values():
            assert result.metadata == {"method": "stabilizer"}
        noisy = StabilizerSimulator(seed=seed, noise_model=DepolarizingNoise(0.01))
        for name in FEEDFORWARD_FILES:
            assert noisy.run(corpus(name), shots=50).metadata == {"method": "stabilizer_noisy"}

    @pytest.mark.parametrize("case", range(6))
    def test_random_stabilizer_feedforward_matches_density_matrix(self, case):
        rng = np.random.default_rng(700 + case)
        circuit = random_clifford_feedforward_circuit(rng)
        p = 0.05
        noise = DepolarizingNoise(p) if case % 2 else BitFlipNoise(p)
        shots = 3000
        st = StabilizerSimulator(seed=case, noise_model=noise).run(circuit, shots=shots)
        dm = DensityMatrixSimulator(seed=case, noise_model=noise).run(circuit, shots=shots)
        assert st.metadata == {"method": "stabilizer_noisy"}
        assert tvd(st.counts, dm.counts) < 0.06

    @pytest.mark.parametrize("gate", ["x", "id"])
    def test_stabilizer_skipped_gate_draws_no_noise(self, gate):
        # a certain bit flip after a conditioned Pauli fires exactly in the
        # shots where the Pauli ran: r differs from the noiseless run iff
        # the condition held
        def circuit(taken):
            q = QuantumRegister(2, "q")
            c = ClassicalRegister(1, "c")
            r = ClassicalRegister(1, "r")
            qc = QuantumCircuit(q, c, r)
            if taken:  # initialize is not a gate, so it draws no noise
                qc.append(Initialize([0, 1]), [q[0]])
            qc.measure(q[0], c[0])
            getattr(qc, gate)(q[1]).c_if(c, 1)
            qc.measure(q[1], r[0])
            return qc

        for taken in (False, True):
            clean = StabilizerSimulator(seed=2).run(circuit(taken), shots=64)
            noisy = StabilizerSimulator(seed=2, noise_model=BitFlipNoise(1.0)).run(
                circuit(taken), shots=64
            )
            assert noisy.metadata == {"method": "stabilizer_noisy"}
            (clean_key,) = clean.counts
            expected = str(int(clean_key[0]) ^ taken)
            assert noisy.counts == {expected + clean_key[1]: 64}, (taken, noisy.counts)

    def test_wide_unitary_after_mid_circuit_measurement(self):
        # a 7-qubit increment permutation |x> -> |x+1 mod 128> runs row by row
        n = 7
        increment = np.roll(np.eye(2**n, dtype=complex), 1, axis=0)
        qc = QuantumCircuit(n, n + 1)
        qc.h(0)
        qc.measure(0, n)
        qc.append(UnitaryGate(increment), list(reversed(range(n))))  # targets[0] is the MSB
        qc.measure(list(range(n)), list(range(n)))
        result = StatevectorSimulator(seed=3).run(qc, shots=100)
        assert result.metadata["method"] == "batched_shots"
        assert {key[0] for key in result.counts} == {"0", "1"}
        for key in result.counts:
            assert int(key[1:], 2) == int(key[0]) + 1

    def test_initialize_after_mid_circuit_measurement(self):
        qc = QuantumCircuit(2, 2)
        qc.h(0)
        qc.measure(0, 0)
        qc.append(Initialize([0, 1]), [1])
        qc.cx(0, 1)
        qc.measure(1, 1)
        result = StatevectorSimulator(seed=4).run(qc, shots=100)
        assert result.metadata["method"] == "batched_shots"
        assert set(result.counts) == {"10", "01"}  # q1 = 1 xor the mid-circuit bit


@pytest.mark.slow
class TestActiveVsDeferredTVD:
    """Statistical equivalence of live corrections and deferred measurement."""

    @pytest.mark.parametrize("theta", [0.3, 1.1, 2.5])
    def test_teleported_qubit_distribution_matches(self, theta):
        shots = 6000
        active = StatevectorSimulator(seed=42).run(active_teleport(theta), shots=shots)
        deferred = StatevectorSimulator(seed=43).run(deferred_teleport(theta), shots=shots)

        def out_marginal(counts):
            marginal = {"0": 0, "1": 0}
            for key, count in counts.items():
                marginal[key[0]] += count  # out is the last-declared register
            return marginal

        expected_one = math.sin(theta / 2) ** 2
        got = out_marginal(active.counts)
        assert abs(got["1"] / shots - expected_one) < 0.03
        assert tvd(out_marginal(active.counts), out_marginal(deferred.counts)) < 0.03

    def test_density_matrix_agrees_with_statevector_distribution(self):
        theta = 0.9
        shots = 4000
        sv = StatevectorSimulator(seed=1).run(active_teleport(theta), shots=shots)
        dm = DensityMatrixSimulator(seed=2).run(active_teleport(theta), shots=shots)
        assert tvd(sv.counts, dm.counts) < 0.05


class TestBackendDispatch:
    def test_batch_entries_rerun_alone_with_seed_plus_i(self):
        circuits = [active_teleport(), conditioned_flip()]
        batch = get_backend("statevector").run(circuits, shots=150, seed=9).result()
        for i, circuit in enumerate(circuits):
            alone = get_backend("statevector").run(circuit, shots=150, seed=9 + i).result()
            assert batch[i].counts == alone[0].counts

    def test_per_shot_and_batched_bit_equal(self):
        # every random number is pre-drawn per shot in circuit order, so one
        # trajectory at a time and the cache-sized batch give the same
        # counts and the same memory order, with and without noise
        circuit = active_teleport(theta=1.3)
        for noise in (None, DepolarizingNoise(0.05)):
            batched = (
                StatevectorBackend(noise_model=noise)
                .run(circuit, shots=200, seed=9, memory=True)
                .result()[0]
            )
            per_shot = run_batched(circuit, noise, 200, seed=9, memory=True, batch_size=1)
            assert batched.counts == per_shot.counts
            assert batched.memory == per_shot.memory
            assert per_shot.metadata["method"] == "per_shot_trajectory"
            assert batched.metadata["method"] == "batched_shots"

    @pytest.mark.parametrize("noise", [None, DepolarizingNoise(0.2)])
    def test_backend_seed_is_honoured(self, noise):
        # an unseeded run must draw from the backend engine's seeded stream
        def counts(circuit):
            backend = StatevectorBackend(seed=5, noise_model=noise)
            return backend.run(circuit, shots=200).result().get_counts()

        for circuit in (active_teleport(theta=0.9), deferred_teleport(theta=0.9)):
            assert counts(circuit) == counts(circuit)

    def test_dense_backends_agree_in_distribution(self):
        circuit = active_teleport()
        sv = get_backend("statevector").run(circuit, shots=3000, seed=4).result().get_counts()
        dm = get_backend("density_matrix").run(circuit, shots=3000, seed=4).result().get_counts()
        assert set(sv) == set(dm)
        assert tvd(sv, dm) < 0.06

    def test_stabilizer_backend_wraps_conditionals(self):
        counts = (
            get_backend("stabilizer")
            .run(active_teleport(), shots=400, seed=4)
            .result()
            .get_counts()
        )
        assert sum(counts.values()) == 400
        assert all(key[0] == "0" for key in counts)  # out bit always 0


class TestTransformsPreserveConditions:
    def test_decompose_distributes_condition(self):
        q = QuantumRegister(3, "q")
        c = ClassicalRegister(1, "c")
        qc = QuantumCircuit(q, c)
        qc.measure(q[0], c[0])
        qc.ccx(q[0], q[1], q[2])
        qc.c_if(c, 1)
        lowered = decompose(qc)
        conditioned = [i for i in lowered.data if i.condition is not None]
        # ccx survives or lowers; either way every derived piece is conditioned
        assert conditioned
        assert all(i.condition == (c, 1) for i in conditioned)

    def test_fusion_treats_condition_as_barrier(self):
        qc = conditioned_flip()
        fused = fuse_gates(qc)
        kept = [i for i in fused.data if i.condition is not None]
        assert len(kept) == 1
        assert kept[0].operation.name == "x"

    def test_optimizer_never_cancels_across_condition(self):
        q = QuantumRegister(1, "q")
        c = ClassicalRegister(1, "c")
        qc = QuantumCircuit(q, c)
        qc.measure(q[0], c[0])
        qc.x(q[0])
        qc.x(q[0]).c_if(c, 1)     # only sometimes cancels the first x
        qc.x(q[0])
        optimized = optimize(qc)
        names = [i.operation.name for i in optimized.data if i.operation.name == "x"]
        assert len(names) == 3

    def test_optimizer_preserves_conditioned_identity(self):
        q = QuantumRegister(1, "q")
        c = ClassicalRegister(1, "c")
        qc = QuantumCircuit(q, c)
        qc.measure(q[0], c[0])
        qc.id(q[0]).c_if(c, 1)
        optimized = optimize(qc)
        assert any(i.condition is not None for i in optimized.data)


class TestQasmRoundTripWithConditions:
    def test_roundtrip_equality(self):
        qc = active_teleport()
        text = to_qasm(qc)
        back = from_qasm(text)
        assert back.has_conditions()
        conditions = [
            (i.operation.name, i.condition[0].name, i.condition[1])
            for i in back.data
            if i.condition is not None
        ]
        assert conditions == [("x", "m1", 1), ("z", "m0", 1)]

    def test_roundtrip_fixpoint(self):
        text = to_qasm(active_teleport())
        assert to_qasm(from_qasm(text)) == text

    def test_roundtrip_preserves_semantics(self):
        qc = active_teleport()
        back = from_qasm(to_qasm(qc))
        a = StatevectorSimulator(seed=21).run(qc, shots=150)
        b = StatevectorSimulator(seed=21).run(back, shots=150)
        assert a.counts == b.counts

    def test_qasm3_conditional_block_roundtrip(self):
        source = (
            "OPENQASM 3;\n"
            'include "stdgates.inc";\n'
            "qubit[2] q;\n"
            "bit[1] c;\n"
            "bit[1] r;\n"
            "h q[0];\n"
            "c[0] = measure q[0];\n"
            "if (c == 1) { x q[1]; }\n"
            "r[0] = measure q[1];\n"
        )
        qc = from_qasm(source)
        assert qc.has_conditions()
        # exports as QASM2 and re-imports to the same circuit
        back = from_qasm(to_qasm(qc))
        a = StatevectorSimulator(seed=3).run(qc, shots=100)
        b = StatevectorSimulator(seed=3).run(back, shots=100)
        assert a.counts == b.counts
