"""Engine sessions: one live register per engine, built up instruction by
instruction (the Qutes runtime's execution model).

Every built-in backend hands out a session through ``Backend.session(seed)``
with ``allocate(k)``, ``apply(instruction, qubits)``, ``measure(qubits)``
(collapses) and ``sample(qubits, shots)`` (does not); outcomes are
little-endian integers over the measured qubits.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang.compiler import run_source
from repro.lang.stdlib import get_program
from repro.qsim.analysis import DEFAULT_MEMORY_BUDGET_BYTES
from repro.qsim import kernels
from repro.qsim.backends import build_noisy_backend, get_backend
from repro.qsim.circuit import QuantumCircuit
from repro.qsim.density import DensityMatrixSimulator
from repro.qsim.exceptions import SimulationError
from repro.qsim.instruction import (
    ControlledGate,
    Gate,
    Initialize,
    Reset,
    UnitaryGate,
    mcx_gate,
    mcz_gate,
)
from repro.qsim.noise import BitFlipNoise, NoiseModel
from repro.qsim.simulator import StatevectorSimulator
from repro.qsim.statevector import Statevector

ENGINES = ["statevector", "density_matrix", "stabilizer"]
DENSE = ["statevector", "density_matrix"]


def chi_square_ok(counts, probs, trials):
    """Every outcome lies in the support of *probs*, and Pearson's
    chi-square of *counts* against *trials* draws from *probs* stays below
    its upper 1e-4 quantile (Wilson-Hilferty approximation): a bound that
    scales with *trials*, so a wrong distribution fails at any size."""
    support = [v for v, p in enumerate(probs) if p > 1e-12]
    assert set(counts) <= set(support), (counts, probs)
    chi2 = sum((counts.get(v, 0) - trials * probs[v]) ** 2 / (trials * probs[v]) for v in support)
    dof = max(1, len(support) - 1)
    z = 3.719  # the standard normal's upper 1e-4 quantile
    return chi2 < dof * (1 - 2 / (9 * dof) + z * math.sqrt(2 / (9 * dof))) ** 3


def build(engine, seed, ops, num_qubits, noise_model=None):
    backend = get_backend(engine, noise_model=noise_model)
    session = backend.session(seed)
    session.allocate(num_qubits)
    for name, params, qubits in ops:
        session.apply(Gate(name, len(qubits), list(params)), qubits)
    return session


# |GHZ-like> on 0,1 plus |+> on 2: Clifford, so every engine runs it
CLIFFORD_OPS = [("h", (), [0]), ("cx", (), [0, 1]), ("x", (), [1]), ("h", (), [2])]
CLIFFORD_PROBS = [0, 0.25, 0.25, 0, 0, 0.25, 0.25, 0]  # over qubits [0, 1, 2]

# a non-uniform state for the dense engines
DENSE_OPS = [("ry", (1.1,), [0]), ("cx", (), [0, 1]), ("ry", (0.4,), [2])]


def dense_probs():
    c0, s0 = math.cos(0.55) ** 2, math.sin(0.55) ** 2
    c2, s2 = math.cos(0.2) ** 2, math.sin(0.2) ** 2
    probs = [0.0] * 8
    probs[0b000], probs[0b011] = c0 * c2, s0 * c2
    probs[0b100], probs[0b111] = c0 * s2, s0 * s2
    return probs


class TestMeasure:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_frequencies_over_seeds_match_exact_marginals(self, engine):
        trials = 400
        counts = {}
        for seed in range(trials):
            outcome = build(engine, seed, CLIFFORD_OPS, 3).measure([0, 1, 2])
            counts[outcome] = counts.get(outcome, 0) + 1
        assert chi_square_ok(counts, CLIFFORD_PROBS, trials)

    @pytest.mark.parametrize("engine", DENSE)
    def test_dense_frequencies_match_a_non_uniform_state(self, engine):
        trials = 600
        counts = {}
        for seed in range(trials):
            outcome = build(engine, seed, DENSE_OPS, 3).measure([0, 1, 2])
            counts[outcome] = counts.get(outcome, 0) + 1
        assert chi_square_ok(counts, dense_probs(), trials)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_measurement_collapses_and_repeats(self, engine):
        for seed in range(10):
            session = build(engine, seed, CLIFFORD_OPS, 3)
            first = session.measure([0])
            # the Bell partner now agrees, and a repeat reads the same bit
            assert session.measure([1]) == 1 - first
            assert session.measure([0]) == first

    @pytest.mark.parametrize("engine", ENGINES)
    def test_outcomes_are_little_endian_over_the_listed_qubits(self, engine):
        session = build(engine, 0, [("x", (), [0]), ("x", (), [3])], 4)
        assert session.measure([0, 1, 2, 3]) == 0b1001
        assert session.measure([3, 0]) == 0b11
        assert session.measure([1, 2]) == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_allocate_keeps_the_existing_state(self, engine):
        session = get_backend(engine).session(3)
        session.allocate(1)
        session.apply(Gate("x", 1), [0])
        session.allocate(2)
        session.apply(Gate("cx", 2), [0, 2])
        assert session.measure([0, 1, 2]) == 0b101

    @pytest.mark.parametrize("engine", ENGINES)
    def test_reset_returns_a_qubit_to_zero(self, engine):
        for seed in range(6):
            session = build(engine, seed, CLIFFORD_OPS, 3)
            session.apply(Reset(), [0])
            assert session.measure([0]) == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_same_seed_same_outcomes(self, engine):
        runs = [
            [build(engine, 11, CLIFFORD_OPS, 3).measure([0, 2]) for _ in range(2)]
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestSample:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_sample_leaves_the_state_uncollapsed(self, engine):
        trials = 300
        after = {}
        for seed in range(trials):
            session = build(engine, seed, CLIFFORD_OPS, 3)
            counts = session.sample([0, 1, 2], 64)
            assert sum(counts.values()) == 64
            assert set(counts) <= {1, 2, 5, 6}
            outcome = session.measure([0, 1, 2])
            after[outcome] = after.get(outcome, 0) + 1
        # sampling first did not pin the later measurement
        assert chi_square_ok(after, CLIFFORD_PROBS, trials)

    @pytest.mark.parametrize("engine", DENSE)
    def test_dense_sample_matches_the_marginals(self, engine):
        shots = 4000
        counts = build(engine, 5, DENSE_OPS, 3).sample([0, 1, 2], shots)
        assert chi_square_ok(counts, dense_probs(), shots)
        # a marginal over a subset, in the listed order
        counts = build(engine, 6, DENSE_OPS, 3).sample([2, 0], shots)
        probs = dense_probs()
        marginal = [
            sum(p for v, p in enumerate(probs) if ((v >> 2) & 1) == (m & 1) and (v & 1) == (m >> 1))
            for m in range(4)
        ]
        assert chi_square_ok(counts, marginal, shots)

    def test_stabilizer_sample_of_many_qubits(self):
        session = get_backend("stabilizer").session(2)
        session.allocate(80)
        session.apply(Gate("h", 1), [0])
        for qubit in range(1, 80):
            session.apply(Gate("cx", 2), [0, qubit])
        counts = session.sample(list(range(80)), 500)
        assert set(counts) <= {0, 2**80 - 1} and sum(counts.values()) == 500
        assert session.measure(list(range(80))) in (0, 2**80 - 1)

    def test_statevector_sample_does_not_touch_the_state(self):
        session = build("statevector", 0, DENSE_OPS, 3)
        before = session.state.data.copy()
        session.sample([0, 1], 100)
        assert np.array_equal(session.state.data, before)

    def test_density_sample_does_not_touch_the_state(self):
        session = build("density_matrix", 0, DENSE_OPS, 3)
        before = session.state.data.copy()
        session.sample([0, 1], 100)
        assert np.array_equal(session.state.data, before)

    def test_stabilizer_sample_does_not_touch_the_tableau(self):
        session = build("stabilizer", 0, CLIFFORD_OPS, 3)
        before = session.tableau.copy()
        session.sample([0, 1, 2], 100)
        for name in ("xs", "zs", "phases"):
            assert np.array_equal(getattr(session.tableau, name), getattr(before, name))


class TestEngineSpecifics:
    def test_stabilizer_rejects_a_non_clifford_gate_by_name(self):
        session = get_backend("stabilizer").session(0)
        session.allocate(2)
        with pytest.raises(SimulationError, match="instruction 'cp' is not a Clifford"):
            session.apply(Gate("cp", 2, [0.3]), [0, 1])

    def test_stabilizer_rejects_a_superposition_initialize(self):
        session = get_backend("stabilizer").session(0)
        session.allocate(1)
        with pytest.raises(SimulationError, match="initialize to a superposition"):
            session.apply(Initialize([1, 1]), [0])

    @pytest.mark.parametrize("engine", DENSE)
    def test_initialize_a_register_next_to_a_live_one(self, engine):
        session = get_backend(engine).session(0)
        session.allocate(1)
        session.apply(Gate("x", 1), [0])
        session.allocate(2)
        session.apply(Initialize(np.array([0, 1, 0, 1]) / math.sqrt(2)), [1, 2])
        probs = session.state.probabilities([0, 1, 2])
        assert np.allclose(probs, [0, 0, 0, 0.5, 0, 0, 0, 0.5])

    def test_density_initialize_refuses_qubits_not_in_zero(self):
        session = get_backend("density_matrix").session(0)
        session.allocate(2)
        session.apply(Gate("h", 1), [0])
        with pytest.raises(SimulationError, match="initialize requires"):
            session.apply(Initialize([0, 1]), [0])

    @pytest.mark.parametrize(
        "engine, first, total, needed",
        [
            ("density_matrix", 10, 20, 16 * 4**20),
            ("statevector", 0, 40, 16 * 2**40),
            # ten basis bits hold no amplitudes, yet count towards the width
            ("statevector", 10, 40, 16 * 2**40),
        ],
    )
    def test_allocation_over_the_memory_budget_is_refused(self, engine, first, total, needed):
        # refused before numpy is asked for the memory; the live state stays
        session = get_backend(engine).session(0)
        session.allocate(first)
        message = (
            f"a {total}-qubit {engine.replace('_', ' ')} needs {needed} bytes, over the "
            f"memory budget of {DEFAULT_MEMORY_BUDGET_BYTES} bytes"
        )
        with pytest.raises(SimulationError, match=message):
            session.allocate(total - first)
        assert session.state.num_qubits == first

    def test_density_session_applies_the_channel_exactly(self):
        backend = get_backend("density_matrix", noise_model=BitFlipNoise(0.25))
        session = backend.session(0)
        session.allocate(1)
        session.apply(Gate("x", 1), [0])
        assert np.allclose(session.state.probabilities([0]), [0.25, 0.75])

    def test_statevector_session_draws_one_trajectory(self):
        # a bit flip after every x: one trajectory reads a definite state,
        # and flips occur at the channel's rate across seeds
        flips = 0
        for seed in range(400):
            session = get_backend("statevector", noise_model=BitFlipNoise(0.25)).session(seed)
            session.allocate(1)
            session.apply(Gate("x", 1), [0])
            probs = session.state.probabilities([0])
            assert np.allclose(sorted(probs), [0, 1])
            flips += int(probs[0] > 0.5)
        assert chi_square_ok({0: flips, 1: 400 - flips}, [0.25, 0.75], 400)

    def test_statevector_evolve_runs_on_its_session(self):
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1)
        state = get_backend("statevector")._engine.evolve(qc)
        assert np.allclose(state.probabilities([0, 1]), [0.5, 0, 0, 0.5])


class TestQutesOnEngines:
    CLIFFORD_PROGRAMS = [
        "bell_pair", "coin_flip", "cyclic_shift", "deutsch_jozsa_balanced", "deutsch_jozsa_constant",
    ]

    @pytest.mark.parametrize("name", CLIFFORD_PROGRAMS)
    def test_clifford_stdlib_program_prints_the_same_distribution_everywhere(self, name):
        source = get_program(name)
        trials = 120
        printed = {}
        for engine in ENGINES:
            counts = {}
            for seed in range(trials):
                result = run_source(source, seed=seed, backend=engine)
                counts[result.printed] = counts.get(result.printed, 0) + 1
            printed[engine] = counts
        reference = printed["statevector"]
        outputs = sorted(set().union(*printed.values()))
        if len(reference) == 1:
            assert all(counts == reference for counts in printed.values()), printed
            return
        # coin_flip: heads or tails with probability 1/2 each, on every engine
        assert outputs == ["heads", "tails"]
        for counts in printed.values():
            assert chi_square_ok({0: counts.get("heads", 0), 1: counts.get("tails", 0)},
                                 [0.5, 0.5], trials)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_noisy_run_collapses_to_the_exact_channel_probabilities(self, engine):
        # x on both qubits, a bit flip p=0.2 after each: DM's exact rho gives
        # the outcome distribution every engine's runs must follow
        source = "quint[2] a = 3q; print a;"
        trials = 300
        counts = {}
        for seed in range(trials):
            backend = build_noisy_backend(engine, 0.2, "bit_flip", seed=seed)
            value = int(run_source(source, seed=seed, backend=backend).printed)
            counts[value] = counts.get(value, 0) + 1
        qc = QuantumCircuit(2)
        qc.x(0).x(1)
        exact = DensityMatrixSimulator(noise_model=BitFlipNoise(0.2)).evolve(qc)
        assert chi_square_ok(counts, list(exact.probabilities([0, 1])), trials)

    def test_wide_clifford_program_runs_on_the_tableau(self):
        source = "quint[200] a = 0q; hadamard a; print a; print a;"
        result = run_source(source, seed=4, backend="stabilizer")
        first, second = result.output
        assert first == second and 0 <= int(first) < 2**200
        assert result.num_qubits == 200
        assert result.metadata == {"engine": "stabilizer", "method": "session"}

    def test_result_names_the_engine_and_method(self):
        assert run_source("print 1;").metadata == {"engine": "statevector", "method": "session"}
        result = run_source("qubit a = |1>; print a;", backend="density_matrix")
        assert result.metadata == {"engine": "density_matrix", "method": "session"}

    def test_non_clifford_program_fails_at_its_first_non_clifford_gate(self):
        with pytest.raises(SimulationError, match="'cp'"):
            run_source("quint a = 5q; quint b = a + 3; print b;", backend="stabilizer")


# ---------------------------------------------------------------------------
# The statevector session's basis bits
# ---------------------------------------------------------------------------

WIDTH = 8

#: name -> (qubits, parameters); ccz is the two-control ControlledGate
BIT_GATES = {
    "x": (1, 0), "cx": (2, 0), "ccx": (3, 0), "swap": (2, 0), "cp": (2, 1), "cz": (2, 0),
    "ccz": (3, 0), "ch": (2, 0), "h": (1, 0), "t": (1, 0), "rx": (1, 1), "u3": (1, 3),
    "iswap": (2, 0),
}


#: name -> qubits of a random unitary drawn from the parameters: dense, or
#: structured so that a bit there restricts it and a product stacks its
#: blocks: controlled on its first qubit, or block diagonal in its first
#: qubit (its first two for ``bunitary4``)
UNITARIES = {
    "unitary2": 2, "unitary3": 3, "unitary4": 4, "cunitary3": 3, "bunitary2": 2,
    "bunitary3": 3, "bunitary4": 4,
}


def _unitary(name, params):
    rng = np.random.default_rng([int(abs(p) * 1e6) for p in params])

    def draw(dim):
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return np.linalg.qr(z)[0]

    dim = 1 << UNITARIES[name]
    if name.startswith("unitary"):
        return UnitaryGate(draw(dim))
    size = dim // (4 if name == "bunitary4" else 2)
    matrix = np.zeros((dim, dim), dtype=complex)
    for start in range(0, dim, size):
        block = np.eye(size) if name.startswith("c") and not start else draw(size)
        matrix[start : start + size, start : start + size] = block
    return UnitaryGate(matrix)


def _gate(name, params):
    if name in UNITARIES:
        return _unitary(name, params)
    if name == "ccz":
        return mcz_gate(2)
    if name == "mcx":
        return mcx_gate(6)
    qubits, count = BIT_GATES[name]
    return Gate(name, qubits, list(params[:count]))


_operations = st.one_of(
    st.tuples(
        st.sampled_from(sorted(BIT_GATES) + ["x", "cx", "ccx", "cp", "mcx"] + sorted(UNITARIES)),
        st.permutations(range(WIDTH)),
        st.lists(st.floats(-math.pi, math.pi), min_size=3, max_size=3),
    ),
    st.tuples(st.sampled_from(["measure", "reset"]), st.permutations(range(WIDTH)), st.just([])),
    st.tuples(
        st.just("initialize"),
        st.permutations(range(WIDTH)),
        st.lists(st.floats(-1, 1), min_size=4, max_size=4).filter(
            lambda xs: sum(x * x for x in xs) > 0.1
        ),
    ),
)


def _step(session, kind, order, params):
    """Run one drawn operation on *session*; returns a measured outcome."""
    if kind == "measure":
        return session.measure(order[:2])
    if kind == "reset":
        session.apply(Reset(), order[:1])
        return None
    if kind == "initialize":
        session.apply(Initialize(np.array(params, dtype=complex)), order[:2])
        return None
    gate = _gate(kind, params)
    session.apply(gate, order[: gate.num_qubits])
    return None


class TestBasisBits:
    """A session that keeps qubits as basis bits computes what one holding
    every qubit in amplitudes computes (a session built from a zero state)."""

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        first=st.integers(0, WIDTH),
        operations=st.lists(_operations, max_size=24),
    )
    def test_amplitudes_and_outcomes_match_a_session_without_bits(self, seed, first, operations):
        session = StatevectorSimulator(seed=seed).session()
        session.allocate(first)
        session.allocate(WIDTH - first)
        reference = StatevectorSimulator(seed=seed).session(Statevector.zero_state(WIDTH))
        measured = False
        for kind, order, params in operations:
            errors = []
            outcomes = []
            for each in (session, reference):
                try:
                    outcomes.append(_step(each, kind, order, params))
                except SimulationError as exc:  # initialize on a qubit not in |0>
                    errors.append(str(exc))
            assert len(errors) in (0, 2) and len(set(errors)) <= 1, errors
            if errors:
                break
            assert outcomes[0] == outcomes[1]
            measured = measured or kind in ("measure", "reset")
            if not measured:
                assert np.array_equal(session.state.data, reference.state.data)
        assert np.allclose(session.state.data, reference.state.data, atol=1e-12)
        assert session.rng.random() == reference.rng.random()

    @pytest.mark.parametrize("name", ["ch", "crx", "cunitary3", "bunitary2", "phase_or_h"])
    def test_a_product_gate_on_bits_rounds_as_its_product(self, name):
        # what a dense gate of two or more qubits leaves on the row once its
        # bit operands are dropped -- one qubit, or just a phase -- must round
        # as the gate's own product does on a row holding every qubit
        if name == "phase_or_h":  # |00> takes a phase; |1x> an h on x
            matrix = np.zeros((4, 4), dtype=complex)
            matrix[0, 0], matrix[1, 1] = np.exp(0.7j), 1.0
            matrix[2:, 2:] = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
            gate = UnitaryGate(matrix)
        elif name == "crx":
            gate = Gate("crx", 2, [0.7])
        else:
            gate = _gate(name, [0.7, -1.3, 2.1])
        session = StatevectorSimulator(seed=0).session()
        session.allocate(6)
        reference = StatevectorSimulator(seed=0).session(Statevector.zero_state(6))
        for each in (session, reference):
            each.apply(Gate("x", 1), [0])
            for qubit in (2, 3, 4):
                each.apply(Gate("u3", 1, [0.3 * qubit, 1.1, -0.4]), [qubit])
            each.apply(gate, [0] + [2, 3, 4][: gate.num_qubits - 1])  # a bit at 1 first
            each.apply(gate, [1, 5, 4][: gate.num_qubits])  # bits at 0 first
        assert session._num_bits > 0
        assert np.array_equal(session.state.data, reference.state.data)

    def test_a_controlled_gate_left_with_its_base_rounds_as_its_product(self):
        # every control a bit at 1: the session runs the bare one-qubit base,
        # which must round as the full gate's product with its controls pinned
        gate = ControlledGate(Gate("u3", 1, [0.9, 0.2, -0.7]), 2)
        session = StatevectorSimulator(seed=0).session()
        session.allocate(7)
        reference = StatevectorSimulator(seed=0).session(Statevector.zero_state(7))
        for each in (session, reference):
            each.apply(Gate("x", 1), [0])
            each.apply(Gate("x", 1), [1])
            for qubit in range(2, 7):
                each.apply(Gate("u3", 1, [0.3 * qubit, 1.1, -0.4]), [qubit])
            each.apply(gate, [0, 1, 2])
        assert session._num_bits == 2
        assert np.array_equal(session.state.data, reference.state.data)

    def test_a_measured_qubit_leaves_the_row(self):
        session = StatevectorSimulator(seed=5).session()
        session.allocate(4)
        for qubit in (0, 2, 3):
            session.apply(Gate("h", 1), [qubit])
        session.apply(Gate("cx", 2), [2, 1])
        before = session.state.data.copy()
        outcome = session.measure([2, 0])
        assert session._rows.states.shape == (1, 4)  # qubits 1 and 3
        assert session._axis == [-1, 0, -1, 1]
        state = session.state.data
        kept = [i for i in range(16) if (i >> 2) & 1 == outcome & 1 and i & 1 == outcome >> 1]
        np.testing.assert_allclose(state[kept], before[kept] / np.linalg.norm(before[kept]))
        assert np.count_nonzero(state) == 2
        # qubit 1 followed qubit 2 through the cx: measuring it reads the same
        assert session.measure([1]) == outcome & 1
        assert session._rows.states.shape == (1, 2)  # qubit 3 alone

    def test_wide_mcz_with_bit_controls_never_builds_its_matrix(self, monkeypatch):
        n = 12
        gate = mcz_gate(n - 1)
        assert isinstance(gate, ControlledGate)

        def refuse():
            raise AssertionError("a wide mcz built its matrix")

        monkeypatch.setattr(gate, "to_matrix", refuse)
        session = StatevectorSimulator(seed=0).session()
        session.allocate(n)
        reference = StatevectorSimulator(seed=0).session(Statevector.zero_state(n))
        for each in (session, reference):
            for qubit in range(n - 3):
                each.apply(Gate("x", 1), [qubit])
            each.apply(Gate("h", 1), [n - 2])
            each.apply(Gate("h", 1), [n - 1])
            # controls 0..n-4 are bits at 1 and n-3 a bit at 0: the identity
            each.apply(gate, list(range(n)))
            each.apply(Gate("x", 1), [n - 3])
            # every bit control at 1: a cz between the two superposed qubits
            each.apply(gate, list(range(n)))
            # ... and with a bit as the target: a ccz on two superposed qubits and that bit
            each.apply(gate, [n - 2, n - 1] + list(range(n - 3)) + [n - 3])
        assert np.array_equal(session.state.data, reference.state.data)
        assert not np.allclose(session.state.data, Statevector.zero_state(n).data)

    def test_a_wide_gate_on_bits_alone_flips_a_bit_or_phases_the_state(self):
        n = 9
        session = StatevectorSimulator(seed=0).session()
        session.allocate(n)
        reference = StatevectorSimulator(seed=0).session(Statevector.zero_state(n))
        for each in (session, reference):
            for qubit in range(n - 1):
                each.apply(Gate("x", 1), [qubit])
            each.apply(mcx_gate(n - 1), list(range(n)))  # every control a bit at 1
            each.apply(Gate("h", 1), [0])
            each.apply(mcz_gate(n - 2), list(range(1, n)))  # a phase of -1 on the row
        assert np.array_equal(session.state.data, reference.state.data)
        assert session.measure(list(range(1, n))) == 2 ** (n - 1) - 1

    def test_noisy_session_draws_the_same_stream_as_before(self):
        # outcomes and the generator's next draw, pinned from a session that
        # held every qubit in amplitudes; a noisy session still does
        def stream(seed):
            backend = get_backend(
                "statevector", noise_model=NoiseModel.pauli(x=0.1, y=0.05, z=0.1)
            )
            session = backend.session(seed)
            session.allocate(2)
            session.apply(Gate("x", 1), [0])
            session.allocate(2)
            session.apply(Gate("cx", 2), [0, 2])
            session.apply(Gate("h", 1), [3])
            session.apply(Gate("cp", 2, [0.7]), [3, 1])
            first = session.measure([0, 1, 2, 3])
            session.apply(Reset(), [2])
            session.apply(Gate("ccx", 3), [0, 3, 1])
            second = session.measure([3, 2, 1, 0])
            return first, second, int(session.rng.integers(1 << 16))

        assert [stream(seed) for seed in range(12)] == [
            (9, 1, 5269), (1, 8, 59236), (13, 13, 24914), (0, 0, 42622),
            (13, 13, 38625), (13, 13, 43638), (5, 9, 35935), (5, 8, 45893),
            (5, 8, 29484), (5, 1, 63481), (15, 9, 20598), (8, 1, 61687),
        ]

    def test_sample_and_measure_read_bits_without_widening_the_row(self):
        session = StatevectorSimulator(seed=3).session()
        session.allocate(20)
        session.apply(Gate("x", 1), [19])
        session.apply(Gate("h", 1), [4])
        counts = session.sample([19, 4, 7], 400)
        assert set(counts) == {0b001, 0b011} and sum(counts.values()) == 400
        assert session.measure([7, 19]) == 0b10
        assert session._rows.states.size == 2  # only qubit 4 is in the row


class TestRowLayout:
    """A product leaves the row in its own axis order, with no copy back;
    whatever reads the row first puts it back in ascending qubit order, so
    every reading is bit-equal to a session that runs each product in place
    and to one holding every qubit in the row."""

    @staticmethod
    def _in_place(states, step):
        kernels.apply_step(states, step)

    @staticmethod
    def _products(session):
        # qubit 0 stays a bit at 1 and qubit 6 a bit at 0
        session.apply(Gate("x", 1), [0])
        for qubit in (1, 2, 3, 4, 5, 7):
            session.apply(Gate("u3", 1, [0.3 * qubit, 1.1, -0.4]), [qubit])
        session.apply(_unitary("unitary3", [0.3, 0.1, 0.9]), [5, 2, 7])
        session.apply(_unitary("bunitary3", [0.2, 0.5, 0.4]), [1, 4, 3])
        session.apply(Gate("crx", 2, [0.7]), [3, 1])  # pinned: in place
        session.apply(_unitary("unitary2", [0.8, 0.6, 0.1]), [7, 1])
        session.apply(_unitary("cunitary3", [0.4, 0.9, 0.2]), [0, 4, 2])

    @staticmethod
    def _read(session, read):
        if read == "probabilities":
            return session.probabilities([6, 2, 0, 5])
        if read == "measure":
            return session.measure([2, 6, 7]), session.state.data
        if read == "initialize":
            session.apply(Initialize(np.array([0.6, 0.8j])), [6])
        elif read == "pauli":
            session._pauli("Y", 2)  # a row qubit
            session._pauli("X", 6)  # a bit
        if read != "state":  # another product on the restored row
            session.apply(_unitary("unitary2", [0.5, 0.2, 0.3]), [6, 3])
        return session.state.data

    @pytest.mark.parametrize("read", ["probabilities", "measure", "state", "initialize", "pauli"])
    def test_a_permuted_row_reads_as_an_ordered_row(self, read, monkeypatch):
        readings = []
        sessions = []
        for start, in_place in ((None, False), (None, True), (Statevector.zero_state(8), False)):
            session = StatevectorSimulator(seed=4).session(start)
            if start is None:
                session.allocate(8)
            with monkeypatch.context() as patch:
                if in_place:
                    patch.setattr(kernels, "apply_product_unordered", self._in_place)
                self._products(session)
                if not in_place:
                    live = [axis for axis in session._axis if axis >= 0]
                    assert session._permuted and live != sorted(live)
                readings.append(self._read(session, read))
            sessions.append(session)
        permuted, in_place, full = readings
        if read == "measure":  # the full row collapses with more zeros in its sums
            assert permuted[0] == in_place[0] == full[0]
            np.testing.assert_array_equal(permuted[1], in_place[1])
            np.testing.assert_allclose(permuted[1], full[1], atol=1e-12, rtol=0)
        else:
            np.testing.assert_array_equal(permuted, in_place)
            np.testing.assert_array_equal(permuted, full)
        assert sessions[0]._num_bits > 0

    def test_a_session_that_runs_no_product_never_transposes(self, monkeypatch):
        calls = []
        reorder = kernels.reorder_bits
        monkeypatch.setattr(
            kernels, "reorder_bits", lambda *args: calls.append(args) or reorder(*args)
        )
        session = StatevectorSimulator(seed=2).session()
        session.allocate(8)
        for qubit in range(1, 8):
            session.apply(Gate("h", 1), [qubit])
        for name, params, qubits in (
            ("cx", [], [1, 3]), ("ccx", [], [1, 3, 5]), ("rz", [0.4], [3]), ("t", [], [5]),
            ("swap", [], [2, 6]), ("cp", [0.9], [7, 2]), ("u3", [0.1, 0.2, 0.3], [4]),
        ):
            session.apply(Gate(name, len(qubits), params), qubits)
        session.probabilities([0, 3])
        session.sample([2, 5], 10)
        session.measure([1])
        session.apply(Initialize(np.array([0.6, 0.8])), [0])
        assert session.state.num_qubits == 8
        assert not calls and not session._permuted
        # a product on a row with 4 or more columns leaves it permuted, and
        # the next reading puts it back
        session.apply(_unitary("unitary2", [0.1, 0.2, 0.3]), [2, 6])
        assert session._permuted
        session.probabilities([2])
        assert len(calls) == 1 and not session._permuted


class TestNoisyBasisBits:
    """Under Pauli noise a session keeps basis bits too, and still computes
    what one holding every qubit in amplitudes computes: an error on a bit
    flips it and phases the row, and every error is drawn as before."""

    NOISE = NoiseModel.pauli(x=0.1, y=0.1, z=0.1)

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        first=st.integers(0, WIDTH),
        operations=st.lists(_operations, max_size=24),
    )
    def test_amplitudes_and_outcomes_match_a_session_without_bits(self, seed, first, operations):
        session = StatevectorSimulator(seed=seed, noise_model=self.NOISE).session()
        session.allocate(first)
        session.allocate(WIDTH - first)
        reference = StatevectorSimulator(seed=seed, noise_model=self.NOISE).session(
            Statevector.zero_state(WIDTH)
        )
        measured = False
        for kind, order, params in operations:
            errors = []
            outcomes = []
            for each in (session, reference):
                try:
                    outcomes.append(_step(each, kind, order, params))
                except SimulationError as exc:  # initialize on a qubit not in |0>
                    errors.append(str(exc))
            assert len(errors) in (0, 2) and len(set(errors)) <= 1, errors
            if errors:
                break
            assert outcomes[0] == outcomes[1]
            measured = measured or kind in ("measure", "reset")
            if not measured:
                assert np.array_equal(session.state.data, reference.state.data)
        assert np.allclose(session.state.data, reference.state.data, atol=1e-12)
        assert session.rng.random() == reference.rng.random()

    @pytest.mark.parametrize("pauli", ["x", "y", "z"])
    def test_an_error_on_a_bit_keeps_it_a_bit(self, pauli):
        noise = NoiseModel.pauli(**{pauli: 1.0})
        session = StatevectorSimulator(seed=0, noise_model=noise).session()
        reference = StatevectorSimulator(seed=0, noise_model=noise).session(
            Statevector.zero_state(3)
        )
        session.allocate(3)
        for each in (session, reference):
            each.apply(Gate("h", 1), [1])  # qubit 1 enters the row, then errs
            each.apply(Gate("x", 1), [0])  # bit 0 becomes 1, then errs
            each.apply(Gate("id", 1), [2])  # bit 2 errs at 0
        assert np.array_equal(session.state.data, reference.state.data)
        assert session._rows.states.size == 2  # only qubit 1 is in the row

    def test_a_wide_noisy_session_holds_only_its_superposed_qubits(self):
        session = build_noisy_backend("statevector", 0.01, "depolarizing", 3).session()
        session.allocate(20)
        for qubit in range(20):
            session.apply(Gate("x", 1), [qubit])
        session.apply(Gate("h", 1), [4])
        assert session._rows.states.size <= 2
        assert sum(session.sample([4], 400).values()) == 400
