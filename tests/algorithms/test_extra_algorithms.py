"""Tests for Bernstein--Vazirani, teleportation and Simon's algorithm."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.bernstein_vazirani import (
    bernstein_vazirani_circuit,
    build_bv_oracle,
    run_bernstein_vazirani,
)
from repro.algorithms.simon import build_simon_oracle, run_simon, simon_circuit, solve_gf2
from repro.algorithms.teleportation import teleport_state, teleportation_circuit
from repro.qsim.exceptions import CircuitError, SimulationError
from repro.qsim.simulator import StatevectorSimulator
from repro.qsim.statevector import Statevector


class TestBernsteinVazirani:
    @pytest.mark.parametrize("secret", [0, 1, 0b1010, 0b1111, 0b0110])
    def test_recovers_secret(self, secret):
        result = run_bernstein_vazirani(4, secret)
        assert result.success
        assert result.recovered == secret

    def test_single_quantum_query(self):
        result = run_bernstein_vazirani(6, 0b101101)
        assert result.quantum_queries == 1
        assert result.classical_queries == 6

    def test_oracle_action(self):
        oracle = build_bv_oracle(3, 0b101)
        sim = StatevectorSimulator(seed=0)
        # input x = 0b111 -> parity of (x & s) = parity(0b101) = 0 -> y stays 0
        state = sim.evolve(oracle, initial_state=Statevector.from_int(0b0111, 4))
        assert np.isclose(state.probabilities([3])[0], 1.0)
        # input x = 0b001 -> parity 1 -> y flips
        state = sim.evolve(oracle, initial_state=Statevector.from_int(0b0001, 4))
        assert np.isclose(state.probabilities([3])[1], 1.0)

    def test_secret_out_of_range(self):
        with pytest.raises(CircuitError):
            build_bv_oracle(3, 9)

    @given(secret=st.integers(0, 31))
    @settings(max_examples=15, deadline=None)
    def test_recovery_property(self, secret):
        assert run_bernstein_vazirani(5, secret).recovered == secret

    def test_circuit_shape(self):
        qc = bernstein_vazirani_circuit(4, 0b1001)
        assert qc.num_qubits == 5
        assert qc.has_measurements()


class TestTeleportation:
    @pytest.mark.parametrize(
        "state",
        [
            [1, 0],
            [0, 1],
            [1, 1],
            [1, -1],
            [1, 1j],
            [0.6, 0.8],
        ],
    )
    def test_teleports_faithfully(self, state):
        result = teleport_state(state, seed=5)
        assert result.success
        assert result.fidelity > 1 - 1e-9

    def test_random_states_all_seeds(self):
        rng = np.random.default_rng(1)
        for seed in range(8):
            amps = rng.normal(size=2) + 1j * rng.normal(size=2)
            result = teleport_state(amps, seed=seed)
            assert result.fidelity > 1 - 1e-9

    def test_alice_bits_are_bits(self):
        result = teleport_state([1, 1], seed=9)
        assert set(result.alice_bits) <= {0, 1}

    def test_invalid_payload(self):
        with pytest.raises(SimulationError):
            teleport_state([1, 0, 0, 0])
        with pytest.raises(SimulationError):
            teleport_state([0, 0])

    def test_circuit_structure(self):
        qc = teleportation_circuit()
        assert qc.num_qubits == 3
        assert qc.num_clbits == 2
        assert qc.count_ops().get("measure", 0) == 2


class TestSimon:
    def test_oracle_is_two_to_one(self):
        n, secret = 3, 0b011
        oracle = build_simon_oracle(n, secret)
        sim = StatevectorSimulator(seed=0)
        images = {}
        for x in range(2**n):
            state = sim.evolve(oracle, initial_state=Statevector.from_int(x, 2 * n))
            probs = state.probabilities(list(range(n, 2 * n)))
            images[x] = int(probs.argmax())
        for x in range(2**n):
            assert images[x] == images[x ^ secret]
            for y in range(2**n):
                if y not in (x, x ^ secret):
                    assert images[x] != images[y]

    @pytest.mark.parametrize("secret", [1, 2, 3, 5, 7])
    def test_recovers_secret(self, secret):
        result = run_simon(3, secret)
        assert result.success
        assert result.recovered == secret

    def test_query_count_is_polynomial(self):
        result = run_simon(4, 0b1010)
        assert result.success
        assert result.quantum_queries <= 40  # far below the 2^4 classical collisions bound

    def test_measurements_orthogonal_to_secret(self):
        result = run_simon(4, 0b0110)
        for equation in result.equations:
            assert bin(equation & 0b0110).count("1") % 2 == 0

    def test_invalid_secret(self):
        with pytest.raises(CircuitError):
            build_simon_oracle(3, 0)
        with pytest.raises(CircuitError):
            build_simon_oracle(3, 8)

    def test_solve_gf2(self):
        # equations orthogonal to s=0b101 in 3 bits: {000, 010, 101^...}
        assert solve_gf2([0b010, 0b111], 3) == 0b101
        assert solve_gf2([], 3) is None
        assert solve_gf2([0b010], 3) is None

    def test_circuit_shape(self):
        qc = simon_circuit(3, 0b101)
        assert qc.num_qubits == 6
        assert qc.num_clbits == 3
