"""Qutes arithmetic on basis bits runs as its classical function.

``+``, ``-`` and ``*`` splice a memoised Fourier adder or multiplier onto the
program; when every qubit it touches is a basis bit of a noiseless
statevector session, the session sets the output bits from the operation's
classical function instead of running the gates
(``StatevectorSession.apply_classical``).  These tests pin each function to
its circuit on every basis input, the refusals, the log the memo shares, and
the program-level equivalence with the gate path.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.lang import operations
from repro.lang.circuit_handler import QuantumCircuitHandler
from repro.lang.compiler import run_source
from repro.lang.stdlib import get_program
from repro.qsim import kernels
from repro.qsim.backends import get_backend
from repro.qsim.instruction import Gate
from repro.qsim.noise import NoiseModel
from repro.qsim.shotbatch import StatevectorSession


def assert_computes_its_function(sub, chunk: int = 256) -> None:
    """Every basis input ``|x>``, run gate by gate, ends as ``|function(x)>``
    with amplitude 1 (inputs in chunks of *chunk* rows)."""
    size = 1 << sub.num_qubits
    for start in range(0, size, chunk):
        inputs = np.arange(start, min(start + chunk, size))
        states = np.zeros((inputs.size, size), dtype=complex)
        states[np.arange(inputs.size), inputs] = 1.0
        for op, positions in sub.instructions:
            kernels.apply_step(states, kernels.lower(op, positions))
        expected = np.zeros_like(states)
        expected[np.arange(inputs.size), [sub.function(int(x)) for x in inputs]] = 1.0
        assert np.allclose(states, expected, atol=1e-9)


class TestFunctionsMatchTheirCircuits:
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize(
        "source, target",
        # the Draper adder needs a source no wider than its target
        [(s, t) for s in range(1, 5) for t in range(1, 6) if s <= t],
    )
    def test_draper_adder(self, source, target, sign):
        assert_computes_its_function(operations._draper_adder(source, target, sign))

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("size", range(1, 6))
    def test_constant_adder_for_every_constant(self, size, sign):
        for value in range(1 << size):
            assert_computes_its_function(operations._constant_adder(value, size, sign))

    @pytest.mark.parametrize("b_size", range(1, 4))
    @pytest.mark.parametrize("a_size", range(1, 4))
    def test_multiplier(self, a_size, b_size):
        assert_computes_its_function(operations._multiplier(a_size, b_size, a_size + b_size))

    def test_known_values(self):
        add = operations._draper_adder(2, 3, 1).function
        assert add(0b11 | 0b110 << 2) == 0b11 | 0b001 << 2  # 6 + 3 = 9 = 1 mod 8
        subtract = operations._constant_adder(3, 4, -1).function
        assert subtract(1) == 14
        multiply = operations._multiplier(2, 2, 4).function
        assert multiply(0b11 | 0b10 << 2) == 0b1011 | 6 << 4


class TestApplyClassical:
    def session(self, noise_model=None):
        session = StatevectorSession(np.random.default_rng(3), noise_model)
        session.allocate(4)
        session.apply(Gate("x", 1), [1])
        return session

    def test_sets_the_bits_from_the_function(self):
        session = self.session()
        assert session.apply_classical(lambda value: value + 1, [1, 3])  # 1 -> 2
        assert session._bits == 0b1000
        assert session._rows.states.shape == (1, 1)

    def test_refuses_on_a_noisy_session(self):
        session = self.session(NoiseModel.pauli(x=0.1))
        before = session.state.data.copy()
        assert not session.apply_classical(lambda value: value + 1, [1, 3])
        assert np.array_equal(session.state.data, before)

    def test_refuses_when_an_operand_sits_in_the_row(self):
        session = self.session()
        session.apply(Gate("h", 1), [2])
        before = session.state.data.copy()
        assert not session.apply_classical(lambda value: value + 1, [1, 2])
        assert np.array_equal(session.state.data, before)
        assert session.apply_classical(lambda value: value + 1, [1, 3])


class TestPrograms:
    @pytest.mark.parametrize("name", ["quantum_addition", "quantum_counter"])
    def test_arithmetic_on_bits_keeps_a_one_amplitude_row(self, name, monkeypatch):
        seen = []
        run = StatevectorSession.apply_classical

        def spy(self, function, qubits):
            seen.append((run(self, function, qubits), self._rows.states.shape[1]))
            return seen[-1][0]

        monkeypatch.setattr(StatevectorSession, "apply_classical", spy)
        run_source(get_program(name), seed=1)
        assert seen and all(entry == (True, 1) for entry in seen)

    def test_a_measured_register_is_bits_again(self, monkeypatch):
        # printing a superposed register collapses it; its qubits leave the
        # row, so the sum after it runs on bits
        seen = []
        run = StatevectorSession.apply_classical

        def spy(self, function, qubits):
            seen.append((run(self, function, qubits), self._rows.states.shape[1]))
            return seen[-1][0]

        monkeypatch.setattr(StatevectorSession, "apply_classical", spy)
        for seed in range(4):
            first, second = run_source("quint a = [1, 3];\nprint a;\nprint a + 1;\n", seed=seed).output
            assert first in ("1", "3") and int(second) == int(first) + 1
        assert seen == [(True, 1)] * 4

    def test_a_counter_to_six_runs_on_bits(self):
        assert run_source(get_program("quantum_counter", limit=6), seed=0).printed == "6"

    @pytest.mark.parametrize("expression", ["-3 + x", "x + (-3)"])
    def test_a_negative_classical_operand_wraps_on_either_side(self, expression):
        source = f"quint x = 5q;\nprint {expression};\n"
        assert run_source(source, seed=0).printed == "2"


def random_program(rng: random.Random) -> str:
    """Two or three operands (basis, superposed or classical, negative
    ones too) and two or three ``+ - *`` results, each printed (a
    measurement), the sums and differences reused."""
    lines, quantum, classical, negative = [], [], [], []
    for k in range(rng.randint(2, 3)):
        kind = rng.choice(["basis", "superposed", "classical"])
        if kind == "basis" or (kind == "classical" and not quantum and k == 1):
            lines.append(f"quint v{k} = {rng.randrange(8)}q;")
            quantum.append(f"v{k}")
        elif kind == "superposed":
            first, second = rng.sample(range(4), 2)
            lines.append(f"quint v{k} = [{first}, {second}];")
            quantum.append(f"v{k}")
        else:
            value = rng.randrange(-4, 8)
            lines.append(f"int v{k} = {value};")
            (negative if value < 0 else classical).append(f"v{k}")
    for j in range(rng.randint(2, 3)):
        operator = rng.choice("+-*")
        # a product promotes a classical operand, and a quint is never negative
        operands = quantum + classical + ([] if operator == "*" else negative)
        left, right = rng.choice(quantum), rng.choice(operands)
        if rng.random() < 0.5:
            left, right = right, left
        lines.append(f"quint r{j} = {left} {operator} {right};")
        lines.append(f"print r{j};")
        if operator != "*":
            quantum.append(f"r{j}")
    return "\n".join(lines) + "\n"


def record(source: str, seed: int):
    result = run_source(source, seed=seed)
    measured = [[m["label"], list(m["qubits"]), m["outcome"]] for m in result.measurements]
    return result.output, measured


def test_programs_print_and_measure_as_the_gate_path_does(monkeypatch):
    rng = random.Random(2024)
    programs = []
    while len(programs) < 12:
        source = random_program(rng)
        # the gate path holds every result in the row: keep it small
        if run_source(source, seed=0).circuit.num_qubits <= 18:
            programs.append(source)
    classical_runs = []
    run = StatevectorSession.apply_classical

    def counting(self, function, qubits):
        classical_runs.append(run(self, function, qubits))
        return classical_runs[-1]

    monkeypatch.setattr(StatevectorSession, "apply_classical", counting)
    on_bits = {(p, s): record(p, s) for p in programs for s in range(20)}
    assert any(classical_runs) and not all(classical_runs)
    monkeypatch.setattr(StatevectorSession, "apply_classical", lambda *args: False)
    for (source, seed), expected in on_bits.items():
        assert record(source, seed) == expected, (source, seed)


def test_a_second_program_leaves_the_first_programs_log_unchanged():
    def logged(circuit):
        return [
            (
                i.operation.name,
                list(i.operation.params),
                i.operation.to_matrix().tolist() if i.operation.is_unitary else None,
                [circuit.qubit_index(q) for q in i.qubits],
            )
            for i in circuit.data
        ]

    first = run_source("quint a = 3q;\nquint b = 2q;\nprint a + b;\nprint a - 1;\nprint a * b;\n")
    snapshot = logged(first.circuit)
    # the same shapes on superposed operands: the session runs the shared gates
    second = run_source(
        "quint c = [1, 2];\nquint d = [0, 3];\nprint c + d;\nprint c - 1;\nprint c * d;\n"
    )
    operations_of = [{id(i.operation) for i in r.circuit.data} for r in (first, second)]
    assert operations_of[0] & operations_of[1]  # the memo hands both the same operations
    assert logged(first.circuit) == snapshot
    assert operations._draper_adder.cache_info().maxsize == operations._MAX_SHAPES


def test_a_density_matrix_session_runs_the_gates():
    handler = QuantumCircuitHandler(backend=get_backend("density_matrix"))
    assert handler._apply_classical is None
    source = get_program("quantum_addition", a=3, b=4)
    assert run_source(source, seed=0, backend="density_matrix").printed == "7"
