"""Ablation -- eager (live-session) execution vs replay-from-log.

The ``QuantumCircuitHandler`` both logs the circuit and applies every
instruction to its backend's live session, so automatic measurements can be
served immediately.  The alternative design replays the logged circuit from
scratch through the simulator whenever a result is needed.  This harness
checks the two agree on the final state and compares their cost on a
representative hybrid program.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.lang.interpreter import Interpreter
from repro.lang.parser import parse
from repro.qsim.backends import get_backend
from repro.qsim.registers import ClassicalRegister
from repro.qsim.simulator import StatevectorSimulator

PROGRAM = """
    quint[4] a = 9q;
    quint b = a + 5;
    quint c = a * 2;
    hadamard a;
    barrier;
    paulix b;
"""


def _run_interpreter(seed: int = 3) -> Interpreter:
    interpreter = Interpreter(seed=seed)
    interpreter.run(parse(PROGRAM))
    return interpreter


def test_replay_matches_live_state():
    interpreter = _run_interpreter()
    live = interpreter.handler.session.state
    replayed = StatevectorSimulator(seed=0).evolve(interpreter.handler.circuit)
    # the program contains no measurements, so replaying the log must give
    # exactly the same state the handler's session maintained eagerly.
    assert live.num_qubits == replayed.num_qubits
    assert np.allclose(np.abs(live.data) ** 2, np.abs(replayed.data) ** 2, atol=1e-9)


def test_replay_counts_through_backend_matches_live_sampling():
    # sampling the live session must agree with replaying the logged
    # circuit plus a final measurement through a backend on
    # measurement-free programs
    interpreter = _run_interpreter()
    handler = interpreter.handler
    qubits = list(range(4))  # register `a`, in uniform superposition
    live = handler.sample(qubits, shots=4000)
    replay = handler.circuit.copy()
    creg = ClassicalRegister(len(qubits), "replay")
    replay.add_register(creg)
    replay.measure(qubits, list(creg))
    counts = get_backend("statevector", seed=0).run(replay, shots=4000).result().get_counts()
    replayed = {int(key, 2): count for key, count in counts.items()}
    assert set(replayed) == set(live) == set(range(16))
    for value in replayed:
        assert abs(replayed[value] - live[value]) < 300  # same uniform distribution


def test_ablation_execution_mode(report, benchmark):
    interpreter = _run_interpreter()
    circuit = interpreter.handler.circuit
    report(
        "Ablation: eager execution vs replay-from-log",
        ["mode", "qubits", "logged instructions", "depth"],
        [
            ["eager (live session)", interpreter.handler.num_qubits, circuit.size(), circuit.depth()],
            ["replay (simulate log)", circuit.num_qubits, circuit.size(), circuit.depth()],
        ],
    )
    benchmark(_run_interpreter)


def test_bench_replay_only(benchmark):
    interpreter = _run_interpreter()
    sim = StatevectorSimulator(seed=0)
    benchmark(lambda: sim.evolve(interpreter.handler.circuit))
