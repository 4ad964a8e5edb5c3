"""Cross-module integration tests.

These exercise paths that cut across the substrate, the algorithm library and
the language runtime: the execution-result object, QASM export of programs
written in Qutes, the measurement record, and consistency between the
statevector and density-matrix engines on language-generated circuits.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro

from repro import compile_source, run_source
from repro.lang.stdlib import get_program
from repro.qsim.density import DensityMatrixSimulator
from repro.qsim.optimizer import optimize
from repro.qsim.qasm import to_qasm
from repro.qsim.simulator import StatevectorSimulator
from repro.qsim.transpiler import decompose


class TestExecutionResult:
    def test_result_fields_populated(self):
        result = run_source("quint a = 5q; quint b = a + 2; print b;", seed=3)
        assert result.printed == "7"
        assert result.num_qubits >= 6
        assert result.depth > 0
        assert sum(result.gate_counts.values()) == result.circuit.size()
        assert result.variable("a") is not None

    def test_measurement_record(self):
        result = run_source("quint a = [1, 2]; int x = a; print x;", seed=5)
        assert len(result.measurements) == 1
        record = result.measurements[0]
        assert record["outcome"] in (1, 2)
        assert str(record["outcome"]) == result.printed

    def test_compiled_program_is_reusable(self):
        program = compile_source("qubit q = |+>; print q;")
        outputs = {program.run(seed=s).printed for s in range(10)}
        assert outputs == {"true", "false"}

    def test_variables_reflect_final_state(self):
        result = run_source("int x = 1; x = x + 41;", seed=0)
        assert result.variable("x") == 42


class TestPackageImports:
    def test_simulator_import_leaves_language_unloaded(self):
        """``import repro.qsim`` loads neither the language front end, the
        algorithm library nor a process pool (the root package is lazy)."""
        probe = (
            "import sys, repro.qsim\n"
            "heavy = ('repro.lang', 'repro.algorithms', 'concurrent.futures.process')\n"
            "print(','.join(m for m in heavy if m in sys.modules))"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == ""

    def test_root_exports_resolve_lazily(self):
        assert repro.run_source is run_source
        assert set(repro.__all__) <= set(dir(repro))
        with pytest.raises(AttributeError):
            repro.no_such_name


class TestCircuitInteroperability:
    def test_language_circuit_exports_to_qasm(self):
        # a program without Initialize (basis-state encodings only) exports cleanly
        result = run_source("quint a = 5q; quint b = a + 3; print b;", seed=1)
        text = to_qasm(result.circuit)
        assert text.startswith("OPENQASM 2.0;")
        assert "measure" in text
        assert "cp(" in text or "cx" in text

    def test_language_circuit_can_be_lowered(self):
        result = run_source("quint a = 3q; quint b = a * 2; print b;", seed=1)
        lowered = decompose(result.circuit)
        assert lowered.size() >= result.circuit.size()

    def test_language_circuit_replay_matches_recorded_outcome(self):
        # fixed basis-state program: replaying the logged circuit must give
        # the same measured value the interpreter reported.
        result = run_source("quint a = 6q; quint b = a + 9; print b;", seed=2)
        replay = StatevectorSimulator(seed=0).run(result.circuit, shots=64)
        assert int(replay.most_frequent(), 2) == 15

    def test_density_matrix_agrees_with_statevector_on_program(self):
        result = run_source("quint[3] a = 5q; hadamard a;", seed=1)
        circuit = result.circuit
        sv = StatevectorSimulator(seed=0).evolve(circuit)
        dm = DensityMatrixSimulator(seed=0).evolve(circuit)
        assert np.allclose(dm.probabilities(), sv.probabilities(), atol=1e-9)

    def test_optimized_program_circuit_same_distribution(self):
        result = run_source(get_program("quantum_addition"), seed=4)
        optimized = optimize(result.circuit)
        original = StatevectorSimulator(seed=9).run(result.circuit, shots=512).counts
        reduced = StatevectorSimulator(seed=9).run(optimized, shots=512).counts
        assert original.keys() == reduced.keys()


class TestDeterminism:
    def test_same_seed_same_everything(self):
        source = get_program("superposition_addition")
        a = run_source(source, seed=77)
        b = run_source(source, seed=77)
        assert a.printed == b.printed
        assert a.gate_counts == b.gate_counts
        assert a.measurements[0]["outcome"] == b.measurements[0]["outcome"]

    def test_different_seeds_cover_branches(self):
        source = "quint a = [0, 7]; print a;"
        seen = {run_source(source, seed=s).printed for s in range(16)}
        assert seen == {"0", "7"}
