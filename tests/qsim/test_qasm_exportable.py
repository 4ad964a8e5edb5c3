"""A service miss runs what a later disk hit parses.

The service cache runs the compiled circuit after :func:`exportable`
lowers it, and stores its :func:`to_qasm` text; a disk hit parses that
text.  The two are compared instruction by instruction in everything that
runs: operation types and names, parameters bit for bit, qubit and clbit
indices, and conditions (their clbits and value).  Register names are not
compared: ``to_qasm`` sanitises them.
"""

import glob
import importlib
import math
import os

import pytest

from repro.qsim import (
    ClassicalRegister,
    Gate,
    QuantumCircuit,
    QuantumRegister,
    from_qasm,
    from_qasm_file,
    to_qasm,
    transpile,
)
from repro.qsim.exceptions import CircuitError, QasmError
from repro.qsim.qasm import exportable

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
CORPUS = sorted(glob.glob(os.path.join(ROOT, "benchmarks", "circuits", "*.qasm")))
SEEDS = range(5)


@pytest.fixture(scope="module")
def bench():
    """The benchmark scripts' circuit generators (``benchmarks/`` is not a package)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(os.path.join(ROOT, "benchmarks"))
        yield importlib.import_module("bench_service"), importlib.import_module("bench_kernels")


def condition_of(circuit, instr):
    if instr.condition is None:
        return None
    register, value = instr.condition
    return [circuit.clbit_index(c) for c in register], value


def assert_runs_the_same(mine, parsed):
    assert len(mine.data) == len(parsed.data)
    assert (mine.num_qubits, mine.num_clbits) == (parsed.num_qubits, parsed.num_clbits)
    for position, (ours, theirs) in enumerate(zip(mine.data, parsed.data)):
        where = f"instruction {position}"
        assert type(ours.operation) is type(theirs.operation), where
        assert ours.operation.name == theirs.operation.name, where
        assert [float(p).hex() for p in ours.operation.params] == [
            float(p).hex() for p in theirs.operation.params
        ], where
        assert [mine.qubit_index(q) for q in ours.qubits] == [
            parsed.qubit_index(q) for q in theirs.qubits
        ], where
        assert [mine.clbit_index(c) for c in ours.clbits] == [
            parsed.clbit_index(c) for c in theirs.clbits
        ], where
        assert condition_of(mine, ours) == condition_of(parsed, theirs), where


def assert_exports_like_the_parse(circuit):
    compiled = exportable(transpile(circuit, optimization_level=1))
    assert_runs_the_same(compiled, from_qasm(to_qasm(compiled)))


@pytest.mark.parametrize("path", CORPUS, ids=os.path.basename)
def test_corpus_files(path):
    assert_exports_like_the_parse(from_qasm_file(path))


@pytest.mark.parametrize("seed", SEEDS)
def test_service_workload_shape(bench, seed):
    bench_service, _ = bench
    assert_exports_like_the_parse(bench_service.workload_circuit(10, 200, seed))


@pytest.mark.parametrize("seed", SEEDS)
def test_bench_kernels_random_shape(bench, seed):
    # its gate pool holds iswap, which to_qasm writes as its lowering
    _, bench_kernels = bench
    circuit = bench_kernels.random_circuit(10, 200, seed)
    circuit.measure_all()
    assert_exports_like_the_parse(circuit)


def test_awkward_registers_conditions_and_parameters():
    # names to_qasm must rename (uppercase, reserved word, qreg/creg clash),
    # conditions, reset, barrier and parameters no short decimal writes
    data, pi, shared = QuantumRegister(2, "Data"), QuantumRegister(1, "pi"), "m"
    flags, out = ClassicalRegister(2, shared), ClassicalRegister(1, "if")
    circuit = QuantumCircuit(data, pi, QuantumRegister(1, shared), flags, out)
    circuit.rx(1 / 3, 0).rz(-0.0, 1).p(1e-20, 2).u3(math.pi, 2 * math.pi / 7, 1e300, 3)
    circuit.rz(-1e16, 0).p(5e-324, 1)
    circuit.measure(0, 0)
    circuit.x(1).c_if(flags, 1)
    circuit.reset(2)
    circuit.barrier(0, 1, 2)
    circuit.measure(3, 2)
    circuit.ry(0.1 + 0.2, 3).c_if(out, 1)
    assert_exports_like_the_parse(circuit)


def test_gates_qelib1_lacks_are_lowered_like_to_qasm():
    circuit = QuantumCircuit(5, 5)
    circuit.iswap(0, 1)
    circuit.append(Gate("ryy", 2, [0.7]), [1, 2])
    circuit.mcx([0, 1, 2], 3)
    circuit.measure(list(range(5)), list(range(5)))
    lowered = exportable(circuit)
    assert_runs_the_same(lowered, from_qasm(to_qasm(circuit)))
    assert "mcx_anc" in [r.name for r in lowered.qregs]


def test_refusals_follow_to_qasm():
    circuit = QuantumCircuit(1)
    circuit.initialize([0, 1], [0])
    with pytest.raises(CircuitError, match="not expressible"):
        to_qasm(circuit)
    with pytest.raises(CircuitError, match="not expressible"):
        exportable(circuit)


def test_non_finite_parameter_is_refused():
    # a gate refuses such a parameter when built; one set later is written
    # as text that does not read back, so no disk hit can run it
    circuit = QuantumCircuit(1)
    with pytest.raises(CircuitError, match="non-finite"):
        circuit.rz(math.inf, 0)
    circuit.rz(0.5, 0)
    circuit.data[0].operation.params[0] = math.inf
    with pytest.raises(QasmError, match="'inf'"):
        from_qasm(to_qasm(circuit))
