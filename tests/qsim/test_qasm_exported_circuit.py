"""``exported_circuit`` builds ``from_qasm(to_qasm(c))`` without writing or parsing text.

The service cache runs it on every cold compile instead of re-parsing the
compiled text it stores, so a miss must run exactly what a later disk hit
parses.  The two are compared instruction by instruction: names, qubit and
clbit indices, conditions, parameters bit for bit, and register names and
sizes.
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
from repro.qsim.exceptions import CircuitError
from repro.qsim.qasm import exported_circuit

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
CORPUS = sorted(glob.glob(os.path.join(ROOT, "benchmarks", "circuits", "*.qasm")))
SEEDS = range(5)


@pytest.fixture(scope="module")
def bench():
    """The benchmark scripts' circuit generators (``benchmarks/`` is not a package)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(os.path.join(ROOT, "benchmarks"))
        yield importlib.import_module("bench_service"), importlib.import_module("bench_kernels")


def registers(circuit):
    return [(r.name, r.size) for r in circuit.qregs], [(r.name, r.size) for r in circuit.cregs]


def assert_same_circuit(built, parsed):
    assert built.name == parsed.name
    assert registers(built) == registers(parsed)
    assert len(built.data) == len(parsed.data)
    for position, (mine, theirs) in enumerate(zip(built.data, parsed.data)):
        where = f"instruction {position}"
        assert type(mine.operation) is type(theirs.operation), where
        assert mine.operation.name == theirs.operation.name, where
        assert mine.operation.num_qubits == theirs.operation.num_qubits, where
        assert [p.hex() for p in mine.operation.params] == [
            p.hex() for p in theirs.operation.params
        ], where
        assert [built.qubit_index(q) for q in mine.qubits] == [
            parsed.qubit_index(q) for q in theirs.qubits
        ], where
        assert [built.clbit_index(c) for c in mine.clbits] == [
            parsed.clbit_index(c) for c in theirs.clbits
        ], where
        if theirs.condition is None:
            assert mine.condition is None, where
        else:
            creg, value = mine.condition
            assert any(creg is r for r in built.cregs), where
            assert (creg.name, creg.size, value) == (
                theirs.condition[0].name, theirs.condition[0].size, theirs.condition[1]
            ), where


def assert_exports_like_the_parse(circuit):
    compiled = transpile(circuit, optimization_level=1)
    assert_same_circuit(exported_circuit(compiled), from_qasm(to_qasm(compiled)))


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
    # conditions, reset, barrier and parameters .12g cannot write exactly
    data, pi, shared = QuantumRegister(2, "Data"), QuantumRegister(1, "pi"), "m"
    flags, out = ClassicalRegister(2, shared), ClassicalRegister(1, "if")
    circuit = QuantumCircuit(data, pi, QuantumRegister(1, shared), flags, out)
    circuit.rx(1 / 3, 0).rz(-0.0, 1).p(1e-20, 2).u3(math.pi, 2 * math.pi / 7, 1e300, 3)
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
    built = exported_circuit(circuit)
    assert_same_circuit(built, from_qasm(to_qasm(circuit)))
    assert "mcx_anc" in [r.name for r in built.qregs]


def test_refusals_follow_to_qasm():
    circuit = QuantumCircuit(1)
    circuit.initialize([0, 1], [0])
    with pytest.raises(CircuitError, match="not expressible"):
        to_qasm(circuit)
    with pytest.raises(CircuitError, match="not expressible"):
        exported_circuit(circuit)


def test_non_finite_parameter_is_refused():
    # its text would not parse, so there is no circuit to build; a gate
    # refuses such a parameter when built, and again if one is set later
    circuit = QuantumCircuit(1)
    with pytest.raises(CircuitError, match="non-finite"):
        circuit.rz(math.inf, 0)
    circuit.rz(0.5, 0)
    circuit.data[0].operation.params[0] = math.inf
    with pytest.raises(CircuitError, match="non-finite"):
        exported_circuit(circuit)
