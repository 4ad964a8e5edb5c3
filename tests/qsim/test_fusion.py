"""Gate fusion: fused circuits must be indistinguishable from the originals.

Covers statevector equivalence (fusion on/off, random circuits), structural
guarantees (support bound, non-unitary instructions never crossed), and the
one integration point, :func:`repro.qsim.simulator.prepare`: the statevector
engine's fusion policy.  References are built gate by gate with
:func:`repro.qsim.kernels.apply_gate`, so no engine's own fusion hides in
them.
"""

import hashlib

import numpy as np
import pytest

from repro.qsim import (
    BitFlipNoise,
    QuantumCircuit,
    Statevector,
    StatevectorSimulator,
    fuse_gates,
    fusion_summary,
    kernels,
    optimize,
    simulator,
    transpile,
)
from repro.qsim import gates
from repro.qsim.instruction import Barrier, Gate, Measure, Reset, UnitaryGate
from repro.qsim.shotbatch import run_batched
from repro.qsim.simulator import prepare

from test_kernels import random_circuit, random_state

ATOL = 1e-10


def gate_by_gate(circuit, initial=None):
    """The state after *circuit*'s gates, each applied alone by the kernels."""
    start = Statevector.zero_state(circuit.num_qubits) if initial is None else initial
    data = start.data.copy()
    for instr in circuit.data:
        kernels.apply_gate(data, instr.operation, [circuit.qubit_index(q) for q in instr.qubits])
    return data


def has_fused_block(circuit):
    return any(getattr(i.operation, "is_fused_block", False) for i in circuit.data)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("max_fused_qubits", [1, 2, 3, 4])
def test_fused_circuit_preserves_statevector(seed, max_fused_qubits):
    rng = np.random.default_rng(seed)
    circuit = random_circuit(6, 60, rng)
    fused = fuse_gates(circuit, max_fused_qubits)
    initial = random_state(6, rng)
    fused_state = StatevectorSimulator().evolve(fused, initial_state=initial)
    assert np.allclose(fused_state.data, gate_by_gate(circuit, initial), atol=ATOL)


@pytest.mark.parametrize("seed", range(3))
def test_simulator_fusion_on_off_agree(seed):
    # 10 qubits: wide enough that the simulator's fusion pre-pass engages
    rng = np.random.default_rng(100 + seed)
    circuit = random_circuit(10, 60, rng)
    assert has_fused_block(prepare(circuit))
    state = StatevectorSimulator().evolve(circuit)
    assert np.allclose(state.data, gate_by_gate(circuit), atol=ATOL)


def test_simulator_skips_fusion_below_size_threshold():
    rng = np.random.default_rng(200)
    small = random_circuit(4, 20, rng)
    assert prepare(small) is small  # a state pass is cheaper than fusing
    wide = random_circuit(10, 20, rng)
    assert prepare(wide) is not wide


def test_prepare_leaves_a_fused_circuit_alone():
    wide = random_circuit(10, 20, np.random.default_rng(201))
    prepared = prepare(wide)
    assert prepare(prepared) is prepared  # preparing twice never fuses twice
    by_hand = fuse_gates(wide, 2)
    assert prepare(by_hand) is by_hand


def test_noisy_engine_never_fuses(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("fused under noise")

    monkeypatch.setattr(simulator, "fuse_gates", refuse)
    wide = random_circuit(10, 20, np.random.default_rng(202))
    wide.measure_all()
    noisy = StatevectorSimulator(seed=1, noise_model=BitFlipNoise(0.01))
    assert sum(noisy.run(wide, shots=20).counts.values()) == 20
    with pytest.raises(AssertionError, match="fused under noise"):
        StatevectorSimulator(seed=1).run(wide, shots=20)


def test_noise_model_rejects_pre_fused_circuits():
    from repro.qsim import BitFlipNoise
    from repro.qsim.exceptions import SimulationError

    qc = QuantumCircuit(2, 2)
    qc.h(0)
    qc.t(0)
    qc.cx(0, 1)
    qc.measure([0, 1], [0, 1])
    fused = fuse_gates(qc)
    noisy = StatevectorSimulator(seed=1, noise_model=BitFlipNoise(0.1))
    with pytest.raises(SimulationError):
        noisy.run(fused, shots=10)
    # the unfused original runs fine
    assert sum(noisy.run(qc, shots=10).counts.values()) == 10


def test_fusion_shrinks_gate_count():
    rng = np.random.default_rng(1)
    circuit = random_circuit(6, 80, rng)
    fused = fuse_gates(circuit)
    assert fused.size() < circuit.size()
    summary = fusion_summary(circuit)
    assert summary["before"] == circuit.size()
    assert summary["after"] == fused.size()
    assert summary["fused_away"] > 0


def test_fusion_respects_support_bound():
    rng = np.random.default_rng(2)
    circuit = random_circuit(7, 80, rng)
    widest_input = max(i.operation.num_qubits for i in circuit.data)
    for max_fused in (2, 3):
        fused = fuse_gates(circuit, max_fused)
        for instr in fused.data:
            assert instr.operation.num_qubits <= max(max_fused, widest_input)


def test_single_gates_pass_through_unfused():
    qc = QuantumCircuit(3)
    qc.h(0)
    qc.ccx(0, 1, 2)
    fused = fuse_gates(qc, max_fused_qubits=1)
    assert [i.operation.name for i in fused.data] == ["h", "ccx"]


def test_adjacent_single_qubit_gates_fuse_to_one_unitary():
    qc = QuantumCircuit(1)
    qc.h(0)
    qc.t(0)
    qc.h(0)
    qc.s(0)
    fused = fuse_gates(qc)
    assert fused.size() == 1
    op = fused.data[0].operation
    assert isinstance(op, UnitaryGate)
    assert op.num_qubits == 1


def test_interleaved_disjoint_runs_still_fuse():
    qc = QuantumCircuit(2)
    for _ in range(3):
        qc.h(0)
        qc.h(1)
    fused = fuse_gates(qc, max_fused_qubits=1)
    assert fused.size() == 2  # one fused block per qubit


def test_fusion_never_crosses_non_unitary_instructions():
    qc = QuantumCircuit(2, 2)
    qc.h(0)
    qc.measure(0, 0)
    qc.x(0)
    qc.barrier()
    qc.x(0)
    qc.reset(1)
    qc.h(1)
    fused = fuse_gates(qc)
    kinds = [type(i.operation) for i in fused.data]
    assert kinds.count(Measure) == 1
    assert kinds.count(Reset) == 1
    assert kinds.count(Barrier) == 1
    # the two x gates sit on opposite sides of a barrier: they must survive
    names = [i.operation.name for i in fused.data]
    assert names == ["h", "measure", "x", "barrier", "x", "reset", "h"]


def test_mid_circuit_measurement_counts_match_with_fusion():
    # 10 qubits, so the engine fuses the gates around the mid-circuit measure
    qc = QuantumCircuit(10, 10)
    qc.h(0)
    qc.measure(0, 0)
    qc.cx(0, 1)
    qc.x(0)
    for qubit in range(2, 10):
        qc.h(qubit).t(qubit).h(qubit)
    qc.measure(list(range(1, 10)), list(range(1, 10)))
    assert has_fused_block(prepare(qc))
    fused = StatevectorSimulator(seed=42).run(qc, shots=300, memory=True)
    plain = run_batched(qc, None, 300, 42, memory=True)
    assert fused.metadata["method"] == plain.metadata["method"] == "batched_shots"
    assert fused.counts == plain.counts
    assert fused.memory == plain.memory


def test_run_of_diagonal_gates_fuses_to_diagonal_matrix():
    qc = QuantumCircuit(2)
    qc.s(0)
    qc.rz(0.3, 0)
    qc.cz(0, 1)
    qc.cp(0.5, 0, 1)
    qc.t(1)
    fused = fuse_gates(qc)
    assert fused.size() == 1
    matrix = fused.data[0].operation.to_matrix()
    assert np.allclose(matrix, np.diag(np.diagonal(matrix)), atol=ATOL)


def test_optimize_is_equivalent_and_never_fuses():
    rng = np.random.default_rng(3)
    circuit = random_circuit(5, 50, rng)
    optimized = optimize(circuit)
    assert np.allclose(gate_by_gate(optimized), gate_by_gate(circuit), atol=ATOL)
    # peephole-only, so metrics pipelines see real gates
    assert not has_fused_block(optimized)


def test_transpile_levels():
    rng = np.random.default_rng(4)
    circuit = random_circuit(5, 40, rng)
    level0 = transpile(circuit, optimization_level=0)
    assert level0.size() == circuit.size()
    level1 = transpile(circuit, optimization_level=1)
    assert level1.size() <= circuit.size()
    assert np.allclose(gate_by_gate(level1), gate_by_gate(circuit), atol=ATOL)
    with pytest.raises(ValueError, match="0 or 1"):
        transpile(circuit, optimization_level=2)


def test_fusion_rejects_bad_budget():
    with pytest.raises(ValueError):
        fuse_gates(QuantumCircuit(1), max_fused_qubits=0)



# ---------------------------------------------------------------------------
# Fused products are pinned bit for bit
# ---------------------------------------------------------------------------


def registry_circuit(num_qubits, num_gates, seed):
    """Uniformly drawn one- and two-qubit registry gates with uniform angles:
    the shape of perfbench's random circuit."""
    pool = [name for name, spec in gates.GATE_REGISTRY.items() if spec.num_qubits <= 2]
    rng = np.random.default_rng(seed)
    qc = QuantumCircuit(num_qubits)
    for _ in range(num_gates):
        name = pool[rng.integers(len(pool))]
        spec = gates.GATE_REGISTRY[name]
        params = list(rng.uniform(0, 2 * np.pi, spec.num_params))
        targets = [int(q) for q in rng.choice(num_qubits, spec.num_qubits, replace=False)]
        qc.append(Gate(name, spec.num_qubits, params), targets)
    return qc


def fused_digest(circuit, max_fused_qubits):
    """sha256 over every output instruction's qubits and matrix bytes."""
    fused = fuse_gates(circuit, max_fused_qubits)
    digest = hashlib.sha256()
    for instr in fused.data:
        digest.update(repr([fused.qubit_index(q) for q in instr.qubits]).encode())
        digest.update(instr.operation.to_matrix().tobytes())
    return digest.hexdigest()[:16]


#: digests of the fused products at each budget: a changed digest means
#: fused runs no longer reproduce their seed streams
FUSED_DIGESTS = {
    "kernels-0": {
        2: "aab2698d0d462600", 3: "5038c522ecdd551c",
        4: "b248a19b0243ebd0", 5: "712f6fe43e9216d8",
    },
    "kernels-1": {
        2: "fcc91313defc5d17", 3: "fce048e943ca4f61",
        4: "86ee701f880390b7", 5: "6e7e0752ba743c4b",
    },
    "registry-0": {
        2: "13cc60954fedea86", 3: "1461d8077dbde880",
        4: "ab51119e11c71578", 5: "ec86af6b61d90659",
    },
    "registry-1": {
        2: "491365d8ac1f75ea", 3: "0af76ce47aa4a1a5",
        4: "30ff591cb2dc53cb", 5: "d8fa6d7cac4a6322",
    },
    "registry-2": {
        2: "ef050b9144437a77", 3: "9d0f6811018b2545",
        4: "5be622f516fbff97", 5: "f0fac8b605c7259c",
    },
}


def digest_circuit(key):
    kind, seed = key.split("-")
    if kind == "registry":
        return registry_circuit(12, 400, int(seed))
    return random_circuit(8, 120, np.random.default_rng(int(seed)))


@pytest.mark.parametrize("key", sorted(FUSED_DIGESTS))
def test_fused_products_are_bit_identical(key):
    circuit = digest_circuit(key)
    assert {width: fused_digest(circuit, width) for width in (2, 3, 4, 5)} == FUSED_DIGESTS[key]
