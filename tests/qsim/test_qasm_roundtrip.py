"""Round-trip property tests: ``to_qasm`` and ``from_qasm`` keep each other honest.

Random circuits drawn from the exportable gate set are serialised and
re-imported; the reconstruction must be *structurally* identical (same
instruction names, qubit/clbit indices and parameters), which implies
bit-identical counts on every engine under a fixed seed.  Angles are drawn
unrounded: the exporter writes each parameter as the shortest text that
reads back as the same double, so every parameter must come back bit for
bit.

Also covers the exporter's register-name sanitisation (reserved words,
uppercase, qreg/creg collisions) and idempotence over the committed
benchmark corpus in ``benchmarks/circuits/``.
"""

import glob
import os

import numpy as np
import pytest

from repro.qsim import (
    ClassicalRegister,
    Gate,
    QuantumCircuit,
    QuantumRegister,
    from_qasm,
    is_clifford,
    to_qasm,
)
from repro.qsim.backends import get_backend
from repro.qsim.service import BatchPayload

CIRCUITS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "benchmarks",
    "circuits",
)

#: (name, num_params, num_qubits) for every directly exportable gate
EXPORTABLE_GATES = [
    ("id", 0, 1), ("x", 0, 1), ("y", 0, 1), ("z", 0, 1), ("h", 0, 1),
    ("s", 0, 1), ("sdg", 0, 1), ("t", 0, 1), ("tdg", 0, 1), ("sx", 0, 1),
    ("rx", 1, 1), ("ry", 1, 1), ("rz", 1, 1), ("p", 1, 1), ("u3", 3, 1),
    ("cx", 0, 2), ("cy", 0, 2), ("cz", 0, 2), ("ch", 0, 2), ("swap", 0, 2),
    ("cp", 1, 2), ("crx", 1, 2), ("cry", 1, 2), ("crz", 1, 2),
    ("ccx", 0, 3), ("cswap", 0, 3),
]

CLIFFORD_GATES = [
    ("x", 0, 1), ("y", 0, 1), ("z", 0, 1), ("h", 0, 1), ("s", 0, 1),
    ("sdg", 0, 1), ("sx", 0, 1), ("cx", 0, 2), ("cz", 0, 2), ("swap", 0, 2),
]


def random_circuit(
    seed: int,
    num_qubits: int = 4,
    num_gates: int = 25,
    gate_pool=EXPORTABLE_GATES,
    mid_measure: bool = False,
) -> QuantumCircuit:
    rng = np.random.default_rng(seed)
    qc = QuantumCircuit(num_qubits, num_qubits, name=f"random_{seed}")
    for _ in range(num_gates):
        if mid_measure and rng.random() < 0.15:
            q = int(rng.integers(num_qubits))
            if rng.random() < 0.5:
                qc.measure(q, q)
            else:
                qc.reset(q)
            continue
        name, num_params, arity = gate_pool[rng.integers(len(gate_pool))]
        qubits = [int(q) for q in rng.choice(num_qubits, size=arity, replace=False)]
        params = [float(rng.uniform(-np.pi, np.pi)) for _ in range(num_params)]
        qc.append(Gate(name, arity, params), qubits)
    qc.measure(list(range(num_qubits)), list(range(num_qubits)))
    return qc


def assert_structurally_equal(a: QuantumCircuit, b: QuantumCircuit) -> None:
    assert [i.operation.name for i in a.data] == [i.operation.name for i in b.data]
    assert a.num_qubits == b.num_qubits
    assert a.num_clbits == b.num_clbits
    for ia, ib in zip(a.data, b.data):
        assert [a.qubit_index(q) for q in ia.qubits] == [b.qubit_index(q) for q in ib.qubits]
        assert [a.clbit_index(c) for c in ia.clbits] == [b.clbit_index(c) for c in ib.clbits]
        assert [float(p).hex() for p in ia.operation.params] == [
            float(p).hex() for p in ib.operation.params
        ]


class TestExportImportRoundTrip:
    """from_qasm(to_qasm(c)) — structural identity, then counts on each engine."""

    @pytest.mark.parametrize("seed", range(6))
    def test_structural_identity(self, seed):
        original = random_circuit(seed, mid_measure=(seed % 2 == 0))
        restored = from_qasm(to_qasm(original))
        assert_structurally_equal(original, restored)

    @pytest.mark.parametrize("engine", ["statevector", "density_matrix"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_same_counts_dense_engines(self, engine, seed):
        original = random_circuit(seed, num_qubits=3, num_gates=15, mid_measure=True)
        restored = from_qasm(to_qasm(original))
        kwargs = dict(shots=200)
        counts_a = get_backend(engine, seed=11).run(original, **kwargs).result().get_counts()
        counts_b = get_backend(engine, seed=11).run(restored, **kwargs).result().get_counts()
        assert counts_a == counts_b

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_counts_stabilizer(self, seed):
        original = random_circuit(
            seed, num_qubits=6, num_gates=40, gate_pool=CLIFFORD_GATES, mid_measure=True
        )
        restored = from_qasm(to_qasm(original))
        assert is_clifford(restored)
        counts_a = get_backend("stabilizer", seed=5).run(original, shots=300).result().get_counts()
        counts_b = get_backend("stabilizer", seed=5).run(restored, shots=300).result().get_counts()
        assert counts_a == counts_b

    def test_lowered_gates_still_roundtrip_semantically(self):
        # mcx has no QASM2 form: the exporter lowers it, so compare behaviour
        qc = QuantumCircuit(4, 4)
        qc.x(0).x(1).x(2)
        qc.mcx([0, 1, 2], 3)
        qc.measure([0, 1, 2, 3], [0, 1, 2, 3])
        restored = from_qasm(to_qasm(qc))
        counts = get_backend("statevector", seed=1).run(restored, shots=50).result().get_counts()
        assert set(counts) == {"1111"}

    def test_payload_keeps_the_exact_angle(self):
        qc = QuantumCircuit(1, 1)
        qc.rz(np.pi / 3, 0)
        qc.measure(0, 0)
        (parsed,) = BatchPayload.from_circuits([qc]).parse_circuits()
        assert parsed.data[0].operation.params[0].hex() == (np.pi / 3).hex()


class TestImportExportRoundTrip:
    """to_qasm(from_qasm(s)) — the emitted program re-imports to the same circuit."""

    @pytest.mark.parametrize(
        "path",
        sorted(glob.glob(os.path.join(CIRCUITS_DIR, "*.qasm"))),
        ids=lambda p: os.path.basename(p),
    )
    def test_corpus_idempotence(self, path):
        with open(path, "r", encoding="utf-8") as handle:
            first = from_qasm(handle.read())
        second = from_qasm(to_qasm(first))
        assert_structurally_equal(first, second)
        assert to_qasm(second) == to_qasm(first)

    def test_corpus_has_the_scale_acceptance_circuit(self):
        paths = glob.glob(os.path.join(CIRCUITS_DIR, "*.qasm"))
        sizes = {}
        for path in paths:
            with open(path, "r", encoding="utf-8") as handle:
                qc = from_qasm(handle.read())
            if is_clifford(qc):
                sizes[os.path.basename(path)] = qc.num_qubits
        assert sizes and max(sizes.values()) >= 100


class TestRegisterNameSanitisation:
    """Regression: register names that are invalid OpenQASM 2.0 identifiers."""

    def test_reserved_word_and_uppercase_names(self):
        qc = QuantumCircuit(
            QuantumRegister(2, "gate"),
            QuantumRegister(1, "Measure"),
            ClassicalRegister(2, "creg"),
        )
        qc.h(0).cx(0, 1)
        qc.measure([0, 1], [0, 1])
        text = to_qasm(qc)
        assert "qreg gate[" not in text
        assert "Measure" not in text
        assert "creg creg[" not in text
        restored = from_qasm(text)   # the emitted program must re-parse
        assert_structurally_equal(qc, restored)

    def test_qreg_creg_name_collision(self):
        qc = QuantumCircuit(QuantumRegister(1, "q"), ClassicalRegister(1, "q"))
        qc.h(0)
        qc.measure(0, 0)
        text = to_qasm(qc)
        restored = from_qasm(text)
        assert_structurally_equal(qc, restored)

    def test_gate_name_collision_is_renamed(self):
        qc = QuantumCircuit(QuantumRegister(1, "h"))
        qc.h(0)
        text = to_qasm(qc)
        assert "qreg h[" not in text
        assert from_qasm(text).count_ops() == {"h": 1}

    def test_non_identifier_characters_replaced(self):
        qc = QuantumCircuit(QuantumRegister(1, "q-reg.0"))
        qc.x(0)
        restored = from_qasm(to_qasm(qc))
        assert restored.count_ops() == {"x": 1}

    def test_non_ascii_names_replaced(self):
        # unicode word characters are not valid QASM2 identifier characters
        qc = QuantumCircuit(QuantumRegister(1, "café"), QuantumRegister(1, "ψreg"))
        qc.x(0).h(1)
        text = to_qasm(qc)
        assert "café" not in text and "ψ" not in text
        assert from_qasm(text).count_ops() == {"x": 1, "h": 1}

    def test_rxx_rzz_export_and_roundtrip(self):
        # regression: rxx/rzz are importable qelib1 gates, so they must export
        qc = QuantumCircuit(2, 2)
        qc.append(Gate("rxx", 2, [0.5]), [0, 1])
        qc.append(Gate("rzz", 2, [0.25]), [0, 1])
        qc.measure([0, 1], [0, 1])
        text = to_qasm(qc)
        assert "rxx(0.5) q[0], q[1];" in text
        assert "rzz(0.25) q[0], q[1];" in text
        assert_structurally_equal(qc, from_qasm(text))

    def test_valid_names_pass_through_unchanged(self):
        qc = QuantumCircuit(QuantumRegister(2, "alpha"), ClassicalRegister(2, "beta"))
        qc.h(0)
        qc.measure(0, 0)
        text = to_qasm(qc)
        assert "qreg alpha[2];" in text
        assert "creg beta[2];" in text
