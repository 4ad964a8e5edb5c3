"""Seed-stream golden test for the engines on the small corpus.

Pins the sha256 of the counts and of the joined ``memory`` of seeded
noiseless runs of every corpus file of at most ten qubits, on the
statevector engine (the sampled path, or the batched executor for the
files with feed-forward) and on the density-matrix engine.  The noisy
keys pin the same files under depolarizing noise at p = 0 and p = 0.01,
each backend built by ``build_noisy_backend``: statevector and
density_matrix on every file, stabilizer on the Clifford ones.  Any change
to the gate arithmetic that moves a probability across a sampling
boundary, or to the random draw order, shows up here as a changed digest.

No corpus file of at most ten qubits runs a dense gate of two or more
qubits, so ``WIDE_DENSE_GOLDEN`` pins seeded random circuits that do:
fused random circuits of 10 to 16 qubits on the sampled path (fusion's
4-qubit blocks), and 6- and 8-qubit circuits of 2- and 3-qubit dense gates
on the batched statevector executor and the density matrix, noiseless
(p = 0) and at p = 0.01.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.qsim import QuantumCircuit, from_qasm, is_clifford
from repro.qsim.backends import build_noisy_backend
from repro.qsim.density import DensityMatrixSimulator
from repro.qsim.instruction import Gate
from repro.qsim.simulator import StatevectorSimulator

CIRCUITS = Path(__file__).resolve().parents[2] / "benchmarks" / "circuits"

SHOTS = 500
SEED = 7

ENGINES = {"statevector": StatevectorSimulator, "density_matrix": DensityMatrixSimulator}

#: (circuit, engine) -> sha256 of the sorted counts (JSON) and the joined memory
GOLDEN = {
    ("adder_n10", "statevector"): "f0289afb4a346e66c21b027d32d311e357773670ab01f0407dd34cff9371814f",
    ("adder_n10", "density_matrix"): "f0289afb4a346e66c21b027d32d311e357773670ab01f0407dd34cff9371814f",
    ("ghz_cond_n4", "statevector"): "d5f074a43c68d851429eb3306c984327fef60c052ab19c3ca4a0f74fa8b39e31",
    ("ghz_cond_n4", "density_matrix"): "1f32032b0dc0be5ba3ac098a7056773056d40d3a14d521af0616f8fddc51d502",
    ("qec_cond_n5", "statevector"): "2677d20cfdf643c877d77a68e7e92c898e716af972553d01741340a61c97bb92",
    ("qec_cond_n5", "density_matrix"): "2677d20cfdf643c877d77a68e7e92c898e716af972553d01741340a61c97bb92",
    ("qec_repetition_n5", "statevector"): "2677d20cfdf643c877d77a68e7e92c898e716af972553d01741340a61c97bb92",
    ("qec_repetition_n5", "density_matrix"): "2677d20cfdf643c877d77a68e7e92c898e716af972553d01741340a61c97bb92",
    ("qft_n8", "statevector"): "8a9a3fffb1795e52c6ebfd935152aa0fbb4a24db444f9203ade7c35d78d68dc8",
    ("qft_n8", "density_matrix"): "8a9a3fffb1795e52c6ebfd935152aa0fbb4a24db444f9203ade7c35d78d68dc8",
    ("teleport_cond_n3", "statevector"): "409f6823b9b410d8c9beef51a743218ca19ddcaea55b2b96bd390f4ddd8cab36",
    ("teleport_cond_n3", "density_matrix"): "61e3a09570fb428f24d972e02c83fd16515834d3f7cd15559367a0bd0a8a1492",
    ("teleport_n3", "statevector"): "cae73f8be20fdc1b1ff4204c35fd8f7e86da311bb2ad7b49c654f263cb41fa68",
    ("teleport_n3", "density_matrix"): "cae73f8be20fdc1b1ff4204c35fd8f7e86da311bb2ad7b49c654f263cb41fa68",
    ("wstate_n3", "statevector"): "cee0915c437271f44d19dd97828f96787c3ce3b0500cf0adcf0c01cd79634aa7",
    ("wstate_n3", "density_matrix"): "2eb9b1856edcd2da754039c0079af41469a86ffcc9f02ad121b9f2aa762fa6ce",
}

#: (circuit, engine, depolarizing p) -> the same digest, through build_noisy_backend
NOISY_GOLDEN = {
    ("adder_n10", "statevector", 0.0):
        "f0289afb4a346e66c21b027d32d311e357773670ab01f0407dd34cff9371814f",
    ("adder_n10", "statevector", 0.01):
        "59ff35bc4646641aed88fb586ada89bf89e06aa5449c974ae388cab4c98464bd",
    ("adder_n10", "density_matrix", 0.0):
        "f0289afb4a346e66c21b027d32d311e357773670ab01f0407dd34cff9371814f",
    ("adder_n10", "density_matrix", 0.01):
        "3d13a7cd67f043b8c2c64c970e4353fd32898ade405bd7c5d7e6b93ea041950a",
    ("ghz_cond_n4", "statevector", 0.0):
        "760a30ee5f916c498c0874bce9d9822885a3b87dbe76c6ce73a70a65260c7d02",
    ("ghz_cond_n4", "statevector", 0.01):
        "0852968834923c65d46aac3b7040de1a2023bef4fc94d24ad6c0c7d992e33906",
    ("ghz_cond_n4", "density_matrix", 0.0):
        "1f32032b0dc0be5ba3ac098a7056773056d40d3a14d521af0616f8fddc51d502",
    ("ghz_cond_n4", "density_matrix", 0.01):
        "8bf91326eda810b10c8459d1d7735a9bc1ec7f8626e0a5263006a8a7214ca297",
    ("ghz_cond_n4", "stabilizer", 0.0):
        "9803a04cf4dee549a03aec03f5a38ccd6aa56ea644f8319c9141d2a2f8190eab",
    ("ghz_cond_n4", "stabilizer", 0.01):
        "7c9f02df9dfc05f9cf37a6ffcb74cb39dc171fd749f5cba67211ea5db5ac4655",
    ("qec_cond_n5", "statevector", 0.0):
        "2677d20cfdf643c877d77a68e7e92c898e716af972553d01741340a61c97bb92",
    ("qec_cond_n5", "statevector", 0.01):
        "e0721a7c4bf97cd3e7e0b7fc66977ffba89e2e8c346a7ed47c3f8bf401f99b1b",
    ("qec_cond_n5", "density_matrix", 0.0):
        "2677d20cfdf643c877d77a68e7e92c898e716af972553d01741340a61c97bb92",
    ("qec_cond_n5", "density_matrix", 0.01):
        "42d04b5588beb21f2fcbf25ec4df7448d337e44df954adfac925fa06b70b742a",
    ("qec_cond_n5", "stabilizer", 0.0):
        "2677d20cfdf643c877d77a68e7e92c898e716af972553d01741340a61c97bb92",
    ("qec_cond_n5", "stabilizer", 0.01):
        "520e7b25652e29b85db16a0a7398b2928270cc37e103171c2ee18cf247841c9a",
    ("qec_repetition_n5", "statevector", 0.0):
        "2677d20cfdf643c877d77a68e7e92c898e716af972553d01741340a61c97bb92",
    ("qec_repetition_n5", "statevector", 0.01):
        "1511a9ffac3f9ca8005e4409c220a05b2b8f22da60d90533e65dce612870bad8",
    ("qec_repetition_n5", "density_matrix", 0.0):
        "2677d20cfdf643c877d77a68e7e92c898e716af972553d01741340a61c97bb92",
    ("qec_repetition_n5", "density_matrix", 0.01):
        "81416c60527dc6a03e56e0ce66c50db9c91eccdd228646c86fbc2d13a102af04",
    ("qec_repetition_n5", "stabilizer", 0.0):
        "2677d20cfdf643c877d77a68e7e92c898e716af972553d01741340a61c97bb92",
    ("qec_repetition_n5", "stabilizer", 0.01):
        "a02dfd4ae2da231e7cb4307941a1d09a7e9a635fde68cd66515421ab6f540b70",
    ("qft_n8", "statevector", 0.0):
        "b26499168a0eb32e3d19b205842870ceae05d9bb22a7e9ab1d11bc9688b5704a",
    ("qft_n8", "statevector", 0.01):
        "b26499168a0eb32e3d19b205842870ceae05d9bb22a7e9ab1d11bc9688b5704a",
    ("qft_n8", "density_matrix", 0.0):
        "8a9a3fffb1795e52c6ebfd935152aa0fbb4a24db444f9203ade7c35d78d68dc8",
    ("qft_n8", "density_matrix", 0.01):
        "8a9a3fffb1795e52c6ebfd935152aa0fbb4a24db444f9203ade7c35d78d68dc8",
    ("teleport_cond_n3", "statevector", 0.0):
        "987f19a845fdaacde8747319e951cc6bee0db394ff72ffce680ef9520518246e",
    ("teleport_cond_n3", "statevector", 0.01):
        "ea8295da929133ec5435644ffe9352f385cc905a91773e5e1355c6850c22ad38",
    ("teleport_cond_n3", "density_matrix", 0.0):
        "61e3a09570fb428f24d972e02c83fd16515834d3f7cd15559367a0bd0a8a1492",
    ("teleport_cond_n3", "density_matrix", 0.01):
        "ee7f667635415e30fbe13cd2c91a0adb1fe3c6166825408fb842a2de1aabc371",
    ("teleport_cond_n3", "stabilizer", 0.0):
        "6bbf54bcb88f2211c635d19d0920126c7a2d55d6e9838e6fe8d4959194f6e0c3",
    ("teleport_cond_n3", "stabilizer", 0.01):
        "43283255f9404d10666a6f1c1371ac50f3eed0679e2231275f9b10682c8b2ad3",
    ("teleport_n3", "statevector", 0.0):
        "7f6010c5b7982e0382ea352642768bb5da8eb5c5aa15c5d215f3d9a245eb42ef",
    ("teleport_n3", "statevector", 0.01):
        "7f6010c5b7982e0382ea352642768bb5da8eb5c5aa15c5d215f3d9a245eb42ef",
    ("teleport_n3", "density_matrix", 0.0):
        "cae73f8be20fdc1b1ff4204c35fd8f7e86da311bb2ad7b49c654f263cb41fa68",
    ("teleport_n3", "density_matrix", 0.01):
        "cae73f8be20fdc1b1ff4204c35fd8f7e86da311bb2ad7b49c654f263cb41fa68",
    ("teleport_n3", "stabilizer", 0.0):
        "43fda74bcceb9f6d9d474251377bd28d52a6835248ef2ceb65b56cdd97147f4b",
    ("teleport_n3", "stabilizer", 0.01):
        "ec0b66ba0e938cdda6a249175ca3a7ad19f9e2a21fb8bc17d74c111ba4d9f30c",
    ("wstate_n3", "statevector", 0.0):
        "8e461b01929b602b38606fb10141ccf26b01a9191ca635c837d62396dbb625c1",
    ("wstate_n3", "statevector", 0.01):
        "4586e140ddfa35efdae06730fb1b8e6284c273745d57b9fba54ddd8a76f58303",
    ("wstate_n3", "density_matrix", 0.0):
        "2eb9b1856edcd2da754039c0079af41469a86ffcc9f02ad121b9f2aa762fa6ce",
    ("wstate_n3", "density_matrix", 0.01):
        "9dc03407dc0e7f6acad31044813710dba36eed42f53aef3ace50c0b246b72dce",
}


def load(name: str):
    return from_qasm((CIRCUITS / f"{name}.qasm").read_text(encoding="utf-8"))


def result_digest(result) -> str:
    payload = json.dumps(sorted(result.counts.items())) + "\n" + "\n".join(result.memory)
    return hashlib.sha256(payload.encode()).hexdigest()


def digest(name: str, engine: str) -> str:
    return result_digest(ENGINES[engine](seed=SEED).run(load(name), shots=SHOTS, memory=True))


def noisy_digest(name: str, engine: str, p: float) -> str:
    backend = build_noisy_backend(engine, p, "depolarizing", seed=SEED)
    return result_digest(backend.run(load(name), shots=SHOTS, memory=True).result()[0])


def test_golden_covers_every_small_corpus_file():
    small = {
        path.stem
        for path in CIRCUITS.glob("*.qasm")
        if from_qasm(path.read_text(encoding="utf-8")).num_qubits <= 10
    }
    assert {name for name, _ in GOLDEN} == small
    noisy = {
        (name, engine, p)
        for name in small
        for engine in ("statevector", "density_matrix", "stabilizer")
        for p in (0.0, 0.01)
        if engine != "stabilizer" or is_clifford(load(name))
    }
    assert set(NOISY_GOLDEN) == noisy


@pytest.mark.parametrize("key", sorted(GOLDEN), ids=repr)
def test_counts_and_memory_match_golden_digest(key):
    assert digest(*key) == GOLDEN[key]


@pytest.mark.parametrize("key", sorted(NOISY_GOLDEN), ids=repr)
def test_noisy_counts_and_memory_match_golden_digest(key):
    assert noisy_digest(*key) == NOISY_GOLDEN[key]


# ---------------------------------------------------------------------------
# Dense gates of two or more qubits
# ---------------------------------------------------------------------------

#: the random-circuit gate pool of ``benchmarks/bench_kernels.py``
FUSED_POOL = (
    ("h", 1, 0), ("x", 1, 0), ("y", 1, 0), ("z", 1, 0), ("s", 1, 0),
    ("sdg", 1, 0), ("t", 1, 0), ("tdg", 1, 0), ("sx", 1, 0),
    ("rx", 1, 1), ("ry", 1, 1), ("rz", 1, 1), ("p", 1, 1), ("u3", 1, 3),
    ("cx", 2, 0), ("cy", 2, 0), ("cz", 2, 0), ("ch", 2, 0),
    ("swap", 2, 0), ("iswap", 2, 0),
    ("crx", 2, 1), ("cry", 2, 1), ("crz", 2, 1), ("cp", 2, 1),
)

#: gates that lower to a dense step of two qubits, plus ``"unitary"``: a
#: random unitary of two or three qubits
WIDE_DENSE_POOL = (
    ("h", 1, 0), ("t", 1, 0), ("rx", 1, 1),
    ("ch", 2, 0), ("crx", 2, 1), ("cry", 2, 1), ("rxx", 2, 1), ("ryy", 2, 1),
    ("unitary", 2, 0), ("unitary", 3, 0),
)


def random_circuit(pool, num_qubits: int, num_gates: int, seed: int) -> QuantumCircuit:
    """A measured random circuit drawn from *pool*, seeded by *seed*."""
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(num_qubits, num_qubits)
    for _ in range(num_gates):
        name, arity, num_params = pool[rng.integers(len(pool))]
        targets = [int(q) for q in rng.choice(num_qubits, arity, replace=False)]
        if name == "unitary":
            z = rng.normal(size=(2**arity,) * 2) + 1j * rng.normal(size=(2**arity,) * 2)
            circuit.unitary(np.linalg.qr(z)[0], targets)
        else:
            circuit.append(Gate(name, arity, list(rng.uniform(0, 2 * np.pi, num_params))), targets)
    circuit.measure(list(range(num_qubits)), list(range(num_qubits)))
    return circuit


def wide_dense_digest(case: str, num_qubits: int, engine: str, p) -> str:
    if case == "fused":  # fused on the noiseless sampled path
        circuit = random_circuit(FUSED_POOL, num_qubits, 30 * num_qubits, num_qubits)
        return result_digest(StatevectorSimulator(seed=SEED).run(circuit, shots=SHOTS, memory=True))
    circuit = random_circuit(WIDE_DENSE_POOL, num_qubits, 8 * num_qubits, 100 + num_qubits)
    backend = build_noisy_backend(engine, p, "depolarizing", seed=SEED)
    return result_digest(backend.run(circuit, shots=SHOTS, memory=True).result()[0])


#: (case, qubits, engine, depolarizing p) -> the digest of :func:`result_digest`
WIDE_DENSE_GOLDEN = {
    ('fused', 10, 'statevector', None):
        "7e68a87006ec07ad085fede2d6b41c69a5f19d9586422c649e0c9b64c532beac",
    ('fused', 12, 'statevector', None):
        "1b128cc8547488020dd0a321fea65a3c0d85d048e6d5abd061888275ded63ae9",
    ('fused', 14, 'statevector', None):
        "33f9e4966133789203c14a5b1ee12998499e6fb5178ee42425858a7e807cb346",
    ('fused', 16, 'statevector', None):
        "cd269e0fccbf33143a15cadd921d9aa3a24ddae1fee9bb9407751ff6060d00fd",
    ('dense', 6, 'statevector', 0.0):
        "97d3e9a2f49e48a7f74f733fd05657e1e139a6c4a445d1fa34c114efd1fdcd86",
    ('dense', 6, 'statevector', 0.01):
        "c36d3a6d237ea6d71c03d6fcaa5b484b48813141780cec886fb065ee9091331e",
    ('dense', 6, 'density_matrix', 0.0):
        "6d1be7ee541c84b5e2e7cc2efa089059a22fb9d698c0bd8c179e2076a803c0dc",
    ('dense', 6, 'density_matrix', 0.01):
        "dfa47f1c2cd4dee2bb0ad7396db74347edfd5669ebf37832c7c2e482fde1473d",
    ('dense', 8, 'statevector', 0.0):
        "88d3e1273045390b389474bdf6219506578fa91f00ddcfa3df00239206268800",
    ('dense', 8, 'statevector', 0.01):
        "9abfcfe8fe029120ebc472c7e251ad166c8eb6b20e636f13e6f0cbbbb525f119",
    ('dense', 8, 'density_matrix', 0.0):
        "c395e6620039f244e1e3c2a07e11cecaf7f2b8df9c8b13930ed713023f5c7091",
    ('dense', 8, 'density_matrix', 0.01):
        "7bdd4abbd68c17b704badf4ef807d7b87c8c31177a12dab449ff3723c0b236d5",
}


@pytest.mark.parametrize("key", sorted(WIDE_DENSE_GOLDEN, key=repr), ids=repr)
def test_wide_dense_counts_and_memory_match_golden_digest(key):
    assert wide_dense_digest(*key) == WIDE_DENSE_GOLDEN[key]
