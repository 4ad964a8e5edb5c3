"""Seed-stream golden test for the noiseless dense engines.

Pins the sha256 of the counts and of the joined ``memory`` of seeded
noiseless runs of every corpus file of at most ten qubits, on the
statevector engine (the sampled path, or the batched executor for the
files with feed-forward) and on the density-matrix engine.  Any change to
the gate arithmetic that moves a probability across a sampling boundary,
or to the random draw order, shows up here as a changed digest.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.qsim import from_qasm
from repro.qsim.density import DensityMatrixSimulator
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


def digest(name: str, engine: str) -> str:
    circuit = from_qasm((CIRCUITS / f"{name}.qasm").read_text(encoding="utf-8"))
    result = ENGINES[engine](seed=SEED).run(circuit, shots=SHOTS, memory=True)
    payload = json.dumps(sorted(result.counts.items())) + "\n" + "\n".join(result.memory)
    return hashlib.sha256(payload.encode()).hexdigest()


def test_golden_covers_every_small_corpus_file():
    small = {
        path.stem
        for path in CIRCUITS.glob("*.qasm")
        if from_qasm(path.read_text(encoding="utf-8")).num_qubits <= 10
    }
    assert {name for name, _ in GOLDEN} == small


@pytest.mark.parametrize("key", sorted(GOLDEN), ids=repr)
def test_counts_and_memory_match_golden_digest(key):
    assert digest(*key) == GOLDEN[key]
