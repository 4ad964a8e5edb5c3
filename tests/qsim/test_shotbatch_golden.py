"""Seed-stream golden test for the batched trajectory executor.

Pins the sha256 of the joined ``memory`` of seeded
:func:`~repro.qsim.shotbatch.run_batched` runs on four corpus files under
depolarizing noise.  Any change to the random draw order, to how the shots
are split into batches or to the arithmetic one trajectory sees shows up
here as a changed digest, at the default batch size and at one row at a
time alike.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.qsim import DepolarizingNoise, from_qasm
from repro.qsim.shotbatch import run_batched

CIRCUITS = Path(__file__).resolve().parents[2] / "benchmarks" / "circuits"

SHOTS = 300

#: (circuit, p, seed, batch_size) -> sha256 of "\n".join(memory)
GOLDEN = {
    ("adder_n10", 0.01, 1, None): "6a5de176ebb42cd7443aa1285d36a0a07390162274e430378ebb006fbad94d97",
    ("adder_n10", 0.01, 1, 1): "6a5de176ebb42cd7443aa1285d36a0a07390162274e430378ebb006fbad94d97",
    ("adder_n10", 0.01, 7, None): "5c1411e361c9a24aa20a3ef749120070bbb42511fd9ede4fdacefcb63d0ec29a",
    ("adder_n10", 0.01, 7, 1): "5c1411e361c9a24aa20a3ef749120070bbb42511fd9ede4fdacefcb63d0ec29a",
    ("adder_n10", 0.2, 1, None): "3a55d18470d68ad83df5499cd2dbcdcc7897b5ddeff5719e383bb148afa9b2b4",
    ("adder_n10", 0.2, 1, 1): "3a55d18470d68ad83df5499cd2dbcdcc7897b5ddeff5719e383bb148afa9b2b4",
    ("adder_n10", 0.2, 7, None): "a68d68ffb12186482d827a46efbdc9be1827cbb3eceb70a597b6a0dddcdcbb04",
    ("adder_n10", 0.2, 7, 1): "a68d68ffb12186482d827a46efbdc9be1827cbb3eceb70a597b6a0dddcdcbb04",
    ("qft_n8", 0.01, 1, None): "8527c00d6e5b0f002f72ef186128a013fdfc70e755fbd4625b6ef12e2f71a6c4",
    ("qft_n8", 0.01, 1, 1): "8527c00d6e5b0f002f72ef186128a013fdfc70e755fbd4625b6ef12e2f71a6c4",
    ("qft_n8", 0.01, 7, None): "9cc76dbef0ee05d7e7eb57feb7eed48e909b2bf7e33188f9f405240597dd0c31",
    ("qft_n8", 0.01, 7, 1): "9cc76dbef0ee05d7e7eb57feb7eed48e909b2bf7e33188f9f405240597dd0c31",
    ("qft_n8", 0.2, 1, None): "8527c00d6e5b0f002f72ef186128a013fdfc70e755fbd4625b6ef12e2f71a6c4",
    ("qft_n8", 0.2, 1, 1): "8527c00d6e5b0f002f72ef186128a013fdfc70e755fbd4625b6ef12e2f71a6c4",
    ("qft_n8", 0.2, 7, None): "9cc76dbef0ee05d7e7eb57feb7eed48e909b2bf7e33188f9f405240597dd0c31",
    ("qft_n8", 0.2, 7, 1): "9cc76dbef0ee05d7e7eb57feb7eed48e909b2bf7e33188f9f405240597dd0c31",
    ("teleport_cond_n3", 0.01, 1, None): "f187e8ec99d3a2ababf6c9f611267292081e024dc8241a97c26ee1446e30b7e0",
    ("teleport_cond_n3", 0.01, 1, 1): "f187e8ec99d3a2ababf6c9f611267292081e024dc8241a97c26ee1446e30b7e0",
    ("teleport_cond_n3", 0.01, 7, None): "1774ff9a44831953d5cd97243f7407886372548e0c38d306630731d3b2785f0c",
    ("teleport_cond_n3", 0.01, 7, 1): "1774ff9a44831953d5cd97243f7407886372548e0c38d306630731d3b2785f0c",
    ("teleport_cond_n3", 0.2, 1, None): "bbe601bc1bae3aba45de06fdbf3a21a9e2e15d0062cfa53ac1aad4b8b8a2a34c",
    ("teleport_cond_n3", 0.2, 1, 1): "bbe601bc1bae3aba45de06fdbf3a21a9e2e15d0062cfa53ac1aad4b8b8a2a34c",
    ("teleport_cond_n3", 0.2, 7, None): "1fbeeb36410dd199ea7ba4a856dc94469087e2c612e63bca1386a8a649193058",
    ("teleport_cond_n3", 0.2, 7, 1): "1fbeeb36410dd199ea7ba4a856dc94469087e2c612e63bca1386a8a649193058",
    ("qec_cond_n5", 0.01, 1, None): "3252e03f1c9fc48ebcc862526a8f8dec68424e53da3ae014f6e75e05c7a25e2a",
    ("qec_cond_n5", 0.01, 1, 1): "3252e03f1c9fc48ebcc862526a8f8dec68424e53da3ae014f6e75e05c7a25e2a",
    ("qec_cond_n5", 0.01, 7, None): "e6715e009ffe56abb64ebc17f490c4b417feae0fccaf45ba8a7e88fec3cdc5c1",
    ("qec_cond_n5", 0.01, 7, 1): "e6715e009ffe56abb64ebc17f490c4b417feae0fccaf45ba8a7e88fec3cdc5c1",
    ("qec_cond_n5", 0.2, 1, None): "b655c8b2fb77277199fce424dd3adcecd975527134ab2851a697bab791912ab9",
    ("qec_cond_n5", 0.2, 1, 1): "b655c8b2fb77277199fce424dd3adcecd975527134ab2851a697bab791912ab9",
    ("qec_cond_n5", 0.2, 7, None): "b22455fd83e526ba8dd2ab89f44210b5a02c453612701bd17df5c2958ce71918",
    ("qec_cond_n5", 0.2, 7, 1): "b22455fd83e526ba8dd2ab89f44210b5a02c453612701bd17df5c2958ce71918",
}


def memory_digest(name: str, p: float, seed: int, batch_size) -> str:
    circuit = from_qasm((CIRCUITS / f"{name}.qasm").read_text(encoding="utf-8"))
    result = run_batched(
        circuit, DepolarizingNoise(p), SHOTS, seed, memory=True, batch_size=batch_size
    )
    return hashlib.sha256("\n".join(result.memory).encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(GOLDEN, key=repr), ids=repr)
def test_memory_matches_golden_digest(key):
    assert memory_digest(*key) == GOLDEN[key]
