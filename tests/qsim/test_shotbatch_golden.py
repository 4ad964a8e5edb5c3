"""Seed-stream golden test for the batched trajectory executor.

Pins the sha256 of the joined ``memory`` of seeded
:func:`~repro.qsim.shotbatch.run_batched` runs on five corpus files under
depolarizing noise, plus three circuits built here that stress the basis-row
prefix (a run whose leading instructions map basis states to phased basis
states).  Any change to the random draw order, to how the shots are split
into batches or to the arithmetic one trajectory sees shows up here as a
changed digest, at the default batch size and at one row at a time alike.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

import numpy as np

from repro.qsim import DepolarizingNoise, NoiseModel, QuantumCircuit, from_qasm
from repro.qsim.shotbatch import run_batched
from repro.qsim.statevector import Statevector

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
    ("qec_repetition_n5", 0.01, 1, None): "0f440bb5d19b663bc9c044fe1c9ffebbcb6ad6025ce6d0b74065f14b910098c4",
    ("qec_repetition_n5", 0.01, 1, 1): "0f440bb5d19b663bc9c044fe1c9ffebbcb6ad6025ce6d0b74065f14b910098c4",
    ("qec_repetition_n5", 0.01, 7, None): "a343c95fcd6b6b90ed55ab542c7d14ff893a366969b8f116e1d51e26764a98d3",
    ("qec_repetition_n5", 0.01, 7, 1): "a343c95fcd6b6b90ed55ab542c7d14ff893a366969b8f116e1d51e26764a98d3",
    ("qec_repetition_n5", 0.2, 1, None): "395c03d6c6c2425803c960cb0841cf9b8d4482549648e8c7a00fcb6a117c42f1",
    ("qec_repetition_n5", 0.2, 1, 1): "395c03d6c6c2425803c960cb0841cf9b8d4482549648e8c7a00fcb6a117c42f1",
    ("qec_repetition_n5", 0.2, 7, None): "ad6c58edc28d7451a6822741a860e51adbdcaea943e5f6e19de490e988cebb70",
    ("qec_repetition_n5", 0.2, 7, 1): "ad6c58edc28d7451a6822741a860e51adbdcaea943e5f6e19de490e988cebb70",
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


#: every touched qubit takes X, Y or Z, never nothing: each shot errs at
#: every noise site, so basis rows carry many distinct phases
EVERY_PAULI = NoiseModel.pauli(x=1 / 3, y=1 / 3, z=1 / 3)


def monomial_then_h():
    """Basis-mapping gates, a mid-circuit measure and reset, then ``h``,
    under noise that errs everywhere."""
    qc = QuantumCircuit(6, 6)
    qc.x(0).cx(0, 1).ccx(0, 1, 2).s(1).t(2).swap(2, 3).cp(0.3, 1, 3).y(4).rz(0.7, 0)
    qc.measure(4, 4)
    qc.reset(4)
    qc.h(1).cx(1, 5).t(5).h(5).cx(0, 4)
    qc.measure(list(range(6)), list(range(6)))
    return qc, EVERY_PAULI, None


def basis_free_start():
    """A monomial circuit started from a superposition: no basis prefix."""
    qc = QuantumCircuit(5, 5)
    qc.x(0).cx(0, 1).ccx(0, 1, 2).swap(2, 4)
    qc.measure(2, 2)
    qc.reset(2)
    qc.cx(1, 3)
    qc.measure(list(range(5)), list(range(5)))
    rng = np.random.default_rng(23)
    data = rng.normal(size=32) + 1j * rng.normal(size=32)
    return qc, DepolarizingNoise(0.05), Statevector(data / np.linalg.norm(data))


def phased_basis_start():
    """A phased basis state through conditioned basis-mapping gates, then ``h``."""
    qc = QuantumCircuit(5, 5)
    qc.cx(0, 1).measure(1, 1)
    qc.x(3).c_if(qc.cregs[0], 2)
    qc.ccx(0, 3, 4).t(4).h(2).cx(2, 4)
    qc.measure(list(range(5)), list(range(5)))
    data = np.zeros(32, dtype=complex)
    data[0b00101] = np.exp(0.4j)
    return qc, DepolarizingNoise(0.1), Statevector(data)


#: name -> builder of (circuit, noise model, initial state)
BUILT = {
    "monomial_then_h": monomial_then_h,
    "basis_free_start": basis_free_start,
    "phased_basis_start": phased_basis_start,
}

#: (built circuit, seed, batch_size) -> sha256 of "\n".join(memory)
GOLDEN_BUILT = {
    ("monomial_then_h", 1, None): "19c7d1f9c0d438bf535e300e7e25c7d5cdfdf89e0ba90f975d9f69cd38f3221b",
    ("monomial_then_h", 1, 1): "19c7d1f9c0d438bf535e300e7e25c7d5cdfdf89e0ba90f975d9f69cd38f3221b",
    ("monomial_then_h", 1, 7): "19c7d1f9c0d438bf535e300e7e25c7d5cdfdf89e0ba90f975d9f69cd38f3221b",
    ("monomial_then_h", 7, None): "a6125d69f3a4d548ed7ef025bb9ec79c5dced0015577da8675b00a16402a0642",
    ("monomial_then_h", 7, 1): "a6125d69f3a4d548ed7ef025bb9ec79c5dced0015577da8675b00a16402a0642",
    ("monomial_then_h", 7, 7): "a6125d69f3a4d548ed7ef025bb9ec79c5dced0015577da8675b00a16402a0642",
    ("basis_free_start", 1, None): "0bd8b83ab1ef156b73bf834281b8386a61d7f8f3a5ac20758a9cc4deccf502b8",
    ("basis_free_start", 1, 1): "0bd8b83ab1ef156b73bf834281b8386a61d7f8f3a5ac20758a9cc4deccf502b8",
    ("basis_free_start", 1, 7): "0bd8b83ab1ef156b73bf834281b8386a61d7f8f3a5ac20758a9cc4deccf502b8",
    ("basis_free_start", 7, None): "36c687b714a2af68d53a023e9ea91b41f2ec3b0c2b78050db5e8163df6121c2a",
    ("basis_free_start", 7, 1): "36c687b714a2af68d53a023e9ea91b41f2ec3b0c2b78050db5e8163df6121c2a",
    ("basis_free_start", 7, 7): "36c687b714a2af68d53a023e9ea91b41f2ec3b0c2b78050db5e8163df6121c2a",
    ("phased_basis_start", 1, None): "05ed475da2e72907c58756d571d06bf7b801864da562f53556256d23b1aea974",
    ("phased_basis_start", 1, 1): "05ed475da2e72907c58756d571d06bf7b801864da562f53556256d23b1aea974",
    ("phased_basis_start", 1, 7): "05ed475da2e72907c58756d571d06bf7b801864da562f53556256d23b1aea974",
    ("phased_basis_start", 7, None): "d707da2b1fdc1e1186bf7a0aae114770cdf66eb29928323f1ea3158c8ed0c285",
    ("phased_basis_start", 7, 1): "d707da2b1fdc1e1186bf7a0aae114770cdf66eb29928323f1ea3158c8ed0c285",
    ("phased_basis_start", 7, 7): "d707da2b1fdc1e1186bf7a0aae114770cdf66eb29928323f1ea3158c8ed0c285",
}


def built_digest(name: str, seed: int, batch_size) -> str:
    circuit, noise, initial_state = BUILT[name]()
    result = run_batched(
        circuit, noise, SHOTS, seed, memory=True, batch_size=batch_size,
        initial_state=initial_state,
    )
    return hashlib.sha256("\n".join(result.memory).encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(GOLDEN_BUILT, key=repr), ids=repr)
def test_built_memory_matches_golden_digest(key):
    assert built_digest(*key) == GOLDEN_BUILT[key]
