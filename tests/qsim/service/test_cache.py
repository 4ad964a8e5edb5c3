"""Cache-correctness property tests for the compiled-circuit cache.

The contract under test: a cache **hit must be invisible** -- same-seed
counts bit-equal to the miss path on every engine, noisy or not -- while
the cache **key must be sensitive** to everything the compile depends on
(backend, noise config, circuit text), and a corrupted persistent entry
must fall back to recompilation instead of failing the job.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.qsim import QuantumCircuit, from_qasm, get_backend, to_qasm, transpile
from repro.qsim.service import BatchPayload, CircuitCache, JobStore, execute_payload

CIRCUITS = Path(__file__).resolve().parents[3] / "benchmarks" / "circuits"


def dense_circuit(name="dense", num_qubits=4, num_gates=40, seed=2):
    """A non-Clifford workload for the statevector/density-matrix engines."""
    rng = np.random.default_rng(seed)
    qc = QuantumCircuit(num_qubits, num_qubits, name=name)
    for _ in range(num_gates):
        draw = rng.random()
        if draw < 0.4:
            getattr(qc, ["h", "x", "t", "s"][rng.integers(4)])(int(rng.integers(num_qubits)))
        elif draw < 0.7:
            qc.ry(float(rng.random() * 2.0), int(rng.integers(num_qubits)))
        else:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            qc.cx(int(a), int(b))
    qc.measure(list(range(num_qubits)), list(range(num_qubits)))
    return qc


def clifford_circuit(name="cliff", num_qubits=6):
    """A Clifford workload every engine (stabilizer included) accepts."""
    qc = QuantumCircuit(num_qubits, num_qubits, name=name)
    qc.h(0)
    for qubit in range(num_qubits - 1):
        qc.cx(qubit, qubit + 1)
    qc.s(1).h(2).z(3)
    qc.measure(list(range(num_qubits)), list(range(num_qubits)))
    return qc


#: ry(0.1) and ry(0.2) merge into ry(0.30000000000000004), which no
#: 12-digit text writes
MERGED_ROTATIONS = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
ry(0.1) q[0];
ry(0.2) q[0];
h q[1];
measure q -> c;
"""


def merged_rotations():
    return from_qasm(MERGED_ROTATIONS)


def counts_of(result_dict):
    return [experiment["counts"] for experiment in result_dict["results"]]


@pytest.fixture
def store(tmp_path):
    with JobStore(tmp_path / "cache.db") as job_store:
        yield job_store


def run_three_ways(store, payload):
    """Execute *payload* via the miss, disk-hit and memory-hit paths: a miss
    leaves memory alone, the second sighting parses the stored text and
    admits it, and the third reuses the admitted object."""
    cache = CircuitCache(store)
    miss = execute_payload(payload, cache)
    disk_hit = execute_payload(payload, cache)
    memory_hit = execute_payload(payload, cache)
    return miss, disk_hit, memory_hit


class TestHitMissBitEquality:
    @pytest.mark.parametrize(
        "backend,circuit_factory",
        [
            ("statevector", dense_circuit),
            ("density_matrix", dense_circuit),
            ("stabilizer", clifford_circuit),
            ("statevector", merged_rotations),
            ("density_matrix", merged_rotations),
        ],
    )
    def test_noiseless_hits_are_bit_equal(self, store, backend, circuit_factory):
        payload = BatchPayload.from_circuits(
            [circuit_factory()], shots=128, seed=7, backend=backend
        )
        miss, disk_hit, memory_hit = run_three_ways(store, payload)
        assert miss["metadata"]["cache"] == {
            "hits": 0, "memory_hits": 0, "disk_hits": 0, "misses": 1, "corrupt": 0,
        }
        assert disk_hit["metadata"]["cache"]["disk_hits"] == 1
        assert memory_hit["metadata"]["cache"]["memory_hits"] == 1
        assert counts_of(miss) == counts_of(disk_hit) == counts_of(memory_hit)
        assert sum(counts_of(miss)[0].values()) == 128

    @pytest.mark.parametrize(
        "backend,circuit_factory",
        [
            ("statevector", dense_circuit),
            ("density_matrix", dense_circuit),
            ("stabilizer", clifford_circuit),
        ],
    )
    def test_noisy_hits_are_bit_equal(self, store, backend, circuit_factory):
        payload = BatchPayload.from_circuits(
            [circuit_factory()],
            shots=64,
            seed=11,
            backend=backend,
            noise_p=0.02,
            noise_channel="depolarizing",
        )
        miss, disk_hit, memory_hit = run_three_ways(store, payload)
        assert counts_of(miss) == counts_of(disk_hit) == counts_of(memory_hit)
        assert miss["metadata"]["cache"]["misses"] == 1
        assert disk_hit["metadata"]["cache"]["disk_hits"] == 1
        assert memory_hit["metadata"]["cache"]["memory_hits"] == 1

    def test_multi_circuit_batch_mixes_hits_and_misses(self, store):
        cache = CircuitCache(store)
        first = BatchPayload.from_circuits([dense_circuit("a")], shots=16, seed=1)
        execute_payload(first, cache)  # a: miss
        execute_payload(first, cache)  # a: disk hit, admitted
        batch = BatchPayload.from_circuits(
            [dense_circuit("a"), dense_circuit("b", seed=9), dense_circuit("c", seed=4)],
            shots=16,
            seed=1,
        )
        other = BatchPayload.from_circuits([dense_circuit("b", seed=9)], shots=16, seed=1)
        execute_payload(other, cache)  # b: miss, not admitted
        result = execute_payload(batch, cache)  # a: memory, b: disk, c: miss
        assert result["metadata"]["cache"] == {
            "hits": 2, "memory_hits": 1, "disk_hits": 1, "misses": 1, "corrupt": 0,
        }


def test_service_and_local_runs_agree(store):
    """A noiseless statevector job counts exactly like a local run of the
    circuit the cache compiled: both sides fuse through the engine's one
    ``prepare``, so no seed stream depends on the path."""
    qasm = (CIRCUITS / "qft_n8.qasm").read_text()
    compiled = from_qasm(to_qasm(transpile(from_qasm(qasm), optimization_level=1)))
    cache = CircuitCache(store)
    for seed in range(20):
        payload = BatchPayload(
            circuits=[{"name": "qft_n8", "qasm": qasm}], shots=1000, seed=seed
        )
        service = counts_of(execute_payload(payload, cache))[0]
        local = get_backend("statevector").run(compiled, shots=1000, seed=seed)
        assert service == local.result().get_counts(), f"seed {seed}"


class TestKeySensitivity:
    def test_key_depends_on_all_three_components(self):
        base = CircuitCache.key("qasm-a", "statevector", "noiseless")
        assert CircuitCache.key("qasm-b", "statevector", "noiseless") != base
        assert CircuitCache.key("qasm-a", "density_matrix", "noiseless") != base
        assert CircuitCache.key("qasm-a", "statevector", "bit_flip:0.1") != base
        assert CircuitCache.key("qasm-a", "statevector", "noiseless") == base

    def test_changing_backend_misses(self, store):
        circuit = dense_circuit()
        for backend in ("statevector", "density_matrix"):
            payload = BatchPayload.from_circuits([circuit], shots=16, seed=3, backend=backend)
            result = execute_payload(payload, CircuitCache(store))
            assert result["metadata"]["cache"]["misses"] == 1
        assert store.stats()["cache_entries"] == 2

    def test_changing_noise_config_misses(self, store):
        circuit = dense_circuit()
        cache = CircuitCache(store)
        variants = [
            dict(),
            dict(noise_p=0.05),
            dict(noise_p=0.1),
            dict(noise_p=0.05, noise_channel="bit_flip"),
        ]
        for overrides in variants:
            payload = BatchPayload.from_circuits(
                [circuit], shots=16, seed=3, **overrides
            )
            result = execute_payload(payload, cache)
            assert result["metadata"]["cache"]["misses"] == 1
        assert store.stats()["cache_entries"] == len(variants)


class TestCorruptionFallback:
    def test_corrupted_entry_recompiles_instead_of_erroring(self, store):
        payload = BatchPayload.from_circuits([dense_circuit()], shots=64, seed=5)
        clean = execute_payload(payload, CircuitCache(store))

        key = CircuitCache.key(
            payload.circuits[0]["qasm"], "statevector", payload.noise_tag()
        )
        assert store.cache_get(key) is not None
        store.cache_put(key, "statevector", "noiseless", "OPENQASM 2.0; garbage(((")

        recovered = execute_payload(payload, CircuitCache(store))
        stats = recovered["metadata"]["cache"]
        assert stats == {
            "hits": 0, "memory_hits": 0, "disk_hits": 0, "misses": 1, "corrupt": 1,
        }
        assert counts_of(recovered) == counts_of(clean)
        # the bad row was replaced: the next fresh cache hits disk again
        after = execute_payload(payload, CircuitCache(store))
        assert after["metadata"]["cache"]["disk_hits"] == 1

    def test_memory_layer_is_lru_bounded(self, store):
        cache = CircuitCache(store, max_memory_entries=1)
        a = BatchPayload.from_circuits([dense_circuit("a")], shots=8, seed=1)
        b = BatchPayload.from_circuits([dense_circuit("b", seed=8)], shots=8, seed=1)
        execute_payload(a, cache)
        execute_payload(a, cache)  # admits a
        execute_payload(b, cache)
        execute_payload(b, cache)  # admits b, evicting a from memory
        stats = execute_payload(a, cache)["metadata"]["cache"]
        assert stats["disk_hits"] == 1  # still served from the persistent layer


def lookup(cache, circuit):
    """One noiseless statevector lookup of *circuit*: ``(circuit, kind)``."""
    return cache.compiled(to_qasm(circuit), "statevector", "noiseless", prepared=True)


class TestSecondSightingAdmission:
    """The memory layer admits a circuit only when it comes back: the
    persistent layer remembers the first sighting."""

    def test_a_miss_leaves_the_memory_layer_unchanged(self, store):
        cache = CircuitCache(store)
        lookup(cache, dense_circuit("a"))
        lookup(cache, dense_circuit("a"))
        before = dict(cache._memory)
        _, kind = lookup(cache, dense_circuit("b", seed=9))
        assert kind == "miss"
        assert dict(cache._memory) == before
        assert all(cache._memory[k] is v for k, v in before.items())

    def test_second_lookup_admits_and_third_is_a_memory_hit(self, store):
        cache = CircuitCache(store)
        circuit = dense_circuit()
        _, first = lookup(cache, circuit)
        assert (first, len(cache._memory)) == ("miss", 0)
        admitted, second = lookup(cache, circuit)
        assert (second, len(cache._memory)) == ("disk_hit", 1)
        reused, third = lookup(cache, circuit)
        assert third == "memory_hit"
        assert reused is admitted

    def test_first_sighting_as_a_disk_hit_admits_at_once(self, store):
        circuit = dense_circuit()
        assert lookup(CircuitCache(store), circuit)[1] == "miss"  # another worker
        cache = CircuitCache(store)
        assert lookup(cache, circuit)[1] == "disk_hit"
        assert lookup(cache, circuit)[1] == "memory_hit"

    def test_results_are_bit_equal_across_the_three_kinds(self, store):
        payload = BatchPayload.from_circuits(
            [dense_circuit(num_qubits=5, num_gates=60)], shots=512, seed=13, memory=True
        )
        results = run_three_ways(store, payload)
        kinds = [
            next(k for k in ("misses", "disk_hits", "memory_hits") if r["metadata"]["cache"][k])
            for r in results
        ]
        assert kinds == ["misses", "disk_hits", "memory_hits"]
        memories = [[e["memory"] for e in r["results"]] for r in results]
        assert counts_of(results[0]) == counts_of(results[1]) == counts_of(results[2])
        assert memories[0] == memories[1] == memories[2]

    def test_a_repeated_circuit_survives_a_scan_of_one_offs(self, store):
        cache = CircuitCache(store, max_memory_entries=2)
        repeated = dense_circuit("repeated")
        lookup(cache, repeated)
        assert lookup(cache, repeated)[1] == "disk_hit"
        for seed in range(100, 105):
            assert lookup(cache, dense_circuit(f"once-{seed}", seed=seed))[1] == "miss"
        assert lookup(cache, repeated)[1] == "memory_hit"
