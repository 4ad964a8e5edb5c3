"""The benchmark's four workloads, each driven through a public front door.

Every workload builds its inputs from the workload seed in :meth:`setup`
and :meth:`prepare_pass` (the program under test only ever sees the
generated QASM text, payloads or Qutes source), then :meth:`run_pass`
executes one fixed pass of operations closed loop from this process, checks
every output and returns one :class:`OpRecord` per operation.  Calls into
the program's layers are wrapped in spans from the factory handed in:
``repro.qsim.telemetry.span`` in a traced pass, :func:`untraced` otherwise,
so both passes run the same code.  The one addition of a traced pass is
that the service workload reads each finished job's telemetry artifact,
after the job's own timing has ended.

* ``feedforward`` -- the four mid-circuit / classically conditioned corpus
  files, noiseless on all three engines and depolarizing p=0.01 on
  statevector and stabilizer: every engine leaves its fast path here.
* ``static`` -- final-measurement corpus circuits plus a seeded random
  16-qubit/1000-gate circuit, which stay on the fast paths (sampling,
  batched noisy shots, density-matrix evolve, stabilizer tableau).
* ``service`` -- one worker process over a fresh sqlite store; three of
  every four jobs resubmit a corpus payload (compiled-circuit cache hit),
  the fourth is a freshly generated random circuit (cold compile).
* ``qutes`` -- the nine standard-library Qutes programs, each parsed and
  run as ``run_source`` does (``compile_source`` then ``run``).

Known cliffs are left out on purpose, because either would dominate every
pass: noisy ``bv_n14`` on statevector took 18.6 s at 2000 shots (15
qubits, ``batched_shots``) and ``adder_n10`` on density_matrix took 5.4 s.
A change aimed at either first adds its own workload.
"""

from __future__ import annotations

import math
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.lang.compiler import compile_source
from repro.lang.stdlib import get_program
from repro.qsim import QuantumCircuit, from_qasm, to_qasm
from repro.qsim.analysis import AnalysisTarget, analyze
from repro.qsim.backends import build_noisy_backend, get_backend
from repro.qsim.instruction import Gate
from repro.qsim.service import BatchPayload, JobStore, WorkerFleet, submit_payload
from repro.qsim.service import validation
from repro.qsim.telemetry.trace import NULL_SPAN

from bench_kernels import GATE_POOL
from bench_qasm import GOLDEN_SUPPORT
from bench_service import workload_circuit
from benchutil import total_variation

from measure import HostSpeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CIRCUITS_DIR = os.path.join(ROOT, "benchmarks", "circuits")

SV, DM, STAB = "statevector", "density_matrix", "stabilizer"
NOISE_P = 0.01

#: ``metadata["method"]`` values that are the engines' fast paths
FAST_METHODS = frozenset({"sampled", "batched_shots"})
#: ``metadata["method"]`` values of the per-shot loops
PER_SHOT_METHODS = frozenset({"per_shot", "per_shot_trajectory", "per_shot_chunked"})


def derive_seed(seed: int, *path: object) -> int:
    """A 32-bit seed derived from the workload seed and a label path."""
    words = [seed & 0xFFFFFFFF, (seed >> 32) & 0xFFFFFFFF]
    for part in path:
        if isinstance(part, int):
            words.append(part & 0xFFFFFFFF)
        else:
            words.extend(str(part).encode("utf-8"))
    return int(np.random.SeedSequence(words).generate_state(1)[0])


def untraced(name: str, **tags: object):
    """Stands in for ``telemetry.span`` in an untraced pass: records nothing."""
    return nullcontext(NULL_SPAN)


class Workload:
    """What every workload shares: its seed, hooks with nothing to do, pauses."""

    #: think time between operations: a sleep of PAUSE_S once PAUSE_AFTER_S
    #: of work has run since the last one
    PAUSE_S = 0.02
    PAUSE_AFTER_S = 0.05

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.host_speed = HostSpeed()
        self._working_since = time.perf_counter()

    def prepare_pass(self, index: int) -> None:
        """Make the inputs of pass *index* before it is timed."""

    def final_checks(self) -> List[List[str]]:
        """Checks on the whole run's outputs, each with the problems it found."""
        return []

    def teardown(self) -> None:
        """Stop whatever :meth:`setup` started."""

    def pause(self) -> None:
        """Think time before the next operation, outside any operation's timing.

        On a shared host a process that computes without a break keeps
        whatever speed the host gave it, and that can be 40% slow for a
        whole run.  A short sleep lets the host place it afresh, so every
        run meets the host's quiet moments and each operation's fastest
        time (see ``measure.pass_cost``) is one of them.  The host's
        reference speed is sampled after each sleep, on the same terms;
        twice, so that one sample runs with the reference's data in cache.
        """
        if time.perf_counter() - self._working_since >= self.PAUSE_AFTER_S:
            time.sleep(self.PAUSE_S)
            self.host_speed.sample()
            self.host_speed.sample()
            self._working_since = time.perf_counter()


@dataclass
class OpRecord:
    """One operation of a pass: how long it took and what it produced."""

    key: str
    seconds: float
    engine: str = ""
    shots: int = 0


def tvd_allowed(outcomes: int, shots: int) -> float:
    """The cross-engine TVD gate of ``bench_qasm.py`` at its default tolerance.

    Two independent samples of the same distribution differ by about
    ``0.75*sqrt(outcomes/shots)``; the gate allows 1.3x that plus 0.02,
    capped at 0.5 so total disagreement can never pass.
    """
    return min(0.5, 0.02 + 1.3 * math.sqrt(outcomes / shots))


# ---------------------------------------------------------------------------
# circuit workloads: QASM text -> analyze -> backend.run(...).result()
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CircuitOp:
    file: str
    engine: str
    shots: int
    noisy: bool = False

    @property
    def key(self) -> str:
        return f"{self.file}@{self.engine}" + ("+noise" if self.noisy else "")


#: the name under which the static workload's generated circuit runs
RANDOM_CIRCUIT = "random_n16"


def random_circuit_qasm(seed: int, num_qubits: int = 16, num_gates: int = 1000) -> str:
    """The ``bench_kernels`` random-circuit shape, measured, as QASM text.

    ``iswap`` is left out of the gate pool: OpenQASM 2.0 cannot express it.
    """
    pool = [entry for entry in GATE_POOL if entry[0] != "iswap"]
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(num_qubits, name=RANDOM_CIRCUIT)
    for _ in range(num_gates):
        name, arity, num_params = pool[rng.integers(len(pool))]
        params = list(rng.uniform(0, 2 * np.pi, num_params))
        targets = [int(q) for q in rng.choice(num_qubits, arity, replace=False)]
        circuit.append(Gate(name, arity, params), targets)
    circuit.measure_all()
    return to_qasm(circuit)


class CircuitWorkload(Workload):
    """Runs a fixed list of (file, engine, noise) operations per pass."""

    ops: Tuple[CircuitOp, ...] = ()
    #: shots of the warm-up pass that fills lazy imports and caches
    WARMUP_SHOTS = 16

    def setup(self) -> None:
        self.sources: Dict[str, str] = {}
        for op in self.ops:
            if op.file == RANDOM_CIRCUIT:
                self.sources[op.file] = random_circuit_qasm(derive_seed(self.seed, "random"))
            elif op.file not in self.sources:
                path = os.path.join(CIRCUITS_DIR, op.file + ".qasm")
                with open(path, "r", encoding="utf-8") as handle:
                    self.sources[op.file] = handle.read()
        self.backends = {
            op: build_noisy_backend(op.engine, NOISE_P) if op.noisy else get_backend(op.engine)
            for op in self.ops
        }
        #: noiseless counts of the run's passes, per (file, engine)
        self.pooled: Dict[Tuple[str, str], Counter] = {}
        for op in self.ops:
            self._execute(op, self.WARMUP_SHOTS, derive_seed(self.seed, "warmup"), untraced)

    def _execute(self, op: CircuitOp, shots: int, run_seed: int, span):
        with span("qasm.parse"):
            circuit = from_qasm(self.sources[op.file], name=op.file)
        with span("analysis.lint"):
            analyze(
                circuit,
                AnalysisTarget(
                    backend=op.engine,
                    shots=shots,
                    noise_p=NOISE_P if op.noisy else None,
                    noise_channel="depolarizing" if op.noisy else None,
                ),
            )
        with span("engine." + op.engine) as engine_span:
            experiment = self.backends[op].run(circuit, shots=shots, seed=run_seed).result()[0]
            engine_span.tag(shots=shots, method=experiment.metadata.get("method", ""))
        return experiment.counts

    def run_pass(self, index: int, span) -> Tuple[List[OpRecord], List[List[str]]]:
        records: List[OpRecord] = []
        problems: List[List[str]] = []
        for position, op in enumerate(self.ops):
            found: List[str] = []
            counts: Optional[Dict[str, int]] = None
            self.pause()
            started = time.perf_counter()
            try:
                counts = self._execute(op, op.shots, derive_seed(self.seed, index, position), span)
            except Exception as exc:  # noqa: BLE001 - a failed operation is counted, the run goes on
                found.append(f"{op.key}: raised {type(exc).__name__}: {exc}")
            seconds = time.perf_counter() - started
            if counts is not None:
                found.extend(self._check(op, counts))
                if not op.noisy:
                    self.pooled.setdefault((op.file, op.engine), Counter()).update(counts)
            records.append(
                OpRecord(op.key, seconds, op.engine, sum(counts.values()) if counts else 0)
            )
            problems.append(found)
        return records, problems

    @staticmethod
    def _check(op: CircuitOp, counts: Dict[str, int]) -> List[str]:
        found = []
        total = sum(counts.values())
        if total != op.shots:
            found.append(f"{op.key}: counts sum to {total}, not {op.shots} shots")
        golden = GOLDEN_SUPPORT.get(op.file + ".qasm")
        if not op.noisy and golden is not None and not set(counts) <= golden:
            found.append(f"{op.key}: outcomes {sorted(set(counts) - golden)} outside golden support")
        return found

    def final_checks(self) -> List[List[str]]:
        """Each noiseless engine against a file's first engine, on pooled counts.

        One check per (file, engine) pair, on the counts of every pass of
        the run: checked pass by pass, a two-outcome file at 100 shots would
        land outside bench_qasm's floor once in about 250 comparisons by
        chance alone.
        """
        checks: List[List[str]] = []
        first: Dict[str, Counter] = {}
        for (file, engine), counts in self.pooled.items():
            reference = first.setdefault(file, counts)
            if reference is counts:
                continue
            tvd = total_variation(reference, counts)
            outcomes = max(len(reference), len(counts))
            allowed = tvd_allowed(outcomes, min(sum(reference.values()), sum(counts.values())))
            checks.append(
                [f"{file}@{engine}: pooled TVD {tvd:.4f} to the first engine exceeds {allowed:.4f}"]
                if tvd > allowed
                else []
            )
        return checks


FEEDFORWARD_FILES = ("teleport_cond_n3", "ghz_cond_n4", "qec_cond_n5", "qec_repetition_n5")


#: per-shot loops cost the same per shot at any count; 100 shots keep an
#: operation under 0.2 s and a pass near 1 s, so a run holds about fifteen
#: passes and each operation's fastest time has that many chances to fall
#: in a quiet moment of the host
FEEDFORWARD_SHOTS = 100


class FeedforwardWorkload(CircuitWorkload):
    name = "feedforward"
    ops = tuple(
        op
        for file in FEEDFORWARD_FILES
        for op in (
            CircuitOp(file, SV, FEEDFORWARD_SHOTS),
            CircuitOp(file, DM, FEEDFORWARD_SHOTS),
            CircuitOp(file, STAB, FEEDFORWARD_SHOTS),
            CircuitOp(file, SV, FEEDFORWARD_SHOTS, noisy=True),
            CircuitOp(file, STAB, FEEDFORWARD_SHOTS, noisy=True),
        )
    )


class StaticWorkload(CircuitWorkload):
    name = "static"
    ops = (
        *(
            CircuitOp(file, SV, 2000)
            for file in ("qft_n8", "adder_n10", "bv_n14", "wstate_n3", "teleport_n3", RANDOM_CIRCUIT)
        ),
        CircuitOp("ghz_n127", STAB, 2000),
        CircuitOp("bv_n14", STAB, 2000),
        *(CircuitOp(file, DM, 2000) for file in ("qft_n8", "teleport_n3", "wstate_n3")),
        CircuitOp("qft_n8", SV, 2000, noisy=True),
        CircuitOp("adder_n10", SV, 2000, noisy=True),
        CircuitOp("bv_n14", STAB, 2000, noisy=True),
    )


# ---------------------------------------------------------------------------
# service: submit_payload -> poll JobStore.get -> result_dict
# ---------------------------------------------------------------------------


@contextmanager
def traced_calls(module, names: Dict[str, str], span) -> Iterator[None]:
    """Wrap ``module.<attr>`` calls in spans while the block runs.

    Times the service's own calls into the parse and lint layers at their
    real call sites, without changing the program: the attribute is
    restored on exit.
    """
    originals = {attr: getattr(module, attr) for attr in names}

    def wrap(function, span_name):
        def timed(*args, **kwargs):
            with span(span_name):
                return function(*args, **kwargs)

        return timed

    try:
        for attr, span_name in names.items():
            setattr(module, attr, wrap(originals[attr], span_name))
        yield
    finally:
        for attr, function in originals.items():
            setattr(module, attr, function)


class ServiceWorkload(Workload):
    name = "service"
    HIT_FILES = ("qft_n8", "adder_n10", "bv_n14", "wstate_n3", "teleport_n3")
    SHOTS = 1000
    #: a pass is ROUNDS x (three cache-hit jobs, then one cold-compile job)
    ROUNDS = 10
    WORKER_POLL_S = 0.002
    CLIENT_POLL_S = 0.001
    JOB_TIMEOUT_S = 60.0

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.fleet: Optional[WorkerFleet] = None
        self.store: Optional[JobStore] = None
        self.worker_stats: Dict[str, float] = defaultdict(float)
        self.worker_traces: List[dict] = []

    @property
    def db_path(self) -> str:
        return os.path.join(self.workdir, f"service-{os.getpid()}.db")

    def setup(self) -> None:
        self._remove_db()
        os.makedirs(self.workdir, exist_ok=True)
        self.store = JobStore(self.db_path)
        self.fleet = WorkerFleet(
            self.db_path, workers=1, poll_interval=self.WORKER_POLL_S
        ).start()
        self.hits = []
        for position, file in enumerate(self.HIT_FILES):
            with open(os.path.join(CIRCUITS_DIR, file + ".qasm"), "r", encoding="utf-8") as handle:
                circuit = from_qasm(handle.read(), name=file)
            payload = BatchPayload.from_circuits(
                [circuit], shots=self.SHOTS, seed=derive_seed(self.seed, "hit", position)
            )
            self.hits.append((file, payload))
        # each corpus payload's first run is its cold miss: its counts are
        # the reference every later cache hit must reproduce bit for bit
        self.reference = {}
        for file, payload in self.hits:
            self.reference[file] = self._job(payload, untraced)[0]["results"][0]["counts"]
        self._job(self._fresh_payload("warmup"), untraced)

    def _fresh_payload(self, *path: object) -> BatchPayload:
        circuit = workload_circuit(10, 200, derive_seed(self.seed, "miss", *path))
        return BatchPayload.from_circuits(
            [circuit], shots=self.SHOTS, seed=derive_seed(self.seed, "miss-run", *path)
        )

    def prepare_pass(self, index: int) -> None:
        """The pass's fresh circuits, one per round, made before it is timed."""
        self.misses = [self._fresh_payload(index, round_index) for round_index in range(self.ROUNDS)]

    def teardown(self) -> None:
        if self.fleet is not None:
            self.fleet.terminate()
            for process in self.fleet.processes:
                if process.is_alive():
                    process.kill()
                    process.join(5.0)
            self.fleet = None
        if self.store is not None:
            self.store.close()
            self.store = None
        self._remove_db()

    def _remove_db(self) -> None:
        for suffix in ("", "-wal", "-shm"):
            if os.path.exists(self.db_path + suffix):
                os.remove(self.db_path + suffix)

    def _job(self, payload: BatchPayload, span):
        """One closed-loop job; returns (result dict, record, seconds per phase)."""
        started = time.perf_counter()
        with span("service.submit"):
            job_id, _, rejected = submit_payload(self.store, payload)
        submitted = time.perf_counter()
        if rejected:
            raise RuntimeError(f"payload rejected at submit: {self.store.get(job_id).error}")
        deadline = submitted + self.JOB_TIMEOUT_S
        with span("service.wait"):
            record = self.store.get(job_id)
            while not record.is_terminal:
                if time.perf_counter() > deadline:
                    raise TimeoutError(f"job {job_id} still {record.state}")
                time.sleep(self.CLIENT_POLL_S)
                record = self.store.get(job_id)
        waited = time.perf_counter()
        if record.state != "DONE":
            raise RuntimeError(f"job {job_id} ended {record.state}: {record.error}")
        with span("service.fetch"):
            result = record.result_dict()
        finished = time.perf_counter()
        return result, record, (submitted - started, waited - submitted, finished - waited)

    def run_pass(self, index: int, span) -> Tuple[List[OpRecord], List[List[str]]]:
        records: List[OpRecord] = []
        problems: List[List[str]] = []
        patched = {"from_qasm": "qasm.parse", "analyze": "analysis.lint"}
        with traced_calls(validation, patched, span):
            for round_index in range(self.ROUNDS):
                for slot in range(4):
                    position = round_index * 4 + slot
                    if slot < 3:
                        file, payload = self.hits[(round_index * 3 + slot) % len(self.hits)]
                    else:
                        file, payload = "random", self.misses[round_index]
                    label = f"job{position:02d}.{file}"
                    found: List[str] = []
                    self.pause()
                    started = time.perf_counter()
                    try:
                        with span("service.job"):
                            result, record, phases = self._job(payload, span)
                    except Exception as exc:  # noqa: BLE001 - a failed job is counted, the run goes on
                        found.append(f"{label}: {type(exc).__name__}: {exc}")
                        result = None
                    seconds = time.perf_counter() - started
                    if result is not None:
                        counts = result["results"][0]["counts"]
                        shots = sum(counts.values())
                        if shots != self.SHOTS:
                            found.append(f"{label}: counts sum to {shots}, not {self.SHOTS}")
                        if file in self.reference and counts != self.reference[file]:
                            found.append(f"{label}: cache-hit counts differ from the cold miss")
                        if span is not untraced:
                            self._account_worker(record, result, seconds, phases)
                    # one key per payload: its six resubmissions a pass (or the
                    # ten fresh circuits) are one operation, timed six times
                    records.append(OpRecord(file, seconds))
                    problems.append(found)
        return records, problems

    #: worker-side totals and the job-trace span each one sums
    WORKER_SPANS = {
        "claim_s": "claim",
        "compile_s": "cache.compile_batch",
        "engine_s": "backend.run",
        "finalize_s": "finalize",
    }

    def _account_worker(self, record, result, seconds: float, phases) -> None:
        """Fold one DONE job's persisted telemetry artifact into worker totals."""
        artifact = record.telemetry_dict()
        stats = self.worker_stats
        for child in artifact["trace"].get("children", ()):
            for metric, span_name in self.WORKER_SPANS.items():
                if child["name"] == span_name:
                    stats[metric] += child["wall_s"]
        cache = result["metadata"]["cache"]
        stats["cache_hits"] += cache["hits"]
        stats["cache_lookups"] += cache["hits"] + cache["misses"]
        # the round trip minus everything attributed: polling and commits
        submit_s, _, fetch_s = phases
        stats["unattributed_s"] += seconds - submit_s - fetch_s - artifact["duration_s"]
        self.worker_traces.append(artifact["trace"])


# ---------------------------------------------------------------------------
# qutes: the standard-library programs, parsed and run as run_source does
# ---------------------------------------------------------------------------


class QutesWorkload(Workload):
    name = "qutes"
    #: program -> every output it may print (deterministic ones have one)
    EXPECTED: Dict[str, Sequence[str]] = {
        "quantum_addition": ("42",),
        "superposition_addition": ("5", "7", "9", "11"),
        "grover_substring": ("true",),
        "cyclic_shift": ("76",),
        "deutsch_jozsa_balanced": ("balanced",),
        "deutsch_jozsa_constant": ("constant",),
        "bell_pair": ("true",),
        "coin_flip": ("heads", "tails"),
        "quantum_counter": ("4",),
    }

    #: the default 16-character haystack finds its match with probability
    #: 0.96 per attempt, and each retry allocates four more qubits on the
    #: live statevector: 4% of runs take 20x longer at 24 qubits and 0.16%
    #: would need 2^28 amplitudes.  This haystack has two matches among eight
    #: positions, where one Grover iteration succeeds with certainty, so
    #: every run does the same 13-qubit work.
    PARAMETERS = {"grover_substring": {"text": "0111010111", "pattern": "111"}}

    def setup(self) -> None:
        self.sources = {
            name: get_program(name, **self.PARAMETERS.get(name, {})) for name in self.EXPECTED
        }
        for source in self.sources.values():
            compile_source(source).run(seed=derive_seed(self.seed, "warmup"))

    def run_pass(self, index: int, span) -> Tuple[List[OpRecord], List[List[str]]]:
        records: List[OpRecord] = []
        problems: List[List[str]] = []
        for position, (name, source) in enumerate(self.sources.items()):
            run_seed = derive_seed(self.seed, index, position)
            found: List[str] = []
            self.pause()
            started = time.perf_counter()
            try:
                # run_source is exactly these two public steps; split so the
                # parse and the interpreter are timed apart
                with span("lang.parse"):
                    program = compile_source(source)
                with span("lang.interpret") as interpret_span:
                    result = program.run(seed=run_seed)
                    interpret_span.tag(gates=sum(result.gate_counts.values()))
                if result.printed not in self.EXPECTED[name]:
                    found.append(f"{name}: printed {result.printed!r}, expected {self.EXPECTED[name]}")
            except Exception as exc:  # noqa: BLE001 - a failed program is counted, the run goes on
                found.append(f"{name}: raised {type(exc).__name__}: {exc}")
            records.append(OpRecord(name, time.perf_counter() - started))
            problems.append(found)
        return records, problems


WORKLOADS = {
    cls.name: cls
    for cls in (FeedforwardWorkload, StaticWorkload, ServiceWorkload, QutesWorkload)
}
