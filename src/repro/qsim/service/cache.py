"""Compiled-circuit cache: repeat traffic skips the compile pipeline.

The service's expected traffic shape is many users submitting the *same*
circuits (textbook algorithms, benchmark corpora), so every worker compiles
through this cache.  Entries are keyed by a SHA-256 over
``(submitted circuit QASM, canonical backend name, noise config)`` -- the
exact inputs the compile pipeline depends on -- and live in two layers:

* a **persistent layer** (the ``compiled_circuits`` table of the
  :class:`~repro.qsim.service.store.JobStore`) holding the compiled
  circuit *as OpenQASM text*, shared by every worker on the database and
  surviving restarts;
* a **per-process memory layer** (bounded LRU) holding the ready-to-run
  :class:`~repro.qsim.circuit.QuantumCircuit` object, so a warm worker
  skips even the parse.  For noiseless statevector jobs the object is
  kept after :func:`repro.qsim.simulator.prepare`, the engine's own fusion
  function: its fused :class:`~repro.qsim.instruction.UnitaryGate` blocks
  have no QASM form, and the engine runs a prepared circuit as it is.

A circuit enters the memory layer on its **second sighting**: a miss
writes only the persistent layer, and a disk hit admits what it parsed.
The persistent layer is thus the doorkeeper, at no extra cost: a one-off
circuit never occupies worker memory (nor evicts a circuit that does come
back), and a repeated circuit pays one disk hit -- the parse of its stored
text plus ``prepare`` -- per worker before its memory hits.  A worker whose
first sighting is a disk hit (another worker compiled the circuit) admits
it at once.

Bit-equality across hit and miss paths is by construction: a **miss**
compiles (parse, peephole at optimization level 1), writes the compiled
QASM to the persistent layer, and executes the circuit that stored text
parses to, built without parsing it
(:func:`~repro.qsim.qasm.exported_circuit` snaps every parameter to its
written digits).  A later **disk hit** parses the identical text, so
both paths run a float-for-float identical circuit; a **memory hit** reuses
the very object a disk hit produced.  Noisy payloads are
deliberately *not* optimized (noise is defined per gate -- dropping a
cancelling gate pair would change the channel strength), so their cached
text is the submitted QASM itself and the cache only saves the parse.

A corrupted persistent entry (truncated file, hand-edited row) is detected
by the disk hit's parse, deleted, and transparently recompiled -- counted
in the per-job ``corrupt`` statistic rather than failing the job.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from .. import telemetry
from ..circuit import QuantumCircuit
from ..exceptions import QasmError
from ..qasm import exported_circuit, from_qasm, to_qasm
from ..simulator import prepare
from ..transpiler import transpile
from .payload import BatchPayload
from .store import JobStore

__all__ = ["CircuitCache"]

#: default bound on the per-process memory layer
DEFAULT_MEMORY_ENTRIES = 256


class CircuitCache:
    """Two-layer compile cache bound to one :class:`JobStore`."""

    def __init__(self, store: JobStore, max_memory_entries: int = DEFAULT_MEMORY_ENTRIES):
        self.store = store
        self.max_memory_entries = max_memory_entries
        self._memory: "OrderedDict[str, QuantumCircuit]" = OrderedDict()

    @staticmethod
    def key(qasm: str, backend_name: str, noise_tag: str) -> str:
        """SHA-256 cache key over everything the compile depends on."""
        digest = hashlib.sha256()
        for part in (backend_name.lower(), noise_tag, qasm):
            digest.update(part.encode("utf-8"))
            digest.update(b"\x00")
        return digest.hexdigest()

    # -- compile pipeline --------------------------------------------------------

    @staticmethod
    def _compile(qasm: str, noisy: bool) -> Tuple[str, Optional[QuantumCircuit]]:
        """Submitted QASM -> compiled QASM (the persistent-layer value), plus
        the circuit that text parses to, built without a parse (``None`` for
        a noisy payload, whose text is the submitted QASM)."""
        if noisy:
            # per-gate noise semantics forbid any gate-count-changing pass
            return qasm, None
        with telemetry.span("cache.parse"):
            circuit = from_qasm(qasm)
        compiled = transpile(circuit, optimization_level=1)
        return to_qasm(compiled), exported_circuit(compiled)

    @staticmethod
    def _finalize(circuit: QuantumCircuit, prepared: bool) -> QuantumCircuit:
        """Compiled circuit -> ready-to-run object (*prepared* for the
        statevector engine when it runs noiselessly)."""
        return prepare(circuit) if prepared else circuit

    def compiled(
        self,
        qasm: str,
        backend_name: str,
        noise_tag: str,
        prepared: bool,
    ) -> Tuple[QuantumCircuit, str]:
        """The ready-to-run circuit for *qasm*, plus how it was obtained.

        Returns ``(circuit, kind)`` with *kind* one of ``"memory_hit"``,
        ``"disk_hit"``, ``"miss"`` or ``"corrupt"`` (a persistent entry
        that failed to parse and was recompiled).  The returned object
        is shared between callers -- copy before mutating.
        """
        noisy = noise_tag != "noiseless"
        with telemetry.span("cache.lookup", backend=backend_name) as sp:
            circuit, kind = self._compiled_inner(qasm, backend_name, noise_tag, prepared, noisy)
        sp.tag(kind=kind)
        return circuit, kind

    def _compiled_inner(
        self,
        qasm: str,
        backend_name: str,
        noise_tag: str,
        prepared: bool,
        noisy: bool,
    ) -> Tuple[QuantumCircuit, str]:
        cache_key = self.key(qasm, backend_name, noise_tag)
        cached = self._memory.get(cache_key)
        if cached is not None:
            self._memory.move_to_end(cache_key)
            return cached, "memory_hit"

        kind = "miss"
        compiled_text = self.store.cache_get(cache_key)
        if compiled_text is not None:
            try:
                with telemetry.span("cache.parse"):
                    circuit = self._finalize(from_qasm(compiled_text), prepared)
            except QasmError:
                # corrupted persistent entry: drop it and recompile below
                self.store.cache_delete(cache_key)
                kind = "corrupt"
            else:
                # a second sighting: the circuit came back, so admit it
                self._memory[cache_key] = circuit
                while len(self._memory) > self.max_memory_entries:
                    self._memory.popitem(last=False)
                return circuit, "disk_hit"

        with telemetry.span("cache.compile", noisy=noisy):
            compiled_text, circuit = self._compile(qasm, noisy)
            self.store.cache_put(cache_key, backend_name.lower(), noise_tag, compiled_text)
            # execute what the store holds, not the in-flight object: a future
            # disk hit parses the identical text, so hit and miss paths run
            # float-for-float identical circuits
            if circuit is None:
                with telemetry.span("cache.parse"):
                    circuit = from_qasm(compiled_text)
            circuit = self._finalize(circuit, prepared)
        # a first sighting stays out of the memory layer until it comes back
        return circuit, kind

    def compile_batch(
        self,
        payload: BatchPayload,
        backend_name: str,
        prepared: bool,
    ) -> Tuple[list, Dict[str, int]]:
        """Compile every experiment of *payload* through the cache.

        Returns the ready-to-run circuits (named after their payload
        entries) and the hit/miss statistics that the worker exposes in the
        job's result metadata.
        """
        noise_tag = payload.noise_tag()
        stats = {"hits": 0, "memory_hits": 0, "disk_hits": 0, "misses": 0, "corrupt": 0}
        circuits = []
        with telemetry.span("cache.compile_batch", circuits=len(payload.circuits)):
            for index, entry in enumerate(payload.circuits):
                circuit, kind = self.compiled(entry["qasm"], backend_name, noise_tag, prepared)
                if kind == "memory_hit":
                    stats["memory_hits"] += 1
                elif kind == "disk_hit":
                    stats["disk_hits"] += 1
                else:
                    stats["misses"] += 1
                    if kind == "corrupt":
                        stats["corrupt"] += 1
                # the cached object is shared across jobs; run a cheap copy so
                # per-entry names never leak between payloads
                circuits.append(circuit.copy(name=entry.get("name", f"experiment-{index}")))
        stats["hits"] = stats["memory_hits"] + stats["disk_hits"]
        return circuits, stats
