"""Qobj-style batch payload: many circuits + shared run config, as text.

A submission to the execution service is one :class:`BatchPayload` -- the
shape qiskit's qobj pioneered: a list of experiments (circuits) that share
one run configuration (shots, seed, backend, noise channel).  Payloads are
serialized for the job store via the existing OpenQASM 2.0 round-trip
(:func:`repro.qsim.qasm.to_qasm` / :func:`~repro.qsim.qasm.from_qasm`), so
the database only ever holds JSON-wrapped text: durable across interpreter
versions, inspectable with any sqlite client, and never a pickle.

Circuits that cannot be expressed in OpenQASM 2.0 (``initialize``-based
states) are rejected at *submission* time with the exporter's
:class:`~repro.qsim.exceptions.CircuitError` -- a malformed payload never
reaches the queue.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..circuit import QuantumCircuit, _with_final_measure
from ..exceptions import SimulationError
from ..noise import DEFAULT_NOISE_CHANNEL, NOISE_CHANNELS
from ..qasm import from_qasm, to_qasm
from .store import ServiceError

__all__ = ["BatchPayload", "PAYLOAD_VERSION"]

#: bumped whenever the JSON shape changes incompatibly
PAYLOAD_VERSION = 1


@dataclass
class BatchPayload:
    """One service submission: named QASM circuits plus shared run config.

    Attributes:
        circuits: ``[{"name": ..., "qasm": ...}, ...]`` experiment entries.
        shots: shots per circuit.
        seed: base seed; experiment ``i`` runs with ``seed + i`` (the
            backend API's batch semantics), making a re-run after a worker
            crash bit-identical to an uninterrupted one.  ``None`` runs
            unseeded (results are then not reproducible across attempts).
        backend: registry name of the execution backend.
        noise: ``{"p": float, "channel": str}`` or ``None``; mapped onto
            the backend via
            :func:`repro.qsim.backends.build_noisy_backend`, exactly like
            the CLI's ``--noise``/``--noise-model`` flags.  Read it through
            :attr:`noise_p` and :attr:`noise_channel`.
        memory: also record per-shot bitstrings.
        metadata: caller extras, carried through to the job artifacts.
    """

    circuits: List[Dict[str, str]]
    shots: int = 1024
    seed: Optional[int] = None
    backend: str = "statevector"
    noise: Optional[Dict[str, Any]] = None
    memory: bool = False
    metadata: Dict[str, Any] = field(default_factory=dict)
    #: ``noise`` normalised once, when built or parsed (``None`` if noiseless)
    noise_p: Optional[float] = field(init=False, repr=False, compare=False)
    noise_channel: Optional[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.noise_p = self.noise_channel = None
        if self.noise is None:
            return
        try:
            self.noise_p = float(self.noise["p"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(f"malformed payload noise {self.noise!r}") from exc
        self.noise_channel = self.noise.get("channel", DEFAULT_NOISE_CHANNEL)

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_circuits(
        cls,
        circuits: Sequence[QuantumCircuit],
        shots: int = 1024,
        seed: Optional[int] = None,
        backend: str = "statevector",
        noise_p: Optional[float] = None,
        noise_channel: str = DEFAULT_NOISE_CHANNEL,
        memory: bool = False,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> "BatchPayload":
        """Build a payload from live circuits, exporting each to QASM.

        A circuit without measurements runs with a final measure-all, as on
        the CLI.  Raises :class:`ServiceError` for no circuits, a
        non-positive shot count or noise the engines would refuse.
        """
        if not circuits:
            raise ServiceError("a batch payload needs at least one circuit")
        if shots <= 0:
            raise ServiceError("shots must be positive")
        noise = None
        if noise_p is not None:
            noise = {"p": float(noise_p), "channel": noise_channel}
            try:
                NOISE_CHANNELS[noise_channel](noise["p"])
            except SimulationError as exc:
                raise ServiceError(str(exc)) from exc
        entries = []
        for circuit in circuits:
            if not isinstance(circuit, QuantumCircuit):
                raise ServiceError(
                    f"cannot submit {type(circuit).__name__} (expected QuantumCircuit)"
                )
            circuit = _with_final_measure(circuit)
            entries.append({"name": circuit.name, "qasm": to_qasm(circuit)})
        return cls(
            circuits=entries,
            shots=shots,
            seed=seed,
            backend=backend,
            noise=noise,
            memory=memory,
            metadata=dict(metadata or {}),
        )

    # -- (de)serialization -------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "version": PAYLOAD_VERSION,
                "circuits": self.circuits,
                "shots": self.shots,
                "seed": self.seed,
                "backend": self.backend,
                "noise": self.noise,
                "memory": self.memory,
                "metadata": self.metadata,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "BatchPayload":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ServiceError(f"malformed payload JSON: {exc}") from exc
        if not isinstance(data, dict) or "circuits" not in data:
            raise ServiceError("malformed payload: not a payload object")
        version = data.get("version")
        if version != PAYLOAD_VERSION:
            raise ServiceError(
                f"unsupported payload version {version!r} (this build speaks "
                f"{PAYLOAD_VERSION})"
            )
        return cls(
            circuits=list(data["circuits"]),
            shots=int(data.get("shots", 1024)),
            seed=data.get("seed"),
            backend=str(data.get("backend", "statevector")),
            noise=data.get("noise"),
            memory=bool(data.get("memory", False)),
            metadata=dict(data.get("metadata", {})),
        )

    # -- consumption -------------------------------------------------------------

    def parse_circuits(self) -> List[QuantumCircuit]:
        """Parse every experiment's QASM back into a live circuit."""
        return [
            from_qasm(entry["qasm"], name=entry.get("name", f"experiment-{i}"))
            for i, entry in enumerate(self.circuits)
        ]

    def noise_tag(self) -> str:
        """Canonical string form of the noise config (part of cache keys)."""
        if self.noise is None:
            return "noiseless"
        # the stored value's repr, so the keys of cached entries stay valid
        return f"{self.noise_channel}:{self.noise['p']!r}"

    def __len__(self) -> int:
        return len(self.circuits)
