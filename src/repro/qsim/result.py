"""Result types: one :class:`ExperimentResult` per circuit, and the batch
:class:`Result` a :class:`~repro.qsim.backends.job.Job` returns.

Every built-in engine's ``run`` builds its :class:`ExperimentResult` from a
per-shot outcome matrix through :func:`repro.qsim.simulator.tally`, and the
backend only fills in ``seed`` and ``time_taken``.  Counts are always keyed by
**MSB-first classical-register bitstrings** (the last classical bit is the
leftmost character), so the same post-processing works no matter which engine
produced the data.  This module imports nothing but the exception types, so
every engine can build results without importing the backend layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Union

from .exceptions import BackendError, SimulationError

__all__ = ["ExperimentResult", "Result"]


@dataclass
class ExperimentResult:
    """Outcome of one circuit.

    Attributes:
        name: name of the circuit that produced this result.
        counts: histogram of classical-register bitstrings (MSB first).
        shots: number of shots sampled.
        seed: the concrete RNG seed this experiment ran with (``None`` when
            the engine's own sequential RNG stream was used).
        time_taken: wall-clock seconds spent executing this experiment.
        density_matrix: final pre-measurement density matrix, when every
            shot of a density-matrix run followed one branch, and ``None``
            when the run stayed on populations too wide for their ``4^n``
            matrix to fit the memory budget.
        memory: per-shot bitstrings when ``memory=True`` was requested.
        metadata: how the engine computed the counts (``method`` and, where
            the engine reports them, ``branches`` or ``fallback_reason``).
    """

    name: str
    counts: Dict[str, int]
    shots: int
    seed: Optional[int] = None
    time_taken: float = 0.0
    density_matrix: Optional[Any] = None
    memory: Optional[List[str]] = None
    metadata: Dict[str, Any] = field(default_factory=dict)

    def most_frequent(self) -> str:
        """The most frequently observed bitstring."""
        if not self.counts:
            raise SimulationError("result has no counts (no measurements in circuit)")
        return max(self.counts.items(), key=lambda kv: kv[1])[0]

    def probabilities(self) -> Dict[str, float]:
        """Counts normalised to relative frequencies."""
        total = sum(self.counts.values())
        if total == 0:
            return {}
        return {key: value / total for key, value in self.counts.items()}

    def int_counts(self) -> Dict[int, int]:
        """Counts keyed by the integer value of the bitstring."""
        return {int(key, 2): value for key, value in self.counts.items()}

    def to_dict(self) -> Dict[str, Any]:
        """Stable JSON-safe form of this experiment's artifacts.

        This is the serialization contract consumed by the execution
        service's job store: counts, shots, seed, timing, per-shot memory
        and metadata round-trip exactly; the ``density_matrix`` array is
        deliberately **not** part of it (it is engine-internal, huge, and
        not JSON-representable) and comes back as ``None`` after a round
        trip.
        """
        return {
            "name": self.name,
            "counts": dict(self.counts),
            "shots": self.shots,
            "seed": self.seed,
            "time_taken": self.time_taken,
            "memory": None if self.memory is None else list(self.memory),
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentResult":
        """Rebuild an experiment from :meth:`to_dict` output."""
        try:
            return cls(
                name=data["name"],
                counts={str(k): int(v) for k, v in data["counts"].items()},
                shots=int(data["shots"]),
                seed=data.get("seed"),
                time_taken=float(data.get("time_taken", 0.0)),
                memory=data.get("memory"),
                metadata=dict(data.get("metadata", {})),
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise BackendError(f"malformed experiment dict: {exc}") from exc


@dataclass
class Result:
    """Everything a :class:`~repro.qsim.backends.job.Job` produced.

    Indexable and iterable over its per-circuit :class:`ExperimentResult`
    entries, in submission order.
    """

    backend_name: str
    job_id: str
    results: List[ExperimentResult]
    time_taken: float = 0.0
    success: bool = True
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[ExperimentResult]:
        return iter(self.results)

    def __getitem__(self, index: int) -> ExperimentResult:
        return self.results[index]

    def _resolve(self, key: Union[int, str, None]) -> ExperimentResult:
        if not self.results:
            raise BackendError("result holds no experiments")
        if key is None:
            if len(self.results) > 1:
                raise BackendError(
                    f"result holds {len(self.results)} experiments; "
                    "pass an index or circuit name"
                )
            return self.results[0]
        if isinstance(key, int):
            try:
                return self.results[key]
            except IndexError:
                raise BackendError(
                    f"experiment index {key} out of range ({len(self.results)} experiments)"
                ) from None
        for experiment in self.results:
            if experiment.name == key:
                return experiment
        raise BackendError(f"no experiment named {key!r} in result")

    def get_counts(self, key: Union[int, str, None] = None) -> Dict[str, int]:
        """Counts of one experiment (by index or circuit name).

        With a single-experiment result *key* may be omitted.
        """
        return self._resolve(key).counts

    def get_memory(self, key: Union[int, str, None] = None) -> List[str]:
        """Per-shot bitstrings of one experiment (requires ``memory=True``)."""
        memory = self._resolve(key).memory
        if memory is None:
            raise BackendError("experiment was run without memory=True")
        return memory

    def to_dict(self) -> Dict[str, Any]:
        """Stable JSON-safe form of the whole result (see
        :meth:`ExperimentResult.to_dict` for what round-trips)."""
        return {
            "backend_name": self.backend_name,
            "job_id": self.job_id,
            "results": [experiment.to_dict() for experiment in self.results],
            "time_taken": self.time_taken,
            "success": self.success,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Result":
        """Rebuild a result from :meth:`to_dict` output."""
        try:
            return cls(
                backend_name=data["backend_name"],
                job_id=data["job_id"],
                results=[ExperimentResult.from_dict(entry) for entry in data["results"]],
                time_taken=float(data.get("time_taken", 0.0)),
                success=bool(data.get("success", True)),
                metadata=dict(data.get("metadata", {})),
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise BackendError(f"malformed result dict: {exc}") from exc
