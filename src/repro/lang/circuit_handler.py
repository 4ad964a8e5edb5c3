"""The ``QuantumCircuitHandler``: the bridge between the language and qsim.

The handler plays the role described in Section 3 of the paper: while the
interpreter traverses the AST it *logs* every quantum operation into a
:class:`~repro.qsim.circuit.QuantumCircuit` (one quantum register per
declared variable) and, at the same time, applies the operation to a live
statevector so that automatic measurements -- triggered whenever quantum data
flows into a classical context -- can be served immediately with genuine
collapse semantics.

The logged circuit is what gets exported (QASM, draw, metrics); the live
state is what drives execution.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..qsim import gates, kernels
from ..qsim.backends import Backend
from ..qsim.circuit import QuantumCircuit
from ..qsim.instruction import Initialize, Measure
from ..qsim.registers import ClassicalRegister, QuantumRegister
from ..qsim.statevector import Statevector
from .errors import QutesRuntimeError

__all__ = ["QuantumCircuitHandler"]


class QuantumCircuitHandler:
    """Owns the program's quantum registers, circuit log and live state.

    An optional execution *backend* (see :mod:`repro.qsim.backends`) reroutes
    the non-collapsing statistics path: :meth:`sample` then replays the
    logged circuit through the backend instead of peeking at the live
    statevector, which is what makes ``--backend density_matrix`` runs
    produce exact-channel sampling statistics.  Gate application and genuine
    collapse (:meth:`measure`) always stay on the live state -- that is the
    execution model of the language.
    """

    def __init__(self, seed: Optional[int] = None, backend: Optional[Backend] = None):
        self.circuit = QuantumCircuit(name="qutes_program")
        self.state = Statevector.zero_state(0)
        self.rng = np.random.default_rng(seed)
        self.backend = backend
        self._register_counter = 0
        self._measure_counter = 0
        self.measurements: List[Dict[str, object]] = []

    # -- register allocation ------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        """Total number of qubits allocated so far."""
        return self.circuit.num_qubits

    def allocate_register(self, base_name: str, num_qubits: int) -> List[int]:
        """Allocate a fresh register and return the global qubit indices."""
        if num_qubits <= 0:
            raise QutesRuntimeError("quantum registers must have at least one qubit")
        self._register_counter += 1
        name = f"{base_name}_{self._register_counter}"
        register = QuantumRegister(num_qubits, name)
        start = self.circuit.num_qubits
        self.circuit.add_register(register)
        self.state = self.state.expand(num_qubits)
        return list(range(start, start + num_qubits))

    # -- gate application ------------------------------------------------------------

    def apply_gate(self, name: str, qubits: Sequence[int], params: Sequence[float] = ()) -> None:
        """Append gate *name* on *qubits* to the log and the live state."""
        qubits = list(qubits)
        params = list(params)
        builder = getattr(self.circuit, name, None)
        # reject unknown names before touching the log, so a failure can
        # never leave the logged circuit diverged from the live state
        if builder is None or name not in gates.GATE_REGISTRY:
            raise QutesRuntimeError(f"unsupported gate {name!r}")
        builder(*params, *qubits)
        self._apply_logged(qubits)

    def apply_mcz(self, controls: Sequence[int], target: int) -> None:
        """Multi-controlled Z (used by oracle constructions)."""
        controls = list(controls)
        self.circuit.mcz(controls, target)
        self._apply_logged([*controls, target])

    def apply_mcx(self, controls: Sequence[int], target: int) -> None:
        """Multi-controlled X."""
        controls = list(controls)
        self.circuit.mcx(controls, target)
        self._apply_logged([*controls, target])

    def _apply_logged(self, qubits: List[int]) -> None:
        """Apply the instruction just logged to the live state.  A wide
        multi-controlled gate touches only its control-satisfied slice: its
        matrix is never built (see :func:`repro.qsim.kernels.lower`)."""
        kernels.apply_gate(self.state.data, self.circuit.data[-1].operation, qubits)

    def initialize(self, amplitudes: Sequence[complex], qubits: Sequence[int]) -> None:
        """Initialise freshly allocated *qubits* to the given amplitude vector."""
        qubits = list(qubits)
        amplitudes = np.asarray(amplitudes, dtype=complex)
        self.circuit.initialize(amplitudes, qubits)
        self.state.initialize_qubits(amplitudes, qubits)

    def initialize_basis(self, value: int, qubits: Sequence[int]) -> None:
        """Encode the classical integer *value* into *qubits* with X gates."""
        qubits = list(qubits)
        if not 0 <= value < 2 ** len(qubits):
            raise QutesRuntimeError(
                f"value {value} does not fit into {len(qubits)} qubits"
            )
        for position, qubit in enumerate(qubits):
            if (value >> position) & 1:
                self.apply_gate("x", [qubit])

    def append_subcircuit(self, sub: QuantumCircuit, qubit_map: Sequence[int]) -> None:
        """Splice a standalone builder circuit onto the program.

        *qubit_map* maps the sub-circuit's qubit positions onto global qubit
        indices.  Measurements inside sub-circuits are not supported (the
        language performs measurements only through :meth:`measure`).
        """
        qubit_map = list(qubit_map)
        if len(qubit_map) != sub.num_qubits:
            raise QutesRuntimeError("qubit map size does not match sub-circuit")
        for instr in sub.data:
            op = instr.operation
            targets = [qubit_map[sub.qubit_index(q)] for q in instr.qubits]
            if isinstance(op, Measure):
                raise QutesRuntimeError("sub-circuits must not contain measurements")
            if isinstance(op, Initialize):
                self.circuit.append(op.copy(), targets)
                self.state.initialize_qubits(op.statevector, targets)
                continue
            if op.name == "barrier":
                self.circuit.append(op.copy(), targets)
                continue
            if not op.is_unitary:
                raise QutesRuntimeError(f"cannot splice instruction {op.name!r}")
            self.circuit.append(op.copy(), targets)
            self._apply_logged(targets)

    def barrier(self) -> None:
        """Insert a barrier over every allocated qubit."""
        if self.circuit.num_qubits:
            self.circuit.barrier()

    # -- measurement --------------------------------------------------------------------

    def measure(self, qubits: Sequence[int], label: str = "m") -> int:
        """Measure *qubits*, collapse the live state, log the measurement.

        Returns the little-endian integer outcome.
        """
        qubits = list(qubits)
        if not qubits:
            raise QutesRuntimeError("cannot measure an empty register")
        self._measure_counter += 1
        creg = ClassicalRegister(len(qubits), f"{label}_{self._measure_counter}")
        self.circuit.add_register(creg)
        self.circuit.measure(qubits, list(creg))
        outcome = self.state.measure(qubits, rng=self.rng)
        self.measurements.append(
            {"label": creg.name, "qubits": qubits, "outcome": outcome}
        )
        return outcome

    def sample(self, qubits: Sequence[int], shots: int = 1024) -> Dict[int, int]:
        """Sample measurement statistics without collapsing the live state.

        With an execution backend attached (and no collapse logged yet) the
        statistics come from replaying the logged circuit through that
        backend; otherwise they are drawn from the live statevector.  Once a
        measurement has collapsed the live state, a replay would no longer be
        conditioned on the realized outcome, so the live state is always used
        from that point on.
        """
        if self.backend is not None and not self.circuit.has_measurements():
            return self.replay_counts(qubits, shots=shots)
        return self.state.sample_counts(list(qubits), shots=shots, rng=self.rng)

    def replay_counts(
        self,
        qubits: Sequence[int],
        shots: int = 1024,
        backend: Optional[Backend] = None,
        seed: Optional[int] = None,
    ) -> Dict[int, int]:
        """Outcome histogram for *qubits* by replaying the logged circuit.

        The logged circuit is copied, a fresh classical register measuring
        *qubits* is appended, and the copy is executed through *backend* (or
        the handler's attached one).  Keys are little-endian integers over
        *qubits*, matching :meth:`sample`.
        """
        backend = backend if backend is not None else self.backend
        if backend is None:
            raise QutesRuntimeError("replay_counts needs an execution backend")
        qubits = list(qubits)
        if not qubits:
            raise QutesRuntimeError("cannot sample an empty register")
        replay = self.circuit.copy()
        self._measure_counter += 1
        creg = ClassicalRegister(len(qubits), f"replay_{self._measure_counter}")
        replay.add_register(creg)
        replay.measure(qubits, list(creg))
        num_clbits = replay.num_clbits
        base = num_clbits - len(qubits)  # the fresh creg holds the top clbits
        experiment = backend.run(replay, shots=shots, seed=seed).result()[0]
        counts: Dict[int, int] = {}
        for key, count in experiment.counts.items():
            value = 0
            for position in range(len(qubits)):
                if key[num_clbits - 1 - (base + position)] == "1":
                    value |= 1 << position
            counts[value] = counts.get(value, 0) + count
        return counts

    def probabilities(self, qubits: Sequence[int]) -> np.ndarray:
        """Outcome probabilities for *qubits* under the live state."""
        return self.state.probabilities(list(qubits))

    # -- inspection ----------------------------------------------------------------------

    def snapshot(self) -> Statevector:
        """A copy of the current live statevector."""
        return self.state.copy()

    def gate_counts(self) -> Dict[str, int]:
        """Histogram of logged instruction names."""
        return self.circuit.count_ops()

    def depth(self) -> int:
        """Depth of the logged circuit."""
        return self.circuit.depth()

    def size(self) -> int:
        """Number of logged instructions (excluding barriers)."""
        return self.circuit.size()
