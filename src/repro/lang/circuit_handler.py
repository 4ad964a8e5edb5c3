"""The ``QuantumCircuitHandler``: the bridge between the language and qsim.

The handler plays the role described in Section 3 of the paper: while the
interpreter traverses the AST it *logs* every quantum operation into a
:class:`~repro.qsim.circuit.QuantumCircuit` (one quantum register per
declared variable) and, at the same time, applies it to the *session* of
the program's execution backend (:meth:`repro.qsim.backends.Backend.session`:
statevector by default), so that automatic measurements -- triggered
whenever quantum data flows into a classical context -- are served
immediately with genuine collapse semantics.

The logged circuit is what gets exported (QASM, draw, metrics); the session
is what executes, on whichever engine the backend names: a program runs on
the stabilizer tableau as long as every instruction is Clifford, and under
a noise model every gate is noisy.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..qsim import gates
from ..qsim.backends import Backend, StatevectorBackend
from ..qsim.circuit import CircuitInstruction, QuantumCircuit
from ..qsim.instruction import Initialize, Instruction, Measure
from ..qsim.registers import ClassicalRegister, QuantumRegister
from .errors import QutesRuntimeError

__all__ = ["QuantumCircuitHandler", "Subcircuit"]


class Subcircuit(NamedTuple):
    """A builder circuit frozen for :meth:`QuantumCircuitHandler.append_subcircuit`.

    ``instructions`` are ``(operation, positions)`` pairs over the builder's
    ``num_qubits`` positions, checked spliceable once.  ``function``, when
    set, is what the instructions compute on a basis input: the
    little-endian value over the positions before, to the value after, with
    no phase.  The log shares the operations, so a subcircuit is never
    changed once built.
    """

    num_qubits: int
    instructions: Tuple[Tuple[Instruction, Tuple[int, ...]], ...]
    function: Optional[Callable[[int], int]] = None

    @classmethod
    def of(
        cls, circuit: QuantumCircuit, function: Optional[Callable[[int], int]] = None
    ) -> "Subcircuit":
        """Freeze *circuit*, refusing a measurement or any other instruction
        a splice cannot apply."""
        instructions = []
        for instr in circuit.data:
            op = instr.operation
            if isinstance(op, Measure):
                raise QutesRuntimeError("sub-circuits must not contain measurements")
            if not (op.is_unitary or isinstance(op, Initialize) or op.name == "barrier"):
                raise QutesRuntimeError(f"cannot splice instruction {op.name!r}")
            instructions.append((op, tuple(circuit.qubit_index(q) for q in instr.qubits)))
        return cls(circuit.num_qubits, tuple(instructions), function)


class QuantumCircuitHandler:
    """Owns the program's quantum registers, circuit log and live session.

    The session comes from *backend*, seeded with *seed* as an experiment
    would be, or from a statevector backend built with *seed* when *backend*
    is ``None``; ``rng`` is the session's generator.
    """

    def __init__(self, seed: Optional[int] = None, backend: Optional[Backend] = None):
        self.circuit = QuantumCircuit(name="qutes_program")
        if backend is None:  # seeded at construction: its own engine serves the session
            backend, seed = StatevectorBackend(seed=seed), None
        self.backend = backend
        self.session = backend.session(seed)
        self.rng = self.session.rng
        #: the session's classical shortcut for a subcircuit on basis bits
        #: (only the statevector session has one)
        self._apply_classical = getattr(self.session, "apply_classical", None)
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
        self.session.allocate(num_qubits)
        return list(range(start, start + num_qubits))

    # -- gate application ------------------------------------------------------------

    def apply_gate(self, name: str, qubits: Sequence[int], params: Sequence[float] = ()) -> None:
        """Append gate *name* on *qubits* to the log and the session."""
        qubits = list(qubits)
        params = list(params)
        builder = getattr(self.circuit, name, None)
        # reject unknown names before touching the log, so a failure can
        # never leave the logged circuit diverged from the session
        if builder is None or name not in gates.GATE_REGISTRY:
            raise QutesRuntimeError(f"unsupported gate {name!r}")
        builder(*params, *qubits)
        self.session.apply(self.circuit.data[-1].operation, qubits)

    def initialize(self, amplitudes: Sequence[complex], qubits: Sequence[int]) -> None:
        """Initialise freshly allocated *qubits* to the given amplitude vector."""
        qubits = list(qubits)
        self.circuit.initialize(np.asarray(amplitudes, dtype=complex), qubits)
        self.session.apply(self.circuit.data[-1].operation, qubits)

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

    def append_subcircuit(
        self, sub: Union[QuantumCircuit, Subcircuit], qubit_map: Sequence[int]
    ) -> None:
        """Splice a standalone builder circuit onto the program.

        *qubit_map* maps the sub-circuit's qubit positions onto global qubit
        indices; it is checked once (size, range, distinct entries), and each
        instruction is then adopted into the log as it stands -- the builder
        already validated its operands, and the log shares (never mutates)
        its operation.  When *sub* carries its classical ``function`` and the
        session can set the mapped qubits from it (every one a basis bit of
        a noiseless statevector session), the session runs the function
        instead of the gates; the log is the same either way.  Measurements
        inside sub-circuits are not supported (the language performs
        measurements only through :meth:`measure`).
        """
        if isinstance(sub, QuantumCircuit):
            sub = Subcircuit.of(sub)
        qubit_map = list(qubit_map)
        if len(qubit_map) != sub.num_qubits:
            raise QutesRuntimeError("qubit map size does not match sub-circuit")
        log = self.circuit.qubits
        if len(set(qubit_map)) != len(qubit_map):
            raise QutesRuntimeError(f"qubit map {qubit_map} repeats a qubit")
        if not all(isinstance(q, int) and 0 <= q < len(log) for q in qubit_map):
            raise QutesRuntimeError(
                f"qubit map {qubit_map} names a qubit outside the {len(log)} allocated"
            )
        classical = (
            sub.function is not None
            and self._apply_classical is not None
            and self._apply_classical(sub.function, qubit_map)
        )
        data, apply = self.circuit.data, self.session.apply
        for op, positions in sub.instructions:
            targets = [qubit_map[p] for p in positions]
            data.append(CircuitInstruction(op, [log[t] for t in targets]))
            if not classical:
                apply(op, targets)

    def barrier(self) -> None:
        """Insert a barrier over every allocated qubit."""
        if self.circuit.num_qubits:
            self.circuit.barrier()

    # -- measurement --------------------------------------------------------------------

    def measure(self, qubits: Sequence[int], label: str = "m") -> int:
        """Measure *qubits*, collapse the session, log the measurement.

        Returns the little-endian integer outcome.
        """
        qubits = list(qubits)
        if not qubits:
            raise QutesRuntimeError("cannot measure an empty register")
        self._measure_counter += 1
        creg = ClassicalRegister(len(qubits), f"{label}_{self._measure_counter}")
        self.circuit.add_register(creg)
        self.circuit.measure(qubits, list(creg))
        outcome = self.session.measure(qubits)
        self.measurements.append(
            {"label": creg.name, "qubits": qubits, "outcome": outcome}
        )
        return outcome

    def sample(self, qubits: Sequence[int], shots: int = 1024) -> Dict[int, int]:
        """Outcome counts for *qubits* drawn from the session without
        collapsing it, keyed by little-endian integers."""
        qubits = list(qubits)
        if not qubits:
            raise QutesRuntimeError("cannot sample an empty register")
        return self.session.sample(qubits, shots)

    # -- inspection ----------------------------------------------------------------------

    def gate_counts(self) -> Dict[str, int]:
        """Histogram of logged instruction names."""
        return self.circuit.count_ops()

    def depth(self) -> int:
        """Depth of the logged circuit."""
        return self.circuit.depth()

    def size(self) -> int:
        """Number of logged instructions (excluding barriers)."""
        return self.circuit.size()
