"""The pass framework and the core analysis passes.

:func:`analyze` drives every registered pass over one circuit and returns
an :class:`AnalysisReport`.  Passes are plain callables taking an
:class:`AnalysisContext` and yielding
:class:`~repro.qsim.analysis.diagnostics.Diagnostic` objects; they join the
driver through :func:`register_pass` (usable as a decorator), so future
passes — surface-code structure checks, scheduling lints — slot in without
touching this module's driver code.

Target-independent passes (measurement flow, unused resources) always run;
the noise-flow and backend-compatibility passes only emit findings when an
:class:`AnalysisTarget` describes where the circuit is headed.  The CLI's
``lint`` verb checks the backend/shots/noise its flags give, while the
service's submit-time validation supplies the payload's run config.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..circuit import QuantumCircuit, SourceSpan
from ..exceptions import BackendError
from ..instruction import Barrier, Measure, Reset
from ..noise import DEFAULT_NOISE_CHANNEL, NOISE_CHANNELS
from ..registers import Clbit, Qubit
from ..simulator import DEFAULT_MEMORY_BUDGET_BYTES
from .diagnostics import Diagnostic, Severity
from .resources import ResourceEstimate, estimate_resources

__all__ = [
    "AnalysisTarget",
    "AnalysisContext",
    "AnalysisReport",
    "analyze",
    "register_pass",
    "available_passes",
    "DEFAULT_MEMORY_BUDGET_BYTES",
]

@dataclass(frozen=True)
class AnalysisTarget:
    """Where the circuit is headed: execution config the compat passes check.

    Every field is optional; passes skip checks whose inputs are missing.
    ``backend`` accepts registry aliases (``dm``, ``chp``, ...) exactly like
    ``get_backend``.
    """

    backend: Optional[str] = None
    shots: Optional[int] = None
    noise_p: Optional[float] = None
    noise_channel: Optional[str] = None
    #: the ceiling of the per-engine state-memory checks (QA402/QA403)
    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET_BYTES


class AnalysisContext:
    """Everything a pass may look at: the circuit, the target, shared facts.

    ``resources`` is computed lazily and cached, so the first pass that
    needs the estimate pays for it and the rest share it.
    """

    def __init__(self, circuit: QuantumCircuit, target: Optional[AnalysisTarget] = None):
        self.circuit = circuit
        self.target = target if target is not None else AnalysisTarget()
        self._resources: Optional[ResourceEstimate] = None

    @property
    def resources(self) -> ResourceEstimate:
        if self._resources is None:
            self._resources = estimate_resources(self.circuit)
        return self._resources


class AnalysisReport:
    """The result of :func:`analyze`: diagnostics plus the resource facts."""

    def __init__(
        self,
        circuit_name: str,
        diagnostics: Sequence[Diagnostic],
        resources: Optional[ResourceEstimate] = None,
    ):
        self.circuit_name = circuit_name
        self.diagnostics = list(diagnostics)
        self.resources = resources

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    @property
    def max_severity(self) -> Optional[Severity]:
        """The most severe finding, or ``None`` for a clean report."""
        if not self.diagnostics:
            return None
        return max(d.severity for d in self.diagnostics)

    def at_least(self, severity: Severity) -> List[Diagnostic]:
        """Diagnostics at or above *severity*."""
        return [d for d in self.diagnostics if d.severity >= severity]

    def format(self, min_severity: Severity = Severity.INFO) -> str:
        """One gcc-style line per finding at or above *min_severity*; a
        finding without a span is located at the circuit's name."""
        return "\n".join(d.format(self.circuit_name) for d in self.at_least(min_severity))

    def to_dict(self) -> Dict[str, object]:
        return {
            "circuit": self.circuit_name,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "resources": None if self.resources is None else self.resources.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "AnalysisReport":
        """Rebuild from :meth:`to_dict` output (resources stay serialized)."""
        raw = data.get("diagnostics", [])
        entries = raw if isinstance(raw, list) else []
        diagnostics = [Diagnostic.from_dict(entry) for entry in entries]
        return cls(str(data.get("circuit", "?")), diagnostics, resources=None)

    def __repr__(self) -> str:
        return (
            f"AnalysisReport(circuit={self.circuit_name!r}, "
            f"diagnostics={len(self.diagnostics)}, max={self.max_severity})"
        )


# ---------------------------------------------------------------------------
# Pass registry
# ---------------------------------------------------------------------------

PassFn = Callable[[AnalysisContext], Iterable[Diagnostic]]

_PASSES: Dict[str, PassFn] = {}


def register_pass(
    name: str, fn: Optional[PassFn] = None, overwrite: bool = False
) -> Callable[[PassFn], PassFn]:
    """Register an analysis pass under *name*, in run order.

    Usable directly (``register_pass("my_pass", fn)``) or as a decorator::

        @register_pass("surface_code_structure")
        def check(ctx):
            yield Diagnostic(...)

    Registering an existing name requires ``overwrite=True``, mirroring the
    backend registry.
    """

    def _register(target: PassFn) -> PassFn:
        key = name.lower()
        if not overwrite and key in _PASSES:
            raise ValueError(
                f"analysis pass {name!r} is already registered (pass overwrite=True)"
            )
        _PASSES[key] = target
        return target

    if fn is not None:
        _register(fn)
        return lambda target: target
    return _register


def available_passes() -> List[str]:
    """Registered pass names, in run order."""
    return list(_PASSES)


def analyze(
    circuit: QuantumCircuit,
    target: Optional[AnalysisTarget] = None,
    passes: Optional[Sequence[str]] = None,
) -> AnalysisReport:
    """Run the registered passes (or the named subset) over *circuit*.

    Diagnostics are ordered by the instruction they anchor to, with
    circuit-level findings last; ties keep pass emission order.
    """
    context = AnalysisContext(circuit, target)
    selected = list(_PASSES) if passes is None else [p.lower() for p in passes]
    diagnostics: List[Diagnostic] = []
    for name in selected:
        try:
            pass_fn = _PASSES[name]
        except KeyError:
            raise ValueError(
                f"unknown analysis pass {name!r}; available: "
                f"{', '.join(available_passes())}"
            ) from None
        for diagnostic in pass_fn(context):
            diagnostics.append(diagnostic)
    diagnostics.sort(
        key=lambda d: (
            d.instruction_index if d.instruction_index is not None else len(circuit.data),
        )
    )
    return AnalysisReport(circuit.name, diagnostics, resources=context.resources)


# ---------------------------------------------------------------------------
# Core passes
# ---------------------------------------------------------------------------

def _bit_name(bit: Qubit) -> str:
    return f"{bit.register.name}[{bit.index}]"


def _clbit_name(bit: Clbit) -> str:
    return f"{bit.register.name}[{bit.index}]"


@register_pass("measure_flow")
def _measure_flow_pass(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """QA101 gate-after-measure, QA102 clbit clobber, QA103 redundant
    measure, QA104 condition on a register with no measurement yet.

    Classically-conditioned instructions are intentional feed-forward, so a
    conditioned gate on a measured qubit does not raise QA101; instead QA104
    flags conditions that can never vary because no bit of the compared
    register has been written at that point (the register always reads 0).
    """
    measured: Set[Qubit] = set()          # measured, no gate/reset since
    warned_after_measure: Set[Qubit] = set()
    written: Dict[Clbit, Optional[SourceSpan]] = {}
    warned_unwritten_cregs: Set[object] = set()
    for index, instr in enumerate(ctx.circuit.data):
        op = instr.operation
        if isinstance(op, Barrier):
            continue
        if instr.condition is not None:
            creg, value = instr.condition
            if (
                creg not in warned_unwritten_cregs
                and not any(clbit in written for clbit in creg)
            ):
                warned_unwritten_cregs.add(creg)
                outcome = "always" if value == 0 else "never"
                yield Diagnostic(
                    "QA104",
                    Severity.WARNING,
                    f"condition on classical register {creg.name!r} before any "
                    f"of its bits is measured; the register always reads 0, so "
                    f"the {op.name!r} instruction {outcome} executes",
                    span=instr.span,
                    instruction_index=index,
                    source="measure_flow",
                )
        if isinstance(op, Measure):
            qubit = instr.qubits[0]
            clbit = instr.clbits[0]
            if qubit in measured:
                yield Diagnostic(
                    "QA103",
                    Severity.INFO,
                    f"qubit {_bit_name(qubit)} is measured again with no gate or "
                    "reset since its last measurement (the result is identical)",
                    span=instr.span,
                    instruction_index=index,
                    source="measure_flow",
                )
            if clbit in written:
                previous = written[clbit]
                where = f" (previously written at {previous.location()})" if previous else ""
                yield Diagnostic(
                    "QA102",
                    Severity.WARNING,
                    f"measurement overwrites classical bit {_clbit_name(clbit)}"
                    f"{where}; the earlier result is lost",
                    span=instr.span,
                    instruction_index=index,
                    source="measure_flow",
                )
            written[clbit] = instr.span
            measured.add(qubit)
            warned_after_measure.discard(qubit)
            continue
        if isinstance(op, Reset):
            measured.discard(instr.qubits[0])
            warned_after_measure.discard(instr.qubits[0])
            continue
        for qubit in instr.qubits:
            if (
                qubit in measured
                and qubit not in warned_after_measure
                and instr.condition is None
            ):
                # conditioned gates after measurement are deliberate
                # feed-forward (teleportation, error correction), not a
                # forgotten reset
                yield Diagnostic(
                    "QA101",
                    Severity.WARNING,
                    f"gate {op.name!r} acts on qubit {_bit_name(qubit)} after it "
                    "was measured, without a reset; if the qubit is being "
                    "reused, add an explicit reset",
                    span=instr.span,
                    instruction_index=index,
                    source="measure_flow",
                )
                warned_after_measure.add(qubit)
            measured.discard(qubit)


@register_pass("unused")
def _unused_pass(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """QA201 unused qubits / registers, QA202 never-written classical bits."""
    circuit = ctx.circuit
    used_qubits: Set[Qubit] = set()
    written_clbits: Set[Clbit] = set()
    for instr in circuit.data:
        if isinstance(instr.operation, Barrier):
            continue  # a barrier is scheduling metadata, not a use
        used_qubits.update(instr.qubits)
        written_clbits.update(instr.clbits)
    for reg in circuit.qregs:
        span = circuit.register_spans.get(reg)
        unused = [q for q in reg if q not in used_qubits]
        if len(unused) == reg.size:
            yield Diagnostic(
                "QA201",
                Severity.INFO,
                f"quantum register {reg.name!r} ({reg.size} qubit(s)) is never used",
                span=span,
                source="unused",
            )
        else:
            for qubit in unused:
                yield Diagnostic(
                    "QA201",
                    Severity.INFO,
                    f"qubit {_bit_name(qubit)} is never used by any instruction",
                    span=span,
                    source="unused",
                )
    for creg in circuit.cregs:
        span = circuit.register_spans.get(creg)
        unwritten = [c for c in creg if c not in written_clbits]
        if len(unwritten) == creg.size:
            yield Diagnostic(
                "QA202",
                Severity.INFO,
                f"classical register {creg.name!r} ({creg.size} bit(s)) is never "
                "written by any measurement",
                span=span,
                source="unused",
            )
        else:
            for clbit in unwritten:
                yield Diagnostic(
                    "QA202",
                    Severity.INFO,
                    f"classical bit {_clbit_name(clbit)} is never written by any "
                    "measurement",
                    span=span,
                    source="unused",
                )


@register_pass("noise_flow")
def _noise_flow_pass(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """QA301: noise is configured but a gate-touched qubit is never measured."""
    noise_p = ctx.target.noise_p
    if noise_p is None or noise_p <= 0:
        return
    channel = ctx.target.noise_channel or DEFAULT_NOISE_CHANNEL
    touched: Dict[Qubit, Tuple[Optional[SourceSpan], Optional[int]]] = {}
    ever_measured: Set[Qubit] = set()
    for index, instr in enumerate(ctx.circuit.data):
        op = instr.operation
        if isinstance(op, Measure):
            ever_measured.add(instr.qubits[0])
        elif not isinstance(op, (Barrier, Reset)):
            for qubit in instr.qubits:
                touched[qubit] = (instr.span, index)
    if not ever_measured and touched:
        yield Diagnostic(
            "QA301",
            Severity.WARNING,
            f"{channel} noise (p={noise_p:g}) is configured but the circuit "
            "has no measurements; the accumulated errors are never observed",
            source="noise_flow",
        )
        return
    for qubit, (span, index) in touched.items():
        if qubit not in ever_measured:
            yield Diagnostic(
                "QA301",
                Severity.WARNING,
                f"{channel} noise (p={noise_p:g}) accumulates on qubit "
                f"{_bit_name(qubit)}, which is never measured",
                span=span,
                instruction_index=index,
                source="noise_flow",
            )


def _format_bytes(count: int) -> str:
    value = float(count)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB", "PiB"):
        if value < 1024.0 or unit == "PiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024.0
    return f"{int(count)} B"


@register_pass("backend_compat")
def _backend_compat_pass(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """QA401..QA407: can the target engine actually run this circuit?"""
    from ..backends.registry import resolve_backend_name  # local import: cycle

    target = ctx.target
    if target.shots is not None and target.shots <= 0:
        yield Diagnostic(
            "QA406",
            Severity.ERROR,
            f"shot count must be positive, got {target.shots}",
            source="backend_compat",
        )
    if target.noise_p is not None and target.noise_channel is not None:
        if target.noise_channel not in NOISE_CHANNELS:
            yield Diagnostic(
                "QA404",
                Severity.ERROR,
                f"unknown noise channel {target.noise_channel!r}; available: "
                f"{', '.join(NOISE_CHANNELS)}",
                source="backend_compat",
            )
    if target.noise_p is not None and not 0.0 <= target.noise_p <= 1.0:
        yield Diagnostic(
            "QA407",
            Severity.ERROR,
            f"noise probability must be in [0, 1], got {target.noise_p:g}",
            source="backend_compat",
        )
    if target.backend is None:
        return
    try:
        canonical = resolve_backend_name(target.backend)
    except BackendError as exc:
        yield Diagnostic("QA405", Severity.ERROR, str(exc), source="backend_compat")
        return
    resources = ctx.resources
    if canonical == "stabilizer" and resources.first_non_clifford is not None:
        index = resources.first_non_clifford
        instr = ctx.circuit.data[index]
        yield Diagnostic(
            "QA401",
            Severity.ERROR,
            f"instruction {instr.operation.name!r} has no stabilizer execution; "
            "the 'stabilizer' backend runs Clifford circuits only "
            "(use 'statevector' or 'density_matrix' instead)",
            span=instr.span,
            instruction_index=index,
            source="backend_compat",
        )
    if canonical == "statevector":
        needed = resources.statevector_bytes()
        if needed > target.memory_budget_bytes:
            yield Diagnostic(
                "QA402",
                Severity.ERROR,
                f"a {resources.num_qubits}-qubit statevector needs "
                f"{_format_bytes(needed)}, over the {_format_bytes(target.memory_budget_bytes)} "
                "budget (the 'stabilizer' backend handles wide Clifford circuits)",
                source="backend_compat",
            )
    if canonical == "density_matrix":
        needed = resources.density_matrix_bytes()
        if needed > target.memory_budget_bytes:
            yield Diagnostic(
                "QA403",
                Severity.ERROR,
                f"a {resources.num_qubits}-qubit density matrix needs "
                f"{_format_bytes(needed)}, over the {_format_bytes(target.memory_budget_bytes)} "
                "budget",
                source="backend_compat",
            )
