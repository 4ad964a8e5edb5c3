"""Quantum simulation substrate.

This package replaces the Qiskit dependency of the original Qutes
implementation with a self-contained, NumPy-based stack:

* :mod:`repro.qsim.gates` -- the gate matrix library,
* :mod:`repro.qsim.registers` -- quantum / classical registers and bits,
* :mod:`repro.qsim.instruction` -- the instruction set of the circuit IR,
* :mod:`repro.qsim.circuit` -- the :class:`~repro.qsim.circuit.QuantumCircuit` IR,
* :mod:`repro.qsim.statevector` -- dense statevector representation,
* :mod:`repro.qsim.kernels` -- specialized in-place gate kernels + dispatch,
* :mod:`repro.qsim.shotbatch` -- batched trajectory execution (noise, feed-forward),
* :mod:`repro.qsim.fusion` -- gate fusion (adjacent gates -> one unitary),
* :mod:`repro.qsim.simulator` -- the statevector execution engine,
* :mod:`repro.qsim.stabilizer` -- the CHP stabilizer (Clifford) engine,
  polynomial-time tableau simulation for 100+ qubit Clifford circuits,
* :mod:`repro.qsim.result` -- :class:`ExperimentResult`, the one
  per-circuit result type every engine returns,
* :mod:`repro.qsim.backends` -- the unified Backend/Job/Result execution
  API over every engine,
* :mod:`repro.qsim.transpiler` -- decomposition and analysis passes,
* :mod:`repro.qsim.qasm` -- OpenQASM 2.0 export and import,
* :mod:`repro.qsim.noise` -- the one noise model every engine takes,
* :mod:`repro.qsim.telemetry` -- always-on observability: tracing spans,
  metrics counted from span trees, JSON/Prometheus exporters.

The public names most users need are re-exported here.
"""

from . import telemetry
from .exceptions import BackendError, QasmError, QsimError, RegisterError, SimulationError
from .registers import ClassicalRegister, Clbit, QuantumRegister, Qubit
from .instruction import (
    Barrier,
    Gate,
    Initialize,
    Instruction,
    Measure,
    Reset,
)
from .circuit import CircuitInstruction, QuantumCircuit
from .statevector import Statevector
from .result import ExperimentResult
from .simulator import StatevectorSimulator
from .stabilizer import StabilizerSimulator, StabilizerTableau
from .transpiler import decompose, is_clifford, transpile
from .optimizer import optimize, optimization_summary
from .fusion import fuse_gates, fusion_summary
from .qasm import from_qasm, from_qasm_file, to_qasm
from .noise import (
    BitFlipNoise,
    DepolarizingNoise,
    NoiseModel,
    PhaseFlipNoise,
    amplitude_damping_kraus,
    bit_flip_kraus,
    depolarizing_kraus,
    phase_flip_kraus,
)
from .density import DensityMatrix, DensityMatrixSimulator
from .backends import (
    Backend,
    DensityMatrixBackend,
    Job,
    StatevectorBackend,
    get_backend,
    list_backends,
    register_backend,
)

__all__ = [
    "telemetry",
    "QsimError",
    "RegisterError",
    "SimulationError",
    "BackendError",
    "QasmError",
    "QuantumRegister",
    "ClassicalRegister",
    "Qubit",
    "Clbit",
    "Instruction",
    "Gate",
    "Measure",
    "Reset",
    "Barrier",
    "Initialize",
    "QuantumCircuit",
    "CircuitInstruction",
    "Statevector",
    "StatevectorSimulator",
    "StabilizerSimulator",
    "StabilizerTableau",
    "decompose",
    "is_clifford",
    "transpile",
    "optimize",
    "optimization_summary",
    "fuse_gates",
    "fusion_summary",
    "to_qasm",
    "from_qasm",
    "from_qasm_file",
    "BitFlipNoise",
    "DepolarizingNoise",
    "NoiseModel",
    "PhaseFlipNoise",
    "DensityMatrix",
    "DensityMatrixSimulator",
    "bit_flip_kraus",
    "phase_flip_kraus",
    "depolarizing_kraus",
    "amplitude_damping_kraus",
    "Backend",
    "Job",
    "ExperimentResult",
    "StatevectorBackend",
    "DensityMatrixBackend",
    "get_backend",
    "list_backends",
    "register_backend",
]
