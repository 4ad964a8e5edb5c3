"""Tests for the peephole circuit optimiser."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.qsim.circuit import QuantumCircuit
from repro.qsim.instruction import Barrier, Initialize, Measure, Reset, UnitaryGate
from repro.qsim.optimizer import optimization_summary, optimize
from repro.qsim.qasm import to_qasm
from repro.qsim.simulator import StatevectorSimulator
from repro.qsim.statevector import Statevector

SIM = StatevectorSimulator(seed=0)


def _states_equal(a: QuantumCircuit, b: QuantumCircuit) -> bool:
    """Check both circuits act identically on a handful of basis states."""
    n = a.num_qubits
    for value in range(min(2**n, 8)):
        sa = SIM.evolve(a, initial_state=Statevector.from_int(value, n))
        sb = SIM.evolve(b, initial_state=Statevector.from_int(value, n))
        if not np.allclose(sa.data, sb.data, atol=1e-9):
            return False
    return True


class TestCancellation:
    def test_double_x_cancels(self):
        qc = QuantumCircuit(1)
        qc.x(0).x(0)
        assert optimize(qc).size() == 0

    def test_double_h_cancels(self):
        qc = QuantumCircuit(1)
        qc.h(0).h(0)
        assert optimize(qc).size() == 0

    def test_s_sdg_cancels(self):
        qc = QuantumCircuit(1)
        qc.s(0).sdg(0)
        assert optimize(qc).size() == 0

    def test_double_cx_cancels(self):
        qc = QuantumCircuit(2)
        qc.cx(0, 1).cx(0, 1)
        assert optimize(qc).size() == 0

    def test_cx_different_direction_not_cancelled(self):
        qc = QuantumCircuit(2)
        qc.cx(0, 1).cx(1, 0)
        assert optimize(qc).size() == 2

    def test_interleaved_other_qubit_does_not_block(self):
        qc = QuantumCircuit(2)
        qc.x(0).h(1).x(0)
        optimized = optimize(qc)
        assert optimized.count_ops() == {"h": 1}

    def test_gate_on_same_qubit_blocks_cancellation(self):
        qc = QuantumCircuit(1)
        qc.x(0).h(0).x(0)
        assert optimize(qc).size() == 3

    def test_measurement_blocks_cancellation(self):
        qc = QuantumCircuit(1, 1)
        qc.x(0)
        qc.measure(0, 0)
        qc.x(0)
        # nothing may be removed: the measurement separates the two X gates
        assert optimize(qc).size() == 3

    def test_cascading_cancellation(self):
        qc = QuantumCircuit(1)
        qc.x(0).h(0).h(0).x(0)
        assert optimize(qc).size() == 0

    def test_unitary_preserved(self):
        qc = QuantumCircuit(2)
        qc.h(0).x(1).x(1).cx(0, 1).cx(0, 1).t(0)
        assert _states_equal(qc, optimize(qc))


class TestRotationMerging:
    def test_two_rz_merge(self):
        qc = QuantumCircuit(1)
        qc.rz(0.3, 0).rz(0.4, 0)
        merged = optimize(qc)
        assert merged.size() == 1
        assert np.isclose(merged.data[0].operation.params[0], 0.7)

    def test_opposite_rotations_vanish(self):
        qc = QuantumCircuit(1)
        qc.rx(0.5, 0).rx(-0.5, 0)
        assert optimize(qc).size() == 0

    def test_full_period_vanishes(self):
        qc = QuantumCircuit(1)
        qc.p(math.pi, 0).p(math.pi, 0)
        assert optimize(qc).size() == 0

    def test_different_axes_not_merged(self):
        qc = QuantumCircuit(1)
        qc.rx(0.3, 0).rz(0.3, 0)
        assert optimize(qc).size() == 2

    def test_different_qubits_not_merged(self):
        qc = QuantumCircuit(2)
        qc.rz(0.3, 0).rz(0.3, 1)
        assert optimize(qc).size() == 2

    def test_blocked_by_intervening_gate(self):
        qc = QuantumCircuit(1)
        qc.rz(0.3, 0).h(0).rz(0.3, 0)
        assert optimize(qc).size() == 3

    def test_unitary_preserved(self):
        qc = QuantumCircuit(1)
        qc.rz(0.3, 0).rz(1.1, 0).rx(0.2, 0)
        assert _states_equal(qc, optimize(qc))


class TestIdentityRemoval:
    def test_id_gates_removed(self):
        qc = QuantumCircuit(2)
        qc.id(0).h(1).id(1)
        assert optimize(qc).count_ops() == {"h": 1}

    def test_zero_rotation_removed(self):
        qc = QuantumCircuit(1)
        qc.rz(0.0, 0).rx(4 * math.pi, 0).h(0)
        assert optimize(qc).count_ops() == {"h": 1}

    def test_nonzero_rotation_kept(self):
        qc = QuantumCircuit(1)
        qc.rz(0.1, 0)
        assert optimize(qc).size() == 1


class TestOptimize:
    def test_fixed_point(self):
        qc = QuantumCircuit(2)
        qc.h(0).h(0).rz(0.2, 1).rz(-0.2, 1).id(0).cx(0, 1).cx(0, 1)
        assert optimize(qc).size() == 0

    def test_preserves_behaviour_random_circuits(self):
        rng = np.random.default_rng(5)
        qc = QuantumCircuit(3)
        for _ in range(30):
            choice = rng.integers(0, 4)
            q = int(rng.integers(0, 3))
            if choice == 0:
                qc.h(q)
            elif choice == 1:
                qc.rz(float(rng.uniform(-3, 3)), q)
            elif choice == 2:
                qc.x(q)
            else:
                q2 = int((q + 1) % 3)
                qc.cx(q, q2)
        optimized = optimize(qc)
        assert optimized.size() <= qc.size()
        assert _states_equal(qc, optimized)

    def test_measurements_survive(self):
        qc = QuantumCircuit(1, 1)
        qc.h(0).h(0)
        qc.measure(0, 0)
        optimized = optimize(qc)
        assert optimized.has_measurements()
        assert optimized.size() == 1  # only the measurement remains

    def test_summary(self):
        qc = QuantumCircuit(1)
        qc.x(0).x(0).h(0)
        summary = optimization_summary(qc)
        assert summary["before"] == 3
        assert summary["after"] == 1
        assert summary["removed"] == 2

    @given(angles=st.lists(st.floats(-3, 3), min_size=2, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_merged_rotation_angle_sums(self, angles):
        qc = QuantumCircuit(1)
        for angle in angles:
            qc.rz(angle, 0)
        merged = optimize(qc)
        assert merged.size() <= 1
        total = math.remainder(sum(angles), 4 * math.pi)
        if merged.size() == 1:
            assert np.isclose(
                math.remainder(merged.data[0].operation.params[0], 4 * math.pi), total, atol=1e-9
            )
        else:
            assert abs(total) < 1e-9


class TestNamedRegressions:
    def test_inverse_pair_meets_across_cancelled_pair(self):
        qc = QuantumCircuit(2)
        qc.tdg(0).h(1).h(1).cx(0, 1).t(0).tdg(0)
        optimized = optimize(qc)
        assert [i.operation.name for i in optimized.data] == ["tdg", "cx"]
        assert _states_equal(qc, optimized)

    def test_rotation_pair_around_cancelled_pair_vanishes(self):
        qc = QuantumCircuit(1)
        qc.rz(0.7, 0).x(0).x(0).rz(-0.7, 0)
        assert optimize(qc).data == []

    def test_gate_on_one_operand_blocks_two_qubit_pair(self):
        qc = QuantumCircuit(2)
        qc.cx(0, 1).h(1).cx(0, 1)
        assert optimize(qc).size() == 3

    def test_c_if_on_output_leaves_input_untouched(self):
        qc = QuantumCircuit(1, 1)
        qc.h(0).x(0)
        optimized = optimize(qc)
        optimized.c_if(optimized.cregs[0], 1)
        assert all(i.condition is None for i in qc.data)
        assert optimized.data[-1].condition is not None

    def test_rotation_sum_past_the_float_range_stays_unmerged(self, tmp_path):
        # 1e308 + 1e308 is inf, which has no remainder modulo the period
        from repro.qsim.qasm import from_qasm
        from repro.qsim.service import BatchPayload, JobStore, worker_loop
        from repro.qsim.transpiler import transpile

        source = (
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\ncreg c[1];\n'
            "rz(1e308) q[0];\nrz(1e308) q[0];\nmeasure q[0] -> c[0];\n"
        )
        compiled = transpile(from_qasm(source))
        assert [i.operation.params for i in compiled.data[:2]] == [[1e308], [1e308]]

        payload = BatchPayload(circuits=[{"name": "huge", "qasm": source}], shots=8, seed=1)
        with JobStore(tmp_path / "service.db") as store:
            job_id = store.submit(payload.to_json())
            worker_loop(store.path, burst=True)
            record = store.get(job_id)
        assert record.state == "DONE", record.error
        assert record.result_dict()["results"][0]["counts"] == {"0": 8}

    def test_rotation_sum_past_the_negative_float_range_stays_unmerged(self):
        qc = QuantumCircuit(1)
        qc.rx(-1e308, 0).rx(-1e308, 0)
        optimized = optimize(qc)
        assert [i.operation.params for i in optimized.data] == [[-1e308], [-1e308]]

    def test_huge_rotations_with_a_finite_sum_still_cancel(self):
        qc = QuantumCircuit(1)
        qc.ry(1e308, 0).ry(-1e308, 0)
        assert optimize(qc).data == []


# -- property: random circuits mixing cancelling pairs, rotations, id and blockers

_PAIRS = [
    ("x", "x"), ("h", "h"), ("z", "z"), ("s", "sdg"), ("sdg", "s"), ("t", "tdg"), ("tdg", "t")
]
_ONE_QUBIT = ["h", "x", "y", "z", "s", "sdg", "t", "tdg"]
_ROTATION_NAMES = ["rx", "ry", "rz", "p"]
_ANGLES = [0.0, 0.4, -0.4, math.pi, -math.pi, 2 * math.pi, 4 * math.pi]


@st.composite
def mixed_circuits(draw):
    n = draw(st.integers(1, 4))
    qc = QuantumCircuit(n, n)
    creg = qc.cregs[0]
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(
            ["pair", "gate", "rotation", "rotation_pair", "id", "two", "two_pair",
             "measure", "reset", "barrier", "if"]
        ))
        q = draw(st.integers(0, n - 1))
        if kind == "pair":
            first, second = draw(st.sampled_from(_PAIRS))
            getattr(qc, first)(q)
            getattr(qc, second)(q)
        elif kind == "gate":
            getattr(qc, draw(st.sampled_from(_ONE_QUBIT)))(q)
        elif kind in ("rotation", "rotation_pair"):
            name = draw(st.sampled_from(_ROTATION_NAMES))
            angle = draw(st.sampled_from(_ANGLES))
            getattr(qc, name)(angle, q)
            if kind == "rotation_pair":
                getattr(qc, name)(-angle, q)
        elif kind == "id":
            qc.id(q)
        elif kind in ("two", "two_pair") and n > 1:
            other = draw(st.integers(0, n - 2))
            other += other >= q
            name = draw(st.sampled_from(["cx", "cz", "swap"]))
            getattr(qc, name)(q, other)
            if kind == "two_pair":
                # a gate on one operand between the two copies must block them
                if draw(st.booleans()):
                    between = draw(st.sampled_from([q, other]))
                    getattr(qc, draw(st.sampled_from(_ONE_QUBIT)))(between)
                getattr(qc, name)(q, other)
        elif kind == "measure":
            qc.measure(q, draw(st.integers(0, n - 1)))
        elif kind == "reset":
            qc.reset(q)
        elif kind == "barrier":
            qc.barrier(*range(draw(st.integers(q, n - 1)) + 1))
        elif kind == "if":
            getattr(qc, draw(st.sampled_from(["x", "h", "t", "id"])))(q)
            qc.c_if(creg, draw(st.integers(0, 2**n - 1)))
    return qc


def _is_blocker(instr) -> bool:
    return instr.condition is not None or isinstance(
        instr.operation, (Measure, Reset, Barrier, Initialize)
    )


def _blocker_keys(circuit: QuantumCircuit) -> list:
    return [
        (i.operation.name, i.qubits, i.clbits, i.condition) for i in circuit.data if _is_blocker(i)
    ]


def _unitary_with_opaque_blockers(circuit: QuantumCircuit) -> np.ndarray:
    """The circuit's unitary after its k-th blocker is replaced by the k-th
    fixed random unitary on the same qubits: a pass that moved a gate across
    a blocker, or touched one, changes this matrix."""
    rng = np.random.default_rng(2024)
    opaque = QuantumCircuit(circuit.num_qubits)
    for instr in circuit.data:
        operation = instr.operation
        if _is_blocker(instr):
            dim = 2 ** len(instr.qubits)
            z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            operation = UnitaryGate(np.linalg.qr(z)[0])
        opaque.append(operation, [circuit.qubit_index(q) for q in instr.qubits])
    n = circuit.num_qubits
    columns = [
        SIM.evolve(opaque, initial_state=Statevector.from_int(v, n)).data for v in range(2**n)
    ]
    return np.array(columns).T


def _check_optimize_properties(circuit: QuantumCircuit) -> None:
    optimized = optimize(circuit)
    assert len(optimized.data) <= len(circuit.data)
    assert _blocker_keys(optimized) == _blocker_keys(circuit)
    assert np.allclose(
        _unitary_with_opaque_blockers(optimized), _unitary_with_opaque_blockers(circuit), atol=1e-9
    )
    assert to_qasm(optimize(optimized)) == to_qasm(optimized)


class TestOptimizeProperties:
    @given(circuit=mixed_circuits())
    @settings(max_examples=50, deadline=None)
    def test_random_mixed_circuits(self, circuit):
        _check_optimize_properties(circuit)

    @pytest.mark.slow
    @given(circuit=mixed_circuits())
    @settings(max_examples=2000, deadline=None)
    def test_random_mixed_circuits_deep(self, circuit):
        _check_optimize_properties(circuit)
