"""Ablation -- adder family used by the ``+`` operator.

DESIGN.md calls out the choice between the Cuccaro ripple-carry adder
(Toffoli/CNOT, one ancilla, depth O(n)) and the Draper QFT adder
(controlled-phase, no ancilla).  This harness compares gate counts, depth
(before and after lowering to the {1q, CX} basis) and simulation time over a
width sweep, and verifies both produce identical sums.
"""

from __future__ import annotations

import pytest

from repro.arithmetic.adder import draper_adder_circuit, ripple_carry_adder_circuit
from repro.qsim.circuit import QuantumCircuit
from repro.qsim.simulator import StatevectorSimulator
from repro.qsim.statevector import Statevector
from repro.qsim.transpiler import basis_gate_count, decompose, two_qubit_gate_count

WIDTHS = [2, 3, 4, 5, 6]
SIM = StatevectorSimulator(seed=0)


def _run_adder(circuit: QuantumCircuit, a: int, b: int, width: int) -> int:
    initial = a | (b << width)  # a in the low register, b in the high register
    state = SIM.evolve(circuit, initial_state=Statevector.from_int(initial, circuit.num_qubits))
    probs = state.probabilities(list(range(width, 2 * width)))
    return int(probs.argmax())


@pytest.mark.parametrize("width", WIDTHS)
def test_adders_agree(width):
    a = (1 << width) - 2
    b = 3 % (1 << width)
    expected = (a + b) % (1 << width)
    assert _run_adder(ripple_carry_adder_circuit(width), a, b, width) == expected
    assert _run_adder(draper_adder_circuit(width), a, b, width) == expected


def test_ablation_adder_series(report, benchmark):
    rows = []
    for width in WIDTHS:
        ripple = ripple_carry_adder_circuit(width)
        draper = draper_adder_circuit(width)
        rows.append(
            [
                width,
                ripple.size(),
                basis_gate_count(ripple),
                decompose(ripple).depth(),
                draper.size(),
                basis_gate_count(draper),
                decompose(draper).depth(),
            ]
        )
    report(
        "Ablation: Cuccaro ripple-carry vs Draper QFT adder",
        [
            "width",
            "ripple gates",
            "ripple gates (lowered)",
            "ripple depth (lowered)",
            "draper gates",
            "draper gates (lowered)",
            "draper depth (lowered)",
        ],
        rows,
    )
    # shape: both grow with width; the ripple-carry adder stays CX-dominated
    assert rows[-1][1] > rows[0][1]
    assert rows[-1][4] > rows[0][4]

    benchmark(lambda: _run_adder(ripple_carry_adder_circuit(5), 21, 9, 5))


def test_bench_draper_adder(benchmark):
    benchmark(lambda: _run_adder(draper_adder_circuit(5), 21, 9, 5))


def test_two_qubit_cost_comparison(report):
    rows = []
    for width in WIDTHS:
        rows.append(
            [
                width,
                two_qubit_gate_count(ripple_carry_adder_circuit(width)),
                two_qubit_gate_count(draper_adder_circuit(width)),
            ]
        )
    report(
        "Ablation: CX count after lowering",
        ["width", "ripple CX", "draper CX"],
        rows,
    )
    assert all(row[1] > 0 and row[2] > 0 for row in rows)
