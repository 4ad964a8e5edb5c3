"""Seed-sweep golden of the standard-library Qutes programs under noise.

Every bundled program runs through ``run_source`` on a statevector session
under depolarizing noise at p=0.01 (built as ``--noise 0.01`` builds it) at
seeds 0-49; its printed output and measurement records (label, qubits,
outcome) must match ``tests/golden/qutes_stdlib_statevector_noise0.01.txt``
line for line.  The golden pins the noisy session's seed stream end to end:
which qubit draws which error, and how an error acts on the state.  Run this
file as a script to print the current text.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.lang.compiler import run_source
from repro.lang.stdlib import get_program, list_programs
from repro.qsim.backends import build_noisy_backend

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "qutes_stdlib_statevector_noise0.01.txt"

SEEDS = range(50)
NOISE = 0.01


def render() -> str:
    """One JSON line per (program, seed): the printed lines and the
    measurement records."""
    lines = []
    for name in list_programs():
        source = get_program(name)
        for seed in SEEDS:
            backend = build_noisy_backend("statevector", NOISE, "depolarizing", seed)
            result = run_source(source, seed=seed, backend=backend)
            record = {
                "program": name,
                "seed": seed,
                "output": result.output,
                "measurements": [
                    [m["label"], list(m["qubits"]), m["outcome"]] for m in result.measurements
                ],
            }
            lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + "\n"


def test_noisy_stdlib_programs_match_the_seed_sweep_golden():
    assert render().splitlines() == GOLDEN.read_text().splitlines()


if __name__ == "__main__":
    sys.stdout.write(render())
