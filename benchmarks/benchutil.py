"""Shared helpers for the ``bench_*.py`` scripts.

Every benchmark accepts a ``--out PATH`` flag and, when given, writes its
measurements as a small JSON document with a common envelope::

    {"benchmark": "<name>", "timestamp": <epoch seconds>,
     "config": {...cli args...}, "results": [...rows...]}

CI smoke-runs the benchmarks with ``--out`` and uploads the JSON files as
workflow artifacts, so the performance trajectory is inspectable per commit
without digging through logs.
"""

from __future__ import annotations

import argparse
import json
import math
import time
from typing import Any, Dict, List, Optional


def total_variation(a: Dict[str, float], b: Dict[str, float]) -> float:
    """Total-variation distance of two histograms (each normalised by its total)."""
    total_a = sum(a.values()) or 1
    total_b = sum(b.values()) or 1
    keys = set(a) | set(b)
    return 0.5 * sum(abs(a.get(k, 0) / total_a - b.get(k, 0) / total_b) for k in keys)


def tvd_floor(outcomes: int, shots: int) -> float:
    """The corpus's cross-engine TVD gate (``bench_qasm.py``): two samples
    of one distribution differ by about ``0.75*sqrt(outcomes/shots)``."""
    return min(0.5, 0.02 + 1.3 * math.sqrt(outcomes / shots))


def add_out_argument(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--out`` flag to *parser*."""
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the measurements as JSON to PATH (for CI artifacts)",
    )


def write_results(
    out: Optional[str],
    benchmark: str,
    config: Dict[str, Any],
    results: List[Dict[str, Any]],
    **extra: Any,
) -> None:
    """Write the common JSON envelope to *out* (no-op when *out* is None)."""
    if out is None:
        return
    payload: Dict[str, Any] = {
        "benchmark": benchmark,
        "timestamp": time.time(),
        "config": config,
        "results": results,
    }
    payload.update(extra)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {out}")
