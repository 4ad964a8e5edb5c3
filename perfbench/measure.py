"""Arithmetic of the end-to-end benchmark: statistics, spans, accounting.

Nothing here imports the program under test, so the tests in
``test_measure.py`` check the benchmark's own numbers in isolation:

* :func:`percentile` -- nearest-rank percentile that reports its sample
  count and how many samples lie beyond it;
* :func:`pass_cost` -- one pass's cost from many passes, robust to the
  slow spells of a shared host;
* :class:`HostSpeed` -- a fixed reference computation timed through the
  run, whose fastest time scales the run's timings to one host speed;
* :func:`throughput` -- work per second aggregated across operations as
  total work over total time, never a mean of per-operation rates;
* :class:`Ledger` -- attempted / failed accounting behind ``failed_ratio``;
* :func:`find_spans` and :func:`merge_tree` -- span trees in the
  ``Span.to_dict`` shape of ``repro.qsim.telemetry`` (taken here as plain
  dicts), searched by name and merged into one tree whose self time is a
  span's duration minus its children's.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Sequence

import numpy as np


@dataclass(frozen=True)
class Percentile:
    """A percentile together with the samples it rests on."""

    value: float
    samples: int
    beyond: int


def percentile(values: Sequence[float], p: float) -> Percentile:
    """Nearest-rank *p*-th percentile of *values* (0 < p <= 100).

    The value is ``sorted(values)[ceil(p/100 * n) - 1]``, an observed sample
    rather than an interpolation, so a percentile always names a real
    operation.  ``beyond`` counts the samples strictly after that rank: a
    percentile is worth reporting only when ten or more lie beyond it.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile rank {p} outside (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return Percentile(ordered[rank - 1], len(ordered), len(ordered) - rank)


def pass_cost(samples: Dict[Any, List[float]], passes: int) -> float:
    """Cost of one pass: each operation's fastest time, times its runs a pass.

    *samples* maps an operation key to its times across *passes* passes;
    an operation that runs several times a pass (a resubmitted service
    payload) has that many samples per pass.  Other tenants of a shared
    host slow it for seconds at a time, by 40% and more, and never speed
    it up: an operation's fastest sample is what it costs while the host
    is quiet, and a change that slows every execution still moves it.
    Summing per operation keeps any one pass's slow spell out of the
    figure, which a quantile of whole-pass times over a few passes cannot.
    """
    if not samples or passes < 1:
        raise ValueError("no operations timed")
    return sum(min(times) * len(times) / passes for times in samples.values())


class HostSpeed:
    """How fast the host runs this process now, from a fixed reference computation.

    A shared host has slow spells that last minutes and slow every
    operation of a run together, so even an operation's fastest time moves
    between runs of the same code.  The reference -- a Python dictionary
    loop and four 2x2 gate contractions over a 16-qubit state vector, the
    two kinds of work the program does -- is timed between operations; its
    fastest time in the run measures the spell.  :attr:`factor` scales the
    run's timings to the speed at which the reference takes
    :attr:`QUIET_S`.  The reference uses nothing of the program, so no
    change to the program moves it.
    """

    #: about the reference's fastest time inside a workload on a quiet
    #: host (2 vCPUs, x86-64 with AVX2, Python 3.11, NumPy 2): the speed
    #: the scaled timings are given at
    QUIET_S = 2.0e-3

    def __init__(self) -> None:
        self.samples: List[float] = []
        # two state buffers the contractions write back and forth: the
        # reference allocates nothing, so the allocator's state, which
        # differs between workloads, cannot change its time
        state = np.random.default_rng(0).standard_normal(1 << 16).astype(complex)
        self._buffers = (state, np.empty_like(state))
        self._gate = np.array([[0, 1], [1, 0]], dtype=complex)

    def sample(self) -> None:
        """Time the reference computation once."""
        started = time.perf_counter()
        table: Dict[int, int] = {}
        for i in range(1500):
            table[i % 97] = table.get(i % 97, 0) + i
        source, target = self._buffers
        for qubit in (0, 5, 10, 15):
            shape = (-1, 2, 1 << qubit)
            np.matmul(self._gate, source.reshape(shape), out=target.reshape(shape))
            source, target = target, source
        self.samples.append(time.perf_counter() - started)

    @property
    def factor(self) -> float:
        """Quiet reference time over this run's fastest: below 1 in a slow spell."""
        if not self.samples:
            raise ValueError("the reference was never timed")
        return self.QUIET_S / min(self.samples)


def throughput(work: Iterable[float], seconds: Iterable[float]) -> float:
    """Total work over total seconds across operations (0 when nothing ran)."""
    total_seconds = sum(seconds)
    return sum(work) / total_seconds if total_seconds > 0 else 0.0


class Ledger:
    """Counts operations (and run-end checks) attempted and failed.

    The first messages are kept for printing.

    An operation counts once however many of its checks fail, so
    ``failed_ratio`` stays a share of operations, never above 1.
    """

    MAX_MESSAGES = 20

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def record(self, problems: Sequence[str]) -> None:
        """Account one operation together with the checks it failed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            room = self.MAX_MESSAGES - len(self.messages)
            self.messages.extend(problems[:max(0, room)])

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class TreeNode:
    """Spans merged by their path from the root: calls, wall and self time."""

    name: str
    calls: int = 0
    wall_s: float = 0.0
    children: Dict[str, "TreeNode"] = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.wall_s - sum(child.wall_s for child in self.children.values())

    def add(self, span: Dict[str, Any]) -> None:
        """Merge one span dict (``name``, ``wall_s``, ``children``) below self."""
        node = self.children.get(span["name"])
        if node is None:
            node = self.children[span["name"]] = TreeNode(span["name"])
        node.calls += 1
        node.wall_s += span.get("wall_s", 0.0)
        for child in span.get("children", ()):
            node.add(child)


def find_spans(nodes: Iterable[Dict[str, Any]], name: str) -> List[Dict[str, Any]]:
    """Every span dict called *name* in the trees under *nodes*, at any depth."""
    found: List[Dict[str, Any]] = []
    pending = list(nodes)
    while pending:
        node = pending.pop()
        if node["name"] == name:
            found.append(node)
        pending.extend(node.get("children", ()))
    return found


def merge_tree(spans: Iterable[Dict[str, Any]]) -> TreeNode:
    """Merge span dicts into one :class:`TreeNode` tree under a bare root."""
    root = TreeNode("")
    for span in spans:
        root.add(span)
    root.wall_s = sum(child.wall_s for child in root.children.values())
    return root


def format_tree(root: TreeNode, per: int = 1) -> str:
    """Indented table of *root*'s children: calls, wall and self ms per *per* passes."""
    lines = [f"{'span':44} {'calls':>7} {'wall ms':>10} {'self ms':>10} {'share':>6}"]
    total = root.wall_s or 1.0

    def walk(node: TreeNode, depth: int) -> None:
        for child in sorted(node.children.values(), key=lambda c: -c.wall_s):
            label = "  " * depth + child.name
            lines.append(
                f"{label:44} {child.calls / per:7.1f} {1e3 * child.wall_s / per:10.3f} "
                f"{1e3 * child.self_s / per:10.3f} {100.0 * child.wall_s / total:5.1f}%"
            )
            walk(child, depth + 1)

    walk(root, 0)
    return "\n".join(lines)
