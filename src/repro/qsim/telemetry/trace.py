"""Tracing spans: where did this run spend its time?

A **span** is one timed region of execution -- a name, a tag dict, wall and
CPU time -- opened with the :func:`span` context manager.  Spans nest: the
innermost open span on the current thread is the parent of any span opened
inside it, so instrumented layers (worker -> cache -> transpile -> engine)
compose into a tree without passing anything around.  When a *root* span
(no parent) closes, its finished tree is parked in a small per-thread
buffer; whoever owns the operation (the service worker, a benchmark)
collects it with :func:`drain_spans` and persists or prints it.

The overhead budget is "cheap enough to leave on": an enabled span is two
clock reads, an object allocation and a list append; a disabled one
(:func:`disable`) is a single attribute check returning a shared no-op
object -- **exactly** zero state is created or mutated, which is what lets
the benchmark gate assert no-op behaviour rather than merely-small
behaviour.

Span trees serialize to plain dicts (:meth:`Span.to_dict`), travel through
the job store as JSON, and render back into an indented tree with
wall-time attribution via :func:`format_span_tree`.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Dict, List, Optional

__all__ = [
    "Span",
    "span",
    "current_span",
    "drain_spans",
    "clear_spans",
    "enable",
    "disable",
    "enabled",
    "format_span_tree",
]

#: finished root spans kept per thread before the oldest are dropped; bounds
#: memory when nobody drains (always-on mode outside the service)
MAX_BUFFERED_ROOTS = 64

_span_ids = itertools.count(1)

# hot-path aliases: skip the module-attribute lookup per clock read, and
# derive wall-clock start times from one epoch anchor instead of an extra
# time.time() call inside every span
_perf_counter = time.perf_counter
_process_time = time.process_time
_EPOCH_ANCHOR = time.time() - time.perf_counter()


class _Config:
    """Process-wide telemetry switch."""

    __slots__ = ("enabled",)

    def __init__(self) -> None:
        self.enabled = True


CONFIG = _Config()


def enable() -> None:
    """Turn span collection on (the default)."""
    CONFIG.enabled = True


def disable() -> None:
    """Turn every span into an exact no-op."""
    CONFIG.enabled = False


def enabled() -> bool:
    return CONFIG.enabled


class Span:
    """One timed region: name, tags, wall/CPU seconds, children.

    Doubles as its own context manager (``telemetry.span(...)`` is an alias
    for this class): construction only stashes the name and tags, so an
    instance built while telemetry is disabled costs one small allocation
    and ``__enter__`` can bail to :data:`NULL_SPAN` without ever reading a
    clock.  Keeping one object instead of a wrapper + payload pair is a
    deliberate hot-path optimization -- spans sit inside the per-experiment
    engine loop.
    """

    __slots__ = (
        "name",
        "tags",
        "span_id",
        "parent_id",
        "children",
        "started_at",
        "wall_s",
        "cpu_s",
        "_wall0",
        "_cpu0",
        "_open",
    )

    def __init__(self, _name: str, **tags: Any):
        self.name = _name
        self.tags = tags
        self._open = False

    def _start(self, parent_id: Optional[int]) -> None:
        self.span_id = next(_span_ids)
        self.parent_id = parent_id
        self.children: List["Span"] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._cpu0 = _process_time()
        self._wall0 = _perf_counter()
        self.started_at = _EPOCH_ANCHOR + self._wall0

    def tag(self, **tags: Any) -> "Span":
        """Attach tags after the fact (e.g. an outcome known only at the end)."""
        self.tags.update(tags)
        return self

    def _finish(self) -> None:
        self.wall_s = _perf_counter() - self._wall0
        self.cpu_s = _process_time() - self._cpu0

    # -- context manager ---------------------------------------------------------

    def __enter__(self):
        if not CONFIG.enabled:
            return NULL_SPAN
        stack = _state.stack
        self._start(stack[-1].span_id if stack else None)
        self._open = True
        stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self._open:  # disabled at __enter__: nothing was opened
            return
        self._open = False
        if exc_type is not None:
            self.tags["error"] = exc_type.__name__
        self._finish()
        stack = _state.stack
        # a disable()/clear_spans() inside the block may have emptied the stack
        if stack and stack[-1] is self:
            stack.pop()
        if stack:
            stack[-1].children.append(self)
        else:
            roots = _state.roots
            roots.append(self)
            if len(roots) > MAX_BUFFERED_ROOTS:
                del roots[:-MAX_BUFFERED_ROOTS]

    # -- (de)serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able tree rooted at this span (the job-store artifact shape)."""
        node: Dict[str, Any] = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "started_at": self.started_at,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
        }
        if self.tags:
            node["tags"] = dict(self.tags)
        if self.children:
            node["children"] = [child.to_dict() for child in self.children]
        return node

    def __repr__(self) -> str:
        return f"Span(name={self.name!r}, wall_s={self.wall_s:.6f}, tags={self.tags})"


class _NullSpan:
    """What :func:`span` yields while telemetry is disabled: does nothing."""

    __slots__ = ()

    name = "<disabled>"
    tags: Dict[str, Any] = {}
    children: List["Span"] = []
    wall_s = 0.0
    cpu_s = 0.0

    def tag(self, **tags: Any) -> "_NullSpan":
        return self

    def to_dict(self) -> Dict[str, Any]:
        return {}


NULL_SPAN = _NullSpan()


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: List[Span] = []
        self.roots: List[Span] = []


_state = _ThreadState()


#: ``with telemetry.span("name", key=value):`` -- opens a span named *name*
#: with the given tags.  Yields the live :class:`Span` (or the shared no-op
#: object when telemetry is disabled -- decided at ``__enter__``, so a
#: mid-span ``disable()`` still closes cleanly).  An exception propagating
#: through the block tags the span ``error=<ExceptionType>`` before
#: re-raising.
span = Span


def current_span() -> Optional[Span]:
    """The innermost open span on this thread, or ``None``."""
    return _state.stack[-1] if _state.stack else None


def drain_spans() -> List[Span]:
    """Return and clear this thread's finished root spans (oldest first)."""
    roots = _state.roots
    _state.roots = []
    return roots


def clear_spans() -> None:
    """Drop this thread's finished roots *and* any open span stack."""
    _state.roots = []
    _state.stack = []


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _format_tags(tags: Dict[str, Any]) -> str:
    return " ".join(f"{key}={value}" for key, value in sorted(tags.items()))


def format_span_tree(node: Dict[str, Any], total_wall_s: Optional[float] = None) -> str:
    """Render a :meth:`Span.to_dict` tree as an indented text table.

    Each line shows the span name, wall milliseconds, percentage of the
    root's wall time, self milliseconds (wall time no child span accounts
    for), and tags; children are drawn with box characters.
    """
    if not node:
        return "(empty trace)"
    total = total_wall_s if total_wall_s is not None else (node.get("wall_s") or 0.0)
    lines: List[str] = []

    def walk(current: Dict[str, Any], prefix: str, child_prefix: str) -> None:
        wall = current.get("wall_s", 0.0)
        children = current.get("children", [])
        self_s = wall - sum(child.get("wall_s", 0.0) for child in children)
        share = f"{100.0 * wall / total:5.1f}%" if total > 0 else "    -"
        text = (
            f"{prefix}{current.get('name', '?')}  {wall * 1000.0:9.3f} ms  {share}"
            f"  self {self_s * 1000.0:9.3f} ms"
        )
        tags = current.get("tags")
        if tags:
            text += f"  {_format_tags(tags)}"
        lines.append(text)
        for index, child in enumerate(children):
            last = index == len(children) - 1
            walk(
                child,
                child_prefix + ("└─ " if last else "├─ "),
                child_prefix + ("   " if last else "│  "),
            )

    walk(node, "", "")
    return "\n".join(lines)
