"""Hierarchical tracing: spans, traces, and the ambient recorder.

The design goal is a *cheap* disabled path.  ``span(name)`` consults one
``contextvars.ContextVar``; when no trace is active (the overwhelmingly
common case — tracing is opt-in per request) it returns a shared null
context manager and allocates nothing.  Only inside ``start_trace`` does a
``with span(...)`` actually record: a :class:`Span` with monotonic
``perf_counter_ns`` endpoints, attached to its parent through the context
variable, so nesting follows the dynamic call structure across the whole
pipeline (parse → typecheck → lower → fixpoint → cache) without threading a
recorder argument through every layer.

Context variables are per-thread (each server thread handles one request at
a time), so concurrent requests record into disjoint trees.

A finished :class:`Trace` renders three ways: ``to_dict`` (the in-band span
tree returned for ``"trace": true`` requests, with per-span ``self_ms`` that
telescopes exactly to the root duration), ``to_chrome_events`` (Chrome
``about:tracing`` / Perfetto complete events), and plain text via
:func:`render_span_tree`.
"""

from __future__ import annotations

import threading
import time
import uuid
from contextvars import ContextVar
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs import state


def new_trace_id() -> str:
    """A fresh 16-hex-digit request/trace identifier."""
    return uuid.uuid4().hex[:16]


class Span:
    """One timed, attributed node in a trace tree."""

    __slots__ = ("name", "attrs", "start_ns", "end_ns", "children")

    def __init__(self, name: str, attrs: Optional[Dict[str, Any]] = None):
        self.name = name
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.start_ns = time.perf_counter_ns()
        self.end_ns: Optional[int] = None
        self.children: List["Span"] = []

    def set(self, **attrs: Any) -> None:
        """Attach (or overwrite) attributes, e.g. results known only at exit."""
        self.attrs.update(attrs)

    def finish(self) -> None:
        if self.end_ns is None:
            self.end_ns = time.perf_counter_ns()

    @property
    def duration_ms(self) -> float:
        end = self.end_ns if self.end_ns is not None else time.perf_counter_ns()
        return (end - self.start_ns) / 1e6

    @property
    def self_ms(self) -> float:
        """Time spent in this span minus time attributed to its children.

        Summed over a whole tree this telescopes to exactly the root
        duration — the invariant the in-band trace consumers rely on.
        """
        return self.duration_ms - sum(child.duration_ms for child in self.children)

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "attrs": dict(self.attrs),
            "duration_ms": round(self.duration_ms, 6),
            "self_ms": round(self.self_ms, 6),
            "children": [child.to_dict() for child in self.children],
        }


class Trace:
    """A root span plus the id that correlates it with logs and responses."""

    __slots__ = ("trace_id", "root")

    def __init__(self, name: str, trace_id: Optional[str] = None):
        self.trace_id = trace_id or new_trace_id()
        self.root = Span(name)

    def finish(self) -> None:
        self.root.finish()

    def spans(self) -> List[Span]:
        return list(self.root.walk())

    def to_dict(self) -> dict:
        return {"trace_id": self.trace_id, "root": self.root.to_dict()}

    def to_chrome_events(self) -> List[dict]:
        """Chrome trace-event "complete" (``ph: X``) events, µs timestamps,
        all on one thread lane."""
        base = self.root.start_ns
        events: List[dict] = []
        for span in self.root.walk():
            end = span.end_ns if span.end_ns is not None else span.start_ns
            events.append({
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "ts": round((span.start_ns - base) / 1e3, 3),
                "dur": round((end - span.start_ns) / 1e3, 3),
                "pid": 1,
                "tid": 1,
                "args": dict(span.attrs),
            })
        return events


# The ambient recorder: the innermost open span of this thread's active
# trace, or None when tracing is off (the fast path).
_ACTIVE: ContextVar[Optional[Span]] = ContextVar("repro_obs_active_span", default=None)


# ---------------------------------------------------------------------------
# Span-stack publication for the sampling profiler
# ---------------------------------------------------------------------------
#
# The sampling profiler (repro.obs.profile) runs on its *own* thread, and a
# context variable cannot be read across threads.  While at least one
# profiler is attached, span enter/exit additionally mirrors the open-span
# names into a plain thread-keyed dict the sampler can read.  The publish
# flag is a single module global, so the traced path pays one extra global
# read per span when no profiler is running — and the untraced path pays
# nothing at all (it never reaches _SpanContext).

_PUBLISH_STACKS = False
_THREAD_STACKS: Dict[int, List[str]] = {}
_PUBLISH_LOCK = threading.Lock()
_PUBLISH_COUNT = 0


def _publish_stacks(attach: bool) -> None:
    """Reference-count profiler attachment; publication is on while > 0."""
    global _PUBLISH_STACKS, _PUBLISH_COUNT
    with _PUBLISH_LOCK:
        _PUBLISH_COUNT += 1 if attach else -1
        _PUBLISH_COUNT = max(0, _PUBLISH_COUNT)
        _PUBLISH_STACKS = _PUBLISH_COUNT > 0
        if not _PUBLISH_STACKS:
            _THREAD_STACKS.clear()


def thread_span_stack(thread_id: int) -> Tuple[str, ...]:
    """The open-span names of one thread, root first (empty when untraced).

    Only meaningful while a profiler is attached; the copy is taken under
    the GIL, so the sampler sees a consistent (if momentarily stale) stack.
    """
    stack = _THREAD_STACKS.get(thread_id)
    return tuple(stack) if stack else ()


def _stack_push(name: str) -> bool:
    _THREAD_STACKS.setdefault(threading.get_ident(), []).append(name)
    return True


def _stack_pop() -> None:
    stack = _THREAD_STACKS.get(threading.get_ident())
    if stack:
        stack.pop()


def active_span() -> Optional[Span]:
    """The innermost open span, for attaching attributes from deep layers."""
    return _ACTIVE.get()


class _NullContext:
    """Shared no-op context manager: the disabled path allocates nothing."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL = _NullContext()


class _SpanContext:
    __slots__ = ("_span", "_token", "_pushed")

    def __init__(self, parent: Span, name: str, attrs: Dict[str, Any]):
        child = Span(name, attrs)
        parent.children.append(child)
        self._span = child
        self._pushed = False

    def __enter__(self) -> Span:
        self._token = _ACTIVE.set(self._span)
        if _PUBLISH_STACKS:
            self._pushed = _stack_push(self._span.name)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._span.finish()
        _ACTIVE.reset(self._token)
        if self._pushed:
            _stack_pop()
        return False


def span(name: str, **attrs: Any):
    """Open a child span of the active trace; a no-op when none is active.

    Yields the :class:`Span` (or ``None`` when disabled), so callers guard
    exit-time attributes with ``if sp is not None``.
    """
    parent = _ACTIVE.get()
    if parent is None:
        return _NULL
    return _SpanContext(parent, name, attrs)


class _TraceContext:
    __slots__ = ("_trace", "_token", "_pushed")

    def __init__(self, name: str, trace_id: Optional[str]):
        self._trace = Trace(name, trace_id)
        self._pushed = False

    def __enter__(self) -> Trace:
        self._token = _ACTIVE.set(self._trace.root)
        if _PUBLISH_STACKS:
            self._pushed = _stack_push(self._trace.root.name)
        return self._trace

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._trace.finish()
        _ACTIVE.reset(self._token)
        if self._pushed:
            _stack_pop()
        return False


def start_trace(name: str, trace_id: Optional[str] = None):
    """Activate tracing for the dynamic extent of the ``with`` block.

    Yields the :class:`Trace` (or ``None`` when observability is globally
    disabled).  Nesting is deliberate: a ``start_trace`` inside an active
    trace starts a *new* independent trace — request boundaries, not call
    boundaries, decide trace identity.
    """
    if not state.ENABLED:
        return _NULL
    return _TraceContext(name, trace_id)


def filter_span_tree(
    tree: dict,
    min_self_ms: float = 0.0,
    max_depth: Optional[int] = None,
) -> Tuple[dict, int]:
    """Prune a ``Span.to_dict`` tree for readable rendering.

    Drops spans deeper than ``max_depth`` (root is depth 0) and spans whose
    ``self_ms`` is below ``min_self_ms`` — unless a retained descendant
    needs them as structure.  The root always survives.  Returns the pruned
    copy plus how many spans were hidden, so the renderer can say so
    instead of silently looking complete.
    """

    def prune(node: dict, depth: int) -> Tuple[Optional[dict], int]:
        hidden = 0
        kept_children: List[dict] = []
        for child in node.get("children", ()):
            if max_depth is not None and depth + 1 > max_depth:
                hidden += sum(1 for _ in _count_spans(child))
                continue
            kept, child_hidden = prune(child, depth + 1)
            hidden += child_hidden
            if kept is not None:
                kept_children.append(kept)
        significant = node.get("self_ms", 0.0) >= min_self_ms
        if depth > 0 and not significant and not kept_children:
            return None, hidden + 1
        out = dict(node, children=kept_children)
        return out, hidden

    def _count_spans(node: dict):
        yield node
        for child in node.get("children", ()):
            yield from _count_spans(child)

    pruned, hidden = prune(tree, 0)
    assert pruned is not None  # the root always survives
    return pruned, hidden


def render_span_tree(tree: dict, indent: int = 0, out: Optional[List[str]] = None) -> str:
    """Human-readable indented rendering of a ``Span.to_dict`` tree."""
    lines = out if out is not None else []
    attrs = tree.get("attrs") or {}
    rendered_attrs = (
        " [" + ", ".join(f"{k}={v}" for k, v in sorted(attrs.items())) + "]"
        if attrs
        else ""
    )
    lines.append(
        "{}{}  {:.3f}ms (self {:.3f}ms){}".format(
            "  " * indent,
            tree.get("name", "?"),
            tree.get("duration_ms", 0.0),
            tree.get("self_ms", 0.0),
            rendered_attrs,
        )
    )
    for child in tree.get("children", ()):
        render_span_tree(child, indent + 1, lines)
    return "\n".join(lines)
