"""Causal tracing across containers.

Every container owns one :class:`Tracer`. When tracing is enabled, the
primitives open a :class:`Span` per publish/call/deliver and the container
propagates the active :class:`TraceContext` through its scheduler, so work
triggered by a remote message (an RPC executing, an event callback firing)
is recorded as a child of the span that caused it — even across containers,
because the context rides the wire as an optional payload tail (see
``primitives/wire.py``).

Ids are minted from per-tracer counters seeded by the container id, so a
seeded simulation produces bit-identical span trees on every run (the
replay-determinism contract from PR 1).

Tracing is **disabled by default**: with ``enabled = False`` every tracer
call is a cheap no-op and wire frames are byte-identical to the untraced
format.
"""

from __future__ import annotations

import itertools
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, ContextManager, Dict, List, Optional

from repro.util.clock import Clock


@dataclass(frozen=True)
class TraceContext:
    """What crosses the wire: enough to parent the receiver's spans."""

    trace_id: str
    span_id: str

    def to_doc(self) -> Dict[str, str]:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @staticmethod
    def from_doc(doc: Dict[str, str]) -> "TraceContext":
        return TraceContext(trace_id=doc["trace_id"], span_id=doc["span_id"])


@dataclass
class Span:
    """One timed operation inside a trace (virtual-time stamps)."""

    trace_id: str
    span_id: str
    parent_id: str  # "" for a trace root
    name: str
    kind: str
    container: str
    start: float
    end: Optional[float] = None
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def context(self) -> TraceContext:
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)

    def to_dict(self) -> Dict[str, object]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "container": self.container,
            "start": self.start,
            "end": self.end,
            "attrs": dict(self.attrs),
        }


#: Span-stream listeners receive ``(span, phase)`` with phase ``"start"``
#: (the span just opened; end is still None) or ``"finish"``.
SpanListener = Callable[[Span, str], None]


class Tracer:
    """Per-container span factory and ambient-context holder.

    The *current* context is whatever span the container is logically
    inside right now; ``ServiceContainer.submit`` captures it when work is
    queued and restores it when the task runs, which is what chains a
    callback's spans to the message that scheduled it.

    External consumers (runtime-verification monitors, exporters) observe
    the span stream through :meth:`subscribe` rather than polling
    ``self.spans`` — the stable hook fires synchronously on span start and
    finish. With tracing disabled no listener ever fires and the disabled
    fast path is untouched (``start_span`` still returns before minting
    anything); the packet-trace parity test pins that a subscribed-but-
    disabled tracer leaves wire traffic byte-identical.
    """

    def __init__(self, container_id: str, clock: Clock, enabled: bool = False):
        self.container_id = container_id
        self.enabled = enabled
        self._clock = clock
        self.spans: List[Span] = []
        self.current: Optional[TraceContext] = None
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self._listeners: List[SpanListener] = []

    # -- span-stream subscription -------------------------------------------
    def subscribe(self, listener: SpanListener) -> SpanListener:
        """Attach ``listener`` to the span stream (called synchronously with
        ``(span, "start"|"finish")`` while tracing is enabled). Returns the
        listener for symmetric :meth:`unsubscribe`."""
        self._listeners.append(listener)
        return listener

    # -- span lifecycle -----------------------------------------------------
    def start_span(
        self,
        name: str,
        kind: str,
        parent: Optional[TraceContext] = None,
        **attrs: object,
    ) -> Optional[Span]:
        """Open a span (child of ``parent``, else of the current context,
        else a new trace root). Returns None when tracing is disabled."""
        if not self.enabled:
            return None
        if parent is None:
            parent = self.current
        if parent is None:
            trace_id = f"{self.container_id}-t{next(self._trace_ids)}"
            parent_id = ""
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        span = Span(
            trace_id=trace_id,
            span_id=f"{self.container_id}-s{next(self._span_ids)}",
            parent_id=parent_id,
            name=name,
            kind=kind,
            container=self.container_id,
            start=self._clock.now(),
            attrs=dict(attrs),
        )
        self.spans.append(span)
        if self._listeners:
            for listener in self._listeners:
                listener(span, "start")
        return span

    def finish(self, span: Optional[Span]) -> None:
        if span is not None and span.end is None:
            span.end = self._clock.now()
            if self._listeners:
                for listener in self._listeners:
                    listener(span, "finish")

    @staticmethod
    def context_of(span: Optional[Span]) -> Optional[TraceContext]:
        return span.context() if span is not None else None

    # -- ambient context ----------------------------------------------------
    def activate(self, context: Optional[TraceContext]) -> "ContextManager":
        """Make ``context`` current for the duration; None is a no-op (the
        surrounding context, if any, stays active).

        Returns a shared inert manager for None — the disabled-tracing
        case sits on every publish/deliver hot path, so it must not
        allocate a generator per call.
        """
        if context is None:
            return _NULL_ACTIVATION
        return _Activation(self, context)

    # -- export -------------------------------------------------------------
    def export(self) -> List[Dict[str, object]]:
        return [span.to_dict() for span in self.spans]

    def clear(self) -> None:
        self.spans.clear()


class _Activation:
    """Swap the tracer's ambient context for the duration of a block."""

    __slots__ = ("_tracer", "_context", "_previous")

    def __init__(self, tracer: Tracer, context: TraceContext):
        self._tracer = tracer
        self._context = context
        self._previous = None

    def __enter__(self):
        self._previous = self._tracer.current
        self._tracer.current = self._context
        return None

    def __exit__(self, exc_type, exc, tb):
        self._tracer.current = self._previous
        return False


#: Stateless, so one instance serves every disabled-tracing block.
_NULL_ACTIVATION: ContextManager = nullcontext()


def build_span_tree(spans: List[Span]) -> List[Dict[str, object]]:
    """Reassemble spans (possibly from several tracers) into root trees.

    Each node is the span's ``to_dict()`` plus a ``children`` list; children
    sort by (start, span_id) so trees are deterministic. A span whose parent
    is unknown (e.g. the parent's container was never collected) becomes a
    root — the tree never silently drops spans.
    """
    nodes = {
        span.span_id: {**span.to_dict(), "children": []} for span in spans
    }
    roots = []
    for span in spans:
        node = nodes[span.span_id]
        parent = nodes.get(span.parent_id) if span.parent_id else None
        if parent is None:
            roots.append(node)
        else:
            parent["children"].append(node)
    def order(node):
        return (node["start"], node["span_id"])
    for node in nodes.values():
        node["children"].sort(key=order)
    roots.sort(key=order)
    return roots


def format_span_tree(roots: List[Dict[str, object]]) -> List[str]:
    """Human-readable indented rendering of :func:`build_span_tree`."""
    lines: List[str] = []

    def visit(node: Dict[str, object], depth: int) -> None:
        duration = (
            f"{(node['end'] - node['start']) * 1e3:.3f} ms"
            if node["end"] is not None
            else "open"
        )
        lines.append(
            f"{'  ' * depth}t={node['start']:.6f} [{node['container']}] "
            f"{node['kind']} {node['name']} ({duration})"
        )
        for child in node["children"]:
            visit(child, depth + 1)

    for root in roots:
        visit(root, 0)
    return lines


__all__ = [
    "TraceContext",
    "Span",
    "SpanListener",
    "Tracer",
    "build_span_tree",
    "format_span_tree",
]
