"""Structured tracing: span trees with an ambient context.

The tracer mirrors the design of :mod:`repro.robustness.budget`: a
:class:`Tracer` is installed as the *ambient* tracer by the
:func:`tracing` context manager, and instrumentation sites call the
module-level helpers (:func:`span`, :func:`add`, :func:`event`,
:func:`set_attr`), which are no-ops costing one context-variable read
when no tracer is installed — tracing is off by default and the hot
paths pay essentially nothing for the hooks.

A trace is a flat list of JSON-safe records (schema in
:mod:`repro.observability.schema`): one ``meta`` record, one ``span``
record per closed span (with parent id, wall-clock interval, attributes
and counters), and ``event`` records attached to the span that was open
when they fired.  Counters are *monotone within a span*: they can only
be incremented by non-negative amounts, so a counter value in a span
record is the total the span accumulated, and per-phase aggregation is
a plain sum.

Traces compose by grafting: a job records into its own local tracer
and hands the finished records over; the owner of a longer-lived
tracer calls :meth:`Tracer.graft` to re-identify them and hang the
subtree under its currently open span (see
:mod:`repro.service.orchestrator`).
"""

from __future__ import annotations

import json
import os
import time
from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar

from repro.observability.schema import SCHEMA_VERSION
from repro.robustness.errors import EngineMisuse


class _NullSpan:
    """The shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def add(self, counter: str, amount: int = 1) -> None:
        pass

    def set_attr(self, key: str, value: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class SpanHandle:
    """One open span of an active tracer (a context manager)."""

    __slots__ = (
        "tracer",
        "span_id",
        "parent_id",
        "name",
        "attrs",
        "counters",
        "started_at",
    )

    def __init__(self, tracer: "Tracer", span_id: int, parent_id: int | None,
                 name: str, attrs: dict) -> None:
        self.tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs
        self.counters: dict[str, int] = {}
        self.started_at = time.perf_counter()

    def add(self, counter: str, amount: int = 1) -> None:
        """Increment a counter; amounts must be non-negative (monotone)."""
        if amount < 0:
            raise EngineMisuse(
                f"counter {counter!r} increment must be non-negative, "
                f"got {amount}"
            )
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def set_attr(self, key: str, value: object) -> None:
        """Set (or overwrite) one attribute of the open span."""
        self.attrs[key] = value

    def __enter__(self) -> "SpanHandle":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc_value: BaseException | None,
        traceback: object,
    ) -> bool:
        self.tracer._close_span(
            self, "error" if exc_type is not None else "ok",
            error=None if exc_value is None else str(exc_value),
        )
        return False


class Tracer:
    """Collects one trace: a tree of spans with counters and events.

    The tracer opens an implicit root span named ``"trace"`` so that
    counters incremented outside any explicit span still land
    somewhere.  Call :meth:`finish` (or use :func:`tracing`, which
    does) to close the root and append the ``meta`` record; after that
    :attr:`records` is the complete trace, :meth:`to_jsonl` renders it,
    and :meth:`write` saves it.
    """

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._next_id = 0
        self._stack: list[SpanHandle] = []
        self._origin = time.perf_counter()
        self._finished = False
        self._root = self._open_span("trace", {})

    # -- span lifecycle --------------------------------------------------

    def _open_span(self, name: str, attrs: dict) -> SpanHandle:
        span_id = self._next_id
        self._next_id += 1
        parent_id = self._stack[-1].span_id if self._stack else None
        handle = SpanHandle(self, span_id, parent_id, name, attrs)
        self._stack.append(handle)
        return handle

    def _close_span(
        self, handle: SpanHandle, status: str, error: str | None = None
    ) -> None:
        # Close any children left open (an exception unwound past them).
        while self._stack and self._stack[-1] is not handle:
            inner = self._stack.pop()
            self.records.append(self._span_record(inner, "error", None))
        if self._stack and self._stack[-1] is handle:
            self._stack.pop()
        self.records.append(self._span_record(handle, status, error))

    def _span_record(
        self, handle: SpanHandle, status: str, error: str | None
    ) -> dict:
        ended = time.perf_counter()
        record = {
            "type": "span",
            "id": handle.span_id,
            "parent": handle.parent_id,
            "name": handle.name,
            "start_s": round(handle.started_at - self._origin, 6),
            "duration_s": round(ended - handle.started_at, 6),
            "status": status,
            "attrs": handle.attrs,
            "counters": handle.counters,
        }
        if error is not None:
            record["error"] = error
        return record

    def span(self, name: str, **attrs: object) -> SpanHandle:
        """Open a child of the currently innermost span."""
        return self._open_span(name, attrs)

    def current_span(self) -> SpanHandle:
        """The innermost open span (the root when none is)."""
        return self._stack[-1] if self._stack else self._root

    # -- counters and events ---------------------------------------------

    def add(self, counter: str, amount: int = 1) -> None:
        self.current_span().add(counter, amount)

    def event(self, name: str, **attrs: object) -> None:
        self.records.append({
            "type": "event",
            "span": self.current_span().span_id,
            "name": name,
            "at_s": round(time.perf_counter() - self._origin, 6),
            "attrs": attrs,
        })

    # -- grafting -------------------------------------------------------

    def graft(self, records: list[dict]) -> None:
        """Adopt a finished child trace under the current span.

        Span/event ids of ``records`` are remapped past this tracer's
        id counter, the child's root spans are reparented onto the
        currently open span, and timestamps are kept as the child
        measured them (the report tool sums durations, never subtracts
        timestamps across grafted subtrees).
        """
        if not records:
            return
        offset = self._next_id
        parent_id = self.current_span().span_id
        max_child_id = -1
        for record in records:
            if record["type"] == "meta":
                continue  # the parent emits the single meta record
            adopted = dict(record)
            if adopted["type"] == "span":
                max_child_id = max(max_child_id, adopted["id"])
                adopted["id"] += offset
                adopted["parent"] = (
                    parent_id if adopted["parent"] is None
                    else adopted["parent"] + offset
                )
            elif adopted["type"] == "event":
                adopted["span"] += offset
            self.records.append(adopted)
        self._next_id += max_child_id + 1

    # -- finishing and export --------------------------------------------

    def finish(self) -> list[dict]:
        """Close the root span, append the ``meta`` record, and return
        the complete record list.  Idempotent."""
        if self._finished:
            return self.records
        while self._stack:
            handle = self._stack.pop()
            self.records.append(self._span_record(handle, "ok", None))
        self.records.append({
            "type": "meta",
            "schema": SCHEMA_VERSION,
            "spans": sum(1 for r in self.records if r["type"] == "span"),
            "events": sum(1 for r in self.records if r["type"] == "event"),
            "wall_clock_s": round(time.perf_counter() - self._origin, 6),
            "peak_rss_kb": peak_rss_kb(),
        })
        self._finished = True
        return self.records

    def to_jsonl(self) -> str:
        """The trace as JSON lines (one record per line)."""
        return "\n".join(
            json.dumps(record, sort_keys=True, default=str)
            for record in self.finish()
        ) + "\n"

    def write(self, path: str | os.PathLike) -> None:
        """Save the finished trace to ``path`` as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())


def peak_rss_kb() -> int | None:
    """Peak resident set size of this process in KiB, if measurable."""
    try:
        import resource
    except ImportError:  # non-Unix platform
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(usage)


# ---------------------------------------------------------------------------
# The ambient tracer
# ---------------------------------------------------------------------------

_ACTIVE: ContextVar[Tracer | None] = ContextVar(
    "repro_active_tracer", default=None
)


def active_tracer() -> Tracer | None:
    """The ambient tracer installed by :func:`tracing`, if any."""
    return _ACTIVE.get()


def tracing_enabled() -> bool:
    """Whether an ambient tracer is installed (the guard hot paths use)."""
    return _ACTIVE.get() is not None


@contextmanager
def tracing(tracer: Tracer | None) -> Iterator[Tracer | None]:
    """Install ``tracer`` as the ambient tracer for the enclosed block.

    ``tracing(None)`` is a no-op so optional tracers pass straight
    through.  On exit the tracer is finished (root span closed, meta
    record appended) and the previous ambient tracer restored.
    """
    if tracer is None:
        yield None
        return
    token = _ACTIVE.set(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE.reset(token)
        tracer.finish()


# ---------------------------------------------------------------------------
# Guarded instrumentation helpers (no-ops when tracing is disabled)
# ---------------------------------------------------------------------------

def span(name: str, **attrs: object) -> SpanHandle | _NullSpan:
    """Open a span on the ambient tracer — or the shared null span.

    Usage: ``with _trace.span("op.R", engine="kernel") as sp: ...``.
    When tracing is disabled this returns a singleton null object, so
    the call costs one context-variable read and one (empty) kwargs
    dict — keep expensive attribute computation out of the call site.
    """
    tracer = _ACTIVE.get()
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **attrs)


def add(counter: str, amount: int = 1) -> None:
    """Increment a counter on the current span (no-op when disabled)."""
    tracer = _ACTIVE.get()
    if tracer is not None:
        tracer.add(counter, amount)


def event(name: str, **attrs: object) -> None:
    """Record an event on the current span (no-op when disabled)."""
    tracer = _ACTIVE.get()
    if tracer is not None:
        tracer.event(name, **attrs)


def set_attr(key: str, value: object) -> None:
    """Set an attribute on the current span (no-op when disabled)."""
    tracer = _ACTIVE.get()
    if tracer is not None:
        tracer.current_span().set_attr(key, value)


__all__ = [
    "Tracer",
    "SpanHandle",
    "tracing",
    "active_tracer",
    "tracing_enabled",
    "span",
    "add",
    "event",
    "set_attr",
    "peak_rss_kb",
]
