"""Hot-spot profiling: ambient per-op wall-time and allocation sampling.

The kernel's hot path is instrumented with named *ops* — coarse,
non-overlapping sections that tile the bodies of the kernel operators
(lattice build, right-closed enumeration, DFS, prune, pairing,
intern).  With no ambient :class:`Profiler` installed each probe is
a single context-variable read returning a shared no-op section, so
the instrumentation rides inside the documented <3% overhead budget.

Install one with :func:`profiling` (the same ambient ContextVar shape
as ``governed()`` / ``tracing()`` / ``caching()``)::

    profiler = Profiler()
    with tracing(tracer), profiling(profiler):
        run_chain(...)

On exit, the accumulated samples are emitted into the ambient tracer
as one ``prof.op`` span per op, carrying the schema-declared timing
counters ``prof.calls`` (sample count), ``prof.wall_ns`` (summed wall
time in nanoseconds), and ``prof.alloc_blocks`` (net allocated-block
delta, clamped at zero — frees can outnumber allocations inside a
section).  ``tools/trace_report.py hotspots`` then aggregates the
``prof.op`` spans of a finished trace into the hot-spot table and
checks that they account for the traced kernel wall time.

The engine never reads the clock itself — RL002 bans ``time.*`` under
``core/`` — so all timing lives here: engine code wraps its sections
in ``with _profiling.section("op.name"):`` and this module decides
whether that means two clock reads or nothing at all.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from contextvars import ContextVar

from repro.observability import trace as _trace

#: Per-op accumulator triple indices (a list is mutated in place).
_CALLS, _WALL_NS, _ALLOC_BLOCKS = 0, 1, 2


class Profiler:
    """Accumulates per-op call counts, wall time, and allocation deltas.

    Ops are identified by dotted names; samples for the same op are
    summed.  The profiler itself is clock-free state — the
    :class:`_Section` probes read ``time.perf_counter_ns`` and
    ``sys.getallocatedblocks`` around the instrumented region.
    """

    __slots__ = ("_ops",)

    def __init__(self) -> None:
        self._ops: dict[str, list[int]] = {}

    def record(self, op: str, wall_ns: int, alloc_blocks: int) -> None:
        """Fold one sample into the accumulator for ``op``."""
        entry = self._ops.get(op)
        if entry is None:
            entry = [0, 0, 0]
            self._ops[op] = entry
        entry[_CALLS] += 1
        entry[_WALL_NS] += wall_ns
        entry[_ALLOC_BLOCKS] += alloc_blocks

    def snapshot(self) -> dict[str, dict[str, int]]:
        """Per-op totals: ``{op: {calls, wall_ns, alloc_blocks}}``.

        ``alloc_blocks`` is clamped at zero — a section that frees more
        blocks than it allocates reports 0 (counters are non-negative).
        """
        return {
            op: {
                "calls": entry[_CALLS],
                "wall_ns": entry[_WALL_NS],
                "alloc_blocks": max(0, entry[_ALLOC_BLOCKS]),
            }
            for op, entry in sorted(self._ops.items())
        }

    def emit(self) -> None:
        """Write the samples into the ambient tracer, one span per op."""
        for op, totals in self.snapshot().items():
            with _trace.span("prof.op", op=op) as span:
                span.add("prof.calls", totals["calls"])
                span.add("prof.wall_ns", totals["wall_ns"])
                span.add("prof.alloc_blocks", totals["alloc_blocks"])


class _Section:
    """One live probe: two clock reads bracketing the ``with`` body."""

    __slots__ = ("_profiler", "_op", "_start_ns", "_start_blocks")

    def __init__(self, profiler: Profiler, op: str) -> None:
        self._profiler = profiler
        self._op = op

    def __enter__(self) -> "_Section":
        self._start_blocks = sys.getallocatedblocks()
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        wall_ns = time.perf_counter_ns() - self._start_ns
        alloc_blocks = sys.getallocatedblocks() - self._start_blocks
        self._profiler.record(self._op, wall_ns, alloc_blocks)
        return False


class _NullSection:
    """The shared no-op section returned when no profiler is installed."""

    __slots__ = ()

    def __enter__(self) -> "_NullSection":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_SECTION = _NullSection()

_ACTIVE: ContextVar[Profiler | None] = ContextVar(
    "repro_active_profiler", default=None
)


def active_profiler() -> Profiler | None:
    """The ambient profiler, or ``None``."""
    return _ACTIVE.get()


def profiling_enabled() -> bool:
    """Whether a profiler is installed (one ContextVar read)."""
    return _ACTIVE.get() is not None


def section(op: str) -> "_Section | _NullSection":
    """A context manager timing the ``with`` body as op ``op``.

    With no ambient profiler this returns a shared no-op object — the
    disabled cost of an instrumented section is one ContextVar read.
    """
    profiler = _ACTIVE.get()
    if profiler is None:
        return _NULL_SECTION
    return _Section(profiler, op)


@contextmanager
def profiling(profiler: Profiler | None = None):
    """Install ``profiler`` (a fresh one if ``None``) as the ambient
    profiler for the ``with`` body; on exit, emit its samples into the
    ambient tracer as ``prof.op`` spans and restore the previous state.

    Yields the installed profiler so callers can also read
    :meth:`Profiler.snapshot` directly after the block.
    """
    if profiler is None:
        profiler = Profiler()
    token = _ACTIVE.set(profiler)
    try:
        yield profiler
    finally:
        _ACTIVE.reset(token)
        profiler.emit()


__all__ = [
    "Profiler",
    "profiling",
    "active_profiler",
    "profiling_enabled",
    "section",
]
