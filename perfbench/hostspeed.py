"""Host speed probe: steadies timings taken on a shared host.

A host shared with other tenants runs the same Python code up to ~1.6x
slower for seconds or minutes at a time, so raw wall times of the same
op differ more between runs than any regression worth catching.  The
workloads therefore time this fixed, program-independent loop next to
the ops they measure (the loop touches no program code, so no change
to the program moves it) and report op times in *host-adjusted
seconds*:

    adjusted = wall * REFERENCE_S / probe

where ``probe`` is the mean of the probes taken just before and just
after the op (or measured segment).  On a host running at reference
speed the two are equal.  The loop mixes what the program does most:
integer arithmetic, small-dict and tuple churn, and frozenset unions
with sorting; each part alone tracked op slowdowns less well than the
mix.  Garbage collection is off while it runs, so the program's heap
size does not move it.
"""

from __future__ import annotations

import gc
import random
import time

#: The probe's median on the reference host, a 2-core x86 VM running
#: CPython 3.11 (seconds).
REFERENCE_S = 0.03

_RNG = random.Random(0)
_SETS = tuple(tuple(_RNG.sample(range(64), 6)) for _ in range(3000))


def _arithmetic() -> int:
    total = 0
    for i in range(90000):
        total += i * i & 7
    return total


def _dicts() -> int:
    table: dict[int, tuple[int, int]] = {}
    for i in range(60000):
        table[i & 1023] = (i, i * i & 7)
    return len(table)


def _sets() -> int:
    seen = set()
    for members in _SETS:
        seen.add(frozenset(members) | {1, 2})
    return len(sorted(seen, key=sorted))


def probe() -> float:
    """Wall seconds of one pass of the fixed loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _arithmetic()
        _dicts()
        _sets()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def scale(before: float, after: float) -> float:
    """Factor from wall to host-adjusted seconds for work timed between
    the probes ``before`` and ``after``."""
    return REFERENCE_S / ((before + after) / 2)
