"""Fault-injection harness for the robustness subsystem.

A :class:`FaultInjector` is a :class:`~repro.robustness.budget.Budget`
probe: the budget calls it with a context dict at every cooperative
checkpoint, and after ``trip_at`` calls it raises
:class:`InjectedFault` — simulating a crash, an OOM kill, or a signal
landing in the middle of the engine's hot loops.  Because every
governed loop in the engine runs through ``Budget.checkpoint``, this
exercises the same interruption points a real failure would hit.

:class:`InjectedFault` deliberately subclasses :class:`ReproError`
*only* (not ``ValueError``): the certificate builder's raise-free
wrapper swallows ``ValueError`` for proof-level checks, and an
injected fault must never be mistaken for a failed proof — it has to
propagate to the harness that injected it.

:func:`corrupt_checkpoint` flips a byte in a checkpoint file so tests
can assert that damaged state is detected (sealed digests), discarded,
and recomputed rather than trusted.
"""

from __future__ import annotations

from pathlib import Path

from repro.robustness.budget import Budget
from repro.robustness.errors import BudgetExceeded, ReproError


class InjectedFault(ReproError):
    """A deliberate failure raised from inside a cooperative checkpoint."""


class FaultInjector:
    """A budget probe that raises after a fixed number of checkpoints.

    Attributes:
        trip_at: the 1-based checkpoint call on which to raise; ``None``
            never trips (pure call counter).
        calls: how many times the probe has fired so far.
        contexts: the context dict of each call, for assertions on
            where the engine actually checkpoints.
        exception_type: what to raise at the trip — default
            :class:`InjectedFault` (an anonymous crash); pass
            :class:`~repro.robustness.errors.BudgetExceeded` to
            simulate a budget trip at an exact checkpoint, which
            callers that catch-and-resume budget failures will handle
            gracefully rather than propagate.
    """

    def __init__(
        self,
        trip_at: int | None = None,
        *,
        exception_type: type[ReproError] = InjectedFault,
    ):
        self.trip_at = trip_at
        self.calls = 0
        self.contexts: list[dict] = []
        self.exception_type = exception_type

    def __call__(self, context: dict) -> None:
        self.calls += 1
        self.contexts.append(dict(context))
        if self.trip_at is not None and self.calls >= self.trip_at:
            raise self.exception_type(
                "injected fault",
                call=self.calls,
                trip_at=self.trip_at,
                **{
                    key: value
                    for key, value in context.items()
                    if isinstance(value, (int, float, str, bool))
                },
            )


def tripping_budget(trip_at: int, **budget_fields) -> tuple[Budget, FaultInjector]:
    """A budget whose probe raises on the ``trip_at``-th checkpoint."""
    injector = FaultInjector(trip_at=trip_at)
    return Budget(probe=injector, **budget_fields), injector


def budget_tripping_budget(
    trip_at: int, **budget_fields
) -> tuple[Budget, FaultInjector]:
    """A budget whose probe raises ``BudgetExceeded`` at a checkpoint.

    Unlike :func:`tripping_budget`'s anonymous crash, this simulates a
    *typed* budget failure landing at an exactly chosen checkpoint —
    deterministic fuel for testing checkpoint/resume paths that treat
    ``BudgetExceeded`` as a graceful stop.
    """
    injector = FaultInjector(trip_at=trip_at, exception_type=BudgetExceeded)
    return Budget(probe=injector, **budget_fields), injector


def counting_budget(**budget_fields) -> tuple[Budget, FaultInjector]:
    """A budget that only counts checkpoints, never raising."""
    injector = FaultInjector(trip_at=None)
    return Budget(probe=injector, **budget_fields), injector


def corrupt_checkpoint(path: str | Path, offset: int = -2) -> None:
    """Flip one byte of a checkpoint file, invalidating its seal.

    The default offset damages the tail of the JSON document (inside
    the payload for any non-trivial checkpoint), which the sealed
    digest must catch.
    """
    path = Path(path)
    data = bytearray(path.read_bytes())
    if not data:
        raise ValueError(f"cannot corrupt empty file {path}")
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))
