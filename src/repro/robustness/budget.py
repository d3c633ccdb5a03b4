"""Resource budgets and the cooperative checkpoint protocol.

A :class:`Budget` bounds the four resources that round elimination can
exhaust: wall-clock time, alphabet size, configuration counts inside
the maximization searches, and chain length in the Lemma 13 sequence.
The engine's hot loops call the module-level :func:`checkpoint` /
``check_*`` helpers, which consult the *ambient* budget installed by
the :func:`governed` context manager — so deep search code does not
need a budget parameter threaded through every signature, and runs
without a budget pay only a context-variable read.

A budget is also the engine's fault-injection surface: the optional
``probe`` callable fires at every checkpoint with the checkpoint's
context dict, letting the test harness (``tests/faults.py``) raise at
the Nth checkpoint to simulate a kill mid-run.

Observability: every checkpoint increments the ambient trace counter
``budget.checkpoints`` (a no-op without a tracer), and every budget
trip emits a ``budget.trip`` span event before raising.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

from repro.observability import trace as _trace
from repro.robustness.errors import AlphabetExplosion, BudgetExceeded


@dataclass
class Budget:
    """Resource limits for one governed computation.

    ``None`` for any field means "unlimited".  The object is mutable
    bookkeeping (started clock, checkpoint count); create a fresh one
    per run.

    Attributes:
        wall_clock_seconds: hard cap on elapsed time, checked at every
            cooperative checkpoint.
        max_alphabet: cap on the label count a round-elimination step
            may produce (:meth:`check_alphabet` raises
            :class:`AlphabetExplosion` beyond it).
        max_configurations: cap on intermediate configuration /
            closed-set counts inside the maximization searches and on
            brute-force search spaces.
        max_chain_steps: cap on Lemma 13 chain length.
        probe: optional callable invoked with the context dict at every
            checkpoint — the fault-injection hook.
    """

    wall_clock_seconds: float | None = None
    max_alphabet: int | None = None
    max_configurations: int | None = None
    max_chain_steps: int | None = None
    probe: Callable[[dict], None] | None = None
    _started_at: float | None = field(
        default=None, repr=False, compare=False
    )
    _checkpoints: int = field(default=0, repr=False, compare=False)

    def start(self) -> "Budget":
        """Start (or restart) the wall clock; returns ``self``."""
        self._started_at = time.monotonic()
        self._checkpoints = 0
        return self

    def elapsed(self) -> float:
        """Seconds since :meth:`start` (0.0 if never started)."""
        if self._started_at is None:
            return 0.0
        return time.monotonic() - self._started_at

    def checkpoint(self, **context: object) -> None:
        """One cooperative yield point inside a hot loop.

        Fires the ``probe`` (fault injection), then enforces the wall
        clock.  Raises :class:`BudgetExceeded` with the merged context
        when the clock has run out.
        """
        self._checkpoints += 1
        _trace.add("budget.checkpoints")
        if self.probe is not None:
            probe_context = dict(context)
            probe_context.setdefault("checkpoint", self._checkpoints)
            self.probe(probe_context)
        if self.wall_clock_seconds is not None:
            if self._started_at is None:
                self.start()
            elapsed = self.elapsed()
            if elapsed > self.wall_clock_seconds:
                _trace.event(
                    "budget.trip", resource="wall_clock",
                    elapsed_seconds=round(elapsed, 3), **context,
                )
                raise BudgetExceeded(
                    "wall-clock budget exhausted",
                    elapsed_seconds=round(elapsed, 3),
                    budget_seconds=self.wall_clock_seconds,
                    **context,
                )

    def check_alphabet(self, size: int, **context: object) -> None:
        """Checkpoint plus the alphabet-size limit."""
        self.checkpoint(alphabet_size=size, **context)
        if self.max_alphabet is not None and size > self.max_alphabet:
            _trace.event(
                "budget.trip", resource="alphabet", alphabet_size=size, **context
            )
            raise AlphabetExplosion(
                "alphabet budget exceeded",
                alphabet_size=size,
                max_alphabet=self.max_alphabet,
                elapsed_seconds=round(self.elapsed(), 3),
                **context,
            )

    def check_configurations(self, count: int, **context: object) -> None:
        """Checkpoint plus the intermediate-configuration limit."""
        self.checkpoint(configurations=count, **context)
        if self.max_configurations is not None and count > self.max_configurations:
            _trace.event(
                "budget.trip", resource="configurations",
                configurations=count, **context,
            )
            raise BudgetExceeded(
                "configuration budget exceeded",
                configurations=count,
                max_configurations=self.max_configurations,
                elapsed_seconds=round(self.elapsed(), 3),
                **context,
            )

    def check_chain_step(self, index: int, **context: object) -> None:
        """Checkpoint plus the chain-length limit."""
        self.checkpoint(step=index, **context)
        if self.max_chain_steps is not None and index >= self.max_chain_steps:
            _trace.event(
                "budget.trip", resource="chain_steps", step=index, **context
            )
            raise BudgetExceeded(
                "chain-step budget exceeded",
                step=index,
                max_chain_steps=self.max_chain_steps,
                elapsed_seconds=round(self.elapsed(), 3),
                **context,
            )


_ACTIVE: ContextVar[Budget | None] = ContextVar(
    "repro_active_budget", default=None
)


def current_budget() -> Budget | None:
    """The ambient budget installed by :func:`governed`, if any."""
    return _ACTIVE.get()


@contextmanager
def governed(budget: Budget | None) -> Iterator[Budget | None]:
    """Install ``budget`` as the ambient budget for the enclosed block.

    ``governed(None)`` is a no-op, so call sites can pass an optional
    budget straight through.  Nesting is fine; the innermost budget
    wins, and the previous one is restored on exit.
    """
    if budget is None:
        yield None
        return
    if budget._started_at is None:
        budget.start()
    token = _ACTIVE.set(budget)
    try:
        yield budget
    finally:
        _ACTIVE.reset(token)


def checkpoint(**context: object) -> None:
    """Cooperative checkpoint against the ambient budget (if any)."""
    budget = _ACTIVE.get()
    if budget is not None:
        budget.checkpoint(**context)


def check_alphabet(size: int, **context: object) -> None:
    """Ambient-budget alphabet check (no-op without a budget)."""
    budget = _ACTIVE.get()
    if budget is not None:
        budget.check_alphabet(size, **context)


def check_configurations(count: int, **context: object) -> None:
    """Ambient-budget configuration-count check (no-op without one)."""
    budget = _ACTIVE.get()
    if budget is not None:
        budget.check_configurations(count, **context)


def check_chain_step(index: int, **context: object) -> None:
    """Ambient-budget chain-step check (no-op without a budget)."""
    budget = _ACTIVE.get()
    if budget is not None:
        budget.check_chain_step(index, **context)


__all__ = [
    "Budget",
    "governed",
    "current_budget",
    "checkpoint",
    "check_alphabet",
    "check_configurations",
    "check_chain_step",
]
