"""Graceful degradation: shrink the problem instead of dying.

The paper's central engineering insight is that round elimination only
stays tractable if problem descriptions are actively kept small — the
Lemma 9 edge-coloring trick exists precisely to collapse the ``C``
label that iterated speedups would otherwise proliferate (Sec. 1.2).
This module applies the same medicine mechanically: when a governed
``Rbar(R(.))`` step trips the alphabet budget, the input problem is
simplified one rung at a time and the step retried, and every rung is
recorded as a :class:`DegradationEvent` so the final artifact is
*auditably weaker* rather than silently wrong.

The ladder, weakest medicine first:

1. ``merge-equivalent-labels`` — collapse interchangeable labels
   (:func:`repro.core.simplify.merge_equivalent_labels`); lossless, the
   result is the same problem up to 0-round relabelings.
2. ``safe-label-removal`` — drop a label certified removable by
   :func:`repro.core.simplify.is_safe_removal` (a stronger label covers
   it w.r.t. both constraints); lossless.
3. ``lossy-label-removal`` — drop the least-used label outright.  The
   restricted problem is *at least as hard* (its solutions solve the
   original), so downstream upper-bound conclusions stay sound, but
   information is genuinely lost; the event is flagged ``LOSSY`` and
   must appear in any certificate built from the result.

This module degrades the *problem* for semantic budget trips only.
Infrastructure faults get no medicine: a parallel kernel worker that
dies raises :class:`~repro.robustness.errors.WorkerCrashed`
(:mod:`repro.core.kernel.parallel`).
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass

from repro.core.labels import render_label
from repro.core.problem import Problem
from repro.core.round_elimination import SpeedupResult, speedup
from repro.core.simplify import (
    is_safe_removal,
    merge_equivalent_labels,
    remove_label,
)
from repro.robustness.budget import Budget, governed
from repro.robustness.errors import AlphabetExplosion, SimplificationFailed


@dataclass(frozen=True)
class DegradationEvent:
    """One rung of the degradation ladder, applied and recorded."""

    step: int
    action: str
    detail: str
    lossless: bool
    alphabet_before: int
    alphabet_after: int

    def provenance(self) -> str:
        """The audit-trail line recorded in certificates."""
        kind = "lossless" if self.lossless else "LOSSY"
        return (
            f"degradation[{kind}] step {self.step}: {self.action} "
            f"({self.detail}; alphabet "
            f"{self.alphabet_before} -> {self.alphabet_after})"
        )

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "action": self.action,
            "detail": self.detail,
            "lossless": self.lossless,
            "alphabet_before": self.alphabet_before,
            "alphabet_after": self.alphabet_after,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DegradationEvent":
        return cls(**payload)


@dataclass
class GovernedSpeedup:
    """A speedup step that may have degraded its input to fit a budget."""

    result: SpeedupResult
    problem_used: Problem
    events: list[DegradationEvent]

    @property
    def problem(self) -> Problem:
        """The resulting problem with compact string labels."""
        return self.result.problem

    @property
    def degraded(self) -> bool:
        return bool(self.events)


def shrink_once(problem: Problem, step: int = 0) -> tuple[Problem, DegradationEvent] | None:
    """Apply the weakest applicable rung of the ladder, once.

    Returns the shrunk problem and the event describing the rung, or
    ``None`` when no rung applies (single-label alphabet, or every
    removal would empty a constraint).
    """
    before = len(problem.alphabet)

    merged = merge_equivalent_labels(problem)
    if len(merged.alphabet) < before:
        return merged, DegradationEvent(
            step=step,
            action="merge-equivalent-labels",
            detail=f"{before - len(merged.alphabet)} label(s) merged",
            lossless=True,
            alphabet_before=before,
            alphabet_after=len(merged.alphabet),
        )

    labels = sorted(problem.alphabet, key=render_label)
    for weak in labels:
        for strong in labels:
            if weak == strong:
                continue
            if is_safe_removal(problem, weak, strong):
                try:
                    shrunk = remove_label(problem, weak)
                except ValueError:
                    continue
                return shrunk, DegradationEvent(
                    step=step,
                    action="safe-label-removal",
                    detail=(
                        f"removed {render_label(weak)} "
                        f"(covered by {render_label(strong)})"
                    ),
                    lossless=True,
                    alphabet_before=before,
                    alphabet_after=len(shrunk.alphabet),
                )

    if before > 1:
        # Lossy fallback: drop the label used by the fewest
        # configurations; ties broken by label name for determinism.
        def usage(label: Hashable) -> tuple:
            count = len(
                problem.node_constraint.configurations_containing(label)
            ) + len(problem.edge_constraint.configurations_containing(label))
            return (count, render_label(label))

        for weak in sorted(labels, key=usage):
            try:
                shrunk = remove_label(problem, weak)
            except ValueError:
                continue
            return shrunk, DegradationEvent(
                step=step,
                action="lossy-label-removal",
                detail=f"removed {render_label(weak)} without a cover",
                lossless=False,
                alphabet_before=before,
                alphabet_after=len(shrunk.alphabet),
            )
    return None


def governed_speedup(
    problem: Problem,
    budget: Budget | None = None,
    *,
    degrade: bool = True,
    step: int = 0,
) -> GovernedSpeedup:
    """One ``Rbar(R(.))`` step under ``budget``, degrading as needed.

    On :class:`AlphabetExplosion` the input problem is shrunk one
    ladder rung at a time and the step retried; each rung is recorded.
    Raises :class:`SimplificationFailed` (carrying the recorded events
    in its context) when the ladder runs dry before the budget is met,
    and re-raises the explosion untouched when ``degrade`` is false.
    """
    events: list[DegradationEvent] = []
    current = problem
    while True:
        try:
            with governed(budget):
                result = speedup(current)
            return GovernedSpeedup(
                result=result, problem_used=current, events=events
            )
        except AlphabetExplosion as explosion:
            if not degrade:
                raise
            rung = shrink_once(current, step=step)
            if rung is None:
                raise SimplificationFailed(
                    "alphabet budget cannot be met by simplification",
                    step=step,
                    alphabet_size=len(current.alphabet),
                    max_alphabet=explosion.context.get("max_alphabet"),
                    degradations=len(events),
                ) from explosion
            current, event = rung
            events.append(event)


__all__ = [
    "DegradationEvent",
    "GovernedSpeedup",
    "governed_speedup",
    "shrink_once",
]
