"""Problem simplifications, in the round-eliminator tradition.

Iterated round elimination blows problem descriptions up doubly
exponentially (paper, Sec. 1.2); *simplifications* shrink them without
making them too easy.  The one implemented here is
:func:`merge_equivalent_labels`: labels mutually at-least-as-strong
w.r.t. both constraints are interchangeable, so keeping one of them
preserves the problem up to 0-round relabelings.  Dropping labels
dominated in both diagrams as well is the exact condensation of the
self-reduction operator
(:func:`repro.core.self_reduction.condense_problem`).

:func:`iterate_chain` is the one fixed-point loop behind every problem
chain (speedup, self-reduction, the scenarios and the service): it
applies a step ``max_steps`` times or until the step reports a fixed
point.  :func:`iterate_speedup` runs it with the speedup followed by
equivalence merging — reaching a fixed point certifies an
Omega(log n)-style lower bound in the fixed-point method of Sec. 1.2.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.core.diagram import Diagram
from repro.core.problem import Problem
from repro.core.round_elimination import speedup


def equivalent_label_classes(problem: Problem) -> list[frozenset]:
    """Groups of labels interchangeable w.r.t. both constraints."""
    node_diagram = Diagram(problem.node_constraint, problem.alphabet)
    edge_diagram = Diagram(problem.edge_constraint, problem.alphabet)
    classes: list[set] = []
    for label in problem.alphabet:
        placed = False
        for group in classes:
            representative = next(iter(group))
            if (
                node_diagram.equivalent(label, representative)
                and edge_diagram.equivalent(label, representative)
            ):
                group.add(label)
                placed = True
                break
        if not placed:
            classes.append({label})
    return [frozenset(group) for group in classes]


def merge_equivalent_labels(problem: Problem) -> Problem:
    """Collapse each equivalence class onto one representative.

    The result is the same problem up to a 0-round relabeling in both
    directions.
    """
    mapping: dict = {}
    for group in equivalent_label_classes(problem):
        representative = sorted(group, key=str)[0]
        for label in group:
            mapping[label] = representative
    kept = sorted(set(mapping.values()), key=str)
    node_constraint = problem.node_constraint.rename(mapping)
    edge_constraint = problem.edge_constraint.rename(mapping)
    return Problem(kept, node_constraint, edge_constraint, name=problem.name)


@dataclass(frozen=True)
class Trajectory:
    """The problems a chain visited, start first, and how it stopped."""

    problems: list[Problem]
    reached_fixed_point: bool

    @property
    def steps(self) -> int:
        """Number of chain steps performed."""
        return len(self.problems) - 1


def iterate_chain(
    start: Problem,
    step: Callable[[Problem], tuple[Problem, bool]],
    max_steps: int,
) -> Trajectory:
    """Apply ``step`` from ``start`` up to ``max_steps`` times.

    ``step`` returns the next problem and whether it is a fixed point
    of the chain; each operator decides that for itself.  The chain
    stops right after the first fixed point, whose result is still
    recorded as the last iterate.
    """
    problems = [start]
    for _ in range(max_steps):
        next_problem, fixed_point = step(problems[-1])
        problems.append(next_problem)
        if fixed_point:
            return Trajectory(problems=problems, reached_fixed_point=True)
    return Trajectory(problems=problems, reached_fixed_point=False)


def certified_upper_bound(problem: Problem, max_steps: int = 5) -> int | None:
    """An upper bound via round elimination (the Sec. 1.2 upper-bound use).

    Theorem 3 is an equivalence: if the ``t``-th iterate of the speedup
    is 0-round solvable in the PN model, the original problem is
    solvable in ``t`` rounds on graphs of girth at least ``2t + 2``.
    Returns the smallest such ``t`` within ``max_steps``, or ``None``.
    """
    from repro.core.solvability import zero_round_solvable_pn

    current = problem
    for step in range(max_steps + 1):
        if zero_round_solvable_pn(current):
            return step
        if step == max_steps:
            return None
        current = merge_equivalent_labels(speedup(current).problem)
    return None


def iterate_speedup(problem: Problem, max_steps: int = 5) -> Trajectory:
    """Iterate Rbar(R(.)) with equivalence merging after each step.

    Stops early when two consecutive problems are isomorphic (a fixed
    point — the strongest outcome round elimination can certify, as for
    sinkless orientation [14]).
    """

    def step(current: Problem) -> tuple[Problem, bool]:
        next_problem = merge_equivalent_labels(speedup(current).problem)
        return next_problem, next_problem.is_isomorphic(current)

    return iterate_chain(problem, step, max_steps)
