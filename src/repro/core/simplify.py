"""Problem simplifications, in the round-eliminator tradition.

Iterated round elimination blows problem descriptions up doubly
exponentially (paper, Sec. 1.2); *simplifications* shrink them without
making them too easy.  Two sound, fully mechanical simplifications are
implemented:

* :func:`merge_equivalent_labels` — labels mutually at-least-as-strong
  w.r.t. both constraints are interchangeable, so keeping one of them
  preserves the problem up to 0-round relabelings.

* :func:`remove_label` — dropping a label (restricting both
  constraints) can only make a problem *harder or equal*: every
  solution of the restricted problem is a solution of the original.
  This is the direction used in lower-bound sequences.
  :func:`is_safe_removal` checks the converse relabeling (weak label
  replaced by a stronger one) that keeps the restricted problem *no
  harder* than the original, i.e. the removal loses nothing.

:func:`iterate_speedup` combines the speedup with equivalence merging
and reports the trajectory — reaching a fixed point certifies an
Omega(log n)-style lower bound in the fixed-point method of Sec. 1.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Hashable

from repro.core.diagram import Diagram
from repro.core.problem import Problem
from repro.core.round_elimination import speedup
from repro.robustness.errors import SimplificationFailed


def equivalent_label_classes(problem: Problem) -> list[frozenset]:
    """Groups of labels interchangeable w.r.t. both constraints."""
    node_diagram = Diagram(problem.node_constraint, problem.alphabet)
    edge_diagram = Diagram(problem.edge_constraint, problem.alphabet)
    classes: list[set] = []
    # reprolint: unbounded-ok(quadratic in the alphabet, already bounded by check_alphabet upstream)
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
    # reprolint: unbounded-ok(one pass over the label classes of a checked alphabet)
    for group in equivalent_label_classes(problem):
        representative = sorted(group, key=str)[0]
        for label in group:
            mapping[label] = representative
    kept = sorted(set(mapping.values()), key=str)
    node_constraint = problem.node_constraint.rename(mapping)
    edge_constraint = problem.edge_constraint.rename(mapping)
    return Problem(kept, node_constraint, edge_constraint, name=problem.name)


def remove_label(problem: Problem, label: Hashable) -> Problem:
    """Restrict both constraints to the alphabet without ``label``.

    The restricted problem is at least as hard as the original (its
    solutions are solutions of the original); use
    :func:`is_safe_removal` to certify it is also no harder.
    """
    remaining = [other for other in problem.alphabet if other != label]
    if not remaining:
        raise SimplificationFailed("cannot remove the last label")
    return Problem(
        remaining,
        problem.node_constraint.restrict_to(remaining),
        problem.edge_constraint.restrict_to(remaining),
        name=problem.name,
    )


def is_safe_removal(problem: Problem, weak: Hashable, strong: Hashable) -> bool:
    """Whether rewriting ``weak`` as ``strong`` never breaks a solution.

    True when ``strong`` is at least as strong as ``weak`` w.r.t. both
    constraints — then any solution of the original converts, in 0
    rounds, into a solution avoiding ``weak``, so removing ``weak``
    keeps the problem's complexity unchanged.
    """
    node_diagram = Diagram(problem.node_constraint, problem.alphabet)
    edge_diagram = Diagram(problem.edge_constraint, problem.alphabet)
    return node_diagram.at_least_as_strong(
        strong, weak
    ) and edge_diagram.at_least_as_strong(strong, weak)


@dataclass
class SpeedupTrajectory:
    """The problems visited by iterated simplified speedup."""

    problems: list[Problem]
    reached_fixed_point: bool

    @property
    def steps(self) -> int:
        """Number of speedup steps performed."""
        return len(self.problems) - 1


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


def iterate_speedup(problem: Problem, max_steps: int = 5) -> SpeedupTrajectory:
    """Iterate Rbar(R(.)) with equivalence merging after each step.

    Stops early when two consecutive problems are isomorphic (a fixed
    point — the strongest outcome round elimination can certify, as for
    sinkless orientation [14]).
    """
    problems = [problem]
    for _ in range(max_steps):
        next_problem = merge_equivalent_labels(speedup(problems[-1]).problem)
        problems.append(next_problem)
        if next_problem.is_isomorphic(problems[-2]):
            return SpeedupTrajectory(problems=problems, reached_fixed_point=True)
    return SpeedupTrajectory(problems=problems, reached_fixed_point=False)
