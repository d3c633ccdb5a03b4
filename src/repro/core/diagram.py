"""Label-strength diagrams and right-closed sets (paper, Sec. 2.3).

Label A is *at least as strong as* label B with respect to a constraint
C if replacing one occurrence of B by A in any allowed configuration of
C again yields an allowed configuration.  The *diagram* is the directed
graph on labels whose edges are the transitive reduction of the strict
"stronger than" relation, drawn from weaker to stronger — exactly the
edge diagram of Figure 1/4 and the node diagram of Figure 5.

A set of labels is *right-closed* if it contains, with every label, all
stronger labels.  By Observation 4 of the paper the alphabet produced
by one round-elimination step consists of right-closed sets only, which
is what makes the maximization step tractable.
"""

from __future__ import annotations

import itertools
from collections.abc import Hashable, Iterable
from typing import TYPE_CHECKING

from repro.core.configurations import insert_canonical, render_map
from repro.core.constraints import Constraint
from repro.core.labels import render_label
from repro.robustness import budget as _budget
from repro.robustness.errors import InvalidProblem

if TYPE_CHECKING:
    from repro.core.problem import Problem


class Diagram:
    """The strength preorder of an alphabet w.r.t. one constraint."""

    __slots__ = ("_labels", "_ge")

    def __init__(self, constraint: Constraint, labels: Iterable[Hashable]) -> None:
        self._labels: tuple[Hashable, ...] = tuple(labels)
        self._ge: dict[tuple[Hashable, Hashable], bool] = {}
        # The paper's replacement test on canonical item tuples: drop one
        # occurrence of ``weak`` from each allowed configuration holding
        # it, insert ``strong``, and look the result up.
        allowed = {configuration.items for configuration in constraint.configurations}
        order = render_map((self._labels, *allowed))
        remainders: dict[Hashable, list[tuple]] = {
            weak: [] for weak in self._labels
        }
        for items in allowed:
            for index, label in enumerate(items):
                if label in remainders and items.index(label) == index:
                    remainders[label].append(items[:index] + items[index + 1:])
        for strong, weak in itertools.product(self._labels, repeat=2):
            self._ge[(strong, weak)] = strong == weak or all(
                insert_canonical(rest, strong, order) in allowed
                for rest in remainders[weak]
            )

    @property
    def labels(self) -> tuple[Hashable, ...]:
        """The labels the diagram is defined over."""
        return self._labels

    def _lookup(self, strong: Hashable, weak: Hashable) -> bool:
        try:
            return self._ge[(strong, weak)]
        except KeyError:
            known = set(self._labels)
            missing = next(
                label for label in (strong, weak) if label not in known
            )
            raise InvalidProblem(
                f"label {render_label(missing)} is missing from the diagram",
                label=render_label(missing),
                diagram_labels=len(self._labels),
            ) from None

    def at_least_as_strong(self, strong: Hashable, weak: Hashable) -> bool:
        """Whether ``strong`` is at least as strong as ``weak``."""
        return self._lookup(strong, weak)

    def stronger(self, strong: Hashable, weak: Hashable) -> bool:
        """Strict strength: ``strong`` >= ``weak`` but not conversely."""
        return self._lookup(strong, weak) and not self._lookup(weak, strong)

    def equivalent(self, first: Hashable, second: Hashable) -> bool:
        """Mutual strength (the labels are interchangeable on edges)."""
        return self._lookup(first, second) and self._lookup(second, first)

    def successors(self, label: Hashable) -> frozenset:
        """All labels strictly stronger than ``label``."""
        return frozenset(
            other for other in self._labels if other != label and self.stronger(other, label)
        )

    def predecessors(self, label: Hashable) -> frozenset:
        """All labels strictly weaker than ``label``."""
        return frozenset(
            other for other in self._labels if other != label and self.stronger(label, other)
        )

    def hasse_edges(self) -> frozenset[tuple[Hashable, Hashable]]:
        """Transitive reduction of the strict order, as (weak, strong) pairs.

        This is exactly what the paper draws in Figures 1, 4 and 5:
        an edge from A to B when B is stronger than A and no label sits
        strictly between them.
        """
        edges: set[tuple[Hashable, Hashable]] = set()
        for weak, strong in itertools.permutations(self._labels, 2):
            if not self.stronger(strong, weak):
                continue
            if any(
                self.stronger(middle, weak) and self.stronger(strong, middle)
                for middle in self._labels
                if middle not in (weak, strong)
            ):
                continue
            edges.add((weak, strong))
        return frozenset(edges)

    def is_right_closed(self, labels: Iterable[Hashable]) -> bool:
        """Whether ``labels`` contains all successors of its members."""
        label_set = frozenset(labels)
        return all(self.successors(label) <= label_set for label in label_set)

    def right_closed_sets(self) -> list[frozenset]:
        """All non-empty right-closed subsets of the alphabet.

        A filtered powerset scan: simple, and fast enough for the
        constant alphabets of the paper (at most 8 labels).  For node
        constraints the kernel enumerates the same sets output-sensitively
        (:meth:`repro.core.kernel.engine.KernelProblem.node_right_closed_sets`).
        """
        result = []
        checked = 0
        for size in range(1, len(self._labels) + 1):
            # Stride the probe: paper-sized alphabets stay silent,
            # runaway enumeration is caught within 64 sets.
            if len(result) - checked >= 64:
                checked = len(result)
                _budget.check_configurations(
                    len(result), phase="right-closed-sets"
                )
            for subset in itertools.combinations(self._labels, size):
                if self.is_right_closed(subset):
                    result.append(frozenset(subset))
        return result

    def render(self) -> str:
        """The Hasse edges as ``A -> B`` lines (weak to strong)."""
        lines = [
            f"{render_label(weak)} -> {render_label(strong)}"
            for weak, strong in sorted(
                self.hasse_edges(),
                key=lambda edge: (render_label(edge[0]), render_label(edge[1])),
            )
        ]
        isolated = [
            render_label(label)
            for label in self._labels
            if not self.successors(label) and not self.predecessors(label)
        ]
        if isolated:
            lines.append("isolated: " + " ".join(sorted(isolated)))
        return "\n".join(lines)


def edge_diagram(problem: Problem) -> Diagram:
    """The diagram of a problem w.r.t. its edge constraint (Fig. 1, 4)."""
    return Diagram(problem.edge_constraint, problem.alphabet)


def node_diagram(problem: Problem) -> Diagram:
    """The diagram of a problem w.r.t. its node constraint (Fig. 5)."""
    return Diagram(problem.node_constraint, problem.alphabet)


def right_closed_sets(constraint: Constraint, labels: Iterable[Hashable]) -> list[frozenset]:
    """Non-empty right-closed subsets of ``labels`` w.r.t. ``constraint``."""
    return Diagram(constraint, labels).right_closed_sets()
