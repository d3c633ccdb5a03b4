"""Lemma 8: Pi+_Delta(a, x) is exactly one round easier than Pi_Delta(a, x).

The proof has two computational faces, both implemented:

* :func:`verify_lemma8_direct` — for small Delta, compute the node
  constraint of Rbar(R(Pi_Delta(a, x))) in full with the engine and
  check that every node configuration relaxes (Definition 7) into a
  node configuration of Pi_rel, and that Pi_rel's edge constraint is
  exactly the replacement-method (existential) constraint over its six
  label sets.  Together with the renaming Pi_rel -> Pi+ (tested in the
  family tests) this is the lemma, verbatim.  The kernel engine does
  the computation by default; the reference engine
  (``use_kernel=False``) is the oracle, and the two must agree
  byte for byte (``tests/test_certificate_engines.py``).

* :func:`verify_lemma8_argument` — the paper's own case analysis,
  executed as a checker.  It never materializes Rbar, so it runs for
  any Delta: it checks the five right-closedness facts about the node
  diagram of R(Pi_Delta(a, x)) and the two "no such configuration in
  N_R" counting facts that the proof derives its contradiction from.
  The kernel's node strength relation answers the right-closedness
  facts by default; a reference :class:`~repro.core.diagram.Diagram`
  (``use_kernel=False``) is the oracle, and the two reports must be
  equal field for field (``tests/test_certificate_engines.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Hashable, Iterable

from repro.core.configurations import CondensedConfiguration, parse_condensed
from repro.core.diagram import Diagram
from repro.core.kernel.bitops import is_subset, iter_bits
from repro.core.kernel.engine import (
    KernelProblem,
    existential_constraint_kernel,
    maximize_node_constraint_kernel,
)
from repro.core.problem import Problem
from repro.core.relaxation import all_relax_into
from repro.core.round_elimination import (
    existential_constraint,
    maximize_node_constraint,
)
from repro.lowerbound.lemma6 import (
    compute_r_of_family,
    expected_r_of_family,
    lemma6_node_lines,
)
from repro.problems.family import pi_rel_problem


def verify_lemma8_direct(
    delta: int, a: int, x: int, *, use_kernel: bool = True
) -> bool:
    """Full engine check of Lemma 8 (exponential in Delta; use <= 5).

    R, the node maximization and the existential edge constraint run
    on the kernel unless ``use_kernel=False`` selects the reference
    engine.  Raises ``AssertionError`` with diagnostics on failure.
    """
    if use_kernel:
        maximize, existential = (
            maximize_node_constraint_kernel, existential_constraint_kernel
        )
    else:
        maximize, existential = maximize_node_constraint, existential_constraint
    renamed_r = compute_r_of_family(delta, a, x, use_kernel=use_kernel)
    node_max = maximize(renamed_r.problem)
    rel = pi_rel_problem(delta, a, x)
    stray = [
        configuration
        for configuration in node_max.configurations
        if not all_relax_into([configuration], rel.node_constraint.configurations)
    ]
    if stray:
        rendered = "\n".join(configuration.render() for configuration in stray)
        raise AssertionError(
            f"configurations of Rbar(R(Pi)) not relaxable into Pi_rel:\n{rendered}"
        )
    # The edge constraint of Pi_rel must be the replacement-method
    # (existential) edge constraint over its six label sets.
    exist_edges = existential(
        renamed_r.problem.edge_constraint, set(rel.alphabet), 2
    )
    if exist_edges != rel.edge_constraint:
        raise AssertionError(
            "Pi_rel edge constraint mismatch:\ncomputed:\n"
            f"{exist_edges.render()}\nexpected:\n{rel.edge_constraint.render()}"
        )
    return True


@dataclass(frozen=True)
class Lemma8Report:
    """Which steps of the paper's Lemma 8 case analysis were verified."""

    no_p_implies_mubq: bool
    no_u_implies_abpq: bool
    no_m_implies_ouabpq: bool
    no_b_implies_pq: bool
    no_a_implies_ubpq: bool
    no_m_p_u_configuration: bool
    no_a_u_b_configuration: bool
    pi_rel_sets_right_closed: bool

    @property
    def ok(self) -> bool:
        """All facts hold."""
        return all(
            getattr(self, name) for name in self.__dataclass_fields__
        )


def verify_lemma8_argument(
    delta: int, a: int, x: int, *, use_kernel: bool = True
) -> Lemma8Report:
    """Execute the paper's Lemma 8 case analysis for these parameters.

    The proof argues: a node configuration Y_1 .. Y_Delta of
    Rbar(R(Pi)) that relaxes into *no* Pi_rel configuration must (by
    right-closedness and the four "otherwise it would relax" steps)
    admit a choice with either (>= 1 M, >= x+1 P, >= Delta-a U) or
    (x+1 A, Delta-a+1 U, rest B) — and no such configuration exists in
    the node constraint of R(Pi).  This function verifies each of those
    facts.  All facts are statements about the *verified* Lemma 6
    normal form, so the whole chain is machine-checked.

    The right-closedness facts come from the kernel's node strength
    relation; ``use_kernel=False`` answers them with a reference
    :class:`~repro.core.diagram.Diagram` instead, the oracle the kernel
    is tested against field for field.
    """
    problem = expected_r_of_family(delta, a, x)
    if use_kernel:
        right_closed, is_right_closed = _kernel_right_closedness(problem)
    else:
        diagram = Diagram(problem.node_constraint, problem.alphabet)
        right_closed = diagram.right_closed_sets()
        is_right_closed = diagram.is_right_closed

    def closed_without(
        label: str, within: frozenset | None = None
    ) -> list[frozenset]:
        universe = within if within is not None else frozenset("XMOUABPQ")
        return [
            labels
            for labels in right_closed
            if label not in labels and labels <= universe
        ]

    ouabpq = frozenset("OUABPQ")
    report = Lemma8Report(
        no_p_implies_mubq=all(
            labels <= frozenset("MUBQ") for labels in closed_without("P")
        ),
        no_u_implies_abpq=all(
            labels <= frozenset("ABPQ") for labels in closed_without("U")
        ),
        no_m_implies_ouabpq=all(
            labels <= ouabpq for labels in closed_without("M")
        ),
        no_b_implies_pq=all(
            labels <= frozenset("PQ")
            for labels in closed_without("B", within=ouabpq)
        ),
        no_a_implies_ubpq=all(
            labels <= frozenset("UBPQ")
            for labels in closed_without("A", within=ouabpq)
        ),
        no_m_p_u_configuration=not _node_constraint_admits(
            delta, a, x, {"M": 1, "P": x + 1, "U": delta - a}
        ),
        no_a_u_b_configuration=not _node_constraint_admits(
            delta,
            a,
            x,
            {"A": x + 1, "U": delta - a + 1, "B": delta - (x + 1) - (delta - a + 1)},
        ),
        pi_rel_sets_right_closed=all(
            is_right_closed(labels)
            for labels in pi_rel_problem(delta, a, x).alphabet
        ),
    )
    return report


def _kernel_right_closedness(
    problem: Problem,
) -> tuple[list[frozenset], Callable[[Iterable[Hashable]], bool]]:
    """The kernel twin of ``Diagram.right_closed_sets`` and
    ``Diagram.is_right_closed`` for ``problem``'s node constraint.

    The view is built directly rather than through
    :meth:`KernelProblem.of`: ``problem`` is fresh on every call, so the
    memo could never hit.
    """
    kernel = KernelProblem(problem)
    interner = kernel.interner
    successors = kernel.node_strict_successors()
    right_closed = [
        interner.labels_of_mask(mask) for mask in kernel.node_right_closed_sets()
    ]

    def is_right_closed(labels: Iterable[Hashable]) -> bool:
        mask = interner.mask_of(labels)
        return all(is_subset(successors[index], mask) for index in iter_bits(mask))

    return right_closed, is_right_closed


def lemma6_condensed_node_constraint(
    delta: int, a: int, x: int
) -> list[CondensedConfiguration]:
    """The three condensed node configurations of Lemma 6."""
    return [parse_condensed(line) for line in lemma6_node_lines(delta, a, x)]


def _node_constraint_admits(
    delta: int, a: int, x: int, minimum_counts: dict[str, int]
) -> bool:
    """Whether some configuration of N_{R(Pi)} meets the minimum counts.

    Works on the condensed normal form via transportation feasibility,
    so it runs for any Delta without expanding the constraint.
    """
    requirements = {
        label: count for label, count in minimum_counts.items() if count > 0
    }
    if sum(requirements.values()) > delta:
        return False
    return any(
        condensed_admits_counts(condensed, requirements)
        for condensed in lemma6_condensed_node_constraint(delta, a, x)
    )


def condensed_admits_counts(
    condensed: CondensedConfiguration, minimum_counts: dict[str, int]
) -> bool:
    """Whether the condensed configuration contains a configuration with
    at least ``minimum_counts[y]`` occurrences of each label ``y``.

    Transportation feasibility between required labels (supplies) and
    disjunction groups (capacities), solved by max flow; leftover slots
    can always be filled because every group is non-empty.
    """
    requirements = {
        label: count for label, count in minimum_counts.items() if count > 0
    }
    total_required = sum(requirements.values())
    if total_required > condensed.arity:
        return False
    if not requirements:
        return True
    groups = list(condensed.parts)
    source, sink = "source", "sink"
    capacity: dict[tuple, int] = {}
    for label, count in requirements.items():
        capacity[(source, ("label", label))] = count
    for index, (disjunction, exponent) in enumerate(groups):
        capacity[(("group", index), sink)] = exponent
        for label in requirements:
            if label in disjunction:
                capacity[(("label", label), ("group", index))] = total_required
    return _max_flow(capacity, source, sink) == total_required


def _max_flow(capacity: dict[tuple, int], source: tuple, sink: tuple) -> int:
    """Ford-Fulkerson with depth-first augmenting paths (tiny graphs)."""
    flow: dict[tuple, int] = {edge: 0 for edge in capacity}
    adjacency: dict = {}
    for (tail, head) in capacity:
        adjacency.setdefault(tail, set()).add(head)
        adjacency.setdefault(head, set()).add(tail)

    def residual(tail: tuple, head: tuple) -> int:
        forward = capacity.get((tail, head), 0) - flow.get((tail, head), 0)
        backward = flow.get((head, tail), 0)
        return forward + backward

    def push(tail: tuple, head: tuple, amount: int) -> None:
        backward = flow.get((head, tail), 0)
        cancel = min(backward, amount)
        if cancel:
            flow[(head, tail)] -= cancel
            amount -= cancel
        if amount:
            flow[(tail, head)] = flow.get((tail, head), 0) + amount

    def augment(node: tuple, pushed: int, visited: set) -> int:
        if node == sink:
            return pushed
        visited.add(node)
        for neighbor in adjacency.get(node, ()):
            slack = residual(node, neighbor)
            if neighbor in visited or slack <= 0:
                continue
            sent = augment(neighbor, min(pushed, slack), visited)
            if sent:
                push(node, neighbor, sent)
                return sent
        return 0

    total = 0
    while True:
        sent = augment(source, 10**9, set())
        if not sent:
            return total
        total += sent

