"""Lemma 11: Pi_Delta(a, x) is solvable in 0 rounds given Pi_Delta(a', x')
for all ``a <= a'`` and ``x >= x'``.

Nodes relabel surplus ``M`` and ``A`` edges with ``X``; since ``X`` is
at least as strong as both with respect to the (shared) edge
constraint, no edge configuration can break.  The generic machinery is
:func:`repro.core.relaxation.find_upgrade_reduction`; this module
specializes it to the family and also applies a witness to concrete
half-edge labelings.
"""

from __future__ import annotations

from repro.core.configurations import Configuration, saturating_matching
from repro.core.diagram import Diagram
from repro.core.relaxation import find_upgrade_reduction
from repro.problems.family import family_problem
from repro.sim.graph import Graph
from repro.sim.verifiers import VerificationResult, verify_lcl
from repro.robustness.errors import InvalidProblem

Labeling = dict[tuple[int, int], str]


def verify_lemma11(
    delta: int, a: int, x: int, a_target: int, x_target: int
) -> dict[Configuration, Configuration]:
    """A per-configuration upgrade witness for Lemma 11's reduction.

    Requires ``a_target <= a`` and ``x_target >= x`` (the lemma's
    hypothesis); raises ``ValueError`` otherwise.  Returns the witness
    mapping (source configuration -> target configuration); raises
    ``AssertionError`` if — against the lemma — none exists.
    """
    if a_target > a or x_target < x:
        raise InvalidProblem(
            "Lemma 11 needs a_target <= a and x_target >= x, got "
            f"a={a}->{a_target}, x={x}->{x_target}"
        )
    source = family_problem(delta, a, x)
    target = family_problem(delta, a_target, x_target)
    witnesses = find_upgrade_reduction(source, target)
    if witnesses is None:
        raise AssertionError(
            f"no upgrade reduction from Pi({delta},{a},{x}) "
            f"to Pi({delta},{a_target},{x_target})"
        )
    return witnesses


def convert_labeling_lemma11(
    graph: Graph,
    labeling: Labeling,
    delta: int,
    a: int,
    x: int,
    a_target: int,
    x_target: int,
) -> Labeling:
    """Apply the Lemma 11 relabeling to a concrete solution.

    Every full-degree node matches its current configuration into the
    witness target under the "at least as strong" relation and adopts
    the matched labels; this is a 0-round, communication-free step.
    Labels at non-full-degree nodes are upgraded with the same rule
    applied to their truncated configurations (surplus M / A -> X).
    """
    source = family_problem(delta, a, x)
    target = family_problem(delta, a_target, x_target)
    witnesses = verify_lemma11(delta, a, x, a_target, x_target)
    diagram = Diagram(source.edge_constraint, source.alphabet)
    converted: Labeling = dict(labeling)
    for node in range(graph.n):
        degree = graph.degree(node)
        labels = [labeling[(node, port)] for port in range(degree)]
        configuration = Configuration(labels)
        if configuration in witnesses:
            chosen = witnesses[configuration]
        else:
            # Truncated (leaf) configuration: keep it, upgrading surplus
            # M / A to X so the counts match the target problem.
            chosen = _truncate_upgrade(labels, a_target, x_target)
        rho = None
        if len(labels) == chosen.arity:
            rho = saturating_matching(
                labels,
                chosen.items,
                lambda weak, strong: diagram.at_least_as_strong(strong, weak),
            )
        if rho is None:
            raise AssertionError(
                f"node {node}: cannot match {configuration.render()} "
                f"into {chosen.render()}"
            )
        for port, target_index in enumerate(rho):
            converted[(node, port)] = chosen.items[target_index]
    return converted


def _truncate_upgrade(labels: list[str], a_target: int, x_target: int) -> Configuration:
    """Degree-truncated analogue of the witness configurations."""
    new_labels = list(labels)
    m_keep = max(len(labels) - x_target, 0)
    if "M" in new_labels:
        kept = 0
        for index, label in enumerate(new_labels):
            if label == "M":
                kept += 1
                if kept > m_keep:
                    new_labels[index] = "X"
    if "A" in new_labels:
        kept = 0
        for index, label in enumerate(new_labels):
            if label == "A":
                kept += 1
                if kept > a_target:
                    new_labels[index] = "X"
    return Configuration(new_labels)


def verify_lemma11_on_labeling(
    graph: Graph,
    labeling: Labeling,
    delta: int,
    a: int,
    x: int,
    a_target: int,
    x_target: int,
) -> VerificationResult:
    """Convert a concrete solution and re-verify against the target."""
    source = family_problem(delta, a, x)
    before = verify_lcl(
        graph, source, labeling, skip_non_full_degree_nodes=not graph.is_regular()
    )
    if not before.ok:
        raise InvalidProblem(
            "input is not a valid source solution: " + "; ".join(before.violations)
        )
    converted = convert_labeling_lemma11(
        graph, labeling, delta, a, x, a_target, x_target
    )
    target = family_problem(delta, a_target, x_target)
    return verify_lcl(
        graph, target, converted, skip_non_full_degree_nodes=not graph.is_regular()
    )
