"""Lemma 9: the Delta-edge-coloring trick.

Given a solution of Pi+_Delta(a, x) on a Delta-regular, properly
Delta-edge-colored graph, nodes can convert it — in zero rounds, no
communication — into a solution of
Pi_Delta(floor((a - 2x - 1)/2), x + 1), for all ``2x + 1 <= a <= Delta``.

This is the novelty of the paper (Sec. 1.2): the conversion removes the
troublesome ``C`` configuration by letting C-nodes claim ownership
(label ``A``) only on the low colors, while A-nodes simultaneously
*give up* ownership on exactly those colors, so no ``AA`` edge can
appear.  :func:`convert_plus_solution` implements the two relabeling
rules verbatim; :func:`verify_lemma9` runs the conversion on a supplied
solution and re-checks the result with the generic LCL verifier;
:func:`bipartite_plus_labeling` builds a Pi+ solution to feed it.
"""

from __future__ import annotations

from collections import Counter

from repro.problems.family import family_plus_problem, family_problem
from repro.sim.generators import complete_bipartite_graph
from repro.sim.graph import Graph
from repro.sim.verifiers import VerificationResult, verify_lcl
from repro.robustness.errors import InvalidProblem

Labeling = dict[tuple[int, int], str]


def lemma9_target_a(a: int, x: int) -> int:
    """The ownership requirement after the conversion."""
    return (a - 2 * x - 1) // 2


def bipartite_plus_labeling(delta: int, a: int, x: int) -> tuple[Graph, Labeling]:
    """A Pi+_Delta(a, x) solution on K_{delta,delta} exercising the C and A rules.

    Left nodes output the C configuration (C^(delta-x) X^x), right
    nodes the A configuration (A^(a-x-1) X^(delta-a+x+1)).  The
    bipartition rules out CC and AA edges; everything else is allowed.
    """
    graph = complete_bipartite_graph(delta)
    labeling: Labeling = {}
    for node in range(delta):  # left: C configuration
        for port in range(delta):
            labeling[(node, port)] = "C" if port >= x else "X"
    for node in range(delta, 2 * delta):  # right: A configuration
        for port in range(delta):
            labeling[(node, port)] = "A" if port < a - x - 1 else "X"
    return graph, labeling


def _check_lemma9_range(delta: int, a: int, x: int) -> None:
    if not 2 * x + 1 <= a <= delta:
        raise InvalidProblem(
            f"Lemma 9 needs 2x + 1 <= a <= delta, got delta={delta}, a={a}, x={x}"
        )


def convert_plus_solution(
    graph: Graph, labeling: Labeling, delta: int, a: int, x: int
) -> Labeling:
    """Apply the Lemma 9 conversion, node by node, with no communication.

    ``labeling`` must be a valid Pi+_Delta(a, x) half-edge labeling on a
    properly Delta-edge-colored graph (colors ``0 .. delta-1``; the
    paper's colors ``1 .. floor((a-1)/2)`` become ``0 .. threshold-1``
    here).  Each node reads only its own labels and incident edge
    colors — exactly the 0-round locality the lemma claims.
    """
    _check_lemma9_range(delta, a, x)
    if not graph.is_fully_colored():
        raise InvalidProblem("Lemma 9 needs the Delta-edge coloring input")
    new_a = lemma9_target_a(a, x)
    threshold = (a - 1) // 2  # low colors are 0 .. threshold-1
    converted: Labeling = dict(labeling)
    for node in range(graph.n):
        degree = graph.degree(node)
        labels = [labeling[(node, port)] for port in range(degree)]
        counts = Counter(labels)
        if counts.get("A"):
            _convert_a_node(graph, converted, node, degree, threshold, new_a)
        elif counts.get("C"):
            _convert_c_node(graph, converted, node, degree, threshold, new_a)
        # M-configuration and P-configuration nodes keep their labels.
    return converted


def _convert_a_node(
    graph: Graph,
    labeling: Labeling,
    node: int,
    degree: int,
    threshold: int,
    new_a: int,
) -> None:
    """First bullet of the proof: drop ownership on low colors, then trim.

    The node replaces ``A`` by ``X`` on every incident edge of color
    ``< threshold`` and afterwards keeps exactly ``new_a`` labels ``A``.
    """
    for port in range(degree):
        if labeling[(node, port)] == "A" and graph.color_at(node, port) < threshold:
            labeling[(node, port)] = "X"
    surviving = [
        port for port in range(degree) if labeling[(node, port)] == "A"
    ]
    if len(surviving) < new_a:
        raise InvalidProblem(
            f"node {node} retains {len(surviving)} owned edges < target {new_a}; "
            "the input labeling was not a valid Pi+ solution"
        )
    for port in surviving[new_a:]:
        labeling[(node, port)] = "X"


def _convert_c_node(
    graph: Graph,
    labeling: Labeling,
    node: int,
    degree: int,
    threshold: int,
    new_a: int,
) -> None:
    """Second bullet: claim ownership on low-color C edges, X elsewhere."""
    claimed = []
    for port in range(degree):
        if labeling[(node, port)] != "C":
            continue
        if graph.color_at(node, port) < threshold:
            claimed.append(port)
        labeling[(node, port)] = "X"
    if len(claimed) < new_a:
        raise InvalidProblem(
            f"node {node} can claim only {len(claimed)} low-color edges "
            f"< target {new_a}; the input labeling was not a valid Pi+ solution"
        )
    for port in claimed[:new_a]:
        labeling[(node, port)] = "A"


def verify_lemma9(
    graph: Graph, labeling: Labeling, delta: int, a: int, x: int
) -> VerificationResult:
    """Check the input against Pi+, convert, check against the target.

    Returns the verification result of the *converted* labeling against
    Pi_Delta(floor((a-2x-1)/2), x+1); raises if the input labeling was
    not a valid Pi+_Delta(a, x) solution in the first place (garbage in
    would make the experiment meaningless).
    """
    plus = family_plus_problem(delta, a, x)
    before = verify_lcl(graph, plus, labeling)
    if not before.ok:
        raise InvalidProblem(
            "input is not a valid Pi+ solution: " + "; ".join(before.violations)
        )
    converted = convert_plus_solution(graph, labeling, delta, a, x)
    target = family_problem(delta, lemma9_target_a(a, x), x + 1)
    return verify_lcl(graph, target, converted)
