"""Programmatic regeneration of every paper artifact, for EXPERIMENTS.md.

Each ``experiment_*`` function reruns one experiment from the
DESIGN.md index and returns an :class:`ExperimentRecord` holding the
paper's claim, what was measured, and whether the shapes agree.  The
``tools/generate_experiments.py`` script renders all records into
EXPERIMENTS.md, so the document is always reproducible from source.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from repro.algorithms.cole_vishkin import run_cole_vishkin
from repro.algorithms.ghaffari import run_ghaffari_mis
from repro.algorithms.greedy import greedy_mis
from repro.algorithms.luby import run_luby_mis
from repro.algorithms.sweep import run_kods_sweep, run_mis_sweep
from repro.analysis.bounds import (
    bbo2020_deterministic_lower_bound,
    log_star,
    this_paper_deterministic_shape,
    upper_bound_k_outdegree_ds,
)
from repro.core.diagram import edge_diagram
from repro.core.solvability import (
    randomized_zero_round_failure_bound,
    zero_round_solvable_symmetric,
)
from repro.lowerbound.certificate import build_certificate
from repro.lowerbound.lemma6 import (
    FIGURE5_HASSE_EDGES,
    figure5_diagram,
    verify_lemma6,
)
from repro.lowerbound.lemma8 import verify_lemma8_argument, verify_lemma8_direct
from repro.lowerbound.lemma9 import bipartite_plus_labeling, verify_lemma9
from repro.lowerbound.lift import lower_bound_summary
from repro.lowerbound.sequence import lemma13_chain, sequence_length, verify_chain_arithmetic
from repro.lowerbound.zero_round import UniformStrategy, monte_carlo_zero_round_failure
from repro.problems.family import family_problem
from repro.problems.mis import mis_problem
from repro.sim.generators import (
    complete_bipartite_graph,
    random_tree_bounded_degree,
    truncated_regular_tree,
)
from repro.sim.transform import (
    degeneracy_orientation,
    induced_subgraph,
    is_maximal_matching,
    line_graph,
    matching_from_line_graph_mis,
)
from repro.sim.verifiers import verify_k_outdegree_dominating_set, verify_lcl, verify_mis


@dataclass
class ExperimentRecord:
    """One row of EXPERIMENTS.md."""

    experiment_id: str
    paper_claim: str
    measured: str
    agrees: bool
    details: list[str] = field(default_factory=list)


def experiment_fig1() -> ExperimentRecord:
    diagram = edge_diagram(mis_problem(3))
    edges = diagram.hasse_edges()
    return ExperimentRecord(
        experiment_id="FIG1",
        paper_claim="MIS edge diagram: P -> O, M unrelated to both",
        measured=f"computed Hasse edges: {sorted(edges)}",
        agrees=edges == {("P", "O")},
    )


def _figure23_labeling():
    """The Pi_4(2, 2) labeling of Figures 2 and 3, on K_{4,4}.

    Left nodes 0 and 1 are type 1 (M^2 X^2) and together cover every
    right node with an M edge; left nodes 2 and 3 are type 3 (A^2 X^2);
    right nodes are type 2 (P O^3), pointing at a type-1 node.
    """
    delta, a, x = 4, 2, 2
    graph = complete_bipartite_graph(delta)
    labeling = {}
    coverage = {0: (delta, delta + 1), 1: (delta + 2, delta + 3)}
    for node, targets in coverage.items():
        m_ports = {graph.port_to(node, target) for target in targets}
        for port in range(delta):
            labeling[(node, port)] = "M" if port in m_ports else "X"
    for node in (2, 3):
        for port in range(delta):
            labeling[(node, port)] = "A" if port < a else "X"
    for node in range(delta, 2 * delta):
        pointer = next(
            port
            for port in range(delta)
            if labeling[
                (graph.neighbor(node, port),
                 graph.port_to(graph.neighbor(node, port), node))
            ] == "M"
        )
        for port in range(delta):
            labeling[(node, port)] = "P" if port == pointer else "O"
    return graph, labeling, family_problem(delta, a, x)


def experiment_fig23() -> ExperimentRecord:
    graph, labeling, problem = _figure23_labeling()
    result = verify_lcl(graph, problem, labeling)
    census = Counter()
    for node in range(graph.n):
        labels = {labeling[(node, port)] for port in range(graph.degree(node))}
        if "M" in labels:
            census["dominating"] += 1
        elif "A" in labels:
            census["owning"] += 1
        else:
            census["pointing"] += 1
    types = ("dominating", "pointing", "owning")
    return ExperimentRecord(
        experiment_id="FIG2/3",
        paper_claim=(
            "a valid Pi_4(2, 2) labeling with dominating (type 1), "
            "pointing (type 2) and owning (type 3) nodes"
        ),
        measured=(
            f"K_4,4 labeling verified: {result.ok}; node types: "
            + ", ".join(f"{census[kind]} {kind}" for kind in types)
        ),
        agrees=result.ok and all(census[kind] >= 1 for kind in types),
    )


def experiment_fig4() -> ExperimentRecord:
    edges = edge_diagram(family_problem(6, 4, 1)).hasse_edges()
    expected = {("P", "A"), ("A", "O"), ("O", "X"), ("M", "X")}
    return ExperimentRecord(
        experiment_id="FIG4",
        paper_claim="family edge diagram: chain P->A->O->X with M->X",
        measured=f"computed Hasse edges: {sorted(edges)}",
        agrees=edges == expected,
    )


def experiment_fig5_lemma6() -> ExperimentRecord:
    sweep = [(4, 3, 1), (5, 3, 1), (5, 4, 2), (6, 4, 1), (7, 5, 1)]
    matches = [verify_lemma6(*params) for params in sweep]
    diagram_ok = figure5_diagram(6, 4, 1).hasse_edges() == FIGURE5_HASSE_EDGES
    return ExperimentRecord(
        experiment_id="FIG5/LEM6",
        paper_claim=(
            "R(Pi_Delta(a,x)) = the 8-label normal form with edges "
            "XQ, OB, AU, PM; node diagram = Figure 5"
        ),
        measured=(
            f"exact match on {len(sweep)} parameter points; "
            f"Figure 5 diagram match: {diagram_ok}"
        ),
        agrees=all(matches) and diagram_ok,
        details=[f"Pi({d},{a},{x}) -> match" for (d, a, x) in sweep],
    )


def experiment_lemma5() -> ExperimentRecord:
    results = []
    for delta, depth in ((4, 3), (5, 3), (6, 2)):
        graph = truncated_regular_tree(delta, depth)
        coloring = run_cole_vishkin(graph)
        for k in (0, 1, 2):
            sweep = run_kods_sweep(graph, coloring.outputs, 3, k)
            ok = verify_k_outdegree_dominating_set(
                graph, sweep.selected, sweep.orientation, k
            ).ok
            from repro.lowerbound.lemma5 import verify_lemma5

            labeled = verify_lemma5(graph, sweep.selected, sweep.orientation, k, a=2)
            results.append(ok and labeled.ok)
    return ExperimentRecord(
        experiment_id="LEM5",
        paper_claim="a k-ODS yields a Pi_Delta(a, k) solution in 1 round",
        measured=f"{sum(results)}/{len(results)} instance conversions verified",
        agrees=all(results),
    )


def experiment_lemma8() -> ExperimentRecord:
    direct = [verify_lemma8_direct(*p) for p in ((3, 2, 0), (4, 3, 1), (5, 3, 1))]
    argument = [
        verify_lemma8_argument(*p).ok
        for p in ((6, 4, 1), (8, 6, 2), (12, 9, 3), (14, 10, 3))
    ]
    return ExperimentRecord(
        experiment_id="LEM8",
        paper_claim="every node config of Rbar(R(Pi)) relaxes into Pi_rel",
        measured=(
            f"direct Rbar check: {sum(direct)}/{len(direct)} (Delta <= 5); "
            f"paper's case analysis: {sum(argument)}/{len(argument)} (Delta <= 14)"
        ),
        agrees=all(direct) and all(argument),
    )


def experiment_lemma9() -> ExperimentRecord:
    results = []
    for delta, a, x in ((5, 4, 1), (8, 7, 2), (12, 11, 3)):
        graph, labeling = bipartite_plus_labeling(delta, a, x)
        results.append(verify_lemma9(graph, labeling, delta, a, x).ok)
    return ExperimentRecord(
        experiment_id="LEM9",
        paper_claim=(
            "with a Delta-edge coloring, Pi+(a,x) converts in 0 rounds "
            "to Pi(floor((a-2x-1)/2), x+1)"
        ),
        measured=f"{sum(results)}/{len(results)} conversions verified on K_dd",
        agrees=all(results),
    )


def experiment_lemma12_15() -> ExperimentRecord:
    grid_ok = True
    for delta in (3, 4, 5, 6):
        for a in range(delta + 1):
            for x in range(delta + 1):
                solvable = zero_round_solvable_symmetric(family_problem(delta, a, x))
                expected = not (a >= 1 and x <= delta - 1)
                grid_ok = grid_ok and (solvable == expected)
    problem = family_problem(3, 2, 1)
    bound = float(randomized_zero_round_failure_bound(problem))
    experiment = monte_carlo_zero_round_failure(
        problem, strategy=UniformStrategy(problem), trials=200, seed=11
    )
    return ExperimentRecord(
        experiment_id="LEM12/15",
        paper_claim=(
            "0-round unsolvable for a >= 1, x <= Delta-1; randomized "
            "failure >= 1/(3 Delta)^2 >= 1/Delta^8"
        ),
        measured=(
            f"solvability grid exact (Delta 3..6): {grid_ok}; analytic bound {bound:.4f} "
            f"vs measured uniform-strategy failure {experiment.failure_rate:.2f}"
        ),
        agrees=grid_ok and experiment.failure_rate >= bound,
    )


def experiment_lemma13() -> ExperimentRecord:
    exponents = list(range(6, 31, 3))
    lengths = [sequence_length(2**e, 0) for e in exponents]
    audits = all(
        verify_chain_arithmetic(lemma13_chain(2**e, 0)) for e in (9, 18, 27)
    )
    ratio = lengths[-1] / exponents[-1]
    return ExperimentRecord(
        experiment_id="LEM13",
        paper_claim="a lower-bound chain of length Omega(log Delta), 5 labels",
        measured=(
            f"t(2^e) for e={exponents}: {lengths}; "
            f"t/log2(Delta) -> {ratio:.2f}; side conditions audited: {audits}"
        ),
        agrees=audits
        and all(b >= a for a, b in zip(lengths, lengths[1:]))
        and 0.2 <= ratio <= 0.5,
        details=[f"t(2^{e}) = {t}" for e, t in zip(exponents, lengths)],
    )


def experiment_theorem1() -> ExperimentRecord:
    rows = []
    agrees = True
    for exponent in (9, 12, 15):
        delta = 2**exponent
        summary = lower_bound_summary(2**64, delta, 0)
        rows.append(
            f"Delta=2^{exponent}: det {summary['deterministic_rounds']:.2f}, "
            f"rand {summary['randomized_rounds']:.2f}, premises "
            f"{summary['premises_ok']}"
        )
        agrees = agrees and summary["premises_ok"]
    improvement = (
        this_paper_deterministic_shape(10**3000, 2.0**48)
        / bbo2020_deterministic_lower_bound(10**3000, 2.0**48)
    )
    return ExperimentRecord(
        experiment_id="THM1/COR2",
        paper_claim=(
            "Omega(min{log Delta, log_Delta n}) det / (log_Delta log n) "
            "rand; improves [5] by ~loglog Delta"
        ),
        measured=(
            "; ".join(rows)
            + f"; improvement factor over FOCS'20 at Delta=2^48: {improvement:.1f}x"
        ),
        agrees=agrees and improvement > 2,
        details=rows,
    )


def experiment_upper() -> ExperimentRecord:
    from repro.algorithms.trees import spread_tree_coloring

    graph = truncated_regular_tree(8, 2)
    palette = 9
    colors = spread_tree_coloring(graph, palette)
    rounds = {}
    valid = True
    for k in (0, 1, 3, 7):
        sweep = run_kods_sweep(graph, colors, palette, k)
        rounds[k] = sweep.rounds
        valid = valid and verify_k_outdegree_dominating_set(
            graph, sweep.selected, sweep.orientation, k
        ).ok
    shape = rounds[0] >= 2 * rounds[7]
    return ExperimentRecord(
        experiment_id="UPPER",
        paper_claim="k-ODS in O(Delta/k + log* n) via coloring sweeps",
        measured=(
            f"sweep rounds on the Delta=8 tree: {rounds} (expected ~Delta/(k+1)); "
            f"all outputs verified: {valid}"
        ),
        agrees=valid and shape,
    )


def experiment_mis_algorithms() -> ExperimentRecord:
    graph = random_tree_bounded_degree(400, 4, random.Random(0))
    luby = run_luby_mis(graph, seed=1)
    ghaffari = run_ghaffari_mis(graph, seed=1)
    coloring = run_cole_vishkin(graph)
    sweep = run_mis_sweep(graph, coloring.outputs, 3)
    outputs_ok = all(
        verify_mis(
            graph, {v for v in range(graph.n) if result.outputs[v]}
        ).ok
        for result in (luby, ghaffari, sweep)
    )
    deterministic_rounds = coloring.rounds + sweep.rounds
    return ExperimentRecord(
        experiment_id="MIS-ALGS",
        paper_claim=(
            "Luby O(log n); Ghaffari O(log Delta)+...; deterministic "
            "trees O(log* n) via Cole-Vishkin"
        ),
        measured=(
            f"n=400: Luby {luby.rounds} rounds, Ghaffari-style "
            f"{ghaffari.rounds}, CV+sweep {deterministic_rounds} "
            f"(log* n = {log_star(400)}); all verified: {outputs_ok}"
        ),
        agrees=outputs_ok and deterministic_rounds <= log_star(400) + 10,
    )


def experiment_line_graphs() -> ExperimentRecord:
    matchings = []
    for delta, depth in ((3, 4), (4, 3), (5, 3)):
        base = truncated_regular_tree(delta, depth)
        line = line_graph(base)
        result = run_luby_mis(line.graph, seed=delta)
        mis = {node for node in range(line.graph.n) if result.outputs[node]}
        matching = matching_from_line_graph_mis(base, line, mis)
        matchings.append(
            verify_mis(line.graph, mis).ok and is_maximal_matching(base, matching)
        )
    worst = 0.0
    samples = 0
    for seed in range(30):
        rng = random.Random(seed)
        line = line_graph(random_tree_bounded_degree(60, 5, rng))
        selected = {node for node in range(line.graph.n) if rng.random() < 0.6}
        if len(selected) < 2:
            continue
        subgraph, _ = induced_subgraph(line.graph, selected)
        _, degeneracy = degeneracy_orientation(subgraph)
        max_degree = max(subgraph.degree(node) for node in range(subgraph.n))
        if degeneracy:
            worst = max(worst, max_degree / degeneracy)
        samples += 1
    return ExperimentRecord(
        experiment_id="LINE",
        paper_claim=(
            "an MIS of L(G) is a maximal matching of G; in a line graph, "
            "outdegree <= k forces degree O(k)"
        ),
        measured=(
            f"{sum(matchings)}/{len(matchings)} Luby MIS of L(G) are maximal "
            f"matchings (Delta 3..5 trees); worst degree/outdegree ratio "
            f"{worst:.2f} over {samples} random line-graph subsets"
        ),
        agrees=all(matchings) and samples >= 20 and worst <= 4.5,
    )


def experiment_certificates() -> ExperimentRecord:
    certificates = [build_certificate(delta, 0) for delta in (4, 8, 2**10)]
    return ExperimentRecord(
        experiment_id="CERT",
        paper_claim="the Section 2.4 roadmap chains Lemmas 5-15 into Theorem 1",
        measured="; ".join(
            f"Delta={c.delta}: {len(c.checks)} checks, "
            f"t={c.chain_length}, ok={c.ok}"
            for c in certificates
        ),
        agrees=all(certificate.ok for certificate in certificates),
    )


def experiment_scenarios() -> ExperimentRecord:
    from repro.scenarios import load_registry, run_scenario

    runs = [(spec, run_scenario(spec)) for _, spec in load_registry()]
    families = {spec.family for spec, _ in runs}
    fixed_point = next(
        run.reached_fixed_point
        for spec, run in runs
        if spec.family == "sinkless_orientation"
    )
    return ExperimentRecord(
        experiment_id="SCN",
        paper_claim=(
            "declared LCL chains certify round lower bounds: maximal "
            "matching and 2-ruling sets stay 0-round unsolvable under "
            "self-reduction; sinkless orientation reaches its fixed point"
        ),
        measured=(
            f"{sum(run.ok for _, run in runs)}/{len(runs)} scenarios meet "
            f"their declared expectations across {len(families)} families; "
            f"sinkless-orientation fixed point: {fixed_point}"
        ),
        agrees=all(run.ok for _, run in runs) and fixed_point,
        details=[
            f"{spec.name}: steps={run.steps} "
            f"certified={run.certified_rounds} "
            f"fixed_point={run.reached_fixed_point}"
            for spec, run in runs
        ],
    )


ALL_EXPERIMENTS = [
    experiment_fig1,
    experiment_fig23,
    experiment_fig4,
    experiment_fig5_lemma6,
    experiment_lemma5,
    experiment_lemma8,
    experiment_lemma9,
    experiment_lemma12_15,
    experiment_lemma13,
    experiment_theorem1,
    experiment_upper,
    experiment_mis_algorithms,
    experiment_line_graphs,
    experiment_certificates,
    experiment_scenarios,
]


def run_all_experiments() -> list[ExperimentRecord]:
    """Execute every experiment; order matches DESIGN.md's index."""
    return [experiment() for experiment in ALL_EXPERIMENTS]
