"""Round-elimination operator tests, cross-validated on known results."""

import itertools

import pytest

from repro.core.configurations import Configuration
from repro.core.constraints import Constraint
from repro.core.diagram import Diagram
from repro.core.round_elimination import (
    R,
    Rbar,
    existential_condensed,
    existential_constraint,
    maximize_edge_constraint,
    maximize_node_constraint,
    rename_to_strings,
    speedup,
)
from repro.problems.classic import sinkless_orientation_problem
from repro.problems.family import family_problem
from repro.problems.mis import mis_problem


def brute_force_maximal_edge(problem):
    """Exhaustive reference for the edge maximization (tiny alphabets)."""
    labels = list(problem.alphabet)
    subsets = []
    for size in range(1, len(labels) + 1):
        subsets.extend(frozenset(c) for c in itertools.combinations(labels, size))
    allowed = []
    for left in subsets:
        for right in subsets:
            if all(problem.edge_allows(a, b) for a in left for b in right):
                allowed.append((left, right))
    maximal = set()
    for left, right in allowed:
        dominated = any(
            (left <= other_left and right <= other_right)
            and (left != other_left or right != other_right)
            for other_left, other_right in allowed
        )
        if not dominated:
            maximal.add(Configuration((left, right)))
    return maximal


def brute_force_maximal_node(problem):
    """Exhaustive reference for the node maximization (tiny instances)."""
    labels = list(problem.alphabet)
    subsets = []
    for size in range(1, len(labels) + 1):
        subsets.extend(frozenset(c) for c in itertools.combinations(labels, size))
    node = problem.node_constraint
    allowed = []
    for combo in itertools.combinations_with_replacement(subsets, problem.delta):
        if all(
            Configuration(choice) in node
            for choice in itertools.product(*combo)
        ):
            allowed.append(combo)
    maximal = set()
    for combo in allowed:
        dominated = False
        for other in allowed:
            if combo == other:
                continue
            from repro.core.relaxation import can_relax

            if can_relax(Configuration(combo), Configuration(other)):
                dominated = True
                break
        if not dominated:
            maximal.add(Configuration(combo))
    return maximal


class TestEdgeMaximization:
    def test_mis_matches_hand_computation(self):
        """R(MIS) has edge constraint {M}{PO} and {O}{MO}."""
        result = maximize_edge_constraint(mis_problem(3))
        expected = {
            Configuration((frozenset("M"), frozenset("PO"))),
            Configuration((frozenset("O"), frozenset("MO"))),
        }
        assert set(result.configurations) == expected

    def test_family_matches_lemma6(self):
        """Lemma 6: the edge constraint of R(Pi_Delta(a, x)) is
        XQ, OB, AU, PM under the renaming of the lemma."""
        result = maximize_edge_constraint(family_problem(5, 3, 1))
        expected = {
            Configuration((frozenset("X"), frozenset("MPAOX"))),
            Configuration((frozenset("MX"), frozenset("PAOX"))),
            Configuration((frozenset("OX"), frozenset("MAOX"))),
            Configuration((frozenset("MOX"), frozenset("AOX"))),
        }
        assert set(result.configurations) == expected

    @pytest.mark.parametrize(
        "problem",
        [
            mis_problem(3),
            mis_problem(4),
            family_problem(4, 2, 1),
            sinkless_orientation_problem(3),
        ],
        ids=["mis3", "mis4", "family", "so3"],
    )
    def test_against_brute_force(self, problem):
        fast = set(maximize_edge_constraint(problem).configurations)
        assert fast == brute_force_maximal_edge(problem)

    def test_all_result_sets_right_closed(self):
        """Observation 4 of the paper."""
        problem = family_problem(5, 3, 1)
        diagram = Diagram(problem.edge_constraint, problem.alphabet)
        result = maximize_edge_constraint(problem)
        for labels in result.labels_used():
            assert diagram.is_right_closed(labels)


class TestNodeMaximization:
    @pytest.mark.parametrize(
        "problem",
        [
            mis_problem(2),
            mis_problem(3),
            sinkless_orientation_problem(3),
        ],
        ids=["mis2", "mis3", "so3"],
    )
    def test_against_brute_force(self, problem):
        fast = set(maximize_node_constraint(problem).configurations)
        assert fast == brute_force_maximal_node(problem)

    def test_all_result_sets_right_closed(self):
        problem = sinkless_orientation_problem(4)
        diagram = Diagram(problem.node_constraint, problem.alphabet)
        result = maximize_node_constraint(problem)
        for labels in result.labels_used():
            assert diagram.is_right_closed(labels)

    def test_results_pairwise_incomparable(self):
        from repro.core.relaxation import can_relax

        result = maximize_node_constraint(mis_problem(3))
        configs = list(result.configurations)
        for first in configs:
            for second in configs:
                if first != second:
                    assert not can_relax(first, second)


class TestExistentialStep:
    def test_matches_condensed_replacement(self):
        """The direct enumeration and the Section 2.3 'simple method'
        agree on R(MIS)'s node constraint."""
        problem = mis_problem(3)
        edge_max = maximize_edge_constraint(problem)
        sigma = set(edge_max.labels_used())
        direct = existential_constraint(problem.node_constraint, sigma, problem.delta)
        via_condensed = set()
        for configuration in problem.node_constraint.configurations:
            condensed = existential_condensed(configuration, sigma)
            via_condensed |= condensed.expand()
        assert set(direct.configurations) == via_condensed

    def test_edge_arity_two(self):
        problem = mis_problem(3)
        after_r = R(problem)
        node_max = maximize_node_constraint(after_r)
        sigma = set(node_max.labels_used())
        result = existential_constraint(after_r.edge_constraint, sigma, 2)
        assert result.arity == 2


class TestOperators:
    def test_r_of_sinkless_orientation_is_sinkless_orientation(self):
        """R(SO) renames back to SO itself (the classic warm-up)."""
        so = sinkless_orientation_problem(3)
        after = rename_to_strings(R(so)).problem
        assert after.is_isomorphic(so)

    def test_speedup_of_so_reaches_fixed_point(self):
        """The first speedup of SO yields a problem that is a fixed
        point of the speedup — SO cannot lose more than one round,
        reproducing the Omega(log n) structure of [14, 17]."""
        so = sinkless_orientation_problem(3)
        first = speedup(so).problem
        second = speedup(first).problem
        assert first.is_isomorphic(second)

    def test_speedup_keeps_delta(self):
        """Delta is kept, and without simplification the label count
        grows with every step (Sec. 1.2)."""
        problem = mis_problem(3)
        counts = [len(problem.alphabet)]
        for _ in range(2):
            problem = speedup(problem).problem
            assert problem.delta == 3
            counts.append(len(problem.alphabet))
        assert counts[0] == 3
        assert all(b > a for a, b in zip(counts, counts[1:]))

    def test_rename_to_strings_concatenates(self):
        so = sinkless_orientation_problem(3)
        renamed = rename_to_strings(R(so))
        assert set(renamed.mapping.values()) <= {"I", "O", "IO"}

    def test_rename_handles_collisions(self):
        problem = mis_problem(3)
        intermediate = R(problem)
        naming = {label: "Z" for label in list(intermediate.alphabet)[:1]}
        renamed = rename_to_strings(intermediate, naming=naming)
        values = list(renamed.mapping.values())
        assert len(values) == len(set(values))

    def test_two_coloring_speedup_becomes_zero_round_solvable(self):
        """2-coloring is 0-round solvable in the formalism after one
        speedup on 2-regular graphs? No — it stays hard; instead check
        a problem that IS trivial: the 'everything allowed' problem."""
        free = Constraint.from_condensed(["[AB]^3"])
        free_edges = Constraint.from_condensed(["[AB] [AB]"])
        from repro.core.problem import Problem

        problem = Problem(["A", "B"], free, free_edges, name="free")
        result = speedup(problem).problem
        # A fully unconstrained problem stays fully unconstrained:
        # one label set {A, B} survives and everything is allowed.
        assert len(result.alphabet) == 1
