"""Unit tests for the Problem triple (Sigma, N, E)."""

from collections import Counter

import pytest

from repro.core.configurations import CondensedConfiguration, Configuration
from repro.core.problem import Problem
from repro.lowerbound.lemma6 import expected_r_of_family
from repro.problems.mis import mis_problem
from repro.robustness.errors import InvalidProblem


class TestConstruction:
    def test_from_text_infers_alphabet(self):
        problem = Problem.from_text(["M^3", "P O^2"], ["M [PO]", "O O"])
        assert set(problem.alphabet) == {"M", "P", "O"}
        assert problem.delta == 3

    def test_edge_constraint_must_have_arity_two(self):
        from repro.core.constraints import Constraint

        with pytest.raises(ValueError):
            Problem(
                ["M"],
                Constraint.from_condensed(["M^3"]),
                Constraint.from_condensed(["M^3"]),
            )

    def test_labels_outside_alphabet_rejected(self):
        from repro.core.constraints import Constraint

        with pytest.raises(ValueError):
            Problem(
                ["M"],
                Constraint.from_condensed(["M^2"]),
                Constraint.from_condensed(["M Z"]),
            )


class TestFromTextExpansion:
    @pytest.mark.parametrize("delta,a,x", [(3, 2, 0), (5, 3, 1), (8, 8, 0)])
    def test_lemma6_normal_form_expands_each_line_once(
        self, monkeypatch, delta, a, x
    ):
        expanded = Counter()
        original = CondensedConfiguration.expand

        def counting_expand(self):
            expanded[self.render()] += 1
            return original(self)

        monkeypatch.setattr(CondensedConfiguration, "expand", counting_expand)
        problem = expected_r_of_family(delta, a, x)
        # Building keeps the lines: nothing is expanded until used.
        assert not expanded
        for _ in range(2):
            problem.node_constraint.configurations
            problem.edge_constraint.configurations
        # Three node lines and the four edge lines X Q, O B, A U, P M.
        assert len(expanded) == 7
        assert set(expanded.values()) == {1}

    # ``M X^2`` vs ``X^2 M`` and the repeated ``X^3`` line are pinned in
    # tests/test_robustness.py; these pin the unexpanded skip's boundary.
    @pytest.mark.parametrize(
        "node_lines", [["[M] X^2", "X^2 M"], ["X M X", "M X^2"]]
    )
    def test_distinct_simple_lines_for_one_configuration_rejected(
        self, node_lines
    ):
        with pytest.raises(InvalidProblem) as excinfo:
            Problem.from_text(node_lines, ["M X", "X X"])
        assert excinfo.value.context["configuration"] == "M X^2"

    @pytest.mark.parametrize(
        "node_lines", [["M X^2", "[MX] X^2"], ["[MX]^3", "[MX]^3", "M^3"]]
    )
    def test_disjunction_overlaps_tolerated(self, node_lines):
        problem = Problem.from_text(node_lines, ["M X", "X X"])
        assert problem.delta == 3


class TestQueries:
    def test_edge_allows_is_symmetric(self):
        problem = mis_problem(3)
        assert problem.edge_allows("M", "P")
        assert problem.edge_allows("P", "M")
        assert not problem.edge_allows("M", "M")

    def test_compatible_labels(self):
        problem = mis_problem(3)
        assert problem.compatible_labels("M") == {"P", "O"}
        assert problem.compatible_labels("P") == {"M"}
        assert problem.compatible_labels("O") == {"M", "O"}

    def test_self_compatible_labels(self):
        assert mis_problem(3).self_compatible_labels() == {"O"}

    def test_used_labels(self):
        assert mis_problem(4).used_labels() == {"M", "P", "O"}


class TestNormalization:
    def test_drops_node_only_labels(self):
        # Z appears in the node constraint but on no edge: unusable.
        problem = Problem.from_text(["M^2", "Z^2"], ["M M"])
        normalized = problem.normalized()
        assert set(normalized.alphabet) == {"M"}
        assert len(normalized.node_constraint) == 1

    def test_drops_cascading(self):
        # Removing Z kills the only configuration using Y, removing Y too.
        problem = Problem.from_text(["M^2", "Y Z"], ["M M", "Y M"])
        normalized = problem.normalized()
        assert set(normalized.alphabet) == {"M"}

    def test_already_normalized_is_identity(self):
        problem = mis_problem(3)
        assert problem.normalized() == problem


class TestRenamingAndIsomorphism:
    def test_rename_roundtrip(self):
        problem = mis_problem(3)
        there = problem.rename({"M": "1", "P": "2", "O": "3"})
        back = there.rename({"1": "M", "2": "P", "3": "O"})
        assert back == problem

    def test_rename_must_be_injective(self):
        with pytest.raises(ValueError):
            mis_problem(3).rename({"M": "O"})

    def test_isomorphic_to_itself(self):
        assert mis_problem(3).is_isomorphic(mis_problem(3))

    def test_isomorphic_after_renaming(self):
        problem = mis_problem(4)
        renamed = problem.rename({"M": "a", "P": "b", "O": "c"})
        mapping = problem.find_isomorphism(renamed)
        assert mapping == {"M": "a", "P": "b", "O": "c"}

    def test_not_isomorphic_with_different_structure(self):
        mis = mis_problem(3)
        other = Problem.from_text(["M^3", "P O^2"], ["M [PO]", "O O", "P P"])
        assert not mis.is_isomorphic(other)

    def test_not_isomorphic_across_delta(self):
        assert not mis_problem(3).is_isomorphic(mis_problem(4))

    def test_equality_ignores_name(self):
        a = mis_problem(3)
        b = Problem(a.alphabet, a.node_constraint, a.edge_constraint, name="other")
        assert a == b


class TestRendering:
    def test_render_mentions_constraints(self):
        text = mis_problem(3).render()
        assert "node constraint" in text
        assert "edge constraint" in text
        assert "M^3" in text

    def test_configuration_membership(self):
        problem = mis_problem(3)
        assert Configuration("MMM") in problem.node_constraint
        assert Configuration("POO") in problem.node_constraint
        assert Configuration("PPO") not in problem.node_constraint
