"""Diagram tests: Figures 1 and 4 of the paper, plus right-closed sets."""

import pytest
from hypothesis import given, strategies as st

from repro.core.diagram import Diagram, edge_diagram, node_diagram, right_closed_sets
from repro.problems.family import family_problem
from repro.problems.mis import mis_problem
from repro.robustness.errors import InvalidProblem


class TestFigure1MIS:
    """Figure 1: in MIS, O is stronger than P; M is unrelated to both."""

    @pytest.fixture
    def diagram(self):
        return edge_diagram(mis_problem(3))

    def test_o_stronger_than_p(self, diagram):
        assert diagram.stronger("O", "P")
        assert not diagram.stronger("P", "O")

    def test_m_unrelated(self, diagram):
        for other in ("P", "O"):
            assert not diagram.at_least_as_strong("M", other)
            assert not diagram.at_least_as_strong(other, "M")

    def test_hasse_edges_exactly_p_to_o(self, diagram):
        assert diagram.hasse_edges() == {("P", "O")}
        for delta in range(2, 9):  # the edge constraint does not involve Delta
            assert edge_diagram(mis_problem(delta)).hasse_edges() == {("P", "O")}

    def test_right_closed_sets(self, diagram):
        expected = {
            frozenset("M"),
            frozenset("O"),
            frozenset("MO"),
            frozenset("PO"),
            frozenset("MPO"),
        }
        assert set(diagram.right_closed_sets()) == expected


class TestFigure4Family:
    """Figure 4: the edge diagram of Pi_Delta(a, x) is P -> A -> O -> X
    with M -> X on the side."""

    @pytest.fixture
    def diagram(self):
        return edge_diagram(family_problem(5, 3, 1))

    def test_chain(self, diagram):
        assert diagram.stronger("A", "P")
        assert diagram.stronger("O", "A")
        assert diagram.stronger("X", "O")
        assert diagram.stronger("X", "M")

    def test_hasse_edges(self, diagram):
        assert diagram.hasse_edges() == {
            ("P", "A"),
            ("A", "O"),
            ("O", "X"),
            ("M", "X"),
        }

    def test_m_not_comparable_to_chain_interior(self, diagram):
        for label in ("P", "A", "O"):
            assert not diagram.at_least_as_strong("M", label)
            assert not diagram.at_least_as_strong(label, "M")

    def test_right_closed_sets_match_lemma6(self, diagram):
        """All possible right-closed sets listed in the proof of Lemma 6."""
        expected = {
            frozenset("X"),
            frozenset("MX"),
            frozenset("OX"),
            frozenset("MOX"),
            frozenset("AOX"),
            frozenset("MAOX"),
            frozenset("PAOX"),
            frozenset("MPAOX"),
        }
        assert set(diagram.right_closed_sets()) == expected

    def test_diagram_stable_across_parameters(self):
        """The edge constraint does not depend on Delta, a, x — nor does
        Fig. 4: the full (a, x) grid at four values of Delta."""
        reference = edge_diagram(family_problem(4, 2, 1)).hasse_edges()
        for delta in (4, 5, 6, 8):
            for a in range(delta + 1):
                for x in range(delta + 1):
                    diagram = edge_diagram(family_problem(delta, a, x))
                    assert diagram.hasse_edges() == reference, (delta, a, x)


class TestDiagramProperties:
    def test_strength_is_reflexive(self):
        diagram = edge_diagram(mis_problem(3))
        for label in "MPO":
            assert diagram.at_least_as_strong(label, label)

    def test_strength_is_transitive(self):
        diagram = edge_diagram(family_problem(4, 2, 1))
        labels = diagram.labels
        for a in labels:
            for b in labels:
                for c in labels:
                    if diagram.at_least_as_strong(a, b) and diagram.at_least_as_strong(
                        b, c
                    ):
                        assert diagram.at_least_as_strong(a, c)

    def test_successors_of_strongest_label_empty(self):
        diagram = edge_diagram(family_problem(4, 2, 1))
        assert diagram.successors("X") == frozenset()

    def test_is_right_closed(self):
        diagram = edge_diagram(family_problem(4, 2, 1))
        assert diagram.is_right_closed({"X"})
        assert diagram.is_right_closed({"A", "O", "X"})
        assert not diagram.is_right_closed({"A"})
        assert not diagram.is_right_closed({"P", "O", "X"})  # misses A

    def test_right_closed_sets_helper(self):
        problem = mis_problem(3)
        sets = right_closed_sets(problem.edge_constraint, problem.alphabet)
        assert frozenset("O") in sets

    def test_node_diagram_mis(self):
        # In the MIS node constraint M appears only in M^Delta, and P/O
        # only in P O^(Delta-1): no label can replace another.
        diagram = node_diagram(mis_problem(3))
        assert diagram.hasse_edges() == frozenset()

    @given(st.integers(min_value=2, max_value=5))
    def test_full_alphabet_always_right_closed(self, delta):
        problem = mis_problem(delta)
        diagram = edge_diagram(problem)
        assert diagram.is_right_closed(set(problem.alphabet))

    def test_missing_label_is_named_in_error(self):
        # A query about a label the diagram was never built over must
        # name the offender, not die with a bare KeyError.
        problem = mis_problem(3)
        diagram = edge_diagram(problem)
        with pytest.raises(InvalidProblem, match="label Z is missing"):
            diagram.at_least_as_strong("Z", "M")
        with pytest.raises(InvalidProblem, match="label Q is missing"):
            diagram.stronger("M", "Q")
        try:
            diagram.equivalent("W", "M")
        except InvalidProblem as error:
            assert error.context["label"] == "W"
        else:
            raise AssertionError("expected InvalidProblem")
