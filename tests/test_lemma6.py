"""Machine-checks of Lemma 6 (and Figure 5) for concrete parameters."""

import pytest

from repro.core.configurations import Configuration
from repro.lowerbound.lemma6 import (
    FIGURE5_HASSE_EDGES,
    LEMMA6_RENAMING,
    SharedPoint,
    compute_r_of_family,
    expected_r_of_family,
    figure5_diagram,
    lemma6_node_lines,
    verify_lemma6,
)

ENGINES = {"kernel": True, "reference": False}


class TestLemma6:
    @pytest.mark.parametrize(
        "delta,a,x",
        [
            (3, 2, 0),
            (4, 3, 1),
            (4, 4, 2),
            (5, 3, 1),
            (5, 4, 2),
            (5, 5, 1),
            (6, 4, 1),
        ],
    )
    def test_engine_matches_normal_form(self, delta, a, x):
        assert verify_lemma6(delta, a, x)

    def test_renaming_is_the_lemma_table(self):
        renamed = compute_r_of_family(4, 3, 1)
        assert renamed.mapping == LEMMA6_RENAMING

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            expected_r_of_family(4, 2, 1)  # a < x + 2

    def test_expected_edge_constraint(self):
        problem = expected_r_of_family(4, 3, 1)
        assert set(problem.edge_constraint.configurations) == {
            Configuration("XQ"),
            Configuration("OB"),
            Configuration("AU"),
            Configuration("PM"),
        }

    def test_expected_node_constraint_contains_lemma_families(self):
        problem = expected_r_of_family(4, 3, 1)
        # One representative from each condensed family:
        assert Configuration("MMMX") in problem.node_constraint  # [MUBQ]^3 [ALL]^1
        assert Configuration("POOO") in problem.node_constraint  # [PQ][OUABPQ]^3
        assert Configuration("ABPX") in problem.node_constraint  # [ABPQ]^3 [ALL]^1

    def test_alphabet_has_eight_labels(self):
        problem = compute_r_of_family(4, 3, 1).problem
        assert set(problem.alphabet) == set("XMOUABPQ")

    @pytest.mark.parametrize("engine", ENGINES)
    def test_perturbed_normal_form_line_is_a_node_mismatch(self, engine):
        """The check can fail: one perturbed exponent is caught."""
        delta, a, x = 4, 3, 1
        shared = SharedPoint(delta, a, x, use_kernel=ENGINES[engine])
        *kept, last = lemma6_node_lines(delta, a, x)
        assert last == "[ABPQ]^3 [XMOUABPQ]^1"
        shared.node_lines = [*kept, "[ABPQ]^2 [XMOUABPQ]^2"]
        with pytest.raises(AssertionError, match="node constraint mismatch"):
            verify_lemma6(delta, a, x, use_kernel=ENGINES[engine], shared=shared)

    def test_shared_inputs_must_match_the_call(self):
        with pytest.raises(ValueError, match="shared inputs hold"):
            verify_lemma6(4, 3, 1, shared=SharedPoint(5, 3, 1))
        with pytest.raises(ValueError, match="use_kernel=True"):
            verify_lemma6(
                4, 3, 1, use_kernel=False, shared=SharedPoint(4, 3, 1)
            )


class TestFigure5:
    @pytest.mark.parametrize("delta,a,x", [(5, 3, 1), (6, 4, 1), (6, 4, 2)])
    def test_node_diagram_matches_figure5(self, delta, a, x):
        diagram = figure5_diagram(delta, a, x)
        assert diagram.hasse_edges() == FIGURE5_HASSE_EDGES

    def test_q_is_strongest(self):
        diagram = figure5_diagram(5, 3, 1)
        for label in "XMOUABP":
            assert diagram.stronger("Q", label)

    def test_x_is_weakest(self):
        diagram = figure5_diagram(5, 3, 1)
        for label in "MOUABPQ":
            assert diagram.stronger(label, "X")

    def test_right_closedness_facts_used_by_lemma8(self):
        """The proof of Lemma 8 reads these off the diagram."""
        diagram = figure5_diagram(5, 3, 1)
        for labels in diagram.right_closed_sets():
            if "P" not in labels:
                assert labels <= frozenset("MUBQ")
            if "U" not in labels:
                assert labels <= frozenset("ABPQ")
            if "M" not in labels:
                assert labels <= frozenset("OUABPQ")
            if labels <= frozenset("OUABPQ") and "B" not in labels:
                assert labels <= frozenset("PQ")
            if labels <= frozenset("OUABPQ") and "A" not in labels:
                assert labels <= frozenset("UBPQ")
