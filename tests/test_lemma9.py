"""Tests for the Lemma 9 edge-coloring conversion."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.lowerbound.lemma9 import (
    bipartite_plus_labeling,
    convert_plus_solution,
    lemma9_target_a,
    verify_lemma9,
)
from repro.problems.family import family_plus_problem
from repro.sim.edge_coloring import is_proper_edge_coloring
from repro.sim.generators import colored_port_cayley_graph
from repro.sim.verifiers import verify_lcl


def mis_style_plus_labeling(delta, x):
    """A Pi+ solution using only the M and P configurations.

    On the Cayley instance, take the greedy-by-id MIS; MIS nodes output
    M^(delta-x-1) X^(x+1), the rest point at an MIS neighbor.
    """
    graph = colored_port_cayley_graph(delta)
    selected = set()
    for node in range(graph.n):
        if all(neighbor not in selected for neighbor in graph.neighbors(node)):
            selected.add(node)
    labeling = {}
    for node in range(graph.n):
        if node in selected:
            for port in range(delta):
                labeling[(node, port)] = "M" if port < delta - x - 1 else "X"
        else:
            pointer = next(
                port
                for port in range(delta)
                if graph.neighbor(node, port) in selected
            )
            for port in range(delta):
                labeling[(node, port)] = "P" if port == pointer else "O"
    return graph, labeling


class TestTargetArithmetic:
    def test_target_a(self):
        assert lemma9_target_a(5, 1) == 1
        assert lemma9_target_a(9, 2) == 2
        assert lemma9_target_a(3, 1) == 0

    def test_range_enforced(self):
        graph, labeling = bipartite_plus_labeling(5, 4, 1)
        with pytest.raises(ValueError):
            convert_plus_solution(graph, labeling, 5, 2, 1)  # a < 2x+1


class TestConversionOnBipartite:
    @pytest.mark.parametrize(
        "delta,a,x",
        [
            (5, 4, 1), (5, 5, 1), (6, 5, 1), (7, 6, 2), (8, 7, 1), (9, 9, 2),
            (10, 9, 2), (16, 15, 4),
        ],
    )
    def test_converted_solution_is_valid(self, delta, a, x):
        graph, labeling = bipartite_plus_labeling(delta, a, x)
        result = verify_lemma9(graph, labeling, delta, a, x)
        assert result.ok, result.violations

    def test_no_aa_edges_after_conversion(self):
        delta, a, x = 6, 5, 1
        graph, labeling = bipartite_plus_labeling(delta, a, x)
        converted = convert_plus_solution(graph, labeling, delta, a, x)
        for edge_id, u, v in graph.edges():
            pu = graph.endpoints(edge_id)[1]
            pv = graph.endpoints(edge_id)[3]
            assert (converted[(u, pu)], converted[(v, pv)]) != ("A", "A")

    def test_c_label_gone_after_conversion(self):
        delta, a, x = 6, 5, 1
        graph, labeling = bipartite_plus_labeling(delta, a, x)
        converted = convert_plus_solution(graph, labeling, delta, a, x)
        assert "C" not in set(converted.values())

    def test_ownership_counts_exact(self):
        delta, a, x = 8, 7, 1
        graph, labeling = bipartite_plus_labeling(delta, a, x)
        converted = convert_plus_solution(graph, labeling, delta, a, x)
        target = lemma9_target_a(a, x)
        for node in range(graph.n):
            count = sum(
                1 for port in range(delta) if converted[(node, port)] == "A"
            )
            assert count in (0, target)


class TestConversionOnMisStyle:
    @pytest.mark.parametrize("delta,x", [(3, 0), (4, 1), (5, 1)])
    def test_m_and_p_nodes_untouched(self, delta, x):
        a = 2 * x + 2  # any valid a; no A/C nodes exist in this labeling
        if a > delta:
            pytest.skip("parameter out of range")
        graph, labeling = mis_style_plus_labeling(delta, x)
        converted = convert_plus_solution(graph, labeling, delta, a, x)
        assert converted == labeling

    def test_full_verify(self):
        delta, x = 5, 1
        a = 4
        graph, labeling = mis_style_plus_labeling(delta, x)
        result = verify_lemma9(graph, labeling, delta, a, x)
        assert result.ok, result.violations


class TestParameterSpace:
    """Property-based sweep over the whole Lemma 9 parameter range."""

    @given(
        st.integers(min_value=4, max_value=10),
        st.integers(min_value=0, max_value=2),
        st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_conversion_valid_across_range(self, delta, x, data):
        lower = max(2 * x + 1, x + 2)
        if lower > delta:
            return
        a = data.draw(st.integers(min_value=lower, max_value=delta))
        graph, labeling = bipartite_plus_labeling(delta, a, x)
        result = verify_lemma9(graph, labeling, delta, a, x)
        assert result.ok, (delta, a, x, result.violations)


class TestInputValidation:
    def test_invalid_input_rejected(self):
        graph, labeling = bipartite_plus_labeling(5, 4, 1)
        labeling[(0, 0)] = "M"  # break the C configuration
        with pytest.raises(ValueError):
            verify_lemma9(graph, labeling, 5, 4, 1)

    def test_uncolored_graph_rejected(self):
        from repro.sim.generators import cycle_graph

        graph = cycle_graph(4)
        labeling = {(node, port): "X" for node in range(4) for port in range(2)}
        with pytest.raises(ValueError):
            convert_plus_solution(graph, labeling, 2, 2, 0)

    def test_bipartite_fixture_is_valid_plus_solution(self):
        delta, a, x = 6, 5, 1
        graph, labeling = bipartite_plus_labeling(delta, a, x)
        assert is_proper_edge_coloring(graph)
        problem = family_plus_problem(delta, a, x)
        assert verify_lcl(graph, problem, labeling).ok
