"""Tests for Lemma 5: from k-outdegree dominating sets to Pi_Delta(a, k)."""

import random

import pytest

from repro.lowerbound.lemma5 import labeling_from_kods, verify_lemma5
from repro.sim.generators import (
    colored_port_cayley_graph,
    cycle_graph,
    random_tree_bounded_degree,
    truncated_regular_tree,
)


def greedy_mis(graph):
    selected = set()
    for node in range(graph.n):
        if all(neighbor not in selected for neighbor in graph.neighbors(node)):
            selected.add(node)
    return selected


class TestFromMis:
    """An MIS is a 0-outdegree dominating set; the conversion must give
    a valid Pi_Delta(a, 0) solution for every a."""

    @pytest.mark.parametrize("delta", [3, 4, 5, 6])
    def test_on_cayley_instance(self, delta):
        graph = colored_port_cayley_graph(delta)
        mis = greedy_mis(graph)
        for a in (1, delta // 2, delta):
            result = verify_lemma5(graph, mis, {}, k=0, a=a)
            assert result.ok, result.violations

    @pytest.mark.parametrize("seed", range(3))
    def test_on_bounded_degree_trees(self, seed):
        graph = random_tree_bounded_degree(60, 4, random.Random(seed))
        mis = greedy_mis(graph)
        result = verify_lemma5(graph, mis, {}, k=0, a=2)
        assert result.ok, result.violations

    def test_on_truncated_regular_tree(self):
        graph = truncated_regular_tree(3, 3)
        mis = greedy_mis(graph)
        result = verify_lemma5(graph, mis, {}, k=0, a=3)
        assert result.ok, result.violations


class TestPositiveK:
    def test_all_nodes_cycle_k1(self):
        """S = V on a cycle with the rotational orientation: outdeg 1."""
        graph = cycle_graph(6)
        orientation = {}
        for edge_id, u, v in graph.edges():
            orientation[edge_id] = max(u, v) if abs(u - v) == 1 else min(u, v)
        result = verify_lemma5(graph, set(range(6)), orientation, k=1, a=2)
        assert result.ok, result.violations

    def test_all_nodes_cayley_with_matching_orientation(self):
        """S = V on the Cayley graph, orienting color-0 edges by bit:
        every node has outdegree exactly 1 on its matching edge... no -
        every induced edge needs orientation; orient edge of color c
        toward the endpoint with bit c set: outdegree = number of unset
        bits = up to delta, so use k = delta."""
        for delta in (3, 4, 5):
            graph = colored_port_cayley_graph(delta)
            orientation = {}
            for edge_id, u, v in graph.edges():
                color = graph.edge_color(edge_id)
                head = u if (u >> color) & 1 else v
                orientation[edge_id] = head
            result = verify_lemma5(
                graph, set(range(graph.n)), orientation, k=delta, a=1
            )
            assert result.ok, result.violations

    def test_labeling_counts(self):
        delta = 3
        graph = colored_port_cayley_graph(delta)
        mis = greedy_mis(graph)
        labeling = labeling_from_kods(graph, mis, {}, k=1)
        for node in mis:
            labels = [labeling[(node, port)] for port in range(delta)]
            assert labels.count("X") == 1
            assert labels.count("M") == delta - 1


class TestInputValidation:
    def test_non_dominating_rejected(self):
        graph = cycle_graph(6)
        with pytest.raises(ValueError):
            verify_lemma5(graph, {0}, {}, k=0, a=1)

    def test_outdegree_violation_rejected(self):
        graph = cycle_graph(4)
        orientation = {}
        for edge_id, u, v in graph.edges():
            # orient both of node 0's edges away from node 0
            orientation[edge_id] = v if u == 0 else (u if v == 0 else v)
        with pytest.raises(ValueError):
            verify_lemma5(graph, set(range(4)), orientation, k=0, a=1)

    def test_undominated_node_in_conversion(self):
        graph = cycle_graph(6)
        with pytest.raises(ValueError):
            labeling_from_kods(graph, {0}, {}, k=0)
