"""Tests for PN views and indistinguishability."""

import random

import pytest

from repro.sim.generators import (
    colored_port_cayley_graph,
    cycle_graph,
    path_graph,
    random_tree,
    truncated_regular_tree,
)
from repro.sim.views import (
    indistinguishable,
    is_vertex_transitive_up_to,
    view_classes,
    view_signature,
)


class TestSignatures:
    def test_radius_zero_is_degree_only(self):
        graph = path_graph(4)
        assert view_signature(graph, 0, 0) == view_signature(graph, 3, 0)
        assert view_signature(graph, 0, 0) != view_signature(graph, 1, 0)

    def test_path_middle_vs_near_end(self):
        graph = path_graph(6)
        # Nodes 2 and 3 both see degree-2 chains for radius 1.
        assert indistinguishable(graph, 2, 3, 1)
        # At radius 2, node 1 sees an endpoint; node 3 does not.
        assert not indistinguishable(graph, 1, 3, 2)

    def test_signature_deterministic(self):
        graph = truncated_regular_tree(3, 3)
        assert view_signature(graph, 0, 2) == view_signature(graph, 0, 2)


class TestCayleySymmetry:
    """The Lemma 12/15 instances are blind at every radius."""

    @pytest.mark.parametrize("radius", [0, 1, 2])
    def test_one_view_class(self, radius):
        for delta in (2, 3, 4):
            graph = colored_port_cayley_graph(delta)
            assert is_vertex_transitive_up_to(graph, radius)

    def test_all_pairs_indistinguishable(self):
        graph = colored_port_cayley_graph(2)
        for first in range(graph.n):
            for second in range(graph.n):
                assert indistinguishable(graph, first, second, 2)


class TestViewClasses:
    def test_cycle_uniform_ports_single_class(self):
        # A cycle built by our generator has alternating port patterns;
        # classes still collapse to few at radius 0 (all degree 2).
        graph = cycle_graph(6)
        assert len(view_classes(graph, 0)) == 1

    def test_tree_leaves_vs_internal(self):
        graph = truncated_regular_tree(3, 2)
        classes = view_classes(graph, 0)
        sizes = sorted(len(group) for group in classes)
        # Leaves (degree 1) and internal nodes (degree 3) split.
        assert len(classes) == 2
        assert sizes == [4, 6]

    def test_random_tree_classes_refine_with_radius(self):
        graph = random_tree(30, random.Random(5))
        counts = [len(view_classes(graph, radius)) for radius in (0, 1, 2, 3)]
        assert all(b >= a for a, b in zip(counts, counts[1:]))
        assert counts[-1] > counts[0]

    def test_classes_partition_nodes(self):
        graph = truncated_regular_tree(3, 3)
        classes = view_classes(graph, 1)
        all_nodes = sorted(node for group in classes for node in group)
        assert all_nodes == list(range(graph.n))
