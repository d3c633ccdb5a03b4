"""Tests for the randomized MIS algorithms (Luby, Ghaffari-style)."""

import math
import random

import pytest

from repro.algorithms.ghaffari import run_ghaffari_mis
from repro.algorithms.greedy import greedy_coloring, greedy_dominating_set, greedy_mis
from repro.algorithms.luby import run_luby_mis
from repro.sim.generators import (
    colored_port_cayley_graph,
    cycle_graph,
    path_graph,
    random_tree,
    random_tree_bounded_degree,
    truncated_regular_tree,
)
from repro.sim.verifiers import (
    verify_dominating_set,
    verify_mis,
    verify_proper_coloring,
)


class TestGreedyBaselines:
    def test_greedy_mis_valid(self):
        for graph in (path_graph(10), cycle_graph(9), truncated_regular_tree(3, 3)):
            assert verify_mis(graph, greedy_mis(graph)).ok

    def test_greedy_mis_respects_order(self):
        graph = path_graph(3)
        assert greedy_mis(graph, order=[1, 0, 2]) == {1}

    def test_greedy_coloring_valid_and_bounded(self):
        graph = truncated_regular_tree(4, 3)
        colors = greedy_coloring(graph)
        assert verify_proper_coloring(graph, colors).ok
        assert max(colors) <= graph.max_degree()

    def test_greedy_dominating_set(self):
        graph = random_tree(30, random.Random(1))
        selected = greedy_dominating_set(graph)
        assert verify_dominating_set(graph, selected).ok
        # Far smaller than everything:
        assert len(selected) < graph.n


class TestLuby:
    @pytest.mark.parametrize("seed", range(5))
    def test_valid_on_random_trees(self, seed):
        graph = random_tree(80, random.Random(seed))
        result = run_luby_mis(graph, seed=seed)
        selected = {node for node in range(graph.n) if result.outputs[node]}
        assert verify_mis(graph, selected).ok
        # Each selected node dominates at most Delta + 1 nodes.
        assert len(selected) >= graph.n / (graph.max_degree() + 1)

    def test_valid_on_cayley(self):
        graph = colored_port_cayley_graph(4)
        result = run_luby_mis(graph, seed=11)
        selected = {node for node in range(graph.n) if result.outputs[node]}
        assert verify_mis(graph, selected).ok

    @pytest.mark.parametrize("n", [50, 200, 800])
    def test_round_count_logarithmic(self, n):
        """O(log n) w.h.p.: within 8 log2 n rounds, on random trees of
        max degree 4 and of unbounded degree."""
        for graph, seed in (
            (random_tree_bounded_degree(n, 4, random.Random(n)), 1),
            (random_tree(n, random.Random(3)), 3),
        ):
            assert run_luby_mis(graph, seed=seed).rounds <= 8 * math.log2(n)

    def test_single_node(self):
        from repro.sim.graph import Graph

        result = run_luby_mis(Graph(1))
        assert result.outputs == [True]

    def test_deterministic_given_seed(self):
        graph = random_tree(50, random.Random(7))
        first = run_luby_mis(graph, seed=5).outputs
        second = run_luby_mis(graph, seed=5).outputs
        assert first == second


class TestGhaffari:
    @pytest.mark.parametrize("seed", range(3))
    def test_valid_on_random_trees(self, seed):
        graph = random_tree_bounded_degree(80, 5, random.Random(seed))
        result = run_ghaffari_mis(graph, seed=seed)
        selected = {node for node in range(graph.n) if result.outputs[node]}
        assert verify_mis(graph, selected).ok

    def test_valid_on_cycle(self):
        graph = cycle_graph(30)
        result = run_ghaffari_mis(graph, seed=2)
        selected = {node for node in range(graph.n) if result.outputs[node]}
        assert verify_mis(graph, selected).ok

    def test_terminates_reasonably(self):
        graph = random_tree_bounded_degree(150, 4, random.Random(9))
        result = run_ghaffari_mis(graph, seed=9)
        assert result.rounds < 400
