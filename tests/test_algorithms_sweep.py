"""Tests for the color-class sweep algorithms (MIS and k-ODS)."""

import random

import pytest

from repro.algorithms.cole_vishkin import run_cole_vishkin
from repro.algorithms.color_reduction import run_full_coloring_pipeline
from repro.algorithms.greedy import greedy_coloring
from repro.algorithms.sweep import run_kods_sweep, run_mis_sweep
from repro.algorithms.trees import (
    depths,
    orient_toward_parent,
    parent_ports,
    root_tree,
)
from repro.analysis.bounds import log_star
from repro.sim.generators import (
    cycle_graph,
    path_graph,
    random_tree,
    random_tree_bounded_degree,
    truncated_regular_tree,
)
from repro.sim.verifiers import (
    verify_k_outdegree_dominating_set,
    verify_mis,
)


class TestTreeUtilities:
    def test_root_tree_parents(self):
        graph = path_graph(4)
        parent = root_tree(graph, 0)
        assert parent == [None, 0, 1, 2]

    def test_parent_ports_consistent(self):
        graph = truncated_regular_tree(3, 2)
        ports = parent_ports(graph, 0)
        parent = root_tree(graph, 0)
        for node in range(1, graph.n):
            assert graph.neighbor(node, ports[node]) == parent[node]
        assert ports[0] is None

    def test_root_tree_rejects_non_tree(self):
        with pytest.raises(ValueError):
            root_tree(cycle_graph(4))

    def test_orient_toward_parent_outdegree(self):
        graph = random_tree(40, random.Random(4))
        orientation = orient_toward_parent(graph, 0)
        outdegree = [0] * graph.n
        for edge_id, u, v in graph.edges():
            head = orientation[edge_id]
            tail = u if head == v else v
            outdegree[tail] += 1
        assert outdegree[0] == 0
        assert all(value <= 1 for value in outdegree)

    def test_depths(self):
        graph = path_graph(5)
        assert depths(graph, 0) == [0, 1, 2, 3, 4]


class TestMisSweep:
    @pytest.mark.parametrize("seed", range(3))
    def test_valid_mis(self, seed):
        graph = random_tree_bounded_degree(70, 4, random.Random(seed))
        colors = greedy_coloring(graph)
        palette = max(colors) + 1
        result = run_mis_sweep(graph, colors, palette)
        selected = {node for node in range(graph.n) if result.outputs[node]}
        assert verify_mis(graph, selected).ok

    def test_round_count_equals_palette(self):
        graph = truncated_regular_tree(4, 3)
        colors = greedy_coloring(graph)
        palette = max(colors) + 1
        result = run_mis_sweep(graph, colors, palette)
        assert result.rounds == palette

    def test_with_distributed_coloring(self):
        graph = truncated_regular_tree(3, 4)
        colors, _ = run_full_coloring_pipeline(graph)
        result = run_mis_sweep(graph, colors, max(colors) + 1)
        selected = {node for node in range(graph.n) if result.outputs[node]}
        assert verify_mis(graph, selected).ok

    def test_cole_vishkin_pipeline_rounds_grow_like_log_star(self):
        """CV + 3-sweep: at most 2 more rounds over a 16x range of n on
        random trees, and within log* n + 10 on regular trees."""
        rounds = []
        for n in (50, 200, 800):
            graph = random_tree_bounded_degree(n, 4, random.Random(n))
            coloring = run_cole_vishkin(graph)
            result = run_mis_sweep(graph, coloring.outputs, 3)
            selected = {node for node in range(n) if result.outputs[node]}
            assert verify_mis(graph, selected).ok
            rounds.append(coloring.rounds + result.rounds)
        assert rounds[-1] - rounds[0] <= 2
        for depth in (2, 4, 6, 8):
            graph = truncated_regular_tree(3, depth)
            assert run_cole_vishkin(graph).rounds + 3 <= log_star(graph.n) + 10


class TestKodsSweep:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_valid_kods_on_trees(self, k):
        graph = random_tree_bounded_degree(80, 5, random.Random(k))
        colors = greedy_coloring(graph)
        palette = max(colors) + 1
        result = run_kods_sweep(graph, colors, palette, k)
        check = verify_k_outdegree_dominating_set(
            graph, result.selected, result.orientation, k=max(k, 0)
        )
        assert check.ok, check.violations

    def test_rounds_shrink_with_k(self):
        from repro.algorithms.trees import spread_tree_coloring

        graph = truncated_regular_tree(6, 2)
        palette = 7
        colors = spread_tree_coloring(graph, palette)
        rounds = [
            run_kods_sweep(graph, colors, palette, k).rounds for k in (0, 1, 2, 5)
        ]
        assert rounds[0] == palette
        assert all(b <= a for a, b in zip(rounds, rounds[1:]))
        assert rounds[-1] <= rounds[0] // 2

    def test_spread_coloring_proper_and_wide(self):
        from repro.algorithms.trees import spread_tree_coloring
        from repro.sim.verifiers import verify_proper_coloring

        graph = truncated_regular_tree(5, 3)
        colors = spread_tree_coloring(graph, 6)
        assert verify_proper_coloring(graph, colors).ok
        assert len(set(colors)) == 6

    def test_spread_coloring_rejects_small_palette(self):
        from repro.algorithms.trees import spread_tree_coloring

        with pytest.raises(ValueError):
            spread_tree_coloring(truncated_regular_tree(4, 2), 3)

    def test_k_zero_matches_mis_sweep(self):
        graph = random_tree(50, random.Random(8))
        colors = greedy_coloring(graph)
        palette = max(colors) + 1
        kods = run_kods_sweep(graph, colors, palette, 0)
        mis = run_mis_sweep(graph, colors, palette)
        selected = {node for node in range(graph.n) if mis.outputs[node]}
        assert kods.selected == selected

    def test_negative_k_rejected(self):
        graph = path_graph(4)
        with pytest.raises(ValueError):
            run_kods_sweep(graph, [0, 1, 0, 1], 2, -1)

    def test_groups_count(self):
        graph = truncated_regular_tree(5, 2)
        colors = greedy_coloring(graph)
        palette = max(colors) + 1
        result = run_kods_sweep(graph, colors, palette, 2)
        assert result.groups == (palette + 2) // 3
