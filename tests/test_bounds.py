"""Tests for the numeric bound expressions and table rendering."""

import math

import pytest

from repro.analysis.bounds import (
    balliu2019_lower_bound,
    bbo2020_deterministic_lower_bound,
    bbo2020_randomized_lower_bound,
    brandt_olivetti_b_matching_bound,
    crossover_delta,
    kmw_lower_bound,
    log_star,
    this_paper_deterministic_shape,
    this_paper_randomized_shape,
    upper_bound_k_degree_ds,
    upper_bound_k_outdegree_ds,
    upper_bound_mis_bek,
    upper_bound_mis_trees_deterministic,
    upper_bound_mis_trees_randomized,
)
from repro.analysis.tables import Table
from repro.lowerbound.lift import theorem1_deterministic_bound


class TestLogStar:
    @pytest.mark.parametrize(
        "n,expected",
        [(1, 0), (2, 1), (4, 2), (16, 3), (65536, 4)],
    )
    def test_tower_values(self, n, expected):
        assert log_star(n) == expected

    def test_tower_of_five(self):
        assert log_star(2**65536) == 5

    def test_zero_and_negative(self):
        assert log_star(0) == 0
        assert log_star(-5) == 0


class TestShapes:
    def test_paper_beats_focs20_in_delta(self):
        """The improvement over [5]: log Delta vs log Delta / loglog Delta.
        For huge n (so the n-branch is inactive) and growing Delta the
        ratio diverges."""
        n = 10**3000
        ratios = []
        for exponent in (8, 16, 32, 64):
            delta = 2.0**exponent
            ours = this_paper_deterministic_shape(n, delta)
            theirs = bbo2020_deterministic_lower_bound(n, delta)
            ratios.append(ours / theirs)
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] > 1.5

    def test_randomized_shape_below_deterministic(self):
        for n in (2**20, 2**50):
            for delta in (8.0, 64.0, 1024.0):
                assert this_paper_randomized_shape(n, delta) <= (
                    this_paper_deterministic_shape(n, delta) + 1e-9
                )

    def test_kmw_matches_bbo_shape(self):
        # [31] and [5] have the same expression shape in this regime.
        assert kmw_lower_bound(2**40, 2**10) == pytest.approx(
            bbo2020_deterministic_lower_bound(2**40, 2**10)
        )

    def test_balliu2019_linear_in_delta(self):
        n = 10**300
        assert balliu2019_lower_bound(n, 16) == 16
        assert balliu2019_lower_bound(n, 64) == 64

    def test_b_matching_bound_decreases_in_b(self):
        n = 10**300
        values = [
            brandt_olivetti_b_matching_bound(n, 256, b) for b in (8, 32, 128)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_bbo_randomized_below_deterministic(self):
        n = 2**64
        delta = 2**8
        assert bbo2020_randomized_lower_bound(n, delta) <= (
            bbo2020_deterministic_lower_bound(n, delta)
        )


class TestUpperBounds:
    def test_mis_bek_linear_in_delta(self):
        assert upper_bound_mis_bek(2**16, 100) == 100 + log_star(2**16)

    def test_kods_upper_bound_decreases_in_k(self):
        n = 2**20
        values = [upper_bound_k_outdegree_ds(n, 256, k) for k in (1, 4, 16, 64)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_kdegree_upper_bound_min_structure(self):
        n = 2**20
        # Small k: the Delta branch wins; large k: the (Delta/k)^2 branch.
        assert upper_bound_k_degree_ds(n, 256, 1) == 256 + log_star(n)
        assert upper_bound_k_degree_ds(n, 256, 64) == 16 + log_star(n)

    def test_crossover_between_upper_and_lower(self):
        """Shape check of Theorem 1's tightness discussion: the lower
        bound log Delta stays below the upper bound Delta/k + log* n
        for k = 1 (no contradiction), and both grow with Delta."""
        n = 2**30
        for delta in (8.0, 64.0, 512.0):
            lower = this_paper_deterministic_shape(10**300, delta)
            upper = upper_bound_k_outdegree_ds(n, delta, 1)
            assert lower <= upper
        # The certified Theorem 1 bound stays below the upper bound too,
        # and the gap between them (Delta/k vs log Delta) widens.
        n = 10**80
        gaps = []
        for exponent in (6, 9, 12, 15):
            lower = theorem1_deterministic_bound(n, 2**exponent, 1)
            upper = upper_bound_k_outdegree_ds(n, 2**exponent, 1)
            assert lower <= upper
            gaps.append(upper / max(lower, 1))
        assert gaps[-1] > gaps[0]

    def test_tree_mis_upper_bounds(self):
        n = 2**36
        assert upper_bound_mis_trees_randomized(n) == pytest.approx(6.0)
        assert upper_bound_mis_trees_deterministic(n) == pytest.approx(
            36 / math.log2(36)
        )


class TestCrossover:
    def test_crossover_delta_deterministic(self):
        assert crossover_delta(2**36) == pytest.approx(2**6)

    def test_crossover_delta_randomized_smaller(self):
        n = 2**(2**12)
        assert crossover_delta(n, randomized=True) < crossover_delta(n)


class TestTable:
    def test_render_alignment(self):
        table = Table("demo", ["name", "value"])
        table.add_row("alpha", 1.5)
        table.add_row("b", 20)
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "alpha" in text and "1.50" in text and "20" in text

    def test_row_width_checked(self):
        table = Table("demo", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_bool_formatting(self):
        table = Table("demo", ["flag"])
        table.add_row(True)
        assert "yes" in table.render()
