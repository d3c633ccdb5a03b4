"""Tests for relaxations (Definition 7) and 0-round reduction witnesses."""

import pytest
from hypothesis import given, strategies as st

from repro.core.configurations import Configuration
from repro.core.relaxation import (
    all_relax_into,
    can_relax,
    compare_problems,
    find_label_relabeling,
    find_upgrade_reduction,
    relaxation_witness,
)
from repro.core.round_elimination import R
from repro.problems.family import family_problem
from repro.problems.mis import mis_problem

from tests.oracle import (
    classic_corpus,
    random_corpus,
    relabeling_is_valid,
    relaxes_by_permutation,
)

CLASSICS = classic_corpus()
RANDOM_SOURCES = random_corpus(seed=987, count=6)
RANDOM_TARGETS = random_corpus(seed=988, count=3)
#: The (source, target) index pairs of equal degree, among the random
#: problems above, that admit a relabeling.
RANDOM_RELABELINGS = {(0, 1), (2, 0), (2, 1), (3, 1), (5, 2)}


def sets(*parts):
    return Configuration([frozenset(part) for part in parts])


def assert_relabeling(source, target, exists):
    """A relabeling exists exactly when expected, and any witness is valid."""
    witness = find_label_relabeling(source, target)
    assert (witness is not None) == exists, witness
    if witness is not None:
        assert relabeling_is_valid(source, target, witness), witness


class TestCanRelax:
    def test_reflexive(self):
        config = sets("M", "OX", "OX")
        assert can_relax(config, config)

    def test_pointwise_superset(self):
        assert can_relax(sets("M", "O"), sets("MX", "OX"))

    def test_needs_permutation(self):
        # M fits only into the second slot, O only into the first.
        assert can_relax(sets("M", "O"), sets("OX", "MX"))

    def test_fails_when_no_matching(self):
        assert not can_relax(sets("M", "M"), sets("MX", "O"))

    def test_arity_mismatch(self):
        assert not can_relax(sets("M"), sets("M", "M"))

    def test_antisymmetric_on_distinct(self):
        big = sets("MOX", "MOX")
        small = sets("M", "O")
        assert can_relax(small, big)
        assert not can_relax(big, small)

    def test_witness_permutation_valid(self):
        source = sets("M", "O", "P")
        target = sets("PX", "MX", "OX")
        rho = relaxation_witness(source, target)
        assert rho is not None
        for i, label_set in enumerate(source.items):
            assert label_set <= target.items[rho[i]]

    def test_witness_none_when_impossible(self):
        assert relaxation_witness(sets("M", "M"), sets("M", "O")) is None

    @given(st.lists(st.sampled_from(["M", "O", "X", "MO", "OX", "MOX"]),
                    min_size=1, max_size=4))
    def test_relaxing_to_full_sets_always_works(self, parts):
        source = Configuration([frozenset(part) for part in parts])
        target = Configuration([frozenset("MOX")] * len(parts))
        assert can_relax(source, target)

    def test_all_relax_into(self):
        sources = [sets("M", "O"), sets("O", "O")]
        targets = [sets("MX", "OX"), sets("OX", "OX")]
        assert all_relax_into(sources, targets)
        assert not all_relax_into([sets("P", "P")], targets)

    @pytest.mark.parametrize(
        "name, problem", CLASSICS[:4], ids=[name for name, _ in CLASSICS[:4]]
    )
    def test_all_relax_into_matches_brute_force(self, name, problem):
        """R's node configurations, against all of them and against the
        first half in render order (which exercises the False branch)."""
        configurations = sorted(
            R(problem).node_constraint.configurations, key=Configuration.render
        )
        for targets in (configurations, configurations[: max(1, len(configurations) // 2)]):
            expected = all(
                any(relaxes_by_permutation(source, target) for target in targets)
                for source in configurations
            )
            assert all_relax_into(configurations, targets) == expected, name


class TestLabelRelabeling:
    def test_identity_on_same_problem(self):
        problem = mis_problem(3)
        mapping = find_label_relabeling(problem, problem)
        assert mapping is not None

    def test_into_renamed_problem(self):
        problem = mis_problem(3)
        renamed = problem.rename({"M": "a", "P": "b", "O": "c"})
        mapping = find_label_relabeling(problem, renamed)
        assert mapping == {"M": "a", "P": "b", "O": "c"}

    def test_no_map_into_harder_problem(self):
        # MIS with Delta=3 cannot be relabeled into perfect matching:
        # M^3 has no image (matching nodes need exactly one M).
        from repro.problems.classic import perfect_matching_problem

        assert find_label_relabeling(mis_problem(3), perfect_matching_problem(3)) is None

    def test_delta_mismatch(self):
        assert find_label_relabeling(mis_problem(3), mis_problem(4)) is None

    @pytest.mark.parametrize(
        "source_index, target_index, exists",
        [
            (0, 1, False),
            (0, 2, False),
            (2, 0, False),
            (3, 3, True),
            (5, 6, False),
            (1, 1, True),
        ],
    )
    def test_classic_pairs(self, source_index, target_index, exists):
        assert_relabeling(
            CLASSICS[source_index][1], CLASSICS[target_index][1], exists
        )

    @pytest.mark.parametrize("source_index", range(len(RANDOM_SOURCES)))
    def test_random_pairs(self, source_index):
        source = RANDOM_SOURCES[source_index][1]
        for target_index, (_, target) in enumerate(RANDOM_TARGETS):
            if source.delta == target.delta:
                exists = (source_index, target_index) in RANDOM_RELABELINGS
                assert_relabeling(source, target, exists)


class TestCompareProblems:
    def test_equivalent_after_renaming(self):
        problem = mis_problem(3)
        renamed = problem.rename({"M": "a", "P": "b", "O": "c"})
        assert compare_problems(problem, renamed) == "equivalent"

    def test_restriction_is_easier(self):
        """Pi with an extra always-allowed label is easier than without:
        solutions of the smaller problem are solutions of the larger."""
        from repro.core.problem import Problem

        strict = mis_problem(3)
        relaxed = Problem.from_text(
            ["M^3", "P O^2", "W^3"],
            ["M [PO]", "O O", "W [MPOW]"],
        )
        assert compare_problems(strict, relaxed) == "first_easier"

    def test_incomparable(self):
        from repro.problems.classic import (
            perfect_matching_problem,
            sinkless_orientation_problem,
        )

        outcome = compare_problems(
            perfect_matching_problem(3), sinkless_orientation_problem(3)
        )
        assert outcome == "incomparable"

    @pytest.mark.parametrize(
        "index, expected",
        [
            (0, "equivalent"),
            (1, "incomparable"),
            (2, "incomparable"),
            (3, "incomparable"),
            (4, "incomparable"),
            (5, "second_easier"),
            (6, "incomparable"),
            (7, "incomparable"),
            (8, "incomparable"),
        ],
    )
    def test_classics_against_mis3(self, index, expected):
        assert compare_problems(CLASSICS[index][1], CLASSICS[0][1]) == expected


class TestUpgradeReduction:
    def test_lemma11_instance(self):
        """Pi(5, 4, 1) upgrades into Pi(5, 2, 2): decrease a, increase x
        (Lemma 11) — relabel surplus M and A edges to X."""
        source = family_problem(5, 4, 1)
        target = family_problem(5, 2, 2)
        witnesses = find_upgrade_reduction(source, target)
        assert witnesses is not None
        assert set(witnesses) == set(source.node_constraint.configurations)

    def test_wrong_direction_fails(self):
        """Increasing a (or decreasing x) is not a 0-round upgrade."""
        source = family_problem(5, 2, 2)
        target = family_problem(5, 4, 1)
        assert find_upgrade_reduction(source, target) is None

    def test_same_problem_is_upgradable(self):
        problem = family_problem(4, 2, 1)
        assert find_upgrade_reduction(problem, problem) is not None
