"""Tests for problem simplifications and iterated speedup."""

from repro.core.problem import Problem
from repro.core.simplify import (
    equivalent_label_classes,
    iterate_chain,
    iterate_speedup,
    merge_equivalent_labels,
)
from repro.problems.classic import sinkless_orientation_problem
from repro.problems.family import family_problem
from repro.problems.mis import mis_problem


def problem_with_twin_labels():
    """Labels O and Z are fully interchangeable."""
    return Problem.from_text(
        ["M^3", "P [OZ]^2"],
        ["M [POZ]", "[OZ] [OZ]"],
    )


class TestEquivalenceMerging:
    def test_twin_labels_detected(self):
        classes = equivalent_label_classes(problem_with_twin_labels())
        assert frozenset({"O", "Z"}) in classes

    def test_merge_recovers_mis(self):
        merged = merge_equivalent_labels(problem_with_twin_labels())
        assert merged.is_isomorphic(mis_problem(3))

    def test_no_spurious_merges_in_family(self):
        problem = family_problem(5, 3, 1)
        classes = equivalent_label_classes(problem)
        assert all(len(group) == 1 for group in classes)

    def test_merge_is_idempotent(self):
        merged = merge_equivalent_labels(problem_with_twin_labels())
        assert merge_equivalent_labels(merged) == merged


class TestCertifiedUpperBound:
    def test_free_problem_zero_rounds(self):
        from repro.core.simplify import certified_upper_bound

        problem = Problem.from_text(["[AB]^3"], ["[AB] [AB]"])
        assert certified_upper_bound(problem) == 0

    def test_sinkless_orientation_never_certifies(self):
        from repro.core.simplify import certified_upper_bound

        assert certified_upper_bound(
            sinkless_orientation_problem(3), max_steps=2
        ) is None

    def test_mis_not_certified_within_two_steps(self):
        """MIS needs Omega(log* n) rounds, so no finite PN certificate."""
        from repro.core.simplify import certified_upper_bound

        assert certified_upper_bound(mis_problem(2), max_steps=2) is None

    def test_family_boundary_zero_rounds(self):
        from repro.core.simplify import certified_upper_bound

        assert certified_upper_bound(family_problem(3, 0, 3), max_steps=0) == 0


class TestIteratedSpeedup:
    def test_sinkless_orientation_fixed_point(self):
        trajectory = iterate_speedup(sinkless_orientation_problem(3), max_steps=3)
        assert trajectory.reached_fixed_point
        assert trajectory.steps <= 3

    def test_free_problem_immediately_fixed(self):
        problem = Problem.from_text(["[AB]^3"], ["[AB] [AB]"])
        trajectory = iterate_speedup(problem, max_steps=2)
        assert trajectory.reached_fixed_point

    def test_max_steps_respected(self):
        trajectory = iterate_speedup(mis_problem(3), max_steps=1)
        assert trajectory.steps == 1


class TestIterateChain:
    def test_stops_right_after_the_first_fixed_point(self):
        start = mis_problem(3)
        flags = iter([False, True, False])
        trajectory = iterate_chain(start, lambda p: (p, next(flags)), 5)
        assert trajectory.problems == [start, start, start]
        assert trajectory.reached_fixed_point
        assert trajectory.steps == 2

    def test_zero_steps_never_call_the_step(self):
        def step(problem):
            raise AssertionError("step called")

        trajectory = iterate_chain(mis_problem(3), step, 0)
        assert trajectory.steps == 0
        assert not trajectory.reached_fixed_point
