"""Monte-Carlo zero-round experiments (the empirical side of Lemma 15)."""

import typing

import pytest

from repro.core.solvability import randomized_zero_round_failure_bound
from repro.lowerbound.zero_round import (
    GreedyStrategy,
    UniformStrategy,
    monte_carlo_zero_round_failure,
)
from repro.problems.family import family_problem
from repro.problems.mis import mis_problem


class TestMonteCarlo:
    def test_signature_annotations_resolve(self):
        hints = typing.get_type_hints(monte_carlo_zero_round_failure)
        assert hints["strategy"] == UniformStrategy | GreedyStrategy | None

    @pytest.mark.parametrize("params", [(3, 2, 1), (3, 1, 1), (4, 2, 1)])
    def test_uniform_strategy_fails_at_least_the_bound(self, params):
        problem = family_problem(*params)
        experiment = monte_carlo_zero_round_failure(problem, trials=100, seed=1)
        bound = float(randomized_zero_round_failure_bound(problem))
        assert experiment.failure_rate >= bound

    @pytest.mark.parametrize("params", [(3, 2, 1), (3, 1, 1), (4, 2, 1)])
    def test_greedy_strategy_also_fails(self, params):
        problem = family_problem(*params)
        experiment = monte_carlo_zero_round_failure(
            problem, strategy=GreedyStrategy(problem), trials=20, seed=2
        )
        bound = float(randomized_zero_round_failure_bound(problem))
        assert experiment.failure_rate >= bound

    def test_mis_fails(self):
        problem = mis_problem(3)
        experiment = monte_carlo_zero_round_failure(problem, trials=50, seed=3)
        assert experiment.failure_rate >= float(
            randomized_zero_round_failure_bound(problem)
        )

    def test_solvable_problem_can_succeed(self):
        """Pi(delta, a=0, x=delta) is 0-round solvable: the all-X
        strategy exists in the configuration space, so some trials
        should succeed under a uniform strategy... but more robustly,
        the analytic bound is 0 and does not constrain the rate."""
        problem = family_problem(3, 0, 3)
        bound = randomized_zero_round_failure_bound(problem)
        assert bound == 0

    def test_experiment_metadata(self):
        problem = family_problem(3, 2, 1)
        experiment = monte_carlo_zero_round_failure(problem, trials=10, seed=0)
        assert experiment.trials == 10
        assert 0 <= experiment.failures <= 10
        assert experiment.delta == 3

    def test_deterministic_given_seed(self):
        problem = family_problem(3, 2, 1)
        first = monte_carlo_zero_round_failure(problem, trials=30, seed=9)
        second = monte_carlo_zero_round_failure(problem, trials=30, seed=9)
        assert first.failures == second.failures

    def test_uniform_strategy_samples_allowed_configurations(self):
        import random

        problem = family_problem(4, 2, 1)
        strategy = UniformStrategy(problem)
        rng = random.Random(0)
        from repro.core.configurations import Configuration

        for _ in range(50):
            labels = strategy.sample(rng)
            assert Configuration(labels) in problem.node_constraint
