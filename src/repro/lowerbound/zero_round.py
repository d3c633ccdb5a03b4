"""Lemmas 12 and 15, experimentally: 0-round algorithms on the
symmetric-port instances.

:mod:`repro.core.solvability` proves the combinatorial statements; this
module *runs* 0-round randomized algorithms on the actual instances
(the Cayley graph of (Z_2)^Delta, where port == color at both
endpoints) and measures their failure rate, to compare against the
analytic bound ``1/(|N| Delta)^2`` of Lemma 15.

A 0-round randomized algorithm in this setting is fully described by a
*strategy*: a distribution over port-labeled configurations.  All nodes
draw independently from the same strategy, because their 0-round views
are identical (proof of Lemma 15).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.problem import Problem
from repro.sim.generators import colored_port_cayley_graph
from repro.sim.verifiers import verify_lcl


class UniformStrategy:
    """Uniform over allowed node configurations and port assignments."""

    def __init__(self, problem: Problem) -> None:
        self.problem = problem
        self.configurations = sorted(
            problem.node_constraint.configurations, key=lambda c: c.render()
        )

    def sample(self, rng: random.Random) -> list:
        """A uniformly random port-labeled allowed configuration."""
        configuration = rng.choice(self.configurations)
        labels = list(configuration.items)
        rng.shuffle(labels)
        return labels


class GreedyStrategy:
    """Favor the configuration with the most self-compatible labels and
    pin its non-self-compatible labels to a fixed port.

    A natural attempt to beat the bound: concentrate the dangerous
    label on one port so failures correlate.  (It still fails with
    probability >= the Lemma 15 bound — both endpoints pick the same
    dangerous port with constant probability.)
    """

    def __init__(self, problem: Problem) -> None:
        self.problem = problem
        self_compatible = problem.self_compatible_labels()
        self.best = max(
            problem.node_constraint.configurations,
            key=lambda c: sum(1 for label in c if label in self_compatible),
        )
        self.safe = self_compatible

    def sample(self, rng: random.Random) -> list:
        labels = sorted(
            self.best.items, key=lambda label: (label in self.safe, str(label))
        )
        # Dangerous labels stay at the low ports; shuffle only the rest.
        dangerous = [label for label in labels if label not in self.safe]
        rest = [label for label in labels if label in self.safe]
        rng.shuffle(rest)
        return dangerous + rest


@dataclass
class ZeroRoundExperiment:
    """Result of a Monte-Carlo zero-round experiment."""

    trials: int
    failures: int
    delta: int

    @property
    def failure_rate(self) -> float:
        """Observed fraction of failed trials."""
        return self.failures / self.trials if self.trials else 0.0


def monte_carlo_zero_round_failure(
    problem: Problem,
    strategy: UniformStrategy | GreedyStrategy | None = None,
    trials: int = 200,
    seed: int = 0,
) -> ZeroRoundExperiment:
    """Run a 0-round strategy on the Lemma 12/15 instance, many times.

    Every trial samples one output per node (independent randomness —
    the private random strings of the model), then checks the labeling
    with the LCL verifier; any violation is a failure.
    """
    delta = problem.delta
    graph = colored_port_cayley_graph(delta)
    if strategy is None:
        strategy = UniformStrategy(problem)
    rng = random.Random(seed)
    failures = 0
    for _ in range(trials):
        labeling = {}
        for node in range(graph.n):
            labels = strategy.sample(rng)
            for port, label in enumerate(labels):
                labeling[(node, port)] = label
        if not verify_lcl(graph, problem, labeling).ok:
            failures += 1
    return ZeroRoundExperiment(trials=trials, failures=failures, delta=delta)
