"""Property-based tests (hypothesis) on the core invariants."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.core.configurations import Configuration
from repro.core.constraints import Constraint
from repro.core.diagram import Diagram
from repro.core.problem import Problem
from repro.core.relaxation import can_relax
from repro.core.round_elimination import (
    R,
    existential_constraint,
    maximize_edge_constraint,
)

from tests.oracle import relaxes_by_permutation

LABELS = ["A", "B", "C", "D"]


@st.composite
def random_problems(draw, delta=3, max_labels=4):
    """Small random problems with non-empty, consistent constraints."""
    label_count = draw(st.integers(min_value=2, max_value=max_labels))
    labels = LABELS[:label_count]
    pairs = list(itertools.combinations_with_replacement(labels, 2))
    edge_choice = draw(
        st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs), unique=True)
    )
    edge_constraint = Constraint(Configuration(pair) for pair in edge_choice)
    node_pool = list(itertools.combinations_with_replacement(labels, delta))
    node_choice = draw(
        st.lists(st.sampled_from(node_pool), min_size=1, max_size=6, unique=True)
    )
    node_constraint = Constraint(Configuration(combo) for combo in node_choice)
    return Problem(labels, node_constraint, edge_constraint)


class TestEdgeMaximizationProperties:
    @given(random_problems())
    @settings(max_examples=60, deadline=None)
    def test_maximal_configs_are_fully_compatible(self, problem):
        """Every choice from a maximal pair must be an allowed edge."""
        result = maximize_edge_constraint(problem)
        for configuration in result.configurations:
            left, right = configuration.items
            for a in left:
                for b in right:
                    assert problem.edge_allows(a, b)

    @given(random_problems())
    @settings(max_examples=60, deadline=None)
    def test_maximal_configs_form_antichain(self, problem):
        result = maximize_edge_constraint(problem)
        configs = list(result.configurations)
        for first in configs:
            for second in configs:
                if first != second:
                    assert not can_relax(first, second)

    @given(random_problems())
    @settings(max_examples=60, deadline=None)
    def test_every_allowed_pair_is_covered(self, problem):
        """Each original edge configuration embeds in some maximal pair."""
        result = maximize_edge_constraint(problem)
        for configuration in problem.edge_constraint.configurations:
            a, b = configuration.items
            covered = any(
                (a in left and b in right) or (a in right and b in left)
                for left, right in (c.items for c in result.configurations)
            )
            assert covered

    @given(random_problems())
    @settings(max_examples=40, deadline=None)
    def test_result_sets_right_closed(self, problem):
        """Observation 4 of the paper, on random problems."""
        diagram = Diagram(problem.edge_constraint, problem.alphabet)
        result = maximize_edge_constraint(problem)
        for labels in result.labels_used():
            assert diagram.is_right_closed(labels)


class TestExistentialProperties:
    @given(random_problems())
    @settings(max_examples=40, deadline=None)
    def test_every_config_has_a_witness_choice(self, problem):
        edge_max = maximize_edge_constraint(problem)
        sigma = set(edge_max.labels_used())
        try:
            node = existential_constraint(
                problem.node_constraint, sigma, problem.delta
            )
        except ValueError:
            return  # locally unsatisfiable random problem: empty step
        for configuration in node.configurations:
            witness = any(
                Configuration(choice) in problem.node_constraint
                for choice in itertools.product(*configuration.items)
            )
            assert witness


class TestROperatorProperties:
    @given(random_problems())
    @settings(max_examples=30, deadline=None)
    def test_r_preserves_delta(self, problem):
        try:
            result = R(problem)
        except ValueError:
            return  # degenerate problems may have empty steps
        assert result.delta == problem.delta

    @given(random_problems())
    @settings(max_examples=30, deadline=None)
    def test_r_alphabet_nonempty_sets(self, problem):
        try:
            result = R(problem)
        except ValueError:
            return
        for label in result.alphabet:
            assert isinstance(label, frozenset)
            assert label
            assert label <= set(problem.alphabet)


class TestNodeMaximizationProperties:
    @given(random_problems(delta=2))
    @settings(max_examples=30, deadline=None)
    def test_all_choices_allowed(self, problem):
        from repro.core.round_elimination import maximize_node_constraint

        try:
            result = maximize_node_constraint(problem)
        except ValueError:
            return
        for configuration in result.configurations:
            for choice in itertools.product(*configuration.items):
                assert Configuration(choice) in problem.node_constraint

    @given(random_problems(delta=2))
    @settings(max_examples=30, deadline=None)
    def test_antichain(self, problem):
        from repro.core.round_elimination import maximize_node_constraint

        try:
            result = maximize_node_constraint(problem)
        except ValueError:
            return
        configs = list(result.configurations)
        for first in configs:
            for second in configs:
                if first != second:
                    assert not can_relax(first, second)

    @given(random_problems(delta=2))
    @settings(max_examples=30, deadline=None)
    def test_every_node_config_covered(self, problem):
        """Each allowed configuration embeds into some maximal one."""
        from repro.core.round_elimination import maximize_node_constraint

        try:
            result = maximize_node_constraint(problem)
        except ValueError:
            return
        for configuration in problem.node_constraint.configurations:
            singleton = Configuration(
                [frozenset([label]) for label in configuration.items]
            )
            assert any(
                can_relax(singleton, maximal)
                for maximal in result.configurations
            )


class TestDiagramProperties:
    @given(random_problems())
    @settings(max_examples=60, deadline=None)
    def test_strength_preorder(self, problem):
        diagram = Diagram(problem.edge_constraint, problem.alphabet)
        labels = diagram.labels
        for a in labels:
            assert diagram.at_least_as_strong(a, a)
        for a, b, c in itertools.product(labels, repeat=3):
            if diagram.at_least_as_strong(a, b) and diagram.at_least_as_strong(b, c):
                assert diagram.at_least_as_strong(a, c)

    @given(random_problems())
    @settings(max_examples=40, deadline=None)
    def test_right_closed_sets_closed_under_union_intersection(self, problem):
        diagram = Diagram(problem.edge_constraint, problem.alphabet)
        sets = diagram.right_closed_sets()
        for first in sets[:6]:
            for second in sets[:6]:
                union = first | second
                assert diagram.is_right_closed(union)
                meet = first & second
                if meet:
                    assert diagram.is_right_closed(meet)


class TestRelaxationProperties:
    POOL = [frozenset("A"), frozenset("AB"), frozenset("B"), frozenset("ABC"), frozenset("C")]
    SETS = st.lists(st.sampled_from(POOL), min_size=1, max_size=4)

    @given(SETS)
    @settings(max_examples=60, deadline=None)
    def test_reflexive(self, sets):
        config = Configuration(sets)
        assert can_relax(config, config)

    @given(SETS, SETS)
    @settings(max_examples=80, deadline=None)
    def test_antisymmetry(self, left_sets, right_sets):
        left = Configuration(left_sets)
        right = Configuration(right_sets)
        if left.arity != right.arity or left == right:
            return
        if can_relax(left, right) and can_relax(right, left):
            # Mutual relaxation of distinct multisets is impossible:
            # subset-matching both ways forces equality.
            raise AssertionError(f"{left.render()} <~> {right.render()}")

    def test_matches_every_permutation(self):
        """Every pair of configurations of arity at most 4 over the sets
        above: the matching agrees with trying every permutation (about
        1 % of these pairs defeat a matcher without augmenting paths)."""
        for arity in range(1, 5):
            configurations = [
                Configuration(items)
                for items in itertools.combinations_with_replacement(self.POOL, arity)
            ]
            for source, target in itertools.product(configurations, repeat=2):
                assert can_relax(source, target) == relaxes_by_permutation(
                    source, target
                ), (source.render(), target.render())

    @given(SETS, SETS, SETS)
    @settings(max_examples=60, deadline=None)
    def test_transitivity(self, a_sets, b_sets, c_sets):
        a = Configuration(a_sets)
        b = Configuration(b_sets)
        c = Configuration(c_sets)
        if not (a.arity == b.arity == c.arity):
            return
        if can_relax(a, b) and can_relax(b, c):
            assert can_relax(a, c)
