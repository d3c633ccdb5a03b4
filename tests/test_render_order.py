"""The engines' ordering fast paths against the literal code.

Both engines render each label once per operator call and order by
lookup: ``insert_canonical`` grows the DFS frontiers,
``Configuration._presorted`` builds expanded, existential (reference
and kernel) and renamed configurations, and ``Diagram`` runs the
replacement test over item tuples.  Each fast path must equal the
literal version kept here — ``sorted(..., key=render_label)``,
``Configuration(...)`` built from scratch, and the paper's
``replace_one(weak, strong) in constraint``.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.configurations import (
    CondensedConfiguration,
    Configuration,
    Disjunction,
    insert_canonical,
    parse_condensed,
    render_map,
)
from repro.core.cache import _set_sort_key
from repro.core.constraints import Constraint
from repro.core.diagram import Diagram
from repro.core.kernel.engine import existential_constraint_kernel
from repro.core.labels import render_label
from repro.core.round_elimination import (
    R,
    _grow_frontier,
    _grow_frontier_exists,
    existential_condensed,
    rename_to_strings,
)
from repro.robustness.errors import InvalidProblem
from repro.scenarios import load_registry, run_scenario
from tests.oracle import full_corpus

#: Distinct renderings: one-character, multi-character and (nested)
#: set labels.
TIE_FREE = (
    "A",
    "B",
    "M",
    "MX",
    "AB",
    frozenset({"A"}),
    frozenset({"A", "B"}),
    frozenset({frozenset({"A"}), "B"}),
    frozenset({frozenset({"A", "MX"}), frozenset({"B"})}),
)
#: Unequal labels that render alike: the stable sort keeps them in
#: arrival order, and so must the fast paths.
TIES = ("1", 1, "12", 12, frozenset({"1"}), frozenset({1}))


def literal_sorted(labels) -> tuple:
    return tuple(sorted(labels, key=render_label))


# ---------------------------------------------------------------------------
# Frontier growth
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pool", [TIE_FREE, TIE_FREE + TIES], ids=["tie-free", "ties"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_insert_canonical_is_the_stable_sort(pool, data):
    partial = literal_sorted(
        data.draw(st.lists(st.sampled_from(pool), max_size=6))
    )
    label = data.draw(st.sampled_from(pool))
    assert insert_canonical(partial, label, render_map([pool])) == literal_sorted(
        partial + (label,)
    )


def literal_extensions(frontier, candidate) -> list[tuple]:
    return [
        literal_sorted(partial + (label,))
        for partial in frontier
        for label in candidate
    ]


@pytest.mark.parametrize("pool", [TIE_FREE, TIE_FREE + TIES], ids=["tie-free", "ties"])
@pytest.mark.parametrize("seed", range(20))
def test_grown_frontiers_match_literal(pool, seed):
    rng = random.Random(seed)
    frontier = frozenset(
        literal_sorted(rng.choices(pool, k=rng.randint(0, 4)))
        for _ in range(rng.randint(1, 6))
    )
    candidate = frozenset(rng.sample(pool, rng.randint(1, 4)))
    order = render_map([pool])
    extensions = literal_extensions(frontier, candidate)
    closure = frozenset(extensions)
    assert _grow_frontier(frontier, candidate, closure, order) == closure
    survivors = frozenset(rng.sample(extensions, len(extensions) // 2))
    assert _grow_frontier_exists(frontier, candidate, survivors, order) == survivors
    if len(closure) > len(survivors):
        assert _grow_frontier(frontier, candidate, survivors, order) is None


# ---------------------------------------------------------------------------
# Condensed expansion
# ---------------------------------------------------------------------------

def literal_expand(condensed: CondensedConfiguration) -> set[Configuration]:
    options = [
        itertools.combinations_with_replacement(
            literal_sorted(disjunction.labels), exponent
        )
        for disjunction, exponent in condensed.parts
    ]
    return {
        Configuration(itertools.chain.from_iterable(combo))
        for combo in itertools.product(*options)
    }


def assert_expands_literally(condensed: CondensedConfiguration) -> None:
    fast = condensed.expand()
    literal = literal_expand(condensed)
    assert fast == literal
    assert {c.items for c in fast} == {c.items for c in literal}
    for configuration in fast:
        assert configuration.items == literal_sorted(configuration.items)


@pytest.mark.parametrize(
    "text",
    ["M^3", "P O^2", "[PO]^2 M", "[M(MX)]^2 [PO]", "(AB) [A(AB)B]^3 X"],
)
def test_expand_matches_literal_on_paper_syntax(text):
    assert_expands_literally(parse_condensed(text))


@pytest.mark.parametrize("pool", [TIE_FREE, TIE_FREE + TIES], ids=["tie-free", "ties"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_expand_matches_literal_on_mixed_labels(pool, data):
    groups = data.draw(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(pool), min_size=1, max_size=4),
                st.integers(min_value=1, max_value=3),
            ),
            min_size=1,
            max_size=3,
        )
    )
    assert_expands_literally(
        CondensedConfiguration((Disjunction(labels), n) for labels, n in groups)
    )


def test_expand_matches_literal_on_existential_forms():
    """Set-label disjunctions, as Lemma 6 displays R's node constraint."""
    for _, problem in full_corpus()[:8]:
        try:
            sigma = R(problem).alphabet
        except InvalidProblem:
            continue
        for configuration in problem.node_constraint.configurations:
            assert_expands_literally(existential_condensed(configuration, sigma))


# ---------------------------------------------------------------------------
# Kernel existential materialization and constraint renaming
# ---------------------------------------------------------------------------

def literal_existential(old, new_labels, arity) -> set[Configuration]:
    """The existential step spelled out: every multiset of new labels,
    drawn in the kernel's label order, with some allowed choice, built
    by ``Configuration(...)`` from scratch."""
    labels = sorted(set(new_labels), key=_set_sort_key)
    allowed = [Counter(configuration.items) for configuration in old.configurations]
    return {
        Configuration(labels[index] for index in combo)
        for combo in itertools.combinations_with_replacement(range(len(labels)), arity)
        if any(
            Counter(choice) in allowed
            for choice in itertools.product(*(labels[index] for index in combo))
        )
    }


@pytest.mark.parametrize("arity", [2, 3])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernel_existential_matches_literal_on_ties(arity, data):
    pool = TIE_FREE[:3] + TIES
    old = Constraint(
        Configuration(configuration)
        for configuration in data.draw(
            st.lists(
                st.lists(st.sampled_from(pool), min_size=arity, max_size=arity),
                min_size=1,
                max_size=6,
            )
        )
    )
    new_labels = data.draw(
        st.lists(
            st.frozensets(st.sampled_from(pool), min_size=1, max_size=3),
            min_size=1,
            max_size=6,
        )
    )
    literal = literal_existential(old, new_labels, arity)
    if not literal:
        with pytest.raises(InvalidProblem):
            existential_constraint_kernel(old, new_labels, arity)
        return
    fast = existential_constraint_kernel(old, new_labels, arity)
    assert {c.items for c in fast} == {c.items for c in literal}


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_rename_matches_replace_all_into_ties(data):
    source = ("A", "B", "M", "MX", frozenset({"A"}))
    constraint = Constraint(
        Configuration(configuration)
        for configuration in data.draw(
            st.lists(
                st.lists(st.sampled_from(source), min_size=3, max_size=3),
                min_size=1,
                max_size=6,
            )
        )
    )
    renamed = data.draw(st.integers(min_value=1, max_value=len(source)))
    mapping = dict(zip(source[:renamed], data.draw(st.permutations(TIES))))
    fast = constraint.rename(mapping)
    literal = Constraint(
        configuration.replace_all(mapping)
        for configuration in constraint.configurations
    )
    assert {c.items for c in fast} == {c.items for c in literal}


# ---------------------------------------------------------------------------
# Diagram
# ---------------------------------------------------------------------------

def literal_at_least_as_strong(constraint, strong, weak) -> bool:
    """The paper's replacement test, one configuration at a time."""
    if strong == weak:
        return True
    return all(
        configuration.replace_one(weak, strong) in constraint
        for configuration in constraint.configurations_containing(weak)
    )


def assert_diagrams_literal(problem) -> None:
    for constraint in (problem.node_constraint, problem.edge_constraint):
        diagram = Diagram(constraint, problem.alphabet)
        for strong, weak in itertools.product(problem.alphabet, repeat=2):
            assert diagram.at_least_as_strong(strong, weak) == (
                literal_at_least_as_strong(constraint, strong, weak)
            ), (problem.name, render_label(strong), render_label(weak))


def with_intermediate(problem) -> list:
    """``problem`` and, when it exists, ``R(problem)`` (set labels)."""
    try:
        return [problem, R(problem, use_kernel=True)]
    except InvalidProblem:
        return [problem]


CORPUS = full_corpus()


@pytest.mark.parametrize(
    "problem", [problem for _, problem in CORPUS], ids=[name for name, _ in CORPUS]
)
def test_diagram_matches_literal_on_corpus(problem):
    for subject in with_intermediate(problem):
        assert_diagrams_literal(subject)


SCENARIOS = load_registry()


#: Above this Delta, ``R`` of a chain problem is too large for the
#: literal test (``R`` of the Delta=16 family start has 20,229 node
#: configurations); the corpus covers that family at small Delta.
INTERMEDIATE_MAX_DELTA = 5


@pytest.mark.parametrize(
    "spec", [spec for _, spec in SCENARIOS], ids=[spec.name for _, spec in SCENARIOS]
)
def test_diagram_matches_literal_on_scenario_chains(spec):
    run = run_scenario(spec, use_kernel=True)
    for problem in run.problems:
        if problem.delta > INTERMEDIATE_MAX_DELTA:
            assert_diagrams_literal(problem)
            continue
        for subject in with_intermediate(problem):
            assert_diagrams_literal(subject)
            if subject is not problem:
                assert_diagrams_literal(rename_to_strings(subject).problem)
