"""Constraints that keep their condensed lines, and the kernel's line path.

A constraint built from condensed lines keeps them and expands on first
use; renaming maps the lines, and equal line sets compare equal without
expanding.  The kernel's existential step maps such a constraint line
for line (Section 2.3's simple method) instead of searching it.  These
tests pin that path to the reference engine, which stays fully
expanded: on the Pi_Delta(a, x) grid, on the text-built classics and on
the generated corpus rebuilt from its rendered lines.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.configurations import CondensedConfiguration, Disjunction
from repro.core.constraints import Constraint
from repro.core.kernel.engine import existential_constraint_kernel
from repro.core.problem import Problem
from repro.core.round_elimination import (
    R,
    Rbar,
    existential_condensed,
    existential_constraint,
)
from repro.observability.metrics import diff_semantic_profiles, semantic_profile
from repro.observability.trace import Tracer, tracing
from repro.problems import (
    maximal_matching_problem,
    mis_problem,
    ruling_set_problem,
    sinkless_orientation_problem,
)
from repro.problems.family import family_problem
from repro.robustness.budget import Budget, governed
from repro.robustness.errors import BudgetExceeded, InvalidProblem

from tests.oracle import differential_R, differential_Rbar, generated_corpus


def from_lines(problem: Problem) -> Problem:
    """``problem`` rebuilt from its rendered lines: same alphabet and
    name, constraints that keep their (one-configuration) lines."""
    return Problem(
        problem.alphabet,
        Constraint.from_condensed(problem.node_constraint.render().splitlines()),
        Constraint.from_condensed(problem.edge_constraint.render().splitlines()),
        name=problem.name,
    )


def expanded(problem: Problem) -> Problem:
    """``problem`` with constraints built from configurations."""
    return Problem(
        problem.alphabet,
        Constraint(problem.node_constraint.configurations),
        Constraint(problem.edge_constraint.configurations),
        name=problem.name,
    )


def grid(delta: int) -> list[tuple[int, int, int]]:
    return [
        (delta, a, x) for a in range(2, delta + 1) for x in range(a - 1)
    ]


# ---------------------------------------------------------------------------
# The line path of R against the reference engine
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "delta",
    [3, 4, 5, 6, pytest.param(7, marks=pytest.mark.slow), pytest.param(8, marks=pytest.mark.slow)],
)
def test_line_path_r_equals_reference_on_the_family_grid(delta):
    """Every x + 2 <= a <= Delta point.  ``render()`` is compared up to
    Delta = 6: equal constraints, alphabet order and name imply equal
    renders, and rendering both sides costs about 12 s at Delta = 8."""
    for point in grid(delta):
        problem = family_problem(*point)
        assert problem.node_constraint.lines is not None
        kernel = R(problem, use_kernel=True)
        reference = R(problem)
        assert kernel.node_constraint.lines is not None, point
        assert kernel == reference, point
        assert list(kernel.alphabet) == list(reference.alphabet), point
        assert kernel.name == reference.name, point
        if delta <= 6:
            assert kernel.render() == reference.render(), point


CLASSICS = [
    (f"{builder.__name__}({delta})", builder, delta)
    for builder, deltas in (
        (mis_problem, (2, 3, 4, 5, 6)),
        (ruling_set_problem, (2, 3)),
        (maximal_matching_problem, (2, 3, 4)),
        (sinkless_orientation_problem, (2, 3, 4)),
    )
    for delta in deltas
]


@pytest.mark.parametrize(
    "builder, delta", [item[1:] for item in CLASSICS], ids=[item[0] for item in CLASSICS]
)
def test_line_path_r_equals_reference_on_text_built_classics(builder, delta):
    problem = builder(delta)
    if problem.node_constraint.lines is None:
        problem = from_lines(problem)
    kernel = differential_R(problem.name, problem)
    assert kernel is not None
    assert R(problem, use_kernel=True).node_constraint.lines is not None


GENERATED = generated_corpus()


@pytest.mark.parametrize("item", GENERATED, ids=[item.name for item in GENERATED])
def test_line_path_r_equals_reference_on_the_rebuilt_generated_corpus(item):
    """Both engines agree on every generated input rebuilt from its
    rendered lines (equal results or the same failure), and the line
    path equals the DFS on the input as generated."""
    rebuilt = from_lines(item.problem)
    assert rebuilt == item.problem
    assert rebuilt.node_constraint.lines is not None
    reference = differential_R(item.name, rebuilt)
    if reference is not None:
        assert R(rebuilt, use_kernel=True) == R(item.problem, use_kernel=True)


# ---------------------------------------------------------------------------
# Equality, hashing and renaming of lines
# ---------------------------------------------------------------------------

def test_different_lines_for_one_set_are_equal_and_hash_alike():
    one = Constraint.from_condensed(["[AB] A"])
    two = Constraint.from_condensed(["A A", "A B"])
    assert one.lines != two.lines
    assert one == two and two == one
    assert hash(one) == hash(two)
    assert one == Constraint(two.configurations)
    assert len({one, two}) == 1
    assert one != Constraint.from_condensed(["[AB] B"])
    assert one != Constraint.from_condensed(["A A A"])


def test_equal_line_sets_compare_equal_without_expanding():
    """Repeated, reordered and respelled lines give one line set."""
    one = Constraint.from_condensed(["[MUBQ]^5 [XMOUABPQ]^2", "[PQ] [OUABPQ]^6"])
    two = Constraint.from_condensed(
        ["[PQ] [OUABPQ]^6", "[BQMU]^5 [XMOUABPQ]^2", "[XMOUABPQ] [BQMU]^5 [XMOUABPQ]"]
    )
    assert len(two.lines) == 2
    assert one == two
    assert one._configurations is None and two._configurations is None


GROUP_LABELS = ("A", "B", "C", "D")


def condensed_lines(arity: int):
    """Hypothesis strategy: 1-3 condensed lines of ``arity`` over
    ``GROUP_LABELS``, each split into 1-3 groups."""

    @st.composite
    def line(draw):
        cuts = sorted(
            draw(st.sets(st.integers(1, arity - 1), max_size=min(2, arity - 1)))
        )
        bounds = [0, *cuts, arity]
        return CondensedConfiguration(
            (
                Disjunction(
                    draw(st.sets(st.sampled_from(GROUP_LABELS), min_size=1, max_size=3))
                ),
                high - low,
            )
            for low, high in zip(bounds, bounds[1:])
        )

    return st.lists(line(), min_size=1, max_size=3)


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    arity=st.integers(2, 4),
)
def test_renaming_lines_equals_renaming_their_expansion(data, arity):
    """Also for non-injective mappings, which merge groups."""
    lines = data.draw(condensed_lines(arity))
    mapping = dict(
        zip(GROUP_LABELS, data.draw(st.lists(st.sampled_from("XYZ"), min_size=4, max_size=4)))
    )
    constraint = Constraint.from_condensed(lines)
    renamed = constraint.rename(mapping)
    assert renamed.lines is not None
    literal = Constraint(
        configuration.replace_all(mapping) for configuration in constraint.configurations
    )
    assert renamed == literal
    assert renamed.render() == literal.render()


def test_non_injective_renaming_merges_groups():
    constraint = Constraint.from_condensed(["[AB] C^2", "A B C"])
    renamed = constraint.rename({"A": "X", "B": "X"})
    assert {line.render() for line in renamed.lines} == {"C^2 X", "C X^2"}
    assert renamed == Constraint(
        configuration.replace_all({"A": "X", "B": "X"})
        for configuration in constraint.configurations
    )


# ---------------------------------------------------------------------------
# The existential step on lines
# ---------------------------------------------------------------------------

NEW_LABELS = [frozenset(labels) for labels in ("A", "AB", "BC", "ABC", "E")]


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    arity=st.integers(2, 4),
)
def test_kernel_line_step_equals_the_reference_existential_step(data, arity):
    """Lines whose groups meet no new label (``D`` meets none) drop out;
    when every line drops, both engines raise the same error."""
    lines = data.draw(condensed_lines(arity))
    new_labels = data.draw(
        st.lists(st.sampled_from(NEW_LABELS), min_size=1, max_size=4, unique=True)
    )
    old = Constraint.from_condensed(lines)
    try:
        reference = existential_constraint(old, new_labels, arity)
    except InvalidProblem as error:
        with pytest.raises(InvalidProblem) as raised:
            existential_constraint_kernel(old, new_labels, arity)
        assert (raised.value.message, raised.value.context) == (
            error.message,
            error.context,
        )
        return
    kernel = existential_constraint_kernel(old, new_labels, arity)
    assert kernel.lines is not None
    assert kernel == reference
    assert {c.items for c in kernel} == {c.items for c in reference}


def test_existential_condensed_reads_a_line_and_a_configuration_alike():
    sigma = [frozenset("MX"), frozenset("OX"), frozenset("X")]
    line = CondensedConfiguration.from_groups((("M",), 2), (("X",), 1))
    (configuration,) = line.expand()
    assert existential_condensed(line, sigma) == existential_condensed(configuration, sigma)
    grouped = CondensedConfiguration.from_groups((("M", "O"), 3))
    assert existential_condensed(grouped, sigma).render() == "[<MX><OX>]^3"
    with pytest.raises(InvalidProblem, match="group \\[AP\\] occurs in no new set label"):
        existential_condensed(CondensedConfiguration.from_groups((("A", "P"), 2)), sigma)


# ---------------------------------------------------------------------------
# Budgets, tracing and laziness on the line path
# ---------------------------------------------------------------------------

def test_untraced_r_leaves_its_node_constraint_unexpanded():
    result = R(family_problem(8, 8, 6), use_kernel=True)
    assert result.node_constraint._configurations is None
    assert len(result.node_constraint) == 5920


@pytest.mark.parametrize("point", [(4, 3, 1), (5, 5, 0)])
def test_configuration_budget_trips_on_both_existential_paths(point):
    """R's node constraint over the budget trips on the line path as
    the DFS does on the same problem built from configurations; at the
    exact count neither trips."""
    problem = family_problem(*point)
    count = len(R(problem, use_kernel=True).node_constraint)
    for source in (problem, expanded(problem)):
        with governed(Budget(max_configurations=count // 2)):
            with pytest.raises(BudgetExceeded) as raised:
                R(source, use_kernel=True)
        assert raised.value.context["phase"] == "existential"
        with governed(Budget(max_configurations=count)):
            assert len(R(source, use_kernel=True).node_constraint) == count


@pytest.mark.parametrize(
    "problem",
    [family_problem(5, 3, 1), mis_problem(4), from_lines(ruling_set_problem(3))],
    ids=["family(5,3,1)", "mis(4)", "ruling(3)"],
)
def test_line_path_semantic_counters_equal_the_reference(problem):
    profiles = []
    for use_kernel in (False, True):
        tracer = Tracer()
        with tracing(tracer):
            R(problem, use_kernel=use_kernel)
        profiles.append(semantic_profile(tracer.finish()))
    assert not diff_semantic_profiles(*profiles)
    assert profiles[1]  # the kernel span reported its counters


def test_rbar_of_a_text_built_problem_runs_the_edge_step_on_lines():
    """Rbar's existential edge step takes the line path too when its
    input keeps edge lines, and agrees with the reference."""
    problem = mis_problem(3)
    assert problem.edge_constraint.lines is not None
    assert differential_Rbar("mis(3)", problem) is not None
    assert Rbar(problem, use_kernel=True).edge_constraint.lines is not None
