"""Machine-checks of Lemma 8: Pi+ is one round easier than Pi."""

import random

import pytest

from repro.core.constraints import Constraint
from repro.core.configurations import parse_condensed
from repro.core.problem import Problem
from repro.lowerbound.lemma6 import SharedPoint, lemma6_node_lines
from repro.lowerbound.lemma8 import (
    condensed_admits_counts,
    verify_lemma8_argument,
    verify_lemma8_direct,
)


ENGINES = {"kernel": True, "reference": False}


def assert_admits_like_expansion(condensed, requirements):
    """condensed_admits_counts answers as a scan of every configuration
    the line expands to does."""
    expanded = [configuration.counts() for configuration in condensed.expand()]
    for minimum_counts in requirements:
        expected = any(
            all(counts[label] >= count for label, count in minimum_counts.items())
            for counts in expanded
        )
        assert condensed_admits_counts(condensed, minimum_counts) == expected, (
            condensed.render(),
            minimum_counts,
        )


def lemma8_grid(*deltas):
    """Every (Delta, a, x) of Lemma 8's range x + 2 <= a <= Delta."""
    return [
        (delta, a, x)
        for delta in deltas
        for a in range(2, delta + 1)
        for x in range(a - 1)
    ]


class TestDirectVerification:
    """Full Rbar(R(Pi)) computation over Lemma 8's parameter grid."""

    @pytest.mark.parametrize("delta,a,x", lemma8_grid(3, 4, 5, 6))
    def test_all_configurations_relax_into_pi_rel(self, delta, a, x):
        assert verify_lemma8_direct(delta, a, x)

    @pytest.mark.slow
    @pytest.mark.parametrize("delta,a,x", lemma8_grid(7))
    def test_delta_seven_grid(self, delta, a, x):
        assert verify_lemma8_direct(delta, a, x)


class TestPaperArgument:
    """The paper's case analysis, executed as a checker."""

    @pytest.mark.parametrize(
        "delta,a,x",
        [
            (4, 3, 1),
            (5, 3, 1),
            (6, 4, 1),
            (8, 6, 2),
            (10, 7, 2),
            (12, 9, 3),
        ],
    )
    def test_all_facts_hold(self, delta, a, x):
        report = verify_lemma8_argument(delta, a, x)
        assert report.ok, report

    def test_report_fields(self):
        report = verify_lemma8_argument(5, 3, 1)
        assert report.no_p_implies_mubq
        assert report.no_u_implies_abpq
        assert report.no_m_implies_ouabpq
        assert report.no_b_implies_pq
        assert report.no_a_implies_ubpq
        assert report.no_m_p_u_configuration
        assert report.no_a_u_b_configuration
        assert report.pi_rel_sets_right_closed


class TestCountingHelper:
    def test_admits_simple(self):
        condensed = parse_condensed("[AB]^3 [C]^2")
        assert condensed_admits_counts(condensed, {"A": 3})
        assert condensed_admits_counts(condensed, {"A": 2, "B": 1, "C": 2})
        assert not condensed_admits_counts(condensed, {"A": 4})
        assert not condensed_admits_counts(condensed, {"C": 3})

    def test_admits_shared_groups(self):
        # A and B compete for the same 2 slots.
        condensed = parse_condensed("[AB]^2 [C]^2")
        assert not condensed_admits_counts(condensed, {"A": 2, "B": 1})
        assert condensed_admits_counts(condensed, {"A": 1, "B": 1})

    def test_admits_overflow_arity(self):
        condensed = parse_condensed("[AB]^2")
        assert not condensed_admits_counts(condensed, {"A": 2, "B": 1})

    def test_empty_requirements(self):
        condensed = parse_condensed("[AB]^2")
        assert condensed_admits_counts(condensed, {})

    def test_zero_counts_ignored(self):
        condensed = parse_condensed("[AB]^2")
        assert condensed_admits_counts(condensed, {"A": 0, "C": 0})

    def test_matching_requires_flow_not_greedy(self):
        # C fits only the second group; a greedy fill of group 2 by B fails.
        condensed = parse_condensed("[AB] [BC]")
        assert condensed_admits_counts(condensed, {"B": 1, "C": 1})
        assert not condensed_admits_counts(condensed, {"C": 2})

    @pytest.mark.parametrize("delta", [3, 4, 5, 6])
    def test_agrees_with_expansion_on_lemma6_lines(self, delta):
        """Lemma 6's lines over Lemma 8's grid, under both of the case
        analysis's count requirements and seeded random ones."""
        rng = random.Random(delta)
        for _, a, x in lemma8_grid(delta):
            requirements = [
                {"M": 1, "P": x + 1, "U": delta - a},
                {"A": x + 1, "U": delta - a + 1, "B": a - x - 2},
            ]
            requirements += [
                {label: rng.randint(0, 2) for label in rng.sample("XMOUABPQ", 3)}
                for _ in range(12)
            ]
            for text in lemma6_node_lines(delta, a, x):
                assert_admits_like_expansion(parse_condensed(text), requirements)

    def test_agrees_with_expansion_on_random_lines(self):
        """Seeded random lines over labels A-E: at most four groups,
        exponents at most four."""
        rng = random.Random(20261020)
        for _ in range(150):
            line = " ".join(
                "[" + "".join(rng.sample("ABCDE", rng.randint(1, 3))) + f"]^{rng.randint(1, 4)}"
                for _ in range(rng.randint(1, 4))
            )
            requirements = [
                {label: rng.randint(0, 3) for label in rng.sample("ABCDE", rng.randint(1, 3))}
                for _ in range(8)
            ]
            assert_admits_like_expansion(parse_condensed(line), requirements)


class TestNonVacuity:
    """A seeded mutation of the shared inputs makes each check fail."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_dropped_pi_rel_configuration_is_not_relaxable(self, engine):
        delta, a, x = 4, 3, 1
        shared = SharedPoint(delta, a, x, use_kernel=ENGINES[engine])
        rel = shared.pi_rel
        (dropped,) = [
            configuration
            for configuration in rel.node_constraint
            if frozenset("MUBQ") in configuration
        ]
        shared.pi_rel = Problem(
            rel.alphabet,
            Constraint(rel.node_constraint.configurations - {dropped}),
            rel.edge_constraint,
            name=rel.name,
        )
        with pytest.raises(AssertionError, match="not relaxable into Pi_rel"):
            verify_lemma8_direct(
                delta, a, x, use_kernel=ENGINES[engine], shared=shared
            )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_stray_normal_form_line_breaks_the_case_analysis(self, engine):
        """A line admitting M, x+1 P and Delta-a U refutes the proof's
        contradiction."""
        delta, a, x = 4, 3, 1
        shared = SharedPoint(delta, a, x, use_kernel=ENGINES[engine])
        shared.node_lines = [*lemma6_node_lines(delta, a, x), "M P^2 U"]
        report = verify_lemma8_argument(
            delta, a, x, use_kernel=ENGINES[engine], shared=shared
        )
        assert not report.ok
        assert not report.no_m_p_u_configuration
