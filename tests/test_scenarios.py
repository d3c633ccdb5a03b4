"""The scenario library: spec format, registry, builders, operator laws.

Three layers of coverage:

* the spec format — canonical round-trip (``parse -> render`` is
  byte-identical for canonical files, identity for random specs via
  hypothesis) and every documented rejection;
* the registry and family builders — unique names, on-disk files in
  canonical form, label-set closure of built problems, the
  ruling-set/MIS coincidence at depth 1;
* the self-reduction operator laws — condensation idempotence and
  monotonicity, and Observation-4 right-closedness of the speedup
  stage inside :func:`repro.core.self_reduction.self_reduce`, on both
  scenario base problems and seeded random systems.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.diagram import edge_diagram, node_diagram
from repro.core.self_reduction import condense_problem, self_reduce
from repro.problems import mis_problem, ruling_set_problem
from repro.robustness.errors import InvalidScenario
from repro.scenarios import (
    SCENARIOS,
    ScenarioSpec,
    build_problem,
    find_scenario,
    load_registry,
    load_spec,
    parse_spec,
    render_spec,
    spec_path,
)

from tests.oracle import random_corpus, scenario_corpus

REGISTRY = load_registry()
REGISTRY_IDS = [spec.name for _, spec in REGISTRY]

# Problems the operator-law tests run over: every scenario-corpus base
# problem plus seeded random constraint systems.
LAW_CORPUS = scenario_corpus() + random_corpus(seed=20260808, count=6)
LAW_IDS = [name for name, _ in LAW_CORPUS]


# ---------------------------------------------------------------------------
# Spec format
# ---------------------------------------------------------------------------

class TestSpecRoundTrip:
    @pytest.mark.parametrize("decl, spec", REGISTRY, ids=REGISTRY_IDS)
    def test_registry_files_are_canonical(self, decl, spec):
        """parse -> render reproduces every committed file byte for byte."""
        assert render_spec(spec) == spec_path(decl).read_text(encoding="utf-8")

    @given(
        name=st.from_regex(r"[a-z][a-z0-9-]{0,19}", fullmatch=True),
        family=st.sampled_from(["mis", "ruling_set", "maximal_matching", "family"]),
        params=st.dictionaries(
            st.sampled_from(["delta", "depth", "x", "a", "colors"]),
            st.integers(min_value=0, max_value=99),
            min_size=1,
            max_size=4,
        ),
        operator=st.sampled_from(["speedup", "self-reduce", "lemma13"]),
        steps=st.integers(min_value=0, max_value=9),
        expect=st.sampled_from(["bounded", "fixed-point"]),
        certified=st.integers(min_value=0, max_value=9),
        policy=st.sampled_from(["pn", "symmetric"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_spec_round_trips(
        self, name, family, params, operator, steps, expect, certified, policy
    ):
        if operator == "lemma13" and expect == "fixed-point":
            expect = "bounded"
        spec = ScenarioSpec(
            name=name,
            family=family,
            params=params,
            operator=operator,
            steps=steps,
            expect=expect,
            certified=certified,
            policy=policy,
        )
        rendered = render_spec(spec)
        assert parse_spec(rendered) == spec
        assert render_spec(parse_spec(rendered)) == rendered

    def test_comments_and_blank_lines_are_tolerated_not_emitted(self):
        decl, spec = REGISTRY[0]
        canonical = render_spec(spec)
        noisy = "# a comment\n\n" + canonical.replace(
            "params:\n", "params:\n# a nested comment\n\n"
        )
        assert parse_spec(noisy) == spec
        assert render_spec(parse_spec(noisy)) == canonical


INVALID_DOCS = [
    ("no_colon", "name mis\n"),
    ("duplicate_top", "name: a\nname: b\n"),
    ("duplicate_nested", "params:\n  delta: 3\n  delta: 4\n"),
    ("indent_outside_section", "  delta: 3\n"),
    ("missing_family", "name: a\nparams:\n  delta: 3\nchain:\n  operator: speedup\n  steps: 1\n  expect: bounded\n  certified: 0\npolicy: pn\n"),
    ("unknown_top_key", "name: a\nfamily: mis\nextra: 1\nparams:\n  delta: 3\nchain:\n  operator: speedup\n  steps: 1\n  expect: bounded\n  certified: 0\npolicy: pn\n"),
    ("unknown_chain_key", "name: a\nfamily: mis\nparams:\n  delta: 3\nchain:\n  operator: speedup\n  steps: 1\n  expect: bounded\n  certified: 0\n  bogus: 1\npolicy: pn\n"),
    ("unknown_operator", "name: a\nfamily: mis\nparams:\n  delta: 3\nchain:\n  operator: warp\n  steps: 1\n  expect: bounded\n  certified: 0\npolicy: pn\n"),
    ("unknown_expect", "name: a\nfamily: mis\nparams:\n  delta: 3\nchain:\n  operator: speedup\n  steps: 1\n  expect: spiral\n  certified: 0\npolicy: pn\n"),
    ("unknown_policy", "name: a\nfamily: mis\nparams:\n  delta: 3\nchain:\n  operator: speedup\n  steps: 1\n  expect: bounded\n  certified: 0\npolicy: loose\n"),
    ("bool_param", "name: a\nfamily: mis\nparams:\n  delta: true\nchain:\n  operator: speedup\n  steps: 1\n  expect: bounded\n  certified: 0\npolicy: pn\n"),
    ("string_steps", "name: a\nfamily: mis\nparams:\n  delta: 3\nchain:\n  operator: speedup\n  steps: many\n  expect: bounded\n  certified: 0\npolicy: pn\n"),
    ("negative_steps", "name: a\nfamily: mis\nparams:\n  delta: 3\nchain:\n  operator: speedup\n  steps: -1\n  expect: bounded\n  certified: 0\npolicy: pn\n"),
    ("lemma13_fixed_point", "name: a\nfamily: family\nparams:\n  delta: 16\nchain:\n  operator: lemma13\n  steps: 1\n  expect: fixed-point\n  certified: 1\npolicy: symmetric\n"),
    ("empty_scalar", "name:  \nfamily: mis\nparams:\n  delta:\nchain:\n  operator: speedup\n  steps: 1\n  expect: bounded\n  certified: 0\npolicy: pn\n"),
]


class TestSpecRejections:
    @pytest.mark.parametrize(
        "label, text", INVALID_DOCS, ids=[label for label, _ in INVALID_DOCS]
    )
    def test_invalid_documents_raise(self, label, text):
        with pytest.raises(InvalidScenario):
            parse_spec(text, source=label)

    def test_error_carries_source_context(self):
        with pytest.raises(InvalidScenario) as caught:
            parse_spec("name mis\n", source="bad.scn")
        assert caught.value.context.get("source") == "bad.scn"


# ---------------------------------------------------------------------------
# Registry and builders
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_names_and_corpus_entries_are_unique(self):
        names = [spec.name for _, spec in REGISTRY]
        assert len(names) == len(set(names))
        goldens = [decl.golden for decl in SCENARIOS]
        assert len(goldens) == len(set(goldens))

    def test_find_scenario(self):
        decl, spec = find_scenario(REGISTRY_IDS[0])
        assert spec.name == REGISTRY_IDS[0]
        assert load_spec(decl) == spec
        with pytest.raises(InvalidScenario):
            find_scenario("not-a-scenario")


class TestBuilders:
    @pytest.mark.parametrize("decl, spec", REGISTRY, ids=REGISTRY_IDS)
    def test_label_set_closure_and_diagrams(self, decl, spec):
        """Constraints only mention alphabet labels; diagrams build."""
        problem = build_problem(spec)
        alphabet = set(problem.alphabet)
        assert problem.node_constraint.labels_used() <= alphabet
        assert problem.edge_constraint.labels_used() <= alphabet
        node_diagram(problem).render()
        edge_diagram(problem).render()

    def test_ruling_set_depth_one_is_mis(self):
        """Depth-1 ruling sets are exactly MIS (same constraints)."""
        ruling = ruling_set_problem(3, depth=1)
        mis = mis_problem(3)
        assert set(ruling.alphabet) == set(mis.alphabet)
        assert ruling.node_constraint == mis.node_constraint
        assert ruling.edge_constraint == mis.edge_constraint

    def test_unknown_family_rejected(self):
        spec = ScenarioSpec(
            name="x", family="nope", params={}, operator="speedup",
            steps=0, expect="bounded", certified=0, policy="pn",
        )
        with pytest.raises(InvalidScenario):
            build_problem(spec)

    def test_bad_params_rejected(self):
        for params in ({"delta": 1}, {"wheels": 4}):
            spec = ScenarioSpec(
                name="x", family="maximal_matching", params=params,
                operator="speedup", steps=0, expect="bounded",
                certified=0, policy="pn",
            )
            with pytest.raises(InvalidScenario):
                build_problem(spec)


# ---------------------------------------------------------------------------
# Self-reduction operator laws
# ---------------------------------------------------------------------------

class TestSelfReductionLaws:
    @pytest.mark.parametrize("name, problem", LAW_CORPUS, ids=LAW_IDS)
    def test_condensation_is_idempotent(self, name, problem):
        once = condense_problem(problem)
        twice = condense_problem(once)
        assert once == twice, f"{name}: condense is not idempotent"

    @pytest.mark.parametrize("name, problem", LAW_CORPUS, ids=LAW_IDS)
    def test_condensation_is_monotone(self, name, problem):
        """Condensing never grows the alphabet and never invents labels."""
        condensed = condense_problem(problem)
        assert len(condensed.alphabet) <= len(problem.alphabet)
        assert set(condensed.alphabet) <= set(problem.alphabet)

    @pytest.mark.parametrize("name, problem", LAW_CORPUS, ids=LAW_IDS)
    def test_speedup_stage_is_right_closed(self, name, problem):
        """Observation 4 on the Rbar stage inside a self-reduction step.

        Every label the node maximization produces is a right-closed
        set with respect to the diagram of the constraint that was
        maximized (the renamed intermediate's edge constraint).
        """
        sped = self_reduce(problem).speedup
        diagram = edge_diagram(sped.intermediate_renamed.problem)
        for label in sped.final.alphabet:
            assert isinstance(label, frozenset), (
                f"{name}: Rbar label {label!r} is not a set"
            )
            assert diagram.is_right_closed(label), (
                f"{name}: Rbar label {sorted(label)!r} is not right-closed"
            )


def test_formats_share_the_chain_tables():
    from repro.core.self_reduction import CHAIN_STEPS
    from repro.core.solvability import POLICIES, ZERO_ROUND_TESTS
    from repro.scenarios import spec
    from repro.service import wire

    assert POLICIES == tuple(ZERO_ROUND_TESTS) == ("pn", "symmetric")
    assert spec.POLICIES is POLICIES and wire.POLICIES is POLICIES
    assert wire.INLINE_OPERATORS == tuple(CHAIN_STEPS) == ("speedup", "self-reduce")
    assert spec.OPERATORS == (*CHAIN_STEPS, "lemma13")
