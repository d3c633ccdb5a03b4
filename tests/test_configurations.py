"""Unit tests for configurations, disjunctions, and the condensed parser."""

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.core.configurations import (
    CondensedConfiguration,
    Configuration,
    Disjunction,
    parse_condensed,
)

LABELS = st.sampled_from(["M", "P", "O", "A", "X"])


class TestConfiguration:
    def test_order_does_not_matter(self):
        assert Configuration("MPO") == Configuration("OPM")

    def test_hash_consistent_with_equality(self):
        assert hash(Configuration("MPO")) == hash(Configuration("POM"))

    def test_multiplicity_matters(self):
        assert Configuration("MMO") != Configuration("MOO")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Configuration([])

    def test_arity(self):
        assert Configuration("MMXX").arity == 4

    def test_counts(self):
        assert Configuration("MMX").counts() == {"M": 2, "X": 1}

    def test_support(self):
        assert Configuration("MMX").support() == {"M", "X"}

    def test_replace_one(self):
        assert Configuration("MMX").replace_one("M", "X") == Configuration("MXX")

    def test_replace_one_missing_label_raises(self):
        with pytest.raises(ValueError):
            Configuration("MX").replace_one("P", "X")

    def test_replace_all(self):
        renamed = Configuration("MPX").replace_all({"M": "A", "P": "B"})
        assert renamed == Configuration("ABX")

    def test_with_counts(self):
        adjusted = Configuration("AAXX").with_counts({"A": -1, "X": 1})
        assert adjusted == Configuration("AXXX")

    def test_with_counts_negative_raises(self):
        with pytest.raises(ValueError):
            Configuration("AX").with_counts({"A": -2})

    def test_render_uses_exponents(self):
        assert Configuration("MMMX").render() == "M^3 X"

    def test_frozenset_labels_supported(self):
        config = Configuration([frozenset("MX"), frozenset("O")])
        assert frozenset("MX") in config

    @given(st.lists(LABELS, min_size=1, max_size=6))
    def test_canonical_under_permutation(self, labels):
        assert Configuration(labels) == Configuration(list(reversed(labels)))

    @given(st.lists(LABELS, min_size=1, max_size=6))
    def test_roundtrip_via_counts(self, labels):
        config = Configuration(labels)
        assert Configuration(config.counts().elements()) == config


class TestDisjunction:
    def test_membership(self):
        assert "P" in Disjunction("PO")
        assert "M" not in Disjunction("PO")

    def test_render_single(self):
        assert Disjunction("M").render() == "M"

    def test_render_multi_sorted(self):
        assert Disjunction("OP").render() == "[OP]"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Disjunction([])


class TestCondensedConfiguration:
    def test_expand_mis_edge(self):
        condensed = CondensedConfiguration.from_groups((("M",), 1), (("P", "O"), 1))
        assert condensed.expand() == {Configuration("MP"), Configuration("MO")}

    def test_expand_deduplicates(self):
        condensed = CondensedConfiguration.from_groups((("P", "O"), 2))
        assert condensed.expand() == {
            Configuration("PP"),
            Configuration("PO"),
            Configuration("OO"),
        }

    def test_arity(self):
        condensed = CondensedConfiguration.from_groups((("M",), 3), (("P", "O"), 2))
        assert condensed.arity == 5

    @pytest.mark.parametrize(
        "text", ["[MX]^2 [PO]", "[MP] M", "[AB]^2 [BC] C^2", "[ABC]^3 [AX]", "A^2 [AB] [BC]^2"]
    )
    def test_contains_matches_expand(self, text):
        """Every multiset of the line's arity over its labels and one
        foreign label is contained exactly when expand() lists it."""
        condensed = parse_condensed(text)
        expanded = condensed.expand()
        labels = sorted(set().union(*(group.labels for group, _ in condensed.parts)) | {"Z"})
        for items in itertools.combinations_with_replacement(labels, condensed.arity):
            config = Configuration(items)
            assert condensed.contains(config) == (config in expanded), config
        assert not condensed.contains(Configuration("P" * (condensed.arity + 1)))

    def test_contains_needs_matching_not_greedy(self):
        # Slots [MP] and [M]: the configuration "M P" fits only if M
        # takes the [M] slot; a greedy left-to-right assignment fails.
        condensed = CondensedConfiguration.from_groups((("M", "P"), 1), (("M",), 1))
        assert condensed.contains(Configuration("MP"))

    def test_zero_exponent_dropped(self):
        condensed = CondensedConfiguration.from_groups((("M",), 2), (("X",), 0))
        assert condensed.arity == 2

    def test_render(self):
        condensed = CondensedConfiguration.from_groups((("M",), 2), (("P", "O"), 1))
        assert condensed.render() == "M^2 [OP]"


class TestParser:
    def test_simple(self):
        assert parse_condensed("M^3").expand() == {Configuration("MMM")}

    def test_disjunction(self):
        assert parse_condensed("M [PO]").expand() == {
            Configuration("MP"),
            Configuration("MO"),
        }

    def test_whitespace_optional(self):
        assert parse_condensed("M[PO]") == parse_condensed("M [PO]")

    def test_exponent_on_disjunction(self):
        parsed = parse_condensed("[PO]^2")
        assert parsed == CondensedConfiguration.from_groups((("P", "O"), 2))

    def test_multichar_labels(self):
        parsed = parse_condensed("(MX)^2 (AOX)")
        assert parsed.expand() == {Configuration(["MX", "MX", "AOX"])}

    def test_multichar_in_disjunction(self):
        parsed = parse_condensed("[(MX)O]")
        assert parsed.expand() == {Configuration(["MX"]), Configuration(["O"])}

    def test_paper_lemma6_style(self):
        parsed = parse_condensed("[PQ] [OUABPQ]^3")
        assert parsed.arity == 4
        assert Configuration("QOOO") in parsed.expand()

    @pytest.mark.parametrize(
        "bad",
        ["", "  ", "M^", "[", "[]", "(", "()", "M]", "^2", "[PO", "(AB"],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_condensed(bad)

    def test_roundtrip_render_parse(self):
        original = parse_condensed("M^2 [OP] X")
        assert parse_condensed(original.render()) == original
