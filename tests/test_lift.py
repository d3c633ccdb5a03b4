"""Tests for Theorem 14 premises and the Theorem 1 / Corollary 2 bounds."""

import pytest

from repro.lowerbound.lift import (
    corollary2_delta_choice,
    corollary2_deterministic_bound,
    corollary2_randomized_bound,
    lower_bound_summary,
    theorem1_deterministic_bound,
    theorem1_randomized_bound,
    verify_theorem14_premises,
)
from repro.lowerbound.sequence import lemma13_chain, sequence_length


class TestTheorem14Premises:
    @pytest.mark.parametrize("delta", [2**6, 2**9, 2**12, 2**15, 2**18])
    def test_premises_hold_for_the_chain(self, delta):
        premises = verify_theorem14_premises(lemma13_chain(delta, 0))
        assert premises.ok
        assert premises.chain_length == sequence_length(delta, 0)

    def test_labels_always_five(self):
        chain = lemma13_chain(2**9, 2)
        for step in chain:
            assert len(step.problem.alphabet) == 5


class TestTheorem1:
    def test_large_n_gives_chain_length(self):
        """When n is huge the min is the log Delta branch."""
        delta = 2**12
        bound = theorem1_deterministic_bound(10**100, delta, 0)
        assert bound == sequence_length(delta, 0)
        # The min never exceeds the chain length, whatever n is.
        for delta in (2**6, 2**9, 2**12, 2**15, 2**18):
            for n in (2**24, 2**64, 2**256):
                bound = theorem1_deterministic_bound(n, delta, 0)
                assert bound <= sequence_length(delta, 0)

    def test_small_n_caps_the_bound(self):
        delta = 2**12
        bound = theorem1_deterministic_bound(2**24, delta, 0)
        assert bound == pytest.approx(24 / 12)

    def test_randomized_weaker_than_deterministic(self):
        for n in (2**20, 2**40):
            for delta in (2**6, 2**10):
                assert theorem1_randomized_bound(n, delta) <= (
                    theorem1_deterministic_bound(n, delta)
                )

    def test_k_weakens_the_bound(self):
        delta = 2**12
        n = 10**30
        assert theorem1_deterministic_bound(n, delta, 256) <= (
            theorem1_deterministic_bound(n, delta, 0)
        )
        bounds = [
            theorem1_deterministic_bound(10**100, 2**15, k)
            for k in (0, 1, 8, 64, 512, 4096)
        ]
        assert all(b <= a for a, b in zip(bounds, bounds[1:]))

    def test_summary_fields(self):
        summary = lower_bound_summary(2**30, 2**9, 1)
        assert summary["premises_ok"]
        assert summary["chain_length"] >= 1
        assert summary["deterministic_rounds"] >= summary["randomized_rounds"]


class TestCorollary2:
    def test_delta_choice_balances(self):
        n = 2**36
        delta = corollary2_delta_choice(n)
        assert delta == 2**6

    def test_deterministic_bound_grows_with_n(self):
        values = [corollary2_deterministic_bound(2**e) for e in (16, 36, 64, 100)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_bound_tracks_sqrt_log_n(self):
        """Within constant factors of sqrt(log n) for large n."""
        import math

        for exponent in (36, 64, 100, 144, 400, 1024):
            n = 2**exponent
            bound = corollary2_deterministic_bound(n)
            # The constructive chain pays a factor ~3 (a drops by 2^3
            # per step) plus an additive constant over the ideal
            # sqrt(log n) — still Theta(sqrt(log n)).
            assert bound >= math.sqrt(exponent) / 6 - 1
            assert bound <= 2 * math.sqrt(exponent)

    def test_randomized_uses_loglog(self):
        n = 2**(2**10)
        assert corollary2_delta_choice(n, randomized=True) < (
            corollary2_delta_choice(n, randomized=False)
        )

    def test_randomized_bound_positive_for_huge_n(self):
        assert corollary2_randomized_bound(2**(2**16)) >= 1
