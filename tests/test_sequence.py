"""Tests for the Lemma 13 chain and its arithmetic."""

import pytest

from repro.lowerbound.sequence import (
    lemma13_chain,
    max_k_for_logdelta_bound,
    sequence_length,
    verify_chain_arithmetic,
)


class TestChainConstruction:
    def test_starts_at_pi_delta_delta_x(self):
        chain = lemma13_chain(64, 0)
        assert chain[0].a == 64 and chain[0].x == 0

    def test_parameters_follow_the_recurrence(self):
        chain = lemma13_chain(2**9, 0)
        for step in chain:
            assert step.a == 2**9 // (2 ** (3 * step.index))
            assert step.x == step.index

    def test_arithmetic_verified(self):
        for delta in (2**6, 2**9, 2**12, 1000):
            assert verify_chain_arithmetic(lemma13_chain(delta, 0))

    def test_arithmetic_verified_with_k(self):
        assert verify_chain_arithmetic(lemma13_chain(2**12, 3))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            lemma13_chain(0, 0)
        with pytest.raises(ValueError):
            lemma13_chain(8, -1)


class TestChainLength:
    def test_grows_logarithmically(self):
        """The chain length is Theta(log Delta): within constant factors
        of (log2 Delta) / 3 — the Omega(log Delta) of the paper."""
        for exponent in (6, 9, 12, 15, 18):
            delta = 2**exponent
            length = sequence_length(delta, 0)
            assert length >= exponent / 3 - 2
            assert length <= exponent

    def test_monotone_in_delta(self):
        lengths = [sequence_length(2**e, 0) for e in range(3, 16)]
        assert all(b >= a for a, b in zip(lengths, lengths[1:]))

    def test_decreasing_in_k(self):
        delta = 2**12
        lengths = [sequence_length(delta, k) for k in (0, 1, 4, 16, 64, 256)]
        assert all(b <= a for a, b in zip(lengths, lengths[1:]))

    def test_large_k_kills_the_bound(self):
        """For k near Delta the chain collapses — matching the
        k <= Delta^epsilon hypothesis of Theorem 1."""
        delta = 2**10
        assert sequence_length(delta, 0) >= 2
        assert sequence_length(delta, delta // 2) == 0
        # Already k = Delta^0.8 leaves at most one step of a 4-step chain.
        assert sequence_length(2**15, 0) >= 4
        assert sequence_length(2**15, 2**12) <= 1

    def test_small_delta(self):
        assert sequence_length(1, 0) == 0
        assert sequence_length(4, 0) >= 0

    def test_threshold_k(self):
        delta = 2**12
        threshold = max_k_for_logdelta_bound(delta)
        assert 1 <= threshold < delta
        # The threshold indeed behaves like a power of Delta: it is far
        # above constant and far below linear.
        assert threshold >= delta ** 0.2
        assert threshold <= delta ** 0.9


class TestZeroRoundEndpoint:
    def test_every_chain_member_is_hard(self):
        from repro.core.solvability import zero_round_solvable_symmetric

        for step in lemma13_chain(2**7, 1):
            assert not zero_round_solvable_symmetric(step.problem)
