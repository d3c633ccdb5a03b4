"""Bitmask primitives for the fast-path kernel.

A label set over an interned alphabet of ``n`` labels is a Python int
with bit ``i`` set iff label ``i`` is a member.  Python ints are
arbitrary-precision, so nothing here caps the alphabet size; all
operations reduce to single int instructions (``&``, ``|``, ``~`` with
an explicit universe mask, ``bit_count``), which is what makes the
kernel representation fast compared to ``frozenset`` algebra.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator


def bit(index: int) -> int:
    """The mask with only ``index`` set."""
    return 1 << index


def mask_from_ids(ids: Iterable[int]) -> int:
    """OR together the bits named by ``ids``."""
    mask = 0
    for index in ids:
        mask |= 1 << index
    return mask


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit indices of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bits_list(mask: int) -> list[int]:
    """The set bit indices of ``mask`` as an eager ascending list.

    The loop twin of :func:`iter_bits` without generator overhead —
    the DFS hot path calls this where it needs the indices more than
    once (generators would have to be re-created per pass).
    """
    bits: list[int] = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


def popcount(mask: int) -> int:
    """Number of set bits (the cardinality of the label set)."""
    return mask.bit_count()


def is_subset(small: int, big: int) -> bool:
    """Whether every bit of ``small`` is set in ``big``."""
    return small & ~big == 0


def is_strict_subset(small: int, big: int) -> bool:
    """Subset and not equal."""
    return small != big and small & ~big == 0


def universe(n: int) -> int:
    """The full mask over ``n`` labels."""
    return (1 << n) - 1


__all__ = [
    "bit",
    "mask_from_ids",
    "iter_bits",
    "bits_list",
    "popcount",
    "is_subset",
    "is_strict_subset",
    "universe",
]
