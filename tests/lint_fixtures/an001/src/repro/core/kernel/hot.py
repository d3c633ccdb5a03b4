"""AN001 fixture: ``# hotpath`` functions, their closures, and waivers.

``dfs`` allocates nothing itself; its call edge into ``_expand`` does.
"""

from __future__ import annotations

import functools


# hotpath
def dfs(frontier: int, rows: tuple[int, ...]) -> int:
    total = 0
    while frontier:
        low = frontier & -frontier
        total |= _expand(low, rows)
        total ^= _boot_table(low)
        frontier ^= low
    return total


def _expand(mask: int, rows: tuple[int, ...]) -> int:
    grown = set()
    for row in rows:
        if row & mask:
            grown.add(row)
    result = 0
    for row in sorted(grown):
        result |= row
    return result


def _boot_table(mask: int) -> int:
    table = {mask}  # reprolint: disable=AN001 -- one-off table build, amortized across the run
    return len(table)


# hotpath
def grow(frontier: int, masks: tuple[int, ...]) -> int:
    survivors = set()
    for mask in masks:
        if frontier & mask:
            survivors.add(mask)
    grown = 0
    for mask in sorted(survivors):
        grown |= mask
    return grown


# The marker also reaches through decorators: the line above the first
# decorator marks the function, even though ``def`` sits lower.
# hotpath
@functools.lru_cache(maxsize=None)
def _grow_cached(frontier: int) -> frozenset[int]:
    return frozenset((frontier,))


# hotpath
def _grow_waived(frontier: int, masks: tuple[int, ...]) -> int:
    survivors = {mask for mask in masks if frontier & mask}  # reprolint: disable=AN001 -- fixture exercising suppression
    return len(survivors)


def _materialize(masks: tuple[int, ...]) -> frozenset[int]:
    # Unmarked and called from no hot function: free to build sets.
    return frozenset(masks)


_WIDTHS = {0: 0}  # hotpath table: a trailing comment marks nothing below
def _widths_view(masks: tuple[int, ...]) -> frozenset[int]:
    return frozenset(masks)
