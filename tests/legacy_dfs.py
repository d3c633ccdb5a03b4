"""Frozen pre-optimization DFS reference (recursive, frozenset frontiers).

This module preserves, verbatim in shape, the recursive closure-based
search the kernel shipped before the iterative machine rewrite: packed
frontiers live in ``frozenset[int]``, growth re-tests every extension
against the closure set, and recursion depth equals configuration
arity.  It also keeps the enumerate-then-prune maximality filter
(:func:`prune_non_maximal_masks`) the kernel ran on the full node
search before it learned to close the last coordinate.  It exists only
so the parity tests can pin the optimized drivers to the old
semantics:

* the existential search: identical outputs in identical order, and
  identical candidate-level grow counts (every
  ``grow_frontier_exists`` invocation here must correspond 1:1 to a
  ``grow_calls`` tick in the machine driver's stats);
* the node maximization: the recursion's full enumeration, pruned
  here, must equal the kernel's maximal list element for element.

Do not "improve" this code; its value is that it does not change.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.kernel.bitops import is_strict_subset


def grow_frontier(
    frontier: frozenset[int],
    member_steps: tuple[int, ...],
    closure: frozenset[int],
    counter: list[int],
) -> frozenset[int] | None:
    """All-or-nothing growth; ``None`` on the first invalid extension."""
    counter[0] += 1
    grown: set[int] = set()
    add = grown.add
    for partial in frontier:
        for step in member_steps:
            extended = partial + step
            if extended not in closure:
                return None
            add(extended)
    return frozenset(grown)


def grow_frontier_exists(
    frontier: frozenset[int],
    member_steps: tuple[int, ...],
    closure: frozenset[int],
    counter: list[int],
) -> frozenset[int]:
    """Keep-survivors growth; an empty result prunes the branch."""
    counter[0] += 1
    grown: set[int] = set()
    add = grown.add
    for partial in frontier:
        for step in member_steps:
            extended = partial + step
            if extended in closure:
                add(extended)
    return frozenset(grown)


def legacy_maximization_chunk(
    candidates: tuple[int, ...],
    member_steps: tuple[tuple[int, ...], ...],
    closure: frozenset[int],
    arity: int,
    first_index: int,
    counter: list[int],
) -> list[tuple[int, ...]]:
    """The pre-rewrite ``search_maximization_chunk``, with grow counting."""
    results: list[tuple[int, ...]] = []
    initial = grow_frontier(
        frozenset([0]), member_steps[first_index], closure, counter
    )
    if initial is None:
        return results

    def extend(
        start: int, chosen: list[int], frontier: frozenset[int]
    ) -> None:
        if len(chosen) == arity:
            results.append(tuple(chosen))
            return
        for index in range(start, len(candidates)):
            grown = grow_frontier(
                frontier, member_steps[index], closure, counter
            )
            if grown is None:
                continue
            chosen.append(candidates[index])
            extend(index, chosen, grown)
            chosen.pop()

    if arity == 1:
        results.append((candidates[first_index],))
    else:
        extend(first_index, [candidates[first_index]], initial)
    return results


def legacy_existential_chunk(
    member_steps: tuple[tuple[int, ...], ...],
    closure: frozenset[int],
    arity: int,
    first_index: int,
    counter: list[int],
) -> list[tuple[int, ...]]:
    """The pre-rewrite existential DFS of one first-label subtree, with grow counting."""
    results: list[tuple[int, ...]] = []
    initial = grow_frontier_exists(
        frozenset([0]), member_steps[first_index], closure, counter
    )
    if not initial:
        return results
    if arity == 1:
        return [(first_index,)]

    def extend(
        start: int, chosen: list[int], frontier: frozenset[int]
    ) -> None:
        if len(chosen) == arity:
            results.append(tuple(chosen))
            return
        for index in range(start, len(member_steps)):
            grown = grow_frontier_exists(
                frontier, member_steps[index], closure, counter
            )
            if not grown:
                continue
            chosen.append(index)
            extend(index, chosen, grown)
            chosen.pop()

    extend(first_index, [first_index], initial)
    return results


def prune_non_maximal_masks(
    configurations: list[tuple[int, ...]], candidate_sets: Iterable[int]
) -> list[tuple[int, ...]]:
    """The kernel's former maximality filter over a full enumeration:
    drop every configuration with a single-coordinate enlargement in
    ``configurations`` (mask twin of the reference ``_prune_non_maximal``)."""
    candidates = list(candidate_sets)
    passing = dict.fromkeys(tuple(sorted(sets)) for sets in configurations)
    supersets: dict[int, list[int]] = {
        mask: [other for other in candidates if is_strict_subset(mask, other)]
        for mask in candidates
    }
    keep: list[tuple[int, ...]] = []
    for sets in configurations:
        dominated = False
        unique_positions = {mask: index for index, mask in enumerate(sets)}
        for mask, index in unique_positions.items():
            for bigger in supersets[mask]:
                enlarged = list(sets)
                enlarged[index] = bigger
                if tuple(sorted(enlarged)) in passing:
                    dominated = True
                    break
            if dominated:
                break
        if not dominated:
            keep.append(sets)
    return keep
