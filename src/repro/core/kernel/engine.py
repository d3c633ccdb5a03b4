"""The fast-path round-elimination kernel.

Semantically this module is a re-implementation of
:mod:`repro.core.round_elimination` (and the hot predicates of
:mod:`repro.core.solvability` / :mod:`repro.core.relaxation`) over an
interned representation: labels become dense integer ids, label sets
become int bitmasks, and configurations become sorted id tuples.  All
the ``frozenset`` algebra and ``render_label``-keyed sorting of the
reference engine — its profiled hot spots — turn into single int
instructions and native int-tuple sorts.

The contract is strict: every public function here returns *exactly*
the objects the reference implementation returns (the same
``frozenset`` labels, the same :class:`~repro.core.constraints.Constraint`
contents), so the two engines are interchangeable behind the
``use_kernel`` flags and the differential oracle in ``tests/oracle.py``
can assert equality, not just isomorphism.

A :class:`KernelProblem` memoizes the per-problem artifacts that the
reference engine recomputes from scratch on every call: single-label
Galois images, the closed-set lattice of the edge constraint, the node
strength relation, right-closed sets, and the prefix closure used by
the maximization DFS.  The cache lives on the ``Problem`` instance
(:meth:`KernelProblem.of`), so lemma checkers that hit the same problem
repeatedly pay for the analysis once.

Budgets: the kernel calls the same ambient-budget checkpoints
(:mod:`repro.robustness.budget`) with the same phase names as the
reference engine, so ``governed()`` wall clocks, configuration caps and
fault-injection probes keep working on the fast path.  When ``Rbar``'s
maximization DFS fans out, the checkpoints fire between returned shards
(workers themselves run unbudgeted); see
:mod:`repro.core.kernel.parallel`.
"""

from __future__ import annotations

import itertools
from collections.abc import Hashable, Iterable

from repro.core.cache import _set_sort_key
from repro.core.configurations import Configuration
from repro.core.constraints import Constraint
from repro.core.kernel.bitops import (
    bit,
    bits_list,
    is_subset,
    iter_bits,
    mask_from_ids,
    popcount,
)
from repro.core.kernel.interning import LabelInterner
from repro.core.labels import Alphabet, render_label
from repro.core.problem import Problem
from repro.observability import trace as _trace
from repro.observability.profiling import section as _prof_section
from repro.robustness import budget as _budget
from repro.robustness.errors import InvalidProblem
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.core.kernel.parallel import KernelPool


# hotpath
def partner_mask(compat: tuple[int, ...] | list[int], full: int, mask: int) -> int:
    """``f(A) = {b : ab allowed for all a in A}`` from raw compat masks.

    The Galois-image loop behind the memo of :meth:`KernelProblem.partner`.
    """
    if mask == 0:
        return 0
    result = full
    remaining = mask
    while remaining:
        low_bit = remaining & -remaining
        result &= compat[low_bit.bit_length() - 1]
        remaining ^= low_bit
    return result


def closure_machine(
    closure: Iterable[int], shift: int, label_count: int
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Compile a packed prefix closure into a transition table.

    Elements are the packed multisets in sorted order — index 0 is
    always the empty pack ``0`` — and ``trans[label][element]`` is the
    element index of ``element + label`` or ``-1`` when the extension
    leaves the closure.  The DFS inner step thus becomes one tuple
    lookup on small ints instead of a big-int add plus a hash of a
    many-hundred-bit packed key, and frontiers shrink from
    ``frozenset`` objects to plain int bitmasks over element indices.

    A count field already at capacity (``2**shift - 1``) compiles to
    ``-1`` rather than letting the add carry into the next label's
    field: the raw add can alias an unrelated valid pack, so a
    transition is always either exact or ``-1``.  No search ever reads
    such an entry — a full field means the element's count sum is at
    least the capacity, which is at least the search arity, while
    frontiers are only ever grown at depth strictly below the arity —
    so the guard changes no live behavior
    (``tests/test_kernel_properties.py::
    test_closure_machine_guard_changes_no_live_transition`` checks it
    over the generated corpus).
    """
    elements = tuple(sorted(closure))
    index = {element: position for position, element in enumerate(elements)}
    field = (1 << shift) - 1
    trans = tuple(
        tuple(
            -1
            if (element >> (shift * label_id)) & field == field
            else index.get(element + (1 << (shift * label_id)), -1)
            for element in elements
        )
        for label_id in range(label_count)
    )
    return elements, trans


class KernelProblem:
    """The interned view of one :class:`~repro.core.problem.Problem`."""

    __slots__ = (
        "problem",
        "interner",
        "n",
        "delta",
        "compat",
        "node_configs",
        "_partner_cache",
        "_closed_sets",
        "_node_ge",
        "_node_strict_successors",
        "_node_right_closed",
        "_node_prefix_closure",
        "_node_machine",
    )

    def __init__(self, problem: Problem) -> None:
        self.problem = problem
        interner = LabelInterner(problem.alphabet)
        self.interner = interner
        self.n = len(interner)
        self.delta = problem.delta
        self.compat: list[int] = [
            interner.mask_of(problem.compatible_labels(label))
            for label in interner.labels
        ]
        self.node_configs: tuple[tuple[int, ...], ...] = tuple(
            sorted(
                interner.ids_of(configuration.items)
                for configuration in problem.node_constraint.configurations
            )
        )
        self._partner_cache: dict[int, int] = {}
        self._closed_sets: tuple[int, ...] | None = None
        self._node_ge: list[int] | None = None
        self._node_strict_successors: list[int] | None = None
        self._node_right_closed: tuple[int, ...] | None = None
        self._node_prefix_closure: frozenset[int] | None = None
        self._node_machine: (
            tuple[tuple[int, ...], tuple[tuple[int, ...], ...]] | None
        ) = None

    @classmethod
    def of(cls, problem: Problem) -> "KernelProblem":
        """The interned view, memoized on the problem instance.

        Work is reused across *isomorphic* problems only by the
        operator cache (:mod:`repro.core.cache`), which memoizes whole
        operator results; this memo covers repeat calls on one
        instance.
        """
        cached = problem._kernel_cache
        if cached is not None:
            _trace.add("kernel.cache.hit")
            return cached
        _trace.add("kernel.cache.miss")
        with _prof_section("intern.build"):
            cached = cls(problem)
        problem._kernel_cache = cached
        return cached

    # -- Galois connection of the edge constraint ------------------------

    def partner(self, mask: int) -> int:
        """``f(A) = {b : ab allowed for all a in A}`` as a mask AND."""
        cached = self._partner_cache.get(mask)
        if cached is not None:
            _trace.add("galois.cache.hit")
            return cached
        _trace.add("galois.cache.miss")
        result = partner_mask(self.compat, (1 << self.n) - 1, mask)
        self._partner_cache[mask] = result
        return result

    def galois_closed_sets(self) -> tuple[int, ...]:
        """The intersection lattice generated by single-label images.

        These are exactly the closed sets ``A = f(f(A))`` paired by
        :func:`maximize_edge_constraint_kernel`; memoized because every
        ``R`` application and several lemma checkers need them.
        """
        if self._closed_sets is not None:
            return self._closed_sets
        generators = set(self.compat)
        generators.discard(0)
        closed: set[int] = set(generators)
        frontier = list(generators)
        while frontier:
            _budget.check_configurations(len(closed), phase="edge-maximization")
            current = frontier.pop()
            for other in list(closed):
                meet = current & other
                if meet and meet not in closed:
                    closed.add(meet)
                    frontier.append(meet)
        self._closed_sets = tuple(sorted(closed))
        return self._closed_sets

    # -- Node strength relation and right-closed sets --------------------

    def node_ge_masks(self) -> list[int]:
        """``ge[weak]`` = mask of labels at least as strong as ``weak``
        w.r.t. the node constraint (the full replacement-test preorder,
        reflexive and including equivalences — the mask twin of
        :meth:`repro.core.diagram.Diagram.at_least_as_strong`)."""
        if self._node_ge is not None:
            return self._node_ge
        n = self.n
        # Configurations packed into count fields (:func:`pack_ids`):
        # replacing one ``weak`` by ``strong`` is a single int add, and
        # no field over- or underflows (counts stay within 0..delta).
        shift = self.delta.bit_length()
        words = [pack_ids(configuration, shift) for configuration in self.node_configs]
        packed = frozenset(words)
        containing: list[list[int]] = [[] for _ in range(n)]
        for configuration, word in zip(self.node_configs, words):
            for index in sorted(set(configuration)):
                containing[index].append(word)
        ge: list[int] = []
        for weak in range(n):
            weak_field = 1 << (shift * weak)
            mask = 0
            for strong in range(n):
                step = (1 << (shift * strong)) - weak_field
                if step == 0 or all(word + step in packed for word in containing[weak]):
                    mask |= 1 << strong
            ge.append(mask)
        self._node_ge = ge
        return self._node_ge

    def edge_ge_masks(self) -> list[int]:
        """``ge[weak]`` = mask of labels at least as strong as ``weak``
        w.r.t. the edge constraint.

        For arity 2 the replacement test collapses to compatible-set
        containment: ``strong >= weak`` iff every partner of ``weak``
        is a partner of ``strong`` (this also covers replacing one end
        of an allowed ``weak weak`` pair).
        """
        return [
            mask_from_ids(
                strong
                for strong in range(self.n)
                if is_subset(self.compat[weak], self.compat[strong])
            )
            for weak in range(self.n)
        ]

    def node_strict_successors(self) -> list[int]:
        """``successors[i]`` = mask of labels strictly stronger than i
        w.r.t. the node constraint (the diagram of Observation 4)."""
        if self._node_strict_successors is not None:
            return self._node_strict_successors
        ge = self.node_ge_masks()
        successors = [
            mask_from_ids(
                strong
                for strong in iter_bits(ge[weak])
                if strong != weak and not ge[strong] & bit(weak)
            )
            for weak in range(self.n)
        ]
        self._node_strict_successors = successors
        return successors

    def node_right_closed_sets(self) -> tuple[int, ...]:
        """All non-empty right-closed sets w.r.t. the node constraint.

        Every right-closed set is the union of the upward closures of
        its members, so the sets are enumerated incrementally as unions
        of ``up[i] = {i} | successors[i]`` — output-sensitive, unlike
        the reference powerset scan.
        """
        if self._node_right_closed is not None:
            return self._node_right_closed
        successors = self.node_strict_successors()
        up = [bit(index) | successors[index] for index in range(self.n)]
        sets: set[int] = {0}
        for index in range(self.n):
            closure_of_index = up[index]
            sets |= {existing | closure_of_index for existing in sets}
            _budget.check_configurations(
                len(sets), phase="node-maximization", stage="right-closed"
            )
        sets.discard(0)
        self._node_right_closed = tuple(
            sorted(sets, key=lambda mask: (popcount(mask), tuple(iter_bits(mask))))
        )
        return self._node_right_closed

    def node_prefix_closure(self) -> frozenset[int]:
        """All sub-multisets of allowed node configurations, packed.

        A multiset of label ids is *packed* into one int by giving each
        label a ``delta.bit_length()``-wide count field
        (:func:`pack_ids`), so extending a partial configuration by one
        label is a single integer add instead of a tuple sort — the
        profiled hot spot of the maximization DFS.

        Built downward, one size level at a time: every element of the
        next level down is an element of this level with one label
        removed (one subtract per occupied count field), so each
        sub-multiset is produced from its parents rather than from all
        ``2**delta`` sub-combinations of every configuration.
        """
        if self._node_prefix_closure is not None:
            return self._node_prefix_closure
        shift = self.delta.bit_length()
        field = (1 << shift) - 1
        level = [pack_ids(configuration, shift) for configuration in self.node_configs]
        closure: set[int] = set(level)
        checked = 0
        while level:
            below: list[int] = []
            for packed in level:
                # Stride the probe: small closures stay silent, runaway
                # growth is caught within 64 packed prefixes.
                if len(closure) - checked >= 64:
                    checked = len(closure)
                    _budget.check_configurations(
                        len(closure), phase="node-prefix-closure"
                    )
                remaining = packed
                step = 1
                while remaining:
                    if remaining & field:
                        smaller = packed - step
                        if smaller not in closure:
                            closure.add(smaller)
                            below.append(smaller)
                    remaining >>= shift
                    step <<= shift
            level = below
        self._node_prefix_closure = frozenset(closure)
        return self._node_prefix_closure

    def node_dfs_machine(
        self,
    ) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """The prefix closure compiled to a transition table (memoized).

        See :func:`closure_machine` — this is what the allocation-free
        maximization DFS actually walks; the raw packed closure of
        :meth:`node_prefix_closure` stays available for the reference
        twins and the property tests.
        """
        if self._node_machine is not None:
            return self._node_machine
        machine = closure_machine(
            self.node_prefix_closure(), self.delta.bit_length(), self.n
        )
        self._node_machine = machine
        return machine

    # -- Zero-round predicates ------------------------------------------

    def self_compatible_mask(self) -> int:
        """Labels L with LL allowed on an edge, as a mask."""
        return mask_from_ids(
            index for index in range(self.n) if self.compat[index] & bit(index)
        )

    def pn_solvable(self) -> bool:
        """Mask form of the general-PN 0-round test (Lemma 12 setting)."""
        for configuration in self.node_configs:
            support = mask_from_ids(configuration)
            if all(
                is_subset(support, self.compat[index])
                for index in iter_bits(support)
            ):
                return True
        return False

    def symmetric_solvable(self) -> bool:
        """Mask form of the symmetric-port 0-round test (Lemma 12)."""
        self_compatible = self.self_compatible_mask()
        return any(
            is_subset(mask_from_ids(configuration), self_compatible)
            for configuration in self.node_configs
        )


# ---------------------------------------------------------------------------
# Maximization steps
# ---------------------------------------------------------------------------

def maximize_edge_constraint_kernel(problem: Problem) -> Constraint:
    """Kernel twin of :func:`repro.core.round_elimination.maximize_edge_constraint`."""
    kernel = KernelProblem.of(problem)
    interner = kernel.interner
    with _prof_section("edge_max.lattice"):
        closed_sets = kernel.galois_closed_sets()
    _trace.add("edge.closed_sets", len(closed_sets))
    pairs: list[tuple[int, int]] = []
    with _prof_section("edge_max.pairing"):
        for left in closed_sets:
            right = kernel.partner(left)
            if right and kernel.partner(right) == left:
                pairs.append((left, right))
    with _prof_section("edge_max.materialize"):
        configurations: set[Configuration] = {
            Configuration(
                (interner.labels_of_mask(left), interner.labels_of_mask(right))
            )
            for left, right in pairs
        }
    if not configurations:
        raise InvalidProblem(
            "edge constraint admits no maximal configuration",
            operator="R",
            alphabet_size=kernel.n,
            closed_sets=len(kernel.galois_closed_sets()),
        )
    return Constraint(configurations)


def pack_ids(ids: Iterable[int], shift: int) -> int:
    """Pack a multiset of label ids into one int (count fields of
    ``shift`` bits per label).  Bijective for counts below ``2**shift``,
    so packed ints compare equal exactly when the multisets do."""
    packed = 0
    for label_id in ids:
        packed += 1 << (shift * label_id)
    return packed


# hotpath
def _maximization_dfs(
    candidates: tuple[int, ...],
    member_labels: tuple[tuple[int, ...], ...],
    trans: tuple[tuple[int, ...], ...],
    arity: int,
    lo: int,
    hi: int,
    budget_phase: str | None = None,
) -> list[tuple[int, ...]]:
    """The iterative all-or-nothing DFS over the closure machine.

    One explicit-stack loop serves both the serial search
    (``lo=0, hi=len(candidates)``, budgeted) and a parallel chunk
    (``lo=first_index, hi=first_index+1``, unbudgeted): frames are
    ``[cursor, limit, frontier_mask, members, key]`` plus a parallel
    ``chosen`` list of candidate indices, and frontier growth is
    memoized per candidate keyed on the frontier bitmask.

    The search stops at depth ``arity - 1`` and closes the last
    coordinate instead of searching it.  A prefix with frontier ``F``
    admits a last set ``S`` exactly when ``S`` is inside ``best(F)``,
    the labels whose every transition from ``F`` stays in the closure
    (one AND per label).  ``best(F)`` is right-closed — validity
    survives strengthening a label — hence a candidate, and every other
    completion is dominated by it, so the prefix emits the one leaf
    ``(prefix, best(F))`` when ``best(F)`` is non-empty and not before
    the prefix's last set in candidate order.  Every maximal
    configuration is emitted this way, in the order the full search
    listed it.

    A leaf is maximal iff each coordinate equals ``best`` of the
    others.  The complement of a coordinate ``i >= 1`` keeps the first
    set, so it is a depth-``arity - 1`` prefix of this very range: those
    coordinates are checked here against the per-prefix memo (candidate
    index of ``best``, ``-1`` for none, keyed by the prefix's indices
    packed ``width`` bits apiece).  Coordinate 0 is left to
    :func:`close_first_coordinate`, which the caller runs once on the
    serial and fanned-out results alike.  The timing counters
    ``node_max.frames`` (prefixes opened, closed ones included) and
    ``node_max.leaves`` (leaves emitted before any filter) go to the
    open span once per call.
    """
    results: list[tuple[int, ...]] = []
    count = len(candidates)
    element_count = len(trans[0]) if trans else 1
    element_range = range(element_count)
    position = {mask: index for index, mask in enumerate(candidates)}
    width = max(count.bit_length(), 1)
    # Per-label memos: ``label_invalid[lab]`` has a bit for every
    # element ``lab`` cannot extend from (all labels, for ``best``),
    # ``label_image`` the per-element image bit (built on first touch).
    # Per-candidate: ``invalid[c]`` (any frontier bit in it fails the
    # all-or-nothing test in one AND) and ``rows[c]`` (aggregated image
    # row; success is one lookup + OR per frontier element).
    label_invalid: list[int] = []
    for transitions in trans:
        label_mask = 0
        for element in element_range:
            if transitions[element] >= 0:
                label_mask |= 1 << element
        label_invalid.append(~label_mask)
    label_image: dict[int, list[int]] = {}
    invalid: list[int | None] = [None] * count
    rows: list[list[int] | None] = [None] * count
    best_index: dict[int, int] = {}
    leaf_keys: list[int] = []
    frames = 0
    last = arity - 1
    if budget_phase is not None:
        _budget.check_configurations(0, phase=budget_phase, depth=0)
    chosen: list[int] = []
    stack: list[list] = []
    if last == 0:
        closing = _closing_set(1, label_invalid)
        if closing and lo <= position[closing] < hi:
            results.append((closing,))
    else:
        stack.append([lo, hi, 1, None, 0])
    while stack:
        frame = stack[-1]
        cursor = frame[0]
        if cursor == frame[1]:
            stack.pop()
            if chosen:
                chosen.pop()
            continue
        frame[0] = cursor + 1
        frontier = frame[2]
        bad = invalid[cursor]
        if bad is None:
            bad = 0
            for label_id in member_labels[cursor]:
                bad |= label_invalid[label_id]
            invalid[cursor] = bad
        if frontier & bad:
            continue
        row = rows[cursor]
        if row is None:
            labels = member_labels[cursor]
            images: list[list[int]] = []
            for label_id in labels:
                image = label_image.get(label_id)
                if image is None:
                    transitions = trans[label_id]
                    image = [
                        (1 << transitions[element])
                        if transitions[element] >= 0
                        else 0
                        for element in element_range
                    ]
                    label_image[label_id] = image
                images.append(image)
            row = list(images[0])
            for image in images[1:]:
                row = [left | right for left, right in zip(row, image)]
            rows[cursor] = row
        # The frontier is constant for every cursor of this frame, so
        # its bit decomposition is computed once and cached in-frame.
        members = frame[3]
        if members is None:
            members = []
            remaining = frontier
            while remaining:
                low_bit = remaining & -remaining
                members.append(low_bit.bit_length() - 1)
                remaining ^= low_bit
            frame[3] = members
        grown = 0
        for element in members:
            grown |= row[element]
        frames += 1
        depth = len(chosen)
        key = frame[4] | (cursor << (width * depth))
        chosen.append(cursor)
        depth += 1
        if budget_phase is not None:
            _budget.check_configurations(
                len(results), phase=budget_phase, depth=depth
            )
        if depth < last:
            stack.append([cursor, count, grown, None, key])
            continue
        closing = _closing_set(grown, label_invalid)
        index = position[closing] if closing else -1
        best_index[key] = index
        if index >= cursor:
            if budget_phase is not None:
                _budget.check_configurations(
                    len(results), phase=budget_phase, depth=arity
                )
            results.append(
                tuple(candidates[chosen_index] for chosen_index in chosen)
                + (closing,)
            )
            leaf_keys.append(key | (index << (width * depth)))
        chosen.pop()
    _trace.add("node_max.frames", frames)
    _trace.add("node_max.leaves", len(results))
    if last < 2:
        return results
    field = (1 << width) - 1
    kept: list[tuple[int, ...]] = []
    for sets, key in zip(results, leaf_keys):
        for coordinate in range(1, last):
            below = width * coordinate
            complement = (key & ((1 << below) - 1)) | (
                (key >> (below + width)) << below
            )
            if best_index[complement] != (key >> below) & field:
                break
        else:
            kept.append(sets)
    return kept


# hotpath
def _closing_set(frontier: int, label_invalid: list[int]) -> int:
    """``best(F)``: the labels every element of ``frontier`` extends by."""
    closing = 0
    for label_id, bad in enumerate(label_invalid):
        if not frontier & bad:
            closing |= 1 << label_id
    return closing


# hotpath
def search_maximization_chunk(
    candidates: tuple[int, ...],
    member_labels: tuple[tuple[int, ...], ...],
    trans: tuple[tuple[int, ...], ...],
    arity: int,
    first_index: int,
) -> list[tuple[int, ...]]:
    """Explore the DFS subtree whose first chosen set is ``candidates[first_index]``.

    This is the unit of work :mod:`repro.core.kernel.parallel` fans
    out: the serial search is exactly the concatenation of the chunks
    for ``first_index = 0 .. len(candidates) - 1``, so chunked results
    are order- and content-identical to a single DFS.  Both still await
    :func:`close_first_coordinate`.  ``member_labels`` holds each
    candidate's member label ids and ``trans`` is the closure machine
    of :func:`closure_machine`.
    """
    return _maximization_dfs(
        candidates,
        member_labels,
        trans,
        arity,
        first_index,
        first_index + 1,
    )


# hotpath
def close_first_coordinate(
    leaves: list[tuple[int, ...]], trans: tuple[tuple[int, ...], ...]
) -> list[tuple[int, ...]]:
    """The last maximality check: keep a DFS leaf iff its first set is
    ``best`` of its other sets.

    :func:`_maximization_dfs` has checked every other coordinate; the
    complement of coordinate 0 starts in another chunk, so its frontier
    is walked here from the empty multiset (once per distinct
    complement).  A leaf whose first two sets coincide shares that
    complement with coordinate 1 and passes as is.
    """
    label_range = range(len(trans))
    closing_of: dict[tuple[int, ...], int] = {}
    kept: list[tuple[int, ...]] = []
    for sets in leaves:
        if len(sets) < 2 or sets[0] == sets[1]:
            kept.append(sets)
            continue
        rest = sets[1:]
        closing = closing_of.get(rest)
        if closing is None:
            elements: dict[int, None] = {0: None}
            for mask in rest:
                labels = bits_list(mask)
                elements = {
                    trans[label_id][element]: None
                    for element in elements
                    for label_id in labels
                }
            closing = 0
            for label_id in label_range:
                transitions = trans[label_id]
                if all(transitions[element] >= 0 for element in elements):
                    closing |= 1 << label_id
            closing_of[rest] = closing
        if closing == sets[0]:
            kept.append(sets)
    return kept


def maximize_node_constraint_kernel(
    problem: Problem, *, pool: KernelPool | None = None
) -> Constraint:
    """Kernel twin of :func:`repro.core.round_elimination.maximize_node_constraint`.

    With a usable ``pool`` the arity-Delta DFS fans out over worker
    processes, chunked by the top-level right-closed-set prefix (see
    :mod:`repro.core.kernel.parallel`); otherwise, including when the
    platform cannot start processes, it runs serially with per-node
    budget checkpoints exactly like the reference implementation.
    Either way :func:`close_first_coordinate` then runs once on the
    merged leaves.
    """
    kernel = KernelProblem.of(problem)
    interner = kernel.interner
    with _prof_section("node_max.right_closed"):
        candidates = kernel.node_right_closed_sets()
    _trace.add("node.right_closed_sets", len(candidates))
    with _prof_section("node_max.prefix_closure"):
        kernel.node_prefix_closure()
    with _prof_section("node_max.machine"):
        _elements, trans = kernel.node_dfs_machine()
    member_labels = tuple(tuple(bits_list(mask)) for mask in candidates)
    delta = kernel.delta
    with _prof_section("node_max.dfs"):
        chunks = None
        if pool is not None:
            chunks = pool.map_chunks(
                (candidates, member_labels, trans, delta),
                len(candidates),
                phase="node-maximization",
            )
        if chunks is not None:
            leaves = [item for chunk in chunks for item in chunk]
        else:
            leaves = _maximization_dfs(
                candidates,
                member_labels,
                trans,
                delta,
                0,
                len(candidates),
                budget_phase="node-maximization",
            )
    with _prof_section("node_max.filter"):
        maximal = close_first_coordinate(leaves, trans)
    if not maximal:
        raise InvalidProblem(
            "node constraint admits no maximal configuration",
            operator="Rbar",
            alphabet_size=kernel.n,
            delta=delta,
            candidate_sets=len(candidates),
        )
    with _prof_section("node_max.materialize"):
        return Constraint(
            Configuration(interner.labels_of_mask(mask) for mask in sets)
            for sets in maximal
        )


# ---------------------------------------------------------------------------
# Existential steps
# ---------------------------------------------------------------------------

# hotpath
def _existential_dfs(
    member_labels: tuple[tuple[int, ...], ...],
    trans: tuple[tuple[int, ...], ...],
    arity: int,
) -> list[tuple[int, ...]]:
    """The iterative keep-survivors DFS over the closure machine.

    Frames as in :func:`_maximization_dfs` minus the prefix key, and
    the search runs to full depth over every label.  The grow step ORs
    the surviving transitions instead of failing on the first invalid
    one, and an empty grown frontier (mask ``0``, impossible after a
    successful step since element 0 is never re-entered) prunes the
    branch.  Emits label-*index* tuples; the caller owns the label
    list.
    """
    results: list[tuple[int, ...]] = []
    count = len(member_labels)
    element_count = len(trans[0]) if trans else 1
    element_range = range(element_count)
    # Same lazy per-label image memo as the maximization driver, minus
    # the validity masks: a label that cannot extend from an element
    # simply contributes no bit, and a branch dies only when the whole
    # grown frontier comes out empty.
    label_image: dict[int, list[int]] = {}
    rows: list[list[int] | None] = [None] * count
    _budget.check_configurations(0, phase="existential", depth=0)
    chosen: list[int] = []
    stack: list[list] = [[0, count, 1, None]]
    while stack:
        frame = stack[-1]
        cursor = frame[0]
        if cursor == frame[1]:
            stack.pop()
            if chosen:
                chosen.pop()
            continue
        frame[0] = cursor + 1
        frontier = frame[2]
        row = rows[cursor]
        if row is None:
            images: list[list[int]] = []
            for label_id in member_labels[cursor]:
                image = label_image.get(label_id)
                if image is None:
                    transitions = trans[label_id]
                    image = [
                        (1 << transitions[element])
                        if transitions[element] >= 0
                        else 0
                        for element in element_range
                    ]
                    label_image[label_id] = image
                images.append(image)
            row = list(images[0])
            for image in images[1:]:
                row = [left | right for left, right in zip(row, image)]
            rows[cursor] = row
        members = frame[3]
        if members is None:
            members = []
            remaining = frontier
            while remaining:
                low_bit = remaining & -remaining
                members.append(low_bit.bit_length() - 1)
                remaining ^= low_bit
            frame[3] = members
        grown = 0
        for element in members:
            grown |= row[element]
        if grown == 0:
            continue
        chosen.append(cursor)
        depth = len(chosen)
        _budget.check_configurations(
            len(results), phase="existential", depth=depth
        )
        if depth == arity:
            results.append(tuple(chosen))
            chosen.pop()
            continue
        stack.append([cursor, count, grown, None])
    return results


def existential_constraint_kernel(
    old_constraint: Constraint,
    new_labels: Iterable[frozenset],
    arity: int,
) -> Constraint:
    """Kernel twin of :func:`repro.core.round_elimination.existential_constraint`."""
    with _prof_section("exists.closure"):
        labels = sorted(set(new_labels), key=_set_sort_key)
        base: set[Hashable] = set(old_constraint.labels_used())
        for label_set in labels:
            base |= label_set
        interner = LabelInterner(base)
        shift = max(arity, old_constraint.arity).bit_length()
        member_labels = tuple(
            tuple(sorted(interner.id_of(member) for member in label_set))
            for label_set in labels
        )
        closure: set[int] = set()
        checked = 0
        for configuration in old_constraint.configurations:
            items = interner.ids_of(configuration.items)
            for size in range(len(items) + 1):
                # Stride the probe: small closures stay silent, runaway
                # growth is caught within 64 packed prefixes.
                if len(closure) - checked >= 64:
                    checked = len(closure)
                    _budget.check_configurations(
                        len(closure), phase="existential"
                    )
                for combo in itertools.combinations(items, size):
                    closure.add(pack_ids(combo, shift))
        _elements, trans = closure_machine(closure, shift, len(interner))
    with _prof_section("exists.dfs"):
        index_tuples = _existential_dfs(member_labels, trans, arity)
    with _prof_section("exists.materialize"):
        # Equals ``Configuration(labels[index] for index in ids)``: the
        # same stable sort over the same input order, keyed by the same
        # strings, each rendered once per call instead of per occurrence.
        keys = [render_label(label) for label in labels]
        results: set[Configuration] = {
            Configuration._presorted(
                tuple(labels[index] for index in sorted(ids, key=keys.__getitem__))
            )
            for ids in index_tuples
        }
    if not results:
        raise InvalidProblem(
            "existential step produced an empty constraint",
            arity=arity,
            alphabet_size=len(labels),
            old_configurations=len(old_constraint),
        )
    return Constraint(results)


# ---------------------------------------------------------------------------
# The R / Rbar operators
# ---------------------------------------------------------------------------

def kernel_R(problem: Problem) -> Problem:
    """Kernel twin of :func:`repro.core.round_elimination.R`."""
    with _trace.span(
        "op.R", engine="kernel", problem=problem.name, delta=problem.delta
    ) as span:
        span.add("labels.in", len(problem.alphabet))
        edge_constraint = maximize_edge_constraint_kernel(problem)
        sigma = sorted(edge_constraint.labels_used(), key=_set_sort_key)
        _budget.check_alphabet(
            len(sigma), operator="R", alphabet_before=len(problem.alphabet)
        )
        node_constraint = existential_constraint_kernel(
            problem.node_constraint, sigma, problem.delta
        )
        span.add("labels.out", len(sigma))
        span.add("node.configs.out", len(node_constraint))
        span.add("edge.configs.out", len(edge_constraint))
    name = f"R({problem.name})" if problem.name else "R"
    return Problem(Alphabet(sigma), node_constraint, edge_constraint, name=name)


def kernel_Rbar(problem: Problem, *, pool: KernelPool | None = None) -> Problem:
    """Kernel twin of :func:`repro.core.round_elimination.Rbar`.

    A ``pool`` (a :class:`~repro.core.kernel.parallel.KernelPool`)
    fans out the maximization DFS; the existential step stays serial.
    """
    with _trace.span(
        "op.Rbar", engine="kernel", problem=problem.name, delta=problem.delta
    ) as span:
        span.add("labels.in", len(problem.alphabet))
        node_constraint = maximize_node_constraint_kernel(problem, pool=pool)
        sigma = sorted(node_constraint.labels_used(), key=_set_sort_key)
        _budget.check_alphabet(
            len(sigma), operator="Rbar", alphabet_before=len(problem.alphabet)
        )
        edge_constraint = existential_constraint_kernel(
            problem.edge_constraint, sigma, 2
        )
        span.add("labels.out", len(sigma))
        span.add("node.configs.out", len(node_constraint))
        span.add("edge.configs.out", len(edge_constraint))
    name = f"Rbar({problem.name})" if problem.name else "Rbar"
    return Problem(Alphabet(sigma), node_constraint, edge_constraint, name=name)


# ---------------------------------------------------------------------------
# Relaxation and relabeling fast paths
# ---------------------------------------------------------------------------

def _mask_match(source: tuple[int, ...], target: tuple[int, ...]) -> bool:
    """Kuhn matching of source positions into target supersets, on masks."""
    assignment: dict[int, int] = {}

    def try_assign(source_index: int, visited: set[int]) -> bool:
        small = source[source_index]
        for target_index, big in enumerate(target):
            if target_index in visited or not is_subset(small, big):
                continue
            visited.add(target_index)
            if target_index not in assignment or try_assign(
                assignment[target_index], visited
            ):
                assignment[target_index] = source_index
                return True
        return False

    return all(
        try_assign(source_index, set()) for source_index in range(len(source))
    )


def all_relax_into_kernel(
    configurations: Iterable[Configuration], targets: Iterable[Configuration]
) -> bool:
    """Kernel twin of :func:`repro.core.relaxation.all_relax_into`.

    Interns the member labels of every set label once, so the pointwise
    subset tests of Definition 7 become int comparisons.
    """
    configuration_list = list(configurations)
    target_list = list(targets)
    base: set[Hashable] = set()
    for configuration in itertools.chain(configuration_list, target_list):
        for label_set in configuration.items:
            base |= label_set
    interner = LabelInterner(base)

    def as_masks(configuration: Configuration) -> tuple[int, ...]:
        return tuple(interner.mask_of(label_set) for label_set in configuration.items)

    targets_by_arity: dict[int, list[tuple[int, ...]]] = {}
    for target in target_list:
        targets_by_arity.setdefault(target.arity, []).append(as_masks(target))
    for configuration in configuration_list:
        masks = as_masks(configuration)
        candidates = targets_by_arity.get(configuration.arity, [])
        if not any(_mask_match(masks, candidate) for candidate in candidates):
            return False
    return True


def find_label_relabeling_kernel(source: Problem, target: Problem) -> dict | None:
    """Kernel twin of :func:`repro.core.relaxation.find_label_relabeling`.

    Returns *a* valid relabeling (possibly a different witness than the
    reference search finds, since candidates are tried in interner
    order), or ``None`` exactly when the reference returns ``None``.
    """
    if source.delta != target.delta:
        return None
    source_interner = LabelInterner(source.alphabet)
    target_interner = LabelInterner(target.alphabet)

    def interned_constraint(
        constraint: Constraint, interner: LabelInterner
    ) -> frozenset[frozenset[int]]:
        return frozenset(
            interner.ids_of(configuration.items)
            for configuration in constraint.configurations
        )

    pairs = [
        (
            [
                source_interner.ids_of(configuration.items)
                for configuration in constraint.configurations
            ],
            interned_constraint(target_constraint, target_interner),
        )
        for constraint, target_constraint in (
            (source.node_constraint, target.node_constraint),
            (source.edge_constraint, target.edge_constraint),
        )
    ]
    source_count = len(source_interner)
    target_ids = range(len(target_interner))
    mapping: dict[int, int] = {}

    def consistent_so_far() -> bool:
        assigned = mask_from_ids(mapping)
        for source_configs, target_set in pairs:
            for configuration in source_configs:
                if not is_subset(mask_from_ids(configuration), assigned):
                    continue
                image = tuple(sorted(mapping[label] for label in configuration))
                if image not in target_set:
                    return False
        return True

    def assign(index: int) -> bool:
        _budget.checkpoint(phase="relabeling-search", assigned=index)
        if index == source_count:
            return True
        for candidate in target_ids:
            mapping[index] = candidate
            if consistent_so_far() and assign(index + 1):
                return True
            del mapping[index]
        return False

    if assign(0):
        return {
            source_interner.label_of(source_id): target_interner.label_of(target_id)
            for source_id, target_id in mapping.items()
        }
    return None


# ---------------------------------------------------------------------------
# Zero-round fast paths
# ---------------------------------------------------------------------------

def zero_round_solvable_pn_kernel(problem: Problem) -> bool:
    """Kernel twin of :func:`repro.core.solvability.zero_round_solvable_pn`."""
    return KernelProblem.of(problem).pn_solvable()


def zero_round_solvable_symmetric_kernel(problem: Problem) -> bool:
    """Kernel twin of :func:`repro.core.solvability.zero_round_solvable_symmetric`."""
    return KernelProblem.of(problem).symmetric_solvable()


__all__ = [
    "KernelProblem",
    "maximize_edge_constraint_kernel",
    "maximize_node_constraint_kernel",
    "existential_constraint_kernel",
    "kernel_R",
    "kernel_Rbar",
    "all_relax_into_kernel",
    "find_label_relabeling_kernel",
    "zero_round_solvable_pn_kernel",
    "zero_round_solvable_symmetric_kernel",
    "pack_ids",
    "partner_mask",
    "closure_machine",
    "search_maximization_chunk",
    "close_first_coordinate",
]
