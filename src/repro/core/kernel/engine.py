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
fault-injection probes keep working on the fast path.  In parallel mode
the checkpoints fire between top-level DFS chunks (workers themselves
run unbudgeted); see :mod:`repro.core.kernel.parallel`.
"""

from __future__ import annotations

import itertools
from collections.abc import Hashable, Iterable

from repro.core import cache as _cache
from repro.core.cache import _set_sort_key
from repro.core.configurations import Configuration
from repro.core.constraints import Constraint
from repro.core.kernel.bitops import (
    bit,
    bits_list,
    is_strict_subset,
    is_subset,
    iter_bits,
    mask_from_ids,
    popcount,
)
from repro.core.kernel.interning import LabelInterner, transport_registry
from repro.core.labels import Alphabet
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

    The one shared Galois-image loop: :meth:`KernelProblem.partner`
    wraps it with the memo, and :func:`edge_pairing_chunk` calls it
    directly inside workers (which have no :class:`KernelProblem`).
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
    field: the raw add can alias an unrelated valid pack, and the
    aliasing is not relabeling-equivariant, which would make
    transported machines (:func:`_transported_view`) differ from fresh
    builds.  No search ever reads such an entry — a full field means
    the element's count sum is at least the capacity, which is at
    least the search arity, while frontiers are only ever grown at
    depth strictly below the arity — so the guard changes no live
    behavior (the parity suite pins this against the pre-machine
    recursion, which used the raw carrying add).
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
        "node_config_set",
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
        self.node_config_set = frozenset(self.node_configs)
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

        A problem that is a relabeling of a recently interned one
        (confirmed via the renaming-invariant fingerprint of
        :mod:`repro.core.cache`) receives the source's memoized
        artifacts transported through the label bijection instead of a
        from-scratch analysis — ``kernel.intern.transported`` counts
        these, and neither ``kernel.cache.miss`` nor the Galois
        ``galois.cache.miss`` counters grow for the transported parts.
        """
        cached = problem._kernel_cache
        if cached is not None:
            _trace.add("kernel.cache.hit")
            return cached
        registry = transport_registry()
        cached = _transport_interned(cls, problem, registry)
        if cached is not None:
            _trace.add("kernel.intern.transported")
        else:
            _trace.add("kernel.cache.miss")
            with _prof_section("intern.build"):
                cached = cls(problem)
        problem._kernel_cache = cached
        registry.record(_cache.structure_key(problem), cached)
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
        containing: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
        for configuration in self.node_configs:
            for index in sorted(set(configuration)):
                containing[index].append(configuration)
        ge = [[False] * n for _ in range(n)]
        for strong in range(n):
            for weak in range(n):
                if strong == weak:
                    ge[strong][weak] = True
                    continue
                ok = True
                for configuration in containing[weak]:
                    replaced = list(configuration)
                    replaced.remove(weak)
                    replaced.append(strong)
                    replaced.sort()
                    if tuple(replaced) not in self.node_config_set:
                        ok = False
                        break
                ge[strong][weak] = ok
        self._node_ge = [
            mask_from_ids(strong for strong in range(n) if ge[strong][weak])
            for weak in range(n)
        ]
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
        """
        if self._node_prefix_closure is not None:
            return self._node_prefix_closure
        shift = self.delta.bit_length()
        closure: set[int] = set()
        checked = 0
        for configuration in self.node_configs:
            for size in range(len(configuration) + 1):
                # Stride the probe: small closures stay silent, runaway
                # growth is caught within 64 packed prefixes.
                if len(closure) - checked >= 64:
                    checked = len(closure)
                    _budget.check_configurations(
                        len(closure), phase="node-prefix-closure"
                    )
                for combo in itertools.combinations(configuration, size):
                    closure.add(pack_ids(combo, shift))
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
# Cross-step artifact transport
# ---------------------------------------------------------------------------

def _permute_mask(mask: int, perm: list[int]) -> int:
    """The image of a label-set mask under the id bijection ``perm``."""
    result = 0
    remaining = mask
    while remaining:
        low_bit = remaining & -remaining
        result |= 1 << perm[low_bit.bit_length() - 1]
        remaining ^= low_bit
    return result


def _permute_pack(packed: int, shift: int, perm: list[int]) -> int:
    """The image of a packed count-vector under the id bijection."""
    field = (1 << shift) - 1
    result = 0
    label_id = 0
    while packed:
        count = packed & field
        if count:
            result += count << (shift * perm[label_id])
        packed >>= shift
        label_id += 1
    return result


def _transport_interned(cls, problem: Problem, registry) -> "KernelProblem | None":
    """A :class:`KernelProblem` for ``problem`` built by relabeling a
    recorded isomorphic source, or ``None`` when no source matches.

    The registry's structure key is a necessary condition only, so the
    canonical fingerprint confirms each candidate before the transport
    runs — but only *already memoized* fingerprints are consulted
    (:func:`repro.core.cache.cached_fingerprint`), so interning never
    triggers fresh canonicalization work or its budget checkpoints.
    Chain drivers that canonicalize anyway (condensation ranks each
    iterate) get transport for free; plain speedup chains, whose steps
    are never isomorphic, pay nothing.  Transport is sound because
    every memoized artifact — compat masks, the Galois lattice and
    partner cache, the strength preorder, right-closed sets, prefix
    closure, and the compiled DFS machine — is equivariant under label
    bijections.
    """
    digest = _cache.cached_fingerprint(problem)
    if digest is None:
        return None
    for source in registry.candidates(_cache.structure_key(problem)):
        if source.problem is problem:
            continue
        if _cache.cached_fingerprint(source.problem) != digest:
            continue
        with _prof_section("intern.transport"):
            return _transported_view(cls, problem, source)
    return None


def _transported_view(
    cls, problem: Problem, source: "KernelProblem"
) -> "KernelProblem":
    """Carry every memoized artifact of ``source`` through the label
    bijection onto ``problem`` (position-wise along canonical orders)."""
    target: KernelProblem = cls.__new__(cls)
    target.problem = problem
    interner = LabelInterner(problem.alphabet)
    target.interner = interner
    n = len(interner)
    target.n = n
    target.delta = problem.delta
    source_order = _cache.canonical_form(source.problem).order
    target_order = _cache.canonical_form(problem).order
    perm = [0] * n
    source_id_of = source.interner.id_of
    for source_label, target_label in zip(source_order, target_order):
        perm[source_id_of(source_label)] = interner.id_of(target_label)
    compat = [0] * n
    for source_id in range(n):
        compat[perm[source_id]] = _permute_mask(source.compat[source_id], perm)
    target.compat = compat
    target.node_configs = tuple(
        sorted(
            tuple(sorted(perm[label_id] for label_id in configuration))
            for configuration in source.node_configs
        )
    )
    target.node_config_set = frozenset(target.node_configs)
    target._partner_cache = {
        _permute_mask(query, perm): _permute_mask(image, perm)
        for query, image in source._partner_cache.items()
    }
    if source._closed_sets is None:
        target._closed_sets = None
    else:
        target._closed_sets = tuple(
            sorted(_permute_mask(mask, perm) for mask in source._closed_sets)
        )
    if source._node_ge is None:
        target._node_ge = None
    else:
        ge = [0] * n
        for weak in range(n):
            ge[perm[weak]] = _permute_mask(source._node_ge[weak], perm)
        target._node_ge = ge
    if source._node_strict_successors is None:
        target._node_strict_successors = None
    else:
        successors = [0] * n
        for weak in range(n):
            successors[perm[weak]] = _permute_mask(
                source._node_strict_successors[weak], perm
            )
        target._node_strict_successors = successors
    if source._node_right_closed is None:
        target._node_right_closed = None
    else:
        target._node_right_closed = tuple(
            sorted(
                (_permute_mask(mask, perm) for mask in source._node_right_closed),
                key=lambda mask: (popcount(mask), tuple(iter_bits(mask))),
            )
        )
    shift = target.delta.bit_length()
    if source._node_prefix_closure is None:
        target._node_prefix_closure = None
    else:
        target._node_prefix_closure = frozenset(
            _permute_pack(packed, shift, perm)
            for packed in source._node_prefix_closure
        )
    if source._node_machine is None:
        target._node_machine = None
    else:
        old_elements, old_trans = source._node_machine
        mapped = [
            _permute_pack(element, shift, perm) for element in old_elements
        ]
        new_elements = tuple(sorted(mapped))
        position = {element: slot for slot, element in enumerate(new_elements)}
        reindex = [position[element] for element in mapped]
        new_trans: list[tuple[int, ...]] = [()] * n
        for label_id in range(n):
            row = old_trans[label_id]
            new_row = [-1] * len(new_elements)
            for old_slot, new_slot in enumerate(reindex):
                step = row[old_slot]
                new_row[new_slot] = reindex[step] if step >= 0 else -1
            new_trans[perm[label_id]] = tuple(new_row)
        target._node_machine = (new_elements, tuple(new_trans))
    return target


# ---------------------------------------------------------------------------
# Maximization steps
# ---------------------------------------------------------------------------

def edge_pairing_chunk(
    compat: tuple[int, ...],
    closed_sets: tuple[int, ...],
    low: int,
    high: int,
) -> list[tuple[int, int]]:
    """Galois-pair the closed sets in ``closed_sets[low:high]``.

    Each closed set is tested independently (``A`` is kept with its
    partner ``f(A)`` iff ``f(f(A)) == A``), so the serial pairing loop
    is exactly the concatenation of contiguous slices — the unit of
    work the parallel fan-out distributes.  Uses the shared
    :func:`partner_mask` on the raw compatibility masks since workers
    have no :class:`KernelProblem` memo.
    """
    full = (1 << len(compat)) - 1
    pairs: list[tuple[int, int]] = []
    for left in closed_sets[low:high]:
        right = partner_mask(compat, full, left)
        if right and partner_mask(compat, full, right) == left:
            pairs.append((left, right))
    return pairs


def maximize_edge_constraint_kernel(
    problem: Problem, *, pool: KernelPool | None = None
) -> Constraint:
    """Kernel twin of :func:`repro.core.round_elimination.maximize_edge_constraint`.

    The closed-set lattice is always built serially (it is inherently
    sequential and budget-checked); with a usable ``pool`` the pairing
    loop over the lattice fans out as contiguous slices.
    """
    kernel = KernelProblem.of(problem)
    interner = kernel.interner
    with _prof_section("edge_max.lattice"):
        closed_sets = kernel.galois_closed_sets()
    _trace.add("edge.closed_sets", len(closed_sets))
    pairs: list[tuple[int, int]] | None = None
    with _prof_section("edge_max.pairing"):
        if pool is not None and len(closed_sets) > 1:
            # One closed set per unit; the pool groups units into
            # contiguous shards and merges them back in index order,
            # so the pair list equals the serial loop.
            chunks = pool.map_chunks(
                "edge-pair",
                (tuple(kernel.compat), closed_sets),
                len(closed_sets),
                phase="edge-maximization",
            )
            if chunks is not None:
                pairs = [pair for chunk in chunks for pair in chunk]
        if pairs is None:
            pairs = []
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


def unpack_ids(packed: int, shift: int) -> tuple[int, ...]:
    """Invert :func:`pack_ids`, yielding the sorted id tuple."""
    ids: list[int] = []
    field = (1 << shift) - 1
    label_id = 0
    while packed:
        count = packed & field
        ids.extend([label_id] * count)
        packed >>= shift
        label_id += 1
    return tuple(ids)


def grow_frontier(
    frontier: frozenset[int],
    member_steps: tuple[int, ...],
    closure: frozenset[int],
) -> frozenset[int] | None:
    """Packed-int twin of the reference ``_grow_frontier`` (all-or-nothing).

    ``member_steps`` holds ``1 << (shift * label_id)`` per member of the
    candidate set, so each extension is one add plus one set lookup.
    """
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
) -> frozenset[int]:
    """Packed-int twin of ``_grow_frontier_exists`` (keep survivors)."""
    grown: set[int] = set()
    add = grown.add
    for partial in frontier:
        for step in member_steps:
            extended = partial + step
            if extended in closure:
                add(extended)
    return frozenset(grown)


# hotpath
def _maximization_dfs(
    candidates: tuple[int, ...],
    member_labels: tuple[tuple[int, ...], ...],
    trans: tuple[tuple[int, ...], ...],
    arity: int,
    lo: int,
    hi: int,
    budget_phase: str | None = None,
    stats: dict | None = None,
) -> list[tuple[int, ...]]:
    """The iterative all-or-nothing DFS over the closure machine.

    One explicit-stack loop serves both the serial search
    (``lo=0, hi=len(candidates)``, budgeted) and a parallel chunk
    (``lo=first_index, hi=first_index+1``, unbudgeted): frames are
    ``[cursor, limit, frontier_mask]`` plus a parallel ``chosen`` list
    of candidate indices, and frontier growth is memoized per candidate
    keyed on the frontier bitmask.  Emission order, failure conditions,
    and candidate-level grow counts (``stats['grow_calls']``) are
    pinned 1:1 to the old recursive search by the property tests.
    """
    results: list[tuple[int, ...]] = []
    count = len(candidates)
    element_count = len(trans[0]) if trans else 1
    element_range = range(element_count)
    # Per-label memos, built on first touch: ``label_valid[lab]`` is
    # the element mask from which ``lab`` can extend, ``label_image``
    # the per-element image bit.  Per-candidate: ``invalid[c]`` (any
    # frontier bit in it fails the all-or-nothing test in one AND) and
    # ``rows[c]`` (aggregated image row; success is one lookup + OR
    # per frontier element).
    label_valid: dict[int, int] = {}
    label_image: dict[int, list[int]] = {}
    invalid: list[int | None] = [None] * count
    rows: list[list[int] | None] = [None] * count
    grow_calls = 0
    if budget_phase is not None:
        _budget.check_configurations(0, phase=budget_phase, depth=0)
    chosen: list[int] = []
    stack: list[list] = [[lo, hi, 1, None]]
    while stack:
        frame = stack[-1]
        cursor = frame[0]
        if cursor == frame[1]:
            stack.pop()
            if chosen:
                chosen.pop()
            continue
        frame[0] = cursor + 1
        grow_calls += 1
        frontier = frame[2]
        bad = invalid[cursor]
        if bad is None:
            valid = -1
            for label_id in member_labels[cursor]:
                label_mask = label_valid.get(label_id)
                if label_mask is None:
                    transitions = trans[label_id]
                    label_mask = 0
                    for element in element_range:
                        if transitions[element] >= 0:
                            label_mask |= 1 << element
                    label_valid[label_id] = label_mask
                valid &= label_mask
            bad = ~valid
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
        chosen.append(cursor)
        depth = len(chosen)
        if depth == arity:
            if budget_phase is not None:
                _budget.check_configurations(
                    len(results), phase=budget_phase, depth=depth
                )
            results.append(tuple(candidates[index] for index in chosen))
            chosen.pop()
            continue
        if budget_phase is not None:
            _budget.check_configurations(
                len(results), phase=budget_phase, depth=depth
            )
        stack.append([cursor, count, grown, None])
    if stats is not None:
        stats["grow_calls"] = stats.get("grow_calls", 0) + grow_calls
    return results


# hotpath
def search_maximization_chunk(
    candidates: tuple[int, ...],
    member_labels: tuple[tuple[int, ...], ...],
    trans: tuple[tuple[int, ...], ...],
    arity: int,
    first_index: int,
    stats: dict | None = None,
) -> list[tuple[int, ...]]:
    """Explore the DFS subtree whose first chosen set is ``candidates[first_index]``.

    This is the unit of work the parallel fan-out distributes: the
    serial search is exactly the concatenation of the chunks for
    ``first_index = 0 .. len(candidates) - 1``, so chunked results are
    order- and content-identical to a single DFS.  ``member_labels``
    holds each candidate's member label ids and ``trans`` is the
    closure machine of :func:`closure_machine`.
    """
    return _maximization_dfs(
        candidates,
        member_labels,
        trans,
        arity,
        first_index,
        first_index + 1,
        stats=stats,
    )


# hotpath
def prune_non_maximal_masks(
    configurations: list[tuple[int, ...]], candidate_sets: Iterable[int]
) -> list[tuple[int, ...]]:
    """Mask twin of the reference ``_prune_non_maximal`` (same near-linear
    single-coordinate-enlargement argument, with int-subset tests).

    Membership structures are dicts rather than sets so the hot loop
    allocates nothing set-shaped (AN001); insertion order is irrelevant
    because only key lookups are performed.
    """
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


def maximize_node_constraint_kernel(
    problem: Problem, *, pool: KernelPool | None = None
) -> Constraint:
    """Kernel twin of :func:`repro.core.round_elimination.maximize_node_constraint`.

    With a ``pool`` the arity-Delta DFS fans out over worker
    processes, chunked by the top-level right-closed-set prefix (see
    :mod:`repro.core.kernel.parallel`); otherwise it runs serially with
    per-node budget checkpoints exactly like the reference
    implementation.
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
        if pool is not None and len(candidates) > 1:
            from repro.core.kernel.parallel import run_chunks_serial

            payload = (candidates, member_labels, trans, delta)
            count = len(candidates)
            chunks = pool.map_chunks(
                "node-max", payload, count, phase="node-maximization"
            )
            if chunks is None:
                chunks = run_chunks_serial(
                    "node-max", payload, count, phase="node-maximization"
                )
            results = [item for chunk in chunks for item in chunk]
        else:
            results = _maximization_dfs(
                candidates,
                member_labels,
                trans,
                delta,
                0,
                len(candidates),
                budget_phase="node-maximization",
            )
    with _prof_section("node_max.prune"):
        maximal = prune_non_maximal_masks(results, candidates)
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
    lo: int,
    hi: int,
    budget_phase: str | None = None,
    stats: dict | None = None,
) -> list[tuple[int, ...]]:
    """The iterative keep-survivors DFS over the closure machine.

    Same frame shape as :func:`_maximization_dfs`; the grow step ORs
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
    grow_calls = 0
    if budget_phase is not None:
        _budget.check_configurations(0, phase=budget_phase, depth=0)
    chosen: list[int] = []
    stack: list[list] = [[lo, hi, 1, None]]
    while stack:
        frame = stack[-1]
        cursor = frame[0]
        if cursor == frame[1]:
            stack.pop()
            if chosen:
                chosen.pop()
            continue
        frame[0] = cursor + 1
        grow_calls += 1
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
        if depth == arity:
            if budget_phase is not None:
                _budget.check_configurations(
                    len(results), phase=budget_phase, depth=depth
                )
            results.append(tuple(chosen))
            chosen.pop()
            continue
        if budget_phase is not None:
            _budget.check_configurations(
                len(results), phase=budget_phase, depth=depth
            )
        stack.append([cursor, count, grown, None])
    if stats is not None:
        stats["grow_calls"] = stats.get("grow_calls", 0) + grow_calls
    return results


# hotpath
def search_existential_chunk(
    member_labels: tuple[tuple[int, ...], ...],
    trans: tuple[tuple[int, ...], ...],
    arity: int,
    first_index: int,
    stats: dict | None = None,
) -> list[tuple[int, ...]]:
    """Explore the existential DFS subtree rooted at label ``first_index``.

    Returns label-*index* tuples (the caller owns the label list); the
    union over ``first_index = 0 .. len(member_labels) - 1`` is exactly
    the serial search's configuration set, since the serial DFS chooses
    its first label in the same index order.
    """
    return _existential_dfs(
        member_labels,
        trans,
        arity,
        first_index,
        first_index + 1,
        stats=stats,
    )


def existential_constraint_kernel(
    old_constraint: Constraint,
    new_labels: Iterable[frozenset],
    arity: int,
    *,
    pool: KernelPool | None = None,
) -> Constraint:
    """Kernel twin of :func:`repro.core.round_elimination.existential_constraint`.

    With a usable ``pool`` the DFS fans out chunked by the first chosen
    label; the set union of the chunks equals the serial result.
    """
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
        if pool is not None and len(labels) > 1:
            from repro.core.kernel.parallel import run_chunks_serial

            payload = (member_labels, trans, arity)
            chunks = pool.map_chunks(
                "exists", payload, len(labels), phase="existential"
            )
            if chunks is None:
                chunks = run_chunks_serial(
                    "exists", payload, len(labels), phase="existential"
                )
            index_tuples = [ids for chunk in chunks for ids in chunk]
        else:
            index_tuples = _existential_dfs(
                member_labels,
                trans,
                arity,
                0,
                len(labels),
                budget_phase="existential",
            )
    with _prof_section("exists.materialize"):
        results: set[Configuration] = {
            Configuration(labels[index] for index in ids)
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

def kernel_R(problem: Problem, *, pool: KernelPool | None = None) -> Problem:
    """Kernel twin of :func:`repro.core.round_elimination.R`.

    A ``pool`` (a :class:`~repro.core.kernel.parallel.KernelPool`)
    fans out both the edge-side pairing and the existential DFS.
    """
    with _trace.span(
        "op.R", engine="kernel", problem=problem.name, delta=problem.delta
    ) as span:
        span.add("labels.in", len(problem.alphabet))
        edge_constraint = maximize_edge_constraint_kernel(problem, pool=pool)
        sigma = sorted(edge_constraint.labels_used(), key=_set_sort_key)
        _budget.check_alphabet(
            len(sigma), operator="R", alphabet_before=len(problem.alphabet)
        )
        node_constraint = existential_constraint_kernel(
            problem.node_constraint, sigma, problem.delta, pool=pool
        )
        span.add("labels.out", len(sigma))
        span.add("node.configs.out", len(node_constraint))
        span.add("edge.configs.out", len(edge_constraint))
    name = f"R({problem.name})" if problem.name else "R"
    return Problem(Alphabet(sigma), node_constraint, edge_constraint, name=name)


def kernel_Rbar(problem: Problem, *, pool: KernelPool | None = None) -> Problem:
    """Kernel twin of :func:`repro.core.round_elimination.Rbar`.

    A ``pool`` (a :class:`~repro.core.kernel.parallel.KernelPool`)
    fans out both the maximization DFS and the existential DFS.
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
            problem.edge_constraint, sigma, 2, pool=pool
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
    "grow_frontier",
    "grow_frontier_exists",
    "pack_ids",
    "unpack_ids",
    "partner_mask",
    "closure_machine",
    "search_maximization_chunk",
    "search_existential_chunk",
    "edge_pairing_chunk",
    "prune_non_maximal_masks",
]
