"""The fast-path round-elimination kernel.

Semantically this module is a re-implementation of
:mod:`repro.core.round_elimination` (and the hot predicates of
:mod:`repro.core.solvability`) over an interned representation: labels
become dense integer ids, label sets become int bitmasks, and
configurations become sorted id tuples.  All
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

The existential step maps its input line for line, by Section 2.3's
simple method; an input built from configurations is read as one
single-label line per configuration.  Its output keeps the mapped
lines, so R and Rbar build no existential configuration unless
something later expands it.  A :class:`KernelProblem` view packs such
lines straight into label-id words (:func:`constraint_words`), so Rbar
of R's output, the node strength relation and the zero-round
predicates expand nothing either.

Budgets: the kernel calls the same ambient-budget checkpoints
(:mod:`repro.robustness.budget`) with the same phase names as the
reference engine, so ``governed()`` wall clocks, configuration caps and
fault-injection probes keep working on the fast path.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable

from repro.core.cache import _set_sort_key
from repro.core.configurations import CondensedConfiguration, Configuration
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
from repro.core.round_elimination import existential_line
from repro.observability import trace as _trace
from repro.observability.profiling import section as _prof_section
from repro.robustness import budget as _budget
from repro.robustness.errors import EngineMisuse, InvalidProblem

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


class KernelProblem:
    """The interned view of one :class:`~repro.core.problem.Problem`.

    The node constraint is kept as ``node_words``, the set of its
    configurations packed into count fields (:func:`pack_ids`, ``shift
    = delta.bit_length()`` bits per label), and the edge constraint as
    ``compat``, each label's mask of allowed partners.  Both are built
    by :func:`constraint_words`: a constraint that keeps its condensed
    lines is packed line by line, so building the view, the node
    strength relation, the right-closed sets and both zero-round
    predicates expands no line and builds no
    :class:`~repro.core.configurations.Configuration`.

    The view keeps no reference to its problem: the problem holds the
    view (:meth:`of`), and a cycle would leave every discarded problem
    to the cyclic garbage collector instead of freeing it at once.
    """

    __slots__ = (
        "interner",
        "n",
        "delta",
        "shift",
        "compat",
        "node_words",
        "_partner_cache",
        "_closed_sets",
        "_node_ge",
        "_node_supports",
        "_node_strict_successors",
        "_node_right_closed",
        "_node_minimal_labels",
        "_node_machine",
    )

    def __init__(self, problem: Problem) -> None:
        interner = LabelInterner(problem.alphabet)
        self.interner = interner
        self.n = len(interner)
        self.delta = problem.delta
        self.shift = problem.delta.bit_length()
        self.node_words: frozenset[int] = constraint_words(
            problem.node_constraint, interner, self.shift, "condensed-expansion"
        )
        # One pass over the packed edge words: the lowest occupied field
        # is one end, and what remains after removing it is the other
        # (the same field for a doubled label).
        compat = [0] * self.n
        for word in constraint_words(
            problem.edge_constraint, interner, EDGE_SHIFT, "condensed-expansion"
        ):
            first = ((word & -word).bit_length() - 1) // EDGE_SHIFT
            rest = word - (1 << (EDGE_SHIFT * first))
            second = (rest.bit_length() - 1) // EDGE_SHIFT
            compat[first] |= 1 << second
            compat[second] |= 1 << first
        self.compat: list[int] = compat
        self._partner_cache: dict[int, int] = {}
        self._closed_sets: tuple[int, ...] | None = None
        self._node_ge: list[int] | None = None
        self._node_supports: frozenset[int] | None = None
        self._node_strict_successors: list[int] | None = None
        self._node_right_closed: tuple[int, ...] | None = None
        self._node_minimal_labels: tuple[tuple[int, ...], ...] | None = None
        self._node_machine: (
            tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[int, ...]]
            | None
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
        # Replacing one ``weak`` by ``strong`` in a packed word is a
        # single int add, and no field over- or underflows (counts stay
        # within 0..delta).
        shift = self.shift
        field = (1 << shift) - 1
        packed = self.node_words
        containing = [
            [word for word in packed if word & (field << (shift * index))]
            for index in range(n)
        ]
        ge: list[int] = []
        for weak in range(n):
            weak_field = 1 << (shift * weak)
            mask = 0
            for strong in range(n):
                step = (1 << (shift * strong)) - weak_field
                # ``issuperset`` stops at the first shifted word missing.
                if step == 0 or packed.issuperset(map(step.__add__, containing[weak])):
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

    def node_minimal_labels(self) -> tuple[tuple[int, ...], ...]:
        """Each right-closed set's minimal labels, aligned with
        :meth:`node_right_closed_sets`.

        A member is minimal when no other member is strictly weaker
        than it.  The set is the up-closure of its minimal labels, and
        each of its labels is at least as strong as one of them — all
        the maximization DFS needs (see :func:`_maximization_dfs`).
        """
        if self._node_minimal_labels is not None:
            return self._node_minimal_labels
        successors = self.node_strict_successors()
        minimal: list[tuple[int, ...]] = []
        for mask in self.node_right_closed_sets():
            above = 0
            for index in iter_bits(mask):
                above |= successors[index]
            minimal.append(tuple(bits_list(mask & ~above)))
        self._node_minimal_labels = tuple(minimal)
        return self._node_minimal_labels

    def node_prefix_closure(self) -> frozenset[int]:
        """All sub-multisets of allowed node configurations, packed: the
        elements of :meth:`node_dfs_machine`, for the reference twins
        and the property tests."""
        return frozenset(self.node_dfs_machine()[0])

    def node_dfs_machine(
        self,
    ) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """The node prefix closure compiled to a transition machine
        (memoized).

        Returns ``(elements, trans, extends)`` from
        :func:`closure_machine`, whose downward walk over the packed
        node configurations builds the closure and, from the same
        subtracts, every exact transition.  The maximization DFS walks
        ``trans``, and ``best(F)``, the labels every element of a
        frontier ``F`` extends by, is the AND of ``extends`` over ``F``.
        Budget probes run under ``"node-prefix-closure"``.
        """
        if self._node_machine is None:
            self._node_machine = closure_machine(
                self.node_words, self.shift, self.n, "node-prefix-closure"
            )
        return self._node_machine

    # -- Zero-round predicates ------------------------------------------

    def self_compatible_mask(self) -> int:
        """Labels L with LL allowed on an edge, as a mask."""
        return mask_from_ids(
            index for index in range(self.n) if self.compat[index] & bit(index)
        )

    def node_supports(self) -> frozenset[int]:
        """The distinct support masks of the node configurations
        (memoized: both zero-round predicates test them)."""
        if self._node_supports is None:
            self._node_supports = frozenset(
                word_support(word, self.shift) for word in self.node_words
            )
        return self._node_supports

    def pn_solvable(self) -> bool:
        """Mask form of the general-PN 0-round test (Lemma 12 setting)."""
        return any(
            all(is_subset(support, self.compat[index]) for index in iter_bits(support))
            for support in self.node_supports()
        )

    def symmetric_solvable(self) -> bool:
        """Mask form of the symmetric-port 0-round test (Lemma 12)."""
        self_compatible = self.self_compatible_mask()
        return any(
            is_subset(support, self_compatible) for support in self.node_supports()
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


#: The count-field width of packed edge words: ``2 .bit_length()``.
EDGE_SHIFT = 2


def word_support(word: int, shift: int) -> int:
    """The mask of the labels whose count field in ``word`` is non-zero."""
    field = (1 << shift) - 1
    support = 0
    label_bit = 1
    while word:
        if word & field:
            support |= label_bit
        word >>= shift
        label_bit <<= 1
    return support


def line_words(
    line: CondensedConfiguration, interner: LabelInterner, shift: int, phase: str
) -> set[int]:
    """The configurations ``line`` denotes, as packed words.

    A group ``[S]^e`` offers one :func:`pack_ids` word per
    ``combinations_with_replacement`` of its ids, ``e`` at a time, and
    each word of the line is the sum of one offer per group, so no
    :class:`~repro.core.configurations.Configuration` is built.  The
    configuration budget is probed under ``phase`` every 64 new words,
    as :meth:`CondensedConfiguration.expand` probes its own output.
    """
    options: list[list[int]] = []
    for disjunction, exponent in line.parts:
        # Summing a combination of single-label words packs it.
        singles = [1 << (shift * label_id) for label_id in interner.ids_of(disjunction.labels)]
        options.append(list(map(sum, itertools.combinations_with_replacement(singles, exponent))))
    words: set[int] = set()
    checked = 0
    for word in map(sum, itertools.product(*options)):
        if len(words) - checked >= 64:
            checked = len(words)
            _budget.check_configurations(checked, phase=phase)
        words.add(word)
    return words


def constraint_words(
    constraint: Constraint, interner: LabelInterner, shift: int, phase: str
) -> frozenset[int]:
    """Every configuration of ``constraint`` as a packed word.

    A constraint that keeps its lines is packed line by line, in
    :meth:`CondensedConfiguration.render` order (:func:`line_words`,
    probing under ``phase``, so the probes are the same in every
    process); any other packs its configurations.
    """
    lines = constraint.lines
    if lines is None:
        id_of = interner.id_of
        return frozenset(
            pack_ids(map(id_of, configuration.items), shift)
            for configuration in constraint.configurations
        )
    words: set[int] = set()
    for line in sorted(lines, key=CondensedConfiguration.render):
        words |= line_words(line, interner, shift, phase)
    return frozenset(words)


def closure_machine(
    words: Iterable[int], shift: int, label_count: int, phase: str
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The prefix closure of packed words, compiled to a transition machine.

    The closure, every sub-multiset of the given packed words
    (:func:`pack_ids`), is built downward, one size level at a time:
    every element of the next level down is an element of this level
    with one label removed (one subtract per occupied count field), so
    each sub-multiset is produced from its parents rather than from all
    ``2**size`` sub-combinations of every word.  The empty pack ``0`` is
    included whenever ``words`` is non-empty.  The walk starts from the
    words in sorted order, so its budget probes, strided under
    ``phase``, are the same in every process.

    Each subtract ``smaller = packed - step`` is an exact transition
    ``smaller + label = packed``, and the walk makes every one of them,
    since it removes every occupied field of every element.  So the
    walk also records the machine the node maximization runs on
    (:meth:`KernelProblem.node_dfs_machine`), and no add is ever made
    that could carry into a neighboring count field.
    Returns ``(elements, trans, extends)``: the packed closure in
    sorted order (index 0 is always the empty pack), the table
    ``trans[label][element]`` of the element index of ``element +
    label`` (``-1`` when it leaves the closure), and ``extends[e]``,
    the mask of labels with a transition from element ``e``.
    """
    field = (1 << shift) - 1
    closure: set[int] = set()
    level: list[int] = []
    for packed in sorted(words):
        if packed not in closure:
            closure.add(packed)
            level.append(packed)
    # Per label, the packed targets of the transitions the walk found;
    # each source is its target minus the label's single-label word.
    targets: list[list[int]] = [[] for _ in range(label_count)]
    checked = 0
    while level:
        below: list[int] = []
        for packed in level:
            # Stride the probe: small closures stay silent, runaway
            # growth is caught within 64 packed prefixes.
            if len(closure) - checked >= 64:
                checked = len(closure)
                _budget.check_configurations(len(closure), phase=phase)
            remaining = packed
            step = 1
            label_id = 0
            while remaining:
                if remaining & field:
                    smaller = packed - step
                    targets[label_id].append(packed)
                    if smaller not in closure:
                        closure.add(smaller)
                        below.append(smaller)
                remaining >>= shift
                step <<= shift
                label_id += 1
        level = below
    elements = tuple(sorted(closure))
    index = {element: position for position, element in enumerate(elements)}
    size = len(elements)
    extends = [0] * size
    trans: list[tuple[int, ...]] = []
    for label_id, found in enumerate(targets):
        row = [-1] * size
        step = 1 << (shift * label_id)
        label_bit = 1 << label_id
        for target in found:
            source = index[target - step]
            row[source] = index[target]
            extends[source] |= label_bit
        trans.append(tuple(row))
    return elements, tuple(trans), tuple(extends)


# hotpath
def _maximization_dfs(
    candidates: tuple[int, ...],
    minimal_labels: tuple[tuple[int, ...], ...],
    trans: tuple[tuple[int, ...], ...],
    extends: tuple[int, ...],
    arity: int,
) -> list[tuple[int, ...]]:
    """The iterative all-or-nothing DFS over the closure machine.

    One explicit-stack loop searches every multiset of right-closed
    sets, under the ``"node-maximization"`` budget phase.  Frames are
    ``[cursor, frontier, best, key]``, and a frame's depth is its
    position on the stack.  A frontier is a short dict whose keys are
    the closure-machine element indices the prefix reaches, ``best`` is
    ``best(F)``, the labels every one of them extends by (the AND of
    ``extends`` over it, computed once per accepted prefix), and
    ``key`` holds the prefix's candidate indices packed ``width`` bits
    apiece.

    Each candidate is walked through its ``minimal_labels``
    (:meth:`KernelProblem.node_minimal_labels`), not all its members.
    The prefix closure is closed under strengthening a label, so a
    frontier grown through a stronger member only adds strengthenings
    of elements grown through a weaker one; every all-or-nothing test,
    ``best(F)``, leaf and output is the same, and so is the search
    tree.  The all-or-nothing test is one small-int test: candidate
    ``c`` extends every element of ``F`` by each of its minimal labels
    exactly when ``required[c]``, the mask of those labels, lies inside
    ``best(F)``.  A step that passes reads ``trans[label][element]``
    for each minimal label and frontier element.

    The search stops at depth ``arity - 1`` and closes the last
    coordinate instead of searching it.  A prefix with frontier ``F``
    admits a last set ``S`` exactly when ``S`` is inside ``best(F)``.
    ``best(F)`` is right-closed — validity survives strengthening a
    label — hence a candidate, and every other completion is dominated
    by it, so the prefix emits the one leaf ``(prefix, best(F))`` when
    ``best(F)`` is non-empty and not before the prefix's last set in
    candidate order.  Every maximal configuration is emitted this way,
    in the order the full search listed it.

    The closing prefixes, at depth ``arity - 1``, are evaluated inside
    their parent's loop: a frame at depth ``arity - 2`` leaves the
    stack and runs through all its remaining candidates at once, with
    no child frame or frontier.  A closing prefix needs only its
    ``best``, the AND over the parent's frontier of ``closing[c][e]``:
    the AND of ``extends[trans[l][e]]`` over ``c``'s minimal labels
    ``l``, a per-candidate memo filled on first use.

    A leaf is kept as its key, the prefix's key with the candidate
    index of ``best`` above it.  A leaf is maximal iff each coordinate
    equals ``best`` of the others.  The complement of any coordinate is
    a depth-``arity - 1`` sub-multiset of a leaf, hence a prefix this
    search has closed, so every coordinate is checked after the search
    against the per-prefix memo (candidate index of ``best``, ``-1``
    for none, by key), and only the kept keys are decoded into tuples
    of sets.  The timing counters ``node_max.frames`` (prefixes opened,
    closed ones included) and ``node_max.leaves`` (leaves emitted
    before any filter) go to the open span once per call.
    """
    count = len(candidates)
    position = {mask: index for index, mask in enumerate(candidates)}
    width = max(count.bit_length(), 1)
    # Per candidate: the transition rows of its minimal labels,
    # ``required[c]``, the mask of those labels, and the closing memo.
    steps = [
        tuple(trans[label_id] for label_id in labels) for labels in minimal_labels
    ]
    required = [mask_from_ids(labels) for labels in minimal_labels]
    closing: list[dict[int, int]] = [{} for _ in minimal_labels]
    best_index: dict[int, int] = {}
    leaf_keys: list[int] = []
    frames = 0
    last = arity - 1
    closer = last - 1
    phase = "node-maximization"
    _budget.check_configurations(0, phase=phase, depth=0)
    stack: list[list] = []
    if last == 0:
        if extends[0]:
            leaf_keys.append(position[extends[0]])
    else:
        stack.append([0, {0: None}, extends[0], 0])
    while stack:
        depth = len(stack) - 1
        frame = stack[-1]
        if depth == closer:
            stack.pop()
            start, frontier, best, key = frame
            below = width * depth
            for cursor in range(start, count):
                if required[cursor] & ~best:
                    continue
                memo = closing[cursor]
                closed = -1
                for element in frontier:
                    value = memo.get(element)
                    if value is None:
                        value = -1
                        for row in steps[cursor]:
                            value &= extends[row[element]]
                        memo[element] = value
                    closed &= value
                frames += 1
                prefix = key | (cursor << below)
                _budget.check_configurations(len(leaf_keys), phase=phase, depth=last)
                index = position[closed] if closed else -1
                best_index[prefix] = index
                if index >= cursor:
                    _budget.check_configurations(
                        len(leaf_keys), phase=phase, depth=arity
                    )
                    leaf_keys.append(prefix | (index << (below + width)))
            continue
        cursor = frame[0]
        if cursor == count:
            stack.pop()
            continue
        frame[0] = cursor + 1
        if required[cursor] & ~frame[2]:
            continue
        frontier = frame[1]
        grown = dict.fromkeys(
            [row[element] for row in steps[cursor] for element in frontier]
        )
        best = -1
        for element in grown:
            best &= extends[element]
        frames += 1
        _budget.check_configurations(len(leaf_keys), phase=phase, depth=depth + 1)
        stack.append([cursor, grown, best, frame[3] | (cursor << (width * depth))])
    _trace.add("node_max.frames", frames)
    _trace.add("node_max.leaves", len(leaf_keys))
    field = (1 << width) - 1
    fields = range(0, width * arity, width)
    kept: list[tuple[int, ...]] = []
    for key in leaf_keys:
        for coordinate in range(last):
            below = width * coordinate
            complement = (key & ((1 << below) - 1)) | (
                (key >> (below + width)) << below
            )
            if best_index[complement] != (key >> below) & field:
                break
        else:
            kept.append(tuple([candidates[(key >> below) & field] for below in fields]))
    return kept


def maximize_node_constraint_kernel(problem: Problem) -> Constraint:
    """Kernel twin of :func:`repro.core.round_elimination.maximize_node_constraint`.

    Runs :func:`_maximization_dfs` in-process, with per-node budget
    checkpoints exactly like the reference implementation.
    """
    kernel = KernelProblem.of(problem)
    interner = kernel.interner
    with _prof_section("node_max.right_closed"):
        candidates = kernel.node_right_closed_sets()
        minimal_labels = kernel.node_minimal_labels()
    _trace.add("node.right_closed_sets", len(candidates))
    with _prof_section("node_max.machine"):
        _elements, trans, extends = kernel.node_dfs_machine()
    delta = kernel.delta
    with _prof_section("node_max.dfs"):
        maximal = _maximization_dfs(
            candidates, minimal_labels, trans, extends, delta
        )
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

def existential_constraint_kernel(
    old_constraint: Constraint,
    new_labels: Iterable[frozenset],
    arity: int,
) -> Constraint:
    """Kernel twin of :func:`repro.core.round_elimination.existential_constraint`.

    Section 2.3's simple method, line for line: each old line maps to
    one new line (:func:`existential_line`), where a group of exponent
    ``e`` becomes the disjunction of the new labels that meet it, with
    exponent ``e``.  A constraint built from configurations is read as
    one single-label line per configuration
    (:meth:`CondensedConfiguration.of`, as
    :func:`~repro.core.round_elimination.existential_condensed` reads
    one).  A line with a group that no new label meets has no choice
    over the new labels and is dropped.  The mapped lines denote
    exactly the configurations the reference search enumerates, the
    output keeps them, and nothing is expanded here.  Under a
    configuration budget the output is counted
    (:func:`configuration_count`), so the cap trips as it does on the
    reference engine.  ``arity`` must be the old constraint's.

    Unequal new labels that render alike have no canonical order
    inside a line; the reference lists them as they come in the sorted
    new labels (a stable sort by rendering), so when two of them tie
    the output is expanded in that order instead.
    """
    if arity != old_constraint.arity:
        raise EngineMisuse(
            f"existential step of arity {arity} on a constraint of arity "
            f"{old_constraint.arity}",
            arity=arity,
            old_arity=old_constraint.arity,
        )
    _budget.check_configurations(0, phase="existential", depth=0)
    with _prof_section("exists.lines"):
        lines: Iterable[CondensedConfiguration] | None = old_constraint.lines
        if lines is None:
            lines = map(CondensedConfiguration.of, old_constraint.configurations)
        labels = sorted(set(new_labels), key=_set_sort_key)
        tied = len(set(map(render_label, labels))) < len(labels)
        covered = frozenset().union(*labels)
        mapped = [
            existential_line(line, labels)
            for line in lines
            if all(not disjunction.labels.isdisjoint(covered) for disjunction, _ in line.parts)
        ]
    if not mapped:
        raise InvalidProblem(
            "existential step produced an empty constraint",
            arity=arity,
            alphabet_size=len(labels),
            old_configurations=len(old_constraint),
        )
    result = Constraint.from_condensed(mapped)
    budget = _budget.current_budget()
    if budget is not None and budget.max_configurations is not None:
        configuration_count(result)  # probes the cap as it counts
    if tied:
        rank = {label: place for place, label in enumerate(sorted(labels, key=render_label))}
        return Constraint(
            Configuration._presorted(tuple(sorted(configuration.items, key=rank.__getitem__)))
            for configuration in result.configurations
        )
    return result


def configuration_count(constraint: Constraint) -> int:
    """``len(constraint)``, counted on packed words
    (:func:`constraint_words`), so that a line-built constraint builds
    no configuration.

    The count probes the configuration budget under the
    ``"existential"`` phase every 64 new words of a line and once at
    the end, as the reference search probes its output as it grows.
    """
    count = len(
        constraint_words(
            constraint,
            LabelInterner(constraint.labels_used()),
            constraint.arity.bit_length(),
            "existential",
        )
    )
    _budget.check_configurations(count, phase="existential", depth=constraint.arity)
    return count


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
        # Counting a line-built output costs a pass over its
        # configurations, which only a traced run pays.
        if _trace.tracing_enabled():
            with _prof_section("exists.count"):
                span.add("node.configs.out", configuration_count(node_constraint))
        span.add("edge.configs.out", len(edge_constraint))
    name = f"R({problem.name})" if problem.name else "R"
    return Problem(Alphabet(sigma), node_constraint, edge_constraint, name=name)


def kernel_Rbar(problem: Problem) -> Problem:
    """Kernel twin of :func:`repro.core.round_elimination.Rbar`."""
    with _trace.span(
        "op.Rbar", engine="kernel", problem=problem.name, delta=problem.delta
    ) as span:
        span.add("labels.in", len(problem.alphabet))
        node_constraint = maximize_node_constraint_kernel(problem)
        sigma = sorted(node_constraint.labels_used(), key=_set_sort_key)
        _budget.check_alphabet(
            len(sigma), operator="Rbar", alphabet_before=len(problem.alphabet)
        )
        edge_constraint = existential_constraint_kernel(
            problem.edge_constraint, sigma, 2
        )
        span.add("labels.out", len(sigma))
        span.add("node.configs.out", len(node_constraint))
        if _trace.tracing_enabled():
            with _prof_section("exists.count"):
                span.add("edge.configs.out", configuration_count(edge_constraint))
    name = f"Rbar({problem.name})" if problem.name else "Rbar"
    return Problem(Alphabet(sigma), node_constraint, edge_constraint, name=name)


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
    "zero_round_solvable_pn_kernel",
    "zero_round_solvable_symmetric_kernel",
    "pack_ids",
    "partner_mask",
    "closure_machine",
]
