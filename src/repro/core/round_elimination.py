"""The round-elimination operators R and R-bar (paper, Sec. 2.3).

One full round-elimination step maps a problem ``P`` with complexity
``T`` to ``Rbar(R(P))`` with complexity ``max(T - 1, 0)`` on high-girth
graphs (Theorem 3, after Brandt PODC'19).  ``R`` performs the
*maximization* step on the edge constraint and the *existential* step
on the node constraint; ``Rbar`` does the converse.

The labels of ``R(P)`` and ``Rbar(P)`` are ``frozenset`` labels — sets
of labels of ``P`` — and by Observation 4 of the paper they are always
right-closed with respect to the constraint that was maximized.  The
implementation exploits this: the arity-Delta maximization enumerates
candidate configurations over right-closed sets only, with a
prefix-closure pruned depth-first search.  An exhaustive reference
implementation (no right-closure shortcut) lives in the test suite and
cross-validates these fast paths on small instances.
"""

from __future__ import annotations

import itertools
from collections.abc import Hashable, Iterable
from dataclasses import dataclass


from repro.core import cache as _cache
from repro.core.cache import _set_sort_key
from repro.core.configurations import (
    CondensedConfiguration,
    Configuration,
    Disjunction,
    insert_canonical,
    render_map,
)
from repro.core.constraints import Constraint
from repro.core.diagram import Diagram
from repro.core.labels import Alphabet, fresh_names
from repro.core.problem import Problem
from repro.observability import trace as _trace
from repro.observability.profiling import section as _prof_section
from repro.robustness import budget as _budget
from repro.robustness.errors import InvalidProblem


# ---------------------------------------------------------------------------
# Maximization steps
# ---------------------------------------------------------------------------

def maximize_edge_constraint(problem: Problem) -> Constraint:
    """The maximal edge configurations over set labels (step one of R).

    Uses the Galois connection ``f(A) = {b : ab allowed for all a in A}``:
    the maximal configurations are exactly the pairs ``(A, f(A))`` with
    ``A = f(f(A))``, and the closed sets form the intersection lattice
    generated by the single-label images ``f({a})``.
    """
    alphabet = list(problem.alphabet)

    def partner(labels: frozenset) -> frozenset:
        compatible = None
        for label in labels:
            allowed = problem.compatible_labels(label)
            compatible = allowed if compatible is None else compatible & allowed
        return compatible if compatible is not None else frozenset()

    generators = {partner(frozenset([label])) for label in alphabet}
    generators.discard(frozenset())
    closed_sets: set[frozenset] = set(generators)
    frontier = list(generators)
    while frontier:
        _budget.check_configurations(
            len(closed_sets), phase="edge-maximization"
        )
        current = frontier.pop()
        for other in list(closed_sets):
            meet = current & other
            if meet and meet not in closed_sets:
                closed_sets.add(meet)
                frontier.append(meet)
    _trace.add("edge.closed_sets", len(closed_sets))
    configurations: set[Configuration] = set()
    for left in closed_sets:
        right = partner(left)
        if right and partner(right) == left:
            configurations.add(Configuration((left, right)))
    if not configurations:
        raise InvalidProblem(
            "edge constraint admits no maximal configuration",
            operator="R",
            alphabet_size=len(alphabet),
            closed_sets=len(closed_sets),
        )
    return Constraint(configurations)


def maximize_node_constraint(problem: Problem) -> Constraint:
    """The maximal node configurations over set labels (step one of Rbar).

    A configuration ``B_1 ... B_Delta`` of non-empty label sets is a
    candidate when every choice ``(b_1, ..., b_Delta)`` is an allowed
    node configuration; the result keeps the maximal candidates only.
    The search runs over right-closed sets (sound by Observation 4) in
    non-decreasing order, pruning any prefix some of whose choices fall
    outside the *prefix closure* (sub-multisets of allowed
    configurations).
    """
    node_constraint = problem.node_constraint
    delta = problem.delta
    diagram = Diagram(node_constraint, problem.alphabet)
    candidate_sets = sorted(diagram.right_closed_sets(), key=_set_sort_key)
    _trace.add("node.right_closed_sets", len(candidate_sets))
    closure = _prefix_closure(node_constraint)
    order = render_map(candidate_sets)
    results: list[tuple[frozenset, ...]] = []

    def extend(start: int, chosen: list[frozenset], frontier: frozenset) -> None:
        _budget.check_configurations(
            len(results), phase="node-maximization", depth=len(chosen)
        )
        if len(chosen) == delta:
            # Every full-length multiset in the frontier is a sub-multiset
            # of an allowed configuration of the right length, hence allowed.
            results.append(tuple(chosen))
            return
        for index in range(start, len(candidate_sets)):
            candidate = candidate_sets[index]
            grown = _grow_frontier(frontier, candidate, closure, order)
            if grown is None:
                continue
            chosen.append(candidate)
            extend(index, chosen, grown)
            chosen.pop()

    empty = frozenset([()])
    extend(0, [], empty)
    maximal = _prune_non_maximal(results, candidate_sets)
    if not maximal:
        raise InvalidProblem(
            "node constraint admits no maximal configuration",
            operator="Rbar",
            alphabet_size=len(problem.alphabet),
            delta=delta,
            candidate_sets=len(candidate_sets),
        )
    return Constraint(Configuration(sets) for sets in maximal)


def _prefix_closure(constraint: Constraint) -> frozenset[tuple]:
    """All sub-multisets (canonical sorted tuples) of allowed configurations."""
    closure: set[tuple] = set()
    for configuration in constraint.configurations:
        items = configuration.items
        for size in range(len(items) + 1):
            for subset in itertools.combinations(items, size):
                closure.add(subset)
    return frozenset(closure)


def _grow_frontier(
    frontier: frozenset[tuple],
    candidate: frozenset,
    closure: frozenset[tuple],
    order: dict[Hashable, str],
) -> frozenset[tuple] | None:
    """Extend every partial choice by every label of ``candidate``.

    Partials are kept sorted by their labels' renderings (``order``).
    Returns the new frontier, or ``None`` if some extension leaves the
    prefix closure (meaning some full choice would be disallowed).
    """
    grown: set[tuple] = set()
    for partial in frontier:
        for label in candidate:
            extended = insert_canonical(partial, label, order)
            if extended not in closure:
                return None
            grown.add(extended)
    return frozenset(grown)


def _prune_non_maximal(
    configurations: list[tuple[frozenset, ...]],
    candidate_sets: list[frozenset],
) -> list[tuple[frozenset, ...]]:
    """Drop configurations relaxable into a different passing one.

    Since "every choice is allowed" is monotone under shrinking sets, a
    passing configuration B is dominated by some passing Z >= B iff
    already some *single-coordinate enlargement* of B (one set replaced
    by a strict right-closed superset) is passing — walking from B to Z
    one coordinate at a time stays pointwise below Z and hence passing.
    Membership of each enlargement is a hash lookup in the complete
    passing list, so pruning is near-linear instead of quadratic.
    """
    set_keys = {labels: _set_sort_key(labels) for labels in candidate_sets}

    def canonical(sets: Iterable[frozenset]) -> tuple:
        return tuple(sorted(sets, key=set_keys.__getitem__))

    passing = {canonical(sets) for sets in configurations}
    supersets: dict[frozenset, list[frozenset]] = {
        labels: [other for other in candidate_sets if labels < other]
        for labels in candidate_sets
    }
    keep: list[tuple[frozenset, ...]] = []
    for sets in configurations:
        dominated = False
        unique_positions = {labels: index for index, labels in enumerate(sets)}
        for labels, index in unique_positions.items():
            for bigger in supersets[labels]:
                enlarged = list(sets)
                enlarged[index] = bigger
                if canonical(enlarged) in passing:
                    dominated = True
                    break
            if dominated:
                break
        if not dominated:
            keep.append(sets)
    return keep


# ---------------------------------------------------------------------------
# Existential steps
# ---------------------------------------------------------------------------

def existential_constraint(
    old_constraint: Constraint, new_labels: Iterable[frozenset], arity: int
) -> Constraint:
    """All arity-``arity`` configurations over ``new_labels`` with some
    choice allowed by ``old_constraint`` (the second halves of R / Rbar)."""
    labels = sorted(set(new_labels), key=_set_sort_key)
    closure = _prefix_closure(old_constraint)
    order = render_map(labels)
    rendered = render_map([labels])
    results: set[Configuration] = set()

    def extend(start: int, chosen: list[frozenset], frontier: frozenset) -> None:
        _budget.check_configurations(
            len(results), phase="existential", depth=len(chosen)
        )
        if len(chosen) == arity:
            results.add(Configuration._presorted(
                tuple(sorted(chosen, key=rendered.__getitem__))
            ))
            return
        for index in range(start, len(labels)):
            candidate = labels[index]
            grown = _grow_frontier_exists(frontier, candidate, closure, order)
            if not grown:
                continue
            chosen.append(candidate)
            extend(index, chosen, grown)
            chosen.pop()

    extend(0, [], frozenset([()]))
    if not results:
        raise InvalidProblem(
            "existential step produced an empty constraint",
            arity=arity,
            alphabet_size=len(labels),
            old_configurations=len(old_constraint),
        )
    return Constraint(results)


def _grow_frontier_exists(
    frontier: frozenset[tuple],
    candidate: frozenset,
    closure: frozenset[tuple],
    order: dict[Hashable, str],
) -> frozenset[tuple]:
    """Like :func:`_grow_frontier` but keeps only surviving choices."""
    grown: set[tuple] = set()
    for partial in frontier:
        for label in candidate:
            extended = insert_canonical(partial, label, order)
            if extended in closure:
                grown.add(extended)
    return frozenset(grown)


def existential_condensed(
    configuration: Configuration | CondensedConfiguration,
    new_labels: Iterable[frozenset],
) -> CondensedConfiguration:
    """The condensed replacement form of the existential step.

    Implements the "simple method" of Section 2.3: replace each group of
    ``configuration`` by the disjunction of all new set labels meeting
    it, keeping the group's exponent.  A group is a label of a plain
    configuration (the new labels containing it) or a disjunction of a
    condensed line (the new labels sharing a label with it).  This is
    how Lemma 6 displays the node constraint of R(Pi).  Raises
    :class:`InvalidProblem` when some group meets no new label.
    """
    if isinstance(configuration, Configuration):
        configuration = CondensedConfiguration.of(configuration)
    line = existential_line(configuration, list(new_labels))
    _trace.add("condensed.configs")
    return line


def existential_line(
    line: CondensedConfiguration, new_labels: list[frozenset]
) -> CondensedConfiguration:
    """The rule of :func:`existential_condensed` on one condensed line,
    without its trace counter.

    The line denotes exactly the configurations over ``new_labels`` that
    have some choice in ``line``: a choice picks, per position, a label
    both in the position's set and in the group it is matched to, which
    exists exactly when the set meets that group.  The kernel's
    line-to-line existential step applies this to every line.
    """
    parts: list[tuple[Disjunction, int]] = []
    for disjunction, exponent in line.parts:
        meeting = [
            candidate
            for candidate in new_labels
            if not candidate.isdisjoint(disjunction.labels)
        ]
        if not meeting:
            text = disjunction.render()
            what = f"label {text}" if len(disjunction) == 1 else f"group {text}"
            raise InvalidProblem(
                f"{what} occurs in no new set label",
                alphabet_size=len(new_labels),
                configuration=line.render(),
            )
        parts.append((Disjunction(meeting), exponent))
    return CondensedConfiguration(parts)


# ---------------------------------------------------------------------------
# The R / Rbar operators and renaming
# ---------------------------------------------------------------------------

def R(problem: Problem, *, use_kernel: bool = False) -> Problem:
    """One maximization-on-edges step: the problem Pi' of Section 2.3.

    With ``use_kernel=True`` the interned bitmask fast path
    (:mod:`repro.core.kernel`) computes the same result; this object
    implementation remains the reference the kernel is differentially
    tested against.  With an ambient :func:`repro.core.cache.caching`
    store the whole operator is memoized by the problem's
    renaming-invariant fingerprint.
    """
    return _cache.cached_problem_operator(
        "R", problem, lambda: _R_uncached(problem, use_kernel=use_kernel)
    )


def _R_uncached(problem: Problem, *, use_kernel: bool = False) -> Problem:
    if use_kernel:
        from repro.core.kernel.engine import kernel_R

        return kernel_R(problem)
    with _trace.span(
        "op.R", engine="reference", problem=problem.name, delta=problem.delta
    ) as span:
        span.add("labels.in", len(problem.alphabet))
        edge_constraint = maximize_edge_constraint(problem)
        sigma = sorted(edge_constraint.labels_used(), key=_set_sort_key)
        _budget.check_alphabet(
            len(sigma), operator="R", alphabet_before=len(problem.alphabet)
        )
        node_constraint = existential_constraint(
            problem.node_constraint, sigma, problem.delta
        )
        span.add("labels.out", len(sigma))
        span.add("node.configs.out", len(node_constraint))
        span.add("edge.configs.out", len(edge_constraint))
    name = f"R({problem.name})" if problem.name else "R"
    return Problem(Alphabet(sigma), node_constraint, edge_constraint, name=name)


def Rbar(problem: Problem, *, use_kernel: bool = False) -> Problem:
    """One maximization-on-nodes step: the problem Pi'' of Section 2.3.

    With ``use_kernel=True`` the bitmask fast path runs instead.  With
    an ambient :func:`repro.core.cache.caching` store the whole
    operator is memoized by the problem's renaming-invariant
    fingerprint.
    """
    return _cache.cached_problem_operator(
        "Rbar", problem, lambda: _Rbar_uncached(problem, use_kernel=use_kernel)
    )


def _Rbar_uncached(problem: Problem, *, use_kernel: bool = False) -> Problem:
    if use_kernel:
        from repro.core.kernel.engine import kernel_Rbar

        return kernel_Rbar(problem)
    with _trace.span(
        "op.Rbar", engine="reference", problem=problem.name, delta=problem.delta
    ) as span:
        span.add("labels.in", len(problem.alphabet))
        node_constraint = maximize_node_constraint(problem)
        sigma = sorted(node_constraint.labels_used(), key=_set_sort_key)
        _budget.check_alphabet(
            len(sigma), operator="Rbar", alphabet_before=len(problem.alphabet)
        )
        edge_constraint = existential_constraint(problem.edge_constraint, sigma, 2)
        span.add("labels.out", len(sigma))
        span.add("node.configs.out", len(node_constraint))
        span.add("edge.configs.out", len(edge_constraint))
    name = f"Rbar({problem.name})" if problem.name else "Rbar"
    return Problem(Alphabet(sigma), node_constraint, edge_constraint, name=name)


@dataclass(frozen=True)
class RenamedProblem:
    """A problem with string labels plus the renaming that produced it."""

    problem: Problem
    mapping: dict


def rename_to_strings(
    problem: Problem, naming: dict | None = None, name: str = ""
) -> RenamedProblem:
    """Rename ``frozenset`` labels to compact strings.

    By default each set of string labels is named by the concatenation
    of its sorted members (so ``{M, X}`` becomes ``MX`` — the style of
    Lemma 6's renaming table); a custom ``naming`` may override any
    label.  Name collisions fall back to fresh single characters.
    """
    naming = dict(naming or {})
    used: set[str] = set()
    mapping: dict = {}
    deferred: list[Hashable] = []
    for label in problem.alphabet:
        if label in naming:
            target = naming[label]
        elif isinstance(label, frozenset) and all(
            isinstance(member, str) for member in label
        ):
            target = "".join(sorted(label))
        elif isinstance(label, str):
            target = label
        else:
            deferred.append(label)
            continue
        if target in used:
            deferred.append(label)
            continue
        used.add(target)
        mapping[label] = target
    for label, fresh in zip(deferred, fresh_names(len(deferred), used)):
        mapping[label] = fresh
    renamed = problem.rename(mapping, name=name or problem.name)
    return RenamedProblem(problem=renamed, mapping=mapping)


@dataclass(frozen=True)
class SpeedupResult:
    """The full record of one round-elimination step Rbar(R(P))."""

    original: Problem
    intermediate: Problem          #: R(P), with frozenset labels
    intermediate_renamed: RenamedProblem
    final: Problem                 #: Rbar of the renamed intermediate
    final_renamed: RenamedProblem

    @property
    def problem(self) -> Problem:
        """The resulting problem with compact string labels."""
        return self.final_renamed.problem


def speedup(
    problem: Problem,
    naming: dict | None = None,
    *,
    use_kernel: bool = False,
) -> SpeedupResult:
    """One full step ``Rbar(R(problem))`` with automatic renaming.

    By Theorem 3 the result has complexity exactly ``max(T - 1, 0)`` on
    graphs of girth at least ``2T + 2`` when ``problem`` has complexity
    ``T`` (in the port-numbering model, also with t-independent inputs
    such as the Delta-edge coloring the paper uses).

    ``use_kernel=True`` routes both operators through the interned
    bitmask fast path.  Output is identical either way.  Under an ambient
    :func:`repro.core.cache.caching` store, ``speedup`` is memoized
    through its component ``R`` and ``Rbar`` lookups.
    """
    with _trace.span(
        "op.speedup",
        engine="kernel" if use_kernel else "reference",
        problem=problem.name,
        delta=problem.delta,
    ) as span:
        span.add("labels.in", len(problem.alphabet))
        intermediate = R(problem, use_kernel=use_kernel)
        with _prof_section("speedup.rename"):
            intermediate_renamed = rename_to_strings(intermediate, naming=naming)
        final = Rbar(intermediate_renamed.problem, use_kernel=use_kernel)
        with _prof_section("speedup.rename"):
            final_renamed = rename_to_strings(final)
        span.add("labels.out", len(final.alphabet))
    return SpeedupResult(
        original=problem,
        intermediate=intermediate,
        intermediate_renamed=intermediate_renamed,
        final=final,
        final_renamed=final_renamed,
    )
