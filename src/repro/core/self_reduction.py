"""The self-reduction operator: condense, speed up, condense again.

Iterated round elimination blows alphabets up doubly exponentially, so
a chain that keeps applying ``speedup`` drowns in labels after two or
three steps.  The self-reduction route (Khoury-Schild, arXiv
2505.15654) interleaves each speedup with a *complexity-preserving
condensation*: merge labels that are equivalent w.r.t. both
constraints, then repeatedly drop any label dominated by another in
both diagrams.  Both moves are exact — merging is a 0-round relabeling
in both directions, and removing a dominated label keeps the problem
no easier (solutions restrict) and no harder (rewrite the weak label
as the dominating one in 0 rounds), so

    T(condense(P)) = T(P)   and   T(self_reduce(P)) = T(P) - 1

on high-girth graphs.  A chain of ``k`` self-reduction steps whose
iterates are all zero-round unsolvable therefore certifies ``T >= k``,
and a nontrivial isomorphism fixed point certifies the
Omega(log n)-style bound of the fixed-point method (Sec. 1.2 of the
paper).  :func:`self_reduction_chain` drives the steps with
:func:`repro.core.simplify.iterate_chain`, exactly as
:func:`repro.core.simplify.iterate_speedup` does for the merge-only
trajectory, and counts certified rounds with
:func:`repro.core.solvability.certify_chain`.  :data:`CHAIN_STEPS` is
the one table of chain operators that run on a problem.

Determinism and caching: every condensation decision (merge
representatives, removal candidate order) is keyed by the *canonical
ids* of :func:`repro.core.cache.canonical_form`, computed once on the
input.  The whole pass is thus a pure function of the problem's
canonical encoding, which makes the
:func:`repro.core.cache.cached_condensation` transport sound and the
warm rerun byte-identical to a cold one.

Both engines implement the strength tests: the reference path uses
:class:`repro.core.diagram.Diagram`, the kernel path the bitmask
oracles :meth:`KernelProblem.node_ge_masks` /
:meth:`KernelProblem.edge_ge_masks`.  The differential oracle in
``tests/oracle.py`` holds them to exact equality.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable
from dataclasses import dataclass
from functools import partial

from repro.core import cache as _cache
from repro.core.diagram import Diagram
from repro.core.problem import Problem
from repro.core.round_elimination import SpeedupResult, speedup
from repro.core.simplify import iterate_chain
from repro.core.solvability import ZERO_ROUND_TESTS, ChainOutcome, certify_chain
from repro.observability import trace as _trace
from repro.robustness import budget as _budget
from repro.robustness.errors import EngineMisuse

StrengthTest = Callable[[Hashable, Hashable], bool]


def _strength_tests(
    problem: Problem, use_kernel: bool
) -> tuple[StrengthTest, StrengthTest]:
    """``(node_ge, edge_ge)`` replacement-test oracles for ``problem``."""
    if use_kernel:
        from repro.core.kernel.bitops import bit
        from repro.core.kernel.engine import KernelProblem

        kernel = KernelProblem.of(problem)
        node_masks = kernel.node_ge_masks()
        edge_masks = kernel.edge_ge_masks()
        id_of = kernel.interner.id_of

        def node_ge(strong: Hashable, weak: Hashable) -> bool:
            return bool(node_masks[id_of(weak)] & bit(id_of(strong)))

        def edge_ge(strong: Hashable, weak: Hashable) -> bool:
            return bool(edge_masks[id_of(weak)] & bit(id_of(strong)))

        return node_ge, edge_ge
    node_diagram = Diagram(problem.node_constraint, problem.alphabet)
    edge_diagram = Diagram(problem.edge_constraint, problem.alphabet)
    return node_diagram.at_least_as_strong, edge_diagram.at_least_as_strong


def _condense_uncached(problem: Problem, *, use_kernel: bool) -> Problem:
    rank = {
        label: position
        for position, label in enumerate(_cache.canonical_form(problem).order)
    }
    with _trace.span(
        "op.condense",
        engine="kernel" if use_kernel else "reference",
        problem=problem.name,
        delta=problem.delta,
    ) as span:
        span.add("labels.in", len(problem.alphabet))
        current = problem
        merged_total = 0
        removed_total = 0
        while True:
            _budget.checkpoint(phase="condense")
            node_ge, edge_ge = _strength_tests(current, use_kernel)
            labels = sorted(current.alphabet, key=rank.__getitem__)
            # Merge pass: group mutually-strong labels, keeping the
            # canonically smallest member of each class.
            classes: list[list[Hashable]] = []
            for label in labels:
                for group in classes:
                    representative = group[0]
                    if (
                        node_ge(label, representative)
                        and node_ge(representative, label)
                        and edge_ge(label, representative)
                        and edge_ge(representative, label)
                    ):
                        group.append(label)
                        break
                else:
                    classes.append([label])
            if any(len(group) > 1 for group in classes):
                mapping: dict[Hashable, Hashable] = {}
                for group in classes:
                    for member in group:
                        mapping[member] = group[0]
                kept = [
                    label
                    for label in current.alphabet
                    if mapping[label] == label
                ]
                merged_total += len(current.alphabet) - len(kept)
                current = Problem(
                    kept,
                    current.node_constraint.rename(mapping),
                    current.edge_constraint.rename(mapping),
                    name=current.name,
                )
                continue
            # Removal pass: drop the canonically first label dominated
            # by another in both diagrams (an exact simplification).
            removal: Hashable | None = None
            for weak in labels:
                for strong in labels:
                    if strong == weak:
                        continue
                    if node_ge(strong, weak) and edge_ge(strong, weak):
                        removal = weak
                        break
                if removal is not None:
                    break
            if removal is None:
                break
            removed_total += 1
            remaining = [
                label for label in current.alphabet if label != removal
            ]
            current = Problem(
                remaining,
                current.node_constraint.restrict_to(remaining),
                current.edge_constraint.restrict_to(remaining),
                name=current.name,
            )
        span.add("selfred.merged_labels", merged_total)
        span.add("selfred.removed_labels", removed_total)
        span.add("labels.out", len(current.alphabet))
    return current


def condense_problem(problem: Problem, *, use_kernel: bool = False) -> Problem:
    """The exact condensation of ``problem`` (same complexity, fewer labels).

    Alternates merging equivalence classes of mutually-strong labels
    with certified dominated-label removals until neither applies.
    Idempotent, deterministic, and equivariant under label bijections;
    memoized through the ambient :func:`repro.core.cache.caching` store
    by the problem's renaming-invariant fingerprint.
    """
    return _cache.cached_condensation(
        problem, lambda: _condense_uncached(problem, use_kernel=use_kernel)
    )


@dataclass(frozen=True)
class SelfReductionStep:
    """The record of one full self-reduction step."""

    original: Problem
    condensed: Problem             #: condense(original)
    speedup: SpeedupResult         #: the Rbar(R(.)) step on the condensed problem
    problem: Problem               #: condense(speedup.problem) - the result

    @property
    def fixed_point(self) -> bool:
        """Whether the step mapped the condensed problem onto itself
        (up to renaming) - the Sec. 1.2 fixed-point certificate."""
        return self.problem.is_isomorphic(self.condensed)


def self_reduce(
    problem: Problem, *, use_kernel: bool = False
) -> SelfReductionStep:
    """One self-reduction step: ``condense(speedup(condense(problem)))``.

    The result has complexity exactly ``max(T - 1, 0)`` on high-girth
    graphs when ``problem`` has complexity ``T`` (Theorem 3 for the
    speedup, exactness of both condensation moves for the rest).
    ``use_kernel`` threads through to the component operators; output
    is identical either way.
    """
    with _trace.span(
        "op.self_reduce",
        engine="kernel" if use_kernel else "reference",
        problem=problem.name,
        delta=problem.delta,
    ) as span:
        span.add("labels.in", len(problem.alphabet))
        condensed = condense_problem(problem, use_kernel=use_kernel)
        sped = speedup(condensed, use_kernel=use_kernel)
        reduced = condense_problem(sped.problem, use_kernel=use_kernel)
        span.add("labels.out", len(reduced.alphabet))
    return SelfReductionStep(
        original=problem,
        condensed=condensed,
        speedup=sped,
        problem=reduced,
    )


def _speedup_step(
    problem: Problem, *, use_kernel: bool = False
) -> tuple[Problem, bool]:
    """One plain ``Rbar(R(.))`` step; a fixed point is an isomorphic image."""
    result = speedup(problem, use_kernel=use_kernel).problem
    return result, result.is_isomorphic(problem)


def _self_reduce_step(
    problem: Problem, *, use_kernel: bool = False
) -> tuple[Problem, bool]:
    """One budget-checked :func:`self_reduce` step and its fixed-point flag."""
    _budget.checkpoint(phase="self-reduction")
    step = self_reduce(problem, use_kernel=use_kernel)
    return step.problem, step.fixed_point


#: Chain operator name -> one step of that chain, as
#: :func:`repro.core.simplify.iterate_chain` drives it.  ``lemma13`` is
#: not here: it is parameterized by ``(delta, x)``, not by a problem.
CHAIN_STEPS: dict[str, Callable[..., tuple[Problem, bool]]] = {
    "speedup": _speedup_step,
    "self-reduce": _self_reduce_step,
}


def self_reduction_chain(
    problem: Problem,
    max_steps: int,
    *,
    policy: str = "pn",
    use_kernel: bool = False,
) -> ChainOutcome:
    """Iterate :func:`self_reduce`, tracking what the chain certifies.

    ``certified_rounds`` counts the leading iterates that are zero-round
    unsolvable under ``policy`` ("pn" for the general port-numbering
    model, "symmetric" for symmetric ports): each step loses exactly one
    round, so ``k`` leading nontrivial iterates certify ``T >= k`` for
    the condensed start problem.  Stops early at an isomorphism fixed
    point; a nontrivial fixed point upgrades the bound to the
    Omega(log n)-style conclusion of the fixed-point method.
    """
    if policy not in ZERO_ROUND_TESTS:
        raise EngineMisuse(
            "self-reduction policy must be 'pn' or 'symmetric'", policy=policy
        )
    if max_steps < 0:
        raise EngineMisuse(
            "self-reduction chain needs max_steps >= 0", max_steps=max_steps
        )
    with _trace.span(
        "selfred.chain",
        engine="kernel" if use_kernel else "reference",
        problem=problem.name,
        policy=policy,
    ) as span:
        trajectory = iterate_chain(
            condense_problem(problem, use_kernel=use_kernel),
            partial(_self_reduce_step, use_kernel=use_kernel),
            max_steps,
        )
        outcome = certify_chain(trajectory, policy, use_kernel=use_kernel)
        span.add("selfred.steps", outcome.steps)
        span.add("chain.steps", outcome.steps)
    return outcome


__all__ = [
    "condense_problem",
    "SelfReductionStep",
    "self_reduce",
    "CHAIN_STEPS",
    "self_reduction_chain",
]
