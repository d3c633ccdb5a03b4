"""Zero-round solvability in the port-numbering model (Lemmas 12, 15).

Two instance families matter:

* The *general* PN model: a 0-round deterministic algorithm assigns one
  label to each port, identically at every node (all 0-round views are
  equal).  Any pairing of ports can occur on an edge, so the algorithm
  succeeds iff some allowed node configuration uses only pairwise
  edge-compatible labels.

* The paper's *symmetric-port* instances (Lemma 12): ports are assigned
  so that the edge of color i has port i at both endpoints.  Every edge
  then carries the same label on both sides, so the algorithm succeeds
  iff some allowed node configuration consists of self-compatible
  labels only.  Crucially this holds even with a Delta-edge coloring
  given as input, since the coloring equals the port numbering.

For randomized algorithms Lemma 15 turns the same observation into a
failure-probability bound of ``1 / (|N| * Delta)^2``, which for the
three-configuration family problems is ``1/(3 Delta)^2 >= 1/Delta^8``.

A chain certifies rounds under one of these two tests, its *policy*:
:data:`ZERO_ROUND_TESTS` maps each policy name to its test, and
:func:`certify_chain` counts the leading 0-round-unsolvable iterates
of a :class:`repro.core.simplify.Trajectory`.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from repro.core import cache as _cache
from repro.core.configurations import Configuration
from repro.core.problem import Problem
from repro.core.simplify import Trajectory
from repro.observability import trace as _trace


def zero_round_solvable_pn(problem: Problem, *, use_kernel: bool = False) -> bool:
    """Deterministic 0-round solvability in the general PN model.

    True iff some allowed node configuration's support is pairwise
    edge-compatible (including each label with itself, since the two
    endpoints of an edge may use equal port numbers).
    ``use_kernel=True`` evaluates the same predicate over interned
    bitmasks (support mask contained in every member's compatibility
    mask).
    """
    with _trace.span(
        "op.zero_round_pn",
        engine="kernel" if use_kernel else "reference",
        problem=problem.name,
        delta=problem.delta,
    ) as span:
        span.add("labels.in", len(problem.alphabet))

        def compute() -> bool:
            if use_kernel:
                from repro.core.kernel.engine import (
                    zero_round_solvable_pn_kernel,
                )

                return zero_round_solvable_pn_kernel(problem)
            return _pn_witness(problem) is not None

        return _cache.cached_verdict("zero-round-pn", problem, compute)


def zero_round_witness_pn(problem: Problem) -> Configuration | None:
    """The node configuration a 0-round PN algorithm could output."""
    return _pn_witness(problem)


def _pn_witness(problem: Problem) -> Configuration | None:
    for configuration in problem.node_constraint.configurations:
        support = configuration.support()
        if all(
            problem.edge_allows(first, second)
            for first, second in itertools.combinations_with_replacement(
                sorted(support, key=str), 2
            )
        ):
            return configuration
    return None


def zero_round_solvable_symmetric(
    problem: Problem, *, use_kernel: bool = False
) -> bool:
    """Deterministic 0-round solvability on Lemma 12's instances.

    The instances assign port i to both endpoints of every color-i edge,
    so both endpoints of an edge output the same label.  Solvable iff
    some allowed node configuration uses self-compatible labels only.
    The Delta-edge coloring input does not help: it coincides with the
    port numbering, which is already visible in 0 rounds.
    ``use_kernel=True`` checks support masks against the
    self-compatible mask instead of iterating label sets.
    """
    with _trace.span(
        "op.zero_round_symmetric",
        engine="kernel" if use_kernel else "reference",
        problem=problem.name,
        delta=problem.delta,
    ) as span:
        span.add("labels.in", len(problem.alphabet))

        def compute() -> bool:
            if use_kernel:
                from repro.core.kernel.engine import (
                    zero_round_solvable_symmetric_kernel,
                )

                return zero_round_solvable_symmetric_kernel(problem)
            return _symmetric_witness(problem) is not None

        return _cache.cached_verdict(
            "zero-round-symmetric", problem, compute
        )


def zero_round_witness_symmetric(problem: Problem) -> Configuration | None:
    """The witness configuration for the symmetric-port test."""
    return _symmetric_witness(problem)


def _symmetric_witness(problem: Problem) -> Configuration | None:
    self_compatible = problem.self_compatible_labels()
    for configuration in problem.node_constraint.configurations:
        if configuration.support() <= self_compatible:
            return configuration
    return None


def randomized_zero_round_failure_bound(problem: Problem) -> Fraction:
    """Lemma 15's lower bound on the failure probability of any 0-round
    randomized PN algorithm on the symmetric-port instances.

    If every allowed node configuration contains a label that is not
    self-compatible, some configuration is output with probability at
    least ``1/|N|``; within it some port carries a non-self-compatible
    label with probability at least ``1/(|N| * Delta)``, and two
    adjacent nodes doing so simultaneously on the shared edge fail,
    giving failure probability at least ``1/(|N| * Delta)^2``.

    Returns the bound as an exact fraction, or ``Fraction(0)`` when the
    premise fails (some configuration is fully self-compatible, i.e.
    a 0-round algorithm exists and no failure is forced).
    """
    if zero_round_solvable_symmetric(problem):
        return Fraction(0)
    denominator = len(problem.node_constraint) * problem.delta
    return Fraction(1, denominator * denominator)


def lemma15_condition_holds(problem: Problem) -> bool:
    """Whether the failure bound meets Theorem 14's ``1/Delta^8`` threshold."""
    bound = randomized_zero_round_failure_bound(problem)
    if bound == 0:
        return False
    return bound >= Fraction(1, problem.delta**8)


#: Zero-round policy name -> its deterministic 0-round test: the
#: general port-numbering model, or Lemma 12's symmetric ports.  The
#: entries call the tests through this module's globals, so rebinding
#: a test here (a profiler's wrapper, say) reaches every chain.
ZERO_ROUND_TESTS: dict[str, Callable[..., bool]] = {
    "pn": lambda problem, *, use_kernel=False: zero_round_solvable_pn(
        problem, use_kernel=use_kernel
    ),
    "symmetric": lambda problem, *, use_kernel=False: (
        zero_round_solvable_symmetric(problem, use_kernel=use_kernel)
    ),
}

#: The zero-round policy names, in their documented order.
POLICIES = tuple(ZERO_ROUND_TESTS)


@dataclass(frozen=True)
class ChainOutcome(Trajectory):
    """A chain trajectory plus the rounds it certifies."""

    certified_rounds: int          #: leading zero-round-unsolvable iterates


def certify_chain(
    trajectory: Trajectory, policy: str, *, use_kernel: bool = False
) -> ChainOutcome:
    """Count the leading iterates that are 0-round unsolvable under ``policy``.

    Each chain step loses exactly one round (Theorem 3), so ``k``
    leading unsolvable iterates certify ``T >= k`` for the start
    problem.  ``policy`` must be a key of :data:`ZERO_ROUND_TESTS`;
    callers validate it against their own input first.
    """
    solvable = ZERO_ROUND_TESTS[policy]
    certified = 0
    for iterate in trajectory.problems:
        if solvable(iterate, use_kernel=use_kernel):
            break
        certified += 1
    return ChainOutcome(
        problems=trajectory.problems,
        reached_fixed_point=trajectory.reached_fixed_point,
        certified_rounds=certified,
    )
