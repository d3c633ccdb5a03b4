"""Differential-testing oracle: kernel fast path vs. reference engine.

The kernel (:mod:`repro.core.kernel`) promises to return *exactly* the
same objects as the reference implementation — same frozenset labels,
same constraints, same problem names — for every operator it
reimplements.  This module provides the corpus and the comparison
helpers the differential tests run over:

* a corpus of classic problems, small :math:`\\Pi_\\Delta(a, x)` family
  instances, base problems of registered scenarios
  (:mod:`repro.scenarios`), and seeded random constraint systems;
* a seeded generated corpus (:func:`generated_corpus`) of random
  problems of degree 1 to 5 and their second chain steps, each run
  through every operator on both engines by
  :func:`differential_engines`;
* ``differential_*`` checks that run reference and kernel side by side
  and assert agreement, including agreement on *failure* (both raise
  the same :class:`ReproError` with the same message, or neither
  does).

The reference engine's node side enumerates every configuration and
then prunes to the maximal ones, so it is the oracle the kernel's
closed-last-coordinate search is pinned to; the brute-force maximality
checks in ``tests/test_round_elimination.py`` pin the reference in
turn.

The corpus is parameterized by the scenario registry: registering a
scenario whose ``oracle_corpus`` names a fresh entry adds its base
problem to :func:`full_corpus` automatically, so a new family joins
every differential gate without touching this file.

Relaxation and relabeling search have no kernel twin, so nothing here
runs them side by side.  Two independent checks serve their tests
instead: :func:`relabeling_is_valid` validates a relabeling witness,
and :func:`relaxes_by_permutation` decides Definition 7 by trying every
permutation, against the one bipartite matcher.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from repro.core.constraints import Constraint
from repro.core.configurations import Configuration
from repro.core.kernel.engine import KernelProblem, maximize_edge_constraint_kernel
from repro.core.problem import Problem
from repro.core.round_elimination import R, Rbar, rename_to_strings, speedup
from repro.core.self_reduction import condense_problem, self_reduce
from repro.core.solvability import (
    zero_round_solvable_pn,
    zero_round_solvable_symmetric,
)
from repro.observability.metrics import diff_semantic_profiles, semantic_profile
from repro.observability.trace import Tracer, tracing
from repro.problems.classic import (
    coloring_problem,
    perfect_matching_problem,
    sinkless_orientation_problem,
)
from repro.problems.family import family_problem
from repro.problems.mis import mis_problem
from repro.robustness.budget import Budget, governed
from repro.robustness.errors import InvalidProblem, ReproError


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------

def classic_corpus() -> list[tuple[str, Problem]]:
    """Named classic problems + small Pi_Delta(a, x) family instances."""
    return [
        ("mis3", mis_problem(3)),
        ("mis4", mis_problem(4)),
        ("sinkless_orientation3", sinkless_orientation_problem(3)),
        ("perfect_matching3", perfect_matching_problem(3)),
        ("coloring33", coloring_problem(3, 3)),
        ("family320", family_problem(3, 2, 0)),
        ("family431", family_problem(4, 3, 1)),
        ("family441", family_problem(4, 4, 1)),
        # Appended last so prefix slices over the corpus stay stable:
        # the Δ=5 quick case exercises the sizes the hot-path DFS
        # optimization targets (its one-step speedup is cheap on both
        # engines; only multi-step chains hit the expensive regime).
        ("mis5", mis_problem(5)),
    ]


def scenario_corpus() -> list[tuple[str, Problem]]:
    """Base problems of registered scenarios not already covered above.

    A scenario whose ``oracle_corpus`` declaration names an existing
    classic entry is covered there and skipped — the Delta=16 lemma13
    chain start does this, since one differential speedup on it is far
    too expensive while the classics already cover its family at small
    Delta.  Every other scenario contributes its base problem under its
    declared corpus name.
    """
    from repro.scenarios import load_registry
    from repro.scenarios.runner import build_problem

    classics = {name for name, _ in classic_corpus()}
    return [
        (decl.oracle_corpus, build_problem(spec))
        for decl, spec in load_registry()
        if decl.oracle_corpus not in classics
    ]


def random_problem(
    rng: random.Random,
    *,
    max_labels: int = 4,
    deltas: tuple[int, int] = (2, 3),
    max_configurations: int = 5,
) -> Problem:
    """A random small constraint system (string labels, delta drawn
    from the inclusive range ``deltas``, at most ``max_configurations``
    node configurations).

    Draws a label alphabet, a non-empty random edge relation over it,
    and a non-empty set of random node configurations.  Everything the
    constraints mention lands in the alphabet, so construction itself
    never fails — downstream operators may still legitimately raise
    :class:`InvalidProblem` (e.g. an existential step coming up empty),
    which the differential checks treat as an outcome to agree on.
    """
    label_count = rng.randint(2, max_labels)
    labels = [chr(ord("A") + index) for index in range(label_count)]
    delta = rng.randint(*deltas)
    edge_pairs = set()
    for left in labels:
        for right in labels:
            if rng.random() < 0.45:
                edge_pairs.add(Configuration((left, right)))
    if not edge_pairs:
        edge_pairs.add(Configuration((rng.choice(labels), rng.choice(labels))))
    node_configurations = set()
    for _ in range(rng.randint(1, max_configurations)):
        node_configurations.add(
            Configuration(rng.choice(labels) for _ in range(delta))
        )
    node_constraint = Constraint(node_configurations)
    edge_constraint = Constraint(edge_pairs)
    alphabet = sorted(
        node_constraint.labels_used() | edge_constraint.labels_used()
    )
    return Problem(
        alphabet,
        node_constraint,
        edge_constraint,
        name=f"random-{rng.getrandbits(24):06x}",
    )


def random_corpus(seed: int, count: int) -> list[tuple[str, Problem]]:
    """``count`` seeded random problems (deterministic across runs)."""
    rng = random.Random(seed)
    return [(f"random{index}", random_problem(rng)) for index in range(count)]


def full_corpus(seed: int = 20210726, random_count: int = 12) -> list[tuple[str, Problem]]:
    """The whole differential corpus: classics + scenarios + random."""
    return classic_corpus() + scenario_corpus() + random_corpus(seed, random_count)


#: Seed of the generated reference-vs-kernel corpus.
GENERATED_SEED = 2026
#: Caps that bound the *reference* engine's cost on one generated
#: input: the width of R(P)'s alphabet (counted on the edge side,
#: before R's node step) and the number of right-closed sets of the
#: Rbar input, whose reference enumeration grows with that count to
#: the power Delta.
GENERATED_MAX_LABELS = 10
GENERATED_MAX_SETS = 12
#: The alphabet budget every generated input's ``R`` also runs under.
ALPHABET_CAP = 4


@dataclass(frozen=True)
class GeneratedInput:
    """One input of the generated corpus."""

    name: str
    problem: Problem
    r_alphabet: int | None  #: size of R(P)'s alphabet; None if R fails


def _within_caps(problem: Problem) -> tuple[bool, int | None]:
    """Whether both engines can afford ``problem``, and R's alphabet size.

    Measured on the kernel.  A problem whose R fails is affordable: the
    failure is an outcome the engines must agree on.
    """
    try:
        width = len(maximize_edge_constraint_kernel(problem).labels_used())
        if width > GENERATED_MAX_LABELS:
            return False, width
        renamed = rename_to_strings(R(problem, use_kernel=True)).problem
    except InvalidProblem:
        return True, None
    sets = KernelProblem.of(renamed).node_right_closed_sets()
    return len(sets) <= GENERATED_MAX_SETS, width


def generated_corpus(
    seed: int = GENERATED_SEED, count: int = 80
) -> list[GeneratedInput]:
    """``count`` seeded random problems of degree 1 to 5, each followed
    by its renamed second chain step while that stays within the caps.

    A draw whose first step is over the caps is dropped; the chain
    stops at the first step over the caps or at a failing speedup.
    """
    rng = random.Random(seed)
    inputs: list[GeneratedInput] = []
    draw = 0
    while len(inputs) < count:
        problem = random_problem(
            rng, max_labels=5, deltas=(1, 5), max_configurations=8
        )
        for step in (1, 2):
            affordable, width = _within_caps(problem)
            if not affordable:
                break
            inputs.append(
                GeneratedInput(f"gen{draw}-step{step}", problem, width)
            )
            try:
                problem = speedup(problem, use_kernel=True).problem
            except InvalidProblem:
                break
        draw += 1
    return inputs[:count]


# ---------------------------------------------------------------------------
# Differential checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Failure:
    """A typed failure, reduced to what both engines must agree on.

    The context keeps everything but the budget's wall clock
    (``elapsed_seconds``), which no two runs share.
    """

    kind: str
    message: str
    context: tuple


def _outcome(function, *args, **kwargs):
    """The function's return value, or the :class:`ReproError` it raised."""
    try:
        return function(*args, **kwargs)
    except ReproError as error:
        context = tuple(
            sorted(
                (key, repr(value))
                for key, value in error.context.items()
                if key != "elapsed_seconds"
            )
        )
        return Failure(type(error).__name__, error.message, context)


def assert_same_outcome(name: str, reference, kernel) -> None:
    """Both engines returned equal values, or both failed the same way.

    Two problems must also render byte-identically: same name, same
    alphabet order, same configurations.
    """
    assert reference == kernel, (
        f"{name}: engines disagree:\n"
        f"reference: {reference!r}\n"
        f"kernel:    {kernel!r}"
    )
    if isinstance(reference, Problem):
        assert reference.render() == kernel.render(), (
            f"{name}: renders differ:\n{reference.render()}\n"
            f"---\n{kernel.render()}"
        )


def differential_R(name: str, problem: Problem) -> Problem | None:
    """R agrees between engines; returns the (reference) result if any."""
    reference = _outcome(R, problem)
    kernel = _outcome(R, problem, use_kernel=True)
    assert_same_outcome(f"R({name})", reference, kernel)
    return reference if isinstance(reference, Problem) else None


def differential_Rbar(name: str, problem: Problem) -> Problem | None:
    """Rbar agrees between engines."""
    reference = _outcome(Rbar, problem)
    kernel = _outcome(Rbar, problem, use_kernel=True)
    assert_same_outcome(f"Rbar({name})", reference, kernel)
    return reference if isinstance(reference, Problem) else None


def differential_speedup(name: str, problem: Problem) -> None:
    """One full Rbar(R(.)) step agrees between engines, end to end."""
    intermediate = differential_R(name, problem)
    if intermediate is None:
        return
    renamed = rename_to_strings(intermediate).problem
    differential_Rbar(f"{name} renamed", renamed)


def _self_reduce_outcomes(problem: Problem, *, use_kernel: bool) -> dict:
    step = _outcome(self_reduce, problem, use_kernel=use_kernel)
    if isinstance(step, Failure):
        return {"self_reduce": step}
    return {
        "self_reduce.condensed": step.condensed,
        "self_reduce.problem": step.problem,
        "self_reduce.fixed_point": step.fixed_point,
    }


def _assert_same_outcomes(name: str, reference: dict, kernel: dict) -> None:
    """Two engines' named outcomes agree one by one."""
    assert list(reference) == list(kernel), (
        f"{name}: engines ran different operators: "
        f"{list(reference)} vs {list(kernel)}"
    )
    for operator, value in reference.items():
        assert_same_outcome(f"{operator}({name})", value, kernel[operator])


def differential_self_reduction(name: str, problem: Problem) -> None:
    """One ``condense(speedup(condense(.)))`` step agrees between engines.

    Checks the condensed input, the final reduced problem (values *and*
    alphabet order — the cache transport depends on it), and the
    fixed-point verdict.
    """
    _assert_same_outcomes(
        name,
        _self_reduce_outcomes(problem, use_kernel=False),
        _self_reduce_outcomes(problem, use_kernel=True),
    )


def differential_zero_round(name: str, problem: Problem) -> None:
    """Both solvability tests agree between engines."""
    assert zero_round_solvable_pn(problem) == zero_round_solvable_pn(
        problem, use_kernel=True
    ), f"zero_round_solvable_pn({name}) disagrees"
    assert zero_round_solvable_symmetric(problem) == zero_round_solvable_symmetric(
        problem, use_kernel=True
    ), f"zero_round_solvable_symmetric({name}) disagrees"


def _engine_outcomes(
    problem: Problem, *, use_kernel: bool
) -> tuple[dict, dict[str, dict[str, int]]]:
    """Every chain operator on one engine: named outcomes, plus the
    semantic profile of the run (the budgeted ``R`` runs untraced).

    ``speedup`` calls ``R`` and then ``Rbar`` on the renamed result, so
    its record yields all three outcomes from one run.
    """
    outcomes: dict[str, object] = {}
    tracer = Tracer()
    with tracing(tracer):
        step = _outcome(speedup, problem, use_kernel=use_kernel)
        if isinstance(step, Failure):
            outcomes["speedup"] = step
        else:
            outcomes["R"] = step.intermediate
            outcomes["Rbar"] = step.final
            outcomes["speedup"] = step.problem
        outcomes["condense_problem"] = _outcome(
            condense_problem, problem, use_kernel=use_kernel
        )
        outcomes.update(_self_reduce_outcomes(problem, use_kernel=use_kernel))
        outcomes["zero_round_solvable_pn"] = zero_round_solvable_pn(
            problem, use_kernel=use_kernel
        )
        outcomes["zero_round_solvable_symmetric"] = (
            zero_round_solvable_symmetric(problem, use_kernel=use_kernel)
        )
    with governed(Budget(max_alphabet=ALPHABET_CAP)):
        outcomes["R[max_alphabet]"] = _outcome(R, problem, use_kernel=use_kernel)
    return outcomes, semantic_profile(tracer.finish())


def differential_engines(name: str, problem: Problem) -> dict:
    """Reference and kernel agree on every chain operator over ``problem``:
    ``R``, ``Rbar`` of the renamed ``R`` and ``speedup`` (one step),
    ``condense_problem``, ``self_reduce``, both 0-round tests, and ``R``
    under an alphabet budget of :data:`ALPHABET_CAP`.  Results must be
    equal and render byte-identically, failures must share class,
    message and context, and the semantic counters must not drift.
    Returns the reference outcomes.
    """
    reference, reference_profile = _engine_outcomes(problem, use_kernel=False)
    kernel, kernel_profile = _engine_outcomes(problem, use_kernel=True)
    _assert_same_outcomes(name, reference, kernel)
    drift = diff_semantic_profiles(reference_profile, kernel_profile)
    assert not drift, f"{name}: semantic counter drift:\n" + "\n".join(drift)
    return reference


def relabeling_is_valid(source: Problem, target: Problem, mapping: dict) -> bool:
    """Independently check a find_label_relabeling witness.

    The map must be total on the source alphabet and send every allowed
    source configuration (node and edge) to an allowed target one.
    """
    if set(mapping) != set(source.alphabet):
        return False
    if not set(mapping.values()) <= set(target.alphabet):
        return False
    for constraint, target_constraint in (
        (source.node_constraint, target.node_constraint),
        (source.edge_constraint, target.edge_constraint),
    ):
        for configuration in constraint.configurations:
            if configuration.replace_all(mapping) not in target_constraint:
                return False
    return True


def relaxes_by_permutation(source: Configuration, target: Configuration) -> bool:
    """Definition 7 by brute force: some ordering of ``target``'s sets
    contains ``source``'s sets position by position."""
    return source.arity == target.arity and any(
        all(small <= big for small, big in zip(source.items, ordering))
        for ordering in itertools.permutations(target.items)
    )
