"""Resolve scenario specs into problems and certified chain runs.

:func:`build_problem` maps a spec's ``family`` + ``params`` onto the
concrete builders of :mod:`repro.problems`; :func:`run_scenario` then
iterates the spec's chain operator — plain ``speedup``, the
Khoury-Schild ``self-reduce``, or the paper's ``lemma13`` chain — and
checks every expectation the spec pins: the number of steps actually
taken, the exact certified round count under the spec's zero-round
policy, and whether an isomorphism fixed point was (or was not)
reached.  Failures are collected as human-readable strings rather than
raised, so callers (tests, the CLI, the benchmark gate) can report all
of them at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.problem import Problem
from repro.core.round_elimination import check_workers, speedup
from repro.core.self_reduction import self_reduction_chain
from repro.core.solvability import (
    zero_round_solvable_pn,
    zero_round_solvable_symmetric,
)
from repro.problems import (
    coloring_problem,
    family_problem,
    maximal_matching_problem,
    mis_problem,
    perfect_matching_problem,
    ruling_set_problem,
    sinkless_orientation_problem,
)
from repro.robustness.errors import InvalidProblem, InvalidScenario
from repro.scenarios.spec import POLICIES, ScenarioSpec


def _family_chain_start(delta: int, x: int = 0, a: int | None = None) -> Problem:
    """Pi_Delta(a, x) with ``a`` defaulting to Delta (the chain start)."""
    return family_problem(delta, delta if a is None else a, x)


#: Spec ``family`` values and the builders that realize them.  Builders
#: take the spec's ``params`` as keyword arguments.
FAMILY_BUILDERS: dict[str, Callable[..., Problem]] = {
    "mis": mis_problem,
    "ruling_set": ruling_set_problem,
    "maximal_matching": maximal_matching_problem,
    "sinkless_orientation": sinkless_orientation_problem,
    "perfect_matching": perfect_matching_problem,
    "coloring": coloring_problem,
    "family": _family_chain_start,
}


def build_problem(spec: ScenarioSpec) -> Problem:
    """The base :class:`Problem` a spec describes."""
    builder = FAMILY_BUILDERS.get(spec.family)
    if builder is None:
        raise InvalidScenario(
            f"unknown problem family {spec.family!r} "
            f"(known: {', '.join(sorted(FAMILY_BUILDERS))})",
            scenario=spec.name,
        )
    try:
        return builder(**spec.params)
    except TypeError as error:
        raise InvalidScenario(
            f"family {spec.family!r} rejects params {spec.params!r}: {error}",
            scenario=spec.name,
        ) from error
    except InvalidProblem as error:
        raise InvalidScenario(
            f"family {spec.family!r} rejects params {spec.params!r}: "
            f"{error.message}",
            scenario=spec.name,
        ) from error


@dataclass
class ScenarioRun:
    """The outcome of one scenario: the chain and every expectation check."""

    spec: ScenarioSpec
    problems: list[Problem]        #: chain iterates, base problem first
    reached_fixed_point: bool
    certified_rounds: int
    failures: list[str]            #: empty iff every expectation held

    @property
    def ok(self) -> bool:
        """Whether every expectation of the spec held."""
        return not self.failures

    @property
    def steps(self) -> int:
        """Chain steps actually performed."""
        return len(self.problems) - 1


def _zero_round_solvable(policy: str) -> Callable[..., bool]:
    if policy == "pn":
        return zero_round_solvable_pn
    return zero_round_solvable_symmetric


@dataclass(frozen=True)
class ChainOutcome:
    """What iterating a chain operator on one problem produced."""

    problems: list[Problem]        #: chain iterates, base problem first
    reached_fixed_point: bool
    certified_rounds: int          #: leading zero-round-unsolvable iterates

    @property
    def steps(self) -> int:
        """Chain steps actually performed."""
        return len(self.problems) - 1


def run_problem_chain(
    problem: Problem,
    *,
    operator: str,
    steps: int,
    policy: str = "pn",
    use_kernel: bool = False,
    workers: int | None = None,
) -> ChainOutcome:
    """Iterate a chain ``operator`` on an arbitrary base problem.

    This is the spec-independent core of :func:`run_scenario`, and the
    execution path of inline-problem service jobs
    (:mod:`repro.service.orchestrator`): ``"self-reduce"`` runs the
    Khoury-Schild chain, ``"speedup"`` iterates plain ``Rbar(R(.))``
    with a fixed-point stop, and either way the leading zero-round
    unsolvable iterates under ``policy`` are counted as certified
    rounds.  The ``"lemma13"`` operator is *not* accepted here — it is
    parameterized by ``(delta, x)``, not by a problem, so only spec
    runs can request it.
    """
    if policy not in POLICIES:
        raise InvalidScenario(
            f"unknown policy {policy!r} (known: {', '.join(POLICIES)})"
        )
    if steps < 0:
        raise InvalidScenario("chain steps must be non-negative", steps=steps)
    if operator == "self-reduce":
        chain = self_reduction_chain(
            problem,
            steps,
            policy=policy,
            use_kernel=use_kernel,
            workers=workers,
        )
        return ChainOutcome(
            problems=chain.problems,
            reached_fixed_point=chain.reached_fixed_point,
            certified_rounds=chain.certified_rounds,
        )
    if operator != "speedup":
        raise InvalidScenario(
            f"operator {operator!r} cannot run on an inline problem "
            "(known: speedup, self-reduce)",
            operator=operator,
        )
    current = problem
    problems = [current]
    reached_fixed_point = False
    for _ in range(steps):
        result = speedup(current, use_kernel=use_kernel, workers=workers)
        problems.append(result.problem)
        if result.problem.is_isomorphic(current):
            reached_fixed_point = True
            break
        current = result.problem
    solvable = _zero_round_solvable(policy)
    certified = 0
    for iterate in problems:
        if solvable(iterate, use_kernel=use_kernel):
            break
        certified += 1
    return ChainOutcome(
        problems=problems,
        reached_fixed_point=reached_fixed_point,
        certified_rounds=certified,
    )


def run_scenario(
    spec: ScenarioSpec,
    *,
    use_kernel: bool = False,
    workers: int | None = None,
) -> ScenarioRun:
    """Run a spec's chain and check every expectation it pins.

    ``use_kernel`` / ``workers`` select the engine exactly as in the
    underlying operators; the run outcome must be identical either way
    (the differential tests enforce this).
    """
    check_workers(workers, use_kernel=use_kernel, operator="run_scenario")
    problems: list[Problem]
    reached_fixed_point = False
    certified: int
    if spec.operator in ("self-reduce", "speedup"):
        outcome = run_problem_chain(
            build_problem(spec),
            operator=spec.operator,
            steps=spec.steps,
            policy=spec.policy,
            use_kernel=use_kernel,
            workers=workers,
        )
        problems = outcome.problems
        reached_fixed_point = outcome.reached_fixed_point
        certified = outcome.certified_rounds
    else:  # lemma13 (parse_spec admits no other operator)
        from repro.lowerbound.sequence import run_chain

        params = dict(spec.params)
        delta = params.pop("delta", None)
        x = params.pop("x", 0)
        if delta is None or params:
            raise InvalidScenario(
                "the lemma13 operator takes exactly the params delta and x",
                scenario=spec.name,
                params=spec.params,
            )
        result = run_chain(delta, x, use_kernel=use_kernel)
        problems = [step.problem for step in result.chain]
        certified = result.certified_rounds

    failures: list[str] = []
    steps_taken = len(problems) - 1
    if steps_taken != spec.steps:
        failures.append(
            f"expected {spec.steps} chain steps, performed {steps_taken}"
        )
    if certified != spec.certified:
        failures.append(
            f"expected certified={spec.certified} rounds under policy "
            f"{spec.policy!r}, got {certified}"
        )
    if spec.expect == "fixed-point" and not reached_fixed_point:
        failures.append("expected an isomorphism fixed point, none reached")
    if spec.expect == "bounded" and reached_fixed_point:
        failures.append("expected a bounded chain, hit a fixed point")
    return ScenarioRun(
        spec=spec,
        problems=problems,
        reached_fixed_point=reached_fixed_point,
        certified_rounds=certified,
        failures=failures,
    )


__all__ = [
    "FAMILY_BUILDERS",
    "build_problem",
    "ChainOutcome",
    "run_problem_chain",
    "ScenarioRun",
    "run_scenario",
]
