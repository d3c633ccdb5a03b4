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
from functools import partial
from typing import Callable

from repro.core.problem import Problem
from repro.core.self_reduction import CHAIN_STEPS, self_reduction_chain
from repro.core.simplify import iterate_chain
from repro.core.solvability import POLICIES, ChainOutcome, certify_chain
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
from repro.scenarios.spec import ScenarioSpec


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


@dataclass(frozen=True)
class ScenarioRun(ChainOutcome):
    """The outcome of one scenario: the chain and every expectation check."""

    spec: ScenarioSpec
    failures: list[str]            #: empty iff every expectation held

    @property
    def ok(self) -> bool:
        """Whether every expectation of the spec held."""
        return not self.failures


def run_problem_chain(
    problem: Problem,
    *,
    operator: str,
    steps: int,
    policy: str = "pn",
    use_kernel: bool = False,
) -> ChainOutcome:
    """Iterate a chain ``operator`` on an arbitrary base problem.

    This is the spec-independent core of :func:`run_scenario`, and the
    execution path of inline-problem service jobs
    (:mod:`repro.service.orchestrator`): ``"self-reduce"`` runs the
    Khoury-Schild chain, ``"speedup"`` iterates plain ``Rbar(R(.))``
    with a fixed-point stop, and either way the leading zero-round
    unsolvable iterates under ``policy`` are counted as certified
    rounds.  The operators are the keys of
    :data:`repro.core.self_reduction.CHAIN_STEPS`; the ``"lemma13"``
    operator is *not* accepted here — it is parameterized by
    ``(delta, x)``, not by a problem, so only spec runs can request it.
    """
    if policy not in POLICIES:
        raise InvalidScenario(
            f"unknown policy {policy!r} (known: {', '.join(POLICIES)})"
        )
    if steps < 0:
        raise InvalidScenario("chain steps must be non-negative", steps=steps)
    if operator == "self-reduce":
        return self_reduction_chain(
            problem, steps, policy=policy, use_kernel=use_kernel
        )
    if operator not in CHAIN_STEPS:
        raise InvalidScenario(
            f"operator {operator!r} cannot run on an inline problem "
            f"(known: {', '.join(CHAIN_STEPS)})",
            operator=operator,
        )
    step = partial(CHAIN_STEPS[operator], use_kernel=use_kernel)
    return certify_chain(
        iterate_chain(problem, step, steps), policy, use_kernel=use_kernel
    )


def run_scenario(spec: ScenarioSpec, *, use_kernel: bool = False) -> ScenarioRun:
    """Run a spec's chain and check every expectation it pins.

    ``use_kernel`` selects the engine exactly as in the underlying
    operators; the run outcome must be identical either way (the
    differential tests enforce this).
    """
    outcome: ChainOutcome
    if spec.operator in CHAIN_STEPS:
        outcome = run_problem_chain(
            build_problem(spec),
            operator=spec.operator,
            steps=spec.steps,
            policy=spec.policy,
            use_kernel=use_kernel,
        )
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
        outcome = ChainOutcome(
            problems=[step.problem for step in result.chain],
            reached_fixed_point=False,
            certified_rounds=result.certified_rounds,
        )

    failures: list[str] = []
    if outcome.steps != spec.steps:
        failures.append(
            f"expected {spec.steps} chain steps, performed {outcome.steps}"
        )
    if outcome.certified_rounds != spec.certified:
        failures.append(
            f"expected certified={spec.certified} rounds under policy "
            f"{spec.policy!r}, got {outcome.certified_rounds}"
        )
    if spec.expect == "fixed-point" and not outcome.reached_fixed_point:
        failures.append("expected an isomorphism fixed point, none reached")
    if spec.expect == "bounded" and outcome.reached_fixed_point:
        failures.append("expected a bounded chain, hit a fixed point")
    return ScenarioRun(
        problems=outcome.problems,
        reached_fixed_point=outcome.reached_fixed_point,
        certified_rounds=outcome.certified_rounds,
        spec=spec,
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
