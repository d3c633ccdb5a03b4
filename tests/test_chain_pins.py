"""Pinned chain outcomes: every iterate, fixed point and certified count.

The differential suites compare the service and the scenario runner
against :func:`repro.scenarios.run_problem_chain` itself, so a drift in
the shared chain code passes them silently.  This table pins its
output to hard-coded values instead: for each base problem,
chain operator and zero-round policy, two kernel steps must visit
exactly the listed iterates (by the first 16 hex digits of their
renaming-invariant fingerprint), stop at a fixed point exactly when
listed, and certify exactly the listed number of rounds.
"""

import pytest

from repro.core.cache import fingerprint
from repro.problems import (
    family_problem,
    maximal_matching_problem,
    mis_problem,
    ruling_set_problem,
    sinkless_orientation_problem,
)
from repro.scenarios import run_problem_chain

PROBLEMS = {
    "mis3": lambda: mis_problem(3),
    "sinkless3": lambda: sinkless_orientation_problem(3),
    "matching3": lambda: maximal_matching_problem(3),
    "ruling2_2": lambda: ruling_set_problem(2, 2),
    "family3_2_0": lambda: family_problem(3, 2, 0),
}

MIS3 = ("a480b9a29939ba5d", "2a2df43e470fb8c0", "d885a0cf7a0d7f93")
SINKLESS3 = ("c2d48523d0814527", "8af10abf2cba3fc1", "8af10abf2cba3fc1")
MATCHING3 = ("ff5636807097f9d0", "60caba0633d0ec4d", "76c4090a09ce05b9")
RULING2_2 = ("996ed6e699f3b76e", "4cbaffa97401b020", "6c496651a8d0aa63")
FAMILY3_2_0 = ("54bc4c57218590ce", "fac97cc57a5bc582", "82cf03339f90f7b6")

#: (problem, operator, policy, iterate fingerprints, fixed point, certified)
PINS = [
    ("mis3", "speedup", "pn", MIS3, False, 3),
    ("mis3", "speedup", "symmetric", MIS3, False, 3),
    ("mis3", "self-reduce", "pn", MIS3, False, 3),
    ("mis3", "self-reduce", "symmetric", MIS3, False, 3),
    ("sinkless3", "speedup", "pn", SINKLESS3, True, 3),
    ("sinkless3", "speedup", "symmetric", SINKLESS3, True, 3),
    ("sinkless3", "self-reduce", "pn", SINKLESS3, True, 3),
    ("sinkless3", "self-reduce", "symmetric", SINKLESS3, True, 3),
    ("matching3", "speedup", "pn", MATCHING3, False, 3),
    ("matching3", "speedup", "symmetric", MATCHING3, False, 0),
    ("matching3", "self-reduce", "pn", MATCHING3, False, 3),
    ("matching3", "self-reduce", "symmetric", MATCHING3, False, 0),
    ("ruling2_2", "speedup", "pn", RULING2_2, False, 3),
    ("ruling2_2", "speedup", "symmetric", RULING2_2, False, 3),
    ("ruling2_2", "self-reduce", "pn", RULING2_2, False, 3),
    ("ruling2_2", "self-reduce", "symmetric", RULING2_2, False, 3),
    ("family3_2_0", "speedup", "pn", FAMILY3_2_0, False, 3),
    ("family3_2_0", "speedup", "symmetric", FAMILY3_2_0, False, 3),
    ("family3_2_0", "self-reduce", "pn", FAMILY3_2_0, False, 3),
    ("family3_2_0", "self-reduce", "symmetric", FAMILY3_2_0, False, 3),
]


@pytest.mark.parametrize(
    "name, operator, policy, iterates, fixed_point, certified",
    PINS,
    ids=[f"{name}-{operator}-{policy}" for name, operator, policy, *_ in PINS],
)
def test_chain_outcome_is_pinned(
    name, operator, policy, iterates, fixed_point, certified
):
    outcome = run_problem_chain(
        PROBLEMS[name](),
        operator=operator,
        steps=2,
        policy=policy,
        use_kernel=True,
    )
    assert tuple(fingerprint(p)[:16] for p in outcome.problems) == iterates
    assert outcome.reached_fixed_point is fixed_point
    assert outcome.certified_rounds == certified
