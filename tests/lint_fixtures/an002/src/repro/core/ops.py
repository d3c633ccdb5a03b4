"""AN002 fixture: one unchecked growth loop, one waived, one checked."""

from __future__ import annotations

from repro.robustness.budget import check_configurations


def explode(problem: object) -> list:
    results: list = []
    while problem:
        results.append(mutate(problem))
        problem = results[-1]
    return results


def condense(problem: object) -> list:
    merged: list = []
    # reprolint: unbounded-ok(one pass over an already-checked alphabet)
    while problem:
        merged.append(mutate(problem))
        problem = None
    return merged


def rebuild(problem: object) -> list:
    rebuilt: list = []
    while problem:
        check_configurations(len(rebuilt), phase="rebuild")
        rebuilt.append(mutate(problem))
        problem = None
    return rebuilt


def mutate(problem: object) -> object:
    return problem
