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
    while problem:  # reprolint: disable=AN002 -- one pass over a checked alphabet
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
