"""Differential tests: the kernel fast path against the reference engine.

Every operator the kernel reimplements is run side by side with the
object-based reference over the oracle corpus (classics, small
Pi_Delta(a, x) instances, seeded random constraint systems) and must
produce *equal* results — same frozenset labels, same constraints —
or fail identically.  A seeded generated corpus of degree 1 to 5 runs
every chain operator on both engines, and pins the kernel's node
search (which closes the last coordinate instead of enumerating it) to
the reference's enumerate-then-prune.  See ``tests/oracle.py`` for the
contract.
"""

from collections import Counter

import pytest

from repro.core.round_elimination import R, rename_to_strings, speedup
from repro.problems.mis import mis_problem

from tests.oracle import (
    ALPHABET_CAP,
    Failure,
    classic_corpus,
    differential_Rbar,
    differential_engines,
    differential_self_reduction,
    differential_speedup,
    differential_zero_round,
    full_corpus,
    generated_corpus,
    random_corpus,
    scenario_corpus,
)

CORPUS = full_corpus()
CORPUS_IDS = [name for name, _ in CORPUS]
CLASSICS = classic_corpus()

# Self-reduction corpus: scenario base problems plus cheap classics and
# a few random systems (one full speedup per problem rides inside).
SELF_REDUCTION_CORPUS = (
    scenario_corpus()
    + [CLASSICS[0], CLASSICS[2], CLASSICS[5]]
    + random_corpus(seed=555, count=4)
)
SELF_REDUCTION_IDS = [name for name, _ in SELF_REDUCTION_CORPUS]

GENERATED = generated_corpus()
GENERATED_IDS = [item.name for item in GENERATED]


def _trips_alphabet_cap(item):
    return item.r_alphabet is not None and item.r_alphabet > ALPHABET_CAP


@pytest.mark.parametrize("name, problem", CORPUS, ids=CORPUS_IDS)
def test_speedup_differential(name, problem):
    differential_speedup(name, problem)


@pytest.mark.parametrize("name, problem", CORPUS, ids=CORPUS_IDS)
def test_zero_round_differential(name, problem):
    differential_zero_round(name, problem)


@pytest.mark.parametrize(
    "name, problem", SELF_REDUCTION_CORPUS, ids=SELF_REDUCTION_IDS
)
def test_self_reduction_differential(name, problem):
    """condense/speedup/condense agrees between engines, end to end."""
    differential_self_reduction(name, problem)


@pytest.mark.parametrize("item", GENERATED, ids=GENERATED_IDS)
def test_generated_engines_agree(item):
    """Every chain operator agrees between engines on a generated input,
    and the alphabet budget trips on both exactly when R(P) is wider."""
    outcomes = differential_engines(item.name, item.problem)
    budgeted = outcomes["R[max_alphabet]"]
    tripped = (
        isinstance(budgeted, Failure) and budgeted.kind == "AlphabetExplosion"
    )
    assert tripped == _trips_alphabet_cap(item), (
        f"{item.name}: R under max_alphabet={ALPHABET_CAP} gave {budgeted!r}"
    )


def test_generated_corpus_coverage():
    """The generated corpus reaches the degrees and outcomes it exists
    for: 80 inputs, at least 20 of degree 4 or 5, degree 1, some R
    failures and some alphabet-budget trips."""
    deltas = Counter(item.problem.delta for item in GENERATED)
    assert len(GENERATED) >= 80
    assert deltas[4] + deltas[5] >= 20, deltas
    assert deltas[1] >= 1, deltas
    assert any(item.r_alphabet is None for item in GENERATED)
    assert sum(map(_trips_alphabet_cap, GENERATED)) >= 5


def test_mis5_second_step_rbar_differential():
    """The MIS Delta=5 second chain step's Rbar input (20 right-closed
    sets), the size the kernel's node search is tuned for."""
    step_one = speedup(mis_problem(5), use_kernel=True).problem
    renamed = rename_to_strings(R(step_one, use_kernel=True)).problem
    differential_Rbar("mis5 second step", renamed)
