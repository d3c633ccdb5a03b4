"""Parity pins: the optimized searches == frozen recursive references.

The engine's maximization and existential searches were rewritten from
recursive closures over ``frozenset[int]`` frontiers to iterative
explicit-stack drivers over closure-machine bitmasks, and the node
maximization then stopped enumerating every valid configuration: it
closes the last coordinate of each prefix and filters the leaves for
maximality.  These tests pin the rewrites to the preserved
implementations in :mod:`tests.legacy_dfs`, over the classic corpus and
seeded streams of random problems:

* existential search, chunk by chunk: identical result lists (same
  tuples, same order) and identical visit counts — every
  candidate-level grow of the iterative driver (its ``grow_calls``
  stat) corresponds 1:1 to one ``grow_frontier_exists`` call of the
  recursion;
* node maximization: the kernel's maximal list (serial, and the chunk
  concatenation the parallel path merges) equals the recursion's full
  enumeration pruned by the former filter, element for element and in
  order.

The Δ=5 second chain step (the size the optimization targets) and a
generated corpus of Δ 4–5 chain steps are included alongside the small
classics.
"""

import itertools
import random

import pytest

from repro.core.kernel.bitops import iter_bits
from repro.core.kernel.engine import (
    KernelProblem,
    _existential_dfs,
    _maximization_dfs,
    _set_sort_key,
    close_first_coordinate,
    closure_machine,
    maximize_edge_constraint_kernel,
    pack_ids,
    search_maximization_chunk,
)
from repro.core.kernel.interning import LabelInterner
from repro.core.round_elimination import R, Rbar, rename_to_strings, speedup
from repro.problems.mis import mis_problem
from repro.robustness.errors import InvalidProblem

from tests.legacy_dfs import (
    legacy_existential_chunk,
    legacy_maximization_chunk,
    prune_non_maximal_masks,
)
from tests.oracle import classic_corpus, random_problem

SEED = 71


def _node_search_inputs(problem):
    """Both encodings of the node-maximization search state."""
    kernel = KernelProblem.of(problem)
    candidates = kernel.node_right_closed_sets()
    shift = kernel.delta.bit_length()
    member_steps = tuple(
        tuple(1 << (shift * label_id) for label_id in iter_bits(mask))
        for mask in candidates
    )
    closure = kernel.node_prefix_closure()
    _elements, trans = kernel.node_dfs_machine()
    member_labels = tuple(tuple(iter_bits(mask)) for mask in candidates)
    return kernel, candidates, member_steps, closure, member_labels, trans


def _assert_node_maximal_matches(problem):
    """The kernel's maximal list equals the pruned legacy enumeration."""
    (
        kernel,
        candidates,
        member_steps,
        closure,
        member_labels,
        trans,
    ) = _node_search_inputs(problem)
    enumerated = []
    chunked = []
    for first_index in range(len(candidates)):
        enumerated.extend(
            legacy_maximization_chunk(
                candidates, member_steps, closure, kernel.delta, first_index,
                [0],
            )
        )
        chunked.extend(
            search_maximization_chunk(
                candidates, member_labels, trans, kernel.delta, first_index
            )
        )
    expected = prune_non_maximal_masks(enumerated, candidates)
    serial = _maximization_dfs(
        candidates, member_labels, trans, kernel.delta, 0, len(candidates)
    )
    assert chunked == serial, (
        f"chunk concatenation diverges from the serial DFS on "
        f"{problem.name or problem!r}"
    )
    current = close_first_coordinate(serial, trans)
    assert current == expected, (
        f"maximal list diverges from the pruned recursion on "
        f"{problem.name or problem!r}"
    )


def _exists_search_inputs(old_constraint, new_labels, arity):
    """Both encodings of the existential search state (mirrors the
    setup block of ``existential_constraint_kernel`` exactly)."""
    labels = sorted(set(new_labels), key=_set_sort_key)
    base = set(old_constraint.labels_used())
    for label_set in labels:
        base |= label_set
    interner = LabelInterner(base)
    shift = max(arity, old_constraint.arity).bit_length()
    member_steps = tuple(
        tuple(
            1 << (shift * label_id)
            for label_id in sorted(
                interner.id_of(member) for member in label_set
            )
        )
        for label_set in labels
    )
    member_labels = tuple(
        tuple(sorted(interner.id_of(member) for member in label_set))
        for label_set in labels
    )
    closure: set[int] = set()
    for configuration in old_constraint.configurations:
        items = interner.ids_of(configuration.items)
        for size in range(len(items) + 1):
            for combo in itertools.combinations(items, size):
                closure.add(pack_ids(combo, shift))
    closure_frozen = frozenset(closure)
    _elements, trans = closure_machine(
        closure_frozen, shift, len(interner)
    )
    return labels, member_steps, closure_frozen, member_labels, trans


def _assert_exists_chunks_match(old_constraint, new_labels, arity, name):
    (
        labels,
        member_steps,
        closure,
        member_labels,
        trans,
    ) = _exists_search_inputs(old_constraint, new_labels, arity)
    for first_index in range(len(labels)):
        counter = [0]
        legacy = legacy_existential_chunk(
            member_steps, closure, arity, first_index, counter
        )
        stats: dict = {}
        current = _existential_dfs(
            member_labels, trans, arity, first_index, first_index + 1,
            stats=stats,
        )
        assert current == legacy, (
            f"existential chunk {first_index} diverges on {name}"
        )
        assert stats.get("grow_calls", 0) == counter[0], (
            f"existential chunk {first_index} visit counts diverge on "
            f"{name}: iterative={stats.get('grow_calls')} "
            f"recursive={counter[0]}"
        )


CLASSICS = classic_corpus()
CLASSIC_IDS = [name for name, _ in CLASSICS]


@pytest.mark.parametrize("name, problem", CLASSICS, ids=CLASSIC_IDS)
def test_maximization_parity_classics(name, problem):
    """Node maximization matches the pruned recursion on every classic's
    Rbar input."""
    renamed = rename_to_strings(R(problem, use_kernel=True)).problem
    _assert_node_maximal_matches(renamed)


@pytest.mark.parametrize("name, problem", CLASSICS, ids=CLASSIC_IDS)
def test_existential_parity_classics(name, problem):
    """Edge-existential chunks match the recursion on every classic."""
    edge_constraint = maximize_edge_constraint_kernel(problem)
    sigma = sorted(edge_constraint.labels_used(), key=_set_sort_key)
    _assert_exists_chunks_match(
        problem.node_constraint, sigma, problem.delta, name
    )


def test_maximization_parity_random():
    """Node maximization matches the pruned recursion on seeded random
    problems."""
    rng = random.Random(SEED)
    checked = 0
    attempts = 0
    while checked < 8 and attempts < 40:
        attempts += 1
        problem = random_problem(rng)
        try:
            renamed = rename_to_strings(R(problem, use_kernel=True)).problem
        except InvalidProblem:
            continue
        _assert_node_maximal_matches(renamed)
        checked += 1
    assert checked == 8, "random corpus dried up before 8 instances"


def test_existential_parity_random():
    """Existential chunks match the recursion on seeded random problems."""
    rng = random.Random(SEED + 1)
    checked = 0
    attempts = 0
    while checked < 8 and attempts < 40:
        attempts += 1
        problem = random_problem(rng)
        try:
            edge_constraint = maximize_edge_constraint_kernel(problem)
        except InvalidProblem:
            continue
        sigma = sorted(edge_constraint.labels_used(), key=_set_sort_key)
        _assert_exists_chunks_match(
            problem.node_constraint, sigma, problem.delta, problem.name
        )
        checked += 1
    assert checked == 8, "random corpus dried up before 8 instances"


def test_maximization_parity_delta1():
    """Degree 1, where the DFS closes the root prefix itself, matches
    the pruned recursion on seeded random problems."""
    rng = random.Random(SEED + 3)
    checked = 0
    attempts = 0
    while checked < 8 and attempts < 40:
        attempts += 1
        problem = random_problem(rng, deltas=(1, 1))
        try:
            renamed = rename_to_strings(R(problem, use_kernel=True)).problem
        except InvalidProblem:
            continue
        _assert_node_maximal_matches(renamed)
        checked += 1
    assert checked == 8, "random corpus dried up before 8 instances"


def test_maximization_parity_delta5_second_step():
    """The Δ=5 second chain step — the exact shape the rewrite targets
    (~20 candidates, ~1200 closure elements) — matches the pruned
    recursion."""
    step_one = speedup(mis_problem(5), use_kernel=True).problem
    intermediate = rename_to_strings(R(step_one, use_kernel=True)).problem
    _assert_node_maximal_matches(intermediate)


#: Largest R(Π) alphabet the generated corpus feeds to the recursion.
WIDE_MAX_LABELS = 10
#: Most right-closed sets it feeds to the recursion, whose enumeration
#: grows with their count to the power Δ (63 sets at Δ=4 is 720,720
#: configurations and about 10 s).
WIDE_MAX_SETS = 32


def _wide_rbar_inputs(rng):
    """The first and second chain step's Rbar input of one generated
    Δ 4–5 problem.  A step whose R(Π) alphabet is too wide (counted on
    the cheap edge side, before R's node step) or that raises
    :class:`InvalidProblem` ends the chain; an input with too many
    right-closed sets is skipped."""
    problem = random_problem(
        rng, max_labels=5, deltas=(4, 5), max_configurations=8
    )
    inputs = []
    for _step in range(2):
        try:
            edge_constraint = maximize_edge_constraint_kernel(problem)
            if len(edge_constraint.labels_used()) > WIDE_MAX_LABELS:
                break
            renamed = rename_to_strings(R(problem, use_kernel=True)).problem
            sets = KernelProblem.of(renamed).node_right_closed_sets()
            if len(sets) <= WIDE_MAX_SETS:
                inputs.append(renamed)
            problem = Rbar(renamed, use_kernel=True)
        except InvalidProblem:
            break
    return inputs


def test_maximization_parity_generated_wide():
    """Node maximization matches the pruned recursion on the first and
    second chain step of seeded random Δ 4–5 problems."""
    rng = random.Random(SEED + 2)
    checked = 0
    attempts = 0
    while checked < 40 and attempts < 200:
        attempts += 1
        for renamed in _wide_rbar_inputs(rng):
            _assert_node_maximal_matches(renamed)
            checked += 1
    assert checked >= 40, "generated corpus dried up before 40 inputs"
