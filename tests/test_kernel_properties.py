"""Property-based tests for the kernel layer (seeded stdlib random).

Three families of invariants, each checked over a deterministic stream
of random instances (``random.Random(seed)`` — no external property
framework, so failures are exactly reproducible by seed):

* **Observation 4** — every label produced by a maximization step is a
  right-closed set with respect to the diagram of the constraint that
  was maximized, and the kernel's right-closed-set enumeration (unions
  of upward closures) matches the reference powerset scan exactly, and
  each set's minimal labels are an antichain whose up-closures rebuild
  it.
* **Galois closure** — ``f(f(f(A))) == f(A)`` for arbitrary ``A``
  (closure idempotence) and ``f(f(A)) == A`` for every closed set in
  the memoized lattice, matching the pairs kept by the edge
  maximization.
* **Packing round-trips** — interned bitmasks reproduce frozensets
  exactly, and the packed count-vector multisets of the DFS hot loop
  are bijective below their per-field capacity.
"""

import itertools
import os
import random
import subprocess
import sys

import pytest

from repro.core.configurations import CondensedConfiguration, Configuration
from repro.core.diagram import Diagram, edge_diagram, node_diagram
from repro.core.kernel.bitops import iter_bits, mask_from_ids, popcount
from repro.core.kernel.engine import (
    KernelProblem,
    maximize_node_constraint_kernel,
    pack_ids,
)
from repro.core.kernel.interning import LabelInterner
from repro.core.round_elimination import R, Rbar, rename_to_strings, speedup
from repro.lowerbound.lemma6 import compute_r_of_family, expected_r_of_family
from repro.observability.metrics import total_counters
from repro.observability.trace import Tracer, span, tracing
from repro.problems.family import family_problem
from repro.problems.mis import mis_problem
from repro.robustness.budget import Budget, governed
from repro.robustness.errors import BudgetExceeded, InvalidProblem

from tests.oracle import classic_corpus, generated_corpus, random_problem
from tests.test_condensed_lines import expanded, from_lines

SEED = 52

CLASSICS = classic_corpus()
CLASSIC_IDS = [name for name, _ in CLASSICS]


# ---------------------------------------------------------------------------
# Observation 4: maximization labels are right-closed
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, problem", CLASSICS[:5], ids=CLASSIC_IDS[:5])
def test_observation4_edge_maximization(name, problem):
    """Labels of R(P) are right-closed w.r.t. the edge diagram of P."""
    diagram = edge_diagram(problem)
    for label in R(problem, use_kernel=True).alphabet:
        assert isinstance(label, frozenset)
        assert diagram.is_right_closed(label), (
            f"{name}: R label {sorted(map(str, label))} is not right-closed"
        )


@pytest.mark.parametrize("name, problem", CLASSICS[:5], ids=CLASSIC_IDS[:5])
def test_observation4_node_maximization(name, problem):
    """Labels of Rbar(R(P)) are right-closed w.r.t. the node diagram."""
    renamed = rename_to_strings(R(problem, use_kernel=True)).problem
    diagram = node_diagram(renamed)
    for label in Rbar(renamed, use_kernel=True).alphabet:
        assert diagram.is_right_closed(label), (
            f"{name}: Rbar label {sorted(map(str, label))} is not right-closed"
        )


def test_right_closed_enumeration_matches_reference():
    """Kernel union-of-up-closures == reference powerset scan, on random
    constraint systems as well as the classics."""
    rng = random.Random(SEED)
    problems = [problem for _, problem in CLASSICS]
    problems += [random_problem(rng) for _ in range(10)]
    for problem in problems:
        kernel = KernelProblem.of(problem)
        reference = Diagram(
            problem.node_constraint, problem.alphabet
        ).right_closed_sets()
        from_kernel = {
            kernel.interner.labels_of_mask(mask)
            for mask in kernel.node_right_closed_sets()
        }
        assert from_kernel == set(reference), (
            f"right-closed enumeration mismatch on {problem.name or problem!r}"
        )


def _node_max_inputs():
    """Problems whose node constraint ``Rbar`` maximizes: every
    generated-corpus input and its renamed R, and the MIS Delta=4-6
    chain steps and their renamed Rs."""
    problems = []
    for item in generated_corpus():
        problems.append((item.name, item.problem))
        try:
            renamed = rename_to_strings(R(item.problem, use_kernel=True)).problem
        except InvalidProblem:
            continue
        problems.append((f"R {item.name}", renamed))
    for delta in (4, 5, 6):
        step = mis_problem(delta)
        for index in (1, 2):
            problems.append((f"mis{delta} step{index}", step))
            renamed = rename_to_strings(R(step, use_kernel=True)).problem
            problems.append((f"R mis{delta} step{index}", renamed))
            step = speedup(step, use_kernel=True).problem
    return problems


def test_minimal_labels_generate_their_right_closed_sets():
    """``node_minimal_labels``, which the maximization DFS walks instead
    of all members: per right-closed set, the minimal labels are
    pairwise incomparable and their up-closures rebuild the set."""
    for name, problem in _node_max_inputs():
        kernel = KernelProblem.of(problem)
        successors = kernel.node_strict_successors()
        candidates = kernel.node_right_closed_sets()
        minimal_labels = kernel.node_minimal_labels()
        assert len(minimal_labels) == len(candidates), name
        for mask, labels in zip(candidates, minimal_labels):
            assert labels and list(labels) == sorted(set(labels)), name
            for weak, strong in itertools.permutations(labels, 2):
                assert not successors[weak] >> strong & 1, (
                    f"{name}: minimal label {strong} is above {weak}"
                )
            up = 0
            for label_id in labels:
                up |= (1 << label_id) | successors[label_id]
            assert up == mask, f"{name}: up-closure misses {mask & ~up:b}"


# ---------------------------------------------------------------------------
# Galois closure idempotence
# ---------------------------------------------------------------------------

def test_galois_partner_triple_application():
    """f(f(f(A))) == f(A) for arbitrary A — the Galois closure identity."""
    rng = random.Random(SEED + 1)
    problems = [problem for _, problem in CLASSICS]
    problems += [random_problem(rng) for _ in range(10)]
    for problem in problems:
        kernel = KernelProblem.of(problem)
        universe_mask = (1 << kernel.n) - 1
        for _ in range(20):
            subset = rng.getrandbits(kernel.n) & universe_mask
            once = kernel.partner(subset)
            assert kernel.partner(kernel.partner(once)) == once, (
                f"f(f(f(A))) != f(A) on {problem.name or problem!r}"
            )


def test_galois_lattice_sets_are_closed():
    """Every memoized lattice member A satisfies f(f(A)) == A or is
    filtered out by the maximization's closedness check — and each kept
    edge configuration (A, f(A)) is a mutual-partner pair."""
    rng = random.Random(SEED + 2)
    problems = [problem for _, problem in CLASSICS]
    problems += [random_problem(rng) for _ in range(10)]
    for problem in problems:
        kernel = KernelProblem.of(problem)
        closed = [
            mask
            for mask in kernel.galois_closed_sets()
            if kernel.partner(kernel.partner(mask)) == mask
        ]
        assert closed, f"no closed pair at all on {problem.name or problem!r}"
        for mask in closed:
            partner = kernel.partner(mask)
            assert kernel.partner(partner) == mask


def test_partner_memoization_is_stable():
    """Memoized partner images equal a fresh recomputation (cache never
    goes stale because problems are immutable)."""
    _, problem = CLASSICS[0]
    kernel = KernelProblem.of(problem)
    first = {mask: kernel.partner(mask) for mask in kernel.galois_closed_sets()}
    again = {mask: kernel.partner(mask) for mask in kernel.galois_closed_sets()}
    assert first == again


# ---------------------------------------------------------------------------
# Bitmask and packed-multiset round-trips
# ---------------------------------------------------------------------------

def test_bitmask_frozenset_roundtrip():
    """interner.mask_of / labels_of_mask are mutually inverse."""
    rng = random.Random(SEED + 3)
    for _ in range(50):
        count = rng.randint(1, 12)
        labels = frozenset(f"L{index}" for index in range(count))
        interner = LabelInterner(labels)
        subset = frozenset(
            label for label in labels if rng.random() < 0.5
        )
        mask = interner.mask_of(subset)
        assert interner.labels_of_mask(mask) == subset
        assert popcount(mask) == len(subset)
        # id round-trip, and ids enumerate in ascending order
        ids = list(iter_bits(mask))
        assert ids == sorted(ids)
        assert mask_from_ids(ids) == mask


def test_packed_multiset_roundtrip():
    """pack_ids stores each id's count in its own field below capacity.

    The DFS packs a multiset of label ids into one integer with
    ``shift`` bits per count field; the representation is bijective as
    long as every count stays below ``2**shift``.
    """
    rng = random.Random(SEED + 4)
    for _ in range(100):
        arity = rng.randint(1, 6)
        shift = arity.bit_length()
        label_count = rng.randint(1, 10)
        ids = sorted(rng.randrange(label_count) for _ in range(arity))
        packed = pack_ids(ids, shift)
        field = (1 << shift) - 1
        assert [
            label_id
            for label_id in range(label_count)
            for _ in range((packed >> (shift * label_id)) & field)
        ] == ids
        # additivity: packing is a sum of single-id steps
        total = 0
        for label_id in ids:
            total += 1 << (shift * label_id)
        assert total == packed


def test_packed_multiset_is_injective():
    """Distinct multisets pack to distinct integers (below capacity)."""
    rng = random.Random(SEED + 5)
    arity = 4
    shift = arity.bit_length()
    seen: dict[int, tuple] = {}
    for _ in range(300):
        ids = tuple(sorted(rng.randrange(6) for _ in range(arity)))
        packed = pack_ids(ids, shift)
        assert seen.setdefault(packed, ids) == ids
    assert len(seen) > 1


# ---------------------------------------------------------------------------
# Frontiers and search tree of the maximization DFS
# ---------------------------------------------------------------------------

def _label_invalid(trans):
    """Per label, the bitmask of elements it cannot extend from."""
    invalid = []
    for transitions in trans:
        valid = 0
        for element, target in enumerate(transitions):
            if target >= 0:
                valid |= 1 << element
        invalid.append(~valid)
    return invalid


def _bitmask_best(frontier_mask, label_invalid):
    """The per-label ``best(F)`` of the bitmask DFS, kept as a twin: the
    labels that extend from every element of the frontier bitmask."""
    closing = 0
    for label_id, bad in enumerate(label_invalid):
        if not frontier_mask & bad:
            closing |= 1 << label_id
    return closing


def _bitmask_step(frontier_mask, labels, trans):
    """The bitmask DFS's grow step: ``None`` when some frontier element
    cannot take one of ``labels``, else the OR of the image bits."""
    grown = 0
    for element in iter_bits(frontier_mask):
        for label_id in labels:
            target = trans[label_id][element]
            if target < 0:
                return None
            grown |= 1 << target
    return grown


def test_dict_frontiers_match_the_bitmask_search():
    """The dict-frontier DFS against its bitmask twin on every frontier
    the search reaches: the AND of ``extends`` equals the per-label
    ``best(F)``, ``required[c] & ~best(F)`` is the all-or-nothing test,
    and a dict step decodes to the bitmask step.  Runs over the
    generated corpus and the MIS Delta=4-6 chain steps, their Rs
    included, which reach the arity-1 and arity-2 paths too."""
    arities = set()
    for name, problem in _node_max_inputs():
        kernel = KernelProblem.of(problem)
        minimal_labels = kernel.node_minimal_labels()
        _elements, trans, extends = kernel.node_dfs_machine()
        label_invalid = _label_invalid(trans)
        last = kernel.delta - 1
        arities.add(kernel.delta)
        seen = set()
        level = [(0, {0: None})]
        for depth in range(last + 1):
            grown_level = []
            for first, frontier in level:
                mask = sum(1 << element for element in frontier)
                best = -1
                for element in frontier:
                    best &= extends[element]
                assert best == _bitmask_best(mask, label_invalid), name
                if depth == last:
                    continue
                for index in range(first, len(minimal_labels)):
                    labels = minimal_labels[index]
                    old = _bitmask_step(mask, labels, trans)
                    assert (old is None) == bool(
                        mask_from_ids(labels) & ~best
                    ), name
                    if old is None:
                        continue
                    grown = dict.fromkeys(
                        trans[label_id][element]
                        for label_id in labels
                        for element in frontier
                    )
                    assert sum(1 << element for element in grown) == old, name
                    if (old, index) not in seen:
                        seen.add((old, index))
                        grown_level.append((index, grown))
            level = grown_level
    assert {1, 2} <= arities, sorted(arities)


def test_mis6_second_step_search_tree():
    """Walking minimal labels leaves the DFS's search tree as it was
    with all members: the Delta=6 MIS second step opens 9,291 prefixes
    and emits 3,899 leaves."""
    step_one = speedup(mis_problem(6), use_kernel=True).problem
    renamed = rename_to_strings(R(step_one, use_kernel=True)).problem
    tracer = Tracer()
    with tracing(tracer):
        with span("rbar"):
            maximize_node_constraint_kernel(renamed)
    counters = total_counters(tracer.records)
    assert counters["node_max.frames"] == 9291
    assert counters["node_max.leaves"] == 3899


# Records every ``check_configurations(count, phase=..., depth=...)`` call
# that one node maximization makes, per input, and prints the number of
# calls and the SHA-256 of the sequence, one ``(count, phase, depth)``
# line per call.
_PROBE_SCRIPT = """
import hashlib
from repro.core.kernel.engine import maximize_node_constraint_kernel
from repro.core.round_elimination import R, rename_to_strings, speedup
from repro.lowerbound.lemma6 import compute_r_of_family
from repro.problems.mis import mis_problem
from repro.robustness import budget

calls = []
original = budget.check_configurations

def recording(count, **context):
    calls.append(f"{count} {context.get('phase')} {context.get('depth')}\\n")
    original(count, **context)

budget.check_configurations = recording
step_one = mis_problem(6)
step_two = speedup(step_one, use_kernel=True).problem
inputs = [
    ("mis6 step1", lambda: rename_to_strings(R(step_one, use_kernel=True)).problem),
    ("mis6 step2", lambda: rename_to_strings(R(step_two, use_kernel=True)).problem),
    ("lemma8 (5, 2, 0)", lambda: compute_r_of_family(5, 2, 0).problem),
    ("lemma8 (6, 4, 2)", lambda: compute_r_of_family(6, 4, 2).problem),
]
for name, build in inputs:
    problem = build()
    calls.clear()
    maximize_node_constraint_kernel(problem)
    digest = hashlib.sha256("".join(calls).encode()).hexdigest()
    print(f"{name}|{len(calls)}|{digest}")
"""


# The MIS Delta=6 second step's R output keeps lines, so packing its
# node constraint makes 25 ``condensed-expansion`` probes ahead of the
# DFS's 13,201 ``node-maximization`` probes.
_PROBE_PINS = {
    "mis6 step1": (
        202,
        "efbdc8636f56f70e0d93865075fd5a314b84a12f5e4d523ada537be5bd415afb",
    ),
    "mis6 step2": (
        13249,
        "9fec5ee03d8e1e4444187fddf1f6cc958ffa21181f9d22f290d06c6f3236dd54",
    ),
    "lemma8 (5, 2, 0)": (
        3971,
        "cb8a9ec1992b1a9011c50d6fc56c57db73e27ac91b1c20aa316e41b084f8beab",
    ),
    "lemma8 (6, 4, 2)": (
        11166,
        "4ef2e5649114ac31a0ea193e918826d6453447a301843d290f557e8199f703be",
    ),
}


def test_node_maximization_budget_probe_sequence():
    """Every budget probe of ``maximize_node_constraint_kernel``, in
    order, pinned by count and SHA-256: the renamed R of the MIS
    Delta=6 first and second steps, and Lemma 8's R at (5, 2, 0) and
    (6, 4, 2).  Budget caps, wall clocks and fault-injection probes
    fire at exactly these calls.

    The sequence must not depend on string hashing, so it is recorded
    in child interpreters under two ``PYTHONHASHSEED`` values, and each
    must equal the pins."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for seed in ("0", "1"):
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.path.join(root, "src")
        environment["PYTHONHASHSEED"] = seed
        completed = subprocess.run(
            [sys.executable, "-c", _PROBE_SCRIPT],
            env=environment,
            capture_output=True,
            text=True,
            check=True,
        )
        sequences = {}
        for line in completed.stdout.splitlines():
            name, length, digest = line.split("|")
            sequences[name] = (int(length), digest)
        assert sequences == _PROBE_PINS, f"PYTHONHASHSEED={seed}"


# ---------------------------------------------------------------------------
# The closure machine is exact and complete
# ---------------------------------------------------------------------------

def _assert_machine_exact_and_complete(machine, shift, label_count, name):
    """Every transition adds exactly one label without carrying into a
    neighboring count field, every such sum inside the closure has its
    transition, and ``extends[e]`` is the labels with a transition."""
    elements, trans, extends = machine
    assert elements[0] == 0 and list(elements) == sorted(set(elements)), name
    closure = set(elements)
    field = (1 << shift) - 1
    assert len(trans) == label_count, name
    for position, element in enumerate(elements):
        labels = 0
        for label_id, row in enumerate(trans):
            count = (element >> (shift * label_id)) & field
            exact = element + (1 << (shift * label_id)) if count < field else None
            target = row[position]
            if target >= 0:
                assert elements[target] == exact, (
                    f"{name}: trans[{label_id}][{position}] is not exact"
                )
                labels |= 1 << label_id
            else:
                assert exact not in closure, (
                    f"{name}: trans[{label_id}][{position}] is missing"
                )
        assert extends[position] == labels, f"{name}: extends[{position}]"


def test_closure_machine_is_exact_and_complete():
    """Over the generated corpus, on the node machine of every Rbar
    input, the machine the downward closure walk builds holds exactly
    the exact one-label transitions inside the closure, and the node
    closure is every sub-multiset of every node configuration."""
    node = 0
    for item in generated_corpus():
        try:
            renamed = rename_to_strings(R(item.problem, use_kernel=True)).problem
        except InvalidProblem:
            continue
        kernel = KernelProblem.of(renamed)
        _assert_machine_exact_and_complete(
            kernel.node_dfs_machine(), kernel.shift, kernel.n, f"node {item.name}"
        )
        assert kernel.node_prefix_closure() == {
            pack_ids(combo, kernel.shift)
            for configuration in renamed.node_constraint.configurations
            for size in range(kernel.delta + 1)
            for combo in itertools.combinations(
                kernel.interner.ids_of(configuration.items), size
            )
        }, f"node {item.name}: closure"
        node += 1
    assert node > 0


# ---------------------------------------------------------------------------
# Views built from condensed lines
# ---------------------------------------------------------------------------

def _view_facts(problem):
    """Everything a kernel view derives from its two constraints."""
    kernel = KernelProblem(problem)
    return {
        "node_words": kernel.node_words,
        "compat": kernel.compat,
        "node_ge_masks": kernel.node_ge_masks(),
        "right_closed": kernel.node_right_closed_sets(),
        "minimal_labels": kernel.node_minimal_labels(),
        "pn_solvable": kernel.pn_solvable(),
        "symmetric_solvable": kernel.symmetric_solvable(),
    }


def _line_and_configuration_pairs():
    """``(name, built from lines, built from configurations)`` over the
    generated corpus, the Pi_Delta(a, x) grid for Delta <= 6 and the
    Lemma 6 normal forms for x + 2 <= a <= Delta <= 8."""
    for item in generated_corpus():
        yield item.name, from_lines(item.problem), item.problem
    for delta in range(2, 7):
        for a in range(delta + 1):
            for x in range(a + 1):
                problem = family_problem(delta, a, x)
                yield f"family{(delta, a, x)}", problem, expanded(problem)
    for delta in range(2, 9):
        for a in range(2, delta + 1):
            for x in range(a - 1):
                problem = expected_r_of_family(delta, a, x)
                yield f"lemma6{(delta, a, x)}", problem, expanded(problem)


def test_line_built_view_equals_configuration_built_view():
    """Packing lines group by group gives the view that packing the
    expanded configurations gives: the same words, partner masks,
    strength relation, right-closed sets, minimal labels and zero-round
    verdicts."""
    names = []
    for name, lined, configured in _line_and_configuration_pairs():
        assert lined.node_constraint.lines is not None, name
        assert configured.node_constraint.lines is None, name
        assert _view_facts(lined) == _view_facts(configured), name
        names.append(name)
    # 80 corpus inputs, 80 grid points and 84 normal forms.
    assert len(names) == 244, len(names)


def test_normal_form_view_expands_no_line(monkeypatch):
    """On Lemma 6's normal form at (8, 8, 0), building the view, its
    right-closed sets and both zero-round predicates expand no line."""
    expansions = []
    original = CondensedConfiguration.expand

    def counting_expand(self):
        expansions.append(self.render())
        return original(self)

    monkeypatch.setattr(CondensedConfiguration, "expand", counting_expand)
    problem = expected_r_of_family(8, 8, 0)
    kernel = KernelProblem(problem)
    assert kernel.node_right_closed_sets()
    assert not kernel.pn_solvable()
    assert not kernel.symmetric_solvable()
    assert len(kernel.node_words) == 1259
    assert not expansions
    assert problem.node_constraint._configurations is None
    assert problem.edge_constraint._configurations is None


@pytest.mark.parametrize(
    "point, cap, reference_phase, kernel_phase",
    [
        ((4, 3, 1), 63, "condensed-expansion", "condensed-expansion"),
        ((5, 5, 0), 100, "condensed-expansion", "condensed-expansion"),
        ((4, 3, 1), 100, "node-maximization", "node-prefix-closure"),
        ((6, 4, 1), 1000, "node-maximization", "node-prefix-closure"),
    ],
    ids=["431-cap63", "550-cap100", "431-cap100", "641-cap1000"],
)
def test_rbar_cap_on_a_line_built_input_trips_in_the_same_phase(
    point, cap, reference_phase, kernel_phase
):
    """Rbar's input, R(Pi) renamed, keeps its lines.  A cap below its
    largest line trips while the lines are expanded (reference) or
    packed (kernel), both under ``"condensed-expansion"``; a cap above
    every line trips in each engine's own maximization phase."""
    for use_kernel, phase in ((False, reference_phase), (True, kernel_phase)):
        renamed = compute_r_of_family(*point).problem
        assert renamed.node_constraint.lines is not None
        with governed(Budget(max_configurations=cap)):
            with pytest.raises(BudgetExceeded) as raised:
                Rbar(renamed, use_kernel=use_kernel)
        assert raised.value.context["phase"] == phase, use_kernel
