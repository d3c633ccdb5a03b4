"""RE-ENGINE: micro-benchmarks of the round-elimination operators.

The paper (Sec. 1.2) discusses the doubly-exponential growth of naive
round elimination; these benchmarks measure the engine's R / Rbar cost
versus Delta and alphabet size, and document the growth the family
avoids by staying at 5 labels.

``run_mis_chain`` is the Delta=4 MIS chain that
``benchmarks/bench_kernel.py`` records in ``BENCH_kernel.json``; this
file has no script mode.
"""

from repro.analysis.tables import Table
from repro.core.round_elimination import R, Rbar, rename_to_strings, speedup
from repro.problems.classic import sinkless_orientation_problem
from repro.problems.family import family_problem
from repro.problems.mis import mis_problem

MIS_CHAIN_DELTA = 4
MIS_CHAIN_STEPS = 2


def run_mis_chain(*, use_kernel: bool):
    """The Delta=4 MIS chain: two full speedup steps Rbar(R(.))."""
    problem = mis_problem(MIS_CHAIN_DELTA)
    for _ in range(MIS_CHAIN_STEPS):
        problem = speedup(problem, use_kernel=use_kernel).problem
    return problem


def test_r_of_family_scaling(once):
    def compute():
        rows = []
        for delta in (4, 6, 8, 10, 12):
            problem = family_problem(delta, delta - 2, 1)
            result = R(problem)
            rows.append(
                (delta, len(result.alphabet), len(result.node_constraint),
                 len(result.edge_constraint))
            )
        return rows

    rows = once(compute)
    table = Table(
        "R(Pi_Delta(a, x)) size vs Delta (labels stay at 8: Lemma 6)",
        ["delta", "labels", "node configs", "edge configs"],
    )
    for row in rows:
        table.add_row(*row)
    table.print()
    assert all(labels == 8 and edges == 4 for _, labels, _, edges in rows)


def test_r_timing_mis(benchmark):
    problem = mis_problem(6)
    result = benchmark(lambda: R(problem))
    assert len(result.edge_constraint) == 2


def test_rbar_timing_family(benchmark):
    intermediate = rename_to_strings(R(family_problem(4, 3, 1))).problem
    result = benchmark.pedantic(
        lambda: Rbar(intermediate), iterations=1, rounds=3
    )
    assert len(result.node_constraint) >= 1


def test_speedup_growth_without_simplification(once):
    """The doubly-exponential growth the paper's Sec. 1.2 describes:
    label counts under iterated speedup of MIS, no simplification."""

    def compute():
        problem = mis_problem(3)
        counts = [len(problem.alphabet)]
        for _ in range(2):
            problem = speedup(problem).problem
            counts.append(len(problem.alphabet))
        return counts

    counts = once(compute)
    table = Table(
        "Iterated speedup of MIS (Delta=3), label growth (Sec 1.2)",
        ["step", "labels"],
    )
    for step, count in enumerate(counts):
        table.add_row(step, count)
    table.print()
    assert counts[0] == 3
    assert counts[-1] > counts[0]  # growth without simplification


def test_sinkless_orientation_fixed_point(benchmark):
    """SO reaches its speedup fixed point: the engine agrees with [14]."""
    so = sinkless_orientation_problem(3)

    def compute():
        first = speedup(so).problem
        second = speedup(first).problem
        return first, second

    first, second = benchmark.pedantic(compute, iterations=1, rounds=1)
    assert first.is_isomorphic(second)


def test_kernel_matches_reference_on_chain(once):
    """The interned-bitmask fast path reproduces the reference chain."""
    reference = run_mis_chain(use_kernel=False)
    kernel = once(lambda: run_mis_chain(use_kernel=True))
    assert reference == kernel

