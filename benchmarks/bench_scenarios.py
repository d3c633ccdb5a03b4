"""RE-SCENARIOS: benchmark rows for the declarative scenario library.

Every registered ``.scn`` scenario (see ``src/repro/scenarios``) is a
certified chain run — MIS, sinkless orientation, maximal matching,
2-ruling sets, and the Delta=16 lower-bound family — so each one gets
a trajectory row alongside the Delta=4 MIS chain that
``bench_kernel.py`` maintains:

* ``PYTHONPATH=src python benchmarks/bench_scenarios.py``
  measures every scenario on both engines over ``PAIRS`` alternating
  pairs (``bench_kernel.measure_pairs``: medians, IQRs, and a speedup
  that is the ratio of the medians), cross-checks that every run's
  chain agrees and meets its declared expectations, and *appends* one
  ``mode: scenario`` row per scenario to ``BENCH_kernel.json``.
* ``PYTHONPATH=src python benchmarks/bench_scenarios.py --check``
  the same over ``QUICK_PAIRS`` pairs, no recording; exits non-zero
  on any expectation failure, cross-engine divergence, or
  semantic-counter drift.

Scenario rows carry ``mode: scenario`` so the kernel quick gate's
regression floors never mix them in.  Failures of any kind exit
non-zero with a one-line ``error:`` diagnostic.
"""

import functools
import os
import sys

from repro.scenarios import load_registry, run_scenario

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_kernel import (
    PAIRS,
    QUICK_PAIRS,
    describe,
    engine_counters,
    measure_pairs,
    traced,
    write_rows,
)

USAGE = (
    "usage: bench_scenarios.py            (measure + append trajectory rows)\n"
    "       bench_scenarios.py --check    (quick pairs, no recording)\n"
    "\n"
    "Exit status (unified across repro tooling):\n"
    "    0  success: every scenario met its expectations on both engines\n"
    "    1  drift: an expectation failed, engines diverged, or counters\n"
    "       drifted\n"
    "    2  usage error"
)


# ---------------------------------------------------------------------------
# Pytest benchmarks
# ---------------------------------------------------------------------------

def test_quick_scenario_kernel_matches_reference(once):
    """The registry's quick scenario, timed on the kernel path and
    cross-checked problem-by-problem against the reference engine."""
    spec = next(spec for decl, spec in load_registry() if decl.quick)
    kernel = once(lambda: run_scenario(spec, use_kernel=True))
    reference = run_scenario(spec, use_kernel=False)
    assert kernel.ok, kernel.failures
    assert reference.ok, reference.failures
    assert kernel.problems == reference.problems


def test_every_scenario_meets_expectations(once):
    """One timed sweep of the full registry on the reference engine."""
    runs = once(
        lambda: [run_scenario(spec) for _, spec in load_registry()]
    )
    for run in runs:
        assert run.ok, (run.spec.name, run.failures)


# ---------------------------------------------------------------------------
# Trajectory maintenance (script mode)
# ---------------------------------------------------------------------------

def measure_scenario(spec, pairs: int) -> tuple[dict, list[str]]:
    """One scenario, reference vs kernel, over ``pairs`` pairs.

    Returns the trajectory row and a list of problems (expectation
    failures, semantic drift); an empty list means the row is good to
    record.  A divergence between the engines raises
    ``AssertionError`` naming the scenario.
    """
    reference = functools.partial(run_scenario, spec, use_kernel=False)
    kernel = functools.partial(run_scenario, spec, use_kernel=True)
    reference_run, reference_records = traced(reference)
    kernel_run, kernel_records = traced(kernel)
    try:
        timing, _ = measure_pairs(
            ("reference", reference), ("kernel", kernel), pairs
        )
    except AssertionError as error:
        raise AssertionError(f"{spec.name}: {error}") from error
    row = {
        "chain": spec.name.replace("-", "_"),
        "mode": "scenario",
        "family": spec.family,
        "operator": spec.operator,
        "certified_rounds": kernel_run.certified_rounds,
        **timing,
        **engine_counters(reference_records, kernel_records),
    }
    problems = [
        f"{spec.name} [{engine}]: {failure}"
        for engine, run in (("reference", reference_run), ("kernel", kernel_run))
        for failure in run.failures
    ]
    problems.extend(f"{spec.name}: {line}" for line in row["semantic_drift"])
    return row, problems


def measure_registry(pairs: int) -> tuple[list[dict], list[str]]:
    rows: list[dict] = []
    problems: list[str] = []
    for _, spec in load_registry():
        row, failures = measure_scenario(spec, pairs)
        rows.append(row)
        problems.extend(failures)
        print(
            f"{row['chain']}: {describe(row)}, "
            f"certified={row['certified_rounds']}"
        )
    return rows, problems


def record() -> int:
    rows, problems = measure_registry(PAIRS)
    if problems:
        for line in problems:
            print(f"  {line}")
        print("error: scenario measurements failed checks", file=sys.stderr)
        return 1
    write_rows(rows)
    return 0


def check() -> int:
    _, problems = measure_registry(QUICK_PAIRS)
    if problems:
        for line in problems:
            print(f"  {line}")
        print("error: scenario checks failed", file=sys.stderr)
        return 1
    print("PASS")
    return 0


def main(argv: list[str]) -> int:
    if argv and argv[0] in ("-h", "--help"):
        print(USAGE)
        return 0
    checking = False
    for argument in argv:
        if argument == "--check":
            checking = True
        else:
            print(f"error: unknown option {argument}", file=sys.stderr)
            return 2
    try:
        return check() if checking else record()
    except Exception as error:  # any measurement failure must exit non-zero
        print(f"error: benchmark failed: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
