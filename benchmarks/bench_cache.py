"""RE-CACHE: cold/warm benchmarks of the content-addressed operator cache.

Running this file as a script measures the Delta=4 and Delta=5 MIS
round-elimination chains (kernel engine) under the cache — cold (a
fresh on-disk store) against warm (the same store, second run) — and
appends one ``"mode": "operator-cache"`` row per chain to
``BENCH_kernel.json``.  The timings come from
``bench_kernel.measure_pairs`` with a fixed order: warm must follow
cold in the same store, so these pairs cannot alternate, and each pair
opens its own fresh store.

* ``PYTHONPATH=src python benchmarks/bench_cache.py``
  measures ``PAIRS`` pairs and *appends* rows to the trajectory.
* ``PYTHONPATH=src python benchmarks/bench_cache.py --quick``
  measures ``QUICK_PAIRS`` pairs and records nothing; the exit status
  reflects the correctness gate only.

Every measurement is correctness-gated by the differential oracle
before any number is written: every cold and warm run, the uncached
kernel chain and one reference-engine chain must produce the *same
problem*, and the traced cold-cached run must show zero
semantic-counter drift against the plain kernel run (``cache.*``
counters are timing-class by design; see
:mod:`repro.observability.schema`).  Failures exit non-zero with a
one-line ``error:`` diagnostic and record nothing.

Cache rows carry ``mode: operator-cache``, so the regression floors of
``bench_kernel.py --quick`` never compare against cache amplification
ratios.
"""

import functools
import os
import sys
import tempfile

from repro.core.cache import OperatorCache, caching
from repro.core.round_elimination import speedup
from repro.observability.metrics import (
    diff_semantic_profiles,
    semantic_profile,
    total_counters,
)
from repro.problems.mis import mis_problem

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_kernel import (
    PAIRS,
    QUICK_PAIRS,
    describe,
    measure_pairs,
    traced,
    write_rows,
)

CHAINS = ((4, 2), (5, 2))

#: Span names whose summed duration is "operator time" for this report.
OPERATOR_SPANS = ("op.R", "op.Rbar")


def run_chain(delta: int, steps: int, *, use_kernel: bool = True):
    problem = mis_problem(delta)
    for _ in range(steps):
        problem = speedup(problem, use_kernel=use_kernel).problem
    return problem


def operator_seconds(records: list[dict]) -> float:
    """Wall-clock spent inside R/Rbar spans (0.0 when all calls hit:
    a cache hit returns before the operator span ever opens)."""
    return sum(
        record["duration_s"]
        for record in records
        if record["type"] == "span" and record["name"] in OPERATOR_SPANS
    )


def measure_chain(delta: int, steps: int, pairs: int) -> dict:
    """Cold/warm timings plus the correctness gate; raises on failure."""
    chain = functools.partial(run_chain, delta, steps)
    # Traced runs for the drift gate and the operator-time split, on a
    # fresh in-memory store so "cold" and "warm" are exact.
    plain, plain_records = traced(chain)
    with caching(OperatorCache()):
        cold, cold_records = traced(chain)
        warm, warm_records = traced(chain)
    drift = diff_semantic_profiles(
        semantic_profile(plain_records), semantic_profile(cold_records)
    )
    if drift:
        raise AssertionError(
            f"semantic drift between plain and cold-cached runs on "
            f"delta={delta}: {drift}"
        )

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as root:
        stores: list[OperatorCache] = []

        def cold_run():
            # Opening the fresh store is part of a cold run.
            stores.append(OperatorCache(os.path.join(root, str(len(stores)))))
            with caching(stores[-1]):
                return chain()

        def warm_run():
            with caching(stores[-1]):
                return chain()

        timing, cached = measure_pairs(
            ("cold", cold_run), ("warm", warm_run), pairs, alternate=False
        )
        stats = stores[-1].stats()
    reference = run_chain(delta, steps, use_kernel=False)
    if not (cached == plain == cold == warm == reference):
        raise AssertionError(
            f"cached, uncached and reference chains disagree on "
            f"delta={delta} steps={steps}"
        )

    return {
        "chain": f"mis_delta{delta}_steps{steps}",
        "mode": "operator-cache",
        **timing,
        "operator_seconds": {
            "cold": round(operator_seconds(cold_records), 4),
            "warm": round(operator_seconds(warm_records), 4),
        },
        "cache": stats,
        "counters": {
            "cold": total_counters(cold_records),
            "warm": total_counters(warm_records),
        },
        "semantic_drift": drift,
    }


def report(entry: dict) -> None:
    ops = entry["operator_seconds"]
    print(
        f"{entry['chain']}: {describe(entry)}; operator time "
        f"cold {ops['cold']}s -> warm {ops['warm']}s; cache {entry['cache']}"
    )


def main(argv: list[str]) -> int:
    quick = False
    for argument in argv:
        if argument == "--quick":
            quick = True
        else:
            print(f"error: unknown option {argument}", file=sys.stderr)
            return 2
    try:
        entries = [
            measure_chain(delta, steps, QUICK_PAIRS if quick else PAIRS)
            for delta, steps in CHAINS
        ]
    except Exception as error:  # measurement failures must exit non-zero
        print(f"error: benchmark failed: {error}", file=sys.stderr)
        return 1
    for entry in entries:
        report(entry)
    if quick:
        print("PASS (nothing recorded)")
        return 0
    write_rows(entries)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
