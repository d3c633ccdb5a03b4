"""RE-KERNEL: benchmarks of the interned-bitmask fast path, and the one
recorder of ``BENCH_kernel.json``.

The script maintains ``BENCH_kernel.json``, a committed trajectory of
measured speedups of the kernel engine over the reference engine.
Every timing in it comes from :func:`measure_pairs`: two sides
run over pairs of untraced runs, alternating which side goes first;
each side keeps the median and interquartile range of its seconds;
``speedup`` is the ratio of the medians; and every run must return the
same result.  A row records
``PAIRS`` pairs; ``--quick`` computes the same statistic over
``QUICK_PAIRS`` pairs.  :func:`write_rows` stamps every row with the
commit, Python version, ``os.cpu_count()`` and time, and writes the
file.

* ``PYTHONPATH=src python benchmarks/bench_kernel.py``
  appends a row for the Delta=4 MIS chain, reference vs kernel.
* ``PYTHONPATH=src python benchmarks/bench_kernel.py --quick``
  records nothing.  It exits non-zero if the Delta=4 speedup fell more
  than ``REGRESSION_FACTOR`` (3x) below the best recorded Delta=4 row,
  or the hot-path speedup more than ``HOTPATH_REGRESSION_FACTOR``
  (1.5x) below the best recorded hot-path row.  Comparing *ratios*
  rather than seconds keeps the gate meaningful across machines.  Rows
  marked ``legacy`` (with a ``legacy_reason``) are kept for the record
  but set no floor, and neither do cache or scenario rows.
  The gate also fails on semantic-counter drift between the engines,
  on a cache-transparency violation (:func:`cache_gate`), and on any
  expectation failure or cross-engine divergence of the registry's
  ``quick`` scenarios (currently the Delta=2 maximal-matching
  self-reduction, a non-MIS family).
* The ``mode: parallel`` and ``mode: sharded`` rows are ``legacy``:
  the process fan-outs they measured are gone.
* ``PYTHONPATH=src python benchmarks/bench_kernel.py --hotpath``
  appends a ``mode: hotpath`` row for the *cold* Delta=5 chain (fresh
  problems, serial kernel) with the per-op timing and
  allocation breakdown of one profiled run
  (:mod:`repro.observability.profiling`) and the profiler's coverage
  of the traced kernel wall time, which must be >= 90%.
* ``--trace <path>``, with ``--quick`` or ``--hotpath``, writes that
  profiled kernel trace as JSON lines before any floor check, so a
  failing gate leaves its own evidence for
  ``tools/trace_report.py hotspots``.
* ``--help`` / ``-h`` prints this text and exits 0.

Before its timed pairs every measurement runs each engine once under a
tracer (which also warms imports and caches) and records the summed
counters: the semantic ones, which the two engines must agree on, plus
the kernel's cache behavior, a work-per-second denominator that wall
clock alone cannot give.  Failures of any kind exit non-zero with a
one-line ``error:`` diagnostic.

Exit status (unified across repro tooling):
    0  success: the gate passed, or the row was recorded
    1  a gate failed (drift, floor, cache or scenario), or a
       measurement raised
    2  usage error
"""

import functools
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from repro.core.round_elimination import speedup
from repro.observability.metrics import (
    diff_semantic_profiles,
    hotspot_profile,
    semantic_profile,
    total_counters,
)
from repro.observability.profiling import profiling
from repro.observability.trace import Tracer, tracing
from repro.problems.mis import mis_problem

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRAJECTORY_PATH = os.path.join(REPO_ROOT, "BENCH_kernel.json")
REGRESSION_FACTOR = 3.0

#: Pairs of runs behind every recorded row, and behind each ``--quick``
#: measurement.  The median of 3 pairs already spreads less than a
#: single run, and keeps ``--quick`` under 10 s on a 2-core host.
PAIRS = 5
QUICK_PAIRS = 3

#: The hot-path row: the serial cold Delta=5 chain the engine rewrite
#: optimizes.  The quick gate tolerates a 1.5x ratio regression against
#: the best recorded row; the profiler's sections must account for at
#: least 90% of the traced kernel wall time.
HOTPATH_DELTA = 5
HOTPATH_REGRESSION_FACTOR = 1.5
HOTPATH_MIN_COVERAGE = 0.9

#: The chain behind the default rows and the ``--quick`` ratio gate:
#: two full speedup steps Rbar(R(.)) of Delta=4 MIS.
MIS_CHAIN_DELTA = 4
MIS_CHAIN_STEPS = 2


def run_mis_chain(*, use_kernel: bool):
    """The Delta=4 MIS chain: two full speedup steps Rbar(R(.))."""
    problem = mis_problem(MIS_CHAIN_DELTA)
    for _ in range(MIS_CHAIN_STEPS):
        problem = speedup(problem, use_kernel=use_kernel).problem
    return problem


# ---------------------------------------------------------------------------
# The recorder: one timing routine, one traced run, one writer
# ---------------------------------------------------------------------------

def measure_pairs(first, second, pairs: int):
    """Time two sides over ``pairs`` pairs of runs.

    ``first`` and ``second`` are ``(name, fn)``.  Each pair runs both
    sides once, untraced.  The side that goes first swaps every pair,
    so drift of the host hits both sides alike.

    Every run must return a result equal to the first run's, so the
    timed runs are also the cross-check between the two sides; a
    mismatch raises ``AssertionError``.

    Returns the row's timing fields and the common result.  The fields
    are ``pairs``, ``<name>_median_seconds`` and ``<name>_iqr_seconds``
    for each side, and ``speedup``: the first side's median over the
    second's.
    """
    seconds: dict[str, list[float]] = {first[0]: [], second[0]: []}
    results = []
    for index in range(pairs):
        order = (second, first) if index % 2 else (first, second)
        for name, fn in order:
            started = time.perf_counter()
            result = fn()
            seconds[name].append(time.perf_counter() - started)
            if not results:
                results.append(result)
            elif result != results[0]:
                raise AssertionError(
                    f"{name} run in pair {index + 1} returned a different "
                    f"result from the first {first[0]} run"
                )
    fields: dict = {"pairs": pairs}
    for name, samples in seconds.items():
        q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
        fields[f"{name}_median_seconds"] = round(statistics.median(samples), 4)
        fields[f"{name}_iqr_seconds"] = round(q3 - q1, 4)
    fields["speedup"] = round(
        statistics.median(seconds[first[0]])
        / statistics.median(seconds[second[0]]),
        2,
    )
    return fields, results[0]


def describe(fields: dict) -> str:
    """One line for :func:`measure_pairs` fields."""
    medians = ", ".join(
        f"{key.removesuffix('_median_seconds')} {value}s"
        for key, value in fields.items()
        if key.endswith("_median_seconds")
    )
    return (
        f"speedup {fields['speedup']}x "
        f"(medians {medians}; {fields['pairs']} pairs)"
    )


def traced(fn, trace_path: str | None = None) -> tuple[object, list[dict]]:
    """One untimed run of ``fn`` under a tracer: its result and the
    finished trace records.  With ``trace_path`` the trace is also
    written there as JSON lines."""
    tracer = Tracer()
    with tracing(tracer):
        result = fn()
    if trace_path is not None:
        tracer.write(trace_path)
    return result, tracer.finish()


def engine_counters(
    reference_records: list[dict], kernel_records: list[dict]
) -> dict:
    """The row fields comparing one traced run per engine: summed
    counters and the semantic drift between them (empty = agree)."""
    return {
        "counters": {
            "reference": total_counters(reference_records),
            "kernel": total_counters(kernel_records),
        },
        "semantic_drift": diff_semantic_profiles(
            semantic_profile(reference_records),
            semantic_profile(kernel_records),
        ),
    }


def load_trajectory() -> list[dict]:
    if not os.path.exists(TRAJECTORY_PATH):
        return []
    with open(TRAJECTORY_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def write_rows(rows: list[dict]) -> None:
    """Append ``rows`` to the trajectory, each stamped with provenance
    so rows compare across hosts: the commit (``-dirty`` with local
    edits), the Python version, ``os.cpu_count()`` and the time."""
    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    stamp = {
        "commit": commit,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    trajectory = load_trajectory()
    trajectory.extend({**row, **stamp} for row in rows)
    with open(TRAJECTORY_PATH, "w", encoding="utf-8") as handle:
        json.dump(trajectory, handle, indent=2)
        handle.write("\n")
    print(
        f"recorded {len(rows)} row(s); trajectory length: "
        f"{len(trajectory)} ({TRAJECTORY_PATH})"
    )


def floor_gate(
    trajectory: list[dict],
    mode: str | None,
    speedup_now: float,
    factor: float,
    what: str,
) -> int:
    """Compare a speedup with the best current row of ``mode``; 0 = pass.

    The Delta=4 chain rows carry no ``mode`` (``mode=None``).  Legacy
    rows set no floor.  A speedup at ``best / factor`` passes; below it
    fails.  With no row to compare against the gate passes.
    """
    best = max(
        (
            row["speedup"]
            for row in trajectory
            if row.get("mode") == mode and not row.get("legacy")
        ),
        default=None,
    )
    if best is None:
        print(f"{what}: no recorded rows - nothing to compare against")
        return 0
    floor = best / factor
    print(
        f"{what}: best recorded {best}x, regression floor {floor:.2f}x, "
        f"current {speedup_now}x"
    )
    if speedup_now < floor:
        print(
            f"error: {what} speedup {speedup_now}x regressed more than "
            f"{factor}x below the best recorded {best}x",
            file=sys.stderr,
        )
        return 1
    return 0


def check_drift(entry: dict, what: str) -> int:
    """0 when the engines agreed on every semantic counter."""
    if not entry["semantic_drift"]:
        return 0
    for line in entry["semantic_drift"]:
        print(f"  {line}")
    print(
        f"error: {what} drifted semantically between reference and kernel",
        file=sys.stderr,
    )
    return 1


# ---------------------------------------------------------------------------
# Trajectory maintenance (script mode)
# ---------------------------------------------------------------------------

def measure_chain(pairs: int) -> dict:
    """The Delta=4 MIS chain, reference vs kernel, over ``pairs`` pairs.

    The timed runs are untraced.  Tracing off is meant to cost under 3%
    of this chain's kernel time; that budget is a documented target,
    not gated here (perfbench records the tracing-on cost as
    ``observability.trace_overhead_ratio``).
    """
    reference = functools.partial(run_mis_chain, use_kernel=False)
    kernel = functools.partial(run_mis_chain, use_kernel=True)
    _, reference_records = traced(reference)
    _, kernel_records = traced(kernel)
    timing, _ = measure_pairs(("reference", reference), ("kernel", kernel), pairs)
    return {
        "chain": f"mis_delta{MIS_CHAIN_DELTA}_steps{MIS_CHAIN_STEPS}",
        **timing,
        **engine_counters(reference_records, kernel_records),
    }


def record() -> int:
    entry = measure_chain(PAIRS)
    print(f"{entry['chain']}: {describe(entry)}")
    failed = check_drift(entry, "Delta=4 chain")
    if not failed:
        write_rows([entry])
    return failed


def cache_gate() -> int:
    """The operator cache must be invisible except in the counters.

    Three chain runs — uncached, cold-cached, warm-cached (same store)
    — must produce the same problem, the cold-cached traced profile
    must show zero semantic drift against the plain kernel profile
    (``cache.*`` are timing counters, excluded by design), and the warm
    run must actually hit.
    """
    from repro.core.cache import OperatorCache, caching

    kernel = functools.partial(run_mis_chain, use_kernel=True)
    plain = kernel()
    store = OperatorCache()  # in-memory tier only; no disk in CI
    with caching(store):
        cold = kernel()
        warm = kernel()
    if not (plain == cold == warm):
        print("error: cached chain diverged from uncached", file=sys.stderr)
        return 1
    if store.hits == 0 or store.misses == 0:
        print(
            f"error: cache gate expected both misses (cold) and hits "
            f"(warm), saw hits={store.hits} misses={store.misses}",
            file=sys.stderr,
        )
        return 1
    with caching(OperatorCache()):
        _, cached_records = traced(kernel)
    drift = diff_semantic_profiles(
        semantic_profile(traced(kernel)[1]), semantic_profile(cached_records)
    )
    if drift:
        for line in drift:
            print(f"  {line}")
        print(
            "error: cold-cached run drifted semantically from the "
            "plain kernel run",
            file=sys.stderr,
        )
        return 1
    cache_totals = {
        counter: value
        for counter, value in total_counters(cached_records).items()
        if counter.startswith("cache.")
    }
    print(f"cache gate: {store.summary_line()} traced={cache_totals}")
    return 0


def run_hotpath_chain(*, use_kernel: bool = True):
    """The cold serial Delta=5 chain: every run builds fresh problems,
    so every measurement pays the full interning and search cost the
    hot path is built to shrink."""
    problem = mis_problem(HOTPATH_DELTA)
    for _ in range(MIS_CHAIN_STEPS):
        problem = speedup(problem, use_kernel=use_kernel).problem
    return problem


def profiled_hotpath_chain():
    """The kernel hot-path chain under a fresh profiler, which emits
    its ``prof.op`` spans into the ambient tracer on exit."""
    with profiling():
        return run_hotpath_chain()


def measure_hotpath(pairs: int, trace_path: str | None = None) -> dict:
    """The cold Delta=5 chain over ``pairs`` pairs, plus the profiled
    per-op breakdown.

    The kernel's traced run is also profiled for the per-op
    wall/allocation breakdown and its coverage of the traced kernel
    wall time.  With ``trace_path`` that trace is written as JSON
    lines before any timing or gate check, so a failing run still
    leaves the evidence behind.
    """
    reference = functools.partial(run_hotpath_chain, use_kernel=False)
    _, reference_records = traced(reference)
    _, kernel_records = traced(profiled_hotpath_chain, trace_path)
    timing, _ = measure_pairs(
        ("reference", reference), ("kernel", run_hotpath_chain), pairs
    )
    profile = hotspot_profile(kernel_records)
    breakdown = {
        op: {
            "calls": totals["calls"],
            "wall_ms": round(totals["wall_ns"] / 1e6, 3),
            "alloc_blocks": totals["alloc_blocks"],
        }
        for op, totals in sorted(
            profile["ops"].items(),
            key=lambda item: item[1]["wall_ns"],
            reverse=True,
        )
    }
    return {
        "chain": f"mis_delta{HOTPATH_DELTA}_steps{MIS_CHAIN_STEPS}",
        "mode": "hotpath",
        **timing,
        "profile": breakdown,
        "coverage": round(profile["coverage"] or 0.0, 4),
        **engine_counters(reference_records, kernel_records),
    }


def checked_hotpath(pairs: int, trace_path: str | None) -> tuple[dict, int]:
    """Measure, print and check a hot-path entry (drift and coverage,
    shared by record and gate modes); the entry and 0 when sound."""
    entry = measure_hotpath(pairs, trace_path)
    print(f"hotpath: {describe(entry)}, coverage {entry['coverage']:.1%}")
    for op, totals in entry["profile"].items():
        print(
            f"  {op}: calls={totals['calls']} "
            f"wall_ms={totals['wall_ms']} "
            f"alloc_blocks={totals['alloc_blocks']}"
        )
    failed = check_drift(entry, "hot-path run")
    if not failed and entry["coverage"] < HOTPATH_MIN_COVERAGE:
        print(
            f"error: profiled sections cover {entry['coverage']:.1%} of "
            f"kernel wall time, below required "
            f"{HOTPATH_MIN_COVERAGE:.0%}",
            file=sys.stderr,
        )
        failed = 1
    return entry, failed


def record_hotpath(trace_path: str | None = None) -> int:
    """Append a ``mode: hotpath`` row to the trajectory."""
    entry, failed = checked_hotpath(PAIRS, trace_path)
    if not failed:
        write_rows([entry])
    return failed


def hotpath_gate(trace_path: str | None = None) -> int:
    """The Delta=5 hot path against the best hot-path row; 0 = pass.

    Ratio-based like the Delta=4 floor, but with the tighter
    ``HOTPATH_REGRESSION_FACTOR``, since the single optimized chain
    shape is far less noisy than the whole suite.
    """
    entry, failed = checked_hotpath(QUICK_PAIRS, trace_path)
    return failed or floor_gate(
        load_trajectory(),
        "hotpath",
        entry["speedup"],
        HOTPATH_REGRESSION_FACTOR,
        "hot path",
    )


def scenario_gate() -> int:
    """The registry's quick scenarios on both engines; 0 = pass.

    Runs every ``quick=True`` declaration from the scenario registry —
    chosen to cover at least one non-MIS family cheaply — on the
    reference and kernel engines and fails on any expectation drift
    (steps, certified rounds, fixed-point shape) or divergence between
    the two certified chains.
    """
    from repro.scenarios import load_registry, run_scenario

    for decl, spec in load_registry():
        if not decl.quick:
            continue
        reference = run_scenario(spec, use_kernel=False)
        kernel = run_scenario(spec, use_kernel=True)
        for engine, run in (("reference", reference), ("kernel", kernel)):
            if not run.ok:
                for failure in run.failures:
                    print(f"  {failure}")
                print(
                    f"error: scenario {spec.name} failed expectations "
                    f"on the {engine} engine",
                    file=sys.stderr,
                )
                return 1
        if reference.problems != kernel.problems:
            print(
                f"error: scenario {spec.name} diverged between engines",
                file=sys.stderr,
            )
            return 1
        labels = " -> ".join(
            str(len(problem.alphabet)) for problem in kernel.problems
        )
        print(
            f"scenario gate: {spec.name} steps={kernel.steps} "
            f"certified={kernel.certified_rounds} labels {labels}"
        )
    return 0


def quick_gate(trace_path: str | None = None) -> int:
    """Every gate, nothing recorded; 0 = pass.

    The Delta=4 chain over ``QUICK_PAIRS`` pairs (semantic drift, then
    its floor, checked last), the cache-transparency gate, the quick
    scenarios and the hot-path gate.
    """
    entry = measure_chain(QUICK_PAIRS)
    print(f"current: {describe(entry)}")
    for engine in ("reference", "kernel"):
        counters = " ".join(
            f"{counter}={value}"
            for counter, value in entry["counters"][engine].items()
        )
        print(f"{engine} counters: {counters}")
    failed = (
        check_drift(entry, "Delta=4 chain")
        or cache_gate()
        or scenario_gate()
        or hotpath_gate(trace_path)
        or floor_gate(
            load_trajectory(),
            None,
            entry["speedup"],
            REGRESSION_FACTOR,
            "Delta=4 chain",
        )
    )
    if not failed:
        print("PASS")
    return failed


def main(argv: list[str]) -> int:
    quick = False
    hotpath = False
    trace_path: str | None = None
    arguments = list(argv)
    if arguments in (["--help"], ["-h"]):
        print(__doc__)
        return 0
    if "--trace" in arguments:
        where = arguments.index("--trace")
        try:
            trace_path = arguments[where + 1]
        except IndexError:
            print("error: --trace needs a path", file=sys.stderr)
            return 2
        arguments = arguments[:where] + arguments[where + 2:]
    for argument in arguments:
        if argument == "--quick":
            quick = True
        elif argument == "--hotpath":
            hotpath = True
        else:
            print(f"error: unknown option {argument}", file=sys.stderr)
            return 2
    if trace_path is not None and not (quick or hotpath):
        print(
            "error: --trace only applies to --quick and --hotpath",
            file=sys.stderr,
        )
        return 2
    try:
        if quick:
            return quick_gate(trace_path)
        if hotpath:
            return record_hotpath(trace_path)
        return record()
    except Exception as error:  # any measurement failure must exit non-zero
        print(f"error: benchmark failed: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
