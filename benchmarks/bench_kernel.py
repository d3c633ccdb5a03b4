"""RE-KERNEL: benchmarks of the interned-bitmask fast path.

Pytest benchmarks time the kernel operators against the reference
engine; running the file as a script maintains ``BENCH_kernel.json``,
a committed trajectory of measured speedups on the Delta=4 MIS chain:

* ``PYTHONPATH=src python benchmarks/bench_kernel.py``
  measures (best of 3) and *appends* an entry to the trajectory.
* ``PYTHONPATH=src python benchmarks/bench_kernel.py --quick``
  single measurement, no recording; exits non-zero if the current
  kernel-vs-reference speedup ratio fell below one third of the best
  recorded ratio (a >3x regression).  Comparing *ratios* rather than
  wall-clock seconds keeps the gate meaningful across machines of
  different speeds; the whole run stays well under a minute.  Rows
  marked ``legacy`` (with a ``legacy_reason``) are kept for the record
  but set no floor: a ratio only compares against rows measured with
  the same reference engine.  The
  quick gate also runs the registry's ``quick`` scenarios (currently
  the Delta=2 maximal-matching self-reduction — a non-MIS family) on
  both engines, failing on any expectation drift or cross-engine
  divergence.
* ``PYTHONPATH=src python benchmarks/bench_kernel.py --parallel``
  records a ``mode: parallel`` trajectory row for the cold Delta=7
  chain, the one measured workload where ``workers=2`` beats serial:
  median and interquartile range of both sides over alternating
  pairs, the shared result fingerprint, and the commit, Python version
  and ``os.cpu_count()`` of the host.  (The older ``mode: sharded``
  rows are marked ``legacy``: the scheduler they measured is gone.)
* ``PYTHONPATH=src python benchmarks/bench_kernel.py --hotpath``
  records a ``mode: hotpath`` trajectory row for the *cold* Delta=5
  chain (fresh transport registry, serial kernel): best-of-3 wall
  clock against the reference engine, the per-op timing/allocation
  breakdown from one profiled run
  (:mod:`repro.observability.profiling`), and the profiler's coverage
  of the traced kernel wall time (must be >= 90%).  ``--quick`` gates
  against the best recorded hotpath row ratio-wise: a >1.5x speedup
  regression on the Delta=5 chain fails the gate.  Add
  ``--trace <path>`` to also write the profiled kernel trace as JSON
  lines — written before the gate checks, so CI can upload it and run
  ``tools/trace_report.py hotspots`` over a failing run.

Besides timings, every measurement runs the chain once per engine
under a tracer and records the summed counters: the semantic ones
(which the two engines must agree on — ``--quick`` fails on any drift)
plus the kernel's cache behavior, giving the trajectory a
work-per-second denominator that wall-clock alone cannot provide.
Failures of any kind exit non-zero with a one-line ``error:``
diagnostic.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time

from repro.core.cache import fingerprint
from repro.core.kernel.interning import transport_registry
from repro.core.round_elimination import R, Rbar, rename_to_strings, speedup
from repro.observability.metrics import (
    diff_semantic_profiles,
    hotspot_profile,
    semantic_profile,
    total_counters,
)
from repro.observability.profiling import Profiler, profiling
from repro.observability.trace import Tracer, tracing
from repro.problems.family import family_problem
from repro.problems.mis import mis_problem

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_engine import MIS_CHAIN_DELTA, MIS_CHAIN_STEPS, run_mis_chain

TRAJECTORY_PATH = os.path.join(REPO_ROOT, "BENCH_kernel.json")
REGRESSION_FACTOR = 3.0

#: The parallel row: the smallest MIS chain where the process fan-out
#: beats the serial kernel on a 2-core host (smaller chains are
#: dominated by pool start-up and payload shipping).
PARALLEL_DELTA = 7
PARALLEL_WORKERS = 2
PARALLEL_PAIRS = 5

#: The hot-path row: the serial cold Delta=5 chain the engine rewrite
#: optimizes.  The quick gate tolerates a 1.5x ratio regression against
#: the best recorded row; the profiler's sections must account for at
#: least 90% of the traced kernel wall time.
HOTPATH_DELTA = 5
HOTPATH_REGRESSION_FACTOR = 1.5
HOTPATH_MIN_COVERAGE = 0.9


# ---------------------------------------------------------------------------
# Pytest benchmarks
# ---------------------------------------------------------------------------

def test_kernel_r_timing(benchmark):
    problem = mis_problem(6)
    result = benchmark(lambda: R(problem, use_kernel=True))
    assert result == R(problem)


def test_kernel_rbar_timing(benchmark):
    intermediate = rename_to_strings(R(family_problem(4, 3, 1))).problem
    result = benchmark.pedantic(
        lambda: Rbar(intermediate, use_kernel=True), iterations=1, rounds=3
    )
    assert result == Rbar(intermediate)


def test_kernel_chain_timing(once):
    """The Delta=4 MIS chain on the kernel path, result cross-checked."""
    kernel = once(lambda: run_mis_chain(use_kernel=True))
    assert kernel == run_mis_chain(use_kernel=False)


def test_parallel_rbar_matches_serial(once):
    """The multiprocessing fan-out is timed and must equal the serial
    kernel result (on single-core CI this measures overhead, not gain)."""
    intermediate = rename_to_strings(R(mis_problem(4))).problem
    parallel = once(lambda: Rbar(intermediate, use_kernel=True, workers=2))
    assert parallel == Rbar(intermediate, use_kernel=True)


# ---------------------------------------------------------------------------
# Trajectory maintenance (script mode)
# ---------------------------------------------------------------------------

def traced_chain_records(use_kernel: bool) -> list[dict]:
    """One untimed chain run under a tracer; the finished records."""
    tracer = Tracer()
    with tracing(tracer):
        run_mis_chain(use_kernel=use_kernel)
    return tracer.finish()


def measure_chain(rounds: int) -> dict:
    """Best-of-``rounds`` timings plus counter summaries per engine.

    The timed runs are untraced (the timings gate a <3% tracing
    overhead budget elsewhere and must not include the tracer); one
    extra traced run per engine collects the counters.
    """
    run_mis_chain(use_kernel=True)  # warm-up (imports, caches)
    reference_seconds = min(
        _timed(lambda: run_mis_chain(use_kernel=False)) for _ in range(rounds)
    )
    kernel_seconds = min(
        _timed(lambda: run_mis_chain(use_kernel=True)) for _ in range(rounds)
    )
    assert run_mis_chain(use_kernel=False) == run_mis_chain(use_kernel=True)
    reference_records = traced_chain_records(use_kernel=False)
    kernel_records = traced_chain_records(use_kernel=True)
    drift = diff_semantic_profiles(
        semantic_profile(reference_records), semantic_profile(kernel_records)
    )
    return {
        "chain": f"mis_delta{MIS_CHAIN_DELTA}_steps{MIS_CHAIN_STEPS}",
        "reference_seconds": round(reference_seconds, 4),
        "kernel_seconds": round(kernel_seconds, 4),
        "speedup": round(reference_seconds / kernel_seconds, 2),
        "counters": {
            "reference": total_counters(reference_records),
            "kernel": total_counters(kernel_records),
        },
        "semantic_drift": drift,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _timed(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def load_trajectory() -> list[dict]:
    if not os.path.exists(TRAJECTORY_PATH):
        return []
    with open(TRAJECTORY_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def record() -> None:
    entry = {**measure_chain(rounds=3), **_provenance()}
    trajectory = load_trajectory()
    trajectory.append(entry)
    with open(TRAJECTORY_PATH, "w", encoding="utf-8") as handle:
        json.dump(trajectory, handle, indent=2)
        handle.write("\n")
    print(f"recorded: {entry}")
    print(f"trajectory length: {len(trajectory)} ({TRAJECTORY_PATH})")


def cache_gate() -> int:
    """The operator cache must be invisible except in the counters.

    Three chain runs — uncached, cold-cached, warm-cached (same store)
    — must produce the same problem, the cold-cached traced profile
    must show zero semantic drift against the plain kernel profile
    (``cache.*`` are timing counters, excluded by design), and the warm
    run must actually hit.
    """
    from repro.core.cache import OperatorCache, caching

    plain = run_mis_chain(use_kernel=True)
    store = OperatorCache()  # in-memory tier only; no disk in CI
    with caching(store):
        cold = run_mis_chain(use_kernel=True)
        warm = run_mis_chain(use_kernel=True)
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
    tracer = Tracer()
    with tracing(tracer), caching(OperatorCache()):
        run_mis_chain(use_kernel=True)
    cached_records = tracer.finish()
    drift = diff_semantic_profiles(
        semantic_profile(traced_chain_records(use_kernel=True)),
        semantic_profile(cached_records),
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


def _provenance() -> dict:
    """Commit (``-dirty`` with local edits), interpreter and core count,
    so rows compare across hosts."""
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
    return {
        "commit": commit,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


def _median_iqr(samples: list[float]) -> tuple[float, float]:
    quartiles = statistics.quantiles(samples, n=4, method="inclusive")
    return statistics.median(samples), quartiles[2] - quartiles[0]


def run_parallel_chain(workers: int | None):
    """The cold Delta=7 MIS chain, serial or fanned out over ``workers``."""
    transport_registry().clear()
    problem = mis_problem(PARALLEL_DELTA)
    for _ in range(MIS_CHAIN_STEPS):
        problem = speedup(problem, use_kernel=True, workers=workers).problem
    return problem


def record_parallel() -> int:
    """Append a ``mode: parallel`` serial-vs-``workers`` row.

    Runs alternate serial and parallel so host drift hits both sides
    alike; every parallel result must have the serial fingerprint.  The
    row keeps the medians and interquartile ranges of both sides.
    """
    serial_seconds: list[float] = []
    parallel_seconds: list[float] = []
    digests: set[str] = set()
    run_parallel_chain(None)  # warm-up (imports, bytecode)
    for _ in range(PARALLEL_PAIRS):
        for workers, samples in (
            (None, serial_seconds),
            (PARALLEL_WORKERS, parallel_seconds),
        ):
            started = time.perf_counter()
            problem = run_parallel_chain(workers)
            samples.append(time.perf_counter() - started)
            digests.add(fingerprint(problem))
    if len(digests) != 1:
        print(
            "error: parallel chain diverged from the serial chain",
            file=sys.stderr,
        )
        return 1
    serial_median, serial_iqr = _median_iqr(serial_seconds)
    parallel_median, parallel_iqr = _median_iqr(parallel_seconds)
    entry = {
        "chain": f"mis_delta{PARALLEL_DELTA}_steps{MIS_CHAIN_STEPS}",
        "mode": "parallel",
        "workers": PARALLEL_WORKERS,
        "pairs": PARALLEL_PAIRS,
        "serial_median_seconds": round(serial_median, 4),
        "serial_iqr_seconds": round(serial_iqr, 4),
        "parallel_median_seconds": round(parallel_median, 4),
        "parallel_iqr_seconds": round(parallel_iqr, 4),
        "speedup": round(serial_median / parallel_median, 2),
        "fingerprint": digests.pop(),
        **_provenance(),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    trajectory = load_trajectory()
    trajectory.append(entry)
    with open(TRAJECTORY_PATH, "w", encoding="utf-8") as handle:
        json.dump(trajectory, handle, indent=2)
        handle.write("\n")
    print(f"recorded: {entry}")
    print(f"trajectory length: {len(trajectory)} ({TRAJECTORY_PATH})")
    return 0


def run_hotpath_chain(*, use_kernel: bool = True):
    """The cold serial Delta=5 chain: fresh transport registry, no
    cross-run interned-artifact reuse — every measurement pays the
    full interning and search cost the hot path is built to shrink."""
    transport_registry().clear()
    problem = mis_problem(HOTPATH_DELTA)
    for _ in range(MIS_CHAIN_STEPS):
        problem = speedup(problem, use_kernel=use_kernel).problem
    return problem


def measure_hotpath(rounds: int, trace_path: str | None = None) -> dict:
    """Best-of-``rounds`` cold Delta=5 timings plus the profiled
    per-op breakdown.

    Timed runs are untraced and unprofiled; one extra traced run per
    engine collects the drift-checked counters, and the kernel's
    traced run is also profiled for the per-op wall/allocation
    breakdown and its coverage of the traced kernel wall time.  With
    ``trace_path`` the profiled kernel trace is also written as JSON
    lines (before any gate checks, so a failing run still leaves the
    evidence behind — CI uploads it and renders
    ``tools/trace_report.py hotspots`` over it).
    """
    run_hotpath_chain()  # warm-up (imports, bytecode)
    kernel_seconds = min(
        _timed(run_hotpath_chain) for _ in range(rounds)
    )
    started = time.perf_counter()
    reference_problem = run_hotpath_chain(use_kernel=False)
    reference_seconds = time.perf_counter() - started
    if reference_problem != run_hotpath_chain():
        raise AssertionError(
            "hot-path kernel chain diverged from the reference engine"
        )
    reference_tracer = Tracer()
    with tracing(reference_tracer):
        run_hotpath_chain(use_kernel=False)
    reference_records = reference_tracer.finish()
    kernel_tracer = Tracer()
    with tracing(kernel_tracer), profiling(Profiler()):
        run_hotpath_chain()
    kernel_records = kernel_tracer.finish()
    if trace_path is not None:
        kernel_tracer.write(trace_path)
    drift = diff_semantic_profiles(
        semantic_profile(reference_records), semantic_profile(kernel_records)
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
        "reference_seconds": round(reference_seconds, 4),
        "kernel_seconds": round(kernel_seconds, 4),
        "speedup": round(reference_seconds / kernel_seconds, 2),
        "profile": breakdown,
        "coverage": round(profile["coverage"] or 0.0, 4),
        "counters": {
            "reference": total_counters(reference_records),
            "kernel": total_counters(kernel_records),
        },
        "semantic_drift": drift,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _print_hotpath_entry(entry: dict) -> None:
    print(
        f"hotpath: speedup {entry['speedup']}x "
        f"(reference {entry['reference_seconds']}s, "
        f"kernel {entry['kernel_seconds']}s, "
        f"coverage {entry['coverage']:.1%})"
    )
    for op, totals in entry["profile"].items():
        print(
            f"  {op}: calls={totals['calls']} "
            f"wall_ms={totals['wall_ms']} "
            f"alloc_blocks={totals['alloc_blocks']}"
        )


def _check_hotpath_entry(entry: dict) -> int:
    """Shared validity checks for record and gate modes; 0 = sound."""
    if entry["semantic_drift"]:
        for line in entry["semantic_drift"]:
            print(f"  {line}")
        print(
            "error: hot-path run drifted semantically between engines",
            file=sys.stderr,
        )
        return 1
    if entry["coverage"] < HOTPATH_MIN_COVERAGE:
        print(
            f"error: profiled sections cover {entry['coverage']:.1%} of "
            f"kernel wall time, below required "
            f"{HOTPATH_MIN_COVERAGE:.0%}",
            file=sys.stderr,
        )
        return 1
    return 0


def record_hotpath(trace_path: str | None = None) -> int:
    """Append a ``mode: hotpath`` row to the trajectory."""
    entry = measure_hotpath(rounds=3, trace_path=trace_path)
    _print_hotpath_entry(entry)
    failed = _check_hotpath_entry(entry)
    if failed:
        return failed
    entry.update(_provenance())
    trajectory = load_trajectory()
    trajectory.append(entry)
    with open(TRAJECTORY_PATH, "w", encoding="utf-8") as handle:
        json.dump(trajectory, handle, indent=2)
        handle.write("\n")
    print(f"trajectory length: {len(trajectory)} ({TRAJECTORY_PATH})")
    return 0


def hotpath_gate() -> int:
    """Single Delta=5 measurement vs. the best hotpath row; 0 = pass.

    Ratio-based like the Delta=4 floor — wall-clock seconds do not
    transfer between machines, kernel-vs-reference speedup ratios do —
    but with the tighter ``HOTPATH_REGRESSION_FACTOR``, since the
    single optimized chain shape is far less noisy than the whole
    suite.  Skips silently when no hotpath row has been recorded yet.
    """
    rows = [
        item
        for item in load_trajectory()
        if item.get("mode") == "hotpath" and not item.get("legacy")
    ]
    if not rows:
        print("no recorded hotpath rows - nothing to compare against")
        return 0
    entry = measure_hotpath(rounds=1)
    _print_hotpath_entry(entry)
    failed = _check_hotpath_entry(entry)
    if failed:
        return failed
    best = max(row["speedup"] for row in rows)
    floor = best / HOTPATH_REGRESSION_FACTOR
    print(
        f"hotpath best recorded: {best}x, regression floor: {floor:.2f}x"
    )
    if entry["speedup"] < floor:
        print(
            f"error: hot-path speedup regressed more than "
            f"{HOTPATH_REGRESSION_FACTOR}x below the best recorded "
            f"hotpath row",
            file=sys.stderr,
        )
        return 1
    return 0


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


def quick_gate() -> int:
    """Single measurement vs. the best recorded ratio; 0 = pass.

    Also fails on any semantic-counter drift between the engines —
    the differential contract checked for free while we have the
    traced runs in hand — and on any cache-transparency violation
    (see :func:`cache_gate`).
    """
    entry = measure_chain(rounds=1)
    trajectory = load_trajectory()
    print(
        f"current: speedup {entry['speedup']}x "
        f"(reference {entry['reference_seconds']}s, "
        f"kernel {entry['kernel_seconds']}s)"
    )
    for engine in ("reference", "kernel"):
        counters = " ".join(
            f"{counter}={value}"
            for counter, value in entry["counters"][engine].items()
        )
        print(f"{engine} counters: {counters}")
    if entry["semantic_drift"]:
        for line in entry["semantic_drift"]:
            print(f"  {line}")
        print(
            "error: semantic counters drifted between reference and kernel",
            file=sys.stderr,
        )
        return 1
    failed = cache_gate()
    if failed:
        return failed
    failed = scenario_gate()
    if failed:
        return failed
    failed = hotpath_gate()
    if failed:
        return failed
    # The trajectory also holds cold/warm cache entries (bench_cache.py)
    # and per-scenario rows (bench_scenarios.py) whose "speedup" does
    # not measure the Delta=4 MIS chain — only plain kernel
    # measurements set the regression floor.
    kernel_entries = [
        item["speedup"]
        for item in trajectory
        if "kernel_seconds" in item
        and "mode" not in item
        and not item.get("legacy")
    ]
    if not kernel_entries:
        print("no recorded trajectory - nothing to compare against")
        return 0
    best = max(kernel_entries)
    floor = best / REGRESSION_FACTOR
    print(f"best recorded: {best}x, regression floor: {floor:.2f}x")
    if entry["speedup"] < floor:
        print(
            f"error: kernel speedup regressed more than "
            f"{REGRESSION_FACTOR}x below the best recorded ratio",
            file=sys.stderr,
        )
        return 1
    print("PASS")
    return 0


def main(argv: list[str]) -> int:
    quick = False
    parallel = False
    hotpath = False
    trace_path: str | None = None
    arguments = list(argv)
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
        elif argument == "--parallel":
            parallel = True
        elif argument == "--hotpath":
            hotpath = True
        else:
            print(f"error: unknown option {argument}", file=sys.stderr)
            return 2
    if trace_path is not None and not hotpath:
        print("error: --trace only applies to --hotpath", file=sys.stderr)
        return 2
    try:
        if quick:
            return quick_gate()
        if parallel:
            return record_parallel()
        if hotpath:
            return record_hotpath(trace_path)
        record()
        return 0
    except Exception as error:  # any measurement failure must exit non-zero
        print(f"error: benchmark failed: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
