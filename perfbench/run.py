"""One-command benchmark of the round-elimination reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload mis-chain-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py compare BASE.txt HEAD.txt

``BENCHMARK.json`` lists the workloads (with why each exists) and the
metrics.  ``--trace 0`` measures the end-to-end metrics with nothing
wrapped.  ``--trace 1`` runs the same ops twice, untraced and then with
the layer wrappers of ``layers.py`` installed (for service-mix, inside
the server process), and reports the per-layer metrics; their spans are
written once, at exit, to ``.perfbench/spans-<workload>-seed<n>.jsonl``.
``--tiny`` shrinks every input, for the smoke test.

Times (op latencies, throughput, set-up) are in host-adjusted seconds:
wall seconds scaled by the host speed that ``hostspeed.py`` probes next
to each op, so that a shared host's slow spells do not read as
regressions.  The provenance line keeps the wall-clock p50 and the
median scale factor beside them.

Standard output holds one ``name value unit`` line per metric, then a
``provenance {...}`` line, and last the JSON result ``{"correct",
"attempted", "failed", "metrics"}``.  ``compare`` reads two files of
saved standard output (any number of runs each) and prints, per
workload and metric, each side's median and quartiles and a verdict of
better, worse or unresolved against the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

#: Cold set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 5
#: Samples a tail percentile must leave beyond it.
TAIL_SAMPLES = 10


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(ops: list, setup_samples: list[float], rss_kb: int) -> tuple[dict, dict]:
    """The end-to-end values, plus which tail percentile was used and
    the wall-clock p50 with the host speed factor."""
    latencies = sorted(op.cost for op in ops)
    tail_rank = max(len(latencies) - 1 - TAIL_SAMPLES, 0)
    replays = [op.cost for op in ops if op.repeat] or latencies
    segments: dict[int, list] = {}
    for op in ops:
        segments.setdefault(op.segment, []).append(op)
    busy = sum(
        (max(op.end for op in members) - min(op.start for op in members)) * members[0].scale
        for members in segments.values()
    )
    values = {
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": latencies[tail_rank],
        "throughput_ops_per_s": len(ops) / busy,
        "replay_latency_p50_s": statistics.median(replays),
        "peak_rss_mb": rss_kb / 1024,
        "setup_s": statistics.median(setup_samples),
    }
    tail = {
        "tail_percentile": 100 * tail_rank / max(len(latencies) - 1, 1),
        "tail_samples": len(latencies),
        "tail_beyond": len(latencies) - 1 - tail_rank,
        "wall_latency_p50_s": statistics.median(op.latency for op in ops),
        "host_scale_median": statistics.median(op.scale for op in ops),
    }
    return values, tail


def per_layer(untraced: list, traced: list, spans: list[dict], service: bool) -> dict:
    """Per-layer values of the traced ops, each per op unless a ratio."""
    import layers

    count = len(traced)
    window = (min(op.start for op in traced), max(op.end for op in traced))
    values = {
        name: total / count for name, total in layers.totals(spans, window).items()
    }
    counters: dict[str, int] = {}
    for op in traced:
        for counter, value in op.detail.get("counters", {}).items():
            counters[counter] = counters.get(counter, 0) + value

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    hits, misses = counters.get("cache.hit", 0), counters.get("cache.miss", 0)
    transported = counters.get("kernel.intern.transported", 0)
    values.update({
        "kernel.node_configs_out": counters.get("node.configs.out", 0) / count,
        "kernel.transported_ratio": ratio(
            transported, transported + counters.get("kernel.cache.miss", 0)
        ),
        "cache.hit_ratio": ratio(hits, hits + misses),
        "cache.stored_bytes": counters.get("cache.bytes", 0) / count,
    })
    client = {
        "service.submit_rtt_s": lambda d: d["submit"][1] - d["submit"][0],
        "service.fetch_rtt_s": lambda d: d["fetch"][1] - d["fetch"][0],
        "service.queue_wait_s": lambda d: d["queue_wait"],
        "service.run_s": lambda d: d["run"],
    }
    if service:
        values["service.dedup_ratio"] = sum(op.repeat for op in traced) / count
        for name, time_of in client.items():
            values[name] = statistics.fmean(time_of(op.detail) for op in traced)
        # An op is covered by its own POST and GET round trips and by
        # the server's execution of its job; queue wait is not a layer.
        runs: dict[str, list[tuple[float, float]]] = {}
        for span in spans:
            if span["job"] is not None:
                runs.setdefault(span["job"], []).append((span["start"], span["end"]))
        covered = 0.0
        for op in traced:
            intervals = [op.detail["submit"], op.detail["fetch"]] + [
                (max(start, op.start), min(end, op.end))
                for start, end in runs.get(op.detail["job"], [])
                if start < op.end
            ]
            covered += layers.union_length(intervals)
    else:
        values["service.dedup_ratio"] = 0.0
        values.update(dict.fromkeys(client, 0.0))
        covered = sum(
            span["end"] - span["start"]
            for span in spans
            if span["depth"] == 0 and window[0] <= span["start"] < window[1]
        )
    values["observability.coverage"] = covered / sum(op.latency for op in traced)
    common = min(len(untraced), count)
    values["observability.trace_overhead_ratio"] = (
        sum(op.cost for op in traced[:common])
        / sum(op.cost for op in untraced[:common])
        - 1
    )
    return values


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def git_commit() -> str | None:
    """HEAD of the checkout's own ``.git``, or ``None`` outside git."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    """SHA-256 over the measured program: ``src/`` and ``scenarios/``."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "scenarios").glob("*.scn"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Running one workload
# ---------------------------------------------------------------------------

def make_workload(args: argparse.Namespace, scratch: Path) -> object:
    from workloads import WORKLOADS, ServiceMix

    kind = WORKLOADS[args.workload]
    if kind is ServiceMix:
        return ServiceMix(args.seed, args.tiny, scratch)
    return kind(args.seed, args.tiny)


def measure(args: argparse.Namespace, workload: object, scratch: Path) -> tuple:
    """``(attempted ops, metric values, notes)`` of one run."""
    from workloads import ServiceMix

    if not args.trace:
        probe = [
            sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds),
        ] + (["--tiny"] if args.tiny else [])
        samples = workload.setup_samples(args.seconds, 1 if args.tiny else SETUP_REPS, probe)
        ops = workload.measure(args.seconds)
        workload.close()
        rss_kb = workload.peak_rss_kb()
        workload.verify(ops)
        values, notes = end_to_end(ops, samples, rss_kb)
        return ops, values, notes
    workload.setup(args.seconds)
    untraced = workload.measure(args.seconds / 2)
    workload.start_tracing()
    traced = workload.measure(args.seconds / 2, count=len(untraced), counters=True)
    spans = workload.stop_tracing()
    workload.verify(untraced + traced)
    import layers

    layers.write_spans(
        str(scratch.parent / f"spans-{args.workload}-seed{args.seed}.jsonl"), spans
    )
    values = per_layer(untraced, traced, spans, isinstance(workload, ServiceMix))
    return untraced + traced, values, {}


def report(args: argparse.Namespace, ops: list, values: dict, notes: dict) -> bool:
    """Print every metric, the provenance and the JSON result line."""
    spec = load_spec()
    names = spec["per_layer" if args.trace else "end_to_end"]
    failed = sum(op.error is not None for op in ops)
    metrics = {}
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    for metric in names:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        note = ""
        if metric["name"] == "latency_tail_s":
            note = (f"  (p{notes['tail_percentile']:.1f} of {notes['tail_samples']}"
                    f" samples, {notes['tail_beyond']} beyond)")
        print(f"{metric['name']:36s} {value:<14.6g} {metric['unit']}{note}")
    print(f"{'failed_ratio':36s} {failed / len(ops):<14.6g} ratio  "
          f"({failed} of {len(ops)} ops)")
    for op in ops:
        if op.error is not None:
            print(f"failed op: {op.error}", file=sys.stderr)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "ops": len(ops),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        **notes,
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return failed == 0


def run(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    workload = make_workload(args, scratch)
    try:
        if args.setup_probe:
            workload.setup(args.seconds)
            return 0
        ops, values, notes = measure(args, workload, scratch)
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)
    return 0 if report(args, ops, values, notes) else 1


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def load_results(path: str) -> dict[str, dict[str, list[float]]]:
    """``{workload: {metric: [value per run]}}`` from saved output."""
    results: dict[str, dict[str, list[float]]] = {}
    workload = "unknown"
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("provenance "):
                workload = json.loads(line[len("provenance "):])["workload"]
                continue
            if not line.startswith("{"):
                continue
            result = json.loads(line)
            for name, metric in result.get("metrics", {}).items():
                results.setdefault(workload, {}).setdefault(name, []).append(metric["value"])
    return results


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def verdict(base: list[float], head: list[float], metric: dict) -> str:
    """better / worse / unresolved for ``head`` against ``base``.

    Worse: the head median is worse than the base median by more than
    the metric's bound (by more than both spreads, for a metric with no
    bound).  Better: it is better by more than both spreads and the
    quartile ranges do not overlap.  Anything else is unresolved.
    """
    sign = 1 if metric["better"] == "lower" else -1
    base_median, head_median = statistics.median(base), statistics.median(head)
    scale = abs(base_median) or 1.0
    change = sign * (head_median - base_median) / scale
    (b1, _, b3), (h1, _, h3) = quartiles(base), quartiles(head)
    spread = max(b3 - b1, h3 - h1) / scale
    separated = h3 < b1 or h1 > b3
    bound = metric.get("bound")
    if bound is not None and change > bound:
        return "worse"
    if bound is None and change > spread and separated:
        return "worse"
    if change < -spread and separated:
        return "better"
    return "unresolved"


def compare(base_path: str, head_path: str) -> int:
    spec = load_spec()
    metrics = spec["end_to_end"] + spec["per_layer"]
    base, head = load_results(base_path), load_results(head_path)
    for workload in sorted(set(base) | set(head)):
        print(f"== {workload}")
        print(f"  {'metric':36s} {'base median [q1, q3]':32s} "
              f"{'head median [q1, q3]':32s} verdict")
        for metric in metrics:
            sides = [side.get(workload, {}).get(metric["name"]) for side in (base, head)]
            if not all(sides):
                continue
            cells = []
            for values in sides:
                q1, _, q3 = quartiles(values)
                cells.append(
                    f"{statistics.median(values):.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"
                )
            print(f"  {metric['name']:36s} {cells[0]:32s} {cells[1]:32s} "
                  f"{verdict(sides[0], sides[1], metric)}")
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare BASE HEAD", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in load_spec()["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs (smoke test)")
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once, cold, and exit (times setup_s)")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
