"""Regenerate EXPERIMENTS.md from live runs, or check that it is current.

Usage:  python tools/generate_experiments.py [output-path]
        python tools/generate_experiments.py --check [path]

Every row of EXPERIMENTS.md is produced by re-running the experiment it
describes (see ``repro.analysis.experiments``), so the document never
drifts from the code.  ``--check`` reruns every experiment and compares
the result with the file (EXPERIMENTS.md by default) without writing,
ignoring the ``Generated:`` date line.

Exit status: 0 written / current, 1 a stale file or an experiment that
disagrees with the paper, 2 bad usage.
"""

from __future__ import annotations

import difflib
import sys
from datetime import date
from pathlib import Path

from repro.analysis.experiments import run_all_experiments

USAGE = "python tools/generate_experiments.py [--check] [path]"

HEADER = """\
# EXPERIMENTS — paper vs. measured

Reproduction of Balliu, Brandt, Kuhn, Olivetti,
*Improved Distributed Lower Bounds for MIS and Bounded (Out-)Degree
Dominating Sets in Trees* (PODC 2021).

This file is generated by ``python tools/generate_experiments.py``;
each row reruns the experiment it reports, and
``python tools/generate_experiments.py --check`` (run by the test
suite) fails when a rerun no longer matches this file.  The paper is a
theory paper: its "tables and figures" are the five diagrams and the
quantitative lemma / theorem statements, each mapped to an experiment
id in DESIGN.md, whose index names where each claim is checked: a row
here, a module under ``tests/``, or both.

The reproduction contract is *shape*, not absolute constants: who wins,
by what growth rate, where parameter ranges begin and end.  Every
labeling or set any experiment produces is re-checked by an independent
verifier before it is counted.
"""

FOOTER = """\

## Reading guide

* **FIG1/FIG4/FIG5** — the paper's diagrams are recomputed from the
  constraint definitions; agreement is exact (Hasse-edge equality).
* **FIG2/3** — the figures' example instance: a labeling of K_4,4 with
  all three node types, checked by the generic LCL verifier against
  the constraints of Pi_4(2, 2).
* **LEM6/LEM8** — the engine re-derives the round-elimination normal
  forms; for Delta <= 5 the doubly-exponential object Rbar(R(Pi)) is
  materialized in full, beyond that the paper's own case analysis runs
  as a checker (to Delta = 14 here; it is polynomial, the cap is just
  test-time budget).
* **LEM13/THM1** — the chain length is a *certified* round count, so
  the measured constant (~log2(Delta)/3, from the 2^3 decay of `a`)
  sits below the paper's undetermined Omega constant; the growth is
  linear in log Delta as claimed.
* **UPPER/MIS-ALGS/LINE** — simulator measurements; the rooted-tree
  input used by the deterministic pipeline is a documented substitution
  (DESIGN.md), standard for Cole-Vishkin-style algorithms.  LINE's
  degree/outdegree ratio uses the degeneracy orientation, which attains
  the least possible maximum outdegree of each sampled subgraph.
* **Counter provenance** — the operator-level counts that back these
  rows (labels in/out, right-closed sets, configuration counts) are
  the *semantic counters* of the trace schema
  (``repro.observability``): any run can be re-traced with
  ``--trace out.jsonl`` and inspected or diffed via
  ``tools/trace_report.py``, and ``BENCH_kernel.json`` records the
  same counter summaries alongside its timings (every row: each side's
  median and interquartile range over alternating pairs of runs, a
  speedup that is the ratio of the medians, and the commit, Python
  version and core count of the host).  Reference and kernel
  engines must agree on every semantic counter — enforced per corpus
  problem in ``tests/test_trace_differential.py``.
* **SCN** — every row detail is one declarative scenario from
  ``scenarios/*.scn`` (see the DESIGN.md scenario-library section),
  rerun as a certified chain: ``certified`` counts the leading
  0-round-unsolvable iterates under the scenario's declared policy, so
  each value is a machine-checked round lower bound for that family.
  The same registry feeds the oracle corpus, the golden traces
  (``tools/regen_golden.py --scenario``), the CI scenario matrix
  (``tools/run_scenario.py run --all``), and the cross-engine trace
  check in ``tests/test_trace_differential.py``.
* **Cache provenance** — runs under the content-addressed operator
  cache (``repro.core.cache``; enable with ``--cache`` or an ambient
  ``caching(...)`` block) record per-step ``cache: ... hit|miss``
  lines in chain/certificate provenance, appended only after the final
  checkpoint write so cached and uncached runs persist byte-identical
  state.  Cache counters are timing-class: a cached rerun must show
  *zero* semantic drift against a cold one (gated by
  ``benchmarks/bench_kernel.py --quick`` and ``tests/test_cache.py``).
"""


def render(records) -> str:
    lines = [HEADER]
    lines.append(f"Generated: {date.today().isoformat()}\n")
    lines.append("| id | paper claim | measured | shape agrees |")
    lines.append("|---|---|---|---|")
    for record in records:
        lines.append(
            f"| {record.experiment_id} | {record.paper_claim} "
            f"| {record.measured} | {'yes' if record.agrees else 'NO'} |"
        )
    lines.append("")
    for record in records:
        if record.details:
            lines.append(f"### {record.experiment_id} details\n")
            lines.extend(f"* {detail}" for detail in record.details)
            lines.append("")
    lines.append(FOOTER)
    return "\n".join(lines)


def stale_lines(generated: str, checked_in: str) -> list[str]:
    """The unified diff from ``checked_in`` to ``generated``, ignoring
    the ``Generated:`` date line; empty when the file is current."""

    def dated_out(text: str) -> list[str]:
        return [line for line in text.splitlines() if not line.startswith("Generated: ")]

    return list(
        difflib.unified_diff(
            dated_out(checked_in),
            dated_out(generated),
            "checked in",
            "regenerated",
            lineterm="",
        )
    )


def main(argv: list[str] | None = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments in (["--help"], ["-h"]):
        print(__doc__)
        return 0
    check = "--check" in arguments
    if check:
        arguments.remove("--check")
    if len(arguments) > 1 or any(argument.startswith("-") for argument in arguments):
        print(f"error: usage: {USAGE}", file=sys.stderr)
        return 2
    output = Path(arguments[0]) if arguments else Path("EXPERIMENTS.md")
    if check and not output.is_file():
        print(f"error: {output} does not exist", file=sys.stderr)
        return 2
    records = run_all_experiments()
    disagreements = [r.experiment_id for r in records if not r.agrees]
    if check:
        diff = stale_lines(render(records), output.read_text())
        if diff:
            print("\n".join(diff))
            print(f"error: {output} is stale; rerun tools/generate_experiments.py",
                  file=sys.stderr)
            return 1
        print(f"{output} is current ({len(records)} experiments)")
    else:
        output.write_text(render(records))
        print(f"wrote {output} ({len(records)} experiments)")
    if disagreements:
        print(f"DISAGREEMENTS: {disagreements}")
        return 1
    print("all experiments agree with the paper's shapes")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
