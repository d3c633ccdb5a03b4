"""Run registered scenario specs and check their pinned expectations.

Run:  PYTHONPATH=src python tools/run_scenario.py list
      PYTHONPATH=src python tools/run_scenario.py run <name> [--kernel]
      PYTHONPATH=src python tools/run_scenario.py run --all [--kernel]

``list`` prints one row per registered scenario: its name, family,
chain operator, step count, and the exact certified round count the
spec pins.

``run`` resolves a scenario (by its spec ``name`` field) into a base
problem, iterates its chain operator, and checks every expectation the
spec declares — steps taken, certified rounds under the spec's
zero-round policy, fixed-point shape.  ``--all`` runs every registered
scenario in registry order.  ``--kernel`` routes the chain through the
interned bitmask engine; the outcome must be identical (the
differential tests enforce this).  Any other option exits 2.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.robustness.errors import ReproError
from repro.scenarios import (
    ScenarioSpec,
    find_scenario,
    load_registry,
    run_scenario,
)

USAGE = (
    "usage: run_scenario.py list\n"
    "       run_scenario.py run <name> [--kernel]\n"
    "       run_scenario.py run --all [--kernel]\n"
    "\n"
    "Exit status (unified across repro tooling):\n"
    "    0  success: every expectation of the scenario(s) held\n"
    "    1  drift: a chain ran but violated a pinned expectation\n"
    "    2  usage error, unknown scenario, or invalid spec file"
)


def _fail(message: str) -> "SystemExit":
    """One-line ``error:`` diagnostic on stderr, exit status 2."""
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(2)


def list_scenarios() -> int:
    try:
        registry = load_registry()
    except ReproError as error:
        raise _fail(str(error))
    print(
        f"{'name':34s} {'family':20s} {'operator':12s} "
        f"{'steps':>5s} {'certified':>9s}"
    )
    for _, spec in registry:
        print(
            f"{spec.name:34s} {spec.family:20s} {spec.operator:12s} "
            f"{spec.steps:5d} {spec.certified:9d}"
        )
    return 0


def _run_one(spec: ScenarioSpec, use_kernel: bool) -> int:
    try:
        run = run_scenario(spec, use_kernel=use_kernel)
    except ReproError as error:
        raise _fail(f"scenario {spec.name!r} did not run: {error}")
    labels = " -> ".join(str(len(p.alphabet)) for p in run.problems)
    print(
        f"{spec.name}: steps={run.steps} certified={run.certified_rounds} "
        f"fixed_point={run.reached_fixed_point} labels {labels}"
    )
    for failure in run.failures:
        print(f"error: {spec.name}: {failure}", file=sys.stderr)
    return 0 if run.ok else 1


def run(operands: list[str]) -> int:
    use_kernel = "--kernel" in operands
    operands = [arg for arg in operands if arg != "--kernel"]
    for operand in operands:
        if operand.startswith("--") and operand != "--all":
            raise _fail(f"unknown option {operand}\n" + USAGE)
    if operands == ["--all"]:
        try:
            registry = load_registry()
        except ReproError as error:
            raise _fail(str(error))
        worst = 0
        for _, spec in registry:
            worst = max(worst, _run_one(spec, use_kernel))
        return worst
    if len(operands) != 1:
        raise _fail("run takes exactly one scenario name or --all\n" + USAGE)
    try:
        _, spec = find_scenario(operands[0])
    except ReproError as error:
        raise _fail(str(error))
    return _run_one(spec, use_kernel)


def main(argv: list[str]) -> int:
    if not argv:
        print(USAGE, file=sys.stderr)
        return 2
    if argv[0] in ("-h", "--help"):
        print(USAGE)
        return 0
    command, *operands = argv
    if command == "list":
        if operands:
            raise _fail("list takes no operands\n" + USAGE)
        return list_scenarios()
    if command == "run":
        return run(operands)
    raise _fail(f"unknown command {command!r}\n" + USAGE)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
