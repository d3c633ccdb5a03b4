"""Regenerate the golden round-elimination corpus under tests/golden/.

Run:  PYTHONPATH=src python tools/regen_golden.py [--check]
          [--scenario <name>]

Each golden file is the canonical JSON of one operator application —
``Rbar(R(P))`` (a full speedup step) or the Khoury-Schild
self-reduction ``condense(speedup(condense(P)))`` — for a pinned input
problem.  ``tests/test_golden.py`` recomputes these with both the
reference engine and the kernel fast path and diffs byte-for-byte, so
any behavioral drift in the operators — label naming, configuration
sets, canonical ordering — shows up as a golden mismatch with a
readable JSON diff.

The case table is the static classics plus one derived case per
registered scenario (:mod:`repro.scenarios`): registering a scenario
with a fresh ``golden`` declaration adds its case here automatically.
``--scenario <name>`` restricts the run to the golden of one scenario.

``--check`` verifies the committed files against a fresh computation
without writing anything: exit 0 when every file is current, 1 when
any is missing, stale, or *orphaned* — a ``tests/golden/*.json`` no
case references any more, which previously slipped through silently.
Failures of any kind exit non-zero with a one-line ``error:``
diagnostic.

Regenerate *only* when an intentional change to the operators or the
renaming scheme alters the expected output, and eyeball the diff
before committing it.
"""

from __future__ import annotations

import os
import sys
from typing import Callable

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.core.io import problem_to_json
from repro.core.problem import Problem
from repro.core.self_reduction import CHAIN_STEPS
from repro.problems.classic import sinkless_orientation_problem
from repro.problems.family import family_problem
from repro.problems.mis import mis_problem

GOLDEN_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests", "golden"
)

#: name -> (zero-argument problem factory, operator).  The static
#: classics; scenario-derived cases are merged in by golden_cases().
STATIC_CASES: dict[str, tuple[Callable[[], Problem], str]] = {
    "mis3_speedup": (lambda: mis_problem(3), "speedup"),
    "sinkless_orientation3_speedup": (
        lambda: sinkless_orientation_problem(3), "speedup",
    ),
    "family320_speedup": (lambda: family_problem(3, 2, 0), "speedup"),
}


def _scenario_cases() -> dict[str, tuple[Callable[[], Problem], str]]:
    """One derived case per registered scenario with a fresh golden name.

    The lemma13 chain scenario points its ``golden`` declaration at an
    existing speedup case (its Delta=16 chain start is too expensive to
    golden directly), so only speedup/self-reduce scenarios derive
    cases — and names already covered statically are left alone.
    """
    from repro.scenarios import load_registry
    from repro.scenarios.runner import build_problem

    cases: dict[str, tuple[Callable[[], Problem], str]] = {}
    for decl, spec in load_registry():
        if spec.operator not in CHAIN_STEPS:
            continue
        cases.setdefault(
            decl.golden,
            (lambda spec=spec: build_problem(spec), spec.operator),
        )
    return cases


def golden_cases() -> dict[str, tuple[Callable[[], Problem], str]]:
    """The full case table: static classics + scenario-derived cases."""
    cases = dict(STATIC_CASES)
    for name, case in _scenario_cases().items():
        cases.setdefault(name, case)
    return cases


#: The resolved table tests import.  Keep in sync with
#: tests/test_golden.py (which imports this table).
GOLDEN_CASES = golden_cases()


def apply_operator(
    factory: Callable[[], Problem], operator: str, *, use_kernel: bool = False
) -> Problem:
    """Run one step of a case's chain operator on its input problem."""
    problem, _ = CHAIN_STEPS[operator](factory(), use_kernel=use_kernel)
    return problem


def golden_text(factory: Callable[[], Problem], operator: str) -> str:
    """The golden payload: canonical JSON, newline-terminated."""
    return problem_to_json(apply_operator(factory, operator)) + "\n"


def _orphans(cases: dict) -> list[str]:
    """Committed golden files no case references any more."""
    if not os.path.isdir(GOLDEN_DIR):
        return []
    return sorted(
        entry
        for entry in os.listdir(GOLDEN_DIR)
        if entry.endswith(".json") and entry[: -len(".json")] not in cases
    )


def check(cases: dict, *, all_cases: dict) -> int:
    """Verify the committed corpus without writing; 0 = all current."""
    stale = 0
    for name, (factory, operator) in cases.items():
        path = os.path.join(GOLDEN_DIR, f"{name}.json")
        text = golden_text(factory, operator)
        if not os.path.exists(path):
            print(f"{name}.json: MISSING")
            stale += 1
            continue
        with open(path, encoding="utf-8") as handle:
            previous = handle.read()
        if previous != text:
            print(f"{name}.json: STALE")
            stale += 1
        else:
            print(f"{name}.json: current")
    orphans = _orphans(all_cases)
    for orphan in orphans:
        print(f"{orphan}: ORPHAN (no golden case or scenario references it)")
    if stale or orphans:
        problems = []
        if stale:
            problems.append(f"{stale} golden file(s) out of date")
        if orphans:
            problems.append(f"{len(orphans)} orphaned golden file(s)")
        print(
            "error: " + " and ".join(problems) + " - run "
            "tools/regen_golden.py to regenerate, and delete orphans",
            file=sys.stderr,
        )
        return 1
    return 0


def regenerate(cases: dict, *, all_cases: dict) -> int:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, (factory, operator) in cases.items():
        path = os.path.join(GOLDEN_DIR, f"{name}.json")
        text = golden_text(factory, operator)
        previous = None
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                previous = handle.read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        status = (
            "unchanged"
            if previous == text
            else ("updated" if previous is not None else "created")
        )
        print(f"{name}.json: {status}")
    for orphan in _orphans(all_cases):
        print(
            f"{orphan}: ORPHAN (no golden case or scenario references it "
            "- delete it)"
        )
    return 0


USAGE = """\
usage: python tools/regen_golden.py [--check] [--scenario <name>]

Regenerate (default) or verify (--check) the golden round-elimination
corpus under tests/golden/.  --scenario restricts the run to the
golden case of one registered scenario.

Exit status (unified across repro tooling):
    0  corpus regenerated / all files current
    1  drift: a golden file is missing, stale, or orphaned, or the
       computation failed
    2  usage error or unknown scenario
"""


def main(argv: list[str]) -> int:
    check_only = False
    scenario: str | None = None
    index = 0
    while index < len(argv):
        argument = argv[index]
        if argument in ("-h", "--help"):
            print(USAGE, end="")
            return 0
        if argument == "--check":
            check_only = True
        elif argument == "--scenario":
            if index + 1 >= len(argv):
                print("error: --scenario requires a name", file=sys.stderr)
                return 2
            scenario = argv[index + 1]
            index += 1
        else:
            print(f"error: unknown option {argument}", file=sys.stderr)
            print(USAGE, file=sys.stderr, end="")
            return 2
        index += 1
    all_cases = GOLDEN_CASES
    cases = all_cases
    if scenario is not None:
        from repro.robustness.errors import InvalidScenario
        from repro.scenarios import find_scenario

        try:
            decl, _ = find_scenario(scenario)
        except InvalidScenario as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        cases = {decl.golden: all_cases[decl.golden]}
    try:
        if check_only:
            return check(cases, all_cases=all_cases)
        return regenerate(cases, all_cases=all_cases)
    except Exception as error:  # any engine failure must exit non-zero
        print(f"error: golden computation failed: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
