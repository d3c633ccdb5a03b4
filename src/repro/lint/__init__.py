"""``repro.lint`` — project-invariant static analysis (reprolint).

A zero-dependency analyzer for the conventions the engine's
correctness story depends on.  One parse of each file feeds the
per-file rules RL001-RL009 (:mod:`repro.lint.rules`: typed errors,
determinism, declared counters, ``with``-entered
contexts, provenance-after-persist, no stray prints, an annotated
public API, scenario wiring) and then the whole-program detectors
AN001-AN004 (:mod:`repro.lint.detectors`: hot-path allocation
closure, budget reachability, lock order, counter flow) over the call
graph of the files inside ``repro`` (:mod:`repro.lint.callgraph`).

Run it as ``python -m repro.lint src tests tools benchmarks examples``;
see :mod:`repro.lint.cli` for the options and the exit-code convention.
"""

from __future__ import annotations

from repro.lint.callgraph import build_call_graph
from repro.lint.detectors import DETECTORS
from repro.lint.engine import FileReport, discover, lint_paths, parse_file
from repro.lint.facts import collect_facts
from repro.lint.rules import RULES, FileContext, Rule, check_file
from repro.lint.violations import Violation, is_suppressed, parse_suppressions

__all__ = [
    "DETECTORS",
    "FileContext",
    "FileReport",
    "Rule",
    "RULES",
    "Violation",
    "build_call_graph",
    "check_file",
    "collect_facts",
    "discover",
    "is_suppressed",
    "lint_paths",
    "parse_file",
    "parse_suppressions",
]
