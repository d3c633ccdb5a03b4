"""The ``python -m repro.lint`` command line.

Exit-code convention (shared with ``tools/regen_golden.py`` and
``tools/trace_report.py``):

* ``0`` — the scanned tree is clean;
* ``1`` — violations found (or, for the tools, drift detected);
* ``2`` — usage error, or input that could not be read or parsed.

This module deliberately prints: it *is* the script layer the RL007
rule routes user-facing output to — the same carve-out tools/,
examples/, and benchmarks/ get, stated here explicitly because the
file lives inside the package.
"""

from __future__ import annotations

import json
import sys

from repro.lint.detectors import DETECTORS
from repro.lint.engine import FileReport, lint_paths
from repro.lint.rules import RULES

USAGE = """\
usage: python -m repro.lint [--json] [--list-rules] PATH [PATH ...]

Static analysis for the round-elimination engine.  Runs the per-file
rules RL001-RL009 on every python file under the given paths, then the
whole-program detectors AN001-AN004 over the call graph of the files
inside the `repro` package.  The canonical invocation is
`python -m repro.lint src tests tools benchmarks`.  Each finding is
reported as `path:line: CODE message`.

Options:
    --json        print the findings as one JSON report on stdout
    --list-rules  print the rule and detector catalogue and exit

Waive a finding with a comment on its (anchor) line:
    # reprolint: disable=RL001,AN003 -- justification
or, for an AN002 loop, on its header line or the line above:
    # reprolint: unbounded-ok(why this loop is bounded)

Exit status (unified across repro tooling):
    0  clean
    1  violations found
    2  usage error or unreadable/unparseable input
"""


def list_rules() -> str:
    """The catalogue as aligned ``CODE name summary`` lines, RL then AN."""
    entries = [(rule.code, rule.name, rule.summary) for rule in RULES] + [
        (detector.code, detector.name, detector.summary)
        for detector in DETECTORS
    ]
    width = max(len(name) for _, name, _ in entries)
    return "\n".join(
        f"{code}  {name.ljust(width)}  {summary}"
        for code, name, summary in entries
    )


def _json_report(reports: list[FileReport]) -> str:
    return json.dumps(
        {
            "schema": 1,
            "scanned_files": len(reports),
            "violations": [
                {
                    "code": violation.code,
                    "path": violation.path,
                    "line": violation.line,
                    "symbol": violation.symbol,
                    "message": violation.message,
                }
                for report in reports
                for violation in report.violations
            ],
        },
        indent=2,
        sort_keys=True,
    )


def main(argv: list[str]) -> int:
    paths: list[str] = []
    as_json = False
    for argument in argv:
        if argument in ("-h", "--help"):
            print(USAGE)  # reprolint: disable=RL007 -- the lint CLI front-end
            return 0
        if argument == "--list-rules":
            print(list_rules())  # reprolint: disable=RL007 -- the lint CLI front-end
            return 0
        if argument == "--json":
            as_json = True
            continue
        if argument.startswith("-"):
            print(  # reprolint: disable=RL007 -- the lint CLI front-end
                f"error: unknown option {argument}\n{USAGE}", file=sys.stderr
            )
            return 2
        paths.append(argument)
    if not paths:
        print(  # reprolint: disable=RL007 -- the lint CLI front-end
            f"error: no paths given\n{USAGE}", file=sys.stderr
        )
        return 2
    reports, missing = lint_paths(paths)
    for path in missing:
        print(  # reprolint: disable=RL007 -- the lint CLI front-end
            f"error: no such path: {path}", file=sys.stderr
        )
    if missing:
        return 2
    broken = [report for report in reports if report.error is not None]
    for report in broken:
        print(  # reprolint: disable=RL007 -- the lint CLI front-end
            f"error: cannot lint {report.path}: {report.error}",
            file=sys.stderr,
        )
    violations = [
        violation for report in reports for violation in report.violations
    ]
    if as_json:
        print(_json_report(reports))  # reprolint: disable=RL007 -- the lint CLI front-end
    else:
        for violation in violations:
            print(violation.render())  # reprolint: disable=RL007 -- the lint CLI front-end
    if broken:
        return 2
    if violations:
        print(  # reprolint: disable=RL007 -- the lint CLI front-end
            f"reprolint: {len(violations)} violation(s) in "
            f"{sum(1 for r in reports if r.violations)} file(s) "
            f"({len(reports)} scanned)",
            file=sys.stderr,
        )
        return 1
    return 0


__all__ = ["main", "USAGE", "list_rules"]
