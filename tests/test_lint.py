"""Tests for reprolint: fixtures, suppression, discovery, and self-check.

Each per-file rule has a fixture triple under
``tests/lint_fixtures/<rule>/`` mirroring the real tree's layout
(``src/repro/<package>/...``), so the path-scoping logic runs
identically over fixtures and product code:

* ``violating.py`` — must yield that rule's code (and only it),
* ``clean.py`` — the idiomatic fix, no violations,
* ``suppressed.py`` — the violation under ``# reprolint: disable=...``.

The whole-program detectors' fixture trees (``tests/lint_fixtures/
an00N/``) are exercised in ``tests/test_analysis.py``.  The self-check
test then pins the shipped tree itself at zero violations — the same
gate CI runs via ``python -m repro.lint``.
"""

from __future__ import annotations

import ast
import io
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro.lint import (
    DETECTORS,
    RULES,
    FileReport,
    discover,
    is_suppressed,
    lint_paths,
    parse_suppressions,
)
from repro.lint.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"

RULE_CODES = [rule.code for rule in RULES]
DETECTOR_CODES = [detector.code for detector in DETECTORS]
SHIPPED_DIRS = ("src", "tests", "tools", "benchmarks")

#: rule code -> directory of its fixture triple (mirrors real scoping).
FIXTURE_DIRS = {
    "RL001": FIXTURES / "rl001" / "src" / "repro" / "analysis",
    "RL002": FIXTURES / "rl002" / "src" / "repro" / "sim",
    "RL004": FIXTURES / "rl004" / "src" / "repro" / "observability",
    "RL005": FIXTURES / "rl005" / "src" / "repro" / "robustness",
    "RL006": FIXTURES / "rl006" / "src" / "repro" / "lowerbound",
    "RL007": FIXTURES / "rl007" / "src" / "repro" / "analysis",
    "RL008": FIXTURES / "rl008" / "src" / "repro" / "core",
    "RL009": FIXTURES / "rl009" / "src" / "repro" / "scenarios",
}


def lint_file(path: Path) -> FileReport:
    """The report of one explicitly named file, both passes included."""
    reports, missing = lint_paths([str(path)])
    assert not missing
    (report,) = reports
    return report


# ---------------------------------------------------------------------------
# The catalogue itself
# ---------------------------------------------------------------------------

def test_catalogue_is_complete_and_ordered():
    # The retired picklable-dispatch rule's number is not reused, so old
    # suppression comments can never silence a different rule.
    assert RULE_CODES == [
        "RL001", "RL002", "RL004", "RL005", "RL006", "RL007", "RL008", "RL009"
    ]
    assert len({rule.name for rule in RULES}) == len(RULES)
    for rule in RULES:
        assert rule.summary


def test_every_rule_has_a_fixture_triple():
    for code in RULE_CODES:
        directory = FIXTURE_DIRS[code]
        for kind in ("violating", "clean", "suppressed"):
            assert (directory / f"{kind}.py").is_file(), (code, kind)


# ---------------------------------------------------------------------------
# Per-rule fixtures
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("code", RULE_CODES)
def test_violating_fixture_trips_exactly_its_rule(code):
    report = lint_file(FIXTURE_DIRS[code] / "violating.py")
    assert report.error is None
    assert report.violations, f"{code} fixture yielded nothing"
    assert {violation.code for violation in report.violations} == {code}


@pytest.mark.parametrize("code", RULE_CODES)
def test_clean_fixture_is_clean(code):
    report = lint_file(FIXTURE_DIRS[code] / "clean.py")
    assert report.error is None
    assert report.violations == ()


@pytest.mark.parametrize("code", RULE_CODES)
def test_suppression_silences_the_rule(code):
    report = lint_file(FIXTURE_DIRS[code] / "suppressed.py")
    assert report.error is None
    assert report.violations == ()


def test_rl007_scope_allows_print_under_tools():
    report = lint_file(FIXTURES / "rl007" / "tools" / "script.py")
    assert report.error is None
    assert report.violations == ()


def test_violations_render_path_line_code():
    report = lint_file(FIXTURE_DIRS["RL001"] / "violating.py")
    rendered = report.violations[0].render()
    assert "violating.py:6: RL001 " in rendered


# ---------------------------------------------------------------------------
# Suppression comment parsing
# ---------------------------------------------------------------------------

def test_parse_suppressions_single_and_list():
    source = (
        "x = 1  # reprolint: disable=RL001\n"
        "y = 2  # reprolint: disable=RL002, AN003 -- justified\n"
        "z = 3  # reprolint: disable=all\n"
        "w = 4  # an ordinary comment\n"
    )
    suppressions = parse_suppressions(source)
    assert is_suppressed(suppressions, 1, "RL001")
    assert not is_suppressed(suppressions, 1, "RL002")
    assert is_suppressed(suppressions, 2, "RL002")
    assert is_suppressed(suppressions, 2, "AN003")
    assert is_suppressed(suppressions, 3, "RL008")
    assert is_suppressed(suppressions, 3, "AN001")
    assert not is_suppressed(suppressions, 4, "RL001")


# ---------------------------------------------------------------------------
# Discovery
# ---------------------------------------------------------------------------

def test_discover_skips_fixture_and_golden_dirs():
    files, missing = discover([str(REPO_ROOT / "tests")])
    assert not missing
    assert all("lint_fixtures" not in name for name in files)
    assert any(name.endswith("test_lint.py") for name in files)


def test_discover_reports_missing_paths():
    files, missing = discover([str(REPO_ROOT / "no-such-dir")])
    assert files == []
    assert missing == [str(REPO_ROOT / "no-such-dir")]


def test_explicitly_named_fixture_is_still_lintable():
    # Directory walks skip lint_fixtures, but naming a file directly works
    # (that is how this test module drives the fixtures).
    path = str(FIXTURE_DIRS["RL001"] / "violating.py")
    reports, missing = lint_paths([path])
    assert not missing
    assert len(reports) == 1
    assert reports[0].violations


# ---------------------------------------------------------------------------
# Self-check: the shipped tree is lint-clean
# ---------------------------------------------------------------------------

def test_shipped_tree_is_lint_clean():
    targets = [str(REPO_ROOT / name) for name in SHIPPED_DIRS]
    reports, missing = lint_paths(targets)
    assert not missing
    problems = [
        violation.render()
        for report in reports
        for violation in report.violations
    ]
    errors = [report.error for report in reports if report.error]
    assert not errors, errors
    assert not problems, "\n".join(problems)


def test_one_parse_per_discovered_file(monkeypatch):
    """Both passes share one ``ast.parse`` of each file per run."""
    parsed: Counter[str] = Counter()
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parsed[str(filename)] += 1
        return real_parse(source, filename, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    monkeypatch.chdir(REPO_ROOT)
    with redirect_stdout(io.StringIO()):
        assert main(list(SHIPPED_DIRS)) == 0
    files, _ = discover(list(SHIPPED_DIRS))
    assert any("/repro/" in name for name in files)
    # String annotations are parsed too, but never under a file name.
    del parsed["<unknown>"]
    assert parsed == Counter(files)


# ---------------------------------------------------------------------------
# CLI exit-code convention: 0 clean / 1 violations / 2 usage
# ---------------------------------------------------------------------------

def _run_lint(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *arguments],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src")},
    )


def test_cli_exit_0_on_clean_input():
    result = _run_lint(str(FIXTURE_DIRS["RL001"] / "clean.py"))
    assert result.returncode == 0, result.stdout + result.stderr


def test_cli_exit_1_on_violations():
    result = _run_lint(str(FIXTURE_DIRS["RL001"] / "violating.py"))
    assert result.returncode == 1
    assert "RL001" in result.stdout
    assert "violation" in result.stderr


@pytest.mark.parametrize("code", RULE_CODES)
def test_cli_exit_1_on_each_rules_violating_fixture(code):
    result = _run_lint(str(FIXTURE_DIRS[code] / "violating.py"))
    assert result.returncode == 1
    assert code in result.stdout


def test_cli_exit_2_on_usage_errors():
    assert _run_lint().returncode == 2
    assert _run_lint("--no-such-flag").returncode == 2
    assert _run_lint("no/such/path").returncode == 2


def test_cli_help_and_list_rules_exit_0():
    result = _run_lint("--help")
    assert result.returncode == 0
    assert "exit" in result.stdout.lower()
    listing = _run_lint("--list-rules")
    assert listing.returncode == 0
    for code in RULE_CODES + DETECTOR_CODES:
        assert code in listing.stdout
