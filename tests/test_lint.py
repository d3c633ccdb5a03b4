"""Tests for reprolint: rules, detectors, waivers, discovery, and the CLI.

Each per-file rule has a fixture triple under
``tests/lint_fixtures/<rule>/`` mirroring the real tree's layout
(``src/repro/<package>/...``), so the path-scoping logic runs
identically over fixtures and product code:

* ``violating.py`` — must yield that rule's code (and only it),
* ``clean.py`` — the idiomatic fix, no violations,
* ``suppressed.py`` — the violation under ``# reprolint: disable=...``.

Each whole-program detector has a fixture mini-tree under
``tests/lint_fixtures/<anxxx>/`` with the same layout, so module naming
runs identically too.  Every tree seeds true positives *and* waived
cases, proving both that the detector fires and that the one waiver
grammar silences it.

The shipped tree is linted exactly twice: once in-process (the
``shipped_lint`` fixture, which also counts ``ast.parse`` calls and
keeps the call graph and facts of its whole-program pass) and once
through the CLI, exactly as CI runs it.  The CLI tests memoise
their subprocess runs by argument list, so tests that read the same
run share it.
"""

from __future__ import annotations

import ast
import functools
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.lint import (
    DETECTORS,
    RULES,
    FileReport,
    build_call_graph,
    collect_facts,
    discover,
    is_suppressed,
    lint_paths,
    parse_file,
    parse_suppressions,
)
from repro.lint import engine as lint_engine
from repro.lint.callgraph import module_name_of

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"

RULE_CODES = [rule.code for rule in RULES]
DETECTOR_CODES = [detector.code for detector in DETECTORS]
SHIPPED_DIRS = ("src", "tests", "tools", "benchmarks", "examples")

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


def analyze_fixture(name):
    """Every finding ``python -m repro.lint`` reports on one fixture tree."""
    reports, missing = lint_paths([str(FIXTURES / name / "src")])
    assert not missing
    assert all(report.error is None for report in reports)
    return [violation for report in reports for violation in report.violations]


def link(path):
    """The call graph of the python files under ``path``."""
    files, missing = discover([str(path)])
    assert not missing
    return build_call_graph(parse_file(name) for name in files)


# ---------------------------------------------------------------------------
# The catalogue itself
# ---------------------------------------------------------------------------

def _assert_catalogue(catalogue) -> None:
    assert len({entry.name for entry in catalogue}) == len(catalogue)
    for entry in catalogue:
        assert entry.summary


def test_catalogue_is_complete_and_ordered():
    # The retired picklable-dispatch rule's number is not reused, so old
    # suppression comments can never silence a different rule.
    assert RULE_CODES == [
        "RL001", "RL002", "RL004", "RL005", "RL006", "RL007", "RL008", "RL009"
    ]
    _assert_catalogue(RULES)


def test_detector_catalogue_is_complete_and_ordered():
    assert DETECTOR_CODES == [f"AN{i:03d}" for i in range(1, 5)]
    _assert_catalogue(DETECTORS)


def test_every_rule_has_a_fixture_triple():
    for code in RULE_CODES:
        directory = FIXTURE_DIRS[code]
        for kind in ("violating", "clean", "suppressed"):
            assert (directory / f"{kind}.py").is_file(), (code, kind)


def test_every_detector_has_a_fixture_tree():
    for code in DETECTOR_CODES:
        assert (FIXTURES / code.lower() / "src" / "repro").is_dir(), code


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
# Module naming and linking mirror the real tree
# ---------------------------------------------------------------------------

def test_module_name_derives_from_last_repro_component():
    fixture = FIXTURES / "an001" / "src" / "repro" / "core" / "kernel" / "hot.py"
    assert module_name_of(str(fixture)) == "repro.core.kernel.hot"
    assert module_name_of("src/repro/core/__init__.py") == "repro.core"
    assert module_name_of("somewhere/else/thing.py") is None


def test_fixture_tree_links_cross_module_calls():
    graph = link(FIXTURES / "an002" / "src")
    chain = graph.call_chain(
        "repro.lowerbound.chain.run", "repro.core.ops.mutate"
    )
    assert chain is not None
    assert chain[:2] == [
        "repro.lowerbound.chain.run",
        "repro.lowerbound.chain.drive",
    ]
    assert chain[2] in {
        "repro.core.ops.explode",
        "repro.core.ops.condense",
        "repro.core.ops.rebuild",
    }
    assert chain[3] == "repro.core.ops.mutate"


def test_thread_targets_become_roots():
    graph = link(FIXTURES / "an003" / "src")
    assert "repro.service.worker.Coordinator.poll" in graph.thread_roots
    assert "repro.service.worker.Coordinator.drain" in graph.thread_roots


# ---------------------------------------------------------------------------
# Per-detector fixtures: true positives and waived cases
# ---------------------------------------------------------------------------

def an001_findings():
    """The AN001 fixture's findings, keyed by line."""
    findings = analyze_fixture("an001")
    assert {finding.code for finding in findings} == {"AN001"}
    return {finding.line: finding for finding in findings}


def test_an001_flags_allocation_in_hot_closure_with_chain():
    finding = an001_findings()[23]  # grown = set() inside _expand
    assert finding.symbol == "repro.core.kernel.hot._expand"
    assert "core.kernel.hot.dfs" in finding.message
    assert "->" in finding.message  # the call chain is reported


def test_an001_disable_comment_waives_the_boot_table():
    assert 34 not in an001_findings()


def test_an001_flags_a_marked_functions_own_allocation():
    finding = an001_findings()[40]  # survivors = set() inside grow
    assert finding.symbol == "repro.core.kernel.hot.grow"
    assert "set() call" in finding.message
    assert "(chain: core.kernel.hot.grow);" in finding.message


def test_an001_marker_above_the_first_decorator_counts():
    finding = an001_findings()[55]  # frozenset(...) in _grow_cached
    assert finding.symbol == "repro.core.kernel.hot._grow_cached"
    assert "frozenset() call" in finding.message


def test_an001_line_suppression_silences_a_marked_function():
    assert 60 not in an001_findings()  # _grow_waived's set comprehension


def test_an001_unmarked_cold_helper_may_build_sets():
    assert 66 not in an001_findings()  # _materialize, reached by no root


def test_an001_trailing_hotpath_comment_marks_nothing():
    findings = an001_findings()
    assert 71 not in findings  # _widths_view, below `... # hotpath table`
    assert sorted(findings) == [23, 40, 55]
    graph = link(FIXTURES / "an001" / "src")
    hot = {
        qualname.rsplit(".", 1)[-1]
        for qualname, summary in collect_facts(graph).functions.items()
        if summary.hotpath
    }
    assert hot == {"dfs", "grow", "_grow_cached", "_grow_waived"}


def test_an002_flags_governed_loop_without_checkpoint():
    findings = analyze_fixture("an002")
    assert [finding.code for finding in findings] == ["AN002"]
    finding = findings[0]
    assert finding.line == 10  # the while loop in explode
    assert finding.symbol == "repro.core.ops.explode"
    assert "governed entry" in finding.message
    assert "lowerbound.chain.run" in finding.message


def test_an002_waiver_and_direct_checkpoint_both_pass():
    findings = analyze_fixture("an002")
    flagged = {finding.line for finding in findings}
    assert 18 not in flagged  # condense: disable=AN002 on the loop header
    assert 26 not in flagged  # rebuild: checkpoint in the loop body


def test_an003_reports_cycle_and_unguarded_cross_thread_write():
    findings = analyze_fixture("an003")
    assert [finding.code for finding in findings] == ["AN003", "AN003"]
    cycle, write = findings
    assert cycle.line == 35  # with self._lock: inside drain
    assert "lock-order cycle" in cycle.message
    assert "Coordinator._aux" in cycle.message
    assert "Coordinator._lock" in cycle.message
    assert write.line == 37  # self._pulse -= 1 in drain
    assert write.symbol == "repro.service.worker.Coordinator._pulse"
    assert "no common lock held" in write.message


def test_an003_guarded_and_waived_writes_pass():
    findings = analyze_fixture("an003")
    symbols = {finding.symbol for finding in findings}
    assert "repro.service.worker.Coordinator._jobs" not in symbols
    assert "repro.service.worker.Coordinator._beacon" not in symbols


def test_an004_flags_dead_and_single_engine_counters():
    findings = analyze_fixture("an004")
    assert [finding.code for finding in findings] == ["AN004", "AN004"]
    single, dead = findings
    assert single.symbol == "node.configs.out"
    assert "only by the kernel engine" in single.message
    assert dead.symbol == "cache.ghost"
    assert "emitted nowhere" in dead.message


def test_an004_waived_and_healthy_counters_pass():
    findings = analyze_fixture("an004")
    symbols = {finding.symbol for finding in findings}
    assert "cache.legacy" not in symbols  # disable comment
    assert "labels.in" not in symbols  # both engines emit it
    assert "cache.hit" not in symbols  # timing counter, one engine is fine


# ---------------------------------------------------------------------------
# The one waiver grammar
# ---------------------------------------------------------------------------

def test_parse_suppressions_single_and_list():
    source = (
        "x = 1  # reprolint: disable=RL001 -- justified\n"
        "y = 2  # reprolint: disable=RL002, RL004 -- justified\n"
        "w = 4  # an ordinary comment\n"
        "s = '# reprolint: disable=RL001 -- inside a string'\n"
    )
    suppressions = parse_suppressions(source)
    assert suppressions == {
        1: frozenset({"RL001"}),
        2: frozenset({"RL002", "RL004"}),
    }
    assert is_suppressed(suppressions, 1, "RL001")
    assert not is_suppressed(suppressions, 1, "RL002")
    assert is_suppressed(suppressions, 2, "RL004")
    assert not is_suppressed(suppressions, 3, "RL001")


def test_parse_suppressions_reads_detector_codes():
    # AN codes share the grammar; codes are case-insensitive, and the
    # waiver on a loop header covers AN002's anchor line.
    suppressions = parse_suppressions(
        "x = 1  # reprolint: disable=AN001, an003 -- justified\n"
        "while x:  # reprolint: disable=AN002 -- one pass\n"
        "    x = 0\n"
    )
    assert suppressions == {
        1: frozenset({"AN001", "AN003"}),
        2: frozenset({"AN002"}),
    }
    assert is_suppressed(suppressions, 1, "AN003")
    assert is_suppressed(suppressions, 2, "AN002")
    assert not is_suppressed(suppressions, 3, "AN002")


#: code -> (file under a ``src/repro`` tree, source whose flagged line
#: carries ``{waiver}``).
_WAIVABLE = {
    "RL001": (
        "analysis/mod.py",
        "def reject(count: int) -> None:\n"
        "    if count < 0:\n"
        "        raise ValueError('negative')  {waiver}\n",
    ),
    "AN002": (
        "core/mod.py",
        "from repro.robustness.budget import governed\n"
        "\n"
        "\n"
        "def run(items: object) -> int:\n"
        "    with governed(items):\n"
        "        return spin(items)\n"
        "\n"
        "\n"
        "def spin(items: object) -> int:\n"
        "    total = 0\n"
        "    while items:  {waiver}\n"
        "        total += probe(items)\n"
        "        items = None\n"
        "    return total\n"
        "\n"
        "\n"
        "def probe(items: object) -> int:\n"
        "    return 1\n",
    ),
}


@pytest.mark.parametrize("code", sorted(_WAIVABLE))
def test_reasonless_waiver_waives_nothing(code, tmp_path):
    relative, template = _WAIVABLE[code]
    expected = {
        f"# reprolint: disable={code} -- bounded": [],
        f"# reprolint: disable={code}": [code],
        f"# reprolint: disable={code} --": [code],
    }
    for index, (waiver, codes) in enumerate(expected.items()):
        root = tmp_path / str(index) / "src"
        target = root / "repro" / relative
        target.parent.mkdir(parents=True)
        target.write_text(template.format(waiver=waiver))
        reports, _ = lint_paths([str(root)])
        found = [v.code for report in reports for v in report.violations]
        assert found == codes, waiver


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
# The shipped tree: self-check and schema closure
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def shipped_lint():
    """The in-process lint of the shipped tree, with its ``ast.parse``
    calls and the ``(call graph, facts)`` its whole-program pass built.

    The one in-process shipped-tree run; the tests below read it.  The
    call graph links only files inside ``repro``, so it is the graph of
    ``src/repro``.
    """
    parsed: Counter[str] = Counter()
    programs = []
    real_parse = ast.parse
    real_collect_facts = lint_engine.collect_facts

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parsed[str(filename)] += 1
        return real_parse(source, filename, *args, **kwargs)

    def capturing_collect_facts(graph):
        facts = real_collect_facts(graph)
        programs.append((graph, facts))
        return facts

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ast, "parse", counting_parse)
        patch.setattr(lint_engine, "collect_facts", capturing_collect_facts)
        targets = [str(REPO_ROOT / name) for name in SHIPPED_DIRS]
        reports, missing = lint_paths(targets)
    assert not missing
    (program,) = programs
    return reports, parsed, program


def test_shipped_tree_is_lint_clean(shipped_lint):
    """Every shipped file parses, and the package itself is scanned."""
    reports, _, _ = shipped_lint
    errors = [report.error for report in reports if report.error]
    assert not errors, errors
    assert any("/repro/" in report.path for report in reports)


def test_shipped_tree_has_zero_findings(shipped_lint):
    reports, _, _ = shipped_lint
    problems = [
        violation.render()
        for report in reports
        for violation in report.violations
    ]
    assert not problems, "\n".join(problems)


def test_one_parse_per_discovered_file(shipped_lint):
    """Both passes share one ``ast.parse`` of each file per run."""
    reports, parsed, _ = shipped_lint
    # String annotations are parsed too, but never under a file name.
    by_file = Counter(
        {name: count for name, count in parsed.items() if name != "<unknown>"}
    )
    assert by_file == Counter(report.path for report in reports)


def test_schema_emission_closure(shipped_lint):
    """Every declared counter is emitted somewhere — the list can't rot."""
    _, _, (graph, facts) = shipped_lint
    assert facts.schema, "schema tables not found in the scanned tree"
    emitted = {
        name
        for summary in facts.functions.values()
        for name, _ in summary.counter_adds
    }
    missing = sorted(set(facts.schema) - emitted)
    assert not missing, f"declared but never emitted: {missing}"


def test_semantic_counters_are_engine_symmetric(shipped_lint):
    """Semantic counters are emitted by both engines or by neither."""
    _, _, (graph, facts) = shipped_lint
    for name in sorted(facts.semantic_counters):
        sites = [
            qualname
            for qualname, summary in facts.functions.items()
            for counter, _ in summary.counter_adds
            if counter == name
        ]
        kernel = [
            site
            for site in sites
            if "kernel" in graph.functions[site].module.split(".")
        ]
        reference = [
            site
            for site in sites
            if "round_elimination" in graph.functions[site].module.split(".")
        ]
        assert bool(kernel) == bool(reference), (name, kernel, reference)


# ---------------------------------------------------------------------------
# The command line: 0 clean / 1 violations / 2 usage
# ---------------------------------------------------------------------------

@functools.cache
def _run_lint(*arguments: str) -> subprocess.CompletedProcess:
    """One ``python -m repro.lint`` run per distinct argument list.

    Tests that pass the same arguments share the run, so the shipped
    tree goes through the CLI once however many tests read the result.
    """
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *arguments],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src")},
        stdin=subprocess.DEVNULL,
        timeout=300,
    )


#: The canonical invocation, as CI runs it.
SHIPPED_RUN = ("--json", *SHIPPED_DIRS)
RL001_VIOLATING = "tests/lint_fixtures/rl001/src/repro/analysis/violating.py"


def test_cli_exit_0_on_clean_input():
    """The shipped tree, linted exactly as CI lints it."""
    result = _run_lint(*SHIPPED_RUN)
    assert result.returncode == 0, result.stdout + result.stderr
    report = json.loads(result.stdout)
    files, _ = discover([str(REPO_ROOT / name) for name in SHIPPED_DIRS])
    assert report["scanned_files"] == len(files)


def test_cli_exit_1_on_violations():
    result = _run_lint(RL001_VIOLATING)
    assert result.returncode == 1
    assert "RL001" in result.stdout
    assert "violation" in result.stderr


def test_cli_exit_2_on_usage_errors():
    for arguments in ((), ("--no-such-flag",), ("no/such/path",)):
        result = _run_lint(*arguments)
        assert result.returncode == 2, arguments
        assert result.stderr.startswith("error:"), arguments


def test_cli_help_and_list_rules_exit_0():
    result = _run_lint("--help")
    assert result.returncode == 0
    assert "exit" in result.stdout.lower()
    assert _run_lint("--list-rules").returncode == 0


def test_cli_list_rules_prints_the_catalogue():
    result = _run_lint("--list-rules")
    assert result.returncode == 0
    for code in RULE_CODES + DETECTOR_CODES:
        assert code in result.stdout


class TestReproLint:
    """The per-file rules, reached through the CLI."""

    def test_shipped_tree_is_clean(self):
        result = _run_lint(*SHIPPED_RUN)
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stderr == ""

    def test_help_exits_0_and_documents_exit_codes(self):
        result = _run_lint("--help")
        assert result.returncode == 0
        assert "Exit status" in result.stdout
        for fragment in ("0  clean", "1  violations", "2  usage"):
            assert fragment in result.stdout

    def test_no_paths_exits_2(self):
        result = _run_lint()
        assert result.returncode == 2
        assert result.stderr.startswith("error: no paths given")

    def test_violating_fixture_exits_1(self):
        result = _run_lint(RL001_VIOLATING)
        assert result.returncode == 1
        assert f"{RL001_VIOLATING}:6: RL001 " in result.stdout
        assert "1 violation(s) in 1 file(s) (1 scanned)" in result.stderr


class TestReproLintDetectors:
    """The whole-program detectors, reached through the same CLI."""

    def test_shipped_tree_is_clean(self):
        result = _run_lint(*SHIPPED_RUN)
        assert result.returncode == 0, result.stdout + result.stderr
        assert json.loads(result.stdout)["violations"] == []

    def test_help_exits_0_and_documents_exit_codes(self):
        result = _run_lint("--help")
        assert result.returncode == 0
        for fragment in (
            "RL001-RL009",
            "AN001-AN004",
            "# reprolint: disable=RL001,AN003 -- ",
        ):
            assert fragment in result.stdout

    def test_fixture_tree_exits_1_with_json_report(self):
        result = _run_lint(
            "--json", RL001_VIOLATING, "tests/lint_fixtures/an004/src"
        )
        assert result.returncode == 1
        report = json.loads(result.stdout)
        assert report["scanned_files"] == 4
        assert [v["code"] for v in report["violations"]] == [
            "RL001", "AN004", "AN004",
        ]

    def test_missing_path_exits_2(self):
        result = _run_lint("no/such/tree")
        assert result.returncode == 2
        assert result.stderr.startswith("error: no such path: no/such/tree")


class TestAnalysisCli:
    """Detector fixture trees and bad input, through the CLI."""

    def test_shipped_tree_is_clean(self):
        result = _run_lint(*SHIPPED_RUN)
        assert result.returncode == 0, result.stdout + result.stderr
        report = json.loads(result.stdout)
        assert report["schema"] == 1
        assert report["violations"] == []

    def test_fixture_tree_exits_1_with_findings(self):
        result = _run_lint("tests/lint_fixtures/an001/src")
        assert result.returncode == 1
        assert "AN001" in result.stdout
        assert "violation" in result.stderr

    def test_json_report_shape(self):
        result = _run_lint("--json", "tests/lint_fixtures/an004/src")
        assert result.returncode == 1
        report = json.loads(result.stdout)
        assert report["schema"] == 1
        assert report["scanned_files"] == 3
        assert [v["code"] for v in report["violations"]] == ["AN004", "AN004"]
        assert [v["symbol"] for v in report["violations"]] == [
            "node.configs.out",
            "cache.ghost",
        ]

    def test_missing_path_exits_2(self):
        result = _run_lint("tests/lint_fixtures/an001/src", "no/such/tree")
        assert result.returncode == 2
        assert result.stderr.startswith("error:")
        assert result.stdout == ""

    def test_unparseable_input_exits_2(self, tmp_path):
        tree = tmp_path / "src" / "repro"
        tree.mkdir(parents=True)
        (tree / "broken.py").write_text("def oops(:\n")
        result = _run_lint(str(tree))
        assert result.returncode == 2
        assert result.stderr.startswith("error: cannot lint")

    def test_unknown_option_exits_2(self):
        result = _run_lint("--bogus")
        assert result.returncode == 2
        assert result.stderr.startswith("error: unknown option --bogus")

    def test_help_documents_exit_codes(self):
        result = _run_lint("-h")
        assert result.returncode == 0
        assert "Exit status" in result.stdout
        assert result.stdout == _run_lint("--help").stdout
