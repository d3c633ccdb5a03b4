"""Tests for reprolint's whole-program detectors AN001-AN004.

Each detector has a fixture mini-tree under
``tests/lint_fixtures/<anxxx>/`` mirroring the real layout
(``src/repro/<package>/...``), so module naming and path scoping run
identically over fixtures and product code.  Every tree seeds true
positives *and* waived cases, proving both that the detector fires
and that its ``# reprolint:`` escape hatch works.  The fixture trees
are driven through :func:`repro.lint.lint_paths`, the same single
parse that feeds the per-file rules.

The self-check tests then pin the shipped tree itself at zero
findings — the same gate CI runs via ``python -m repro.lint``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import (
    DETECTORS,
    build_call_graph,
    collect_facts,
    discover,
    lint_paths,
    parse_file,
    parse_suppressions,
)
from repro.lint.callgraph import module_name_of

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"
SRC_TREE = REPO_ROOT / "src" / "repro"

DETECTOR_CODES = [detector.code for detector in DETECTORS]


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


def run_cli(*argv, cwd=None, timeout=300):
    environment = dict(os.environ)
    environment["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *argv],
        cwd=cwd or REPO_ROOT,
        env=environment,
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.fixture(scope="module")
def real_tree():
    """The shipped tree's graph and facts, built once per test module."""
    graph = link(SRC_TREE)
    return graph, collect_facts(graph)


# ---------------------------------------------------------------------------
# The catalogue itself
# ---------------------------------------------------------------------------

def test_catalogue_is_complete_and_ordered():
    assert DETECTOR_CODES == [f"AN{i:03d}" for i in range(1, 5)]
    assert len({detector.name for detector in DETECTORS}) == len(DETECTORS)
    for detector in DETECTORS:
        assert detector.summary


def test_every_detector_has_a_fixture_tree():
    for code in DETECTOR_CODES:
        assert (FIXTURES / code.lower() / "src" / "repro").is_dir(), code


# ---------------------------------------------------------------------------
# Module naming mirrors the real tree
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
    assert 19 not in flagged  # condense: unbounded-ok(reason)
    assert 27 not in flagged  # rebuild: checkpoint in the loop body


def test_an002_empty_waiver_reason_is_itself_a_finding(tmp_path):
    tree = tmp_path / "src" / "repro" / "core"
    tree.mkdir(parents=True)
    (tree / "mod.py").write_text(
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
        "    # reprolint: unbounded-ok()\n"
        "    while items:\n"
        "        total += probe(items)\n"
        "        items = None\n"
        "    return total\n"
        "\n"
        "\n"
        "def probe(items: object) -> int:\n"
        "    return 1\n"
    )
    reports, _ = lint_paths([str(tmp_path / "src")])
    findings = [v for report in reports for v in report.violations]
    assert [finding.code for finding in findings] == ["AN002"]
    assert "non-empty reason" in findings[0].message


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
# Waiver comment parsing
# ---------------------------------------------------------------------------

def test_parse_waivers_reads_both_comment_forms():
    suppressions = parse_suppressions(
        "x = 1  # reprolint: disable=AN001, AN003 -- justified\n"
        "y = 2  # reprolint: disable=all\n"
        "# reprolint: unbounded-ok(scan is one pass)\n"
        "while y:\n"
        "    pass\n"
    )
    assert suppressions.disabled[1] == {"AN001", "AN003"}
    assert suppressions.disabled[2] == {"all"}
    assert suppressions.unbounded == {3: "scan is one pass"}


def test_parse_waivers_keeps_empty_reason_distinct():
    suppressions = parse_suppressions("# reprolint: unbounded-ok()\n")
    assert suppressions.unbounded[1] == ""


# ---------------------------------------------------------------------------
# The shipped tree: self-check and schema closure
# ---------------------------------------------------------------------------

def test_shipped_tree_has_zero_findings():
    reports, _ = lint_paths([str(SRC_TREE)])
    findings = [v.render() for report in reports for v in report.violations]
    assert findings == []


def test_schema_emission_closure(real_tree):
    """Every declared counter is emitted somewhere — the list can't rot."""
    graph, facts = real_tree
    assert facts.schema, "schema tables not found in the scanned tree"
    emitted = {
        name
        for summary in facts.functions.values()
        for name, _ in summary.counter_adds
    }
    missing = sorted(set(facts.schema) - emitted)
    assert not missing, f"declared but never emitted: {missing}"


def test_semantic_counters_are_engine_symmetric(real_tree):
    """Semantic counters are emitted by both engines or by neither."""
    graph, facts = real_tree
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


def test_kernel_dispatch_edges_reach_the_chunk_runners(real_tree):
    """Chunk-kind dispatch links the engine to each runner, and all
    three stay reachable from the pool through its executor entry."""
    graph, _ = real_tree
    engine = "repro.core.kernel.engine"
    dispatched = {
        edge.callee
        for edge in graph.edges
        if edge.kind == "dispatch" and edge.caller.startswith(engine)
    }
    assert dispatched == {
        f"{engine}.search_maximization_chunk",
        f"{engine}.search_existential_chunk",
        f"{engine}.edge_pairing_chunk",
    }
    pool = "repro.core.kernel.parallel.KernelPool.map_chunks"
    assert dispatched <= graph.reachable([pool])


# ---------------------------------------------------------------------------
# The command line, exactly as CI runs it
# ---------------------------------------------------------------------------

class TestAnalysisCli:
    def test_shipped_tree_is_clean(self):
        completed = run_cli("src")
        assert completed.returncode == 0, completed.stdout + completed.stderr

    def test_fixture_tree_exits_1_with_findings(self):
        completed = run_cli("tests/lint_fixtures/an001/src")
        assert completed.returncode == 1
        assert "AN001" in completed.stdout
        assert "violation" in completed.stderr

    def test_json_report_shape(self):
        completed = run_cli("--json", "tests/lint_fixtures/an004/src")
        assert completed.returncode == 1
        report = json.loads(completed.stdout)
        assert report["schema"] == 1
        assert report["scanned_files"] == 3
        assert [v["code"] for v in report["violations"]] == ["AN004", "AN004"]
        assert [v["symbol"] for v in report["violations"]] == [
            "node.configs.out",
            "cache.ghost",
        ]

    def test_missing_path_exits_2(self):
        completed = run_cli("no/such/tree")
        assert completed.returncode == 2
        assert completed.stderr.startswith("error:")

    def test_unparseable_input_exits_2(self, tmp_path):
        tree = tmp_path / "src" / "repro"
        tree.mkdir(parents=True)
        (tree / "broken.py").write_text("def oops(:\n")
        completed = run_cli(str(tree))
        assert completed.returncode == 2
        assert completed.stderr.startswith("error:")

    def test_unknown_option_exits_2(self):
        completed = run_cli("--bogus")
        assert completed.returncode == 2
        assert completed.stderr.startswith("error:")

    def test_help_documents_exit_codes(self):
        completed = run_cli("--help")
        assert completed.returncode == 0
        assert "Exit status" in completed.stdout
        for fragment in ("0  clean", "1  violations", "2  usage"):
            assert fragment in completed.stdout

    def test_list_detectors_prints_the_catalogue(self):
        completed = run_cli("--list-rules")
        assert completed.returncode == 0
        for code in DETECTOR_CODES:
            assert code in completed.stdout
