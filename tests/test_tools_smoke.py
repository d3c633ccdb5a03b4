"""Subprocess smoke tests for the repo's script entry points.

Every script must honor the CLI contract: exit 0 on success, exit
non-zero with a one-line ``error:`` diagnostic on any failure path —
bad flags, unreadable inputs, stale goldens, semantic drift.  These
tests run the scripts exactly as CI and humans do (fresh interpreter,
``PYTHONPATH=src``), so a broken import or a swallowed failure shows
up here and not in production.
"""

import json
import os
import re
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(*argv, timeout=300):
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return subprocess.run(
        [sys.executable, *argv],
        cwd=REPO_ROOT,
        env=environment,
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def write_demo_trace(path) -> None:
    completed = run_script(
        "examples/lowerbound_sequence.py", "16", "0", "--trace", str(path)
    )
    assert completed.returncode == 0, completed.stderr


class TestRegenGolden:
    def test_check_mode_passes_on_committed_corpus(self):
        completed = run_script("tools/regen_golden.py", "--check")
        assert completed.returncode == 0, completed.stderr
        assert "current" in completed.stdout
        # --check must never write: the corpus predates this test run.

    def test_check_mode_fails_on_stale_corpus(self, tmp_path):
        # Run --check against a doctored copy of one golden file via a
        # fresh GOLDEN_DIR; a missing file must fail loudly.
        completed = run_script(
            "-c",
            "import tools.regen_golden as rg; import sys; "
            f"rg.GOLDEN_DIR = {str(tmp_path)!r}; "
            "sys.exit(rg.main(['--check']))",
        )
        assert completed.returncode == 1
        assert "MISSING" in completed.stdout
        assert "error:" in completed.stderr

    def test_unknown_flag_exits_2(self):
        completed = run_script("tools/regen_golden.py", "--bogus")
        assert completed.returncode == 2
        assert completed.stderr.startswith("error:")

    def test_help_documents_exit_codes(self):
        completed = run_script("tools/regen_golden.py", "--help")
        assert completed.returncode == 0
        assert "Exit status" in completed.stdout


class TestGenerateExperiments:
    def test_check_passes_on_the_committed_file(self):
        completed = run_script("tools/generate_experiments.py", "--check")
        assert completed.returncode == 0, completed.stdout + completed.stderr
        assert "EXPERIMENTS.md is current" in completed.stdout

    def test_an_edited_row_is_stale_and_a_new_date_is_not(self):
        from tools.generate_experiments import stale_lines

        with open(os.path.join(REPO_ROOT, "EXPERIMENTS.md"), encoding="utf-8") as handle:
            committed = handle.read()
        row = next(
            line for line in committed.splitlines() if line.startswith("| FIG5/LEM6 |")
        )
        edited = committed.replace(row, row.replace("exact match", "no match"))
        diff = stale_lines(committed, edited)
        assert f"-{row.replace('exact match', 'no match')}" in diff
        assert f"+{row}" in diff
        redated = re.sub(r"Generated: \S+", "Generated: 1999-01-01", committed)
        assert redated != committed
        assert stale_lines(committed, redated) == []

    def test_unknown_flag_exits_2(self):
        completed = run_script("tools/generate_experiments.py", "--bogus")
        assert completed.returncode == 2
        assert completed.stderr.startswith("error:")

    def test_help_documents_exit_codes(self):
        completed = run_script("tools/generate_experiments.py", "--help")
        assert completed.returncode == 0
        assert "Exit status" in completed.stdout


class TestRunScenario:
    def test_list_shows_every_registered_scenario(self):
        completed = run_script("tools/run_scenario.py", "list")
        assert completed.returncode == 0, completed.stderr
        for name in (
            "mis3-speedup",
            "maximal-matching2-selfreduce",
            "ruling-set2-2-selfreduce",
        ):
            assert name in completed.stdout

    def test_run_maximal_matching_scenario(self):
        """Scenario smoke for the new maximal-matching family."""
        completed = run_script(
            "tools/run_scenario.py", "run", "maximal-matching2-selfreduce"
        )
        assert completed.returncode == 0, completed.stderr + completed.stdout
        assert "certified=3" in completed.stdout

    def test_run_ruling_set_scenario_kernel(self):
        """Scenario smoke for the new ruling-set family, kernel engine."""
        completed = run_script(
            "tools/run_scenario.py", "run", "ruling-set2-2-selfreduce",
            "--kernel",
        )
        assert completed.returncode == 0, completed.stderr + completed.stdout
        assert "certified=2" in completed.stdout

    def test_unknown_scenario_exits_2(self):
        completed = run_script("tools/run_scenario.py", "run", "nope")
        assert completed.returncode == 2
        assert completed.stderr.startswith("error:")

    def test_unknown_command_exits_2(self):
        completed = run_script("tools/run_scenario.py", "frobnicate")
        assert completed.returncode == 2
        assert completed.stderr.startswith("error:")

    def test_removed_workers_flag_is_refused(self):
        """``--workers`` is gone from both CLIs: an old invocation exits
        non-zero with an ``error:`` line instead of running silently."""
        for argv in (
            ("tools/run_scenario.py", "run", "mis3-speedup", "--kernel"),
            ("examples/round_eliminator_cli.py", "1", "--kernel"),
        ):
            completed = run_script(*argv, "--workers", "2")
            assert completed.returncode != 0, argv
            assert completed.stderr.startswith("error:"), argv
            assert "--workers" in completed.stderr, argv

    def test_help_documents_exit_codes(self):
        completed = run_script("tools/run_scenario.py", "--help")
        assert completed.returncode == 0
        assert "Exit status" in completed.stdout

    def test_expectation_drift_exits_1(self, tmp_path):
        """A spec whose pinned certified count is wrong must exit 1."""
        doctored = tmp_path / "scenarios"
        doctored.mkdir()
        source = os.path.join(REPO_ROOT, "scenarios")
        for entry in os.listdir(source):
            with open(os.path.join(source, entry), encoding="utf-8") as handle:
                text = handle.read()
            if entry == "mis3_speedup.scn":
                text = text.replace("certified: 2", "certified: 7")
            (doctored / entry).write_text(text)
        completed = run_script(
            "-c",
            "import sys; import pathlib; "
            "import repro.scenarios.registry as registry; "
            f"registry.SCENARIO_DIR = pathlib.Path({str(doctored)!r}); "
            "import tools.run_scenario as rs; "
            "sys.exit(rs.main(['run', 'mis3-speedup']))",
        )
        assert completed.returncode == 1
        assert "error:" in completed.stderr
        assert "certified" in completed.stderr


class TestBenchKernel:
    def test_unknown_flag_exits_2(self):
        completed = run_script("benchmarks/bench_kernel.py", "--bogus")
        assert completed.returncode == 2
        assert completed.stderr.startswith("error:")

    def test_trace_without_a_profiled_mode_exits_2(self):
        completed = run_script("benchmarks/bench_kernel.py", "--trace", "t.jsonl")
        assert completed.returncode == 2
        assert completed.stderr.startswith("error: --trace only applies")

    @pytest.mark.parametrize("flag", ["--help", "-h"])
    def test_help_documents_exit_codes(self, flag):
        completed = run_script("benchmarks/bench_kernel.py", flag)
        assert completed.returncode == 0, completed.stderr
        assert "Exit status" in completed.stdout
        assert "--hotpath" in completed.stdout
        assert not completed.stderr

    @pytest.mark.slow
    def test_quick_gate_passes_and_prints_counters(self, tmp_path):
        trace = tmp_path / "hotpath.jsonl"
        completed = run_script(
            "benchmarks/bench_kernel.py", "--quick", "--trace", str(trace)
        )
        assert completed.returncode == 0, completed.stderr + completed.stdout
        assert "reference counters:" in completed.stdout
        assert "kernel counters:" in completed.stdout
        assert "labels.in=" in completed.stdout
        assert "scenario gate: maximal-matching2-selfreduce" in completed.stdout
        # The gate's own profiled hot-path trace, for CI's failure report.
        names = {
            json.loads(line).get("name")
            for line in trace.read_text().splitlines()
        }
        assert "prof.op" in names


class TestServe:
    def test_help_documents_exit_codes(self):
        completed = run_script("tools/serve.py", "--help")
        assert completed.returncode == 0
        assert "Exit status" in completed.stdout

    def test_no_command_exits_2(self):
        completed = run_script("tools/serve.py")
        assert completed.returncode == 2
        assert "usage" in completed.stderr

    def test_unknown_command_exits_2(self):
        completed = run_script("tools/serve.py", "frobnicate")
        assert completed.returncode == 2
        assert completed.stderr.startswith("error:")

    def test_bad_port_exits_2(self):
        completed = run_script("tools/serve.py", "serve", "--port", "lots")
        assert completed.returncode == 2
        assert completed.stderr.startswith("error:")

    @pytest.mark.slow
    def test_smoke_gates_hold_and_write_a_trace(self, tmp_path):
        """The CI service gate, end to end: every endpoint over a real
        socket, dedup asserted, the master trace consumable by
        trace_report."""
        trace = tmp_path / "service.jsonl"
        completed = run_script(
            "tools/serve.py", "smoke",
            "--job-dir", str(tmp_path / "jobs"),
            "--trace", str(trace),
        )
        assert completed.returncode == 0, completed.stderr + completed.stdout
        assert "duplicate was deduped" in completed.stdout
        assert completed.stdout.rstrip().endswith("smoke: all gates held")
        report = run_script("tools/trace_report.py", "report", str(trace))
        assert report.returncode == 0, report.stderr
        assert "service.job" in report.stdout


class TestTraceReport:
    def test_report_renders_a_valid_trace(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        write_demo_trace(trace)
        completed = run_script("tools/trace_report.py", "report", str(trace))
        assert completed.returncode == 0, completed.stderr
        assert "chain.run" in completed.stdout
        assert completed.stdout.startswith("trace: ")

    def test_diff_zero_drift_against_itself(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        write_demo_trace(trace)
        completed = run_script(
            "tools/trace_report.py", "diff", str(trace), str(trace)
        )
        assert completed.returncode == 0, completed.stderr
        assert "agree" in completed.stdout

    def test_diff_detects_semantic_drift(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        write_demo_trace(trace)
        doctored_path = tmp_path / "doctored.jsonl"
        doctored_lines = []
        for line in trace.read_text().splitlines():
            record = json.loads(line)
            if record.get("name") == "chain.run":
                record["counters"]["chain.steps"] += 1
            doctored_lines.append(json.dumps(record, sort_keys=True))
        doctored_path.write_text("\n".join(doctored_lines) + "\n")
        completed = run_script(
            "tools/trace_report.py", "diff", str(trace), str(doctored_path)
        )
        assert completed.returncode == 1
        assert "chain.run / chain.steps" in completed.stdout
        assert "error:" in completed.stderr

    def test_invalid_trace_exits_2(self, tmp_path):
        garbage = tmp_path / "garbage.jsonl"
        garbage.write_text('{"type": "mystery"}\n')
        completed = run_script("tools/trace_report.py", "report", str(garbage))
        assert completed.returncode == 2
        assert completed.stderr.startswith("error:")

    def test_missing_file_exits_2(self, tmp_path):
        completed = run_script(
            "tools/trace_report.py", "report", str(tmp_path / "absent.jsonl")
        )
        assert completed.returncode == 2
        assert completed.stderr.startswith("error:")

    def test_unknown_command_exits_2(self):
        completed = run_script("tools/trace_report.py", "frobnicate")
        assert completed.returncode == 2
        assert completed.stderr.startswith("error:")

    def test_help_documents_exit_codes(self):
        completed = run_script("tools/trace_report.py", "--help")
        assert completed.returncode == 0
        assert "Exit status" in completed.stdout

    def test_hotspots_renders_profiled_trace_and_gates(self, tmp_path):
        trace = tmp_path / "profiled.jsonl"
        completed = run_script(
            "-c",
            "from repro.problems.mis import mis_problem\n"
            "from repro.core.round_elimination import speedup\n"
            "from repro.observability.trace import Tracer, tracing\n"
            "from repro.observability.profiling import Profiler, profiling\n"
            "tracer = Tracer()\n"
            "with tracing(tracer), profiling(Profiler()):\n"
            "    q = mis_problem(4)\n"
            "    for _ in range(2):\n"
            "        q = speedup(q, use_kernel=True).problem\n"
            f"tracer.write({str(trace)!r})\n",
        )
        assert completed.returncode == 0, completed.stderr
        rendered = run_script(
            "tools/trace_report.py", "hotspots", str(trace)
        )
        assert rendered.returncode == 0, rendered.stderr
        assert "node_max.dfs" in rendered.stdout
        assert "coverage: profiled" in rendered.stdout
        gated = run_script(
            "tools/trace_report.py", "hotspots", str(trace),
            "--min-coverage", "0.9",
        )
        assert gated.returncode == 0, gated.stderr
        impossible = run_script(
            "tools/trace_report.py", "hotspots", str(trace),
            "--min-coverage", "1.5",
        )
        assert impossible.returncode == 1
        assert "below required" in impossible.stderr

    def test_hotspots_gate_fails_without_profiler_samples(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        write_demo_trace(trace)
        ungated = run_script(
            "tools/trace_report.py", "hotspots", str(trace)
        )
        assert ungated.returncode == 0, ungated.stderr
        gated = run_script(
            "tools/trace_report.py", "hotspots", str(trace),
            "--min-coverage", "0.5",
        )
        assert gated.returncode == 1
        assert "no profiler samples" in gated.stderr

    def test_hotspots_usage_errors_exit_2(self, tmp_path):
        no_operand = run_script("tools/trace_report.py", "hotspots")
        assert no_operand.returncode == 2
        assert no_operand.stderr.startswith("error:")
        bad_number = run_script(
            "tools/trace_report.py", "hotspots", "x.jsonl",
            "--min-coverage", "lots",
        )
        assert bad_number.returncode == 2
        assert bad_number.stderr.startswith("error:")
        missing = run_script(
            "tools/trace_report.py", "hotspots",
            str(tmp_path / "absent.jsonl"),
        )
        assert missing.returncode == 2
        assert missing.stderr.startswith("error:")

    def test_cache_summary_on_uncached_trace(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        write_demo_trace(trace)
        completed = run_script("tools/trace_report.py", "cache", str(trace))
        assert completed.returncode == 0, completed.stderr
        assert "operator cache:" in completed.stdout
        gated = run_script(
            "tools/trace_report.py", "cache", str(trace),
            "--min-hit-rate", "0.9",
        )
        assert gated.returncode == 1  # no cache activity at all
        assert "no operator cache activity" in gated.stderr

    def test_cache_gate_passes_on_warm_rerun(self, tmp_path):
        """The CI warm-cache step, end to end: two identical cached
        runs, the second one >= 90% hits."""
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        environment["REPRO_CACHE_DIR"] = str(tmp_path / "opcache")
        problem_text = "M^4\nP O^3\n\nM [PO]\nO O\n"
        for run in ("cold", "warm"):
            completed = subprocess.run(
                [
                    sys.executable, "examples/round_eliminator_cli.py", "2",
                    "--kernel", "--cache",
                    "--trace", str(tmp_path / f"{run}.jsonl"),
                ],
                cwd=REPO_ROOT, env=environment, input=problem_text,
                capture_output=True, text=True, timeout=300,
            )
            assert completed.returncode == 0, completed.stderr
        gate = run_script(
            "tools/trace_report.py", "cache", str(tmp_path / "warm.jsonl"),
            "--min-hit-rate", "0.9",
        )
        assert gate.returncode == 0, gate.stderr + gate.stdout
        assert "hit_rate=100.00%" in gate.stdout


class TestCallgraphReport:
    def test_stats_line_over_shipped_tree(self):
        completed = run_script("tools/callgraph_report.py", "--stats")
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.startswith("callgraph: ")
        assert "thread roots" in completed.stdout

    def test_dot_output_is_well_formed(self):
        completed = run_script(
            "tools/callgraph_report.py", "--format", "dot", "--threads"
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.startswith("digraph callgraph {")
        assert completed.stdout.rstrip().endswith("}")

    def test_hotpath_filter_selects_kernel_closure(self):
        completed = run_script("tools/callgraph_report.py", "--hotpath")
        assert completed.returncode == 0, completed.stderr
        assert "_maximization_dfs" in completed.stdout

    def test_ambiguous_root_exits_2(self):
        completed = run_script(
            "tools/callgraph_report.py", "--root", "right_closed_sets"
        )
        assert completed.returncode == 2
        assert completed.stderr.startswith("error:")
        assert "ambiguous" in completed.stderr

    def test_unknown_flag_exits_2(self):
        completed = run_script("tools/callgraph_report.py", "--bogus")
        assert completed.returncode == 2
        assert completed.stderr.startswith("error:")

    def test_help_documents_exit_codes(self):
        completed = run_script("tools/callgraph_report.py", "--help")
        assert completed.returncode == 0
        assert "Exit status" in completed.stdout


class TestCliTraceFlags:
    def test_round_eliminator_trace_and_metrics(self, tmp_path):
        trace = tmp_path / "re.jsonl"
        completed = run_script(
            "examples/round_eliminator_cli.py", "1",
            "--kernel", "--trace", str(trace), "--metrics",
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        assert trace.exists()
        assert "op.R" in completed.stdout  # the metrics table
        report = run_script("tools/trace_report.py", "report", str(trace))
        assert report.returncode == 0

    def test_full_certificate_trace(self, tmp_path):
        trace = tmp_path / "cert.jsonl"
        completed = run_script(
            "examples/full_certificate.py", "4", "0",
            "--trace", str(trace), "--metrics",
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        assert "certificate.build" in completed.stdout
        report = run_script("tools/trace_report.py", "report", str(trace))
        assert report.returncode == 0
        assert "certificate.build" in report.stdout
