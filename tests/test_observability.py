"""Trace-invariant property tests for the observability layer.

Seeded-random span trees (stdlib ``random`` only) drive the structural
invariants: spans nest correctly, counters are non-negative and
monotone within a span, every operator span carries problem-size
attributes, and — the zero-overhead contract — disabled tracing emits
nothing and hands out a shared null span.
"""

import random

import pytest

from repro.core.round_elimination import speedup
from repro.core.solvability import zero_round_solvable_symmetric
from repro.observability import trace as trace_module
from repro.observability.cli import cli_tracing
from repro.observability.metrics import (
    diff_semantic_profiles,
    render_phase_table,
    semantic_profile,
    summarize_phases,
    total_counters,
    trace_summary_line,
)
from repro.observability.schema import (
    SCHEMA_VERSION,
    SEMANTIC_COUNTERS,
    TIMING_COUNTERS,
    parse_trace_lines,
    validate_record,
    validate_trace,
)
from repro.observability.trace import (
    Tracer,
    active_tracer,
    tracing,
    tracing_enabled,
)
from repro.problems.mis import mis_problem


def build_random_tree(tracer: Tracer, rng: random.Random, depth: int) -> int:
    """Open random nested spans with random counters; returns span count."""
    opened = 0
    for _ in range(rng.randint(1, 3)):
        with tracer.span(f"phase.{rng.randint(0, 4)}", depth=depth) as span:
            opened += 1
            for _ in range(rng.randint(0, 3)):
                span.add(rng.choice(["work.items", "work.bytes"]), rng.randint(0, 9))
            if rng.random() < 0.4:
                tracer.event("tick", depth=depth)
            if depth > 0 and rng.random() < 0.7:
                opened += build_random_tree(tracer, rng, depth - 1)
    return opened


class TestSpanTreeInvariants:
    @pytest.mark.parametrize("seed", [0, 1, 7, 20210726])
    def test_random_trees_validate_and_nest(self, seed):
        rng = random.Random(seed)
        tracer = Tracer()
        opened = build_random_tree(tracer, rng, depth=3)
        records = tracer.finish()
        validate_trace(records)
        spans = {r["id"]: r for r in records if r["type"] == "span"}
        assert len(spans) == opened + 1  # + the implicit root
        # Exactly one root (the implicit "trace" span), all others
        # parented, and children close before their parents.
        closing_order = [r["id"] for r in records if r["type"] == "span"]
        position = {span_id: idx for idx, span_id in enumerate(closing_order)}
        roots = [r for r in spans.values() if r["parent"] is None]
        assert len(roots) == 1 and roots[0]["name"] == "trace"
        for record in spans.values():
            if record["parent"] is not None:
                parent = spans[record["parent"]]
                assert position[parent["id"]] > position[record["id"]]
                # A child starts no earlier than its parent.
                assert record["start_s"] >= parent["start_s"]

    @pytest.mark.parametrize("seed", [3, 11])
    def test_roundtrips_through_jsonl(self, seed):
        tracer = Tracer()
        build_random_tree(tracer, random.Random(seed), depth=2)
        reparsed = parse_trace_lines(tracer.to_jsonl())
        validate_trace(reparsed)
        assert reparsed == tracer.finish()

    def test_exception_marks_span_error_and_closes_orphans(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                tracer.span("orphan")  # never explicitly closed
                raise RuntimeError("boom")
        records = tracer.finish()
        validate_trace(records)
        by_name = {r["name"]: r for r in records if r["type"] == "span"}
        assert by_name["outer"]["status"] == "error"
        assert by_name["outer"]["error"] == "boom"
        assert by_name["orphan"]["status"] == "error"

    def test_finish_is_idempotent(self):
        tracer = Tracer()
        with tracer.span("only"):
            pass
        first = tracer.finish()
        assert tracer.finish() is first
        assert first[-1]["type"] == "meta"
        assert first[-1]["schema"] == SCHEMA_VERSION


class TestCounters:
    def test_counters_accumulate_monotonically(self):
        rng = random.Random(99)
        tracer = Tracer()
        increments = [rng.randint(0, 100) for _ in range(50)]
        with tracer.span("count") as span:
            running = 0
            for amount in increments:
                span.add("work.items", amount)
                running += amount
                assert span.counters["work.items"] == running
        record = next(r for r in tracer.finish() if r.get("name") == "count")
        assert record["counters"]["work.items"] == sum(increments)

    def test_negative_increment_is_rejected(self):
        tracer = Tracer()
        with tracer.span("count") as span:
            with pytest.raises(ValueError):
                span.add("work.items", -1)

    def test_counter_taxonomy_is_disjoint(self):
        assert not set(SEMANTIC_COUNTERS) & set(TIMING_COUNTERS)


class TestOperatorSpans:
    def test_operator_spans_carry_problem_size(self):
        tracer = Tracer()
        with tracing(tracer):
            speedup(mis_problem(3))
            zero_round_solvable_symmetric(mis_problem(3))
        records = tracer.finish()
        validate_trace(records)
        operator_spans = [
            r for r in records
            if r["type"] == "span" and r["name"].startswith("op.")
        ]
        names = {r["name"] for r in operator_spans}
        assert {"op.speedup", "op.R", "op.Rbar", "op.zero_round_symmetric"} <= names
        for record in operator_spans:
            assert record["attrs"]["engine"] in ("reference", "kernel")
            assert isinstance(record["attrs"]["delta"], int)
            assert record["counters"]["labels.in"] > 0

    def test_operator_counters_are_semantic(self):
        tracer = Tracer()
        with tracing(tracer):
            speedup(mis_problem(3))
        r_span = next(
            r for r in tracer.finish()
            if r["type"] == "span" and r["name"] == "op.R"
        )
        for counter in ("labels.in", "labels.out", "node.configs.out",
                        "edge.configs.out"):
            assert counter in SEMANTIC_COUNTERS
            assert r_span["counters"][counter] >= 0


class TestDisabledTracing:
    def test_no_ambient_tracer_by_default(self):
        assert active_tracer() is None
        assert not tracing_enabled()

    def test_module_helpers_are_noops(self):
        # A singleton null span, and no exception from any helper.
        first = trace_module.span("anything", big_attr="x" * 100)
        second = trace_module.span("else")
        assert first is second
        with first as handle:
            handle.add("work.items", 5)
            handle.set_attr("key", "value")
        trace_module.add("work.items", 3)
        trace_module.event("tick", detail="ignored")
        trace_module.set_attr("key", "value")

    def test_untraced_run_emits_nothing(self):
        # The engine runs identically and no tracer ever materializes.
        result = speedup(mis_problem(3))
        assert active_tracer() is None
        assert result.final.alphabet

    def test_tracing_none_is_passthrough(self):
        with tracing(None) as handle:
            assert handle is None
            assert not tracing_enabled()


class TestGrafting:
    def test_graft_remaps_ids_and_reparents(self):
        job = Tracer()
        with job.span("service.job", job="j1") as span:
            span.add("service.jobs")
            job.event("job.note")
        shipped = job.finish()

        master = Tracer()
        with master.span("service", workers=2):
            master.graft(shipped)
        records = master.finish()
        validate_trace(records)
        job_span = next(r for r in records if r.get("name") == "service.job")
        service = next(r for r in records if r.get("name") == "service")
        job_root = next(
            r for r in records
            if r.get("name") == "trace" and r["id"] == job_span["parent"]
        )
        # The job's root now hangs under the master's open span.
        assert job_root["parent"] == service["id"]
        event = next(r for r in records if r["type"] == "event")
        assert event["span"] == job_span["id"]

    def test_graft_skips_meta_and_empty(self):
        parent = Tracer()
        parent.graft([])
        parent.graft([{"type": "meta", "schema": SCHEMA_VERSION,
                       "spans": 0, "events": 0, "wall_clock_s": 0.0,
                       "peak_rss_kb": None}])
        records = parent.finish()
        validate_trace(records)
        assert sum(1 for r in records if r["type"] == "meta") == 1


class TestSchemaValidation:
    def _valid_trace(self):
        tracer = Tracer()
        with tracer.span("phase"):
            pass
        return tracer.finish()

    def test_rejects_unknown_record_type(self):
        with pytest.raises(ValueError):
            validate_record({"type": "mystery"})

    def test_rejects_negative_counters(self):
        records = self._valid_trace()
        doctored = [dict(r) for r in records]
        doctored[0] = dict(doctored[0], counters={"work.items": -1})
        with pytest.raises(ValueError):
            validate_trace(doctored)

    def test_rejects_duplicate_span_ids(self):
        records = self._valid_trace()
        spans = [r for r in records if r["type"] == "span"]
        doctored = spans + [dict(spans[0])] + [records[-1]]
        with pytest.raises(ValueError):
            validate_trace(doctored)

    def test_rejects_missing_or_misplaced_meta(self):
        records = self._valid_trace()
        with pytest.raises(ValueError):
            validate_trace([r for r in records if r["type"] != "meta"])
        with pytest.raises(ValueError):
            validate_trace(records[::-1])

    def test_rejects_unknown_schema_version(self):
        records = self._valid_trace()
        doctored = records[:-1] + [dict(records[-1], schema=SCHEMA_VERSION + 1)]
        with pytest.raises(ValueError):
            validate_trace(doctored)


class TestMetricsAggregation:
    def test_phase_summary_sums_counters(self):
        tracer = Tracer()
        for amount in (2, 3):
            with tracer.span("phase.a") as span:
                span.add("work.items", amount)
        records = tracer.finish()
        phases = summarize_phases(records)
        assert phases["phase.a"]["count"] == 2
        assert phases["phase.a"]["counters"]["work.items"] == 5
        assert total_counters(records)["work.items"] == 5
        table = render_phase_table(records)
        assert "phase.a" in table and "work.items=5" in table

    def test_semantic_profile_ignores_timing_counters(self):
        tracer = Tracer()
        with tracer.span("op.R") as span:
            span.add("labels.in", 3)
            span.add("kernel.cache.hit", 17)
        profile = semantic_profile(tracer.finish())
        assert profile == {"op.R": {"labels.in": 3}}

    def test_diff_reports_and_clears_drift(self):
        left = {"op.R": {"labels.in": 3}}
        right = {"op.R": {"labels.in": 4}}
        assert diff_semantic_profiles(left, left) == []
        drift = diff_semantic_profiles(left, right)
        assert drift == ["op.R / labels.in: 3 != 4"]

    def test_summary_line_names_semantic_totals(self):
        tracer = Tracer()
        with tracer.span("op.R") as span:
            span.add("labels.in", 3)
        line = trace_summary_line(tracer.finish())
        assert line.startswith("trace: ")
        assert "labels.in=3" in line and "wall_clock_s=" in line


class TestCliTracing:
    def test_writes_schema_valid_trace(self, tmp_path, capsys):
        path = tmp_path / "out.jsonl"
        with cli_tracing(str(path), metrics=True):
            speedup(mis_problem(3))
        records = parse_trace_lines(path.read_text())
        validate_trace(records)
        captured = capsys.readouterr()
        assert "op.R" in captured.out  # the metrics table
        assert "trace written to" in captured.err

    def test_writes_trace_even_when_the_run_fails(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with pytest.raises(RuntimeError):
            with cli_tracing(str(path)):
                with trace_module.span("doomed"):
                    raise RuntimeError("boom")
        records = parse_trace_lines(path.read_text())
        validate_trace(records)
        doomed = next(r for r in records if r.get("name") == "doomed")
        assert doomed["status"] == "error"

    def test_no_flags_no_tracer(self):
        with cli_tracing(None, metrics=False) as tracer:
            assert tracer is None
            assert not tracing_enabled()
