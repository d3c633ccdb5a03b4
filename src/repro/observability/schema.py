"""The stable JSON-lines trace schema, and its validator.

A trace file holds one JSON object per line.  Three record types:

``meta`` (exactly one, last line)
    ``{"type": "meta", "schema": 1, "spans": int, "events": int,
    "wall_clock_s": float, "peak_rss_kb": int | null}``

``span`` (one per closed span, emitted in closing order)
    ``{"type": "span", "id": int, "parent": int | null, "name": str,
    "start_s": float, "duration_s": float, "status": "ok" | "error",
    "attrs": {...}, "counters": {str: int >= 0}, "error"?: str}``

``event`` (attached to the span open when it fired)
    ``{"type": "event", "span": int, "name": str, "at_s": float,
    "attrs": {...}}``

The schema is versioned (:data:`SCHEMA_VERSION`); consumers must reject
files whose ``meta.schema`` they do not understand.  Counter values are
cumulative within their span and non-negative — so summing a counter
over spans is always meaningful.

:data:`SEMANTIC_COUNTERS` names the counters that describe *what the
engine computed* (label counts, right-closed sets, configuration
counts) rather than *how fast or how cached* it was.  The reference and
kernel engines must agree on semantic counters for the same input; the
differential trace tests and ``tools/trace_report.py diff`` enforce
exactly that, while timing/cache counters (``*.cache.hit``, ``mp.*``,
``budget.checkpoints``) are engine-specific by design.

The ``prof.*`` counters are emitted by the hot-spot profiler
(:mod:`repro.observability.profiling`) — one ``prof.op`` span per
sampled operation with its call count, summed wall time in
nanoseconds, and net allocated-block delta.  They are timing-class by
construction (two runs of the same workload differ in every one).

``node_max.frames`` and ``node_max.leaves`` measure the kernel's
node-maximization DFS (:func:`repro.core.kernel.engine._maximization_dfs`),
added once per search: the prefixes it opened and the leaves it emitted
before the maximality filter.  The reference engine runs a different
search, so they are timing-class; on a fanned-out ``Rbar`` they arrive
through the grafted chunk spans.

The ``service.*`` counters are emitted by the job orchestrator
(:mod:`repro.service.orchestrator`), one span per job: ``service.jobs``
(jobs executed), ``service.dedup`` (jobs served by replaying an
isomorphic computation through the warm operator cache),
``service.errors`` (jobs that surfaced a typed failure), and
``service.resumed`` (jobs re-enqueued after a server restart).  They
are timing-class: how work reached the engine, not what it computed.
"""

from __future__ import annotations

import os

from repro.robustness.errors import InvalidTrace

SCHEMA_VERSION = 1

#: Engine-independent counters: both engines must report equal values.
SEMANTIC_COUNTERS = (
    "labels.in",
    "labels.out",
    "edge.closed_sets",
    "node.right_closed_sets",
    "node.configs.out",
    "edge.configs.out",
    "chain.steps",
    "selfred.merged_labels",
    "selfred.removed_labels",
    "selfred.steps",
)

#: Engine/runtime-dependent counters: excluded from differential diffs.
#: ``condensed.configs`` lives here rather than in the semantic tuple:
#: it is emitted only by :func:`existential_condensed`, the Lemma 6
#: display form, which no engine execution path runs — the kernel never
#: produces it, so the differential gate has nothing to compare.
TIMING_COUNTERS = (
    "condensed.configs",
    "kernel.cache.hit",
    "kernel.cache.miss",
    "galois.cache.hit",
    "galois.cache.miss",
    "cache.hit",
    "cache.miss",
    "cache.bytes",
    "cache.corrupt",
    "budget.checkpoints",
    "mp.chunks",
    "mp.chunk_results",
    "node_max.frames",
    "node_max.leaves",
    "prof.calls",
    "prof.wall_ns",
    "prof.alloc_blocks",
    "sim.messages",
    "sim.rounds",
    "service.jobs",
    "service.dedup",
    "service.errors",
    "service.resumed",
)

_SPAN_STATUSES = ("ok", "error")


def validate_record(record: dict) -> None:
    """Raise ``ValueError`` describing the first schema violation."""
    if not isinstance(record, dict):
        raise InvalidTrace(f"record is not an object: {record!r}")
    kind = record.get("type")
    if kind == "meta":
        _require(record, "schema", int)
        if record["schema"] != SCHEMA_VERSION:
            raise InvalidTrace(
                f"unsupported schema version {record['schema']!r} "
                f"(supported: {SCHEMA_VERSION})"
            )
        _require(record, "spans", int)
        _require(record, "events", int)
        _require(record, "wall_clock_s", (int, float))
        if record.get("peak_rss_kb") is not None:
            _require(record, "peak_rss_kb", int)
    elif kind == "span":
        _require(record, "id", int)
        if record.get("parent") is not None:
            _require(record, "parent", int)
        _require(record, "name", str)
        _require(record, "start_s", (int, float))
        _require(record, "duration_s", (int, float))
        if record["duration_s"] < 0:
            raise InvalidTrace(f"span {record['id']} has negative duration")
        if record.get("status") not in _SPAN_STATUSES:
            raise InvalidTrace(
                f"span {record['id']} has status {record.get('status')!r}"
            )
        _require(record, "attrs", dict)
        _require(record, "counters", dict)
        for counter, value in record["counters"].items():
            if not isinstance(counter, str):
                raise InvalidTrace(f"counter key {counter!r} is not a string")
            if not isinstance(value, int) or value < 0:
                raise InvalidTrace(
                    f"counter {counter!r} of span {record['id']} must be a "
                    f"non-negative integer, got {value!r}"
                )
    elif kind == "event":
        _require(record, "span", int)
        _require(record, "name", str)
        _require(record, "at_s", (int, float))
        _require(record, "attrs", dict)
    else:
        raise InvalidTrace(f"unknown record type {kind!r}")


def _require(
    record: dict, key: str, types: type | tuple[type, ...]
) -> None:
    if key not in record:
        raise InvalidTrace(
            f"{record.get('type')} record is missing {key!r}: {record!r}"
        )
    if not isinstance(record[key], types) or isinstance(record[key], bool):
        raise InvalidTrace(
            f"{record.get('type')}.{key} has wrong type: {record[key]!r}"
        )


def validate_trace(records: list[dict]) -> None:
    """Validate a whole trace: every record, plus cross-record structure.

    Checks that exactly one ``meta`` record exists (and comes last),
    that span ids are unique, every span's parent is a known span id,
    every event's span is a known span id, and the span/event totals in
    ``meta`` match.
    """
    if not records:
        raise InvalidTrace("empty trace")
    for record in records:
        validate_record(record)
    meta_records = [r for r in records if r["type"] == "meta"]
    if len(meta_records) != 1:
        raise InvalidTrace(f"expected exactly one meta record, got {len(meta_records)}")
    if records[-1]["type"] != "meta":
        raise InvalidTrace("meta record must be the last record")
    meta = meta_records[0]
    spans = [r for r in records if r["type"] == "span"]
    events = [r for r in records if r["type"] == "event"]
    span_ids = [r["id"] for r in spans]
    if len(span_ids) != len(set(span_ids)):
        raise InvalidTrace("duplicate span ids")
    known = set(span_ids)
    for record in spans:
        if record["parent"] is not None and record["parent"] not in known:
            raise InvalidTrace(
                f"span {record['id']} has unknown parent {record['parent']}"
            )
    for record in events:
        if record["span"] not in known:
            raise InvalidTrace(
                f"event {record['name']!r} references unknown span "
                f"{record['span']}"
            )
    if meta["spans"] != len(spans) or meta["events"] != len(events):
        raise InvalidTrace(
            f"meta counts (spans={meta['spans']}, events={meta['events']}) "
            f"disagree with the file (spans={len(spans)}, events={len(events)})"
        )


def parse_trace_lines(text: str) -> list[dict]:
    """Parse JSON-lines text into records (no validation)."""
    import json

    records = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as error:
            raise InvalidTrace(f"line {line_number} is not JSON: {error}") from error
    return records


def load_trace(path: str | os.PathLike) -> list[dict]:
    """Read, parse, and validate a trace file."""
    with open(path, encoding="utf-8") as handle:
        records = parse_trace_lines(handle.read())
    validate_trace(records)
    return records


__all__ = [
    "SCHEMA_VERSION",
    "SEMANTIC_COUNTERS",
    "TIMING_COUNTERS",
    "validate_record",
    "validate_trace",
    "parse_trace_lines",
    "load_trace",
]
