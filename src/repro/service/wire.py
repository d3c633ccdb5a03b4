"""The service wire formats: job requests, records, and result bodies.

Everything the HTTP layer reads or writes passes through this module,
so the on-the-wire shapes have exactly one definition and two invariant
pairs, both property-tested (``tests/test_service_store.py``) the same
way the ``.scn`` spec format is:

* :func:`parse_job_request` / :func:`render_job_request` — a canonical
  round trip: ``parse(render(request)) == request`` for every valid
  :class:`JobRequest`, and ``render`` omits defaulted fields so the
  canonical document is minimal.
* :func:`encode_job` / :func:`decode_job` — the sealed persistence
  codec: a :class:`~repro.service.jobs.JobRecord` survives a trip
  through the :class:`~repro.robustness.checkpointing.CheckpointStore`
  unchanged, which is what makes a restarted server re-serve completed
  jobs byte-identically.

A job request names either a registered scenario (``{"scenario":
"<name>"}`` — operator, steps, and policy come from the spec and may
not be overridden) or an inline problem (``{"problem": "<text>",
"operator": ..., "steps": ...}`` in the round-eliminator text format of
:func:`repro.core.io.problem_from_text`).  Optional fields select the
engine (``reference`` or ``kernel``, plus ``workers`` for the parallel
kernel) and attach a per-job budget whose keys mirror
:class:`repro.robustness.budget.Budget`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.labels import render_label
from repro.core.problem import Problem
from repro.core.self_reduction import CHAIN_STEPS
from repro.core.solvability import POLICIES
from repro.robustness.errors import InvalidJobRequest, ReproError

if TYPE_CHECKING:  # circular at runtime: jobs.py imports this module
    from repro.service.jobs import JobRecord

#: Chain operators an inline job may request (``lemma13`` is spec-only:
#: it is parameterized by ``(delta, x)``, not by a problem).
INLINE_OPERATORS = tuple(CHAIN_STEPS)

#: Engines a job may run on.
ENGINES = ("reference", "kernel")

#: Budget fields a request may set, mirroring ``robustness.Budget``.
BUDGET_FIELDS = (
    "wall_clock_seconds",
    "max_alphabet",
    "max_configurations",
    "max_chain_steps",
)

#: Terminal and non-terminal job states, in lifecycle order.
JOB_STATES = ("queued", "running", "done", "failed")


@dataclass(frozen=True)
class JobRequest:
    """One parsed job submission.

    Exactly one of ``scenario`` / ``problem`` is set; ``operator``,
    ``steps``, and ``policy`` are only set for inline problems (spec
    runs take them from the registered ``.scn`` file).
    """

    scenario: str | None = None    #: registered scenario name
    problem: str | None = None     #: inline problem, text format
    operator: str | None = None    #: one of :data:`INLINE_OPERATORS`
    steps: int | None = None       #: chain steps for an inline problem
    policy: str = "pn"             #: one of :data:`POLICIES`
    engine: str = "reference"      #: one of :data:`ENGINES`
    workers: int | None = None     #: parallel kernel workers
    budget: dict[str, float] = field(default_factory=dict)


def _require_type(value: Any, kind: type, key: str) -> Any:
    if not isinstance(value, kind) or isinstance(value, bool):
        raise InvalidJobRequest(
            f"key {key!r} must be {kind.__name__}, got {value!r}"
        )
    return value


def _budget_value(key: str, value: object) -> float:
    """One validated budget value: ``wall_clock_seconds`` is a finite
    number > 0, every count field a JSON integer >= 1."""
    if key == "wall_clock_seconds":
        seconds = math.nan
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                seconds = float(value)
            except OverflowError:  # an int beyond the float range
                pass
        if not math.isfinite(seconds) or seconds <= 0:
            raise InvalidJobRequest(
                f"budget field {key!r} must be a finite number > 0, "
                f"got {value!r}"
            )
        return seconds
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise InvalidJobRequest(
            f"budget field {key!r} must be an integer >= 1, got {value!r}"
        )
    return value


def parse_job_request(payload: object) -> JobRequest:
    """Parse a submitted JSON document into a :class:`JobRequest`.

    Raises :class:`InvalidJobRequest` on any flaw: unknown keys, both
    or neither of scenario/problem, chain fields on a scenario run,
    missing chain fields on an inline run, or invalid engine/budget
    fields.
    """
    if not isinstance(payload, dict):
        raise InvalidJobRequest(
            f"job request must be a JSON object, got {type(payload).__name__}"
        )
    known = {
        "scenario", "problem", "operator", "steps", "policy",
        "engine", "workers", "budget",
    }
    unknown = sorted(set(payload) - known)
    if unknown:
        raise InvalidJobRequest(f"unknown request keys: {unknown}")
    scenario = payload.get("scenario")
    problem = payload.get("problem")
    if (scenario is None) == (problem is None):
        raise InvalidJobRequest(
            "a job names exactly one of 'scenario' or 'problem'"
        )
    operator: str | None = None
    steps: int | None = None
    policy = "pn"
    if scenario is not None:
        _require_type(scenario, str, "scenario")
        for key in ("operator", "steps", "policy"):
            if key in payload:
                raise InvalidJobRequest(
                    f"scenario jobs take {key!r} from the registered spec; "
                    "drop it from the request",
                    scenario=scenario,
                )
    else:
        _require_type(problem, str, "problem")
        if "operator" not in payload or "steps" not in payload:
            raise InvalidJobRequest(
                "inline-problem jobs must set 'operator' and 'steps'"
            )
        operator = _require_type(payload["operator"], str, "operator")
        if operator not in INLINE_OPERATORS:
            raise InvalidJobRequest(
                f"unknown operator {operator!r} "
                f"(known: {', '.join(INLINE_OPERATORS)})"
            )
        steps = _require_type(payload["steps"], int, "steps")
        if steps < 0:
            raise InvalidJobRequest("steps must be non-negative", steps=steps)
        policy = _require_type(payload.get("policy", "pn"), str, "policy")
        if policy not in POLICIES:
            raise InvalidJobRequest(
                f"unknown policy {policy!r} (known: {', '.join(POLICIES)})"
            )
    engine = _require_type(payload.get("engine", "reference"), str, "engine")
    if engine not in ENGINES:
        raise InvalidJobRequest(
            f"unknown engine {engine!r} (known: {', '.join(ENGINES)})"
        )
    workers = payload.get("workers")
    if workers is not None:
        _require_type(workers, int, "workers")
        if workers < 1:
            raise InvalidJobRequest("workers must be >= 1", workers=workers)
        if engine != "kernel":
            raise InvalidJobRequest("workers requires the kernel engine")
    budget_raw = payload.get("budget", {})
    _require_type(budget_raw, dict, "budget")
    budget: dict[str, float] = {}
    for key in sorted(budget_raw):
        if key not in BUDGET_FIELDS:
            raise InvalidJobRequest(
                f"unknown budget field {key!r} "
                f"(known: {', '.join(BUDGET_FIELDS)})"
            )
        budget[key] = _budget_value(key, budget_raw[key])
    return JobRequest(
        scenario=scenario,
        problem=problem,
        operator=operator,
        steps=steps,
        policy=policy,
        engine=engine,
        workers=workers,
        budget=budget,
    )


def render_job_request(request: JobRequest) -> dict:
    """The canonical document form (omits defaulted fields)."""
    document: dict[str, object] = {}
    if request.scenario is not None:
        document["scenario"] = request.scenario
    else:
        document["problem"] = request.problem
        document["operator"] = request.operator
        document["steps"] = request.steps
        if request.policy != "pn":
            document["policy"] = request.policy
    if request.engine != "reference":
        document["engine"] = request.engine
    if request.workers is not None:
        document["workers"] = request.workers
    if request.budget:
        document["budget"] = {
            key: request.budget[key] for key in sorted(request.budget)
        }
    return document


# ---------------------------------------------------------------------------
# Result and error bodies
# ---------------------------------------------------------------------------

def render_problem(problem: Problem) -> dict:
    """A JSON-safe, deterministic rendering of one chain iterate.

    Labels render through :func:`repro.core.labels.render_label` (set
    labels become bracketed strings), constraints as sorted
    configuration rows — the same conventions as the text format, so
    the document is stable across runs, engines, and cache hits.
    """
    return {
        "name": problem.name,
        "delta": problem.delta,
        "alphabet": [render_label(label) for label in problem.alphabet],
        "node": sorted(
            configuration.render()
            for configuration in problem.node_constraint.configurations
        ),
        "edge": sorted(
            configuration.render()
            for configuration in problem.edge_constraint.configurations
        ),
    }


def render_result(
    problems: list[Problem],
    reached_fixed_point: bool,
    certified_rounds: int,
    failures: list[str],
) -> dict:
    """The result body of a completed job.

    The exact same function renders in-process
    :class:`~repro.scenarios.runner.ScenarioRun` outcomes in the
    differential service tests, so "the wire path equals the in-process
    path" is equality of these documents.
    """
    return {
        "ok": not failures,
        "steps": len(problems) - 1,
        "certified_rounds": certified_rounds,
        "reached_fixed_point": reached_fixed_point,
        "failures": list(failures),
        "alphabet_sizes": [len(problem.alphabet) for problem in problems],
        "problems": [render_problem(problem) for problem in problems],
    }


def json_safe(value: object) -> object:
    """Recursively coerce a value into JSON-safe primitives.

    Trace record attributes may carry arbitrary engine objects (label
    frozensets in budget-trip contexts, for instance); persistence and
    the event stream both need plain JSON, so anything unrecognized is
    rendered through ``str``.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(key): json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(item) for item in value]
    return str(value)


def render_error(error: ReproError) -> dict:
    """The structured error body of a failed job or rejected request."""
    return {
        "type": type(error).__name__,
        "message": error.message,
        "context": json_safe(error.context),
    }


# ---------------------------------------------------------------------------
# Job record persistence codec
# ---------------------------------------------------------------------------

def encode_job(record: "JobRecord") -> dict:
    """The sealed-checkpoint payload of one job record."""
    return {
        "job_id": record.job_id,
        "request": render_job_request(record.request),
        "key": record.key,
        "state": record.state,
        "deduped": record.deduped,
        "deduped_from": record.deduped_from,
        "result": record.result,
        "error": record.error,
        "counters": dict(record.counters),
        "events": list(record.events),
    }


def decode_job(payload: object) -> "JobRecord":
    """Rebuild a :class:`~repro.service.jobs.JobRecord` from its payload.

    Raises :class:`InvalidJobRequest` when the payload is not a record
    this codec wrote — the job store treats that exactly like a failed
    integrity seal (evict, count, continue).
    """
    from repro.service.jobs import JobRecord

    if not isinstance(payload, dict):
        raise InvalidJobRequest("job record payload is not an object")
    missing = [
        key
        for key in ("job_id", "request", "key", "state")
        if key not in payload
    ]
    if missing:
        raise InvalidJobRequest(f"job record is missing keys: {missing}")
    state = payload["state"]
    if state not in JOB_STATES:
        raise InvalidJobRequest(f"unknown job state {state!r}")
    return JobRecord(
        job_id=_require_type(payload["job_id"], str, "job_id"),
        request=parse_job_request(payload["request"]),
        key=_require_type(payload["key"], str, "key"),
        state=state,
        deduped=bool(payload.get("deduped", False)),
        deduped_from=payload.get("deduped_from"),
        result=payload.get("result"),
        error=payload.get("error"),
        counters=dict(payload.get("counters", {})),
        events=list(payload.get("events", [])),
    )


__all__ = [
    "INLINE_OPERATORS",
    "POLICIES",
    "ENGINES",
    "BUDGET_FIELDS",
    "JOB_STATES",
    "JobRequest",
    "parse_job_request",
    "render_job_request",
    "render_problem",
    "render_result",
    "render_error",
    "json_safe",
    "encode_job",
    "decode_job",
]
