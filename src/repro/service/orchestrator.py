"""The async job orchestrator: worker threads over the governed engine.

Submissions resolve to a *computation key* — chain operator, step
count, zero-round policy, and the renaming-invariant operator-cache
fingerprint of the base problem — before they are queued, so two
requests for isomorphic problems (however their labels are spelled)
carry the same key.  Execution then dedups on that key at three
levels:

* **in-flight** — a job whose key is currently being computed waits
  for the primary instead of starting a second computation;
* **completed** — a job whose key already finished replays through the
  warm operator cache (every ``R``/``Rbar``/condense/verdict call is a
  cache hit, transported into the submission's own label coordinates
  by :mod:`repro.core.cache`), so the duplicate costs bookkeeping, not
  computation, and its result arrives in its own coordinates;
* **restart** — the shared cache has an on-disk tier under the job
  directory, so replay-dedup survives a server restart too.

Every job runs inside ``tracing(...)``/``caching(...)``/``governed(...)``
exactly like an in-process run: a per-job :class:`StreamingTracer`
feeds the live events endpoint, the per-job
:class:`~repro.robustness.budget.Budget` comes from the request, and a
typed failure (``BudgetExceeded`` and friends) becomes a structured
error body, never a dead worker.  Job state persists through the
sealed :class:`~repro.service.jobs.JobStore` at every transition, so a
killed server resumes queued/running jobs and re-serves completed ones
byte-identically on restart.

Ambient contexts are :class:`~contextvars.ContextVar`-based and do
*not* propagate into new threads — each worker installs its own
tracing/caching/governed stack per job, which is exactly the isolation
a multi-tenant job runner wants.
"""

from __future__ import annotations

import queue
import threading
from collections.abc import Callable
from pathlib import Path

from repro.core.cache import OperatorCache, caching, fingerprint
from repro.core.io import problem_from_text
from repro.core.problem import Problem
from repro.observability import trace as _trace
from repro.observability.metrics import total_counters
from repro.observability.trace import SpanHandle, Tracer, tracing
from repro.robustness.budget import Budget, governed
from repro.robustness.errors import InvalidJobRequest, ReproError
from repro.scenarios import (
    build_problem,
    find_scenario,
    run_problem_chain,
    run_scenario,
)
from repro.service import wire
from repro.service.jobs import JobRecord, JobStore, new_job_id
from repro.service.wire import JobRequest

#: How long a deduped job waits for its in-flight primary before
#: re-checking.  The primary always settles — its runner persists a
#: terminal state in a ``finally`` — so this only bounds one wait.
_WAIT_POLL_SECONDS = 1.0


def _safe_record(record: dict) -> dict:
    return {str(key): wire.json_safe(value) for key, value in record.items()}


class StreamingTracer(Tracer):
    """A tracer that pushes every finished record to a sink, live.

    The sink receives span records as their spans close and event
    records as they fire — already JSON-sanitized — which is what the
    ``GET /v1/jobs/<id>/events`` endpoint streams while the job runs.
    """

    def __init__(self, sink: Callable[[dict], None]) -> None:
        self._sink = sink
        super().__init__()

    def _close_span(
        self, handle: SpanHandle, status: str, error: str | None = None
    ) -> None:
        already = len(self.records)
        super()._close_span(handle, status, error)
        for record in self.records[already:]:
            self._sink(_safe_record(record))

    def event(self, name: str, **attrs: object) -> None:
        super().event(name, **attrs)
        self._sink(_safe_record(self.records[-1]))


class LockedOperatorCache(OperatorCache):
    """An :class:`OperatorCache` safe to share across worker threads.

    The base class is single-threaded by design (its LRU bookkeeping
    interleaves reads and writes); the orchestrator's workers all hit
    one shared store, so the public surface takes a lock.
    """

    def __init__(
        self, directory: str | Path | None = None, *, max_entries: int = 4096
    ) -> None:
        self._lock = threading.Lock()
        super().__init__(directory, max_entries=max_entries)

    def lookup(self, key: str) -> dict | None:
        with self._lock:
            return super().lookup(key)

    def store(self, key: str, payload: dict) -> None:
        with self._lock:
            super().store(key, payload)


def resolve_request(request: JobRequest) -> tuple[Problem, str, int, str]:
    """``(base_problem, operator, steps, policy)`` of a parsed request.

    Scenario requests resolve through the registry (raising
    :class:`~repro.robustness.errors.InvalidScenario` for unknown
    names); inline requests parse their problem text (raising
    :class:`~repro.robustness.errors.InvalidProblem` on malformed
    input).  Either failure surfaces at submission time as a 4xx,
    never as a queued job.
    """
    if request.scenario is not None:
        _, spec = find_scenario(request.scenario)
        return build_problem(spec), spec.operator, spec.steps, spec.policy
    assert request.problem is not None  # parse_job_request guarantees it
    assert request.operator is not None and request.steps is not None
    problem = problem_from_text(request.problem, name="inline")
    return problem, request.operator, request.steps, request.policy


def computation_key(request: JobRequest) -> str:
    """The renaming-invariant dedup key of a request.

    Two requests share a key exactly when they ask for the same chain
    (operator, steps, policy) on isomorphic base problems — the
    fingerprint is the operator cache's canonical-form digest, so label
    renamings do not split the key.  The engine is deliberately *not*
    part of the key: both engines return identical results by contract
    (the differential oracle enforces it), so a kernel submission may
    dedup against a reference computation and vice versa.
    """
    problem, operator, steps, policy = resolve_request(request)
    return f"{operator}-{steps}-{policy}-{fingerprint(problem)}"


class Orchestrator:
    """Worker threads draining a job queue over one shared cache."""

    def __init__(
        self,
        directory: str | Path,
        *,
        workers: int = 2,
        master: Tracer | None = None,
    ) -> None:
        if workers < 1:
            raise InvalidJobRequest(
                "the orchestrator needs at least one worker", workers=workers
            )
        self.directory = Path(directory)
        self.store = JobStore(self.directory)
        self.cache = LockedOperatorCache(self.directory / "opcache")
        self._master = master
        self._master_lock = threading.Lock()
        self._queue: queue.Queue[str | None] = queue.Queue()
        self._lock = threading.Lock()
        self._events = threading.Condition(self._lock)
        self._jobs: dict[str, JobRecord] = {}
        self._active: dict[str, str] = {}      # computation key -> running job
        self._completed: dict[str, str] = {}   # computation key -> done job
        self._terminal: dict[str, threading.Event] = {}
        self._resumed: set[str] = set()
        self._recover()
        self._workers = [
            threading.Thread(
                target=self._worker,
                name=f"repro-service-worker-{index}",
                daemon=True,
            )
            for index in range(workers)
        ]
        for worker in self._workers:
            worker.start()

    # -- lifecycle -------------------------------------------------------

    def _recover(self) -> None:
        """Adopt persisted jobs: re-serve finished ones, re-run the rest."""
        for record in self.store.load_all():
            self._jobs[record.job_id] = record
            event = threading.Event()
            if record.terminal:
                event.set()
                if record.state == "done" and not record.deduped:
                    self._completed.setdefault(record.key, record.job_id)
            else:
                # Queued or mid-run at kill time: run again from scratch.
                # The operators replay through the on-disk cache tier, so
                # completed work is not recomputed, only re-assembled.
                record.state = "queued"
                record.deduped = False
                record.deduped_from = None
                record.result = None
                record.error = None
                record.counters = {}
                record.events = []
                self.store.save(record)
                self._resumed.add(record.job_id)
                self._queue.put(record.job_id)
            self._terminal[record.job_id] = event

    @property
    def resumed_jobs(self) -> int:
        """How many non-terminal jobs the startup recovery re-queued."""
        return len(self._resumed)

    def shutdown(self) -> None:
        """Stop the workers after their current jobs finish.

        Queued jobs stay persisted as ``queued`` and are resumed by the
        next server that opens the same job directory.
        """
        for _ in self._workers:
            self._queue.put(None)
        for worker in self._workers:
            worker.join(timeout=30.0)

    # -- submission and lookup -------------------------------------------

    def submit(self, request: JobRequest) -> JobRecord:
        """Validate, persist, and enqueue one job; returns its record.

        Resolution failures (unknown scenario, malformed inline
        problem) raise immediately — the caller maps them to a 4xx —
        so everything that reaches the queue can actually run.
        """
        key = computation_key(request)
        record = JobRecord(job_id=new_job_id(), request=request, key=key)
        with self._lock:
            self._jobs[record.job_id] = record
            self._terminal[record.job_id] = threading.Event()
        self.store.save(record)
        self._queue.put(record.job_id)
        return record

    def get(self, job_id: str) -> JobRecord | None:
        """The record of ``job_id``, or ``None``."""
        with self._lock:
            return self._jobs.get(job_id)

    def counts(self) -> dict[str, int]:
        """Job totals by state (the health endpoint body)."""
        with self._lock:
            totals = dict.fromkeys(wire.JOB_STATES, 0)
            for record in self._jobs.values():
                totals[record.state] += 1
        return totals

    def wait(self, job_id: str, timeout: float | None = None) -> bool:
        """Block until ``job_id`` is terminal; ``True`` when it is."""
        event = self._terminal.get(job_id)
        if event is None:
            return False
        return event.wait(timeout)

    # -- event streaming ---------------------------------------------------

    def events_since(
        self, job_id: str, start: int, timeout: float = 10.0
    ) -> tuple[list[dict], bool]:
        """``(new_events, finished)`` for a streaming consumer.

        Blocks up to ``timeout`` for news past index ``start``;
        ``finished`` is true once the job is terminal and every event
        up to ``start + len(new_events)`` has been delivered.
        """
        with self._events:
            record = self._jobs.get(job_id)
            if record is None:
                return [], True
            if len(record.events) <= start and not record.terminal:
                self._events.wait(timeout)
            fresh = [dict(event) for event in record.events[start:]]
            finished = (
                record.terminal and start + len(fresh) >= len(record.events)
            )
        return fresh, finished

    def _push_event(self, record: JobRecord, event: dict) -> None:
        with self._events:
            record.events.append(event)
            self._events.notify_all()

    # -- execution ---------------------------------------------------------

    def _worker(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            record = self.get(job_id)
            if record is None or record.terminal:
                continue
            self._run_job(record)

    def _set_state(self, record: JobRecord, state: str) -> None:
        with self._events:
            record.state = state
            self._events.notify_all()
        self._push_event(
            record, {"type": "job.state", "job": record.job_id, "state": state}
        )

    def _claim(self, record: JobRecord) -> JobRecord | None:
        """Dedup arbitration: the completed record to replay, or ``None``.

        ``None`` means this job *is* the primary and must compute.  A
        returned record is a terminal ``done`` job with the same key —
        the caller replays through the warm cache.  While the key is
        held by a running primary, this blocks until that primary
        settles; a failed primary does not poison the key (the next
        claimant simply becomes the new primary and computes fresh).
        """
        while True:
            with self._lock:
                active_id = self._active.get(record.key)
                if active_id is None:
                    done_id = self._completed.get(record.key)
                    if done_id is not None:
                        return self._jobs[done_id]
                    self._active[record.key] = record.job_id
                    return None
                waiter = self._terminal[active_id]
            waiter.wait(_WAIT_POLL_SECONDS)

    def _release(self, record: JobRecord) -> None:
        with self._lock:
            if self._active.get(record.key) == record.job_id:
                del self._active[record.key]
            if record.state == "done" and not record.deduped:
                self._completed.setdefault(record.key, record.job_id)
        self._terminal[record.job_id].set()

    def _run_job(self, record: JobRecord) -> None:
        tracer = StreamingTracer(
            lambda event: self._push_event(record, event)
        )
        self._set_state(record, "running")
        self.store.save(record)
        try:
            with tracing(tracer):
                with _trace.span(
                    "service.job",
                    job=record.job_id,
                    engine=record.request.engine,
                ) as span:
                    span.add("service.jobs")
                    if record.job_id in self._resumed:
                        span.add("service.resumed")
                    primary = self._claim(record)
                    if primary is not None:
                        record.deduped = True
                        record.deduped_from = primary.job_id
                        span.add("service.dedup")
                    try:
                        self._execute(record)
                    except ReproError as error:
                        span.add("service.errors")
                        record.error = wire.render_error(error)
                    except Exception as error:  # crash shield: a worker
                        # thread must survive any job, typed or not
                        span.add("service.errors")
                        record.error = {
                            "type": type(error).__name__,
                            "message": str(error),
                            "context": {},
                        }
        finally:
            # Terminal bookkeeping runs no matter how the job ended:
            # counter totals from the finished trace, the persisted
            # terminal record, and the key release unblocking waiters.
            records = tracer.finish()
            record.counters = dict(sorted(total_counters(records).items()))
            if record.result is None and record.error is None:
                record.error = wire.render_error(
                    ReproError("job ended without a result or a typed error")
                )
            self._set_state(
                record, "failed" if record.error is not None else "done"
            )
            self.store.save(record)
            self._release(record)
            self._graft(records)

    def _execute(self, record: JobRecord) -> None:
        """Run the chain under the request's budget and the shared cache."""
        request = record.request
        budget = Budget(**request.budget) if request.budget else None
        use_kernel = request.engine == "kernel"
        with caching(self.cache), governed(budget):
            if request.scenario is not None:
                _, spec = find_scenario(request.scenario)
                run = run_scenario(spec, use_kernel=use_kernel)
                record.result = wire.render_result(
                    run.problems,
                    run.reached_fixed_point,
                    run.certified_rounds,
                    run.failures,
                )
            else:
                problem, operator, steps, policy = resolve_request(request)
                outcome = run_problem_chain(
                    problem,
                    operator=operator,
                    steps=steps,
                    policy=policy,
                    use_kernel=use_kernel,
                )
                record.result = wire.render_result(
                    outcome.problems,
                    outcome.reached_fixed_point,
                    outcome.certified_rounds,
                    [],
                )

    def _graft(self, records: list[dict]) -> None:
        if self._master is None:
            return
        with self._master_lock:
            self._master.graft(records)


__all__ = [
    "StreamingTracer",
    "LockedOperatorCache",
    "resolve_request",
    "computation_key",
    "Orchestrator",
]
