"""Opt-in process fan-out for the kernel's DFS-shaped work.

Three kinds of work chunk cleanly by an independent top-level unit
index, so the serial result is exactly the in-order concatenation of
per-unit results:

* ``node-max`` — the arity-Delta maximization DFS of ``Rbar``, chunked
  by its top-level right-closed-set prefix: the subtree whose first
  chosen set is ``candidates[k]`` touches only indices ``>= k``.
* ``exists`` — the existential-constraint DFS of both operators,
  chunked the same way by the first chosen new label.
* ``edge-pair`` — the Galois pairing loop of the edge maximization,
  one closed set per unit (each set is tested independently).

A :class:`KernelPool` wraps one
:class:`~concurrent.futures.ProcessPoolExecutor` that lives for a whole
``speedup`` call.  Each call splits the unit range into about
``workers * SHARDS_PER_WORKER`` contiguous shards of similar work and
maps them over the executor; results come back in index order, so the
merged output equals the serial run byte-for-byte.  With
``workers <= 1``, a single unit, or a platform that cannot start
processes, callers run the serial loop instead.

Budgets: a ``Budget`` never crosses the process boundary (its clock and
fault-injection probe belong to the parent).  The *parent* fires the
ambient checkpoint as each shard's results are accepted, so wall-clock
budgets, configuration caps and injected faults still trip, at shard
granularity rather than per DFS node.

Tracing: a ``Tracer`` never crosses the boundary either.  When the
parent traces, each worker records its shard into a local tracer and
returns the finished records with the results; the parent grafts them
under its open span (:meth:`~repro.observability.trace.Tracer.graft`).

Failures: an exception raised in a worker re-raises in the parent.  A
worker that dies outright (a signal, the OOM killer) breaks the
executor; that surfaces as a typed
:class:`~repro.robustness.errors.WorkerCrashed`, with the pool shut down
and its processes reaped.  Nothing is retried.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any

from repro.core.kernel.engine import (
    edge_pairing_chunk,
    search_existential_chunk,
    search_maximization_chunk,
)
from repro.observability import trace as _trace
from repro.robustness import budget as _budget
from repro.robustness.errors import EngineMisuse, WorkerCrashed

#: Shards per worker in one fan-out: enough to even out the uneven DFS
#: subtrees, few enough that shipping the payload stays cheap.
SHARDS_PER_WORKER = 4


def run_shard_serial(
    kind: str, payload: tuple[Any, ...], lo: int, hi: int
) -> list[Any]:
    """Execute one shard in-process: the serial twin of a worker attempt.

    The concatenation over a partition of ``[0, count)`` in index order
    is exactly the serial chunk loop's output — the determinism
    contract the index-ordered merge leans on.
    """
    if kind == "node-max":
        candidates, member_labels, trans, arity = payload
        results: list[Any] = []
        for index in range(lo, hi):
            results.extend(
                search_maximization_chunk(
                    candidates, member_labels, trans, arity, index
                )
            )
        return results
    if kind == "exists":
        member_labels, trans, arity = payload
        results = []
        for index in range(lo, hi):
            results.extend(
                search_existential_chunk(member_labels, trans, arity, index)
            )
        return results
    if kind == "edge-pair":
        compat, closed_sets = payload
        return list(edge_pairing_chunk(compat, closed_sets, lo, hi))
    raise EngineMisuse(f"unknown chunk kind: {kind}")


def plan_shards(kind: str, count: int, parts: int) -> list[tuple[int, int]]:
    """Split ``[0, count)`` into about ``parts`` contiguous ranges.

    A DFS unit ``i`` explores only candidates ``>= i``, so it weighs
    ``count - i``; a pairing unit weighs 1.  Ranges are cut greedily at
    an equal share of the total weight, so early (heavy) DFS units get
    narrower shards.
    """
    if kind in ("node-max", "exists"):
        weights = [count - index for index in range(count)]
    else:
        weights = [1] * count
    target = -(-sum(weights) // parts)
    shards: list[tuple[int, int]] = []
    start = 0
    volume = 0
    for index, weight in enumerate(weights):
        if index > start and volume + weight > target:
            shards.append((start, index))
            start = index
            volume = 0
        volume += weight
    if start < count:
        shards.append((start, count))
    return shards


def _run_shard(
    task: tuple[str, tuple[Any, ...], int, int, bool],
) -> tuple[list[Any], list[dict[str, Any]] | None]:
    """The worker entry point: one shard, plus its trace when asked."""
    kind, payload, lo, hi, traced = task
    if not traced:
        return run_shard_serial(kind, payload, lo, hi), None
    tracer = _trace.Tracer()
    with _trace.tracing(tracer):
        with _trace.span("kernel.chunk", kind=kind, first_index=lo) as span:
            results = run_shard_serial(kind, payload, lo, hi)
            span.add("mp.chunk_results", len(results))
    return results, tracer.records


class KernelPool:
    """One process pool reused across a ``speedup`` call.

    The executor starts on the first :meth:`map_chunks` that can use
    it.  Use as a context manager: a clean exit shuts the executor
    down, an escaping exception (a budget trip, a worker-side error)
    kills its processes first.

    Workers use the platform's default start method (``fork`` on
    Linux).  ``forkserver`` and ``spawn`` pay an interpreter start and
    imports per worker per ``speedup`` call, which erases most of the
    Delta=7 gain; forking from a threaded parent (the service's job
    threads) is safe here because workers run only the pure chunk
    functions, which take no locks.
    """

    def __init__(self, workers: int | None) -> None:
        self.workers = workers or 0
        self._executor: ProcessPoolExecutor | None = None
        self._failed = False

    def usable(self) -> bool:
        return self.workers > 1 and not self._failed

    def map_chunks(
        self, kind: str, payload: tuple[Any, ...], count: int, *, phase: str
    ) -> list[list[Any]] | None:
        """Run ``count`` units of ``kind`` across the pool.

        Returns per-shard result lists in unit order (flattening gives
        the serial result exactly), or ``None`` when the pool cannot
        help (``workers <= 1``, a single unit, or process start-up
        failure) — the caller then runs the serial loop.
        """
        if count <= 1 or not self.usable():
            return None
        traced = _trace.tracing_enabled()
        shards = plan_shards(kind, count, self.workers * SHARDS_PER_WORKER)
        tasks = [(kind, payload, lo, hi, traced) for lo, hi in shards]
        try:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(self.workers)
            # Submits every shard now, so start-up failures land here.
            returned = self._executor.map(_run_shard, tasks)
        except (OSError, ValueError, NotImplementedError):
            self.terminate()
            self._failed = True
            return None
        chunks: list[list[Any]] = []
        produced = 0
        try:
            for (lo, hi), (results, records) in zip(shards, returned):
                _budget.check_configurations(
                    produced,
                    phase=phase,
                    chunk=lo,
                    parallel_workers=self.workers,
                )
                _trace.add("mp.chunks", hi - lo)
                tracer = _trace.active_tracer()
                if records is not None and tracer is not None:
                    tracer.graft(records)
                chunks.append(results)
                produced += len(results)
        except BrokenProcessPool as error:
            self.terminate()
            raise WorkerCrashed(
                "a kernel worker process died", kind=kind, phase=phase
            ) from error
        return chunks

    def close(self) -> None:
        """Clean shutdown: let the workers finish, then join them."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def terminate(self) -> None:
        """Hard shutdown for the error path: kill the workers now."""
        executor, self._executor = self._executor, None
        if executor is None:
            return
        # ProcessPoolExecutor has no public kill before Python 3.14.
        processes = list((executor._processes or {}).values())
        manager = executor._executor_manager_thread
        # Flag the shutdown before any worker dies: the manager thread
        # then drops the futures ``Executor.map`` already cancelled
        # instead of failing them as broken, which raises
        # InvalidStateError in that thread on CPython 3.11.
        executor.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            if process.is_alive():
                process.kill()
        if manager is not None:
            manager.join()

    def __enter__(self) -> "KernelPool":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: object,
    ) -> bool:
        if exc_type is None:
            self.close()
        else:
            self.terminate()
        return False


def run_chunks_serial(
    kind: str, payload: tuple[Any, ...], count: int, *, phase: str
) -> list[list[Any]]:
    """The in-process twin of :meth:`KernelPool.map_chunks`.

    Same unit decomposition, same budget checkpoints and ``mp.*``
    counters at unit granularity — used when the pool is unavailable
    so parallel-requested runs behave identically minus the processes.
    """
    chunks: list[list[Any]] = []
    produced = 0
    for index in range(count):
        _budget.check_configurations(produced, phase=phase, chunk=index)
        chunk: list[Any] = run_shard_serial(kind, payload, index, index + 1)
        _trace.add("mp.chunks")
        _trace.add("mp.chunk_results", len(chunk))
        chunks.append(chunk)
        produced += len(chunk)
    return chunks


__all__ = [
    "KernelPool",
    "SHARDS_PER_WORKER",
    "plan_shards",
    "run_chunks_serial",
    "run_shard_serial",
]
