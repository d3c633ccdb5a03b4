"""Opt-in process fan-out for the node-maximization DFS of ``Rbar``.

The arity-Delta maximization DFS chunks cleanly by its top-level
right-closed-set prefix: the subtree whose first chosen set is
``candidates[k]`` touches only indices ``>= k``, and the maximality
checks it runs itself (every coordinate but the first) only look up
prefixes of that subtree, so the serial result is exactly the in-order
concatenation of per-unit results.  The first coordinate's check spans
units; the parent runs it once on the merged leaves
(:func:`~repro.core.kernel.engine.close_first_coordinate`), as it does
on the serial ones.  That DFS is the one piece of work fanned out;
every other kernel step (the existential DFS, the edge-side Galois
pairing) is cheaper than starting the executor and always runs
serially.

A :class:`KernelPool` wraps one
:class:`~concurrent.futures.ProcessPoolExecutor` that lives for one
``Rbar`` call.  Each call splits the unit range into about
``workers * SHARDS_PER_WORKER`` contiguous shards of similar work and
maps them over the executor; results come back in index order, so the
merged output equals the serial run byte-for-byte.  With
``workers <= 1``, a single unit, or a platform that cannot start
processes, the caller runs the ordinary serial DFS instead.

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

from repro.core.kernel.engine import search_maximization_chunk
from repro.observability import trace as _trace
from repro.robustness import budget as _budget
from repro.robustness.errors import WorkerCrashed

#: Shards per worker in one fan-out: enough to even out the uneven DFS
#: subtrees, few enough that shipping the payload stays cheap.
SHARDS_PER_WORKER = 4


def run_shard_serial(payload: tuple[Any, ...], lo: int, hi: int) -> list[Any]:
    """Execute one shard in-process: what a worker runs.

    The concatenation over a partition of ``[0, count)`` in index order
    is exactly the serial DFS's output — the determinism contract the
    index-ordered merge leans on.
    """
    candidates, minimal_labels, trans, extends, arity = payload
    results: list[Any] = []
    for index in range(lo, hi):
        results.extend(
            search_maximization_chunk(
                candidates, minimal_labels, trans, extends, arity, index
            )
        )
    return results


def plan_shards(count: int, parts: int) -> list[tuple[int, int]]:
    """Split ``[0, count)`` into about ``parts`` contiguous ranges.

    DFS unit ``i`` explores only candidates ``>= i``, so it weighs
    ``count - i``.  Ranges are cut greedily at an equal share of the
    total weight, so early (heavy) units get narrower shards.
    """
    weights = [count - index for index in range(count)]
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
    task: tuple[tuple[Any, ...], int, int, bool],
) -> tuple[list[Any], list[dict[str, Any]] | None]:
    """The worker entry point: one shard, plus its trace when asked."""
    payload, lo, hi, traced = task
    if not traced:
        return run_shard_serial(payload, lo, hi), None
    tracer = _trace.Tracer()
    with _trace.tracing(tracer):
        with _trace.span("kernel.chunk", first_index=lo) as span:
            results = run_shard_serial(payload, lo, hi)
            span.add("mp.chunk_results", len(results))
    return results, tracer.records


class KernelPool:
    """One process pool for the maximization DFS of one ``Rbar`` call.

    The executor starts on the first :meth:`map_chunks` that can use
    it.  Use as a context manager: a clean exit shuts the executor
    down, an escaping exception (a budget trip, a worker-side error)
    kills its processes first.

    Workers use the platform's default start method (``fork`` on
    Linux).  ``forkserver`` and ``spawn`` pay an interpreter start and
    imports per worker per ``Rbar`` call, which made the Delta=7 chain
    slower than with ``fork``; forking from a threaded parent (the
    service's job threads) is safe here because workers run only the
    pure chunk functions, which take no locks.
    """

    def __init__(self, workers: int | None) -> None:
        self.workers = workers or 0
        self._executor: ProcessPoolExecutor | None = None
        self._failed = False

    def usable(self) -> bool:
        return self.workers > 1 and not self._failed

    def map_chunks(
        self, payload: tuple[Any, ...], count: int, *, phase: str
    ) -> list[list[Any]] | None:
        """Run the ``count`` top-level DFS units across the pool.

        ``payload`` is ``(candidates, minimal_labels, trans, extends,
        arity)``: the right-closed sets, each one's minimal label ids
        (:meth:`~repro.core.kernel.engine.KernelProblem.node_minimal_labels`),
        the closure machine's transition table, its per-element label
        masks (both from
        :meth:`~repro.core.kernel.engine.KernelProblem.node_dfs_machine`)
        and Delta.
        Returns per-shard result lists in unit order (flattening gives
        the serial result exactly), or ``None`` when the pool cannot
        help (``workers <= 1``, a single unit, or process start-up
        failure) — the caller then runs the serial DFS.
        """
        if count <= 1 or not self.usable():
            return None
        traced = _trace.tracing_enabled()
        shards = plan_shards(count, self.workers * SHARDS_PER_WORKER)
        tasks = [(payload, lo, hi, traced) for lo, hi in shards]
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
                "a kernel worker process died", phase=phase
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


__all__ = [
    "KernelPool",
    "SHARDS_PER_WORKER",
    "plan_shards",
    "run_shard_serial",
]
