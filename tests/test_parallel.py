"""The process fan-out of the kernel (:mod:`repro.core.kernel.parallel`).

The contract under test: with ``workers=N`` the kernel returns output
byte-identical to the serial engine, budget checkpoints fire in the
parent once per returned shard, worker traces are grafted under the
parent's open span without double counting, and a worker that dies
surfaces as a typed :class:`~repro.robustness.errors.WorkerCrashed`
with no process left behind.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.kernel.parallel as parallel
from repro.core.cache import fingerprint
from repro.core.io import problem_to_json
from repro.core.kernel.engine import KernelProblem, _maximization_dfs
from repro.core.kernel.parallel import KernelPool, plan_shards
from repro.core.round_elimination import R, Rbar, rename_to_strings, speedup
from repro.observability.metrics import (
    diff_semantic_profiles,
    semantic_profile,
    total_counters,
)
from repro.observability.schema import TIMING_COUNTERS, validate_trace
from repro.observability.trace import Tracer, tracing
from repro.problems.mis import mis_problem
from repro.robustness.budget import Budget, governed
from repro.robustness.errors import BudgetExceeded, EngineMisuse, WorkerCrashed
from repro.scenarios import load_registry, run_scenario
from tests.faults import FaultInjector, InjectedFault
from tests.oracle import classic_corpus

#: Seconds a failure path may take to raise and reap its workers.
DEADLINE = 30.0


def chain(delta, *, workers=None, steps=2):
    """A cold MIS kernel chain's final problem."""
    problem = mis_problem(delta)
    for _ in range(steps):
        problem = speedup(problem, use_kernel=True, workers=workers).problem
    return problem


@contextmanager
def deadline(seconds=DEADLINE):
    """Fail instead of hanging when the block outlives ``seconds``."""

    def expire(_signum, _frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(int(seconds))
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def wait_for_no_children():
    deadline = time.monotonic() + DEADLINE
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    return multiprocessing.active_children()


def intermediate(problem):
    return rename_to_strings(R(problem, use_kernel=True)).problem


def dfs_payload(problem):
    """``map_chunks``' payload for ``problem``'s maximization DFS."""
    kernel = KernelProblem.of(problem)
    candidates = kernel.node_right_closed_sets()
    _elements, trans, extends = kernel.node_dfs_machine()
    return candidates, kernel.node_minimal_labels(), trans, extends, kernel.delta


# ---------------------------------------------------------------------------
# Shard planning
# ---------------------------------------------------------------------------

class TestPlanning:
    @given(
        count=st.integers(min_value=1, max_value=60),
        parts=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_plan_tiles_the_range(self, count, parts):
        shards = plan_shards(count, parts)
        # Contiguous, ordered, non-empty, exactly tiling [0, count).
        assert shards[0][0] == 0 and shards[-1][1] == count
        for (_, left_hi), (right_lo, _) in zip(shards, shards[1:]):
            assert left_hi == right_lo
        assert all(lo < hi for lo, hi in shards)
        # About `parts` shards: never more than twice as many.
        assert len(shards) <= max(2 * parts, 1)

    def test_dfs_units_are_weighted_by_suffix(self):
        # DFS unit i touches candidates >= i: early shards are narrow.
        widths = [hi - lo for lo, hi in plan_shards(40, 8)]
        assert widths[0] < widths[-1]


# ---------------------------------------------------------------------------
# The pool facade
# ---------------------------------------------------------------------------

class TestKernelPoolFacade:
    def test_single_unit_or_serial_pool_returns_none(self):
        payload = dfs_payload(intermediate(mis_problem(3)))
        with KernelPool(None) as pool:
            assert pool.map_chunks(payload, 0, phase="x") is None
        with KernelPool(1) as pool:
            assert not pool.usable()
        with KernelPool(4) as pool:
            assert pool.map_chunks(payload, 1, phase="x") is None


# ---------------------------------------------------------------------------
# Output identity
# ---------------------------------------------------------------------------

class TestOutputIdentity:
    def test_map_chunks_merges_in_index_order(self):
        # Final constraints are sets, so only the raw chunk lists can
        # show a merge-order slip.
        payload = dfs_payload(intermediate(mis_problem(4)))
        count = len(payload[0])
        with KernelPool(2) as pool:
            chunks = pool.map_chunks(payload, count, phase="x")
        assert chunks is not None and len(chunks) > 1
        flat = [item for chunk in chunks for item in chunk]
        assert flat == _maximization_dfs(*payload, 0, count)

    @pytest.mark.parametrize("delta", [4, 5])
    def test_mis_chain_matches_serial(self, delta):
        serial = chain(delta)
        fanned = chain(delta, workers=2)
        assert problem_to_json(fanned) == problem_to_json(serial)
        assert fingerprint(fanned) == fingerprint(serial)

    @pytest.mark.parametrize(
        "name", [spec.name for _, spec in load_registry()]
    )
    def test_scenarios_match_serial(self, name):
        spec = next(spec for _, spec in load_registry() if spec.name == name)
        serial = run_scenario(spec, use_kernel=True)
        fanned = run_scenario(spec, use_kernel=True, workers=2)
        assert fanned.ok
        assert [problem_to_json(p) for p in fanned.problems] == [
            problem_to_json(p) for p in serial.problems
        ]


# ---------------------------------------------------------------------------
# Budget checkpoints in the parent
# ---------------------------------------------------------------------------

class TestBudgetInParent:
    def test_checkpoint_fires_per_returned_shard(self):
        problem = intermediate(mis_problem(4))
        injector = FaultInjector()
        with governed(Budget(probe=injector)):
            Rbar(problem, use_kernel=True, workers=2)
        parallel_contexts = [
            context
            for context in injector.contexts
            if context.get("parallel_workers") == 2
        ]
        phases = {context["phase"] for context in parallel_contexts}
        assert phases == {"node-maximization"}
        # One checkpoint per shard, at the shard's first unit.
        chunks = [context["chunk"] for context in parallel_contexts]
        assert chunks[0] == 0
        assert chunks == sorted(chunks)
        assert len(chunks) <= 2 * 2 * parallel.SHARDS_PER_WORKER

    def test_refused_pool_runs_the_serial_dfs(self, monkeypatch):
        """A platform that cannot start processes gets the ordinary
        serial DFS: same result, same checkpoints, per DFS node."""

        def refuse(*_args, **_kwargs):
            raise OSError("no processes")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", refuse)
        problem = intermediate(mis_problem(4))
        Rbar(problem, use_kernel=True)  # warm the per-problem memos
        runs = []
        for workers in (None, 2):
            injector = FaultInjector()
            with governed(Budget(probe=injector)):
                result = Rbar(problem, use_kernel=True, workers=workers)
            runs.append((result, injector.contexts))
        assert runs[1] == runs[0]

    def test_budget_trip_tears_the_pool_down(self):
        def trip_on_second_shard(context):
            if context.get("parallel_workers") and context.get("chunk"):
                assert multiprocessing.active_children()  # pool is running
                raise BudgetExceeded("tripped mid fan-out", **context)

        problem = intermediate(mis_problem(5))
        with deadline(), pytest.raises(BudgetExceeded) as caught:
            with governed(Budget(probe=trip_on_second_shard)):
                Rbar(problem, use_kernel=True, workers=2)
        assert caught.value.context["phase"] == "node-maximization"
        assert not wait_for_no_children()


# ---------------------------------------------------------------------------
# Worker failures
# ---------------------------------------------------------------------------

_serial_shard = parallel.run_shard_serial


def _kill_on_shard_zero(payload, lo, hi):
    if lo == 0 and multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    return _serial_shard(payload, lo, hi)


def _raise_typed_on_shard_zero(payload, lo, hi):
    if lo == 0 and multiprocessing.parent_process() is not None:
        raise InjectedFault("typed fault in worker", lo=lo)
    return _serial_shard(payload, lo, hi)


def _raise_typed_on_shard_zero_others_slow(payload, lo, hi):
    """Shard 0 fails at once while the others are still queued or
    running, so ``Executor.map`` has pending futures to cancel."""
    if multiprocessing.parent_process() is not None and lo != 0:
        time.sleep(0.05)
    return _raise_typed_on_shard_zero(payload, lo, hi)


class TestFailures:
    """Run under the default ``fork`` start method: the patched chunk
    runner is inherited by the worker processes."""

    @pytest.fixture(autouse=True)
    def _forking(self):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("patching the chunk runner needs the fork start method")

    def test_killed_worker_raises_typed_error(self, monkeypatch):
        monkeypatch.setattr(parallel, "run_shard_serial", _kill_on_shard_zero)
        problem = intermediate(mis_problem(4))
        with deadline(), pytest.raises(WorkerCrashed) as caught:
            Rbar(problem, use_kernel=True, workers=2)
        assert isinstance(caught.value, RuntimeError)
        assert caught.value.context["phase"] == "node-maximization"
        assert not wait_for_no_children()

    def test_typed_worker_error_propagates(self, monkeypatch):
        monkeypatch.setattr(
            parallel, "run_shard_serial", _raise_typed_on_shard_zero
        )
        problem = intermediate(mis_problem(4))
        with deadline(), pytest.raises(InjectedFault) as caught:
            Rbar(problem, use_kernel=True, workers=2)
        assert caught.value.context.get("lo") == 0
        assert not wait_for_no_children()

    def test_error_path_leaves_no_thread_exception(self, monkeypatch):
        """Tearing the pool down after a worker error must not fail the
        futures ``Executor.map`` cancelled from the executor's manager
        thread; oversubscribed workers make that race likely."""
        monkeypatch.setattr(
            parallel, "run_shard_serial", _raise_typed_on_shard_zero_others_slow
        )
        problem = intermediate(mis_problem(4))
        workers = (os.cpu_count() or 1) + 2
        captured = []
        previous = threading.excepthook
        threading.excepthook = captured.append
        try:
            with deadline(2 * DEADLINE):
                for _ in range(20):
                    with pytest.raises(InjectedFault):
                        Rbar(problem, use_kernel=True, workers=workers)
        finally:
            threading.excepthook = previous
        assert [str(hook.exc_value) for hook in captured] == []
        assert not wait_for_no_children()


# ---------------------------------------------------------------------------
# Trace grafting
# ---------------------------------------------------------------------------

class TestGrafting:
    def traced_rbar(self, problem, workers):
        tracer = Tracer()
        with tracing(tracer):
            result = Rbar(problem, use_kernel=True, workers=workers)
        return result, tracer.finish()

    @pytest.mark.parametrize(
        "name,problem",
        [(name, problem) for name, problem in classic_corpus()[:4]],
    )
    def test_counters_match_serial_twin(self, name, problem):
        renamed = intermediate(problem)
        fanned, fanned_records = self.traced_rbar(renamed, 2)
        serial, serial_records = self.traced_rbar(renamed, None)
        assert fanned == serial, name
        validate_trace(fanned_records)
        assert not diff_semantic_profiles(
            semantic_profile(serial_records), semantic_profile(fanned_records)
        )
        # Grafted shard counters cover every top-level unit and every
        # configuration the serial DFS emits.
        payload = dfs_payload(renamed)
        count = len(payload[0])
        grafted = total_counters(fanned_records)
        assert grafted.get("mp.chunks") == count
        assert grafted.get("mp.chunk_results") == len(
            _maximization_dfs(*payload, 0, count)
        )

    def test_one_chunk_span_per_shard(self):
        _, records = self.traced_rbar(intermediate(mis_problem(4)), 2)
        validate_trace(records)
        chunk_spans = [r for r in records if r.get("name") == "kernel.chunk"]
        starts = [r["attrs"]["first_index"] for r in chunk_spans]
        assert starts
        assert len(starts) == len(set(starts))

    def test_mp_counters_are_declared(self):
        declared = {c for c in TIMING_COUNTERS if c.startswith("mp.")}
        assert declared == {"mp.chunks", "mp.chunk_results"}


# ---------------------------------------------------------------------------
# workers < 1 is rejected at the library boundary
# ---------------------------------------------------------------------------

class TestWorkersValidation:
    def test_run_scenario_rejects_nonpositive_workers(self):
        _, spec = load_registry()[0]
        with pytest.raises(EngineMisuse):
            run_scenario(spec, use_kernel=True, workers=0)
