"""Per-layer spans, recorded from outside the program.

A :class:`Target` names one entry function of a ``repro`` module (a
module-level function, or a method written ``Class.method``) and the
layer metric its self time feeds.  :func:`install` swaps every target
for a timing wrapper, both in its defining module and in every loaded
``repro`` module that imported it by name, and returns a
:class:`SpanLog` whose :meth:`SpanLog.uninstall` puts the originals
back.  Untraced runs never call :func:`install`, so they execute the
program's own functions unchanged.

A span's *self time* is its duration minus the time covered by the
wrapped calls made on the same thread while it was open.  Spans carry
:func:`time.monotonic` stamps; on Linux that clock is system-wide, so
the server's spans and the load process's timings share one time axis.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    """One wrapped entry function and the metric its self time feeds."""

    module: str
    attr: str                      #: ``name`` or ``Class.name``
    metric: str                    #: metric stem, ``<layer>.<what>``
    #: ``(counter, fn(args) -> int)``, evaluated before each call and
    #: kept on the span as ``counts``.
    count: tuple[str, Callable[..., int]] | None = None
    #: ``(counter, fn(args, result) -> int)``, evaluated after each call
    #: and kept on the span as ``counts``.
    size: tuple[str, Callable[..., int]] | None = None
    #: ``fn(args) -> str`` naming the job a span belongs to.
    tag: Callable[..., str] | None = None


def _uncomputed(args: tuple) -> int:
    return int(args[0]._canonical_cache is None)


def _file_size(args: tuple, result: object) -> int:
    return os.path.getsize(args[0])


def _job_id(args: tuple) -> str:
    return args[1].job_id


#: Every wrapped entry, grouped by the repo's layers.  Private names
#: appear only where a layer has no public entry of its own: a job's
#: execution on a worker thread (``Orchestrator._run_job``), the
#: uncached operator bodies (which separate engine time from the
#: operator cache's transport time) and the certificate's two witness
#: helpers.
TARGETS: tuple[Target, ...] = (
    # service: wire codecs, dedup key, sealed job store, job execution
    Target("repro.service.wire", "parse_job_request", "wire.parse"),
    Target("repro.service.wire", "encode_job", "wire.encode"),
    Target("repro.service.orchestrator", "computation_key", "orchestrator.key"),
    Target("repro.service.jobs", "JobStore.save", "jobs.save",
           count=("jobs.saves", lambda args: 1)),
    Target("repro.service.orchestrator", "Orchestrator._run_job", "service.job",
           tag=_job_id),
    # scenarios
    Target("repro.scenarios.runner", "run_problem_chain", "scenarios.chain"),
    Target("repro.scenarios.runner", "run_scenario", "scenarios.chain"),
    # cache
    Target("repro.core.cache", "canonical_form", "cache.canonical_form",
           count=("cache.canonical_forms", _uncomputed)),
    Target("repro.core.cache", "OperatorCache.lookup", "cache.lookup"),
    Target("repro.core.cache", "OperatorCache.store", "cache.store"),
    Target("repro.service.orchestrator", "LockedOperatorCache.lookup", "cache.lookup"),
    Target("repro.service.orchestrator", "LockedOperatorCache.store", "cache.store"),
    Target("repro.core.cache", "cached_problem_operator", "cache.transport"),
    Target("repro.core.cache", "cached_condensation", "cache.transport"),
    # checkpointing
    Target("repro.core.io", "write_json_checkpoint", "checkpointing.write",
           size=("checkpointing.bytes", _file_size)),
    Target("repro.robustness.checkpointing", "CheckpointStore.save",
           "checkpointing.write"),
    # kernel (serial)
    Target("repro.core.kernel.engine", "kernel_R", "kernel.R"),
    Target("repro.core.kernel.engine", "kernel_Rbar", "kernel.Rbar"),
    # round_elimination: the reference engine plus renaming
    Target("repro.core.round_elimination", "speedup", "round_elimination.speedup"),
    Target("repro.core.round_elimination", "R", "round_elimination.R"),
    Target("repro.core.round_elimination", "_R_uncached", "round_elimination.R"),
    Target("repro.core.round_elimination", "maximize_edge_constraint",
           "round_elimination.R"),
    Target("repro.core.round_elimination", "Rbar", "round_elimination.Rbar"),
    Target("repro.core.round_elimination", "_Rbar_uncached", "round_elimination.Rbar"),
    Target("repro.core.round_elimination", "maximize_node_constraint",
           "round_elimination.Rbar"),
    Target("repro.core.round_elimination", "existential_constraint",
           "round_elimination.existential"),
    Target("repro.core.round_elimination", "rename_to_strings",
           "round_elimination.rename"),
    Target("repro.core.self_reduction", "self_reduction_chain",
           "round_elimination.self_reduce"),
    Target("repro.core.self_reduction", "_condense_uncached",
           "round_elimination.self_reduce"),
    # solvability
    Target("repro.core.solvability", "zero_round_solvable_pn", "solvability.zero_round"),
    Target("repro.core.solvability", "zero_round_solvable_symmetric",
           "solvability.zero_round"),
    # lowerbound
    Target("repro.lowerbound.certificate", "build_certificate", "lowerbound.certificate"),
    Target("repro.lowerbound.lemma6", "verify_lemma6", "lowerbound.lemma6"),
    Target("repro.lowerbound.lemma8", "verify_lemma8_argument",
           "lowerbound.lemma8_argument"),
    Target("repro.lowerbound.lemma8", "verify_lemma8_direct", "lowerbound.lemma8_direct"),
    Target("repro.lowerbound.certificate", "_lemma9_witness", "lowerbound.lemma9"),
    Target("repro.lowerbound.certificate", "_lemma5_witness", "lowerbound.lemma5"),
    Target("repro.lowerbound.sequence", "lemma13_chain", "lowerbound.chain"),
    Target("repro.lowerbound.sequence", "verify_chain_arithmetic", "lowerbound.chain"),
    Target("repro.lowerbound.lift", "verify_theorem14_premises", "lowerbound.chain"),
    Target("repro.lowerbound.sequence", "run_chain", "lowerbound.chain"),
)

#: Every metric stem a target feeds, in table order.
LAYER_METRICS: tuple[str, ...] = tuple(dict.fromkeys(t.metric for t in TARGETS))


class SpanLog:
    """The spans of one process, kept in memory.

    Each span is a dict ``{metric, start, end, self, depth, thread, job,
    counts}``; ``depth`` 0 marks a span with no wrapped caller on its
    thread.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, target: Target, original: Callable) -> Callable:
        """A wrapper recording one span per call of ``original``."""
        log = self

        def wrapper(*args: object, **kwargs: object) -> object:
            counts = {}
            if target.count is not None:
                counts[target.count[0]] = target.count[1](args)
            stack = log._stack()
            children = [0.0]
            stack.append(children)
            start = time.monotonic()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                span = {
                    "metric": target.metric,
                    "start": start,
                    "end": end,
                    "self": end - start - children[0],
                    "depth": len(stack),
                    "thread": threading.get_ident(),
                    "job": None if target.tag is None else target.tag(args),
                    "counts": counts,
                }
                log.spans.append(span)
            if target.size is not None:
                counts[target.size[0]] = target.size[1](args, result)
            return result

        return wrapper

    def _replace(self, owner: object, name: str, value: object) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        """Restore every replaced attribute, newest first."""
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)


def install(targets: tuple[Target, ...] = TARGETS) -> SpanLog:
    """Wrap every target; the returned log records their spans."""
    log = SpanLog()
    for target in targets:
        module = importlib.import_module(target.module)
        if "." in target.attr:
            class_name, name = target.attr.split(".")
            owner = getattr(module, class_name)
            log._replace(owner, name, log.wrap(target, owner.__dict__[name]))
            continue
        original = getattr(module, target.attr)
        wrapper = log.wrap(target, original)
        # ``from module import name`` copies the function into the
        # importer's namespace, so every alias is rebound too.
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not loaded_name.startswith("repro"):
                continue
            for alias, value in list(vars(loaded).items()):
                if value is original:
                    log._replace(loaded, alias, wrapper)
    return log


def write_spans(path: str, spans: list[dict]) -> None:
    """Save ``spans`` as JSON lines."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def read_spans(path: str) -> list[dict]:
    """The spans a :func:`write_spans` file holds."""
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def totals(spans: list[dict], window: tuple[float, float]) -> dict[str, float]:
    """Self seconds per metric stem (``<stem>_s``) and summed counts,
    over the spans that start inside ``window``."""
    sums = {f"{stem}_s": 0.0 for stem in LAYER_METRICS}
    sums.update({hook[0]: 0 for t in TARGETS for hook in (t.count, t.size) if hook})
    for span in spans:
        if window[0] <= span["start"] < window[1]:
            sums[span["metric"] + "_s"] += span["self"]
            for counter, value in span["counts"].items():
                sums[counter] += value
    return sums


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by the union of ``intervals``."""
    covered = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered
