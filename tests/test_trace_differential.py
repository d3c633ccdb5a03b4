"""Differential *trace* tests: semantic counters across engines.

The kernel's object-level contract (equal outputs) is covered by
``test_kernel_differential.py``.  This file checks the observability
contract on top of it: for the same workload, the reference and kernel
engines must report equal *semantic* counters — labels in/out,
right-closed-set counts, configuration counts — even though their
timing/cache counters (``kernel.cache.*``, ``galois.cache.*``) differ
wildly.  This is the counter taxonomy of
:mod:`repro.observability.schema` enforced over the whole oracle
corpus.

Set ``REPRO_TRACE_ARTIFACT=/path/out.jsonl`` to also export the
kernel-side corpus trace (CI uploads it as a workflow artifact).
"""

import os

import pytest

from repro.core.round_elimination import speedup
from repro.core.self_reduction import self_reduce
from repro.observability.metrics import (
    diff_semantic_profiles,
    semantic_profile,
    total_counters,
)
from repro.observability.schema import SEMANTIC_COUNTERS, validate_trace
from repro.observability.trace import Tracer, tracing
from repro.robustness.errors import InvalidProblem
from repro.scenarios import load_registry, run_scenario

from tests.oracle import full_corpus, scenario_corpus

CORPUS = full_corpus()
CORPUS_IDS = [name for name, _ in CORPUS]
SCENARIOS = scenario_corpus()
SCENARIO_IDS = [name for name, _ in SCENARIOS]


def traced_speedup(problem, *, use_kernel: bool):
    """One speedup under a fresh tracer; (records, outcome_or_error)."""
    tracer = Tracer()
    error = None
    with tracing(tracer):
        try:
            speedup(problem, use_kernel=use_kernel)
        except InvalidProblem as raised:
            error = str(raised)
    return tracer.finish(), error


@pytest.mark.parametrize("name, problem", CORPUS, ids=CORPUS_IDS)
def test_semantic_counters_agree_per_problem(name, problem):
    reference_records, reference_error = traced_speedup(
        problem, use_kernel=False
    )
    kernel_records, kernel_error = traced_speedup(problem, use_kernel=True)
    assert (reference_error is None) == (kernel_error is None), (
        f"{name}: engines disagree on failure: "
        f"reference={reference_error!r} kernel={kernel_error!r}"
    )
    validate_trace(reference_records)
    validate_trace(kernel_records)
    drift = diff_semantic_profiles(
        semantic_profile(reference_records), semantic_profile(kernel_records)
    )
    assert not drift, f"{name}: semantic counter drift:\n" + "\n".join(drift)


@pytest.mark.parametrize("name, problem", SCENARIOS, ids=SCENARIO_IDS)
def test_self_reduction_semantic_counters_agree(name, problem):
    """The selfred.* counters are engine-equal on scenario base problems."""
    profiles = []
    for use_kernel in (False, True):
        tracer = Tracer()
        with tracing(tracer):
            self_reduce(problem, use_kernel=use_kernel)
        records = tracer.finish()
        validate_trace(records)
        profiles.append(semantic_profile(records))
    drift = diff_semantic_profiles(*profiles)
    assert not drift, f"{name}: semantic counter drift:\n" + "\n".join(drift)
    assert any(
        "selfred.merged_labels" in counters or "labels.in" in counters
        for span, counters in profiles[0].items()
        if span == "op.condense"
    ), f"{name}: no op.condense span in the reference trace"


def test_corpus_wide_profiles_agree_and_export():
    """One trace per engine over the whole corpus and every registered
    scenario's full chain: the same outcomes, every scenario meets its
    expectations, and zero semantic drift.

    Also the CI artifact hook: with ``REPRO_TRACE_ARTIFACT`` set, the
    kernel trace is written there for upload.
    """
    reference_tracer = Tracer()
    kernel_tracer = Tracer()
    outcomes = []
    for tracer, use_kernel in (
        (reference_tracer, False), (kernel_tracer, True),
    ):
        failed = []
        with tracing(tracer):
            for name, problem in CORPUS:
                try:
                    speedup(problem, use_kernel=use_kernel)
                except InvalidProblem:
                    failed.append(name)
            runs = [
                run_scenario(spec, use_kernel=use_kernel)
                for _, spec in load_registry()
            ]
        assert [run.failures for run in runs] == [[] for _ in runs]
        outcomes.append((failed, runs))
    assert outcomes[0] == outcomes[1]

    reference_records = reference_tracer.finish()
    kernel_records = kernel_tracer.finish()
    validate_trace(reference_records)
    validate_trace(kernel_records)
    drift = diff_semantic_profiles(
        semantic_profile(reference_records), semantic_profile(kernel_records)
    )
    assert not drift, "corpus-wide semantic drift:\n" + "\n".join(drift)

    # The engines genuinely diverge on the timing side: the kernel
    # caches interned tables, the reference engine has no such counters.
    kernel_totals = total_counters(kernel_records)
    assert kernel_totals.get("kernel.cache.miss", 0) > 0
    assert "kernel.cache.miss" not in total_counters(reference_records)
    assert set(semantic_profile(kernel_records)) and all(
        counter in SEMANTIC_COUNTERS
        for counters in semantic_profile(kernel_records).values()
        for counter in counters
    )

    artifact = os.environ.get("REPRO_TRACE_ARTIFACT")
    if artifact:
        kernel_tracer.write(artifact)
