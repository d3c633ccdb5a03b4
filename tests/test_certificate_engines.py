"""Engine parity for the proof pipeline: the kernel computes, the
reference engine is the oracle.

``build_certificate``, the Lemma 6/8 checks and ``run_chain`` run their
engine work on the kernel by default.  Every test here runs the same
work with ``use_kernel=True`` and ``use_kernel=False`` and asserts the
two are indistinguishable: byte-identical renders, ``to_dict`` JSON and
checkpoint files, equal semantic counters, and checkpoints that resume
on the other engine.  The Lemma 8 tests also compare the intermediate
constraints ``verify_lemma8_direct`` computes, which its boolean verdict
alone would not reveal, and the case analysis's report field by field.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.lowerbound import lemma8
from repro.lowerbound.certificate import build_certificate
from repro.lowerbound.lemma6 import compute_r_of_family, verify_lemma6
from repro.lowerbound.lemma8 import verify_lemma8_argument, verify_lemma8_direct
from repro.lowerbound.sequence import lemma13_chain, run_chain
from repro.observability.metrics import diff_semantic_profiles, semantic_profile
from repro.observability.trace import Tracer, tracing
from repro.robustness.checkpointing import CheckpointStore

from tests.faults import InjectedFault, tripping_budget

ENGINES = {"kernel": True, "reference": False}
CERTIFICATE_POINTS = [(delta, k) for delta in (3, 4, 5, 8) for k in (0, 1)]
LEMMA8_DIRECT_POINTS = [(3, 2, 0), (4, 3, 1), (5, 3, 1)]
LEMMA6_SWEEP = [(4, 3, 1), (5, 3, 1), (5, 4, 2), (6, 4, 1), (6, 5, 2), (7, 5, 1)]
#: The certificate's representative step at Delta = 8: the first chain
#: step inside Lemma 8's range x + 2 <= a <= Delta.
DELTA8_REPRESENTATIVE = next(
    (step.delta, step.a, step.x)
    for step in lemma13_chain(8, 0)
    if step.x + 2 <= step.a <= step.delta
)
#: Every (Delta, a, x) of Lemma 8's range for Delta <= 6, plus that step.
LEMMA8_ARGUMENT_POINTS = [
    (delta, a, x)
    for delta in (3, 4, 5, 6)
    for a in range(2, delta + 1)
    for x in range(a - 1)
] + [DELTA8_REPRESENTATIVE]


def store_bytes(store: CheckpointStore) -> dict[str, bytes]:
    """Every checkpoint file of ``store``, by stage name."""
    return {stage: store.path_for(stage).read_bytes() for stage in store.stages()}


def traced_profile(work) -> dict:
    tracer = Tracer()
    with tracing(tracer):
        work()
    return semantic_profile(tracer.finish())


# ---------------------------------------------------------------------------
# Whole certificates
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("delta,k", CERTIFICATE_POINTS)
def test_certificate_is_byte_identical_across_engines(tmp_path, delta, k):
    built = {}
    files = {}
    for engine, use_kernel in ENGINES.items():
        store = CheckpointStore(tmp_path / engine)
        built[engine] = build_certificate(
            delta, k, store=store, use_kernel=use_kernel
        )
        files[engine] = store_bytes(store)
    kernel, reference = built["kernel"], built["reference"]
    assert kernel.ok, kernel.render()
    assert kernel.render() == reference.render()
    assert json.dumps(kernel.to_dict(), sort_keys=True) == json.dumps(
        reference.to_dict(), sort_keys=True
    )
    assert files["kernel"] == files["reference"]
    assert files["kernel"]  # the stages were really persisted


@pytest.mark.parametrize("delta,k", CERTIFICATE_POINTS)
def test_certificate_semantic_counters_agree(delta, k):
    profiles = {
        engine: traced_profile(
            lambda: build_certificate(delta, k, use_kernel=use_kernel)
        )
        for engine, use_kernel in ENGINES.items()
    }
    assert profiles["kernel"]
    assert diff_semantic_profiles(profiles["reference"], profiles["kernel"]) == []


@pytest.mark.parametrize("delta", [3, 4, 5])
@pytest.mark.parametrize("engine", ENGINES)
def test_certificate_computes_r_once_per_call(delta, engine):
    """The Lemma 6 and direct Lemma 8 checks share one R(Pi) within a
    call, and nothing carries over to the next call."""
    for _ in range(2):
        tracer = Tracer()
        with tracing(tracer):
            certificate = build_certificate(delta, 0, use_kernel=ENGINES[engine])
        assert "lemma8 direct Rbar" in certificate.checks
        spans = [
            record
            for record in tracer.finish()
            if record["type"] == "span" and record["name"] == "op.R"
        ]
        assert len(spans) == 1


@pytest.mark.parametrize("trip_at", [2, 3, 4])
@pytest.mark.parametrize("first,second", [("kernel", "reference"), ("reference", "kernel")])
def test_checkpoint_resumes_on_the_other_engine(tmp_path, first, second, trip_at):
    delta, k = 5, 1
    uninterrupted_store = CheckpointStore(tmp_path / "uninterrupted")
    uninterrupted = build_certificate(
        delta, k, store=uninterrupted_store, use_kernel=ENGINES[second]
    )
    store = CheckpointStore(tmp_path / "resumed")
    budget, _ = tripping_budget(trip_at=trip_at)
    with pytest.raises(InjectedFault):
        build_certificate(
            delta, k, store=store, budget=budget, use_kernel=ENGINES[first]
        )
    assert store.stages()  # the first engine's completed stages survived
    resumed = build_certificate(delta, k, store=store, use_kernel=ENGINES[second])
    assert resumed.ok, resumed.render()
    assert resumed.render() == uninterrupted.render()
    assert store_bytes(store) == store_bytes(uninterrupted_store)


# ---------------------------------------------------------------------------
# Lemma-level parity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("delta,a,x", LEMMA6_SWEEP)
def test_lemma6_parity_across_engines(delta, a, x):
    kernel = compute_r_of_family(delta, a, x, use_kernel=True)
    reference = compute_r_of_family(delta, a, x, use_kernel=False)
    assert kernel.problem == reference.problem
    assert kernel.problem.render() == reference.problem.render()
    assert kernel.mapping == reference.mapping
    assert verify_lemma6(delta, a, x, use_kernel=True)
    assert verify_lemma6(delta, a, x, use_kernel=False)


LEMMA8_OPERATORS = (
    "maximize_node_constraint",
    "existential_constraint",
)


def lemma8_intermediates(monkeypatch, delta, a, x, use_kernel):
    """The constraints ``verify_lemma8_direct`` computes, by operator.

    Spies on both engines' operators in :mod:`repro.lowerbound.lemma8`
    and returns ``{operator name: rendered constraint}`` with the
    ``_kernel`` suffix kept, so callers see which engine ran.
    """
    computed: dict[str, str] = {}
    for base in LEMMA8_OPERATORS:
        for name in (base, f"{base}_kernel"):
            original = getattr(lemma8, name)

            def spy(*args, _original=original, _name=name, **kwargs):
                result = _original(*args, **kwargs)
                computed[_name] = result.render()
                return result

            monkeypatch.setattr(lemma8, name, spy)
    assert verify_lemma8_direct(delta, a, x, use_kernel=use_kernel)
    monkeypatch.undo()
    return computed


@pytest.mark.parametrize("delta,a,x", LEMMA8_DIRECT_POINTS)
def test_lemma8_direct_parity_across_engines(monkeypatch, delta, a, x):
    kernel = lemma8_intermediates(monkeypatch, delta, a, x, use_kernel=True)
    reference = lemma8_intermediates(monkeypatch, delta, a, x, use_kernel=False)
    assert set(kernel) == {f"{base}_kernel" for base in LEMMA8_OPERATORS}
    assert set(reference) == set(LEMMA8_OPERATORS)
    for base in LEMMA8_OPERATORS:
        assert kernel[f"{base}_kernel"] == reference[base], base


@pytest.mark.parametrize("delta,a,x", LEMMA8_ARGUMENT_POINTS)
def test_lemma8_argument_parity_across_engines(delta, a, x):
    """The kernel's strength relation and the reference ``Diagram``
    answer every fact of the case analysis alike."""
    kernel = verify_lemma8_argument(delta, a, x, use_kernel=True)
    reference = verify_lemma8_argument(delta, a, x, use_kernel=False)
    for field in dataclasses.fields(reference):
        assert getattr(kernel, field.name) == getattr(reference, field.name), (
            field.name
        )


@pytest.mark.parametrize("delta,a,x", LEMMA8_DIRECT_POINTS)
def test_lemma8_direct_semantic_counters_agree(delta, a, x):
    profiles = {
        engine: traced_profile(
            lambda: verify_lemma8_direct(delta, a, x, use_kernel=use_kernel)
        )
        for engine, use_kernel in ENGINES.items()
    }
    assert profiles["kernel"]
    assert diff_semantic_profiles(profiles["reference"], profiles["kernel"]) == []


# ---------------------------------------------------------------------------
# The package default
# ---------------------------------------------------------------------------

def test_defaults_run_on_the_kernel():
    verified = run_chain(8, verify_steps=True)
    assert "per-step Lemma 12 checks via kernel engine" in verified.provenance
    tracer = Tracer()
    with tracing(tracer):
        build_certificate(4, 0)
    engines = {
        record["attrs"]["engine"]
        for record in tracer.finish()
        if record["type"] == "span" and "engine" in record.get("attrs", {})
    }
    assert engines == {"kernel"}


@pytest.mark.parametrize("delta,x", [(3, 0), (8, 0), (64, 1), (512, 0)])
def test_verified_chain_is_equal_on_both_engines(tmp_path, delta, x):
    runs = {}
    for engine, use_kernel in ENGINES.items():
        store = CheckpointStore(tmp_path / engine)
        runs[engine] = (
            run_chain(delta, x, store=store, verify_steps=True, use_kernel=use_kernel),
            store_bytes(store),
        )
    (kernel, kernel_files), (reference, reference_files) = (
        runs["kernel"], runs["reference"]
    )
    assert kernel.chain == reference.chain
    assert kernel.complete and reference.complete
    assert kernel_files == reference_files
    assert reference.provenance == ["per-step Lemma 12 checks via reference engine"]
    assert kernel.provenance == ["per-step Lemma 12 checks via kernel engine"]
