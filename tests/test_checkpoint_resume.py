"""Property tests for checkpoint/resume: a killed run, resumed, must be
indistinguishable from an uninterrupted one — identical chain steps,
byte-identical certificates — and corrupt state must be discarded, not
trusted."""

import json

import pytest

from repro.core.io import (
    canonical_json,
    payload_digest,
    read_json_checkpoint,
    write_json_checkpoint,
)
from repro.lowerbound.certificate import build_certificate
from repro.lowerbound.sequence import lemma13_chain, run_chain
from repro.observability.schema import validate_trace
from repro.observability.trace import Tracer, tracing
from repro.robustness.checkpointing import CheckpointStore
from repro.robustness.errors import BudgetExceeded, CheckpointCorrupt

from tests.faults import (
    InjectedFault,
    budget_tripping_budget,
    corrupt_checkpoint,
    counting_budget,
    tripping_budget,
)


class TestCheckpointFiles:
    def test_canonical_json_is_key_order_independent(self):
        assert canonical_json({"b": 1, "a": [2, 3]}) == canonical_json(
            {"a": [2, 3], "b": 1}
        )

    def test_digest_tracks_content(self):
        assert payload_digest({"a": 1}) != payload_digest({"a": 2})

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "state.json"
        payload = {"steps": [1, 2, 3], "complete": False}
        write_json_checkpoint(path, payload)
        assert read_json_checkpoint(path) == payload

    def test_flipped_byte_breaks_the_seal(self, tmp_path):
        path = tmp_path / "state.json"
        write_json_checkpoint(path, {"steps": list(range(20))})
        corrupt_checkpoint(path)
        with pytest.raises(CheckpointCorrupt):
            read_json_checkpoint(path)

    def test_tampered_payload_breaks_the_seal(self, tmp_path):
        path = tmp_path / "state.json"
        write_json_checkpoint(path, {"value": 1})
        document = json.loads(path.read_text())
        document["payload"]["value"] = 2
        path.write_text(json.dumps(document))
        with pytest.raises(CheckpointCorrupt):
            read_json_checkpoint(path)


class TestCheckpointStore:
    def test_save_load_delete(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.load("alpha") is None
        store.save("alpha", {"x": 1})
        assert store.load("alpha") == {"x": 1}
        assert "alpha" in store.stages()
        store.delete("alpha")
        assert store.load("alpha") is None

    def test_load_or_discard_removes_corrupt_files(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("alpha", {"x": 1})
        corrupt_checkpoint(store.path_for("alpha"))
        payload, error = store.load_or_discard("alpha")
        assert payload is None
        assert isinstance(error, CheckpointCorrupt)
        # The damaged file is gone; the next load is a clean miss.
        assert store.load("alpha") is None


class TestChainResume:
    """run_chain killed mid-construction resumes to the identical chain."""

    @pytest.mark.parametrize("delta,x", [(8, 0), (16, 1), (64, 0), (512, 0)])
    def test_killed_and_resumed_equals_uninterrupted(self, tmp_path, delta, x):
        baseline = lemma13_chain(delta, x)
        store = CheckpointStore(tmp_path)
        budget, injector = tripping_budget(trip_at=2)
        with pytest.raises(InjectedFault):
            run_chain(delta, x, store=store, budget=budget)
        resumed = run_chain(delta, x, store=store)
        assert resumed.chain == baseline
        assert resumed.complete
        assert resumed.resumed_from_step is not None
        assert resumed.resumed_from_step < len(baseline)

    def test_resuming_a_complete_run_is_a_pure_replay(self, tmp_path):
        store = CheckpointStore(tmp_path)
        first = run_chain(64, 0, store=store)
        second = run_chain(64, 0, store=store)
        assert second.chain == first.chain
        assert second.resumed_from_step == len(first.chain)

    def test_corrupt_checkpoint_is_discarded_and_recomputed(self, tmp_path):
        store = CheckpointStore(tmp_path)
        run_chain(64, 0, store=store)
        (stage,) = store.stages()
        corrupt_checkpoint(store.path_for(stage))
        result = run_chain(64, 0, store=store)
        assert result.chain == lemma13_chain(64, 0)
        assert result.resumed_from_step is None
        assert any("corrupt" in entry for entry in result.provenance)


class TestKernelChainResumeTraced:
    """Kernel-path run_chain, killed by an injected BudgetExceeded,
    resumes to byte-identical output — and the resumed run's trace
    marks the chain span ``resumed=true``."""

    def test_budget_trip_resumes_byte_identical_with_resumed_span(
        self, tmp_path
    ):
        delta, x = 64, 0
        baseline = run_chain(delta, x, verify_steps=True, use_kernel=True)
        store = CheckpointStore(tmp_path / "interrupted")
        budget, injector = budget_tripping_budget(trip_at=2)
        with pytest.raises(BudgetExceeded):
            run_chain(
                delta, x, store=store, budget=budget,
                verify_steps=True, use_kernel=True,
            )
        assert store.stages()  # the completed prefix survived the trip

        tracer = Tracer()
        with tracing(tracer):
            resumed = run_chain(
                delta, x, store=store, verify_steps=True, use_kernel=True
            )
        records = tracer.finish()
        validate_trace(records)

        assert resumed.complete
        assert resumed.chain == baseline.chain
        assert resumed.resumed_from_step is not None
        assert 0 < resumed.resumed_from_step < len(baseline.chain)

        # Byte-identical persisted state: the resumed store's checkpoint
        # equals the one from an uninterrupted run.
        fresh = CheckpointStore(tmp_path / "fresh")
        run_chain(delta, x, store=fresh, verify_steps=True, use_kernel=True)
        (stage,) = store.stages()
        assert (
            store.path_for(stage).read_bytes()
            == fresh.path_for(stage).read_bytes()
        )

        chain_span = next(
            r for r in records
            if r["type"] == "span" and r["name"] == "chain.run"
        )
        assert chain_span["attrs"]["resumed"] is True
        assert chain_span["attrs"]["resumed_from_step"] == resumed.resumed_from_step
        assert chain_span["attrs"]["engine"] == "kernel"
        # The resume surfaced in span events and in the provenance
        # summary — which is observational only (appended after the
        # final persist), hence the byte-identity above.
        event_names = {r["name"] for r in records if r["type"] == "event"}
        assert "checkpoint.load" in event_names
        assert "checkpoint.save" in event_names
        assert any(entry.startswith("trace: ") for entry in resumed.provenance)


class TestCertificateResume:
    """build_certificate killed mid-stage renders byte-identically."""

    def test_killed_and_resumed_renders_identically(self, tmp_path):
        baseline = build_certificate(4, 0).render()
        store = CheckpointStore(tmp_path)
        budget, injector = tripping_budget(trip_at=2)
        with pytest.raises(InjectedFault):
            build_certificate(4, 0, store=store, budget=budget)
        resumed = build_certificate(4, 0, store=store)
        assert resumed.render() == baseline
        assert resumed.ok

    def test_checkpoint_listing_the_retired_governed_stage_resumes(
        self, tmp_path
    ):
        # An older checkpoint whose ``completed`` still lists the
        # retired governed-speedup stage; the build stopped after
        # lemma8-direct.  Old checkpoints must keep resuming.
        store = CheckpointStore(tmp_path)
        store.save(
            "certificate-delta4-k0",
            {
                "chain_length": 0,
                "checks": {
                    "lemma13 chain arithmetic": True,
                    "lemma6 normal form": True,
                    "lemma8 case analysis": True,
                    "lemma8 direct Rbar": True,
                    "theorem14 premises": True,
                },
                "completed": [
                    "chain", "governed-speedup", "lemma6-8", "lemma8-direct",
                ],
                "delta": 4,
                "deterministic_bound": 0,
                "k": 0,
                "n": 2**64,
                "provenance": [],
                "randomized_bound": 0,
                "skipped": [],
            },
        )
        fresh = build_certificate(4, 0)
        budget, injector = counting_budget()
        resumed = build_certificate(4, 0, store=store, budget=budget)
        # Only the two stages left (lemma9, lemma5) reached a checkpoint.
        assert injector.calls == 2
        assert resumed.render() == fresh.render()
        assert resumed.to_dict() == fresh.to_dict()

    def test_corrupt_checkpoint_is_deleted_and_recomputed(
        self, tmp_path, monkeypatch
    ):
        cold = build_certificate(4, 0)
        cold_store = CheckpointStore(tmp_path / "cold")
        build_certificate(4, 0, store=cold_store)
        store = CheckpointStore(tmp_path / "damaged")
        build_certificate(4, 0, store=store)
        (stage,) = store.stages()
        corrupt_checkpoint(store.path_for(stage))

        deleted = []
        delete = store.delete

        def recording_delete(name: str) -> None:
            deleted.append(name)
            delete(name)

        monkeypatch.setattr(store, "delete", recording_delete)
        budget, injector = counting_budget()
        rebuilt = build_certificate(4, 0, store=store, budget=budget)
        assert deleted == [stage]
        assert injector.calls == 5  # every stage recomputed
        assert rebuilt.render() == cold.render()
        assert (
            store.path_for(stage).read_bytes()
            == cold_store.path_for(stage).read_bytes()
        )

    def test_mismatched_parameters_do_not_resume(self, tmp_path):
        store = CheckpointStore(tmp_path)
        build_certificate(4, 0, store=store)
        other = build_certificate(4, 1, store=store)
        assert other.k == 1
        assert other.render() == build_certificate(4, 1).render()
