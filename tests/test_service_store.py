"""Property tests of the service wire formats and the sealed job store.

Mirrors the ``.scn`` spec-format tests one layer up: the request
parse/render pair is an identity on valid requests, the job-record
encode/decode pair survives a full trip through the sealed
:class:`~repro.robustness.checkpointing.CheckpointStore`, and the
resulting documents are byte-stable under
:func:`repro.core.io.canonical_json` — the exact property the
restart-and-re-serve guarantee of the HTTP API rests on.  Corruption
is tested the way the store promises to handle it: a damaged job file
costs that job (evicted, counted), never the server.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.core.io import canonical_json
from repro.robustness.checkpointing import CheckpointStore
from repro.robustness.errors import InvalidJobRequest
from repro.service import (
    BUDGET_FIELDS,
    ENGINES,
    INLINE_OPERATORS,
    JOB_STATES,
    POLICIES,
    JobRecord,
    JobRequest,
    JobStore,
    parse_job_request,
    render_job_request,
)
from repro.service.jobs import JOB_STAGE_PREFIX
from repro.service.wire import decode_job, encode_job

import pytest


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

def budgets() -> st.SearchStrategy:
    """Valid budget dicts: positive ints, float wall-clock seconds."""
    field_values = {
        field: st.integers(min_value=1, max_value=10**6)
        for field in BUDGET_FIELDS
        if field != "wall_clock_seconds"
    }
    field_values["wall_clock_seconds"] = st.floats(
        min_value=0.001, max_value=1e6, allow_nan=False, allow_infinity=False
    )
    return st.fixed_dictionaries(
        {}, optional=field_values
    )


@st.composite
def job_requests(draw) -> JobRequest:
    """Every shape :func:`parse_job_request` accepts."""
    engine = draw(st.sampled_from(ENGINES))
    workers = (
        draw(st.one_of(st.none(), st.integers(min_value=1, max_value=8)))
        if engine == "kernel"
        else None
    )
    budget = draw(budgets())
    if draw(st.booleans()):
        return JobRequest(
            scenario=draw(st.from_regex(r"[a-z][a-z0-9-]{0,30}", fullmatch=True)),
            engine=engine,
            workers=workers,
            budget=budget,
        )
    return JobRequest(
        problem=draw(st.text(min_size=1, max_size=200)),
        operator=draw(st.sampled_from(INLINE_OPERATORS)),
        steps=draw(st.integers(min_value=0, max_value=50)),
        policy=draw(st.sampled_from(POLICIES)),
        engine=engine,
        workers=workers,
        budget=budget,
    )


@st.composite
def job_records(draw) -> JobRecord:
    """Job records in every lifecycle state, with optional payloads."""
    state = draw(st.sampled_from(JOB_STATES))
    json_scalars = st.one_of(
        st.none(), st.booleans(), st.integers(), st.text(max_size=20)
    )
    return JobRecord(
        job_id=draw(st.from_regex(r"[0-9a-f]{16}", fullmatch=True)),
        request=draw(job_requests()),
        key=draw(st.from_regex(r"[a-z0-9-]{8,40}", fullmatch=True)),
        state=state,
        deduped=draw(st.booleans()),
        deduped_from=draw(
            st.one_of(st.none(), st.from_regex(r"[0-9a-f]{16}", fullmatch=True))
        ),
        result=draw(
            st.one_of(
                st.none(),
                st.dictionaries(st.text(max_size=10), json_scalars, max_size=4),
            )
        ),
        error=draw(
            st.one_of(
                st.none(),
                st.fixed_dictionaries(
                    {
                        "type": st.text(min_size=1, max_size=20),
                        "message": st.text(max_size=40),
                        "context": st.dictionaries(
                            st.text(max_size=10), json_scalars, max_size=3
                        ),
                    }
                ),
            )
        ),
        counters=draw(
            st.dictionaries(
                st.from_regex(r"[a-z.]{1,20}", fullmatch=True),
                st.integers(min_value=0, max_value=10**9),
                max_size=6,
            )
        ),
        events=draw(
            st.lists(
                st.dictionaries(st.text(max_size=10), json_scalars, max_size=4),
                max_size=4,
            )
        ),
    )


# ---------------------------------------------------------------------------
# Wire-format round trips
# ---------------------------------------------------------------------------

class TestRequestRoundTrip:
    @given(request=job_requests())
    @settings(max_examples=150, deadline=None)
    def test_parse_render_is_identity(self, request):
        assert parse_job_request(render_job_request(request)) == request

    @given(request=job_requests())
    @settings(max_examples=150, deadline=None)
    def test_rendered_document_is_canonical(self, request):
        """Render is a fixed point: parse -> render -> parse -> render
        is byte-identical, and survives a JSON trip."""
        document = render_job_request(request)
        once = canonical_json(document)
        again = canonical_json(
            render_job_request(parse_job_request(json.loads(once)))
        )
        assert once == again

    def test_rendered_document_omits_defaults(self):
        document = render_job_request(JobRequest(scenario="x"))
        assert document == {"scenario": "x"}


class TestRecordRoundTrip:
    @given(record=job_records())
    @settings(max_examples=100, deadline=None)
    def test_encode_decode_is_identity(self, record):
        assert decode_job(encode_job(record)) == record

    @given(record=job_records())
    @settings(max_examples=60, deadline=None)
    def test_checkpoint_store_round_trip_is_byte_identical(
        self, record, tmp_path_factory
    ):
        """Through the sealed store and back: the re-encoded document
        (exactly what ``GET /v1/jobs/<id>`` serves) is byte-identical."""
        store = JobStore(tmp_path_factory.mktemp("jobs"))
        store.save(record)
        loaded = store.load(record.job_id)
        assert loaded == record
        assert canonical_json(encode_job(loaded)) == canonical_json(
            encode_job(record)
        )

    def test_decode_rejects_garbage(self):
        for garbage in (
            None,
            [],
            "x",
            {},
            {"job_id": "a", "request": {"scenario": "s"}, "key": "k"},
            {
                "job_id": "a",
                "request": {"scenario": "s"},
                "key": "k",
                "state": "exploded",
            },
            {
                "job_id": "a",
                "request": {"bogus": True},
                "key": "k",
                "state": "queued",
            },
        ):
            with pytest.raises(InvalidJobRequest):
                decode_job(garbage)


class TestBudgetValidation:
    """Count fields take JSON integers >= 1 and ``wall_clock_seconds``
    a finite number > 0; anything else is a typed 400, never coerced."""

    @pytest.mark.parametrize(
        ("key", "value"),
        [
            ("max_alphabet", float("inf")),
            ("max_alphabet", 0.5),
            ("max_configurations", 3.0),
            ("wall_clock_seconds", float("nan")),
            ("wall_clock_seconds", float("inf")),
            ("wall_clock_seconds", 10**400),
        ],
        ids=["inf-count", "fractional-count", "float-count", "nan-clock",
             "inf-clock", "huge-int-clock"],
    )
    def test_bad_budget_value_is_rejected(self, key, value):
        with pytest.raises(InvalidJobRequest):
            parse_job_request({"scenario": "s", "budget": {key: value}})


# ---------------------------------------------------------------------------
# Corruption handling
# ---------------------------------------------------------------------------

def make_record(job_id: str = "a" * 16) -> JobRecord:
    return JobRecord(
        job_id=job_id,
        request=JobRequest(scenario="maximal-matching2-selfreduce"),
        key="self-reduce-2-pn-deadbeef",
        state="done",
        result={"ok": True},
    )


class TestCorruption:
    def test_torn_seal_is_evicted_not_raised(self, tmp_path):
        store = JobStore(tmp_path)
        record = make_record()
        store.save(record)
        path = store.checkpoints.path_for(f"{JOB_STAGE_PREFIX}{record.job_id}")
        path.write_text('{"torn": ')
        assert store.load(record.job_id) is None
        assert store.corrupt_evictions == 1
        assert not path.exists()

    def test_sealed_but_undecodable_payload_is_evicted(self, tmp_path):
        """A well-sealed checkpoint that is not a job record costs the
        job, not the server."""
        store = JobStore(tmp_path)
        record = make_record()
        store.save(record)
        # Overwrite with a *valid* checkpoint holding a non-record.
        store.checkpoints.save(
            f"{JOB_STAGE_PREFIX}{record.job_id}", {"not": "a job"}
        )
        assert store.load(record.job_id) is None
        assert store.corrupt_evictions == 1

    def test_load_all_skips_corrupt_and_keeps_the_rest(self, tmp_path):
        store = JobStore(tmp_path)
        good = make_record("b" * 16)
        bad = make_record("c" * 16)
        store.save(good)
        store.save(bad)
        store.checkpoints.path_for(
            f"{JOB_STAGE_PREFIX}{bad.job_id}"
        ).write_text("garbage")
        records = store.load_all()
        assert [r.job_id for r in records] == [good.job_id]
        assert store.corrupt_evictions == 1

    def test_load_all_ignores_foreign_stages(self, tmp_path):
        """Only ``job-`` stages are job records; chain checkpoints
        sharing the directory are left alone."""
        store = JobStore(tmp_path)
        record = make_record()
        store.save(record)
        CheckpointStore(tmp_path).save("chain-step-3", {"unrelated": True})
        assert [r.job_id for r in store.load_all()] == [record.job_id]

    def test_delete_is_idempotent(self, tmp_path):
        store = JobStore(tmp_path)
        record = make_record()
        store.save(record)
        store.delete(record.job_id)
        store.delete(record.job_id)
        assert store.load(record.job_id) is None
        assert store.corrupt_evictions == 0
