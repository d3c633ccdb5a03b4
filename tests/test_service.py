"""End-to-end tests of the HTTP service over a real socket.

Every test here talks to a genuine :class:`repro.service.ReproService`
bound to an ephemeral localhost port with plain ``urllib`` — no test
client shims — so the full stack is exercised: routing, JSON bodies,
the worker threads, the ambient budget/cache/tracer contexts, and the
sealed job store.  The four pillars:

* the full job lifecycle, submission through terminal document and the
  live JSON-lines event stream;
* concurrent *isomorphic* submissions dedup to one computation — the
  duplicate replays through the warm renaming-invariant cache (zero
  ``cache.miss``) and still gets its result in its own label
  coordinates;
* a budget-exceeded job surfaces as a typed ``BudgetExceeded`` inside
  a structured ``422`` body, not as a dead worker;
* killing the server and restarting over the same job directory
  re-serves a completed job's document byte-identically.
"""

import json
import socket
import urllib.error
import urllib.request

import pytest

from repro.service import ReproService, computation_key, parse_job_request

#: The quick-gate scenario — the cheapest registered chain.
SCENARIO = "maximal-matching2-selfreduce"

#: Maximal matching on 3-regular trees, in the inline text format.
MATCHING = "M U U\nO P P\n\nM O\nP O\nP P\nU O\nU P\n"

#: The same problem under a label bijection (M,U,O,P -> X,Y,Z,W):
#: isomorphic, so it must share MATCHING's computation key.
MATCHING_RENAMED = "X Y Y\nZ W W\n\nX Z\nW Z\nW W\nY Z\nY W\n"


def get(base, path):
    try:
        with urllib.request.urlopen(base + path, timeout=60) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def get_json(base, path):
    status, body = get(base, path)
    return status, json.loads(body)


def post_json(base, path, payload):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def raw_post_jobs(service, length, body):
    """POST ``body`` to /v1/jobs over a bare socket with the given
    Content-Length header, bypassing urllib's own encoding; returns
    (status, decoded JSON body)."""
    head = (
        f"POST /v1/jobs HTTP/1.1\r\nHost: localhost\r\n"
        f"Content-Length: {length}\r\n\r\n"
    )
    with socket.create_connection(
        ("127.0.0.1", service.port), timeout=10
    ) as connection:
        connection.sendall(head.encode("ascii") + body)
        response = b""
        while chunk := connection.recv(65536):
            response += chunk
    status_line, _, rest = response.partition(b"\r\n")
    return int(status_line.split()[1]), json.loads(rest.partition(b"\r\n\r\n")[2])


def finish(service, job_id):
    """Wait for a job and return its (status, document)."""
    assert service.orchestrator.wait(job_id, timeout=120), "job never finished"
    return get_json(service.url, f"/v1/jobs/{job_id}")


@pytest.fixture
def service(tmp_path):
    with ReproService(tmp_path / "jobs", port=0, workers=2) as running:
        yield running


class TestLifecycle:
    def test_healthz_and_scenarios(self, service):
        status, health = get_json(service.url, "/v1/healthz")
        assert status == 200
        assert health["ok"] is True
        assert set(health["jobs"]) == {"queued", "running", "done", "failed"}
        status, listing = get_json(service.url, "/v1/scenarios")
        assert status == 200
        names = [row["name"] for row in listing["scenarios"]]
        assert SCENARIO in names
        quick = [row for row in listing["scenarios"] if row["quick"]]
        assert [row["name"] for row in quick] == [SCENARIO]

    def test_scenario_job_full_lifecycle(self, service):
        status, accepted = post_json(
            service.url, "/v1/jobs", {"scenario": SCENARIO}
        )
        assert status == 202
        assert accepted["state"] == "queued"
        assert accepted["key"].startswith("self-reduce-")
        status, document = finish(service, accepted["job_id"])
        assert status == 200
        assert document["state"] == "done"
        assert document["deduped"] is False
        result = document["result"]
        assert result["ok"] is True
        assert result["steps"] == 2
        assert result["certified_rounds"] == 3
        assert len(result["problems"]) == result["steps"] + 1
        assert document["counters"]["service.jobs"] == 1

    def test_event_stream_ends_with_terminal_state(self, service):
        _, accepted = post_json(service.url, "/v1/jobs", {"scenario": SCENARIO})
        job_id = accepted["job_id"]
        status, body = get(service.url, f"/v1/jobs/{job_id}/events")
        assert status == 200
        events = [json.loads(line) for line in body.splitlines() if line]
        assert events[0] == {
            "type": "job.state", "job": job_id, "state": "running",
        }
        assert events[-1] == {
            "type": "job.state", "job": job_id, "state": "done",
        }
        # The stream carries the real trace: the service.job span closed.
        spans = [e for e in events if e.get("type") == "span"]
        assert any(e["name"] == "service.job" for e in spans)

    def test_inline_problem_job(self, service):
        _, accepted = post_json(
            service.url,
            "/v1/jobs",
            {"problem": MATCHING, "operator": "speedup", "steps": 1},
        )
        status, document = finish(service, accepted["job_id"])
        assert status == 200
        assert document["state"] == "done"
        assert document["result"]["steps"] == 1
        # The rendered iterates are in the submission's own labels.
        assert document["result"]["problems"][0]["alphabet"] == [
            "M", "O", "P", "U",
        ]


class TestErrorPaths:
    def test_unknown_job_is_404(self, service):
        status, body = get_json(service.url, "/v1/jobs/absent")
        assert (status, body["type"]) == (404, "NotFound")

    def test_unknown_route_is_404(self, service):
        status, _ = get_json(service.url, "/v1/nope")
        assert status == 404

    def test_malformed_json_is_400(self, service):
        request = urllib.request.Request(
            service.url + "/v1/jobs", data=b"{not json"
        )
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request, timeout=60)
        assert caught.value.code == 400
        assert json.loads(caught.value.read())["type"] == "InvalidJobRequest"

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_bad_content_length_is_400(self, service, length):
        """A Content-Length that is not a byte count gets a structured
        400 (not a dropped connection, not a handler blocked on the
        body), and the server keeps serving."""
        status, body = raw_post_jobs(service, length, b"")
        assert status == 400
        assert body["type"] == "InvalidJobRequest"
        assert "Content-Length" in body["message"]
        status, _ = get_json(service.url, "/v1/healthz")
        assert status == 200

    @pytest.mark.parametrize(
        "body",
        [
            b'{"scenario": "maximal-matching2-selfreduce",'
            b' "budget": {"max_alphabet": Infinity}}',
            b'{"scenario": "s", "steps": ' + b"1" * 5000 + b"}",
        ],
        ids=["infinite-budget", "oversized-int"],
    )
    def test_unrepresentable_number_is_400(self, service, body):
        """A number the request cannot hold (an infinite budget, or an
        integer literal past the interpreter's digit limit) gets a
        structured 400, and the server keeps serving."""
        status, document = raw_post_jobs(service, len(body), body)
        assert status == 400
        assert document["type"] == "InvalidJobRequest"
        status, _ = get_json(service.url, "/v1/healthz")
        assert status == 200

    def test_unknown_scenario_is_400(self, service):
        status, body = post_json(
            service.url, "/v1/jobs", {"scenario": "no-such"}
        )
        assert (status, body["type"]) == (400, "InvalidScenario")

    def test_malformed_inline_problem_is_400(self, service):
        status, body = post_json(
            service.url,
            "/v1/jobs",
            {"problem": "", "operator": "speedup", "steps": 1},
        )
        assert status == 400
        assert body["type"] in ("InvalidJobRequest", "InvalidProblem")

    def test_budget_exceeded_is_structured_422(self, service):
        """A tripped budget is a typed API outcome, not a crash."""
        _, accepted = post_json(
            service.url,
            "/v1/jobs",
            {
                "problem": MATCHING,
                "operator": "speedup",
                "steps": 3,
                "budget": {"max_configurations": 1},
            },
        )
        status, document = finish(service, accepted["job_id"])
        assert status == 422
        assert document["state"] == "failed"
        assert document["result"] is None
        assert document["error"]["type"] == "BudgetExceeded"
        assert "configuration budget" in document["error"]["message"]
        assert document["counters"]["service.errors"] == 1


class TestWorkers:
    def test_workers_is_kept_on_the_wire_but_changes_nothing(self, service):
        """``workers`` still parses and persists, so old job directories
        restart byte-identically, but every job runs the one serial
        engine: the result equals the same job's without it."""
        inline = {
            "problem": MATCHING,
            "operator": "speedup",
            "steps": 1,
            "engine": "kernel",
        }
        _, accepted = post_json(
            service.url, "/v1/jobs", {**inline, "workers": 10**6}
        )
        status, document = finish(service, accepted["job_id"])
        assert (status, document["state"]) == (200, "done")
        assert document["request"]["workers"] == 10**6
        _, plain_accepted = post_json(service.url, "/v1/jobs", inline)
        status, plain = finish(service, plain_accepted["job_id"])
        assert (status, plain["state"]) == (200, "done")
        assert "workers" not in plain["request"]
        assert document["result"] == plain["result"]


class TestDedup:
    def test_isomorphic_requests_share_a_computation_key(self):
        plain = parse_job_request(
            {"problem": MATCHING, "operator": "speedup", "steps": 2}
        )
        renamed = parse_job_request(
            {"problem": MATCHING_RENAMED, "operator": "speedup", "steps": 2}
        )
        assert computation_key(plain) == computation_key(renamed)

    def test_concurrent_isomorphic_submissions_compute_once(self, service):
        """Two isomorphic jobs racing on two workers: exactly one chain
        computation, counter-asserted; the duplicate replays through the
        warm cache and gets its result in its own coordinates."""
        _, first = post_json(
            service.url,
            "/v1/jobs",
            {"problem": MATCHING, "operator": "speedup", "steps": 2},
        )
        _, second = post_json(
            service.url,
            "/v1/jobs",
            {"problem": MATCHING_RENAMED, "operator": "speedup", "steps": 2},
        )
        assert first["key"] == second["key"]
        _, doc_a = finish(service, first["job_id"])
        _, doc_b = finish(service, second["job_id"])
        assert doc_a["state"] == doc_b["state"] == "done"

        flags = sorted((doc_a["deduped"], doc_b["deduped"]))
        assert flags == [False, True], "exactly one job must be the primary"
        primary, replay = (
            (doc_a, doc_b) if doc_b["deduped"] else (doc_b, doc_a)
        )
        assert replay["deduped_from"] == primary["job_id"]

        # One underlying computation: the primary took every cache miss,
        # the replay had none (pure warm-cache hits) and counted the dedup.
        assert primary["counters"]["cache.miss"] > 0
        assert replay["counters"].get("cache.miss", 0) == 0
        assert replay["counters"]["cache.hit"] > 0
        assert replay["counters"]["service.dedup"] == 1
        assert "service.dedup" not in primary["counters"]

        # Same chain shape, each in its submission's own coordinates.
        for field in ("steps", "certified_rounds", "alphabet_sizes"):
            assert primary["result"][field] == replay["result"][field]
        assert primary["result"]["problems"][0]["alphabet"] != (
            replay["result"]["problems"][0]["alphabet"]
        )

    def test_duplicate_scenario_submission_is_deduped(self, service):
        _, first = post_json(service.url, "/v1/jobs", {"scenario": SCENARIO})
        _, doc_a = finish(service, first["job_id"])
        _, second = post_json(service.url, "/v1/jobs", {"scenario": SCENARIO})
        _, doc_b = finish(service, second["job_id"])
        assert doc_b["deduped"] is True
        assert doc_b["deduped_from"] == first["job_id"]
        assert doc_b["result"] == doc_a["result"]
        assert doc_b["counters"].get("cache.miss", 0) == 0


class TestRestart:
    def test_completed_job_reserved_byte_identically(self, tmp_path):
        """Kill the server, restart over the same directory, and the
        job document comes back byte-for-byte."""
        directory = tmp_path / "jobs"
        with ReproService(directory, port=0, workers=1) as service:
            _, accepted = post_json(
                service.url, "/v1/jobs", {"scenario": SCENARIO}
            )
            job_id = accepted["job_id"]
            assert service.orchestrator.wait(job_id, timeout=120)
            _, before = get(service.url, f"/v1/jobs/{job_id}")
        with ReproService(directory, port=0, workers=1) as service:
            _, after = get(service.url, f"/v1/jobs/{job_id}")
            assert after == before
            # A finished job needs no recovery re-run.
            assert service.orchestrator.resumed_jobs == 0

    def test_restart_resumes_queued_jobs(self, tmp_path):
        """A job persisted as queued (server killed before a worker ran
        it) is re-queued, run, and counted by the next server."""
        directory = tmp_path / "jobs"
        # workers=1 and a first job that holds the only worker briefly:
        # submit two, stop the server mid-flight, then restart.
        with ReproService(directory, port=0, workers=1) as service:
            _, first = post_json(
                service.url, "/v1/jobs", {"scenario": SCENARIO}
            )
            assert service.orchestrator.wait(first["job_id"], timeout=120)
            # Persist a fresh queued record the workers never see by
            # writing through the store (the orchestrator is live, so
            # simply not waiting would be racy).
            record = service.orchestrator.get(first["job_id"])
            from repro.service.jobs import JobRecord, new_job_id

            queued = JobRecord(
                job_id=new_job_id(), request=record.request, key=record.key
            )
            service.orchestrator.store.save(queued)
        with ReproService(directory, port=0, workers=1) as service:
            assert service.orchestrator.resumed_jobs == 1
            assert service.orchestrator.wait(queued.job_id, timeout=120)
            _, document = get_json(service.url, f"/v1/jobs/{queued.job_id}")
            assert document["state"] == "done"
            assert document["counters"]["service.resumed"] == 1
            # Recovery also repopulated the completed-key table, so the
            # resumed run dedups against the pre-restart primary and
            # replays its cached operators.
            assert document["deduped"] is True
            assert document["deduped_from"] == first["job_id"]
            assert document["counters"].get("cache.miss", 0) == 0
