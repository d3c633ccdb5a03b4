"""The benchmark's three seeded workloads.

Every workload turns ``--seed`` into its inputs before anything is
timed, runs a closed loop of ops over the measured window, and checks
every output afterwards, outside the timed phase.  One op is one unit
of user work:

* ``mis-chain-cold``: one in-process caller.  An op clears the kernel's
  transport registry and runs a two-step kernel ``speedup`` chain on
  MIS under a fresh seeded relabeling: Delta=6 mostly, Delta=5 for a
  minority, so the median stays inside one population.  Checked: the
  fingerprint of the last problem equals the reference engine's,
  pinned in ``pins.json``.
* ``certificate-sweep``: one in-process caller.  An op runs
  ``build_certificate(delta, 0)`` and ``run_chain(delta,
  verify_steps=True)`` for every delta of the sweep, in a seeded order.
  Checked: every certificate check holds, and the chain length, the
  skipped list and the chain steps equal the pinned ones.
* ``service-mix``: ``ReproService`` in its own process (``server.py``),
  driven over a real socket by two client threads.  An op POSTs a job,
  follows its ``/events`` stream to the terminal state, then GETs it.
  Checked: every GET result equals the in-process ``run_problem_chain``
  / ``run_scenario`` rendering of the same request.

In-process workloads warm up on one input of every class they draw
from, so each measured op repeats an earlier input up to isomorphism;
with no dedup in-process, a repeat costs a full op.

Every op carries the host speed factor of ``hostspeed.py``, from probes
taken around it (in-process: around each op; service-mix: around each
one-second segment of load, with the server idle), so op times can be
reported in host-adjusted seconds.
"""

from __future__ import annotations

import http.client
import json
import random
import resource
import signal
import string
import subprocess
import sys
import threading
import time
from collections import deque
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import layers  # noqa: E402
from repro.core import cache as _cache  # noqa: E402
from repro.core import round_elimination as _round_elimination  # noqa: E402
from repro.core.io import canonical_json, problem_to_text  # noqa: E402
from repro.core.kernel import interning as _interning  # noqa: E402
from repro.core.problem import Problem  # noqa: E402
from repro.lowerbound import certificate as _certificate  # noqa: E402
from repro.lowerbound import sequence as _sequence  # noqa: E402
from repro.observability.trace import Tracer, tracing  # noqa: E402
from repro.problems import (  # noqa: E402
    family_problem,
    maximal_matching_problem,
    mis_problem,
    ruling_set_problem,
    sinkless_orientation_problem,
)
from repro.scenarios import (  # noqa: E402
    describe_registry,
    find_scenario,
    run_problem_chain,
    run_scenario,
)
from repro.service import wire  # noqa: E402
from repro.service.orchestrator import resolve_request  # noqa: E402

#: Reference-engine digests and certificate expectations (``pin.py``).
PINS = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))


@dataclass
class Op:
    """One op of the measured loop."""

    start: float
    end: float
    #: The input repeats an earlier one up to isomorphism (service-mix:
    #: the server answered ``deduped: true``).
    repeat: bool = True
    error: str | None = None
    #: Wall to host-adjusted seconds (see ``hostspeed.scale``).
    scale: float = 1.0
    #: Ops run between the same two host speed probes share a segment.
    segment: int = 0
    #: What :meth:`verify` checks; dropped once checked.
    output: object = None
    detail: dict = field(default_factory=dict)

    @property
    def latency(self) -> float:
        return self.end - self.start

    @property
    def cost(self) -> float:
        """The latency in host-adjusted seconds."""
        return self.latency * self.scale


def relabeled(problem: Problem, rng: random.Random) -> Problem:
    """``problem`` with its labels renamed to distinct random letters
    that sort in the same order as the old labels.

    How the names sort moves the kernel's cost by ~15%, so keeping the
    order keeps each input's cost the same for every seed: seeds differ
    in the letters, not in the work.
    """
    names = sorted(rng.sample(string.ascii_uppercase, len(problem.alphabet)))
    return problem.rename(dict(zip(problem.alphabet, names)))


def kernel_counters(records: list[dict]) -> dict[str, int]:
    """Counter totals of a finished trace; ``node.configs.out`` only
    from kernel-engine spans."""
    totals: dict[str, int] = {}
    for record in records:
        if record.get("type") != "span":
            continue
        kernel = record["attrs"].get("engine") == "kernel"
        for counter, value in record["counters"].items():
            if counter == "node.configs.out" and not kernel:
                continue
            totals[counter] = totals.get(counter, 0) + value
    return totals


class InProcessWorkload:
    """One in-process caller running ops back to back."""

    name = ""
    #: Inputs generated per measured second: above the op rate, so the
    #: loop ends on time rather than on running out of inputs.
    items_per_second = 1

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.items: list = []
        self.log: layers.SpanLog | None = None

    # -- per-workload parts ----------------------------------------------

    def generate(self, rng: random.Random, count: int) -> list:
        raise NotImplementedError

    def warm_up_items(self) -> list:
        raise NotImplementedError

    def call(self, item: object) -> object:
        raise NotImplementedError

    def check(self, item: object, output: object) -> bool:
        raise NotImplementedError

    # -- shared driver -----------------------------------------------------

    def setup(self, seconds: float) -> None:
        """Generate the inputs, then run one op of every input class."""
        count = int(seconds * self.items_per_second) + 8
        self.items = self.generate(random.Random(self.seed), count)
        for item in self.warm_up_items():
            self.call(item)

    def setup_samples(self, seconds: float, reps: int, probe: list[str]) -> list[float]:
        """Host-adjusted seconds of ``reps`` cold set-ups, each a fresh
        process (``probe`` is its command line), then set up in this
        process."""
        samples = []
        before = hostspeed.probe()
        for _ in range(reps):
            started = time.monotonic()
            subprocess.run(probe, check=True, stdout=subprocess.DEVNULL, timeout=170)
            elapsed = time.monotonic() - started
            after = hostspeed.probe()
            samples.append(elapsed * hostspeed.scale(before, after))
            before = after
        self.setup(seconds)
        return samples

    def start_tracing(self) -> None:
        """Fresh copies of the inputs (nothing memoized), then the
        layer wrappers."""
        self.items = self.generate(random.Random(self.seed), len(self.items))
        self.log = layers.install()

    def stop_tracing(self) -> list[dict]:
        """Remove the wrappers; the spans they recorded."""
        self.log.uninstall()
        return self.log.spans

    def measure(self, seconds: float, count: int | None = None,
                counters: bool = False) -> list[Op]:
        """Ops until ``seconds`` pass (or exactly ``count`` ops), each
        between two host speed probes."""
        ops = []
        deadline = time.monotonic() + seconds
        items = self.items if count is None else self.items[:count]
        before = hostspeed.probe()
        for item in items:
            if count is None and time.monotonic() >= deadline:
                break
            tracer = Tracer() if counters else None
            output = error = None
            start = time.monotonic()
            try:
                with tracing(tracer):
                    output = self.call(item)
            except Exception as failure:  # a failed op is counted, not fatal
                error = repr(failure)
            end = time.monotonic()
            after = hostspeed.probe()
            op = Op(start, end, error=error, output=(item, output),
                    scale=hostspeed.scale(before, after), segment=len(ops))
            before = after
            if tracer is not None:
                op.detail["counters"] = kernel_counters(tracer.finish())
            ops.append(op)
        return ops

    def verify(self, ops: list[Op]) -> None:
        """Mark every op whose output is wrong as failed."""
        for op in ops:
            item, output = op.output
            if op.error is None and not self.check(item, output):
                op.error = "wrong output"
            op.output = None

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def close(self) -> None:
        pass


class MisChainCold(InProcessWorkload):
    """Cold two-step kernel speedup chains on relabeled MIS."""

    name = "mis-chain-cold"
    items_per_second = 4
    steps = 2
    #: One op in every block of this many uses the minority Delta.
    block = 5

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        self.minority, self.majority = (3, 4) if tiny else (5, 6)

    def generate(self, rng: random.Random, count: int) -> list:
        # The minority Delta comes exactly once per block, so seeds
        # differ in the sequence, not in the mix.
        items = []
        for position in range(count):
            if position % self.block == 0:
                minority_at = position + rng.randrange(self.block)
            delta = self.minority if position == minority_at else self.majority
            items.append((delta, relabeled(mis_problem(delta), rng)))
        return items

    def warm_up_items(self) -> list:
        return [(delta, mis_problem(delta)) for delta in (self.minority, self.majority)]

    def call(self, item: tuple) -> Problem:
        problem = item[1]
        _interning.transport_registry().clear()
        for _ in range(self.steps):
            problem = _round_elimination.speedup(problem, use_kernel=True).problem
        return problem

    def check(self, item: tuple, output: Problem) -> bool:
        return _cache.fingerprint(output) == PINS["mis_chain"][str(item[0])]


class CertificateSweep(InProcessWorkload):
    """Lower-bound certificates plus verified Lemma 13 chains."""

    name = "certificate-sweep"
    items_per_second = 8

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        self.deltas = (3, 4) if tiny else (3, 4, 5, 8)

    def generate(self, rng: random.Random, count: int) -> list:
        return [tuple(rng.sample(self.deltas, len(self.deltas))) for _ in range(count)]

    def warm_up_items(self) -> list:
        return [self.deltas]

    def call(self, order: tuple) -> list:
        return [
            (
                delta,
                _certificate.build_certificate(delta, 0),
                _sequence.run_chain(delta, verify_steps=True),
            )
            for delta in order
        ]

    def check(self, order: tuple, output: list) -> bool:
        for delta, certificate, chain in output:
            pin = PINS["certificate"][str(delta)]
            if not (
                certificate.ok
                and sorted(certificate.checks) == pin["checks"]
                and certificate.chain_length == pin["chain_length"]
                and certificate.skipped == pin["skipped"]
                and chain.complete
                and [step.to_dict() for step in chain.chain] == pin["chain"]
            ):
                return False
        return True


# ---------------------------------------------------------------------------
# service-mix
# ---------------------------------------------------------------------------

BUILDERS: dict[str, Callable[..., Problem]] = {
    "mis": mis_problem,
    "ruling": ruling_set_problem,
    "matching": maximal_matching_problem,
    "sinkless": sinkless_orientation_problem,
    "family": family_problem,
}

#: Inline kernel-engine jobs: ``(builder, args, operator, steps)``,
#: pairwise distinct computation keys, cheapest cold cost first; each
#: runs under both zero-round policies, which doubles the keys.  Every
#: entry computes cold under the operator cache in at most 0.1 s on a
#: 2-core x86 VM; costlier ones (up to Pi_8(6, 1) at 2.1 s for one
#: step) are left out, so that the slowest percentile is made of many
#: similar jobs rather than of whichever few heavy keys a seed draws.
POOL: tuple[tuple[str, tuple, str, int], ...] = (
    ("sinkless", (4,), "speedup", 1), ("matching", (2,), "self-reduce", 1),
    ("matching", (2,), "speedup", 1), ("matching", (5,), "speedup", 1),
    ("sinkless", (2,), "speedup", 1), ("sinkless", (3,), "speedup", 1),
    ("sinkless", (5,), "speedup", 1), ("matching", (3,), "self-reduce", 1),
    ("matching", (3,), "speedup", 1), ("matching", (4,), "self-reduce", 1),
    ("matching", (4,), "speedup", 1), ("matching", (5,), "self-reduce", 1),
    ("mis", (2,), "speedup", 1), ("mis", (4,), "self-reduce", 1),
    ("ruling", (2, 2), "speedup", 1), ("sinkless", (2,), "self-reduce", 1),
    ("sinkless", (2,), "self-reduce", 2), ("sinkless", (4,), "self-reduce", 1),
    ("sinkless", (5,), "self-reduce", 1), ("ruling", (2, 2), "self-reduce", 1),
    ("sinkless", (3,), "self-reduce", 1), ("mis", (3,), "speedup", 1),
    ("ruling", (2, 3), "speedup", 1), ("sinkless", (5,), "self-reduce", 2),
    ("mis", (2,), "self-reduce", 1), ("ruling", (3, 2), "self-reduce", 1),
    ("ruling", (4, 2), "self-reduce", 1), ("sinkless", (3,), "self-reduce", 2),
    ("sinkless", (4,), "self-reduce", 2), ("mis", (4,), "speedup", 1),
    ("mis", (5,), "speedup", 1), ("ruling", (4, 2), "speedup", 1),
    ("mis", (3,), "self-reduce", 1), ("ruling", (3, 2), "speedup", 1),
    ("ruling", (2, 3), "self-reduce", 1), ("matching", (2,), "self-reduce", 2),
    ("matching", (2,), "speedup", 2), ("mis", (5,), "self-reduce", 1),
    ("matching", (3,), "self-reduce", 2), ("matching", (4,), "speedup", 2),
    ("matching", (3,), "speedup", 2), ("matching", (4,), "self-reduce", 2),
    ("matching", (5,), "speedup", 2), ("ruling", (3, 3), "speedup", 1),
    ("mis", (2,), "speedup", 2), ("ruling", (3, 3), "self-reduce", 1),
    ("family", (3, 3, 0), "speedup", 1), ("matching", (5,), "self-reduce", 2),
    ("ruling", (4, 3), "speedup", 1), ("family", (3, 1, 0), "speedup", 1),
    ("mis", (2,), "self-reduce", 2), ("family", (3, 1, 1), "speedup", 1),
    ("family", (3, 2, 0), "speedup", 1), ("mis", (3,), "speedup", 2),
    ("family", (3, 2, 1), "speedup", 1), ("ruling", (4, 3), "self-reduce", 1),
    ("ruling", (2, 2), "self-reduce", 2), ("ruling", (2, 3), "self-reduce", 2),
    ("family", (3, 2, 2), "speedup", 1), ("family", (3, 3, 2), "speedup", 1),
    ("family", (4, 4, 0), "speedup", 1), ("mis", (3,), "self-reduce", 2),
    ("family", (4, 3, 0), "speedup", 1), ("family", (3, 3, 1), "speedup", 1),
    ("family", (4, 4, 1), "speedup", 1), ("ruling", (3, 2), "self-reduce", 2),
    ("family", (4, 3, 1), "speedup", 1), ("family", (4, 2, 0), "speedup", 1),
    ("family", (5, 5, 0), "speedup", 1), ("family", (4, 4, 2), "speedup", 1),
    ("mis", (4,), "speedup", 2), ("family", (4, 2, 1), "speedup", 1),
    ("family", (4, 3, 2), "speedup", 1), ("mis", (4,), "self-reduce", 2),
    ("family", (5, 4, 0), "speedup", 1), ("family", (5, 4, 1), "speedup", 1),
    ("family", (4, 2, 2), "speedup", 1), ("family", (5, 5, 1), "speedup", 1),
    ("family", (5, 4, 2), "speedup", 1), ("family", (5, 5, 2), "speedup", 1),
    ("family", (4, 3, 3), "speedup", 1), ("family", (4, 2, 3), "speedup", 1),
    ("family", (4, 1, 2), "speedup", 1), ("ruling", (4, 2), "self-reduce", 2),
    ("family", (5, 3, 0), "speedup", 1), ("mis", (5,), "self-reduce", 2),
    ("family", (4, 4, 3), "speedup", 1),
)

#: A problem in no pool entry's class, for the server's warm-up job.
WARM_UP_JOB = {
    "problem": problem_to_text(maximal_matching_problem(6)),
    "operator": "speedup",
    "steps": 1,
    "engine": "kernel",
}


def _fresh_order(pool_size: int, rng: random.Random) -> Iterator[int]:
    """Pool indices in a seeded order that keeps every prefix's cost mix
    steady: the cost-sorted pool is cut into four strata, each is
    shuffled, and the order deals one from each in turn."""
    cuts = [pool_size * part // 4 for part in range(5)]
    strata = [list(range(cuts[part], cuts[part + 1])) for part in range(4)]
    for stratum in strata:
        rng.shuffle(stratum)
    for round_ in zip(*strata):
        yield from round_
    for stratum in strata:
        yield from stratum[min(map(len, strata)):]


class ServiceMix:
    """HTTP jobs against a server process, from two client threads."""

    name = "service-mix"
    clients = 2
    #: Seconds of load between two host speed probes.
    segment_seconds = 1.0
    #: One job in every block of this many computes fresh, so the pool's
    #: 174 keys last the whole measured window (up to ~1400 jobs) and
    #: the mix stays the same.
    block = 8
    #: The others repeat a key first submitted at least this many jobs
    #: earlier, so a repeat usually replays a finished job rather than
    #: waiting on one.
    repeat_gap = 6
    #: Jobs generated per measured second (above the reachable rate).
    items_per_second = 80
    #: Registered scenarios go somewhere in the first this many jobs.
    scenario_window = 24

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.pool = POOL[::8] if tiny else POOL
        self.jobs: list[str] = []
        self.server: subprocess.Popen | None = None
        self.server_dir: Path | None = None
        self.port = 0
        self.boots = 0
        self.report: dict = {}
        self.spans_path: Path | None = None

    # -- inputs --------------------------------------------------------------

    def generate(self, count: int) -> list[str]:
        """The seeded job sequence, as request bodies."""
        rng = random.Random(self.seed)
        fresh = _fresh_order(len(self.pool) * len(wire.POLICIES), rng)
        scenarios = [row["name"] for row in describe_registry()]
        slots = rng.sample(range(min(count, self.scenario_window)), len(scenarios))
        scenario_at = dict(zip(slots, scenarios))
        pending: deque[tuple[int, int]] = deque()
        eligible: list[int] = []
        jobs = []
        for position in range(count):
            while pending and pending[0][0] <= position - self.repeat_gap:
                eligible.append(pending.popleft()[1])
            if position % self.block == 0:
                fresh_at = position + rng.randrange(self.block)
            if position in scenario_at:
                jobs.append(json.dumps({"scenario": scenario_at[position], "engine": "kernel"}))
                continue
            key = None
            if position == fresh_at or not eligible:
                key = next(fresh, None)
                if key is not None:
                    pending.append((position, key))
            if key is None:
                key = rng.choice(eligible or [index for _, index in pending])
            entry, policy = divmod(key, len(wire.POLICIES))
            builder, args, operator, steps = self.pool[entry]
            problem = relabeled(BUILDERS[builder](*args), rng)
            jobs.append(json.dumps({
                "problem": problem_to_text(problem),
                "operator": operator,
                "steps": steps,
                "policy": wire.POLICIES[policy],
                "engine": "kernel",
            }))
        return jobs

    # -- the server process ------------------------------------------------

    def boot(self, traced: bool = False) -> None:
        """Start a server on a fresh job directory; return once it has
        answered ``/v1/healthz`` and finished one warm-up job."""
        self.boots += 1
        self.server_dir = self.workdir / f"server-{self.boots}"
        self.server_dir.mkdir(parents=True)
        port_file = self.server_dir / "port"
        command = [
            sys.executable, str(HERE / "server.py"),
            "--job-dir", str(self.server_dir / "jobs"),
            "--port-file", str(port_file),
            "--report", str(self.server_dir / "report.json"),
        ]
        self.spans_path = self.server_dir / "spans.jsonl" if traced else None
        if traced:
            command += ["--spans", str(self.spans_path)]
        with open(self.server_dir / "server.log", "w", encoding="utf-8") as log:
            self.server = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT
            )
        deadline = time.monotonic() + 60
        while not port_file.exists():
            if self.server.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"server did not start; see {self.server_dir}")
            time.sleep(0.005)
        self.port = int(port_file.read_text(encoding="utf-8"))
        status, body = self._request("GET", "/v1/healthz")
        if status != 200 or not json.loads(body)["ok"]:
            raise RuntimeError(f"server unhealthy: {status} {body[:200]!r}")
        self._request("GET", "/v1/scenarios")
        warm = self._run_op(json.dumps(WARM_UP_JOB))
        if warm.error is not None:
            raise RuntimeError(f"warm-up job failed: {warm.error}")

    def stop(self) -> None:
        """Stop the server, wait for it, and read its exit report."""
        if self.server is None:
            return
        self.server.send_signal(signal.SIGTERM)
        try:
            self.server.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server = None
        report = self.server_dir / "report.json"
        self.report = json.loads(report.read_text(encoding="utf-8")) if report.exists() else {}

    def setup(self, seconds: float, traced: bool = False) -> None:
        self.jobs = self.generate(int(seconds * self.items_per_second) + 8)
        self.boot(traced)

    def setup_samples(self, seconds: float, reps: int, probe: list[str]) -> list[float]:
        """Host-adjusted seconds of ``reps`` set-ups (inputs, boot,
        health, warm-up); the last server stays up for the measurement."""
        samples = []
        before = hostspeed.probe()
        for rep in range(reps):
            started = time.monotonic()
            self.setup(seconds)
            elapsed = time.monotonic() - started
            after = hostspeed.probe()
            samples.append(elapsed * hostspeed.scale(before, after))
            before = after
            if rep < reps - 1:
                self.stop()
        return samples

    def start_tracing(self) -> None:
        """A fresh traced server (empty job directory and cache)."""
        self.stop()
        self.boot(traced=True)

    def stop_tracing(self) -> list[dict]:
        """Stop the traced server; the spans it wrote at exit."""
        self.stop()
        return layers.read_spans(str(self.spans_path))

    def peak_rss_kb(self) -> int:
        return int(self.report.get("peak_rss_kb", 0))

    def close(self) -> None:
        self.stop()

    # -- the load ------------------------------------------------------------

    def _request(self, method: str, path: str, body: str | None = None) -> tuple[int, bytes]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def _follow(self, job_id: str) -> tuple[float | None, float | None]:
        """Read ``/events`` to its end; when ``running`` and the terminal
        state arrived."""
        running = terminal = None
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            connection.request("GET", f"/v1/jobs/{job_id}/events")
            response = connection.getresponse()
            if response.status != 200:
                raise RuntimeError(f"events answered {response.status}")
            for line in response:
                event = json.loads(line)
                if event.get("type") != "job.state":
                    continue
                if event["state"] == "running" and running is None:
                    running = time.monotonic()
                elif event["state"] in ("done", "failed"):
                    terminal = time.monotonic()
        finally:
            connection.close()
        return running, terminal

    def _run_op(self, job: str) -> Op:
        """POST the job body, follow its event stream, GET it."""
        start = time.monotonic()
        try:
            status, body = self._request("POST", "/v1/jobs", job)
            posted = time.monotonic()
            if status != 202:
                raise RuntimeError(f"POST answered {status}")
            job_id = json.loads(body)["job_id"]
            running, terminal = self._follow(job_id)
            streamed = time.monotonic()
            status, body = self._request("GET", f"/v1/jobs/{job_id}")
            end = time.monotonic()
            document = json.loads(body)
        except (OSError, http.client.HTTPException, ValueError, KeyError,
                RuntimeError) as failure:
            return Op(start, time.monotonic(), error=repr(failure))
        error = None
        if status != 200 or document.get("state") != "done":
            error = f"GET answered {status} in state {document.get('state')}"
        return Op(
            start, end,
            repeat=bool(document.get("deduped")),
            error=error,
            output=(job, document.get("result")),
            detail={
                "job": job_id,
                "submit": (start, posted),
                "fetch": (streamed, end),
                "queue_wait": (running or streamed) - posted,
                "run": (terminal or streamed) - (running or streamed),
                "counters": document.get("counters", {}),
            },
        )

    def measure(self, seconds: float, count: int | None = None,
                counters: bool = False) -> list[Op]:
        """Closed loop: each client takes the next job once its last one
        is done, until ``seconds`` pass (or exactly ``count`` jobs).

        The load runs in segments of ``segment_seconds``: at the end of
        one, the clients finish their jobs and the host speed is probed
        with the server idle.
        """
        limit = len(self.jobs) if count is None else min(count, len(self.jobs))
        ops: list[Op | None] = [None] * limit
        taken = iter(range(limit))
        lock = threading.Lock()
        deadline = time.monotonic() + seconds
        drained = threading.Event()

        def client(stop_at: float, ran: list[int]) -> None:
            while time.monotonic() < stop_at:
                with lock:
                    index = next(taken, None)
                if index is None:
                    drained.set()
                    return
                ops[index] = self._run_op(self.jobs[index])
                ran.append(index)

        before = hostspeed.probe()
        segment = 0
        while not drained.is_set() and (count is not None or time.monotonic() < deadline):
            stop_at = time.monotonic() + self.segment_seconds
            if count is None:
                stop_at = min(stop_at, deadline)
            ran: list[int] = []
            threads = [
                threading.Thread(target=client, args=(stop_at, ran))
                for _ in range(self.clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            after = hostspeed.probe()
            for index in ran:
                ops[index].scale = hostspeed.scale(before, after)
                ops[index].segment = segment
            before = after
            segment += 1
        return [op for op in ops if op is not None]

    def verify(self, ops: list[Op]) -> None:
        """Compare every result with the in-process rendering.

        The in-process runs share one private operator cache, so each
        computation is done once; isomorphic repeats are transported.
        """
        expected: dict[str, str] = {}
        with _cache.caching(_cache.OperatorCache()):
            for op in ops:
                if op.error is None:
                    body, result = op.output
                    if body not in expected:
                        expected[body] = canonical_json(in_process_result(body))
                    if canonical_json(result) != expected[body]:
                        op.error = "wrong output"
                op.output = None


def in_process_result(body: str) -> dict:
    """The result document an in-process run renders for a job body."""
    request = wire.parse_job_request(json.loads(body))
    use_kernel = request.engine == "kernel"
    if request.scenario is not None:
        _, spec = find_scenario(request.scenario)
        run = run_scenario(spec, use_kernel=use_kernel)
        return wire.render_result(
            run.problems, run.reached_fixed_point, run.certified_rounds, run.failures
        )
    problem, operator, steps, policy = resolve_request(request)
    outcome = run_problem_chain(
        problem, operator=operator, steps=steps, policy=policy, use_kernel=use_kernel
    )
    return wire.render_result(
        outcome.problems, outcome.reached_fixed_point, outcome.certified_rounds, []
    )


WORKLOADS = {
    MisChainCold.name: MisChainCold,
    CertificateSweep.name: CertificateSweep,
    ServiceMix.name: ServiceMix,
}
