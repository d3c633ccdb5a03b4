"""The Section 2.4 roadmap as one machine-checked certificate.

:func:`build_certificate` executes, for concrete (Delta, k), every
step the paper chains together:

1. Lemma 5   — k-ODS solves Pi_Delta(Delta, k) in one round (witnessed
               on an actual instance).
2. Lemma 6   — the engine's R(Pi) equals the claimed normal form
               (verified directly for small Delta).
3. Lemma 8   — the paper's case analysis holds (all Delta), plus the
               direct Rbar computation when feasible.
4. Lemma 9   — the edge-coloring conversion succeeds on a concrete
               Pi+ solution.
5. Lemma 13  — the chain exists, its arithmetic audits, and the final
               problem fails the Lemma 12 test.
6. Theorem 14/1 — the premises hold and the lifted bounds are emitted.

The result is a :class:`LowerBoundCertificate` whose ``ok`` property
states that every executed check passed — the closest a program can
come to "running" the paper's proof for one parameter point.

The engine computations (the Lemma 12 tests, R for Lemma 6, the
right-closedness facts of Lemma 8's case analysis, and the node
maximization and existential step of Lemma 8's direct check) run on
the kernel engine by default.  The reference engine stays the oracle:
``use_kernel=False`` builds the same certificate on it, and the two
are pinned byte-identical — render, ``to_dict``, semantic counters and
checkpoint files — by ``tests/test_certificate_engines.py``.

The Lemma 6 and both Lemma 8 checks run at one representative point
and read the same inputs: R(Pi_Delta(a, x)) (Lemma 6 and the direct
check), the Lemma 6 normal form and its parsed lines (Lemma 6 and the
case analysis) and Pi_rel (both Lemma 8 checks).  One
:class:`~repro.lowerbound.lemma6.SharedPoint` per call builds each of
them at most once and hands it to all three checks.  Sharing is per
call only: the next call, even for the same Delta, builds them again,
and a run resumed after the ``lemma6-8`` stage rebuilds R on first use
in ``lemma8-direct``.

The builder is *resource-governed*: pass a
:class:`~repro.robustness.budget.Budget` to bound it and a
:class:`~repro.robustness.checkpointing.CheckpointStore` to make it
restartable.  Each named stage is checkpointed as it completes, so a
run killed mid-certificate resumes from the last completed stage and
renders a certificate byte-identical to an uninterrupted run.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.algorithms.greedy import greedy_mis
from repro.core import cache as _cache
from repro.lowerbound.lemma5 import verify_lemma5
from repro.lowerbound.lemma6 import SharedPoint, verify_lemma6
from repro.lowerbound.lemma8 import verify_lemma8_argument, verify_lemma8_direct
from repro.lowerbound.lemma9 import verify_lemma9
from repro.lowerbound.lift import (
    theorem1_deterministic_bound,
    theorem1_randomized_bound,
    verify_theorem14_premises,
)
from repro.lowerbound.sequence import (
    _append_cache_summary,
    _append_trace_summary,
    lemma13_chain,
    verify_chain_arithmetic,
)
from repro.observability import trace as _trace
from repro.robustness.budget import Budget
from repro.robustness.checkpointing import CheckpointStore
from repro.sim.generators import colored_port_cayley_graph, complete_bipartite_graph

#: Direct Rbar(R(.)) computation is exponential in Delta; cap it here.
DIRECT_VERIFICATION_LIMIT = 5
#: Lemma 8's case analysis expands condensed constraints; cap for speed.
ARGUMENT_VERIFICATION_LIMIT = 14
#: Witness instances grow as 2^Delta (Cayley); cap the instance checks.
INSTANCE_LIMIT = 8


@dataclass
class LowerBoundCertificate:
    """Everything :func:`build_certificate` established for (Delta, k)."""

    delta: int
    k: int
    n: float
    chain_length: int = 0
    deterministic_bound: float = 0.0
    randomized_bound: float = 0.0
    checks: dict = field(default_factory=dict)
    skipped: list = field(default_factory=list)
    provenance: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """All executed checks passed."""
        return all(self.checks.values())

    def render(self) -> str:
        """A human-readable audit trail."""
        lines = [
            f"lower-bound certificate for Delta={self.delta}, k={self.k}, "
            f"n={self.n:g}",
            f"  chain length (PN rounds): {self.chain_length}",
            f"  Theorem 1 deterministic: {self.deterministic_bound:g} rounds",
            f"  Theorem 1 randomized:    {self.randomized_bound:g} rounds",
        ]
        for name, passed in sorted(self.checks.items()):
            lines.append(f"  [{'ok' if passed else 'FAIL'}] {name}")
        for name in self.skipped:
            lines.append(f"  [skipped] {name} (above the feasibility cap)")
        for entry in self.provenance:
            lines.append(f"  [provenance] {entry}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-safe form for checkpoint files."""
        return {
            "delta": self.delta,
            "k": self.k,
            "n": self.n,
            "chain_length": self.chain_length,
            "deterministic_bound": self.deterministic_bound,
            "randomized_bound": self.randomized_bound,
            "checks": dict(self.checks),
            "skipped": list(self.skipped),
            "provenance": list(self.provenance),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LowerBoundCertificate":
        fields_ = {
            "delta", "k", "n", "chain_length",
            "deterministic_bound", "randomized_bound",
            "checks", "skipped", "provenance",
        }
        return cls(**{key: payload[key] for key in fields_ if key in payload})


def _certificate_stage_name(delta: int, k: int) -> str:
    return f"certificate-delta{delta}-k{k}"


def build_certificate(
    delta: int,
    k: int = 0,
    n: float = 2**64,
    *,
    store: CheckpointStore | None = None,
    budget: Budget | None = None,
    use_kernel: bool = True,
) -> LowerBoundCertificate:
    """Run the whole roadmap for one parameter point.

    ``use_kernel`` is passed to the chain arithmetic, the Lemma 6
    check and both Lemma 8 checks, so one value picks the engine for
    all of them: the kernel by default, the reference engine with
    ``use_kernel=False``.  Both render and checkpoint byte-identically.

    ``budget`` is checked between stages only, via
    :meth:`~repro.robustness.budget.Budget.checkpoint` (its probe and
    wall clock).  It is not installed around the engine calls, so its
    alphabet and configuration caps do not apply, and a trip always
    stops the build at a stage boundary.

    All proof checks are raise-free: failures are recorded in
    ``checks`` so the certificate can report exactly which step broke.
    Resource failures are *not* swallowed — a tripped budget or an
    injected fault propagates as its typed exception, leaving the
    checkpoint (if a ``store`` was given) at the last completed stage;
    calling again with the same ``store`` resumes there and produces
    output identical to an uninterrupted run.
    """
    certificate = LowerBoundCertificate(delta=delta, k=k, n=n)
    checks = certificate.checks
    stage_name = _certificate_stage_name(delta, k)
    completed: set[str] = set()
    cache = _cache.active_cache()
    # Per-stage cache outcomes are buffered here and merged into
    # provenance only after the last checkpoint write — persisted
    # state must stay byte-identical between warm and cold runs.
    cache_notes: list[str] = []

    def _cache_marks() -> tuple[int, int]:
        return (cache.hits, cache.misses) if cache is not None else (0, 0)

    def _note_stage(stage: str, marks: tuple[int, int]) -> None:
        if cache is None:
            return
        hit_delta = cache.hits - marks[0]
        miss_delta = cache.misses - marks[1]
        if hit_delta or miss_delta:
            cache_notes.append(
                f"cache: {stage} hit={hit_delta} miss={miss_delta}"
            )

    with _trace.span("certificate.build", delta=delta, k=k) as build_span:
        if store is not None:
            state, corruption = store.load_or_discard(stage_name)
            if corruption is not None:
                state = None
            if (
                state is not None
                and state.get("delta") == delta
                and state.get("k") == k
                and state.get("n") == n
            ):
                completed = set(state.get("completed", ()))
                certificate = LowerBoundCertificate.from_dict(state)
                checks = certificate.checks
                if completed:
                    build_span.set_attr("resumed", True)
                    build_span.set_attr(
                        "resumed_stages", sorted(completed)
                    )

        def persist(stage: str) -> None:
            completed.add(stage)
            if store is not None:
                payload = certificate.to_dict()
                payload["completed"] = sorted(completed)
                store.save(stage_name, payload)
            _trace.event("certificate.stage", stage=stage)

        chain = lemma13_chain(delta, k)
        if "chain" not in completed:
            if budget is not None:
                budget.checkpoint(stage="chain")
            marks = _cache_marks()
            certificate.chain_length = max(len(chain) - 1, 0)
            checks["lemma13 chain arithmetic"] = _safe(
                lambda: verify_chain_arithmetic(chain, use_kernel=use_kernel)
            )
            premises = verify_theorem14_premises(chain)
            checks["theorem14 premises"] = premises.ok
            certificate.deterministic_bound = theorem1_deterministic_bound(
                n, delta, k
            )
            certificate.randomized_bound = theorem1_randomized_bound(n, delta, k)
            _note_stage("chain", marks)
            persist("chain")

        # Lemma-level verification on a representative chain step.
        representative = next(
            (step for step in chain if step.x + 2 <= step.a <= step.delta), None
        )
        if representative is None:
            if "no-representative" not in completed:
                certificate.skipped.append(
                    "lemma 6/8/9 (no step in the valid range)"
                )
                persist("no-representative")
        else:
            a, x = representative.a, representative.x
            shared = SharedPoint(delta, a, x, use_kernel=use_kernel)

            if "lemma6-8" not in completed:
                if budget is not None:
                    budget.checkpoint(stage="lemma6-8")
                marks = _cache_marks()
                if delta <= ARGUMENT_VERIFICATION_LIMIT:
                    checks["lemma6 normal form"] = _safe(
                        lambda: verify_lemma6(
                            delta, a, x, use_kernel=use_kernel, shared=shared
                        )
                    )
                    checks["lemma8 case analysis"] = _safe(
                        lambda: verify_lemma8_argument(
                            delta, a, x, use_kernel=use_kernel, shared=shared
                        ).ok
                    )
                else:
                    certificate.skipped.append("lemma 6/8 expansion")
                _note_stage("lemma6-8", marks)
                persist("lemma6-8")

            if "lemma8-direct" not in completed:
                if budget is not None:
                    budget.checkpoint(stage="lemma8-direct")
                marks = _cache_marks()
                if delta <= DIRECT_VERIFICATION_LIMIT:
                    checks["lemma8 direct Rbar"] = _safe(
                        lambda: verify_lemma8_direct(
                            delta, a, x, use_kernel=use_kernel, shared=shared
                        )
                    )
                else:
                    certificate.skipped.append("lemma8 direct Rbar")
                _note_stage("lemma8-direct", marks)
                persist("lemma8-direct")

            if "lemma9" not in completed:
                if budget is not None:
                    budget.checkpoint(stage="lemma9")
                marks = _cache_marks()
                if (
                    delta <= ARGUMENT_VERIFICATION_LIMIT
                    and 2 * x + 1 <= a
                    and a >= x + 2
                ):
                    checks["lemma9 conversion"] = _safe(
                        lambda: _lemma9_witness(delta, a, x)
                    )
                else:
                    certificate.skipped.append("lemma9 witness")
                _note_stage("lemma9", marks)
                persist("lemma9")

            if "lemma5" not in completed:
                if budget is not None:
                    budget.checkpoint(stage="lemma5")
                marks = _cache_marks()
                if delta <= INSTANCE_LIMIT:
                    checks["lemma5 instance witness"] = _safe(
                        lambda: _lemma5_witness(delta, k)
                    )
                else:
                    certificate.skipped.append("lemma5 instance witness")
                _note_stage("lemma5", marks)
                persist("lemma5")
    # Merged strictly after the final persist, like the trace summary:
    # cache outcomes are observational and must never reach the store.
    certificate.provenance.extend(cache_notes)
    _append_cache_summary(certificate.provenance)
    _append_trace_summary(certificate.provenance)
    return certificate


def _lemma9_witness(delta: int, a: int, x: int) -> bool:
    graph = complete_bipartite_graph(delta)
    labeling = {}
    for node in range(delta):
        for port in range(delta):
            labeling[(node, port)] = "C" if port >= x else "X"
    for node in range(delta, 2 * delta):
        for port in range(delta):
            labeling[(node, port)] = "A" if port < a - x - 1 else "X"
    return verify_lemma9(graph, labeling, delta, a, x).ok


def _lemma5_witness(delta: int, k: int) -> bool:
    graph = colored_port_cayley_graph(delta)
    mis = greedy_mis(graph)
    # An MIS is a 0-outdegree (hence k-outdegree) dominating set.
    return verify_lemma5(graph, mis, {}, k=k, a=max(delta // 2, 1)).ok


def _safe(check: Callable[[], object]) -> bool:
    try:
        return bool(check())
    except (AssertionError, ValueError):
        return False
