"""Lemma 13: the Omega(log Delta) lower-bound chain.

The chain is ``Pi_i = Pi_Delta(floor(Delta / 2^(3i)), x + i)``.  One
round-elimination step (Corollary 10 = Lemma 8 + Lemma 9) takes
Pi_Delta(a, x) to Pi_Delta(floor((a - 2x - 1)/2), x + 1), and Lemma 11
relaxes that to the next chain member whenever (following the proof)
``x_i < a_i / 8`` and ``a_i >= 4``.  The chain length is therefore a
*constructive* lower bound on the deterministic port-numbering
complexity of Pi_0 — and, through Lemma 5, of the k-outdegree
dominating set problem with k = x.

Every step of the chain carries its side-condition checks; the
benchmarks additionally re-verify sampled steps with the full engine.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.core import cache as _cache
from repro.core.problem import Problem
from repro.core.solvability import zero_round_solvable_symmetric
from repro.lowerbound.lemma9 import lemma9_target_a
from repro.observability import trace as _trace
from repro.observability.metrics import trace_summary_line
from repro.problems.family import family_problem
from repro.robustness import budget as _budget
from repro.robustness.budget import Budget, governed
from repro.robustness.checkpointing import CheckpointStore
from repro.robustness.errors import InvalidProblem


@dataclass(frozen=True)
class ChainStep:
    """One problem of the Lemma 13 sequence."""

    index: int
    delta: int
    a: int
    x: int

    def to_dict(self) -> dict:
        """JSON-safe form for checkpoint files."""
        return {
            "index": self.index,
            "delta": self.delta,
            "a": self.a,
            "x": self.x,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ChainStep":
        return cls(
            index=payload["index"],
            delta=payload["delta"],
            a=payload["a"],
            x=payload["x"],
        )

    @property
    def problem(self) -> Problem:
        """The problem Pi_Delta(a, x) of this step."""
        return family_problem(self.delta, self.a, self.x)

    def speedup_conditions_hold(self) -> bool:
        """The proof's conditions for taking one more step from here."""
        return self.a >= 4 and self.x < self.a / 8

    def corollary10_conditions_hold(self) -> bool:
        """Corollary 10's own hypotheses (implied by the above)."""
        return (
            2 * self.x + 1 <= self.a
            and self.x + 2 <= self.a <= self.delta
        )

    def render(self) -> str:
        """``Pi_3 = Pi(a=12, x=4)`` style."""
        return f"Pi_{self.index} = Pi(delta={self.delta}, a={self.a}, x={self.x})"


def _lemma13_steps(
    delta: int, x: int, *, phase: str, after: ChainStep | None = None
) -> Iterator[ChainStep]:
    """Lazily yield the Lemma 13 sequence, or its suffix past ``after``.

    Yields ``Pi_i = Pi_Delta(floor(Delta / 2^(3i)), x + i)`` while the
    proof's conditions (``a_i >= 4``, ``x_i < a_i / 8``) hold at the
    previous step and the parameters stay in range.  Each step passes
    an ambient-budget chain-step check under ``phase`` just before it
    is yielded.
    """
    if delta < 1:
        raise InvalidProblem("delta must be positive")
    if x < 0:
        raise InvalidProblem("x must be non-negative")
    index = 0 if after is None else after.index + 1
    while after is None or after.speedup_conditions_hold():
        a_i = delta // (2 ** (3 * index))
        x_i = x + index
        if a_i < 1 or x_i > delta - 1:
            return
        _budget.check_chain_step(index, phase=phase, a=a_i, x=x_i)
        after = ChainStep(index=index, delta=delta, a=a_i, x=x_i)
        yield after
        index += 1


def lemma13_chain(delta: int, x: int = 0) -> list[ChainStep]:
    """The longest valid prefix of the Lemma 13 sequence.

    Starts from ``Pi_0 = Pi_Delta(Delta, x)`` and appends
    ``Pi_(i+1) = Pi_Delta(floor(Delta / 2^(3(i+1))), x + i + 1)`` while
    the proof's conditions (``a_i >= 4``, ``x_i < a_i / 8``) hold at
    the current step.  Only this arithmetic is checked here; that every
    step is non-0-round solvable (Lemma 12) is checked by
    :func:`verify_chain_arithmetic` and by ``run_chain(...,
    verify_steps=True)``.
    """
    return list(_lemma13_steps(delta, x, phase="lemma13-chain"))


@dataclass
class ChainRunResult:
    """Outcome of a (possibly resumed) governed chain construction."""

    chain: list[ChainStep]
    complete: bool
    resumed_from_step: int | None = None
    provenance: list[str] = field(default_factory=list)

    @property
    def certified_rounds(self) -> int:
        """The PN lower bound the (possibly partial) chain certifies."""
        return max(len(self.chain) - 1, 0)


def _chain_stage_name(delta: int, x: int) -> str:
    return f"chain-delta{delta}-x{x}"


def run_chain(
    delta: int,
    x: int = 0,
    *,
    store: CheckpointStore | None = None,
    budget: Budget | None = None,
    verify_steps: bool = False,
    use_kernel: bool = True,
) -> ChainRunResult:
    """Build the Lemma 13 chain restartably, under an optional budget.

    Produces exactly :func:`lemma13_chain`'s steps, but checkpoints the
    completed prefix to ``store`` after every step, so a run killed
    mid-chain (a budget trip, an injected fault, a real crash) resumes
    from the last completed step on the next call and yields a chain
    identical to an uninterrupted run.  A corrupt checkpoint file is
    detected by its integrity seal, discarded, and recorded in
    ``provenance`` — the run restarts from scratch rather than trusting
    damaged state.

    With ``verify_steps=True`` every appended step is additionally
    checked non-0-round-solvable (Lemma 12) before being persisted,
    and the engine used for the check is recorded in ``provenance``;
    those checks run on the kernel unless ``use_kernel=False`` selects
    the reference engine.

    Under an ambient :func:`repro.core.cache.caching` store the
    per-step Lemma 12 verdicts are served from the operator cache, and
    each step's ``cache: step N zero-round hit|miss`` outcome lands in
    ``provenance``.  Cache notes — like the trace summary — are
    appended only after the final checkpoint write, so warm and cold
    runs persist byte-identical state.
    """
    stage = _chain_stage_name(delta, x)
    chain: list[ChainStep] = []
    resumed_from: int | None = None
    provenance: list[str] = []
    cache = _cache.active_cache()
    cache_notes: list[str] = []
    with _trace.span(
        "chain.run", delta=delta, x=x,
        engine="kernel" if use_kernel else "reference",
    ) as chain_span:
        if store is not None:
            state, corruption = store.load_or_discard(stage)
            if corruption is not None:
                provenance.append(
                    f"discarded corrupt checkpoint {stage!r}: {corruption.message}"
                )
            if (
                state is not None
                and state.get("delta") == delta
                and state.get("x") == x
            ):
                chain = [ChainStep.from_dict(item) for item in state["steps"]]
                resumed_from = len(chain)
                chain_span.set_attr("resumed", True)
                chain_span.set_attr("resumed_from_step", resumed_from)
                if state.get("complete"):
                    chain_span.add("chain.steps", len(chain))
                    _append_cache_summary(provenance)
                    _append_trace_summary(provenance)
                    return ChainRunResult(
                        chain=chain,
                        complete=True,
                        resumed_from_step=resumed_from,
                        provenance=provenance,
                    )
                chain_span.add("chain.steps", len(chain))

        def persist(complete: bool) -> None:
            if store is not None:
                store.save(
                    stage,
                    {
                        "delta": delta,
                        "x": x,
                        "steps": [step.to_dict() for step in chain],
                        "complete": complete,
                    },
                )

        if verify_steps:
            provenance.append(
                "per-step Lemma 12 checks via "
                + ("kernel engine" if use_kernel else "reference engine")
            )
        with governed(budget):
            for step in _lemma13_steps(
                delta, x, phase="chain-run", after=chain[-1] if chain else None
            ):
                if verify_steps:
                    hits_before = cache.hits if cache is not None else 0
                    if step_zero_round_solvable(step, use_kernel=use_kernel):
                        raise AssertionError(
                            f"{step.render()} is 0-round solvable "
                            "(Lemma 12 fails)"
                        )
                    if cache is not None:
                        outcome = (
                            "hit" if cache.hits > hits_before else "miss"
                        )
                        cache_notes.append(
                            f"cache: step {step.index} zero-round {outcome}"
                        )
                chain.append(step)
                chain_span.add("chain.steps")
                _trace.event("chain.step", index=step.index, a=step.a, x=step.x)
                persist(complete=False)
        persist(complete=True)
    # Observational notes only after the final persist: cache outcomes,
    # like the trace summary, never land in checkpoint bytes.
    provenance.extend(cache_notes)
    _append_cache_summary(provenance)
    _append_trace_summary(provenance)
    return ChainRunResult(
        chain=chain,
        complete=True,
        resumed_from_step=resumed_from,
        provenance=provenance,
    )


def _append_cache_summary(provenance: list[str]) -> None:
    """Add the ambient cache's running totals to a provenance trail.

    Observational only (never persisted), mirroring the trace summary.
    """
    cache = _cache.active_cache()
    if cache is not None:
        provenance.append(cache.summary_line())


def _append_trace_summary(provenance: list[str]) -> None:
    """Add a one-line trace digest to a provenance trail.

    Called only after the final checkpoint write, so the (run-specific,
    resume-dependent) summary never lands in persisted state — resumed
    runs stay byte-identical to uninterrupted ones on disk.
    """
    tracer = _trace.active_tracer()
    if tracer is not None:
        provenance.append(trace_summary_line(tracer.records))


def verify_chain_arithmetic(
    chain: list[ChainStep], *, use_kernel: bool = True
) -> bool:
    """Check the numeric glue between consecutive chain steps.

    For each step: Corollary 10's hypotheses hold, the post-speedup
    ownership target ``floor((a_i - 2 x_i - 1)/2)`` is at least the
    next step's ``a_(i+1)`` (so Lemma 11 applies in the easy
    direction), the x parameter advances by exactly one, and every
    problem in the chain — including the last — fails the 0-round
    solvability test of Lemma 12 (on the kernel unless
    ``use_kernel=False``).  Raises ``AssertionError`` with the
    offending step otherwise.
    """
    for current, following in zip(chain, chain[1:]):
        if not current.corollary10_conditions_hold():
            raise AssertionError(f"Corollary 10 hypotheses fail at {current.render()}")
        if not current.speedup_conditions_hold():
            raise AssertionError(f"speedup conditions fail at {current.render()}")
        target = lemma9_target_a(current.a, current.x)
        if following.a > target:
            raise AssertionError(
                f"{following.render()} is not reachable from {current.render()}: "
                f"a_target={target}"
            )
        if following.x != current.x + 1:
            raise AssertionError(f"x must advance by 1 into {following.render()}")
    for step in chain:
        if step_zero_round_solvable(step, use_kernel=use_kernel):
            raise AssertionError(f"{step.render()} is 0-round solvable")
    return True


def step_zero_round_solvable(step: ChainStep, *, use_kernel: bool = True) -> bool:
    """Lemma 12's test for one chain step, scalable to huge Delta.

    For small Delta the full engine test runs on the materialized
    problem.  For large Delta, materializing arity-Delta configurations
    is wasteful; instead the label *supports* of the three node
    configurations are computed symbolically and checked against the
    engine-computed self-compatible labels of the (Delta-independent)
    family edge constraint — the same test, without the blow-up.
    """
    if step.delta <= 64:
        return zero_round_solvable_symmetric(step.problem, use_kernel=use_kernel)
    delta, a, x = step.delta, step.a, step.x
    reference = family_problem(4, min(a, 4), min(x, 4))
    self_compatible = reference.self_compatible_labels()
    supports = [
        {label for label, count in (("M", delta - x), ("X", x)) if count > 0},
        {label for label, count in (("A", a), ("X", delta - a)) if count > 0},
        {label for label, count in (("P", 1), ("O", delta - 1)) if count > 0},
    ]
    return any(support <= self_compatible for support in supports)


def sequence_length(delta: int, k: int = 0) -> int:
    """The port-numbering lower bound from the chain: its step count.

    ``k`` plays the role of the starting ``x`` (Lemma 5 hands a
    k-outdegree dominating set to ``Pi_Delta(Delta, k)`` in one round).
    A chain of ``t + 1`` problems certifies ``t`` rounds.
    """
    return max(len(lemma13_chain(delta, k)) - 1, 0)


def max_k_for_logdelta_bound(delta: int, fraction: float = 0.5) -> int:
    """The largest k retaining at least ``fraction`` of the k=0 chain.

    A concrete stand-in for the paper's ``k <= Delta^epsilon``
    threshold: beyond this k the chain (and hence the Omega(log Delta)
    bound) collapses.
    """
    baseline = sequence_length(delta, 0)
    if baseline == 0:
        return 0
    k = 0
    while sequence_length(delta, k + 1) >= fraction * baseline:
        k += 1
        if k > delta:
            break
    return k
