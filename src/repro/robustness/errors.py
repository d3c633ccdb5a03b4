"""The typed failure hierarchy of the engine.

Round elimination is explosive by nature: one ``Rbar(R(.))`` step can
grow the alphabet doubly exponentially (paper, Sec. 1.2), and the
surrounding search procedures (closed-set frontiers, maximization DFS,
brute-force solvability) inherit that blow-up.  When something gives
way, callers need to know *what* gave way and *where* — a bare
``ValueError`` thrown from five frames inside a maximization loop is
useless to a CLI, a batch scheduler, or a resume-from-checkpoint
driver.

Every exception here derives from :class:`ReproError` and carries a
structured ``context`` dict (step index, alphabet size, elapsed time,
...) alongside the rendered message.  The hierarchy deliberately
double-inherits from the builtin types it replaces so that existing
``except ValueError`` / ``except RuntimeError`` call sites keep
working:

* :class:`InvalidProblem` (also a ``ValueError``) — a problem
  description is malformed or degenerate: labels outside the alphabet,
  mismatched arities, duplicated configurations, or a constraint that
  admits no maximal configuration.
* :class:`BudgetExceeded` (also a ``RuntimeError``) — a cooperative
  :meth:`~repro.robustness.budget.Budget.checkpoint` found a resource
  budget (wall clock, configurations, chain steps) exhausted.
* :class:`AlphabetExplosion` — the specific, most common budget trip:
  a round-elimination step produced more labels than allowed.
* :class:`CheckpointCorrupt` — a checkpoint file on disk failed its
  integrity seal or did not parse; resume logic treats this as "start
  from scratch", never as data.
* :class:`EngineMisuse` (also a ``ValueError``) — the caller passed
  arguments no engine configuration can satisfy, such as a negative
  chain length or an unknown zero-round policy for the self-reduction
  chain.
* :class:`InvalidGraph` (also a ``ValueError``) — a simulator-side
  input is malformed: a graph with self-loops or broken port maps, a
  non-tree where a tree is required, or generator parameters that no
  graph realizes.
* :class:`InvalidTrace` (also a ``ValueError``) — a trace file or
  record violates the versioned JSON-lines schema of
  :mod:`repro.observability.schema`.
* :class:`InvalidScenario` (also a ``ValueError``) — a declarative
  scenario spec (:mod:`repro.scenarios`) failed to parse, or names a
  problem family, operator, or parameter set the loaders reject.
* :class:`RetryExhausted` (a :class:`BudgetExceeded`, hence also a
  ``RuntimeError``) — a bounded retry or round loop ran out of
  attempts: the configuration-model generator found no simple graph,
  or a simulated algorithm did not halt within ``max_rounds``.
* :class:`InvalidJobRequest` (also a ``ValueError``) — a service job
  submission (:mod:`repro.service`) is malformed: unknown keys, a
  missing problem, an operator/policy/engine the wire format does not
  admit, or invalid budget fields.
"""

from __future__ import annotations

from typing import Any


class ReproError(Exception):
    """Base class of all typed engine failures.

    Attributes:
        message: the human-readable summary, without the context suffix.
        context: structured key/value details (step, alphabet_size,
            elapsed, ...) for programmatic callers and the CLI.
    """

    def __init__(self, message: str = "", **context: Any) -> None:
        self.message = message
        self.context = dict(context)
        rendered = message
        if self.context:
            details = ", ".join(
                f"{key}={value}" for key, value in sorted(self.context.items())
            )
            rendered = f"{message} [{details}]" if message else f"[{details}]"
        super().__init__(rendered)


class InvalidProblem(ReproError, ValueError):
    """A problem description is malformed or degenerate."""


class BudgetExceeded(ReproError, RuntimeError):
    """A cooperative checkpoint found a resource budget exhausted."""


class AlphabetExplosion(BudgetExceeded):
    """A round-elimination step outgrew the alphabet budget."""


class CheckpointCorrupt(ReproError):
    """A checkpoint file failed its integrity seal or did not parse."""


class EngineMisuse(ReproError, ValueError):
    """The caller passed arguments no engine configuration can satisfy."""


class InvalidGraph(ReproError, ValueError):
    """A simulator input graph, labeling, or generator request is malformed."""


class InvalidTrace(ReproError, ValueError):
    """A trace record or file violates the JSON-lines trace schema."""


class InvalidScenario(ReproError, ValueError):
    """A scenario spec is malformed, or names an unknown family/operator.

    Raised by :mod:`repro.scenarios` when a ``.scn`` file fails to
    parse, references a problem family or chain operator the loader
    does not know, or carries parameters the family builder rejects.
    """


class RetryExhausted(BudgetExceeded):
    """A bounded retry or round loop ran out of attempts."""


class InvalidJobRequest(ReproError, ValueError):
    """A service job request is malformed.

    Raised by :mod:`repro.service.wire` when a submitted job document
    is not valid JSON-shaped data, mixes a scenario name with an inline
    problem, names an unknown operator/policy/engine, or carries budget
    fields no :class:`~repro.robustness.budget.Budget` accepts.  The
    HTTP layer renders it as a structured 400 response; it never
    reaches the orchestrator's workers.
    """


__all__ = [
    "ReproError",
    "InvalidProblem",
    "BudgetExceeded",
    "AlphabetExplosion",
    "CheckpointCorrupt",
    "EngineMisuse",
    "InvalidGraph",
    "InvalidTrace",
    "InvalidScenario",
    "RetryExhausted",
    "InvalidJobRequest",
]
