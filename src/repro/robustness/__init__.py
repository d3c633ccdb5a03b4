"""Resource-governed execution for the round-elimination engine.

Round elimination grows problem descriptions doubly exponentially in
the worst case (paper, Sec. 1.2); serving it at production scale needs
explicit defenses.  This package provides them:

``repro.robustness.errors``
    The typed failure hierarchy — :class:`ReproError` and its
    subclasses, each carrying structured context (step index, alphabet
    size, elapsed time).
``repro.robustness.budget``
    :class:`Budget` objects (wall clock, alphabet, configurations,
    chain steps) with a cooperative :func:`checkpoint` protocol threaded
    through the engine's hot loops, plus the :func:`governed` ambient
    installer.
``repro.robustness.checkpointing``
    :class:`CheckpointStore` — atomic, integrity-sealed JSON stages on
    disk, so killed runs resume from the last completed step.

``errors`` imports nothing at all and is safe to import from anywhere
— including :mod:`repro.observability.schema`, which sits *below*
``budget`` (budget emits trace counters).  Everything except ``errors``
is therefore loaded lazily here: eagerly importing ``budget`` from this
package initializer would close the cycle
``observability.schema -> robustness -> budget -> observability.trace``.
"""

from repro.robustness.errors import (
    AlphabetExplosion,
    BudgetExceeded,
    CheckpointCorrupt,
    EngineMisuse,
    InvalidGraph,
    InvalidProblem,
    InvalidTrace,
    ReproError,
    RetryExhausted,
)

_LAZY = {
    "Budget": ("repro.robustness.budget", "Budget"),
    "governed": ("repro.robustness.budget", "governed"),
    "current_budget": ("repro.robustness.budget", "current_budget"),
    "checkpoint": ("repro.robustness.budget", "checkpoint"),
    "check_alphabet": ("repro.robustness.budget", "check_alphabet"),
    "check_configurations": (
        "repro.robustness.budget",
        "check_configurations",
    ),
    "check_chain_step": ("repro.robustness.budget", "check_chain_step"),
    "CheckpointStore": ("repro.robustness.checkpointing", "CheckpointStore"),
}


def __getattr__(name: str) -> object:
    try:
        module_name, attribute = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), attribute)


__all__ = [
    "ReproError",
    "InvalidProblem",
    "BudgetExceeded",
    "AlphabetExplosion",
    "CheckpointCorrupt",
    "EngineMisuse",
    "InvalidGraph",
    "InvalidTrace",
    "RetryExhausted",
    *sorted(_LAZY),
]
