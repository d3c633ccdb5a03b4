"""Run the whole lower-bound proof for chosen parameters.

Run:  python examples/full_certificate.py [delta] [k]
          [--checkpoint DIR] [--wall-clock S]
          [--trace out.jsonl] [--metrics]

Produces a :class:`LowerBoundCertificate`: the Section 2.4 roadmap
executed end to end — chain arithmetic, Theorem 14 premises, Lemma 6's
normal form, Lemma 8's case analysis (and, for Delta <= 5, the full
Rbar computation), Lemma 9's conversion on a concrete instance, and
the Lemma 5 witness — with the Theorem 1 numbers at the end.

With ``--checkpoint DIR`` the build is restartable stage by stage: a
killed run resumes from the last completed stage and renders a
certificate byte-identical to an uninterrupted run.  ``--wall-clock S``
stops the build at the first stage boundary after ``S`` seconds.
``--trace`` writes the run's span trace as JSON lines; ``--metrics``
prints the per-phase counter table at the end.
"""

import sys

from repro.lowerbound.certificate import build_certificate
from repro.observability.cli import cli_tracing
from repro.robustness.budget import Budget
from repro.robustness.checkpointing import CheckpointStore


def _flag_value(argv: list[str], index: int) -> str:
    if index + 1 >= len(argv):
        raise SystemExit(f"error: {argv[index]} requires a value")
    return argv[index + 1]


def parse_arguments(argv: list[str]):
    positional = []
    checkpoint_dir = None
    wall_clock = None
    trace_path = None
    metrics = False
    index = 0
    while index < len(argv):
        argument = argv[index]
        if argument == "--checkpoint":
            checkpoint_dir = _flag_value(argv, index)
            index += 1
        elif argument == "--wall-clock":
            wall_clock = float(_flag_value(argv, index))
            index += 1
        elif argument == "--trace":
            trace_path = _flag_value(argv, index)
            index += 1
        elif argument == "--metrics":
            metrics = True
        elif argument.startswith("--"):
            raise SystemExit(f"error: unknown option {argument}")
        else:
            positional.append(argument)
        index += 1
    delta = int(positional[0]) if positional else 8
    k = int(positional[1]) if len(positional) > 1 else 0
    return delta, k, checkpoint_dir, wall_clock, trace_path, metrics


def main() -> None:
    delta, k, checkpoint_dir, wall_clock, trace_path, metrics = (
        parse_arguments(sys.argv[1:])
    )
    store = CheckpointStore(checkpoint_dir) if checkpoint_dir else None
    budget = None
    if wall_clock is not None:
        budget = Budget(wall_clock_seconds=wall_clock)
    with cli_tracing(trace_path, metrics):
        certificate = build_certificate(delta, k, store=store, budget=budget)
    print(certificate.render())
    if not certificate.ok:
        raise SystemExit("certificate FAILED")


if __name__ == "__main__":
    main()
