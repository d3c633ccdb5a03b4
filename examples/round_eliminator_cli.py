"""A tiny round-eliminator CLI, in the spirit of Olivetti's tool [36].

Run:  python examples/round_eliminator_cli.py [steps] [--kernel]
          [--self-reduce] [--cache] [--trace out.jsonl] [--metrics]

Reads a problem from stdin in the paper's condensed syntax — node
configurations, a blank line, then edge configurations — and applies
the requested number of Rbar(R(.)) speedup steps, printing the renamed
problem and its diagrams after each.  Press Ctrl-D (EOF) after the edge
constraint.  With no stdin input, demonstrates on sinkless orientation.
``--self-reduce`` applies the Khoury-Schild self-reduction
``condense(speedup(condense(.)))`` instead of the plain speedup at each
step, and reports when the chain hits an isomorphism fixed point.
``--kernel`` routes the operators through the interned bitmask fast
path (identical output, measured in benchmarks/bench_kernel.py).
``--trace out.jsonl`` writes the run's span trace as JSON lines and
``--metrics`` prints the per-phase counter table after the run.
``--cache`` memoizes operator results in the content-addressed store
under ``$REPRO_CACHE_DIR`` (default ``~/.cache/repro``) so a rerun of
the same chain is served from disk; the hit/miss totals are printed
when the run finishes.

Example input (MIS, Delta = 3):

    M^3
    P O^2

    M [PO]
    O O
"""

import contextlib
import sys

from repro.core.cache import OperatorCache, caching, default_cache_dir
from repro.core.diagram import edge_diagram, node_diagram
from repro.core.problem import Problem
from repro.core.round_elimination import speedup
from repro.core.self_reduction import self_reduce
from repro.core.solvability import zero_round_solvable_pn
from repro.observability.cli import cli_tracing
from repro.problems.classic import sinkless_orientation_problem


def read_problem_from_stdin() -> Problem | None:
    if sys.stdin.isatty():
        return None
    text = sys.stdin.read()
    if not text.strip():
        return None
    node_lines: list[str] = []
    edge_lines: list[str] = []
    current = node_lines
    for line in text.splitlines():
        if not line.strip():
            if node_lines:
                current = edge_lines
            continue
        current.append(line.strip())
    return Problem.from_text(node_lines, edge_lines, name="stdin problem")


def main() -> None:
    arguments = sys.argv[1:]
    use_kernel = False
    trace_path = None
    metrics = False
    use_cache = False
    use_self_reduce = False
    positional: list[str] = []
    index = 0
    while index < len(arguments):
        argument = arguments[index]
        if argument == "--kernel":
            use_kernel = True
        elif argument == "--trace":
            if index + 1 >= len(arguments):
                raise SystemExit("error: --trace requires a path")
            trace_path = arguments[index + 1]
            index += 1
        elif argument == "--metrics":
            metrics = True
        elif argument == "--cache":
            use_cache = True
        elif argument == "--self-reduce":
            use_self_reduce = True
        elif argument.startswith("-"):
            raise SystemExit(f"error: unknown option {argument}")
        else:
            positional.append(argument)
        index += 1
    try:
        steps = int(positional[0]) if positional else 2
    except ValueError:
        raise SystemExit(f"error: steps must be an integer, got {positional[0]!r}")
    problem = read_problem_from_stdin()
    if problem is None:
        print("(no stdin input - demonstrating on sinkless orientation)")
        problem = sinkless_orientation_problem(3)
    if use_kernel:
        print("(engine: kernel fast path)")
    store = None
    if use_cache:
        store = OperatorCache(default_cache_dir())
        print(f"(operator cache: {store.directory})")
    cache_context = caching(store) if store is not None else contextlib.nullcontext()
    with cli_tracing(trace_path, metrics), cache_context:
        for step_index in range(steps + 1):
            print(f"=== step {step_index} ===")
            print(problem.render())
            print("edge diagram:")
            print(edge_diagram(problem).render() or "  (no relations)")
            print("node diagram:")
            print(node_diagram(problem).render() or "  (no relations)")
            print(
                "0-round solvable (PN):",
                zero_round_solvable_pn(problem, use_kernel=use_kernel),
            )
            print()
            if step_index == steps:
                break
            if use_self_reduce:
                step = self_reduce(problem, use_kernel=use_kernel)
                if step.fixed_point:
                    print("(self-reduction fixed point: the chain repeats from here)")
                problem = step.problem
            else:
                problem = speedup(problem, use_kernel=use_kernel).problem
            problem.name = f"step {step_index + 1}"
    if store is not None:
        print(store.summary_line())


if __name__ == "__main__":
    main()
