"""Recompute ``pins.json``, the expected outputs the benchmark checks.

Run from the repository root (about half a minute; the reference-engine
Delta=6 chain dominates):

    python3 perfbench/pin.py

``mis_chain`` maps Delta to the fingerprint of the two-step ``speedup``
chain on MIS computed by the reference engine (the kernel must agree).
``certificate`` maps Delta to what ``build_certificate(delta, 0)`` and
``run_chain(delta, verify_steps=True)`` must report.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.core.cache import fingerprint  # noqa: E402
from repro.core.round_elimination import speedup  # noqa: E402
from repro.lowerbound.certificate import build_certificate  # noqa: E402
from repro.lowerbound.sequence import run_chain  # noqa: E402
from repro.problems import mis_problem  # noqa: E402

MIS_DELTAS = (3, 4, 5, 6)
CERTIFICATE_DELTAS = (3, 4, 5, 8)
STEPS = 2


def mis_chain_digest(delta: int, use_kernel: bool) -> str:
    problem = mis_problem(delta)
    for _ in range(STEPS):
        problem = speedup(problem, use_kernel=use_kernel).problem
    return fingerprint(problem)


def main() -> int:
    pins: dict = {"mis_chain": {}, "certificate": {}}
    for delta in MIS_DELTAS:
        reference = mis_chain_digest(delta, use_kernel=False)
        if mis_chain_digest(delta, use_kernel=True) != reference:
            print(f"error: engines disagree on MIS Delta={delta}", file=sys.stderr)
            return 1
        pins["mis_chain"][str(delta)] = reference
    for delta in CERTIFICATE_DELTAS:
        certificate = build_certificate(delta, 0)
        chain = run_chain(delta, verify_steps=True)
        if not (certificate.ok and chain.complete):
            print(f"error: certificate for Delta={delta} fails", file=sys.stderr)
            return 1
        pins["certificate"][str(delta)] = {
            "checks": sorted(certificate.checks),
            "chain_length": certificate.chain_length,
            "skipped": certificate.skipped,
            "chain": [step.to_dict() for step in chain.chain],
        }
    with open(HERE / "pins.json", "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
