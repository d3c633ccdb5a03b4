"""Reproduction of Balliu, Brandt, Kuhn, Olivetti (PODC 2021):
"Improved Distributed Lower Bounds for MIS and Bounded (Out-)Degree
Dominating Sets in Trees".

Subpackages
-----------
``repro.core``
    The round-elimination engine: problems, diagrams, the R / Rbar
    operators, relaxations, zero-round solvability.
``repro.problems``
    Concrete problem encodings (MIS, the family Pi_Delta(a, x), ...).
``repro.lowerbound``
    The paper's proof pipeline, lemma by lemma, machine-checked.
``repro.sim``
    A LOCAL / port-numbering model simulator with graph generators,
    edge colorings, and output verifiers.
``repro.algorithms``
    Upper-bound distributed algorithms (Luby, color reduction, sweeps).
``repro.analysis``
    Numeric bound formulas and the table builders behind EXPERIMENTS.md.
``repro.robustness``
    Resource governance: budgets with cooperative checkpoints, typed
    failures, and checkpoint/resume stores.
"""

__version__ = "1.0.0"
