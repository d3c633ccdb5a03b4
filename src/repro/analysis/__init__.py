"""Numeric bound formulas and table builders.

:mod:`repro.analysis.bounds` collects the asymptotic bound expressions
of the paper and of the prior work it compares against, as concrete
functions of (n, Delta, k); :mod:`repro.analysis.tables` renders the
tables the example scripts print; :mod:`repro.analysis.experiments`
reruns every row of EXPERIMENTS.md.
"""

from repro.analysis.bounds import (
    balliu2019_lower_bound,
    bbo2020_deterministic_lower_bound,
    bbo2020_randomized_lower_bound,
    kmw_lower_bound,
    log_star,
    upper_bound_k_degree_ds,
    upper_bound_k_outdegree_ds,
    upper_bound_mis_bek,
)
from repro.analysis.tables import Table

__all__ = [
    "Table",
    "balliu2019_lower_bound",
    "bbo2020_deterministic_lower_bound",
    "bbo2020_randomized_lower_bound",
    "kmw_lower_bound",
    "log_star",
    "upper_bound_k_degree_ds",
    "upper_bound_k_outdegree_ds",
    "upper_bound_mis_bek",
]
