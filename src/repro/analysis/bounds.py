"""Bound expressions, as concrete functions.

Asymptotic statements are turned into evaluable expressions by dropping
the Landau symbols (constant factor 1); all comparisons in the
benchmarks are therefore about *shape* — who wins, by what factor, and
where curves cross — never about absolute constants, matching the
reproduction contract in DESIGN.md.

All logarithms are base 2.  Functions guard their domains (iterated
logs need their argument > 1) by clamping at 1, which only affects
values far outside the asymptotic regime.
"""

from __future__ import annotations

import math


def _log2(value: float) -> float:
    """Base-2 log clamped below at 0 (arguments <= 1 give 0)."""
    return math.log2(value) if value > 1 else 0.0


def log_star(n: float, base: float = 2.0) -> int:
    """The iterated logarithm: steps of log_base until the value <= 1.

    Handles arbitrarily large integers (towers like 2**65536) without
    float overflow by taking the first log through ``bit_length``.
    """
    if n <= 1:
        return 0
    count = 0
    value = n
    while value > 1:
        if isinstance(value, int) and value.bit_length() > 1000:
            value = (value.bit_length() - 1) / math.log2(base)
        else:
            value = math.log(float(value), base)
        count += 1
    return count


# ---------------------------------------------------------------------------
# This paper (Theorem 1 / Corollary 2 shapes; exact constants live in
# repro.lowerbound.lift, where the port-numbering chain length is used)
# ---------------------------------------------------------------------------

def this_paper_deterministic_shape(n: float, delta: float) -> float:
    """Omega(min{log Delta, log_Delta n}) — Theorem 1, deterministic."""
    return min(_log2(delta), _log2(n) / max(_log2(delta), 1.0))


def this_paper_randomized_shape(n: float, delta: float) -> float:
    """Omega(min{log Delta, log_Delta log n}) — Theorem 1, randomized."""
    return min(_log2(delta), _log2(_log2(n)) / max(_log2(delta), 1.0))


# ---------------------------------------------------------------------------
# Prior lower bounds the paper compares against (Sec. 1.1, 1.3)
# ---------------------------------------------------------------------------

def bbo2020_deterministic_lower_bound(n: float, delta: float) -> float:
    """[5] (FOCS'20), MIS on trees, deterministic:
    Omega(min{log Delta / loglog Delta, sqrt(log n / loglog n)})."""
    loglog_delta = max(_log2(_log2(delta)), 1.0)
    loglog_n = max(_log2(_log2(n)), 1.0)
    return min(
        _log2(delta) / loglog_delta,
        math.sqrt(_log2(n) / loglog_n),
    )


def bbo2020_randomized_lower_bound(n: float, delta: float) -> float:
    """[5] (FOCS'20), MIS on trees, randomized:
    Omega(min{log Delta / loglog Delta, sqrt(loglog n / logloglog n)})."""
    loglog_delta = max(_log2(_log2(delta)), 1.0)
    logloglog_n = max(_log2(_log2(_log2(n))), 1.0)
    return min(
        _log2(delta) / loglog_delta,
        math.sqrt(_log2(_log2(n)) / logloglog_n),
    )


def kmw_lower_bound(n: float, delta: float) -> float:
    """Kuhn-Moscibroda-Wattenhofer [31], MIS on general graphs:
    Omega(min{log Delta / loglog Delta, sqrt(log n / loglog n)})."""
    loglog_delta = max(_log2(_log2(delta)), 1.0)
    loglog_n = max(_log2(_log2(n)), 1.0)
    return min(
        _log2(delta) / loglog_delta,
        math.sqrt(_log2(n) / loglog_n),
    )


def balliu2019_lower_bound(n: float, delta: float, randomized: bool = False) -> float:
    """[4] (FOCS'19), MIS on general graphs:
    Omega(min{Delta, log n / loglog n}) det,
    Omega(min{Delta, loglog n / logloglog n}) rand."""
    if randomized:
        numerator = _log2(_log2(n))
        denominator = max(_log2(_log2(_log2(n))), 1.0)
    else:
        numerator = _log2(n)
        denominator = max(_log2(_log2(n)), 1.0)
    return min(delta, numerator / denominator)


def brandt_olivetti_b_matching_bound(
    n: float, delta: float, b: float, randomized: bool = False
) -> float:
    """[15], b-matching in Delta-regular trees (line-graph argument):
    Omega(min{Delta/b, log n / loglog n}) det (loglog n variant rand)."""
    if randomized:
        numerator = _log2(_log2(n))
        denominator = max(_log2(_log2(_log2(n))), 1.0)
    else:
        numerator = _log2(n)
        denominator = max(_log2(_log2(n)), 1.0)
    return min(delta / max(b, 1.0), numerator / denominator)


# ---------------------------------------------------------------------------
# Upper bounds (Sec. 1.1)
# ---------------------------------------------------------------------------

def upper_bound_mis_bek(n: float, delta: float) -> float:
    """Barenboim-Elkin-Kuhn [10]: MIS in O(Delta + log* n)."""
    return delta + log_star(n)


def upper_bound_k_outdegree_ds(n: float, delta: float, k: float) -> float:
    """Sec. 1.1: k-outdegree dominating set in O(Delta/k + log* n)
    via k-arbdefective O(Delta/k)-coloring [9] + color-class sweep."""
    return delta / max(k, 1.0) + log_star(n)


def upper_bound_k_degree_ds(n: float, delta: float, k: float) -> float:
    """Sec. 1.1: k-degree dominating set in
    O(min{Delta, (Delta/k)^2} + log* n) via k-defective coloring [29]."""
    return min(delta, (delta / max(k, 1.0)) ** 2) + log_star(n)


def upper_bound_mis_trees_randomized(n: float) -> float:
    """Ghaffari [22] on trees: O(sqrt(log n)) randomized."""
    return math.sqrt(_log2(n))


def upper_bound_mis_trees_deterministic(n: float) -> float:
    """Barenboim-Elkin [7] on trees: O(log n / loglog n) deterministic."""
    return _log2(n) / max(_log2(_log2(n)), 1.0)


# ---------------------------------------------------------------------------
# Crossovers
# ---------------------------------------------------------------------------

def crossover_delta(n: float, randomized: bool = False) -> float:
    """The Delta balancing the two branches of Theorem 1's min.

    Deterministic: log Delta = log_Delta n  =>  Delta = 2^sqrt(log n);
    randomized: Delta = 2^sqrt(loglog n).  This is exactly the choice
    behind Corollary 2.
    """
    inner = _log2(_log2(n)) if randomized else _log2(n)
    return 2 ** math.sqrt(max(inner, 0.0))
