"""Fast-path round-elimination kernel: interned labels, bitset
constraints, memoized lattices and explicit-stack searches.

The reference engine (:mod:`repro.core.round_elimination` and friends)
stays the semantic source of truth; this package is its performance
twin, pinned to it by the differential oracle in ``tests/oracle.py``.
Select it through the ``use_kernel=True`` flag on the public entry
points (``R``, ``Rbar``, ``speedup``, the zero-round tests) or call
the ``*_kernel`` functions directly.  The engine work of
:mod:`repro.lowerbound` (``run_chain``, ``build_certificate`` and the
Lemma 6/8 checks) runs here by default; ``use_kernel=False`` sends it
back to the reference engine.
"""

from repro.core.kernel.bitops import (
    bit,
    is_strict_subset,
    is_subset,
    iter_bits,
    mask_from_ids,
    popcount,
    universe,
)
from repro.core.kernel.engine import (
    KernelProblem,
    existential_constraint_kernel,
    kernel_R,
    kernel_Rbar,
    maximize_edge_constraint_kernel,
    maximize_node_constraint_kernel,
    zero_round_solvable_pn_kernel,
    zero_round_solvable_symmetric_kernel,
)
from repro.core.kernel.interning import LabelInterner

__all__ = [
    "KernelProblem",
    "LabelInterner",
    "kernel_R",
    "kernel_Rbar",
    "maximize_edge_constraint_kernel",
    "maximize_node_constraint_kernel",
    "existential_constraint_kernel",
    "zero_round_solvable_pn_kernel",
    "zero_round_solvable_symmetric_kernel",
    "bit",
    "mask_from_ids",
    "iter_bits",
    "popcount",
    "is_subset",
    "is_strict_subset",
    "universe",
]
