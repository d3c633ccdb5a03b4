"""Relaxations between configurations and 0-round reductions.

Three related notions live here:

* :func:`can_relax` — Definition 7 of the paper: a node configuration
  of label *sets* ``Y_1 ... Y_Delta`` relaxes to ``Z_1 ... Z_Delta``
  when some permutation matches every ``Y_i`` into a superset
  ``Z_rho(i)``.  This is also exactly the dominance order used to prune
  non-maximal configurations in the maximization steps.

* :func:`find_label_relabeling` — a uniform label map ``g`` from one
  problem into another such that allowed configurations map into
  allowed configurations.  Its existence certifies that the target is
  0-round solvable given a solution of the source.

* :func:`find_upgrade_reduction` — the per-configuration, per-position
  upgrade used by Lemma 11: each node may replace a label by one that
  is *at least as strong* w.r.t. the (shared) edge constraint, provided
  the upgraded configuration is allowed by the target's node
  constraint.  Strength guarantees edge configurations stay allowed, so
  such a witness again certifies a 0-round reduction.

Every matching here — a relaxation's permutation, an upgrade's
position assignment — comes from
:func:`repro.core.configurations.saturating_matching`, the one
bipartite matcher of the code base.  These checks have no kernel twin.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

from repro.core import cache as _cache
from repro.core.configurations import Configuration, saturating_matching
from repro.core.diagram import Diagram
from repro.core.problem import Problem
from repro.observability import trace as _trace
from repro.robustness import budget as _budget


def can_relax(source: Configuration, target: Configuration) -> bool:
    """Definition 7: whether ``source`` can be relaxed to ``target``.

    Both configurations must consist of set labels (``frozenset``) and
    share one arity.  A bipartite matching over the pointwise-subset
    relation decides it.
    """
    return relaxation_witness(source, target) is not None


def relaxation_witness(
    source: Configuration, target: Configuration
) -> list[int] | None:
    """The permutation realizing a relaxation, or ``None``.

    Returns ``rho`` as a list: source position ``i`` maps to target
    position ``rho[i]``.
    """
    if source.arity != target.arity:
        return None
    return saturating_matching(
        source.items, target.items, lambda small, big: small <= big
    )


def find_label_relabeling(source: Problem, target: Problem) -> dict | None:
    """A uniform map g: Sigma_source -> Sigma_target certifying a
    0-round reduction, or ``None`` if no such map exists.

    The map must send every allowed node (edge) configuration of the
    source to an allowed node (edge) configuration of the target.
    Backtracking over the source alphabet with incremental pruning.
    """
    if source.delta != target.delta:
        return None
    with _trace.span("op.relabeling", engine="reference", delta=source.delta) as span:
        span.add("labels.in", len(source.alphabet))
        return _cache.cached_relabeling(
            source, target, lambda: _search_relabeling(source, target)
        )


def _search_relabeling(source: Problem, target: Problem) -> dict | None:
    source_labels = list(source.alphabet)
    target_labels = list(target.alphabet)
    mapping: dict = {}

    def consistent_so_far() -> bool:
        assigned = set(mapping)
        for constraint, target_constraint in (
            (source.node_constraint, target.node_constraint),
            (source.edge_constraint, target.edge_constraint),
        ):
            for configuration in constraint.configurations:
                if not configuration.support() <= assigned:
                    continue
                image = configuration.replace_all(mapping)
                if image not in target_constraint:
                    return False
        return True

    def assign(index: int) -> bool:
        _budget.checkpoint(phase="relabeling-search", assigned=index)
        if index == len(source_labels):
            return True
        label = source_labels[index]
        for candidate in target_labels:
            mapping[label] = candidate
            if consistent_so_far() and assign(index + 1):
                return True
            del mapping[label]
        return False

    if assign(0):
        return dict(mapping)
    return None


def find_upgrade_reduction(
    source: Problem, target: Problem
) -> dict[Configuration, Configuration] | None:
    """Per-configuration upgrade witnesses (the Lemma 11 mechanism).

    Requires the two problems to share an edge constraint over a common
    alphabet.  For every allowed node configuration ``C`` of the source
    the witness supplies an allowed node configuration ``C'`` of the
    target together with a position matching under the "at least as
    strong w.r.t. the edge constraint" relation.  If every source
    configuration has a witness the reduction is 0 rounds: if both
    endpoints of an edge upgrade their labels to at-least-as-strong
    ones, the edge configuration stays allowed (apply the strength
    property once per endpoint).

    Returns ``{source_config: chosen_target_config}`` or ``None``.
    """
    if source.delta != target.delta:
        return None
    shared_labels = set(source.alphabet) | set(target.alphabet)
    diagram = Diagram(source.edge_constraint, sorted(shared_labels, key=str))

    def upgradable(weak: Hashable, strong: Hashable) -> bool:
        return diagram.at_least_as_strong(strong, weak)

    witnesses: dict[Configuration, Configuration] = {}
    for configuration in source.node_constraint.configurations:
        _budget.checkpoint(
            phase="upgrade-reduction", witnesses=len(witnesses)
        )
        found = None
        # Equal deltas give every pair one arity: saturating the source
        # side is a perfect matching.
        for candidate in target.node_constraint.configurations:
            matched = saturating_matching(
                configuration.items, candidate.items, upgradable
            )
            if matched is not None:
                found = candidate
                break
        if found is None:
            return None
        witnesses[configuration] = found
    return witnesses


def compare_problems(first: Problem, second: Problem) -> str:
    """Order two problems by 0-round relabeling reductions.

    Returns one of ``"equivalent"``, ``"first_easier"`` (a solution of
    ``first`` relabels into one of ``second``... i.e. ``second`` is
    0-round solvable given ``first``), ``"second_easier"``, or
    ``"incomparable"``.  This is a *sufficient* comparison only — the
    absence of a uniform relabeling does not prove a complexity gap —
    but it is exactly the kind of certificate the paper's Lemma 11 and
    the relaxation steps produce.
    """
    forward = find_label_relabeling(first, second) is not None
    backward = find_label_relabeling(second, first) is not None
    if forward and backward:
        return "equivalent"
    if forward:
        return "first_easier"
    if backward:
        return "second_easier"
    return "incomparable"


def all_relax_into(
    configurations: Iterable[Configuration], targets: Iterable[Configuration]
) -> bool:
    """Whether every configuration relaxes into some target (Lemma 8)."""
    target_list = list(targets)
    return all(
        any(can_relax(configuration, target) for target in target_list)
        for configuration in configurations
    )
