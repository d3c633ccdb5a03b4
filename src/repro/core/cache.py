"""Content-addressed operator cache for the round-elimination pipeline.

Every ``run_chain`` / ``build_certificate`` invocation replays the same
deterministic R / Rbar steps: the Lemma 13 chain for a given
``(Delta, x)`` is a fixed sequence, and the same problems recur across
chains, benchmarks, goldens, and CI.  This module memoizes the
expensive operators behind a *renaming-invariant* fingerprint, so a
result computed once is reused for every isomorphic copy of the same
problem — across engines (the reference and kernel engines return
identical objects by contract), across processes (opt-in on-disk tier),
and across label renamings.

Canonical form
==============

:func:`canonical_form` orders the alphabet canonically: labels start in
the partition induced by :meth:`Problem._label_signature`, the
partition is refined Weisfeiler-Leman style (each round re-colors a
label by the color multisets of its node-configuration co-occurrences
and of its edge-compatible labels), and remaining ties are broken by
enumerating the permutations within each color block and keeping the
lexicographically smallest constraint encoding.  The encoding —
alphabet size plus both constraints over canonical integer ids — fully
determines the problem up to renaming, so two problems share a
fingerprint *exactly* when they are isomorphic (property-tested against
:meth:`Problem.find_isomorphism` in ``tests/test_cache.py``).

Result transport
================

The labels of ``R(P)`` / ``Rbar(P)`` are frozensets of *input* labels,
so a cached result is stored in canonical coordinates (each output
label as a sorted list of canonical input ids) and transported back
through the inverse canonical order on a hit.  Both operators are
equivariant under label bijections, which makes the transport sound;
the decoded alphabet is re-sorted with the same ``_set_sort_key`` the
engines use, so downstream renaming is byte-identical to a cold run.

Failure caching: an :class:`InvalidProblem` raised by an operator is a
*verdict* about the problem (its context carries only
renaming-invariant counts) and is cached and re-raised on hits.
Budget trips (:class:`BudgetExceeded` and friends) depend on the
ambient budget, never on the problem alone, and are never cached.

Two tiers
=========

:class:`OperatorCache` keeps a bounded in-process LRU plus an opt-in
on-disk store (``REPRO_CACHE_DIR`` or ``~/.cache/repro``).  Disk
entries reuse the sealed atomic checkpoint format of
:mod:`repro.core.io`: a torn or tampered entry fails its SHA-256 seal,
is evicted, and the result is recomputed — corruption is never trusted.
Keys are ``{operator}-v{ENGINE_VERSION}-{fingerprint}``; bumping
:data:`ENGINE_VERSION` invalidates every stored entry at once.
"""

from __future__ import annotations

import itertools
import os
from collections import OrderedDict
from collections.abc import Callable, Hashable, Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path

from repro.core.configurations import Configuration
from repro.core.constraints import Constraint
from repro.core.io import (
    canonical_json,
    payload_digest,
    read_json_checkpoint,
    write_json_checkpoint,
)
from repro.core.labels import Alphabet, render_label
from repro.core.problem import Problem
from repro.observability import trace as _trace
from repro.robustness import budget as _budget
from repro.robustness.errors import CheckpointCorrupt, EngineMisuse, InvalidProblem

#: Bump to invalidate every cached operator result at once (key schema
#: includes it, so stale entries are simply never looked up again).
ENGINE_VERSION = 1


def _set_sort_key(labels: frozenset) -> tuple:
    """The order of set labels in every operator's output alphabet.

    The one definition: both engines sort ``R`` / ``Rbar`` alphabets with
    it, and the cache re-sorts transported alphabets with it, so warm
    and cold results rename identically.
    """
    return (len(labels), sorted(render_label(label) for label in labels))


# ---------------------------------------------------------------------------
# Canonical form and fingerprint
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalForm:
    """A problem's renaming-invariant identity.

    ``order[i]`` is the actual label with canonical id ``i``;
    ``encoding`` is the constraint structure over canonical ids;
    ``digest`` is the content address (SHA-256 of the encoding).
    """

    order: tuple
    encoding: tuple
    digest: str


def _encode_constraints(problem: Problem, index: dict) -> tuple:
    node = tuple(sorted(
        tuple(sorted(index[label] for label in configuration.items))
        for configuration in problem.node_constraint.configurations
    ))
    edge = tuple(sorted(
        tuple(sorted(index[label] for label in configuration.items))
        for configuration in problem.edge_constraint.configurations
    ))
    return (len(problem.alphabet), node, edge)


def _refined_colors(problem: Problem, labels: list) -> dict:
    """Stable WL-style coloring, invariant under label renaming."""
    signatures = {label: problem._label_signature(label) for label in labels}
    ranked = sorted(set(signatures.values()))
    color = {label: ranked.index(signatures[label]) for label in labels}
    while True:  # reprolint: disable=AN002 -- WL refinement coarsens until stable, at most len(labels) rounds
        profiles = {}
        for label in labels:
            node_profile = tuple(sorted(
                tuple(sorted(color[member] for member in configuration.items))
                for configuration in
                problem.node_constraint.configurations_containing(label)
            ))
            compat_profile = tuple(sorted(
                color[member] for member in problem.compatible_labels(label)
            ))
            profiles[label] = (color[label], node_profile, compat_profile)
        ranked_profiles = sorted(set(profiles.values()))
        refined = {
            label: ranked_profiles.index(profiles[label]) for label in labels
        }
        if len(set(refined.values())) == len(set(color.values())):
            return refined
        color = refined


def _block_orders(blocks: list[list]) -> Iterator[list]:
    """All label orders that respect the block sequence."""
    for arrangement in itertools.product(
        *(itertools.permutations(block) for block in blocks)
    ):
        yield [label for block in arrangement for label in block]


def canonical_form(problem: Problem) -> CanonicalForm:
    """The canonical form, memoized on the problem instance."""
    cached = problem._canonical_cache
    if cached is not None:
        return cached
    labels = list(problem.alphabet)
    color = _refined_colors(problem, labels)
    blocks_by_color: dict[int, list] = {}
    for label in labels:
        blocks_by_color.setdefault(color[label], []).append(label)
    blocks = [blocks_by_color[key] for key in sorted(blocks_by_color)]
    best_encoding: tuple | None = None
    best_order: list | None = None
    for order in _block_orders(blocks):
        _budget.checkpoint(phase="canonicalization")
        index = {label: position for position, label in enumerate(order)}
        encoding = _encode_constraints(problem, index)
        if best_encoding is None or encoding < best_encoding:
            best_encoding = encoding
            best_order = order
    form = CanonicalForm(
        order=tuple(best_order),
        encoding=best_encoding,
        digest=payload_digest(best_encoding),
    )
    problem._canonical_cache = form
    return form


def fingerprint(problem: Problem) -> str:
    """The renaming-invariant content address of ``problem``.

    Equal for two problems exactly when they are isomorphic.
    """
    return canonical_form(problem).digest


# ---------------------------------------------------------------------------
# Result codecs (canonical coordinates <-> actual labels)
# ---------------------------------------------------------------------------

def _encode_result(result: Problem, index: dict) -> dict:
    """A set-label operator result in the input's canonical coordinates."""
    ids_of = {
        label: tuple(sorted(index[member] for member in label))
        for label in result.alphabet
    }
    ordered = sorted(ids_of.values())
    position = {ids: slot for slot, ids in enumerate(ordered)}

    def constraint_rows(constraint: Constraint) -> list[list[int]]:
        return sorted(
            sorted(position[ids_of[label]] for label in configuration.items)
            for configuration in constraint.configurations
        )

    return {
        "labels": [list(ids) for ids in ordered],
        "node": constraint_rows(result.node_constraint),
        "edge": constraint_rows(result.edge_constraint),
    }


def _decode_result(payload: dict, order: tuple, name: str) -> Problem:
    out_labels = [
        frozenset(order[label_id] for label_id in ids)
        for ids in payload["labels"]
    ]
    node = Constraint(
        Configuration(out_labels[slot] for slot in row)
        for row in payload["node"]
    )
    edge = Constraint(
        Configuration(out_labels[slot] for slot in row)
        for row in payload["edge"]
    )
    sigma = sorted(out_labels, key=_set_sort_key)
    return Problem(Alphabet(sigma), node, edge, name=name)


# ---------------------------------------------------------------------------
# The two-tier store
# ---------------------------------------------------------------------------

def default_cache_dir() -> Path:
    """``REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override).expanduser()
    return Path("~/.cache/repro").expanduser()


class OperatorCache:
    """In-process LRU plus an optional sealed on-disk JSON store."""

    def __init__(
        self, directory: str | Path | None = None, *, max_entries: int = 4096
    ) -> None:
        self.directory = Path(directory).expanduser() if directory else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self.max_entries = max_entries
        self._memory: OrderedDict[str, dict] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.stored_bytes = 0
        self.corrupt_evictions = 0

    def path_for(self, key: str) -> Path:
        if self.directory is None:
            raise EngineMisuse("cache has no on-disk tier")
        return self.directory / f"{key}.json"

    def lookup(self, key: str) -> dict | None:
        """The stored payload for ``key``, or ``None`` on a miss.

        A disk entry that fails its integrity seal is evicted and
        reported as a miss — corruption is recomputed, never trusted.
        """
        payload = self._memory.get(key)
        if payload is not None:
            self._memory.move_to_end(key)
        elif self.directory is not None:
            path = self.path_for(key)
            if path.exists():
                try:
                    payload = read_json_checkpoint(path)
                except CheckpointCorrupt:
                    self.corrupt_evictions += 1
                    _trace.add("cache.corrupt")
                    _trace.event("cache.corrupt", key=key)
                    try:
                        path.unlink()
                    except OSError:
                        pass
        if payload is None:
            self.misses += 1
            _trace.add("cache.miss")
            return None
        self.hits += 1
        _trace.add("cache.hit")
        self._remember(key, payload)
        return payload

    def store(self, key: str, payload: dict) -> None:
        """Store ``payload`` in both tiers (atomically on disk)."""
        self._remember(key, payload)
        size = len(canonical_json(payload).encode("utf-8"))
        self.stored_bytes += size
        _trace.add("cache.bytes", size)
        if self.directory is not None:
            write_json_checkpoint(self.path_for(key), payload)

    def _remember(self, key: str, payload: dict) -> None:
        self._memory[key] = payload
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stored_bytes": self.stored_bytes,
            "corrupt_evictions": self.corrupt_evictions,
            "memory_entries": len(self._memory),
        }

    def summary_line(self) -> str:
        return (
            f"cache: hits={self.hits} misses={self.misses} "
            f"stored_bytes={self.stored_bytes}"
        )


_ACTIVE_CACHE: ContextVar[OperatorCache | None] = ContextVar(
    "repro_active_cache", default=None
)


def active_cache() -> OperatorCache | None:
    """The ambient cache installed by :func:`caching`, if any."""
    return _ACTIVE_CACHE.get()


@contextmanager
def caching(cache: OperatorCache | None) -> Iterator[OperatorCache | None]:
    """Install ``cache`` as the ambient operator cache.

    ``caching(None)`` is a no-op passthrough, mirroring the ambient
    budget and tracer helpers.
    """
    if cache is None:
        yield None
        return
    token = _ACTIVE_CACHE.set(cache)
    try:
        yield cache
    finally:
        _ACTIVE_CACHE.reset(token)


def cache_key(operator: str, digest: str) -> str:
    """``(operator, engine_version, fingerprint)`` as a flat key."""
    return f"{operator}-v{ENGINE_VERSION}-{digest}"


# ---------------------------------------------------------------------------
# Memoized operator wrappers
# ---------------------------------------------------------------------------

def _operator_name(operator: str, problem: Problem) -> str:
    return f"{operator}({problem.name})" if problem.name else operator


def cached_problem_operator(
    operator: str, problem: Problem, compute: Callable[[], Problem]
) -> Problem:
    """Memoize a set-label operator (R / Rbar) through the ambient cache.

    On a miss the operator runs unchanged and the result is stored in
    canonical coordinates; on a hit the stored result is transported
    back into the actual label space of ``problem``.  A cached
    :class:`InvalidProblem` verdict is re-raised with its original
    message and context.
    """
    cache = active_cache()
    if cache is None:
        return compute()
    form = canonical_form(problem)
    key = cache_key(operator, form.digest)
    payload = cache.lookup(key)
    if payload is not None:
        error = payload.get("error")
        if error is not None:
            raise InvalidProblem(error["message"], **error["context"])
        return _decode_result(
            payload, form.order, _operator_name(operator, problem)
        )
    try:
        result = compute()
    except InvalidProblem as error:
        cache.store(
            key,
            {"error": {"message": error.message, "context": error.context}},
        )
        raise
    index = {label: position for position, label in enumerate(form.order)}
    cache.store(key, _encode_result(result, index))
    return result


def _encode_condensation(result: Problem, index: dict) -> dict:
    """A condensation result in the input's canonical coordinates.

    Unlike :func:`_encode_result`, the labels of a condensed problem
    are (surviving) *input* labels, so the payload stores their
    canonical ids directly rather than id sets.
    """
    def constraint_rows(constraint: Constraint) -> list[list[int]]:
        return sorted(
            sorted(index[label] for label in configuration.items)
            for configuration in constraint.configurations
        )

    return {
        "labels": sorted(index[label] for label in result.alphabet),
        "node": constraint_rows(result.node_constraint),
        "edge": constraint_rows(result.edge_constraint),
    }


def _decode_condensation(payload: dict, problem: Problem, order: tuple) -> Problem:
    survivors = frozenset(order[label_id] for label_id in payload["labels"])
    sigma = [label for label in problem.alphabet if label in survivors]
    node = Constraint(
        Configuration(order[label_id] for label_id in row)
        for row in payload["node"]
    )
    edge = Constraint(
        Configuration(order[label_id] for label_id in row)
        for row in payload["edge"]
    )
    return Problem(Alphabet(sigma), node, edge, name=problem.name)


def cached_condensation(
    problem: Problem, compute: Callable[[], Problem]
) -> Problem:
    """Memoize :func:`repro.core.self_reduction.condense_problem`.

    The condensation keeps a subset of the *input* labels (it never
    invents set labels), so the payload stores surviving canonical ids
    plus the restricted constraint rows; a hit transports them back
    through the inverse canonical order and re-sorts the alphabet in
    the input problem's own order — byte-identical to a cold run, which
    is sound because every condensation decision is keyed by canonical
    ids (the operator is a pure function of the canonical encoding).
    """
    cache = active_cache()
    if cache is None:
        return compute()
    form = canonical_form(problem)
    key = cache_key("condense", form.digest)
    payload = cache.lookup(key)
    if payload is not None:
        return _decode_condensation(payload, problem, form.order)
    result = compute()
    index = {label: position for position, label in enumerate(form.order)}
    cache.store(key, _encode_condensation(result, index))
    return result


def cached_verdict(
    operator: str, problem: Problem, compute: Callable[[], bool]
) -> bool:
    """Memoize a boolean predicate (zero-round solvability verdicts)."""
    cache = active_cache()
    if cache is None:
        return compute()
    key = cache_key(operator, fingerprint(problem))
    payload = cache.lookup(key)
    if payload is not None:
        return bool(payload["value"])
    value = bool(compute())
    cache.store(key, {"value": value})
    return value


def cached_relabeling(
    source: Problem, target: Problem, compute: Callable[[], dict | None]
) -> dict | None:
    """Memoize :func:`repro.core.relaxation.find_label_relabeling`.

    Keyed by the fingerprint *pair*; the witness is stored as canonical
    id pairs and transported through both canonical orders on a hit, so
    it stays a valid relabeling for any isomorphic source/target pair.
    """
    cache = active_cache()
    if cache is None:
        return compute()
    source_form = canonical_form(source)
    target_form = canonical_form(target)
    key = cache_key("relabel", f"{source_form.digest}-{target_form.digest}")
    payload = cache.lookup(key)
    if payload is not None:
        witness = payload["witness"]
        if witness is None:
            return None
        return {
            source_form.order[source_id]: target_form.order[target_id]
            for source_id, target_id in witness
        }
    witness = compute()
    if witness is None:
        cache.store(key, {"witness": None})
    else:
        source_index = {
            label: position
            for position, label in enumerate(source_form.order)
        }
        target_index = {
            label: position
            for position, label in enumerate(target_form.order)
        }
        cache.store(
            key,
            {
                "witness": sorted(
                    [source_index[a], target_index[b]]
                    for a, b in witness.items()
                )
            },
        )
    return witness


__all__ = [
    "ENGINE_VERSION",
    "CanonicalForm",
    "canonical_form",
    "fingerprint",
    "default_cache_dir",
    "OperatorCache",
    "active_cache",
    "caching",
    "cache_key",
    "cached_problem_operator",
    "cached_condensation",
    "cached_verdict",
    "cached_relabeling",
]
