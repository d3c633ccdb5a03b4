"""Locally checkable problems as (Sigma, N, E) triples (paper, Sec. 2.2).

A :class:`Problem` bundles an alphabet, a node constraint of arity
Delta, and an edge constraint of arity 2.  It offers normalization
(dropping labels that cannot ever be used consistently), renaming, and
isomorphism testing (equality up to a label bijection), all of which
the proof pipeline of Section 3 relies on.
"""

from __future__ import annotations

import itertools
from collections.abc import Hashable, Iterable

from repro.core.constraints import Constraint
from repro.core.labels import Alphabet, render_label
from repro.robustness.errors import InvalidProblem


def _first_configuration_using(
    node_constraint: Constraint, edge_constraint: Constraint, labels: frozenset
) -> str:
    """Render the first configuration touching any of ``labels``."""
    for constraint in (node_constraint, edge_constraint):
        for configuration in constraint:
            if configuration.support() & labels:
                return configuration.render()
    return "<none>"


def _check_duplicate_node_lines(node_lines: Iterable[str], name: str = "") -> None:
    """Reject a node configuration spelled out twice in different ways.

    Only *simple* lines — those expanding to a single configuration —
    participate: two distinct such lines denoting the same multiset
    (``M X^2`` vs ``X^2 M``) are always a typo and raise
    :class:`InvalidProblem` naming the configuration.  Disjunction
    lines (``[MUBQ]^4``) overlap across lines by design (the Lemma 6
    normal forms rely on it), and repeating the identical line is
    tolerated as an idempotent mention (degenerate family parameters
    such as ``Pi(a=0, x=Delta)`` produce it legitimately).
    """
    from repro.core.configurations import parse_condensed

    seen: dict = {}
    for line in node_lines:
        condensed = parse_condensed(line) if isinstance(line, str) else line
        # A genuine disjunction always yields at least two
        # configurations, so such a line is skipped unexpanded; every
        # other line expands to exactly one.
        if any(len(disjunction) > 1 for disjunction, _ in condensed.parts):
            continue
        rendered = (
            line.strip() if isinstance(line, str) else condensed.render()
        )
        (configuration,) = condensed.expand()
        previous = seen.get(configuration)
        if previous is not None and previous != rendered:
            raise InvalidProblem(
                "duplicate node configuration "
                f"{configuration.render()!r} produced by distinct "
                f"lines {previous!r} and {rendered!r}",
                configuration=configuration.render(),
                name=name or "<unnamed>",
            )
        seen[configuration] = rendered


class Problem:
    """A locally checkable problem in the round-elimination formalism."""

    __slots__ = (
        "_alphabet",
        "_node_constraint",
        "_edge_constraint",
        "name",
        "_compat_cache",
        "_kernel_cache",
        "_canonical_cache",
    )

    def __init__(
        self,
        alphabet: Alphabet | Iterable[Hashable],
        node_constraint: Constraint,
        edge_constraint: Constraint,
        name: str = "",
    ) -> None:
        if not isinstance(alphabet, Alphabet):
            alphabet = Alphabet(alphabet)
        if edge_constraint.arity != 2:
            raise InvalidProblem(
                "edge constraint must have arity 2",
                arity=edge_constraint.arity,
                name=name or "<unnamed>",
            )
        stray_node = node_constraint.labels_used() - set(alphabet)
        stray_edge = edge_constraint.labels_used() - set(alphabet)
        if stray_node or stray_edge:
            offending = _first_configuration_using(
                node_constraint, edge_constraint, stray_node | stray_edge
            )
            raise InvalidProblem(
                "constraints use labels outside the alphabet: "
                f"{sorted(map(render_label, stray_node | stray_edge))}",
                configuration=offending,
                alphabet_size=len(alphabet),
                name=name or "<unnamed>",
            )
        self._alphabet = alphabet
        self._node_constraint = node_constraint
        self._edge_constraint = edge_constraint
        self.name = name
        self._compat_cache: dict = {}
        self._kernel_cache = None
        self._canonical_cache = None

    @classmethod
    def from_text(
        cls,
        node_lines: Iterable[str],
        edge_lines: Iterable[str],
        name: str = "",
    ) -> "Problem":
        """Build a problem from condensed-configuration strings.

        The alphabet is inferred from the labels that occur.  Example
        (MIS with Delta = 3, Section 2.2 of the paper)::

            Problem.from_text(["M^3", "P O^2"], ["M [PO]", "O O"])

        Validation happens here, where the offending line can still be
        named: mixed arities raise :class:`InvalidProblem`, and so does
        a node configuration produced by two *different* condensed
        lines (a duplicate that would otherwise silently collapse —
        repeating the identical line is tolerated as an idempotent
        mention).  Edge lines legitimately re-mention pairs (the
        paper's ``M [PAOX]`` / ``X [MPAOX]`` style both contain
        ``MX``), so the duplicate check applies to node lines only.
        """
        node_lines = list(node_lines)
        edge_lines = list(edge_lines)
        _check_duplicate_node_lines(node_lines, name=name)
        try:
            node_constraint = Constraint.from_condensed(node_lines)
            edge_constraint = Constraint.from_condensed(edge_lines)
        except InvalidProblem:
            raise
        except ValueError as error:
            raise InvalidProblem(
                f"malformed constraint lines: {error}",
                name=name or "<unnamed>",
            ) from error
        labels = sorted(
            node_constraint.labels_used() | edge_constraint.labels_used(),
            key=render_label,
        )
        return cls(Alphabet(labels), node_constraint, edge_constraint, name=name)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Problem):
            return NotImplemented
        return (
            self._node_constraint == other._node_constraint
            and self._edge_constraint == other._edge_constraint
        )

    def __hash__(self) -> int:
        return hash((self._node_constraint, self._edge_constraint))

    def __repr__(self) -> str:
        label = self.name or "Problem"
        return (
            f"<{label}: delta={self.delta}, "
            f"{len(self._alphabet)} labels, "
            f"{len(self._node_constraint)} node / "
            f"{len(self._edge_constraint)} edge configurations>"
        )

    @property
    def alphabet(self) -> Alphabet:
        """The label alphabet Sigma."""
        return self._alphabet

    @property
    def node_constraint(self) -> Constraint:
        """The node constraint N (arity Delta)."""
        return self._node_constraint

    @property
    def edge_constraint(self) -> Constraint:
        """The edge constraint E (arity 2)."""
        return self._edge_constraint

    @property
    def delta(self) -> int:
        """The arity of the node constraint (the degree Delta)."""
        return self._node_constraint.arity

    def edge_allows(self, left: Hashable, right: Hashable) -> bool:
        """Whether the pair ``left right`` is an allowed edge configuration."""
        return self._edge_constraint.allows((left, right))

    def compatible_labels(self, label: Hashable) -> frozenset:
        """All labels that may sit on the other endpoint of ``label``.

        Memoized per label: these single-label images generate the
        Galois closure lattice of the maximization step, which used to
        recompute them on every ``partner`` call.
        """
        cached = self._compat_cache.get(label)
        if cached is None:
            cached = frozenset(
                other for other in self._alphabet if self.edge_allows(label, other)
            )
            self._compat_cache[label] = cached
        return cached

    def self_compatible_labels(self) -> frozenset:
        """Labels L with LL allowed on an edge (used by Lemmas 12 and 15)."""
        return frozenset(
            label for label in self._alphabet if self.edge_allows(label, label)
        )

    def used_labels(self) -> frozenset:
        """Labels occurring in both constraints (usable in a solution).

        A label missing from the node constraint can never be output by
        a node; a label missing from the edge constraint can never sit
        on an edge.  Either way it is dead weight.
        """
        return self._node_constraint.labels_used() & self._edge_constraint.labels_used()

    def normalized(self) -> "Problem":
        """Iteratively drop unusable labels and the configurations using them.

        The result has every remaining label occurring in both
        constraints.  Raises ``ValueError`` if nothing remains (the
        problem is unsatisfiable even locally).
        """
        node_constraint = self._node_constraint
        edge_constraint = self._edge_constraint
        while True:
            usable = node_constraint.labels_used() & edge_constraint.labels_used()
            if usable == node_constraint.labels_used() | edge_constraint.labels_used():
                break
            try:
                node_constraint = node_constraint.restrict_to(usable)
                edge_constraint = edge_constraint.restrict_to(usable)
            except ValueError as error:
                raise InvalidProblem(
                    "normalization removed every configuration "
                    "(the problem is locally unsatisfiable)",
                    alphabet_size=len(self._alphabet),
                    name=self.name or "<unnamed>",
                ) from error
        alphabet = Alphabet(
            label for label in self._alphabet if label in usable
        )
        return Problem(alphabet, node_constraint, edge_constraint, name=self.name)

    def rename(self, mapping: dict, name: str = "") -> "Problem":
        """Apply a label bijection, producing an isomorphic problem."""
        targets = [mapping.get(label, label) for label in self._alphabet]
        if len(set(targets)) != len(targets):
            raise InvalidProblem(
                "renaming is not injective on the alphabet",
                alphabet_size=len(self._alphabet),
                name=self.name or "<unnamed>",
            )
        return Problem(
            Alphabet(targets),
            self._node_constraint.rename(mapping),
            self._edge_constraint.rename(mapping),
            name=name or self.name,
        )

    def _label_signature(self, label: Hashable) -> tuple:
        """A renaming-invariant fingerprint of a label, used to prune
        the isomorphism search."""
        node_occurrences = sorted(
            configuration.count(label)
            for configuration in self._node_constraint.configurations_containing(label)
        )
        edge_occurrences = sorted(
            configuration.count(label)
            for configuration in self._edge_constraint.configurations_containing(label)
        )
        return (
            tuple(node_occurrences),
            tuple(edge_occurrences),
            self.edge_allows(label, label),
            len(self.compatible_labels(label)),
        )

    def find_isomorphism(self, other: "Problem") -> dict | None:
        """A label bijection turning ``self`` into ``other``, or ``None``.

        Brute-force search over signature-compatible bijections; fine
        for the constant-size alphabets of this paper (at most 8).
        """
        if len(self._alphabet) != len(other._alphabet):
            return None
        if self.delta != other.delta:
            return None
        if len(self._node_constraint) != len(other._node_constraint):
            return None
        if len(self._edge_constraint) != len(other._edge_constraint):
            return None
        own_labels = list(self._alphabet)
        own_signatures = {label: self._label_signature(label) for label in own_labels}
        other_signatures = {
            label: other._label_signature(label) for label in other._alphabet
        }
        candidates = {
            label: [
                target
                for target in other._alphabet
                if other_signatures[target] == own_signatures[label]
            ]
            for label in own_labels
        }
        if any(not options for options in candidates.values()):
            return None
        own_labels.sort(key=lambda label: len(candidates[label]))
        for assignment in itertools.product(
            *(candidates[label] for label in own_labels)
        ):
            if len(set(assignment)) != len(assignment):
                continue
            mapping = dict(zip(own_labels, assignment))
            if (
                self._node_constraint.rename(mapping) == other._node_constraint
                and self._edge_constraint.rename(mapping) == other._edge_constraint
            ):
                return mapping
        return None

    def is_isomorphic(self, other: "Problem") -> bool:
        """Whether the problems are equal up to renaming labels."""
        return self.find_isomorphism(other) is not None

    def render(self) -> str:
        """Paper-style listing of alphabet and both constraints."""
        lines = []
        if self.name:
            lines.append(f"problem: {self.name}")
        lines.append(
            "labels: " + " ".join(render_label(label) for label in self._alphabet)
        )
        lines.append("node constraint:")
        lines.extend("  " + configuration.render() for configuration in self._node_constraint)
        lines.append("edge constraint:")
        lines.extend("  " + configuration.render() for configuration in self._edge_constraint)
        return "\n".join(lines)
