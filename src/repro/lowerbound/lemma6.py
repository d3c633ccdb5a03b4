"""Lemma 6: the normal form of R(Pi_Delta(a, x)).

For ``x + 2 <= a <= Delta`` the lemma states that, after renaming,
R(Pi_Delta(a, x)) has node constraint

    [MUBQ]^(Delta-x)  [XMOUABPQ]^x
    [PQ]              [OUABPQ]^(Delta-1)
    [ABPQ]^a          [XMOUABPQ]^(Delta-a)

and edge constraint ``XQ, OB, AU, PM``, under the renaming

    {X} -> X, {M,X} -> M, {O,X} -> O, {M,O,X} -> U,
    {A,O,X} -> A, {M,A,O,X} -> B, {P,A,O,X} -> P, {M,P,A,O,X} -> Q.

:func:`verify_lemma6` recomputes R with the engine and compares, for
any concrete parameters.  The kernel engine computes R by default,
mapping the three condensed lines of Pi_Delta(a, x) to the three lines
above (Section 2.3's simple method); the reference engine
(``use_kernel=False``) is the oracle it is tested against, and both
must return the identical problem.

:class:`SharedPoint` holds the objects the Lemma 6 and Lemma 8 checks
read at one parameter point (R, the normal form, its parsed lines and
Pi_rel), each built on first use, so checks that share a holder build
each of them once.
"""

from __future__ import annotations

from functools import cached_property

from repro.core.configurations import CondensedConfiguration, parse_condensed
from repro.core.diagram import Diagram
from repro.core.problem import Problem
from repro.core.round_elimination import R, RenamedProblem, rename_to_strings
from repro.problems.family import family_problem, pi_rel_problem
from repro.robustness.errors import EngineMisuse, InvalidProblem

#: The renaming table of Lemma 6 (right-closed sets of Fig. 4 -> letters).
LEMMA6_RENAMING = {
    frozenset("X"): "X",
    frozenset("MX"): "M",
    frozenset("OX"): "O",
    frozenset("MOX"): "U",
    frozenset("AOX"): "A",
    frozenset("MAOX"): "B",
    frozenset("PAOX"): "P",
    frozenset("MPAOX"): "Q",
}

#: The labels of R(Pi_Delta(a, x)) after renaming.
R_FAMILY_LABELS = tuple("XMOUABPQ")

#: The node diagram of R(Pi_Delta(a, x)) (Figure 5), as Hasse edges
#: drawn from weaker to stronger label, derived from the constraints of
#: Lemma 6 (valid in the lemma's parameter range with x >= 1 and
#: a <= Delta - 1; boundary parameters may merge relations).
FIGURE5_HASSE_EDGES = frozenset(
    [
        ("X", "M"),
        ("X", "O"),
        ("M", "U"),
        ("O", "U"),
        ("O", "A"),
        ("U", "B"),
        ("A", "B"),
        ("A", "P"),
        ("B", "Q"),
        ("P", "Q"),
    ]
)


def _check_lemma6_range(delta: int, a: int, x: int) -> None:
    if not x + 2 <= a <= delta:
        raise InvalidProblem(
            f"Lemma 6 needs x + 2 <= a <= delta, got delta={delta}, a={a}, x={x}"
        )


def lemma6_node_lines(delta: int, a: int, x: int) -> list[str]:
    """The three condensed node lines of Lemma 6's normal form, with
    every zero-exponent part left out."""
    _check_lemma6_range(delta, a, x)
    lines = (
        (("[MUBQ]", delta - x), ("[XMOUABPQ]", x)),
        (("[PQ]", 1), ("[OUABPQ]", delta - 1)),
        (("[ABPQ]", a), ("[XMOUABPQ]", delta - a)),
    )
    return [
        " ".join(f"{token}^{exponent}" for token, exponent in line if exponent)
        for line in lines
    ]


def expected_r_of_family(delta: int, a: int, x: int) -> Problem:
    """The problem Lemma 6 claims R(Pi_Delta(a, x)) to be (renamed)."""
    return _normal_form(delta, a, x, lemma6_node_lines(delta, a, x))


def _normal_form(delta: int, a: int, x: int, node_lines: list[str]) -> Problem:
    return Problem.from_text(
        node_lines=node_lines,
        edge_lines=["X Q", "O B", "A U", "P M"],
        name=f"Lemma6(delta={delta}, a={a}, x={x})",
    )


def compute_r_of_family(
    delta: int, a: int, x: int, *, use_kernel: bool = True
) -> RenamedProblem:
    """R(Pi_Delta(a, x)) computed by the engine, renamed per Lemma 6.

    ``use_kernel=False`` computes it on the reference engine instead;
    both engines return the identical problem.
    """
    _check_lemma6_range(delta, a, x)
    intermediate = R(family_problem(delta, a, x), use_kernel=use_kernel)
    return rename_to_strings(
        intermediate,
        naming=LEMMA6_RENAMING,
        name=f"R(Pi(delta={delta}, a={a}, x={x}))",
    )


class SharedPoint:
    """The Lemma 6/8 inputs at one point (Delta, a, x) on one engine.

    Each attribute is built on first use and then kept:

    * ``renamed_r`` — R(Pi_Delta(a, x)) renamed per Lemma 6
      (:func:`compute_r_of_family` on the holder's engine);
    * ``node_lines`` — the normal form's condensed node lines, from
      which ``normal_form`` (the problem :func:`expected_r_of_family`
      builds) and ``condensed_lines`` (the same lines parsed) are
      derived, so the two always agree;
    * ``pi_rel`` — Pi_rel from Lemma 8's proof.

    A holder lives for one call: ``build_certificate`` makes one for
    its representative point and passes it to the three verifiers,
    and a verifier called without one makes its own.  Nothing is kept
    across calls.
    """

    def __init__(
        self, delta: int, a: int, x: int, *, use_kernel: bool = True
    ) -> None:
        _check_lemma6_range(delta, a, x)
        self.delta, self.a, self.x = delta, a, x
        self.use_kernel = use_kernel

    @classmethod
    def for_call(
        cls, delta: int, a: int, x: int, use_kernel: bool, shared: SharedPoint | None
    ) -> SharedPoint:
        """``shared`` when given (it must hold this point on this
        engine), otherwise a fresh holder."""
        if shared is None:
            return cls(delta, a, x, use_kernel=use_kernel)
        if (shared.delta, shared.a, shared.x, shared.use_kernel) != (
            delta, a, x, use_kernel
        ):
            raise EngineMisuse(
                f"shared inputs hold delta={shared.delta}, a={shared.a}, "
                f"x={shared.x}, use_kernel={shared.use_kernel}; the call "
                f"asks for delta={delta}, a={a}, x={x}, use_kernel={use_kernel}"
            )
        return shared

    @cached_property
    def renamed_r(self) -> RenamedProblem:
        return compute_r_of_family(
            self.delta, self.a, self.x, use_kernel=self.use_kernel
        )

    @cached_property
    def node_lines(self) -> list[str]:
        return lemma6_node_lines(self.delta, self.a, self.x)

    @cached_property
    def normal_form(self) -> Problem:
        return _normal_form(self.delta, self.a, self.x, self.node_lines)

    @cached_property
    def condensed_lines(self) -> list[CondensedConfiguration]:
        return [parse_condensed(line) for line in self.node_lines]

    @cached_property
    def pi_rel(self) -> Problem:
        return pi_rel_problem(self.delta, self.a, self.x)


def verify_lemma6(
    delta: int,
    a: int,
    x: int,
    *,
    use_kernel: bool = True,
    shared: SharedPoint | None = None,
) -> bool:
    """Mechanically check Lemma 6 for concrete parameters.

    Recomputes R(Pi_Delta(a, x)) with the round-elimination engine
    (the kernel unless ``use_kernel=False``), applies the lemma's
    renaming, and compares node and edge constraints with the claimed
    normal form.  Returns True on an exact match and raises
    ``AssertionError`` (with the differing part) on a mismatch, so
    failures are diagnosable.

    The kernel's R keeps the condensed lines of its existential step,
    and so does the normal form, so the node constraints match line for
    line without expanding either; any other pair (the reference
    engine's R, or lines that differ) is compared configuration by
    configuration.

    R and the normal form come from ``shared``, a :class:`SharedPoint`
    for the same point and engine, when the caller passes one (the
    certificate shares its R with :func:`verify_lemma8_direct` and its
    normal form with :func:`verify_lemma8_argument`, within one call);
    otherwise this call builds its own.
    """
    shared = SharedPoint.for_call(delta, a, x, use_kernel, shared)
    computed = shared.renamed_r.problem
    expected = shared.normal_form
    if computed.edge_constraint != expected.edge_constraint:
        raise AssertionError(
            "edge constraint mismatch:\ncomputed:\n"
            f"{computed.edge_constraint.render()}\nexpected:\n"
            f"{expected.edge_constraint.render()}"
        )
    if computed.node_constraint != expected.node_constraint:
        raise AssertionError(
            "node constraint mismatch:\ncomputed:\n"
            f"{computed.node_constraint.render()}\nexpected:\n"
            f"{expected.node_constraint.render()}"
        )
    return True


def figure5_diagram(delta: int, a: int, x: int) -> Diagram:
    """The node diagram of R(Pi_Delta(a, x)) (Figure 5), computed."""
    problem = expected_r_of_family(delta, a, x)
    return Diagram(problem.node_constraint, problem.alphabet)
