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
any concrete parameters.  The kernel engine computes R by default; the
reference engine (``use_kernel=False``) is the oracle it is tested
against, and both must return the identical problem.
"""

from __future__ import annotations

from repro.core.diagram import Diagram
from repro.core.problem import Problem
from repro.core.round_elimination import R, RenamedProblem, rename_to_strings
from repro.problems.family import family_problem
from repro.robustness.errors import InvalidProblem

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
    return Problem.from_text(
        node_lines=lemma6_node_lines(delta, a, x),
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


def verify_lemma6(delta: int, a: int, x: int, *, use_kernel: bool = True) -> bool:
    """Mechanically check Lemma 6 for concrete parameters.

    Recomputes R(Pi_Delta(a, x)) with the round-elimination engine
    (the kernel unless ``use_kernel=False``), applies the lemma's
    renaming, and compares node and edge constraints with the claimed
    normal form.  Returns True on an exact match and raises
    ``AssertionError`` (with the differing part) on a mismatch, so
    failures are diagnosable.
    """
    computed = compute_r_of_family(delta, a, x, use_kernel=use_kernel).problem
    expected = expected_r_of_family(delta, a, x)
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
