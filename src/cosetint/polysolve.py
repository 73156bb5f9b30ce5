"""One decision path: classify once, then the polynomial algorithm or the search.

`decide` classifies (G, S) for the variant.  An in-P verdict hands its
`Classification` to `_solve_in_quotient`; an NP-complete one goes to
`model.oracle_solve`.  The classification already holds the coset
a + G' (of S, or of its dilation core in the homogeneous variant, which
never changes the answer), so nothing re-derives it.  With Q = G/G', the
coset x* + H meets (a + G')^t exactly when the projection of
(a,...,a) - x* into Q^t lies in the span of the projected generators of
H: one linear system over Q^t with t*dim(Q) rows and one column per
H-generator, whose solution is the certificate.  G' enters only through
the quotient, built once from the at most dim(G) echelon pivots that
`classify.is_coset` returned.  A certificate for the core is also one for
S, since the core is contained in S.
"""

from __future__ import annotations

from operator import mul

from .groups import quotient_group, solve_linear_congruence
from .classify import NP_COMPLETE, Classification, classify_affine, classify_homogeneous
from .model import DEFAULT_BUDGET, ProblemInstance, SolveResult, SubsetS, oracle_solve


def _classify(inst: ProblemInstance, S: SubsetS, variant: str) -> Classification:
    """The checks shared by every entry point, then the variant's classifier."""
    if S.group != inst.group:
        raise ValueError("subset and instance are over different groups")
    if variant == "P":
        return classify_affine(inst.group, S)
    if variant != "Pi":
        raise ValueError(f"unknown variant {variant!r}")
    if not inst.is_homogeneous():
        raise ValueError("the homogeneous variant needs xstar = 0")
    return classify_homogeneous(inst.group, S)


def _solve_in_quotient(inst: ProblemInstance, cls: Classification) -> SolveResult:
    """Decide an in-P verdict from its base and subgroup; no subgroup means
    the set (or its core) is empty."""
    if cls.verdict == NP_COMPLETE:
        raise ValueError("fast path needs S (its dilation core if x* = 0) empty or a coset")
    G, t = inst.group, inst.t
    nzero = (0,) * len(inst.hgens)
    if t == 0:
        return SolveResult("yes", nzero)
    if cls.subgroup is None:
        return SolveResult("no")
    qm = quotient_group(G, cls.subgroup)
    qmod = qm.group.moduli
    if not qmod:
        return SolveResult("yes", nzero)  # G' = G, so S^t is all of G^t
    mat, rhs = [], []
    for i, x in enumerate(inst.xstar):
        for row, q in zip(qm.proj.matrix, qmod):
            mat.append([sum(map(mul, row, g[i])) % q for g in inst.hgens])
            rhs.append((sum(map(mul, row, cls.base)) - sum(map(mul, row, x))) % q)
    coeffs = solve_linear_congruence(mat, rhs, qmod * t)
    if coeffs is None:
        return SolveResult("no")
    return SolveResult("yes", tuple(c % G.exponent for c in coeffs))


def decide(inst: ProblemInstance, S: SubsetS, variant: str = "P",
           budget: int = DEFAULT_BUDGET) -> SolveResult:
    """Answer the variant's question: the polynomial algorithm when (G, S) is
    in P, else the search oracle within `budget` nodes."""
    cls = _classify(inst, S, variant)
    if cls.verdict == NP_COMPLETE:
        return oracle_solve(inst, S, budget=budget)
    return _solve_in_quotient(inst, cls)


def solve_affine_coset(inst: ProblemInstance, S: SubsetS) -> SolveResult:
    """Decide the affine problem for empty or coset S, with certificate."""
    return _solve_in_quotient(inst, _classify(inst, S, "P"))


def solve_homogeneous_core(inst: ProblemInstance, S: SubsetS) -> SolveResult:
    """Decide the homogeneous problem when the dilation core is empty or a coset."""
    return _solve_in_quotient(inst, _classify(inst, S, "Pi"))
