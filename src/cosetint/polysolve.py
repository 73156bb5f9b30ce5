"""Polynomial-time deciders for the tractable classifier verdicts.

Both reduce to one membership test.  With S = a + G' a coset and
Q = G/G', the coset x* + H meets S^t exactly when the projection of
(a,...,a) - x* into Q^t lies in the span of the projected generators of
H: one linear system over Q^t with t*dim(Q) rows and one column per
H-generator, whose solution is the certificate.  G' enters only through
the quotient, built once from the at most dim(G) echelon pivots that
`classify.is_coset` returns with the coset test.  The homogeneous
variant first shrinks S to its dilation core, which never changes the
answer and is a coset precisely in the tractable cases.
"""

from __future__ import annotations

from operator import mul

from .groups import quotient_group, solve_linear_congruence
from .classify import dilation_core, is_coset
from .model import ProblemInstance, SolveResult, SubsetS


def solve_affine_coset(inst: ProblemInstance, S: SubsetS) -> SolveResult:
    """Decide the affine problem for empty or coset S, with certificate."""
    if S.group != inst.group:
        raise ValueError("subset and instance are over different groups")
    G, t = inst.group, inst.t
    nzero = (0,) * len(inst.hgens)
    if not S.elements:
        return SolveResult("yes", nzero) if t == 0 else SolveResult("no")
    hit = is_coset(S)
    if hit is None:
        raise ValueError("fast path needs S (its dilation core if x* = 0) empty or a coset")
    if t == 0:
        return SolveResult("yes", nzero)
    base, sub = hit
    qm = quotient_group(G, sub)
    qmod = qm.group.moduli
    if not qmod:
        return SolveResult("yes", nzero)  # G' = G, so S^t is all of G^t
    mat, rhs = [], []
    for i, x in enumerate(inst.xstar):
        for row, q in zip(qm.proj.matrix, qmod):
            mat.append([sum(map(mul, row, g[i])) % q for g in inst.hgens])
            rhs.append((sum(map(mul, row, base)) - sum(map(mul, row, x))) % q)
    coeffs = solve_linear_congruence(mat, rhs, qmod * t)
    if coeffs is None:
        return SolveResult("no")
    return SolveResult("yes", tuple(c % G.exponent for c in coeffs))


def solve_homogeneous_core(inst: ProblemInstance, S: SubsetS) -> SolveResult:
    """Decide the homogeneous problem when the dilation core is a coset.

    A yes certificate for the core is also one for S, since the core is
    contained in S.
    """
    if S.group != inst.group:
        raise ValueError("subset and instance are over different groups")
    if not inst.is_homogeneous():
        raise ValueError("homogeneous fast path needs xstar = 0")
    if inst.group.zero() in S:
        return SolveResult("yes", (0,) * len(inst.hgens))
    return solve_affine_coset(inst, dilation_core(S))
