"""Polynomial-time deciders for the tractable classifier verdicts.

Both reduce to one subgroup membership test in G^t: a coset x* + H
meets (a + G')^t exactly when (a,...,a) - x* lies in H + G'^t.  The
homogeneous variant first shrinks S to its dilation core, which never
changes the answer and is a coset precisely in the tractable cases.
"""

from __future__ import annotations

from typing import List, Tuple

from .groups import (
    FiniteAbelianGroup,
    SubgroupGens,
    subgroup_membership,
    subgroup_reduce_gens,
)
from .classify import dilation_core, is_coset
from .model import ProblemInstance, SolveResult, SubsetS


def _flatten(seq) -> Tuple[int, ...]:
    out: List[int] = []
    for e in seq:
        out.extend(e)
    return tuple(out)


def _position_gens(G: FiniteAbelianGroup, t: int, gens) -> List[Tuple[int, ...]]:
    """Generators of G'^t inside flattened G^t: each G'-generator at each slot."""
    d = G.dim
    out = []
    for i in range(t):
        for k in gens:
            flat = [0] * (d * t)
            flat[d * i:d * (i + 1)] = list(k)
            out.append(tuple(flat))
    return out


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
    base, sub = hit
    if t == 0:
        return SolveResult("yes", nzero)
    Gt = G.power(t)
    target = Gt.sub(_flatten([base] * t), _flatten(inst.xstar))
    # is_coset lists every element of the subgroup as a generator; each kept
    # generator at least doubles the span, so at most log2|G'| per slot remain
    sub = subgroup_reduce_gens(sub)
    gens = [_flatten(g) for g in inst.hgens] + _position_gens(G, t, sub.gens)
    coeffs = subgroup_membership(SubgroupGens(Gt, tuple(gens)), target)
    if coeffs is None:
        return SolveResult("no")
    cert = tuple(c % G.exponent for c in coeffs[: len(inst.hgens)])
    return SolveResult("yes", cert)


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
