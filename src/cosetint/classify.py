"""Dichotomy classifiers for the affine and homogeneous problems.

Affine problem: in P iff S is empty or a coset (S - min(S) is as large as
its span), NP-complete otherwise.  Homogeneous problem: in P iff the
dilation core of S is empty or a coset, NP-complete otherwise.  The core
is the intersection of the integer dilates aS inside S, found from the
idempotent dilates alone; it absorbs what a subgroup cannot be forced to avoid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .groups import FiniteAbelianGroup, GroupElement, SubgroupGens, idempotents, span_basis
from .model import SubsetS

IN_P = "in-P"
NP_COMPLETE = "NP-complete"


@dataclass(frozen=True)
class Classification:
    verdict: str
    reason: str  # empty-set | coset | two-element | non-coset | core-coset | core-non-coset
    base: Optional[GroupElement] = None
    subgroup: Optional[SubgroupGens] = None
    core: Optional[SubsetS] = None
    witness: Optional[Tuple[GroupElement, GroupElement, GroupElement]] = None
    difference: Optional[GroupElement] = None

    def describe(self) -> str:
        if self.reason == "empty-set":
            return f"{self.verdict} (S is empty)"
        if self.reason == "coset":
            gens = ",".join(map(_fmt, self.subgroup.gens or [self.subgroup.group.zero()]))
            return f"{self.verdict} (S is a coset: base {_fmt(self.base)}, subgroup <{gens}>)"
        if self.reason == "two-element":
            return f"{self.verdict} (S not a coset; |S|=2, d={_fmt(self.difference)})"
        if self.reason == "non-coset":
            s, a, b = self.witness
            return f"{self.verdict} (S not a coset; witness s={_fmt(s)}, a={_fmt(a)}, b={_fmt(b)})"
        core = "{" + ",".join(_fmt(e) for e in self.core.sorted_elements()) + "}"
        if self.reason == "core-coset":
            return f"{self.verdict} (dilation core {core} is a coset)"
        return f"{self.verdict} (dilation core {core} is not a coset)"


def _fmt(e) -> str:
    """A bare residue in a cyclic group, else a parenthesised tuple."""
    return str(e[0]) if len(e) == 1 else "(" + ",".join(map(str, e)) + ")"


def is_coset(S: SubsetS):
    """(min(S), the at most G.dim echelon pivots of the sorted S - min(S)) if
    S - min(S), which holds 0, is its own span, else None."""
    if not S.elements:
        return None
    G = S.group
    base = min(S.elements)
    order, gens = span_basis(G, sorted(G.sub(e, base) for e in S.elements))
    if order != len(S):
        return None
    return base, SubgroupGens(G, gens)


def dilation_core(S: SubsetS) -> SubsetS:
    """Intersection of the dilates aS inside S.  A power e of each such a is
    an idempotent mod the exponent with eS inside aS, so those e suffice;
    they come from the exponent's factorisation, with no scan of Z_exponent."""
    G = S.group
    core = S.elements  # a = 1
    for e in idempotents(G.exponent):
        dilate = frozenset(G.scale(e, x) for x in S.elements)
        if dilate <= S.elements:
            core = core & dilate
    return SubsetS(G, core)


def find_noncoset_witness(S: SubsetS):
    """Lexicographically smallest (s, a, b) with s, s+a, s+b in S,
    a != b, and s+a+b outside S; None means S is a coset.

    For a fixed s, a and b range over S - s in ascending order, which are
    exactly the candidates with s+a and s+b in S: O(|S|^3) tests, however
    large G is."""
    if len(S) < 3:
        raise ValueError("witness search needs |S| >= 3")
    G = S.group
    for s in S.sorted_elements():
        shifts = sorted(G.sub(x, s) for x in S.elements)
        for a in shifts:
            sa = G.add(s, a)
            for b in shifts:
                if b != a and G.add(sa, b) not in S:
                    return s, a, b
    return None


def classify_affine(G: FiniteAbelianGroup, S: SubsetS) -> Classification:
    if S.group != G:
        raise ValueError("subset is over a different group")
    if not S.elements:
        return Classification(IN_P, "empty-set")
    hit = is_coset(S)
    if hit is not None:
        base, sub = hit
        return Classification(IN_P, "coset", base=base, subgroup=sub)
    if len(S) == 2:
        lo, hi = S.sorted_elements()
        return Classification(NP_COMPLETE, "two-element", difference=G.sub(hi, lo))
    witness = find_noncoset_witness(S)
    assert witness is not None  # closure of the witness predicate forces a coset
    return Classification(NP_COMPLETE, "non-coset", witness=witness)


def classify_homogeneous(G: FiniteAbelianGroup, S: SubsetS) -> Classification:
    if S.group != G:
        raise ValueError("subset is over a different group")
    if not S.elements:
        return Classification(IN_P, "empty-set")
    core = dilation_core(S)
    hit = is_coset(core)
    if hit is not None:
        base, sub = hit
        return Classification(IN_P, "core-coset", base=base, subgroup=sub, core=core)
    return Classification(NP_COMPLETE, "core-non-coset", core=core)
