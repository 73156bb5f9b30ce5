"""Correctness references that share no code with cosetint.

Everything here works on plain tuples of ints: a group is its tuple of
moduli, an element a tuple of residues.  The functions are deliberately
naive so that they can be trusted by inspection; the benchmark compares
every answer of the program against them.
"""

from __future__ import annotations

import math
from itertools import product


class WrongAnswer(Exception):
    """The program returned an answer the references prove wrong."""


def add(mods, x, y):
    return tuple((a + b) % d for a, b, d in zip(x, y, mods))


def sub(mods, x, y):
    return tuple((a - b) % d for a, b, d in zip(x, y, mods))


def scale(mods, c, x):
    return tuple((c * a) % d for a, d in zip(x, mods))


def exponent(mods):
    return math.lcm(*mods) if mods else 1


def order_of(mods, x):
    return math.lcm(*(d // math.gcd(d, a) for a, d in zip(x, mods))) if mods else 1


def elements(mods):
    return product(*(range(d) for d in mods))


def span(mods, gens):
    """All sums of multiples of gens, by closure (small subgroups only)."""
    zero = (0,) * len(mods)
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = add(mods, x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def is_coset(mods, S):
    """True iff the nonempty set S is a coset: S - s is closed under subtraction."""
    base = min(S)
    diffs = {sub(mods, x, base) for x in S}
    return all(sub(mods, x, y) in diffs for x in diffs for y in diffs)


def dilation_core(mods, S):
    """Intersection of the dilates aS that lie inside S."""
    S = frozenset(S)
    core = S
    for a in range(exponent(mods)):
        dilated = frozenset(scale(mods, a, x) for x in S)
        if dilated <= S:
            core &= dilated
    return core


def np_complete(mods, S, variant):
    """The dichotomy: the affine variant is hard iff S is a nonempty
    non-coset; the homogeneous one iff the dilation core is."""
    if not S:
        return False
    T = S if variant == "P" else dilation_core(mods, S)
    return not is_coset(mods, T)


def witness_point(mods, xstar, hgens, cert):
    """xstar + sum(cert[k] * hgens[k]) coordinate by coordinate."""
    if len(cert) != len(hgens):
        raise WrongAnswer(f"certificate has {len(cert)} entries for {len(hgens)} generators")
    point = list(xstar)
    for c, gen in zip(cert, hgens):
        for i, h in enumerate(gen):
            point[i] = add(mods, point[i], scale(mods, c, h))
    return point


def check_certificate(mods, xstar, hgens, cert, S, what):
    """Raise WrongAnswer unless the certified point lies in S^t."""
    for i, p in enumerate(witness_point(mods, xstar, hgens, cert)):
        if p not in S:
            raise WrongAnswer(f"{what}: certified point has {p} outside S at coordinate {i}")


def three_colouring(n, edges):
    """A proper colouring of vertices 1..n with colours 1..3, or None.

    Backtracking in vertex order; the first vertex gets colour 1 by
    symmetry.
    """
    adj = [set() for _ in range(n + 1)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    colour = [0] * (n + 1)

    def place(v):
        if v > n:
            return True
        for c in ((1,) if v == 1 else (1, 2, 3)):
            if all(colour[w] != c for w in adj[v]):
                colour[v] = c
                if place(v + 1):
                    return True
        colour[v] = 0
        return False

    return tuple(colour[1:]) if place(1) else None
