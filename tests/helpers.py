"""Shared brute-force oracles and small utilities for the test suite.

Everything here is deliberately naive: these are the independent
implementations that the fast library code is checked against.
"""

from fractions import Fraction
from itertools import combinations, product

from cosetint.groups import FiniteAbelianGroup, SubgroupGens


def mat_mul(A, B):
    if not A or not B:
        return [[0] * len(B[0] if B else []) for _ in A]
    n, k, m = len(A), len(B), len(B[0])
    assert all(len(r) == k for r in A)
    return [[sum(A[i][p] * B[p][j] for p in range(k)) for j in range(m)] for i in range(n)]


def int_det(M):
    """Exact determinant via fraction-based Gaussian elimination."""
    n = len(M)
    if n == 0:
        return 1
    A = [[Fraction(v) for v in row] for row in M]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            A[col], A[piv] = A[piv], A[col]
            det = -det
        det *= A[col][col]
        inv = 1 / A[col][col]
        A[col] = [v * inv for v in A[col]]
        for r in range(col + 1, n):
            if A[r][col] != 0:
                f = A[r][col]
                A[r] = [a - f * b for a, b in zip(A[r], A[col])]
    assert det.denominator == 1
    return int(det)


def span_bruteforce(G: FiniteAbelianGroup, gens):
    """Set of all combinations of gens, by closure."""
    seen = {G.zero()}
    frontier = [G.zero()]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = G.add(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def all_subgroups(G: FiniteAbelianGroup):
    """Every subgroup of a small group, as a frozenset of element sets."""
    elems = list(G.elements())
    subs = {frozenset({G.zero()})}
    # closures of all generator subsets up to size dim+1 cover every subgroup
    for size in range(1, min(len(elems), G.dim + 1) + 1):
        for combo in combinations(elems, size):
            subs.add(frozenset(span_bruteforce(G, combo)))
    return subs


def small_groups(max_order: int):
    """Every ordered factorization with factors >= 2, plus the trivial group."""
    out = [FiniteAbelianGroup(())]

    def rec(prefix, remaining_order):
        for d in range(2, remaining_order + 1):
            out.append(FiniteAbelianGroup(tuple(prefix) + (d,)))
            if remaining_order // d >= 2:
                rec(list(prefix) + [d], remaining_order // d)

    for order in range(2, max_order + 1):
        rec([], order)
    # the same moduli tuple shows up once per achievable order; dedupe
    uniq = []
    seen = set()
    for g in out:
        if g.moduli not in seen:
            seen.add(g.moduli)
            uniq.append(g)
    return [g for g in uniq if g.order <= max_order]


def random_element(rng, G: FiniteAbelianGroup):
    return tuple(rng.randrange(d) for d in G.moduli)


def random_subgroup(rng, G: FiniteAbelianGroup, max_gens=3):
    gens = tuple(random_element(rng, G) for _ in range(rng.randint(0, max_gens)))
    return SubgroupGens(G, gens)


def random_coset_subset(rng, G: FiniteAbelianGroup):
    """A random coset of a random subgroup as a SubsetS; sometimes empty."""
    from cosetint.model import SubsetS

    if rng.random() < 0.1:
        return SubsetS.of(G, [])
    sub = span_bruteforce(G, random_subgroup(rng, G).gens)
    base = random_element(rng, G)
    return SubsetS.of(G, [G.add(h, base) for h in sub])


def proper_colorings(graph, k):
    """All proper k-colorings of a Graph, as tuples indexed by vertex-1."""
    out = []
    for colors in product(range(1, k + 1), repeat=graph.n):
        if all(colors[u - 1] != colors[v - 1] for u, v in graph.edges):
            out.append(colors)
    return out


def is_three_colorable(graph):
    """Backtracking 3-colorability check, independent of the library."""

    adj = {v: set() for v in range(1, graph.n + 1)}
    for u, w in graph.edges:
        adj[u].add(w)
        adj[w].add(u)
    colors = {}

    def go(v):
        if v > graph.n:
            return True
        for c in (1, 2, 3):
            if all(colors.get(u) != c for u in adj[v]):
                colors[v] = c
                if go(v + 1):
                    return True
                del colors[v]
        return False

    return go(1)


def flatten(G, element_seq):
    out = []
    for e in element_seq:
        out.extend(e)
    return tuple(out)


def unflatten(G, t, flat):
    d = G.dim
    return tuple(tuple(flat[i * d:(i + 1) * d]) for i in range(t))


def enum_oracle(inst, S):
    """Second, simpler oracle: enumerate H inside G^t and scan xstar + H."""
    from cosetint.groups import subgroup_enumerate

    Gt = inst.group.power(inst.t)
    H = subgroup_enumerate(
        SubgroupGens(Gt, tuple(flatten(inst.group, g) for g in inst.hgens))
    )
    assert H is not None
    for h in H:
        point = unflatten(inst.group, inst.t, Gt.add(flatten(inst.group, inst.xstar), h))
        if all(p in S for p in point):
            return True
    return False


def random_instance(rng, G, max_t=3, max_gens=3):
    from cosetint.model import ProblemInstance

    t = rng.randrange(max_t + 1)
    xstar = tuple(G.element_at(rng.randrange(G.order)) for _ in range(t))
    ngens = rng.randrange(max_gens + 1)
    hgens = tuple(
        tuple(G.element_at(rng.randrange(G.order)) for _ in range(t)) for _ in range(ngens)
    )
    return ProblemInstance(G, t, xstar, hgens)


def random_subset(rng, G):
    from cosetint.model import SubsetS

    return SubsetS.of(G, [e for e in G.elements() if rng.random() < 0.5])


def reference_oracle_solve(inst, S, budget=10 ** 8):
    """The loop version of the search oracle: the same DFS as
    model.oracle_solve, stepping coordinates component-wise and testing
    membership through a |G| bytearray.  Returns (result, nodes)."""
    from typing import Optional, Tuple

    from cosetint.model import SolveResult

    class _BudgetExceeded(Exception):
        pass

    if S.group != inst.group:
        raise ValueError("subset and instance are over different groups")
    if budget < 1:
        raise ValueError("budget must be positive")
    G = inst.group
    t, ngens = inst.t, len(inst.hgens)
    exp = G.exponent
    zero = G.zero()

    in_s = bytearray(G.order)
    for e in S.elements:
        in_s[G.index_of(e)] = 1

    # last_touch[i]: index of the last generator with a nonzero entry at i
    last_touch = [-1] * t
    for k, gen in enumerate(inst.hgens):
        for i in range(t):
            if gen[i] != zero:
                last_touch[i] = k
    final_at = [[] for _ in range(ngens + 1)]
    for i in range(t):
        final_at[last_touch[i] + 1].append(i)

    point = [list(e) for e in inst.xstar]
    index_of = G.index_of
    add_into = G.moduli
    dim = G.dim
    nodes = 0

    def coords_ok(which) -> bool:
        return all(in_s[index_of(tuple(point[i]))] for i in which)

    def dfs(k: int, stack) -> Optional[Tuple[int, ...]]:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise _BudgetExceeded
        if not coords_ok(final_at[k]):
            return None
        if k == ngens:
            return tuple(stack)
        gen = inst.hgens[k]
        touched = [i for i in range(t) if gen[i] != zero]
        for digit in range(exp):
            if digit:
                for i in touched:
                    p, g = point[i], gen[i]
                    for j in range(dim):
                        p[j] = (p[j] + g[j]) % add_into[j]
            stack.append(digit)
            found = dfs(k + 1, stack)
            if found is not None:
                return found
            stack.pop()
        # exponent many additions wrap every coordinate back to its start
        for i in touched:
            p, g = point[i], gen[i]
            for j in range(dim):
                p[j] = (p[j] + g[j]) % add_into[j]
        return None

    try:
        cert = dfs(0, [])
    except _BudgetExceeded:
        return SolveResult("budget_exceeded"), nodes
    if cert is None:
        return SolveResult("no"), nodes
    return SolveResult("yes", cert), nodes


def reference_noncoset_witness(S):
    """The full-G scan for the lexicographically smallest non-coset
    witness (s, a, b): s, s+a, s+b in S, a != b, s+a+b outside S."""
    G = S.group
    everything = tuple(G.elements())
    for s in S.sorted_elements():
        for a in everything:
            if G.add(s, a) not in S:
                continue
            for b in everything:
                if b == a or G.add(s, b) not in S:
                    continue
                if G.add(G.add(s, a), b) not in S:
                    return s, a, b
    return None
