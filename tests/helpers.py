"""Shared brute-force oracles and small utilities for the test suite.

Everything here is deliberately naive: these are the independent
implementations that the fast library code is checked against.
"""

import math
import re
from fractions import Fraction
from itertools import combinations, product

from cosetint.formats import (
    ParseError,
    _fail,
    _logical_lines,
    format_element,
    format_group,
    parse_element,
    parse_group,
)
from cosetint.groups import (
    FiniteAbelianGroup,
    Homomorphism,
    SubgroupGens,
    kernel_of_hom,
    quotient_group,
    smith_normal_form,
    solve_linear_congruence,
    standard_gens,
    subgroup_reduce_gens,
)
from cosetint.classify import NP_COMPLETE, classify_affine, classify_homogeneous
from cosetint.model import ProblemInstance, SubsetS

# the replay benchmark's targets: the five compile showcase targets, plus
# P over Z_6 with S = {0,1,2,4,5}, which divides out a subgroup
REPLAY_TARGETS = (
    ("P", (4,), ((0,), (1,))),
    ("P", (4,), ((0,), (1,), (2,))),
    ("P", (2, 2), ((0, 1), (1, 0), (1, 1))),
    ("Pi", (5,), ((1,), (2,), (4,))),
    ("Pi", (6,), ((1,), (2,), (4,))),
    ("P", (6,), ((0,), (1,), (2,), (4,), (5,))),
)


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


def all_subsets(G: FiniteAbelianGroup):
    """Every subset S of G, the empty set and G itself included."""
    elems = list(G.elements())
    for bits in range(2 ** len(elems)):
        yield SubsetS.of(G, [e for i, e in enumerate(elems) if bits >> i & 1])


CLASSIFIERS = {"P": classify_affine, "Pi": classify_homogeneous}


def np_complete_targets(G: FiniteAbelianGroup, variants=("P", "Pi")):
    """(variant, S) for every subset S that the variant's classifier calls
    NP-complete: the targets that compile_hardness accepts."""
    for S in all_subsets(G):
        for variant in variants:
            if CLASSIFIERS[variant](G, S).verdict == NP_COMPLETE:
                yield variant, S


def random_element(rng, G: FiniteAbelianGroup):
    return tuple(rng.randrange(d) for d in G.moduli)


def random_subgroup(rng, G: FiniteAbelianGroup, max_gens=3):
    gens = tuple(random_element(rng, G) for _ in range(rng.randint(0, max_gens)))
    return SubgroupGens(G, gens)


def random_coset_subset(rng, G: FiniteAbelianGroup):
    """A random coset of a random subgroup as a SubsetS; sometimes empty."""
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
    return three_coloring(graph) is not None


def three_coloring(graph):
    """A proper 3-coloring found by backtracking, as a tuple indexed by
    vertex-1, or None."""
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

    return tuple(colors[v] for v in range(1, graph.n + 1)) if go(1) else None


def flatten(G, element_seq):
    out = []
    for e in element_seq:
        out.extend(e)
    return tuple(out)


def unflatten(G, t, flat):
    d = G.dim
    return tuple(tuple(flat[i * d:(i + 1) * d]) for i in range(t))


def index_of(G, x):
    """Mixed-radix rank of an element, first coordinate most significant:
    its position in G.elements()."""
    idx = 0
    for a, d in zip(x, G.moduli):
        idx = idx * d + a
    return idx


def enum_oracle(inst, S):
    """Second, simpler oracle: enumerate H inside G^t and scan xstar + H."""
    from cosetint.groups import span_basis, subgroup_enumerate

    Gt = inst.group.power(inst.t)
    gens = tuple(flatten(inst.group, g) for g in inst.hgens)
    order, _ = span_basis(Gt, gens)
    assert order <= 100000, "H too large to enumerate"
    for h in subgroup_enumerate(SubgroupGens(Gt, gens)):
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
    return SubsetS.of(G, [e for e in G.elements() if rng.random() < 0.5])


def reference_oracle_solve(inst, S, budget=10 ** 8):
    """The loop version of the search oracle: the DFS of
    model.oracle_solve with every digit in [0, exponent) rather than
    [0, ord(g_k)), stepping coordinates component-wise and testing
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
        in_s[index_of(G, e)] = 1

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
    add_into = G.moduli
    dim = G.dim
    nodes = 0

    def coords_ok(which) -> bool:
        return all(in_s[index_of(G, tuple(point[i]))] for i in which)

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


def reference_order_oracle_solve(inst, S, budget=10 ** 8):
    """The order-bounded search: model.oracle_solve without its group
    checks, testing a coordinate only once no remaining generator touches
    it.  Returns a SolveResult that carries its nodes."""
    from typing import Optional, Tuple

    from cosetint.model import SolveResult, _BudgetExceeded, _Successors

    if S.group != inst.group:
        raise ValueError("subset and instance are over different groups")
    if budget < 1:
        raise ValueError("budget must be positive")
    G = inst.group
    t, ngens = inst.t, len(inst.hgens)
    zero = G.zero()
    members = S.elements

    # last_touch[i]: index of the last generator with a nonzero entry at i
    last_touch = [-1] * t
    for k, gen in enumerate(inst.hgens):
        for i in range(t):
            if gen[i] != zero:
                last_touch[i] = k
    final_at = [[] for _ in range(ngens + 1)]
    for i in range(t):
        final_at[last_touch[i] + 1].append(i)

    # moves[k]: (coordinate, successor memo) for each nonzero entry of gen k;
    # orders[k]: the order of gen k, the lcm of its entries' orders
    memos = {g: _Successors(G, g) for g in set().union(*inst.hgens)}
    entry_order = {g: G.element_order(g) for g in memos}
    moves = [[(i, memos[g]) for i, g in enumerate(gen) if g != zero] for gen in inst.hgens]
    orders = [math.lcm(*(entry_order[g] for g in set(gen))) for gen in inst.hgens]
    point = list(inst.xstar)
    nodes = 0

    def dfs(k: int, stack) -> Optional[Tuple[int, ...]]:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise _BudgetExceeded
        for i in final_at[k]:
            if point[i] not in members:
                return None
        if k == ngens:
            return tuple(stack)
        move = moves[k]
        for digit in range(orders[k]):
            if digit:
                for i, succ in move:
                    point[i] = succ[point[i]]
            stack.append(digit)
            found = dfs(k + 1, stack)
            if found is not None:
                return found
            stack.pop()
        # orders[k] many additions wrap every coordinate back to its start
        for i, succ in move:
            point[i] = succ[point[i]]
        return None

    try:
        cert = dfs(0, [])
    except _BudgetExceeded:
        return SolveResult("budget_exceeded", nodes=nodes)
    if cert is None:
        return SolveResult("no", nodes=nodes)
    return SolveResult("yes", cert, nodes=nodes)


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



# --- scan references -----------------------------------------------------------
# is_coset and dilation_core as they were before they were built from the
# echelon basis and the idempotents: a pairwise closure test and a scan over
# every a < exponent.


def reference_is_coset(S):
    """(base, subgroup gens) if S - min(S) is subtraction-closed, else None."""
    if not S.elements:
        return None
    G = S.group
    base = min(S.elements)
    diffs = frozenset(G.sub(e, base) for e in S.elements)
    for x in diffs:
        for y in diffs:
            if G.sub(x, y) not in diffs:
                return None
    return base, SubgroupGens(G, tuple(sorted(diffs)))


def reference_dilation_core(S):
    """Intersection of the dilates aS over all a with aS inside S."""
    G = S.group
    if not S.elements:
        return S
    core = None
    for a in range(G.exponent):
        dilated = []
        for e in S.elements:
            x = G.scale(a, e)
            if x not in S.elements:
                break  # aS is not inside S
            dilated.append(x)
        else:
            core = frozenset(dilated) if core is None else core.intersection(dilated)
    assert core is not None  # a = 1 always qualifies
    return SubsetS(G, core)


# --- cell-by-cell references -------------------------------------------------
# The instance layers as they were before they worked once per distinct
# entry: every cell is checked, mapped, formatted and parsed on its own.


def reference_validate(group, t, xstar, hgens):
    """ProblemInstance's cell-by-cell check; returns the normalized
    (xstar, hgens) or raises the ValueError the instance would raise."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    xstar = tuple(tuple(e) for e in xstar)
    hgens = tuple(tuple(tuple(e) for e in gen) for gen in hgens)
    if len(xstar) != t:
        raise ValueError(f"xstar has length {len(xstar)}, expected t={t}")
    for e in xstar:
        if not group.contains(e):
            raise ValueError(f"xstar entry {e} not in group {group}")
    for gen in hgens:
        if len(gen) != t:
            raise ValueError(f"generator has length {len(gen)}, expected t={t}")
        for e in gen:
            if not group.contains(e):
                raise ValueError(f"generator entry {e} not in group {group}")
    return xstar, hgens


def reference_witness_point(inst, cert):
    """xstar + sum(cert[i] * hgens[i]), scaling and adding every cell of
    every generator whose coefficient is nonzero modulo the exponent."""
    if len(cert) != len(inst.hgens):
        raise ValueError(f"certificate length {len(cert)} != generator count {len(inst.hgens)}")
    G = inst.group
    point = list(inst.xstar)
    for coeff, gen in zip(cert, inst.hgens):
        if coeff % G.exponent == 0:
            continue
        for i in range(inst.t):
            point[i] = G.add(point[i], G.scale(coeff, gen[i]))
    return tuple(point)


def reference_translate_instance(inst, g):
    G = inst.group
    if not G.contains(g):
        raise ValueError(f"{g} not in group {G}")
    return ProblemInstance(G, inst.t, tuple(G.add(x, g) for x in inst.xstar), inst.hgens)


def reference_map_instance(inst, f):
    if f.source != inst.group:
        raise ValueError("homomorphism source does not match instance group")
    zero = f.source.zero()
    if any(k != zero for k in kernel_of_hom(f).gens):
        raise ValueError("instance mapping needs an injective homomorphism")
    return ProblemInstance(
        f.target,
        inst.t,
        tuple(f.apply(x) for x in inst.xstar),
        tuple(tuple(f.apply(h) for h in gen) for gen in inst.hgens),
    )


def reference_divideout_lift(inst, G, K):
    if K.group != G:
        raise ValueError("kernel generators live in a different group")
    qmap = quotient_group(G, K)
    if inst.group != qmap.group:
        raise ValueError("instance is not over the quotient of G by K")
    t = inst.t
    xstar = tuple(qmap.lift(x) for x in inst.xstar)
    lifted = [tuple(qmap.lift(h) for h in gen) for gen in inst.hgens]
    slack = []
    for i in range(t):
        for k in K.gens:
            if k == G.zero():
                continue
            gen = [G.zero()] * t
            gen[i] = k
            slack.append(tuple(gen))
    return ProblemInstance(G, t, xstar, tuple(lifted) + tuple(slack))


def reference_transform_double(inst, c, g):
    G = inst.group
    if c.source != G or c.target != G:
        raise ValueError("doubling needs an endomorphism of the instance group")
    if not G.contains(g):
        raise ValueError(f"{g} not in group {G}")
    xstar = tuple(inst.xstar) + tuple(G.add(c.apply(x), g) for x in inst.xstar)
    hgens = tuple(tuple(gen) + tuple(c.apply(h) for h in gen) for gen in inst.hgens)
    return ProblemInstance(G, 2 * inst.t, xstar, hgens)


def reference_gadget_coloring_full(graph, G):
    if G.order < 3:
        raise ValueError("the full-coloring gadget needs group order at least 3")
    edges = graph.sorted_edges()
    t = len(edges)
    hgens = []
    for v in range(1, graph.n + 1):
        for j in range(G.dim):
            gen = []
            for (u, w) in edges:
                coeff = 1 if v == u else (-1 if v == w else 0)
                e = [0] * G.dim
                e[j] = coeff % G.moduli[j]
                gen.append(tuple(e))
            hgens.append(tuple(gen))
    xstar = tuple(G.zero() for _ in range(t))
    return ProblemInstance(G, t, xstar, tuple(hgens))


def gadget_s01_subset(G):
    """The subset {0, 1} of Z_m that `transforms.gadget_s01` targets."""
    return SubsetS.of(G, [(0,), (1,)])


def gadget_coloring_full_subset(G):
    """G minus zero, the subset that `transforms.gadget_coloring_full` targets."""
    return SubsetS.of(G, [e for e in G.elements() if e != G.zero()])


def reference_format_instance(inst, header=()):
    lines = [f"# {h}" for h in header]
    lines.append(f"group: {format_group(inst.group)}")
    lines.append(f"t: {inst.t}")
    lines.append(("xstar: " + " ".join(format_element(e) for e in inst.xstar)).rstrip())
    for gen in inst.hgens:
        lines.append(("gen: " + " ".join(format_element(e) for e in gen)).rstrip())
    return "\n".join(lines) + "\n"


def _reference_split_elements(G, rest, lineno):
    return tuple(parse_element(G, tok) for tok in rest.split())


def reference_parse_instance(text):
    lines = _logical_lines(text)
    if len(lines) < 3:
        _fail("instance file needs group:, t: and xstar: lines")
    fields = []
    for lineno, line in lines:
        if ":" not in line:
            _fail(f"expected 'key: value', got {line!r}", lineno)
        key, _, rest = line.partition(":")
        fields.append((lineno, key.strip(), rest.strip()))
    (l0, k0, v0), (l1, k1, v1), (l2, k2, v2) = fields[0], fields[1], fields[2]
    if k0 != "group":
        _fail("instance file must start with a group: line", l0)
    G = parse_group(v0)
    if k1 != "t" or not re.fullmatch(r"\d+", v1):
        _fail("second line must be 't: N'", l1)
    t = int(v1)
    if k2 != "xstar":
        _fail("third line must be 'xstar: ...'", l2)
    xstar = _reference_split_elements(G, v2, l2)
    hgens = []
    for lineno, key, rest in fields[3:]:
        if key != "gen":
            _fail(f"unexpected line key {key!r}", lineno)
        hgens.append(_reference_split_elements(G, rest, lineno))
    try:
        return ProblemInstance(G, t, xstar, tuple(hgens))
    except ValueError as e:
        raise ParseError(str(e)) from e


# --- kernels, quotients and presentations by diagonalization and enumeration --
#
# The elimination routines these replaced: a kernel read off the column
# transform of a diagonalization mod the exponent, a lift that takes the
# minimum over every element of the kernel, and a presentation that inverts
# the row transform of a Smith normal form.


def _reference_diagonalize_mod(mat, M):
    m = len(mat)
    n = len(mat[0]) if m else 0
    half = M // 2
    A = [[v - M if (v := int(x) % M) > half else v for x in row] for row in mat]
    VT = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_add(dst, src, c):
        A[dst] = [v - M if (v := (a + c * b) % M) > half else v for a, b in zip(A[dst], A[src])]

    def col_add(dst, src, c):
        for row in A:
            v = (row[dst] + c * row[src]) % M
            row[dst] = v - M if v > half else v
        VT[dst] = [v - M if (v := (a + c * b) % M) > half else v
                   for a, b in zip(VT[dst], VT[src])]

    for k in range(min(m, n)):
        best = None
        for i in range(k, m):
            for j in range(k, n):
                v = A[i][j]
                if v and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
        if best is None:
            break
        _, pi, pj = best
        if pi != k:
            A[k], A[pi] = A[pi], A[k]
        if pj != k:
            for row in A:
                row[k], row[pj] = row[pj], row[k]
            VT[k], VT[pj] = VT[pj], VT[k]
        if A[k][k] < 0:
            A[k] = [-a for a in A[k]]
        while True:
            for i in range(k + 1, m):
                while A[i][k]:
                    row_add(i, k, -(A[i][k] // A[k][k]))
                    if A[i][k]:
                        A[i], A[k] = A[k], A[i]
            for j in range(k + 1, n):
                while A[k][j]:
                    col_add(j, k, -(A[k][j] // A[k][k]))
                    if A[k][j]:
                        for row in A:
                            row[k], row[j] = row[j], row[k]
                        VT[k], VT[j] = VT[j], VT[k]
            if not any(A[i][k] for i in range(k + 1, m)):
                break
    V = [[VT[j][i] for j in range(n)] for i in range(n)]
    return A, V


def reference_kernel_of_hom(hom):
    G, T = hom.source, hom.target
    n, mt = G.dim, T.dim
    M = T.exponent
    if mt == 0 or M == 1:
        return SubgroupGens(G, standard_gens(G))
    aug = [
        list(hom.matrix[i]) + [T.moduli[i] if j == i else 0 for j in range(mt)]
        for i in range(mt)
    ]
    D, V = _reference_diagonalize_mod(aug, M)
    gens = []
    for j in range(n + mt):
        mult = M // math.gcd(D[j][j] % M, M) if j < mt else 1
        g = G.reduce([V[i][j] * mult for i in range(n)])
        if any(g):
            gens.append(g)
    return SubgroupGens(G, tuple(dict.fromkeys(gens)))


class ReferenceQuotientMap:
    def __init__(self, group, proj, kernel_elements):
        self.group, self.proj, self.kernel_elements = group, proj, kernel_elements

    def lift(self, q):
        G = self.proj.source
        q = self.group.reduce(q)
        if G.dim == 0 or self.group.dim == 0:
            base = G.zero()
        else:
            x0 = solve_linear_congruence(
                [list(r) for r in self.proj.matrix], list(q), list(self.group.moduli)
            )
            base = G.reduce(x0)
        return min(G.add(base, k) for k in self.kernel_elements)


def reference_quotient_group(G, kernel):
    k = G.dim
    if k == 0:
        Q = FiniteAbelianGroup(())
        return ReferenceQuotientMap(Q, Homomorphism(G, Q, ()), ((),))
    cols = list(kernel.gens)
    aug = [
        [c[i] for c in cols] + [G.moduli[i] if j == i else 0 for j in range(k)]
        for i in range(k)
    ]
    U, D, V = smith_normal_form(aug)
    kept = [i for i in range(k) if D[i][i] >= 2]
    qmod = tuple(D[i][i] for i in kept)
    Q = FiniteAbelianGroup(qmod)
    pmat = tuple(
        tuple(U[i][j] % qmod[r] for j in range(k)) for r, i in enumerate(kept)
    )
    elems = sorted(span_bruteforce(G, kernel.gens))
    return ReferenceQuotientMap(Q, Homomorphism(G, Q, pmat), tuple(elems))


def _reference_unimodular_inverse(M):
    n = len(M)
    aug = [
        [Fraction(v) for v in row] + [Fraction(1 if i == j else 0) for j in range(n)]
        for i, row in enumerate(M)
    ]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [v / pv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    inv = []
    for row in aug:
        assert all(v.denominator == 1 for v in row[n:]), "matrix is not unimodular"
        inv.append([int(v) for v in row[n:]])
    return inv


def reference_subgroup_abstract(sub):
    G = sub.group
    gens = subgroup_reduce_gens(sub).gens
    n = len(gens)
    if n == 0:
        A = FiniteAbelianGroup(())
        return A, Homomorphism(A, G, tuple(() for _ in range(G.dim)))
    L = G.exponent
    src = FiniteAbelianGroup((L,) * n)
    mat = tuple(tuple(g[i] for g in gens) for i in range(G.dim))
    rel = list(reference_kernel_of_hom(Homomorphism(src, G, mat)).gens)
    cols = [list(r) for r in rel] + [
        [L if i == j else 0 for i in range(n)] for j in range(n)
    ]
    relmat = [[col[i] for col in cols] for i in range(n)]
    U, D, V = smith_normal_form(relmat)
    kept = [i for i in range(n) if D[i][i] >= 2]
    Uinv = _reference_unimodular_inverse(U)
    emb_cols = []
    for i in kept:
        img = G.zero()
        for r in range(n):
            img = G.add(img, G.scale(Uinv[r][i], gens[r]))
        emb_cols.append(img)
    A = FiniteAbelianGroup(tuple(D[i][i] for i in kept))
    emb = Homomorphism(
        A, G, tuple(tuple(col[r] for col in emb_cols) for r in range(G.dim))
    )
    return A, emb
