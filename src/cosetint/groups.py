"""Finite abelian groups as tuples of cyclic moduli, plus exact integer linear algebra.

A group is a product Z/d_1 x ... x Z/d_k; an element is a tuple of ints with
coordinate i reduced mod d_i.  Three deterministic routines do the linear
algebra:

- `solve_linear_congruence` (membership, preimages, one preimage to lift):
  row elimination to Howell form over Z_M, M the lcm of the moduli, every
  row scaled to modulus M;
- `_echelon` (kernels, a quotient's smallest lifts, and `span_basis`: a span's
  order and at most dim(G) pivots, which present every span and coset): a
  column echelon basis over mixed moduli with extended-gcd pivots;
- `smith_normal_form` (a quotient's invariant factors and projection):
  exact integer Smith normal form.

Moduli equal to 1 are tolerated internally (they describe trivial coordinates);
the serialization layer is stricter and only accepts factors >= 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product as _iproduct
from typing import Iterator, List, Optional, Sequence, Tuple

GroupElement = Tuple[int, ...]
Matrix = List[List[int]]

# intermediate matrix entries must stay within signed 64-bit range so results
# stay portable to fixed-width implementations
INT_BOUND = 2**63 - 1


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Z/d_1 x ... x Z/d_k with elements as reduced coordinate tuples."""

    moduli: Tuple[int, ...]

    def __post_init__(self):
        mods = tuple(int(d) for d in self.moduli)
        if any(d < 1 for d in mods):
            raise ValueError("moduli must be positive integers")
        object.__setattr__(self, "moduli", mods)

    @cached_property
    def dim(self) -> int:
        return len(self.moduli)

    @cached_property
    def order(self) -> int:
        return math.prod(self.moduli)

    @cached_property
    def exponent(self) -> int:
        return math.lcm(*self.moduli)

    def zero(self) -> GroupElement:
        return (0,) * self.dim

    def reduce(self, x: Sequence[int]) -> GroupElement:
        if len(x) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(x)}")
        return tuple(int(v) % d for v, d in zip(x, self.moduli))

    def contains(self, x) -> bool:
        return len(x) == self.dim and all(
            type(v) is int and 0 <= v < d for v, d in zip(x, self.moduli)
        )

    def add(self, x, y) -> GroupElement:
        return tuple((a + b) % d for a, b, d in zip(x, y, self.moduli))

    def sub(self, x, y) -> GroupElement:
        return tuple((a - b) % d for a, b, d in zip(x, y, self.moduli))

    def neg(self, x) -> GroupElement:
        return tuple((-a) % d for a, d in zip(x, self.moduli))

    def scale(self, c: int, x) -> GroupElement:
        return tuple((c * a) % d for a, d in zip(x, self.moduli))

    def elements(self) -> Iterator[GroupElement]:
        """All elements in lexicographic order.  Only sane for small groups."""
        return _iproduct(*(range(d) for d in self.moduli))

    def element_order(self, x) -> int:
        return math.lcm(*(d // math.gcd(d, a) for a, d in zip(x, self.moduli)))

    def index_of(self, x) -> int:
        """Mixed-radix rank of an element, first coordinate most significant."""
        idx = 0
        for a, d in zip(x, self.moduli):
            idx = idx * d + a
        return idx

    def element_at(self, idx: int) -> GroupElement:
        coords = []
        for d in reversed(self.moduli):
            coords.append(idx % d)
            idx //= d
        return tuple(reversed(coords))

    def power(self, t: int) -> "FiniteAbelianGroup":
        if t < 0:
            raise ValueError("power must be nonnegative")
        return FiniteAbelianGroup(self.moduli * t)


def _identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(mat: Sequence[Sequence[int]]):
    """Return (U, D, V) with U*mat*V == D diagonal and d_i | d_{i+1}.

    U and V are unimodular.  Deterministic: the pivot is the entry of smallest
    nonzero absolute value in the remaining submatrix, ties broken by lowest
    row-major position.  Raises OverflowError if an intermediate entry leaves
    the signed 64-bit range.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    A = [[int(v) for v in row] for row in mat]
    for row in A:
        if len(row) != n:
            raise ValueError("ragged matrix")
    U = _identity(m)
    V = _identity(n)

    def guard(*rows):
        for row in rows:
            for v in row:
                if v > INT_BOUND or v < -INT_BOUND:
                    raise OverflowError("matrix entry left the signed 64-bit range")

    def row_add(dst, src, c):
        A[dst] = [a + c * b for a, b in zip(A[dst], A[src])]
        U[dst] = [a + c * b for a, b in zip(U[dst], U[src])]
        guard(A[dst], U[dst])

    def col_add(dst, src, c):
        for row in A:
            row[dst] += c * row[src]
        for row in V:
            row[dst] += c * row[src]
        guard([row[dst] for row in A], [row[dst] for row in V])

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def row_neg(i):
        A[i] = [-a for a in A[i]]
        U[i] = [-a for a in U[i]]

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
            row_swap(k, pi)
        if pj != k:
            col_swap(k, pj)
        if A[k][k] < 0:
            row_neg(k)
        while True:
            # Euclid in place; swaps keep the pivot positive and shrinking
            for i in range(k + 1, m):
                while A[i][k]:
                    row_add(i, k, -(A[i][k] // A[k][k]))
                    if A[i][k]:
                        row_swap(i, k)
            for j in range(k + 1, n):
                while A[k][j]:
                    col_add(j, k, -(A[k][j] // A[k][k]))
                    if A[k][j]:
                        col_swap(k, j)
            if any(A[i][k] for i in range(k + 1, m)):
                continue  # a column swap disturbed the cleared column
            d = A[k][k]
            bad = next(
                (
                    i
                    for i in range(k + 1, m)
                    for j in range(k + 1, n)
                    if A[i][j] % d
                ),
                None,
            )
            if bad is None:
                break
            row_add(k, bad, 1)  # pull a non-divisible entry into the pivot row
    return U, A, V


def _xgcd(a: int, b: int) -> Tuple[int, int, int]:
    """(g, s, t) with g == gcd(a, b) == s*a + t*b, for a, b >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _echelon(cols: Sequence[Sequence[int]], moduli: Sequence[int], nclear: int):
    """Echelon basis of the span of `cols` in Z/moduli[0] x Z/moduli[1] x ...

    Clears coordinates 0 .. nclear-1 in turn.  Returns (pivots, rest):
    - one pivot (i, d, col) per cleared coordinate i on which the span is not
      zero: col is in the span, is 0 before coordinate i, and has col[i] == d,
      a proper divisor of moduli[i];
    - rest, columns that vanish on every cleared coordinate.
    At every step the remaining columns span exactly the elements of the span
    that vanish on the coordinates cleared so far (the Howell property), so
    the span is {sum c_k * pivot_k + r : 0 <= c_k < moduli[i_k] / d_k, r in
    span(rest)}, and reducing coordinate by coordinate with the pivots
    yields the lexicographically smallest element of a coset.
    """
    def reduce(c):
        return [v % m for v, m in zip(c, moduli)]

    cols = [c for c in map(reduce, cols) if any(c)]
    pivots = []
    for i in range(nclear):
        m = moduli[i]
        # start from the zero element written with m in coordinate i; each
        # gcd step keeps the span and leaves coordinate i of the other column
        # exactly 0, and the last pivot's multiple (m / d) * piv is left among
        # the other columns as a combination of them
        piv = [0] * len(moduli)
        piv[i] = m
        rest = []
        for c in cols:
            if c[i] == 0:
                rest.append(c)
                continue
            g, s, t = _xgcd(piv[i], c[i])
            a, b = piv[i] // g, c[i] // g
            other = reduce([a * y - b * x for x, y in zip(piv, c)])
            if any(other):
                rest.append(other)
            piv = reduce([s * x + t * y for x, y in zip(piv, c)])
        if piv[i] < m:
            pivots.append((i, piv[i], tuple(piv)))
        cols = rest
    return pivots, cols


def span_basis(G: FiniteAbelianGroup, gens) -> Tuple[int, Tuple[GroupElement, ...]]:
    """(order, pivot columns) of span(gens): the at most G.dim echelon pivots
    generate the span, and by the Howell property its order is
    prod moduli[i] / d over them."""
    pivots, _ = _echelon(gens, G.moduli, G.dim)
    return math.prod(G.moduli[i] // d for i, d, _ in pivots), tuple(c for *_, c in pivots)


# `_prime_power_pieces`' default bound, used on element orders: trial division
# up to it factors every number up to its square, which covers the parse bound
# MAX_ORDER = 2**20 with at most 1024 divisions.
_TRIAL_DIVISION_LIMIT = 2**10


def _prime_power_pieces(M: int, limit: int = _TRIAL_DIVISION_LIMIT) -> List[Tuple[int, int]]:
    """Coprime pieces (d, e) with M == prod(d**e).

    Every prime up to `limit` is found by trial division; a cofactor left
    over (no prime factor at or below the limit) is returned as one piece
    (cofactor, 1).  With limit >= sqrt(M) every piece is a prime power:
    `idempotents` passes M itself, and `model._period` factors element
    orders, at most MAX_ORDER, with the default.
    """
    pieces = []
    p = 2
    while p <= limit and p * p <= M:
        if M % p == 0:
            e = 0
            while M % p == 0:
                M //= p
                e += 1
            pieces.append((p, e))
        p += 1
    if M > 1:
        pieces.append((M, 1))
    return pieces


def idempotents(N: int) -> List[int]:
    """All e in Z_N with e*e == e: 0 or 1 modulo each prime power of N,
    combined by CRT from N's full factorisation (2**omega(N) of them)."""
    found = [0]
    for p, k in _prime_power_pieces(N, limit=N):
        q = p**k
        c = N // q * pow(N // q, -1, q)  # 1 mod q, 0 mod N/q
        found += [(e + c) % N for e in found]
    return found


def solve_linear_congruence(
    mat: Sequence[Sequence[int]],
    rhs: Sequence[int],
    moduli: Sequence[int],
) -> Optional[List[int]]:
    """Solve mat @ x == rhs where row i is a congruence mod moduli[i].

    Returns one integer solution with entries reduced mod M = lcm(moduli),
    or None when the system is infeasible.  An empty matrix means no
    constraints and yields the empty solution.

    Row elimination to Howell form over Z_M, with no factoring of M.  Row i
    and its right-hand side are multiplied by M / moduli[i], which states
    the same congruence mod M, and the right-hand side rides along as the
    last column.  Column j's pivot is the row whose entry has the least gcd
    g with M.  A row whose entry g divides is cleared by one sparse update;
    any other row is combined with the pivot by extended gcd, and the
    combination, of smaller gcd, becomes the pivot.  Appending (M/g) times
    the pivot to the rows left keeps every combination that vanishes on
    column j (the Howell property).  So the system is infeasible exactly
    when a row is left with no coefficients and a nonzero right-hand side,
    and back-substitution, free variables at 0, always divides by g.
    """
    m = len(moduli)
    if len(mat) != m or len(rhs) != m:
        raise ValueError("row count mismatch")
    if any(d < 1 for d in moduli):
        raise ValueError("moduli must be positive")
    n = len(mat[0]) if mat else 0
    M = math.lcm(*moduli)
    rows = [
        [v * (M // d) % M for v in row] + [b * (M // d) % M]
        for row, b, d in zip(mat, rhs, moduli)
    ]
    pivots = []  # (column, g, inverse of entry / g mod M / g, nonzeros after it)
    for j in range(n):
        best, k = M, None
        for i, row in enumerate(rows):
            if row[j]:
                g = math.gcd(row[j], M)
                if g < best:
                    best, k = g, i
                    if g == 1:
                        break
        if k is None:
            continue
        piv = rows.pop(k)
        g = best
        inv = pow(piv[j] // g, -1, M // g)
        nz = [(jj, piv[jj]) for jj in range(j + 1, n + 1) if piv[jj]]
        for i, row in enumerate(rows):
            x = row[j]
            if not x:
                continue
            if x % g == 0:
                f = x // g * inv % M
                row[j] = 0
                for jj, c in nz:
                    row[jj] = (row[jj] - f * c) % M
            else:
                h, s, t = _xgcd(piv[j], x)
                a, b = piv[j] // h, x // h
                rows[i] = [(b * u - a * v) % M for u, v in zip(piv, row)]
                piv = [(s * u + t * v) % M for u, v in zip(piv, row)]
                g = math.gcd(h, M)
                inv = pow(h // g, -1, M // g)
                nz = [(jj, piv[jj]) for jj in range(j + 1, n + 1) if piv[jj]]
        saturated = [(v * (M // g)) % M for v in piv]
        if any(saturated):
            rows.append(saturated)
        pivots.append((j, g, inv, nz))
    if any(row[n] for row in rows):
        return None  # no coefficients left and a nonzero right-hand side
    z = [0] * n + [-1]  # -1 on the right-hand side column: the dot gives A z - b
    for j, g, inv, nz in reversed(pivots):
        v = -sum(c * z[jj] for jj, c in nz) % M
        z[j] = v // g * inv % (M // g)
    return z[:n]


@dataclass(frozen=True)
class SubgroupGens:
    """A subgroup of `group` presented by a tuple of generators."""

    group: FiniteAbelianGroup
    gens: Tuple[GroupElement, ...]

    def __post_init__(self):
        gens = tuple(self.group.reduce(g) for g in self.gens)
        object.__setattr__(self, "gens", gens)


@dataclass(frozen=True)
class Homomorphism:
    """Group hom source -> target given by an integer matrix on coordinates.

    matrix has target.dim rows and source.dim columns; column j is the image
    of the j-th standard generator of the source.  Well-definedness (every
    source relation maps to zero) is checked at construction.
    """

    source: FiniteAbelianGroup
    target: FiniteAbelianGroup
    matrix: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(int(v) for v in row) for row in self.matrix)
        if len(rows) != self.target.dim or any(
            len(r) != self.source.dim for r in rows
        ):
            raise ValueError("matrix shape does not match source/target dims")
        object.__setattr__(self, "matrix", rows)
        for j, d in enumerate(self.source.moduli):
            for i, e in enumerate(self.target.moduli):
                if (d * rows[i][j]) % e:
                    raise ValueError("matrix does not define a homomorphism")

    def apply(self, x: Sequence[int]) -> GroupElement:
        if len(x) != self.source.dim:
            raise ValueError("element length does not match source dim")
        return tuple(
            sum(row[j] * x[j] for j in range(self.source.dim)) % e
            for row, e in zip(self.matrix, self.target.moduli)
        )

    def is_identity(self) -> bool:
        if self.source != self.target:
            return False
        return all(
            (v - (1 if i == j else 0)) % self.target.moduli[i] == 0
            for i, row in enumerate(self.matrix)
            for j, v in enumerate(row)
        )


def standard_gens(G: FiniteAbelianGroup) -> Tuple[GroupElement, ...]:
    """One generator per nontrivial coordinate."""
    return tuple(
        tuple(1 if i == j else 0 for j in range(G.dim))
        for i in range(G.dim)
        if G.moduli[i] > 1
    )


def scaling_hom(G: FiniteAbelianGroup, c: int) -> Homomorphism:
    """Multiplication by c as a homomorphism G -> G."""
    mat = tuple(
        tuple(c if i == j else 0 for j in range(G.dim)) for i in range(G.dim)
    )
    return Homomorphism(G, G, mat)


def subgroup_membership(sub: SubgroupGens, x: Sequence[int]) -> Optional[Tuple[int, ...]]:
    """Coefficients lam with sum(lam_j * gens_j) == x, or None if x is outside."""
    G = sub.group
    x = G.reduce(x)
    if G.dim == 0:
        return (0,) * len(sub.gens)
    mat = [[g[i] for g in sub.gens] for i in range(G.dim)]
    sol = solve_linear_congruence(mat, list(x), list(G.moduli))
    return None if sol is None else tuple(sol)


def kernel_of_hom(hom: Homomorphism) -> SubgroupGens:
    """Generators of the kernel of hom inside its source group.

    Echelons the graph {(hom(x), x)} on the target coordinates; the columns
    left over vanish there, and their source parts span the kernel.
    """
    G, T = hom.source, hom.target
    cols = [
        [row[j] for row in hom.matrix] + [int(i == j) for i in range(G.dim)]
        for j in range(G.dim)
    ]
    _, rest = _echelon(cols, T.moduli + G.moduli, T.dim)
    gens = (tuple(c[T.dim:]) for c in rest)
    return SubgroupGens(G, tuple(dict.fromkeys(g for g in gens if any(g))))


def subgroup_enumerate(sub: SubgroupGens):
    """All elements of the generated subgroup, sorted."""
    G = sub.group
    seen = {G.zero()}
    frontier = [G.zero()]
    while frontier:
        nxt = []
        for x in frontier:
            for g in sub.gens:
                y = G.add(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(seen)


def subgroup_reduce_gens(sub: SubgroupGens) -> SubgroupGens:
    """Drop generators already in the span of the kept ones (greedy, in order)."""
    kept: List[GroupElement] = []
    for g in sub.gens:
        if subgroup_membership(SubgroupGens(sub.group, tuple(kept)), g) is None:
            kept.append(g)
    return SubgroupGens(sub.group, tuple(kept))


@dataclass(frozen=True)
class QuotientMap:
    """Quotient G/K with its projection hom and a deterministic lift.

    `group` is the quotient in canonical form (moduli form a divisibility
    chain, factors >= 2).  `lift` picks the lexicographically smallest
    preimage, so lifting is reproducible.
    """

    group: FiniteAbelianGroup
    proj: Homomorphism
    kernel_basis: Tuple[Tuple[int, int, GroupElement], ...]  # pivots of `_echelon`

    def lift(self, q: Sequence[int]) -> GroupElement:
        G = self.proj.source
        x0 = hom_preimage(self.proj, q)
        if x0 is None:  # proj is surjective, so this cannot happen
            raise ValueError("element is not in the quotient's image")
        x = list(x0)
        # the smallest first coordinate reachable within the coset is x[i] mod
        # d, then the same for the next coordinate over what is left of K
        for i, d, col in self.kernel_basis:
            c = x[i] // d
            if c:
                x = [(v - c * w) % m for v, w, m in zip(x, col, G.moduli)]
        return tuple(x)


def quotient_group(G: FiniteAbelianGroup, kernel: SubgroupGens) -> QuotientMap:
    """Canonical quotient of G by the subgroup generated by `kernel`."""
    if kernel.group != G:
        raise ValueError("kernel lives in a different group")
    k = G.dim
    cols = list(kernel.gens)
    aug = [
        [c[i] for c in cols] + [G.moduli[i] if j == i else 0 for j in range(k)]
        for i in range(k)
    ]
    U, D, V = smith_normal_form(aug)
    assert all(D[i][i] >= 1 for i in range(k)), "relation lattice must be full rank"
    kept = [i for i in range(k) if D[i][i] >= 2]
    qmod = tuple(D[i][i] for i in kept)
    Q = FiniteAbelianGroup(qmod)
    pmat = tuple(
        tuple(U[i][j] % qmod[r] for j in range(k)) for r, i in enumerate(kept)
    )
    proj = Homomorphism(G, Q, pmat)
    pivots, _ = _echelon(kernel.gens, G.moduli, k)
    return QuotientMap(Q, proj, tuple(pivots))


def subgroup_abstract(sub: SubgroupGens):
    """Present the generated subgroup abstractly.

    Returns (A, emb) where A is a finite abelian group with canonical moduli
    and emb: A -> ambient is an injective hom whose image is the subgroup.
    A is the quotient of Z_L^n by the relations of the n generators, and
    column r of emb is the image of the lift of A's r-th standard generator.
    """
    G = sub.group
    # redundant generators only inflate the relation matrix: present the pivots
    _, gens = span_basis(G, sub.gens)
    src = FiniteAbelianGroup((G.exponent,) * len(gens))
    hom = Homomorphism(src, G, tuple(tuple(g[i] for g in gens) for i in range(G.dim)))
    qm = quotient_group(src, kernel_of_hom(hom))
    emb_cols = [hom.apply(qm.lift(e)) for e in standard_gens(qm.group)]
    emb = Homomorphism(
        qm.group, G, tuple(tuple(col[r] for col in emb_cols) for r in range(G.dim))
    )
    return qm.group, emb


def hom_preimage(hom: Homomorphism, y: Sequence[int]) -> Optional[GroupElement]:
    """Some source element mapping to y under hom, or None."""
    T = hom.target
    y = T.reduce(y)
    if T.dim == 0:
        return hom.source.zero()
    sol = solve_linear_congruence(
        [list(r) for r in hom.matrix], list(y), list(T.moduli)
    )
    return None if sol is None else hom.source.reduce(sol)
