import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetint.formats import MAX_ORDER
from cosetint.groups import (
    FiniteAbelianGroup,
    Homomorphism,
    SubgroupGens,
    hom_preimage,
    kernel_of_hom,
    quotient_group,
    scaling_hom,
    smith_normal_form,
    solve_linear_congruence,
    span_basis,
    standard_gens,
    subgroup_abstract,
    subgroup_enumerate,
    subgroup_membership,
    subgroup_reduce_gens,
)
from helpers import (
    all_subgroups,
    int_det,
    mat_mul,
    random_element,
    random_subgroup,
    reference_kernel_of_hom,
    reference_quotient_group,
    reference_subgroup_abstract,
    small_groups,
    span_bruteforce,
)


def snf_invariants(M):
    U, D, V = smith_normal_form(M)
    m, n = len(M), len(M[0]) if M else 0
    assert mat_mul(mat_mul(U, [list(r) for r in M]), V) == D
    assert abs(int_det(U)) == 1
    assert abs(int_det(V)) == 1
    diag = [D[i][i] for i in range(min(m, n))]
    for i in range(m):
        for j in range(n):
            if i != j:
                assert D[i][j] == 0
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    return U, D, V


class TestSmithNormalForm:
    def test_known_diagonal(self):
        _, D, _ = snf_invariants([[2, 4], [6, 8]])
        assert [D[0][0], D[1][1]] == [2, 4]

    def test_zero_matrix(self):
        _, D, _ = snf_invariants([[0]])
        assert D == [[0]]

    def test_single_entries(self):
        _, D, _ = snf_invariants([[5]])
        assert D == [[5]]
        _, D, _ = snf_invariants([[-3]])
        assert D == [[3]]

    def test_empty_shapes(self):
        U, D, V = smith_normal_form([])
        assert (U, D, V) == ([], [], [])

    def test_wide_and_tall(self):
        snf_invariants([[1, 2, 3]])
        snf_invariants([[1], [2], [3]])

    def test_random_matrices(self):
        # exact-arithmetic diagonalization can overflow the guarded 64-bit
        # range on dense high-rank inputs; that must surface as an explicit
        # OverflowError, never as a wrong answer
        rng = random.Random(20260815)
        checked = overflowed = 0
        for _ in range(500):
            m = rng.randint(1, 6)
            n = rng.randint(1, 6)
            M = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
            try:
                snf_invariants(M)
                checked += 1
            except OverflowError:
                overflowed += 1
        assert checked >= 400
        assert checked + overflowed == 500

    def test_deterministic(self):
        M = [[4, 6, 2], [6, 4, 8], [10, 2, 6]]
        assert smith_normal_form(M) == smith_normal_form([row[:] for row in M])

    def test_overflow_guard(self):
        big = 2**62
        with pytest.raises(OverflowError):
            smith_normal_form([[1, big], [big, 1]])

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=1, max_size=4),
            min_size=1,
            max_size=4,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    def test_property(self, M):
        snf_invariants(M)


class TestSolveLinearCongruence:
    def test_worked_example(self):
        # x == 0 (mod 2) and x == 2 (mod 4) has the unique solution 2 mod 4
        assert solve_linear_congruence([[1], [1]], [0, 2], [2, 4]) == [2]

    def test_infeasible(self):
        assert solve_linear_congruence([[1], [1]], [0, 1], [2, 4]) is None

    def test_saturation_row(self):
        # 2x + y == 1 (mod 4): after column x only 2 * (2, 1 | 1) = (0, 2 | 2)
        # says y is odd; without that row y = 0 leaves 2x == 1
        x, y = solve_linear_congruence([[2, 1]], [1], [4])
        assert (2 * x + y) % 4 == 1

    def test_extended_gcd_pivot(self):
        # 2x == 2, 3x == 3 (mod 6): neither entry divides the other, so the
        # pivot becomes the combination 3x - 2x == 1
        assert solve_linear_congruence([[2], [3]], [2, 3], [6, 6]) == [1]

    def test_no_constraints(self):
        assert solve_linear_congruence([], [], []) == []

    def test_no_variables(self):
        assert solve_linear_congruence([[], []], [0, 4], [3, 4]) == []
        assert solve_linear_congruence([[], []], [0, 3], [3, 4]) is None

    def test_random_against_bruteforce(self):
        rng = random.Random(7)
        for _ in range(300):
            m = rng.randint(1, 3)
            n = rng.randint(1, 3)
            moduli = [rng.choice([2, 3, 4, 6]) for _ in range(m)]
            A = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
            b = [rng.randint(-5, 5) for _ in range(m)]
            L = math.lcm(*moduli)
            brute = None
            for cand in __import__("itertools").product(range(L), repeat=n):
                if all(
                    sum(A[i][j] * cand[j] for j in range(n)) % moduli[i]
                    == b[i] % moduli[i]
                    for i in range(m)
                ):
                    brute = cand
                    break
            got = solve_linear_congruence(A, b, moduli)
            if brute is None:
                assert got is None
            else:
                assert got is not None
                assert all(
                    sum(A[i][j] * got[j] for j in range(n)) % moduli[i]
                    == b[i] % moduli[i]
                    for i in range(m)
                )


    @staticmethod
    def satisfies(A, b, moduli, x):
        return all(
            (sum(a * v for a, v in zip(row, x)) - bi) % d == 0
            for row, bi, d in zip(A, b, moduli)
        )

    @pytest.mark.parametrize(
        "choices",
        [
            (8,), (9,), (25,), (1, 5), (4, 6, 9), (8, 12), (2, 3, 5, 7),
            (6,), (10, 15), (12, 30),
        ],
    )
    def test_moduli_sets_against_span_closure(self, choices):
        # row moduli are drawn from `choices`; b is feasible exactly when it
        # lies in the span of the columns inside Z/d_1 x ... x Z/d_m, which
        # the closure enumerates
        rng = random.Random(sum(choices))
        for m in range(1, 4):
            for n in range(4):
                for _ in range(25):
                    moduli = [rng.choice(choices) for _ in range(m)]
                    G = FiniteAbelianGroup(moduli)
                    A = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(m)]
                    cols = [G.reduce([A[i][j] for i in range(m)]) for j in range(n)]
                    span = span_bruteforce(G, cols)
                    if rng.random() < 0.5:
                        b = list(rng.choice(sorted(span)))
                    else:
                        b = [rng.randint(-30, 30) for _ in range(m)]
                    got = solve_linear_congruence(A, b, moduli)
                    if G.reduce(b) in span:
                        assert got is not None and len(got) == n
                        assert all(0 <= v < math.lcm(*moduli) for v in got)
                        assert self.satisfies(A, b, moduli, got)
                    else:
                        assert got is None

    @staticmethod
    def planted(rng, m, n, moduli, feasible, entry=None):
        """A system with a known solution, or with b moved off the column span.

        Row k has modulus M = lcm(moduli), so chi(v) = sum c_i*(M/d_i)*v_i - v_k
        is a character of Z/d_1 x ... x Z/d_m.  Row k of A is set so that chi
        vanishes on every column; b = A z, plus e_k when infeasible, which
        chi maps to -1.
        """
        M = math.lcm(*moduli)
        k = moduli.index(M)
        entry = entry or (lambda: rng.randrange(M))
        A = [[entry() for _ in range(n)] for _ in range(m)]
        c = [rng.randrange(M) for _ in range(m)]
        for j in range(n):
            A[k][j] = sum(c[i] * (M // moduli[i]) * A[i][j] for i in range(m) if i != k) % M
        z = [rng.randrange(M) for _ in range(n)]
        b = [sum(a * v for a, v in zip(row, z)) % d for row, d in zip(A, moduli)]
        if not feasible:
            b[k] = (b[k] + 1) % M
        return A, b

    @pytest.mark.parametrize(
        "m, n, moduli",
        [
            (64, 128, (256,)),
            (24, 48, (12, 60)),
            (32, 48, (4096,)),
            (12, 16, ((2**31 - 1) * (2**61 - 1),)),
            # rows mod 9 and mod 8 are scaled by 8 and by 9 to modulus 72
            (18, 12, (9, 8, 72)),
        ],
    )
    def test_planted(self, m, n, moduli):
        rng = random.Random(m * n)
        moduli = [moduli[i % len(moduli)] for i in range(m)]
        for feasible in (True, False):
            A, b = self.planted(rng, m, n, moduli, feasible)
            got = solve_linear_congruence(A, b, moduli)
            if feasible:
                assert got is not None and self.satisfies(A, b, moduli, got)
            else:
                assert got is None

    @pytest.mark.parametrize(
        "modulus",
        [
            (2**31 - 1) * (2**61 - 1),
            1031**2,
            1031**3 * 1033**2 * 1039,
        ],
    )
    def test_zero_divisor_entries_of_huge_moduli(self, modulus):
        # entries built from the large prime factors share them with the
        # modulus, so pivots are zero divisors and rows meet pivots they are
        # not multiples of; nothing is factored
        rng = random.Random(modulus % 1000)
        factors = [f for f in (1031, 1033, 1039, 2**31 - 1, 2**61 - 1) if modulus % f == 0]
        parts = [1] + factors + [f * f for f in factors]

        def entry():
            return rng.choice(parts) * rng.randrange(1, 50) % modulus

        for m, n in ((1, 1), (3, 2), (6, 8)):
            moduli = [modulus] * m
            for feasible in (True, False):
                for _ in range(10):
                    A, b = self.planted(rng, m, n, moduli, feasible, entry)
                    got = solve_linear_congruence(A, b, moduli)
                    if feasible:
                        assert got is not None and self.satisfies(A, b, moduli, got)
                    else:
                        assert got is None

    @pytest.mark.parametrize(
        "moduli",
        [
            (1031, 1031 * 1033, 8, 8 * 1031 * 1033),
            (1031**2, 1031**3 * 1033, 8, 8 * 1031**3 * 1033),
        ],
    )
    def test_rows_mod_proper_factors_of_huge_moduli(self, moduli):
        # a row mod a proper factor of M is scaled by the rest of M, so its
        # entries are zero divisors mod M
        rng = random.Random(moduli[0])
        for m, n in ((4, 4), (8, 8), (12, 10)):
            rows = [moduli[i % len(moduli)] for i in range(m)]
            for feasible in (True, False):
                for _ in range(5):
                    A, b = self.planted(rng, m, n, rows, feasible)
                    got = solve_linear_congruence(A, b, rows)
                    if feasible:
                        assert got is not None and self.satisfies(A, b, rows, got)
                    else:
                        assert got is None


class TestGroupBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            FiniteAbelianGroup((0,))
        with pytest.raises(ValueError):
            FiniteAbelianGroup((-2,))

    def test_trivial_group(self):
        G = FiniteAbelianGroup(())
        assert G.order == 1
        assert G.exponent == 1
        assert G.zero() == ()
        assert list(G.elements()) == [()]

    def test_bool_is_no_coordinate(self):
        G = FiniteAbelianGroup((2, 4))
        assert G.contains((1, 1))
        assert not G.contains((True, 1)) and not G.contains((0, False))

    def test_arithmetic(self):
        G = FiniteAbelianGroup((2, 4))
        assert G.order == 8
        assert G.exponent == 4
        assert G.add((1, 3), (1, 2)) == (0, 1)
        assert G.neg((1, 3)) == (1, 1)
        assert G.sub((0, 0), (1, 3)) == (1, 1)
        assert G.scale(3, (1, 2)) == (1, 2)
        assert G.element_order((1, 2)) == 2
        assert G.element_order((0, 0)) == 1

    def test_indexing_roundtrip(self):
        G = FiniteAbelianGroup((3, 4))
        for i, e in enumerate(G.elements()):
            assert G.index_of(e) == i
            assert G.element_at(i) == e

    def test_power(self):
        G = FiniteAbelianGroup((2, 3))
        assert G.power(2).moduli == (2, 3, 2, 3)
        assert G.power(0).moduli == ()
        # large powers stay representable even though the order is astronomical
        assert FiniteAbelianGroup((256,)).power(64).order == 256**64


class TestHomomorphism:
    def test_well_defined_check(self):
        G2 = FiniteAbelianGroup((2,))
        G4 = FiniteAbelianGroup((4,))
        # 1 -> 1 is not a hom Z/2 -> Z/4 (2*1 != 0 mod 4)
        with pytest.raises(ValueError):
            Homomorphism(G2, G4, ((1,),))
        h = Homomorphism(G2, G4, ((2,),))
        assert h.apply((1,)) == (2,)

    def test_identity_detection(self):
        G = FiniteAbelianGroup((2, 4))
        assert scaling_hom(G, 1).is_identity()
        assert scaling_hom(G, 5).is_identity()
        assert not scaling_hom(G, 3).is_identity()

    def test_preimage(self):
        G4 = FiniteAbelianGroup((4,))
        G2 = FiniteAbelianGroup((2,))
        pr = Homomorphism(G4, G2, ((1,),))
        x = hom_preimage(pr, (1,))
        assert x is not None and pr.apply(x) == (1,)
        emb = Homomorphism(G2, G4, ((2,),))
        assert hom_preimage(emb, (1,)) is None
        assert hom_preimage(emb, (2,)) == (1,)


class TestSubgroups:
    def test_membership_known(self):
        G = FiniteAbelianGroup((2, 4))
        H = SubgroupGens(G, ((1, 1),))
        assert subgroup_membership(H, (0, 2)) == (2,)
        assert subgroup_membership(H, (1, 0)) is None

    def test_membership_reconstructs(self):
        rng = random.Random(99)
        for G in small_groups(12):
            for _ in range(5):
                H = random_subgroup(rng, G)
                span = span_bruteforce(G, H.gens)
                for x in G.elements():
                    lam = subgroup_membership(H, x)
                    if x in span:
                        assert lam is not None
                        acc = G.zero()
                        for c, g in zip(lam, H.gens):
                            acc = G.add(acc, G.scale(c, g))
                        assert acc == x
                    else:
                        assert lam is None

    def test_enumerate(self):
        G = FiniteAbelianGroup((2, 4))
        H = SubgroupGens(G, ((1, 1),))
        assert subgroup_enumerate(H) == [(0, 0), (0, 2), (1, 1), (1, 3)]

    def test_span_basis_matches_closure(self):
        rng = random.Random(41)
        groups = small_groups(12) + [FiniteAbelianGroup(m) for m in ((6, 10), (2, 6, 6), (4, 8))]
        for G in groups:
            for _ in range(8):
                gens = [random_element(rng, G) for _ in range(rng.randrange(5))]
                order, cols = span_basis(G, gens)
                span = span_bruteforce(G, gens)
                assert order == len(span), (G, gens)
                assert span_bruteforce(G, cols) == span, (G, gens)
                assert len(cols) <= G.dim, (G, gens)

    def test_reduce_gens(self):
        G = FiniteAbelianGroup((4, 4))
        H = SubgroupGens(G, ((0, 0), (1, 0), (2, 0), (1, 0), (0, 1)))
        red = subgroup_reduce_gens(H)
        assert red.gens == ((1, 0), (0, 1))
        assert span_bruteforce(G, red.gens) == span_bruteforce(G, H.gens)

    def test_kernel_random(self):
        rng = random.Random(4)
        groups = small_groups(9)
        for _ in range(60):
            G = rng.choice(groups)
            T = rng.choice(groups)
            mat = tuple(
                tuple(rng.randrange(T.moduli[i]) * (G.exponent and 1) for _ in range(G.dim))
                for i in range(T.dim)
            )
            try:
                hom = Homomorphism(G, T, mat)
            except ValueError:
                continue
            ker = kernel_of_hom(hom)
            got = span_bruteforce(G, ker.gens)
            want = {x for x in G.elements() if hom.apply(x) == T.zero()}
            assert got == want

    def test_kernel_to_trivial_target(self):
        G = FiniteAbelianGroup((2, 3))
        T = FiniteAbelianGroup(())
        ker = kernel_of_hom(Homomorphism(G, T, ()))
        assert span_bruteforce(G, ker.gens) == set(G.elements())


class TestQuotient:
    def test_z4_mod_2(self):
        G = FiniteAbelianGroup((4,))
        qm = quotient_group(G, SubgroupGens(G, ((2,),)))
        assert qm.group.moduli == (2,)
        assert qm.proj.apply((1,)) in [(1,)]
        assert qm.lift(qm.proj.apply((1,))) == (1,)  # lex-min of {1, 3}
        assert qm.lift((0,)) == (0,)

    def test_trivial_kernel_is_canonical_identity(self):
        G = FiniteAbelianGroup((2, 2))
        qm = quotient_group(G, SubgroupGens(G, ()))
        assert qm.group == G
        assert qm.proj.is_identity()

    def test_random(self):
        rng = random.Random(11)
        for G in small_groups(16):
            for _ in range(4):
                K = random_subgroup(rng, G)
                qm = quotient_group(G, K)
                ksize = len(span_bruteforce(G, K.gens))
                assert qm.group.order * ksize == G.order
                image = {qm.proj.apply(x) for x in G.elements()}
                assert image == set(qm.group.elements())
                for q in qm.group.elements():
                    assert qm.proj.apply(qm.lift(q)) == q
                # moduli are canonical: divisibility chain, factors >= 2
                mods = qm.group.moduli
                assert all(m >= 2 for m in mods)
                for a, b in zip(mods, mods[1:]):
                    assert b % a == 0


class TestAbstract:
    def test_cyclic_diagonal(self):
        G = FiniteAbelianGroup((2, 4))
        A, emb = subgroup_abstract(SubgroupGens(G, ((1, 1),)))
        assert A.moduli == (4,)
        image = {emb.apply(x) for x in A.elements()}
        assert image == span_bruteforce(G, [(1, 1)])

    def test_random(self):
        rng = random.Random(12)
        for G in small_groups(16):
            for _ in range(4):
                H = random_subgroup(rng, G)
                A, emb = subgroup_abstract(H)
                span = span_bruteforce(G, H.gens)
                image = [emb.apply(x) for x in A.elements()]
                assert len(set(image)) == A.order  # injective
                assert set(image) == span
                for x in span:
                    pre = hom_preimage(emb, x)
                    assert pre is not None and emb.apply(pre) == x

    def test_empty(self):
        G = FiniteAbelianGroup((6,))
        A, emb = subgroup_abstract(SubgroupGens(G, ()))
        assert A.moduli == ()
        assert emb.apply(()) == (0,)


def _subgroups_and_samples():
    """(G, K): every subgroup of every group of order <= 16, generated by all
    of its elements and by a greedy minimal subset of them, then seeded
    random generator sets in four larger groups with mixed moduli."""
    out = []
    for G in small_groups(16):
        for H in sorted(all_subgroups(G), key=sorted):
            K = SubgroupGens(G, tuple(sorted(H)))
            out += [(G, K), (G, subgroup_reduce_gens(K))]
    rng = random.Random(21)
    for moduli in ((12, 12), (2, 6, 24), (6, 60), (3, 9, 27)):
        G = FiniteAbelianGroup(moduli)
        out += [(G, random_subgroup(rng, G, max_gens=4)) for _ in range(25)]
    return out


SAMPLES = _subgroups_and_samples()


class TestEchelonMatchesReference:
    """Quotients, kernels and presentations against the diagonalization,
    kernel-enumeration and unimodular-inverse versions in helpers."""

    def test_quotient_moduli_projection_and_every_lift(self):
        for G, K in SAMPLES:
            qm, ref = quotient_group(G, K), reference_quotient_group(G, K)
            assert qm.group == ref.group
            assert qm.proj.matrix == ref.proj.matrix
            for q in qm.group.elements():
                assert qm.lift(q) == ref.lift(q), (G, K, q)

    def test_kernel_spans(self):
        rng = random.Random(22)
        targets = small_groups(12) + [FiniteAbelianGroup(m) for m in ((12, 12), (2, 6, 24))]
        n = 0
        for G, _ in SAMPLES[::3]:
            T = rng.choice(targets)
            # entry (i, j) is a multiple of e_i / gcd(e_i, d_j), so d_j maps to 0
            hom = Homomorphism(G, T, tuple(
                tuple(rng.randrange(e) * (e // math.gcd(e, d)) % e for d in G.moduli)
                for e in T.moduli
            ))
            got = span_bruteforce(G, kernel_of_hom(hom).gens)
            assert got == span_bruteforce(G, reference_kernel_of_hom(hom).gens)
            n += len(got) < G.order
        assert n > 50  # most samples have a proper kernel

    def test_abstract_moduli_and_embedding(self):
        for G, H in SAMPLES:
            A, emb = subgroup_abstract(H)
            assert A.moduli == reference_subgroup_abstract(H)[0].moduli
            image = {emb.apply(x) for x in A.elements()}
            assert len(image) == A.order  # injective
            assert image == span_bruteforce(G, H.gens)


class TestQuotientAtMaxOrder:
    """Quotients and lifts of groups of order MAX_ORDER never list the kernel."""

    @pytest.fixture(autouse=True)
    def _no_enumeration(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("subgroup_enumerate called")

        monkeypatch.setattr("cosetint.groups.subgroup_enumerate", refuse)

    def check_lifts(self, G, K, samples):
        qm = quotient_group(G, K)
        for x in samples:
            y = qm.lift(qm.proj.apply(x))
            assert y <= x  # the smallest element of its coset
            assert subgroup_membership(K, G.sub(x, y)) is not None
            assert qm.lift(qm.proj.apply(y)) == y
        return qm

    def test_elementary_abelian_kernel(self):
        G = FiniteAbelianGroup((2,) * 18 + (4,))
        assert G.order == MAX_ORDER
        gens = [tuple(int(j in (i, i + 1)) for j in range(19)) for i in range(16)]
        gens.append((0,) * 17 + (1, 2))
        K = SubgroupGens(G, tuple(gens))
        rng = random.Random(23)
        qm = self.check_lifts(G, K, [random_element(rng, G) for _ in range(50)])
        assert qm.group.order * 2**17 == G.order
        # K meets coordinates 0..15 and 17 in all of Z_2 and nothing else, so
        # the lifts are the elements that vanish there
        lifts = sorted(qm.lift(q) for q in qm.group.elements())
        assert lifts == [(0,) * 16 + (a, 0, b) for a in range(2) for b in range(4)]

    def test_doubled_lattice(self):
        G = FiniteAbelianGroup((1024, 1024))
        assert G.order == MAX_ORDER
        K = SubgroupGens(G, ((2, 0), (0, 2)))
        rng = random.Random(24)
        qm = self.check_lifts(G, K, [random_element(rng, G) for _ in range(50)])
        assert qm.group.moduli == (2, 2)
        assert sorted(qm.lift(q) for q in qm.group.elements()) == [(0, 0), (0, 1), (1, 0), (1, 1)]


class TestStandardGens:
    def test_skips_trivial_coordinates(self):
        G = FiniteAbelianGroup((2, 1, 3))
        assert standard_gens(G) == ((1, 0, 0), (0, 0, 1))
