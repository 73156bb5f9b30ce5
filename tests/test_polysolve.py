import random
import time

import pytest

import cosetint.groups
import cosetint.polysolve
from cosetint.groups import FiniteAbelianGroup
from cosetint.classify import IN_P, classify_affine, classify_homogeneous
from cosetint.model import ProblemInstance, SubsetS, oracle_solve, verify_certificate
from cosetint.polysolve import decide, solve_affine_coset, solve_homogeneous_core

from helpers import (
    CLASSIFIERS,
    all_subgroups,
    random_coset_subset,
    random_element,
    random_subset,
    reference_oracle_solve,
    small_groups,
    span_bruteforce,
)

Z4 = FiniteAbelianGroup((4,))


def random_instance(rng, G, max_t=4, max_gens=4, homogeneous=False):
    t = rng.randrange(max_t + 1)
    if homogeneous:
        xstar = tuple(G.zero() for _ in range(t))
    else:
        xstar = tuple(G.element_at(rng.randrange(G.order)) for _ in range(t))
    ngens = rng.randrange(max_gens + 1)
    hgens = tuple(
        tuple(G.element_at(rng.randrange(G.order)) for _ in range(t)) for _ in range(ngens)
    )
    return ProblemInstance(G, t, xstar, hgens)


class TestAffine:
    def test_empty_subset(self):
        S = SubsetS.of(Z4, [])
        assert solve_affine_coset(ProblemInstance(Z4, 0, (), ()), S).kind == "yes"
        inst = ProblemInstance(Z4, 2, ((0,), (0,)), ())
        assert solve_affine_coset(inst, S).kind == "no"

    def test_coset_examples(self):
        S = SubsetS.of(Z4, [(1,), (3,)])
        yes = ProblemInstance(Z4, 2, ((0,), (0,)), (((1,), (1,)),))
        assert solve_affine_coset(yes, S).kind == "yes"
        no = ProblemInstance(Z4, 2, ((0,), (0,)), (((2,), (0,)),))
        assert solve_affine_coset(no, S).kind == "no"

    def test_rejects_non_coset(self):
        for t in (0, 1):
            inst = ProblemInstance(Z4, t, ((0,),) * t, ())
            with pytest.raises(ValueError, match="empty or a coset"):
                solve_affine_coset(inst, SubsetS.of(Z4, [(0,), (1,)]))

    def test_certificate_is_over_original_generators(self):
        S = SubsetS.of(Z4, [(1,), (3,)])
        inst = ProblemInstance(Z4, 2, ((1,), (0,)), (((0,), (1,)), ((2,), (2,))))
        res = solve_affine_coset(inst, S)
        if res.kind == "yes":
            assert verify_certificate(inst, S, res.certificate)

    def test_agrees_with_oracle(self):
        rng = random.Random(314)
        groups = [G for G in small_groups(9)]
        checked = 0
        while checked < 500:
            G = rng.choice(groups)
            S = random_coset_subset(rng, G)
            if classify_affine(G, S).verdict != IN_P:
                continue
            inst = random_instance(rng, G)
            fast = solve_affine_coset(inst, S)
            slow = oracle_solve(inst, S)
            assert fast.kind == slow.kind, (G, sorted(S.elements), inst)
            if fast.kind == "yes":
                assert verify_certificate(inst, S, fast.certificate)
            checked += 1


# mixed moduli; Z_3 x Z_2 and Z_4 x Z_2 are not canonical, so even G/0 has other
# moduli; over Z_2 x Z_8 and Z_2 x Z_2 x Z_4 the rows of (G/G')^t have several
# moduli inside the one 2-power piece, so the solver scales them by different factors
MIXED_MODULI = [
    FiniteAbelianGroup(moduli) for moduli in ((3, 2), (2, 6), (4, 2), (2, 8), (2, 2, 4))
]


@pytest.mark.parametrize("G", MIXED_MODULI, ids=lambda G: "x".join(map(str, G.moduli)))
def test_every_coset_agrees_with_reference_oracle(G):
    # every coset, from single points (G' = 0) to S = G (Q trivial), on
    # instances with t = 0, with zero generators, and random ones
    rng = random.Random(G.order)
    cosets = {frozenset(G.add(b, k) for k in K) for K in all_subgroups(G) for b in G.elements()}
    assert any(len(c) == 1 for c in cosets) and any(len(c) == G.order for c in cosets)
    for elems in sorted(cosets, key=sorted):
        S = SubsetS.of(G, elems)
        x2 = tuple(random_element(rng, G) for _ in range(2))
        insts = [
            ProblemInstance(G, 0, (), ()),
            ProblemInstance(G, 0, (), ((), ())),
            ProblemInstance(G, 2, x2, ()),
        ] + [random_instance(rng, G, max_t=3, max_gens=3) for _ in range(6)]
        for inst in insts:
            fast = solve_affine_coset(inst, S)
            ref, _ = reference_oracle_solve(inst, S)
            assert fast.kind == ref.kind, (G, sorted(elems), inst)
            if fast.kind == "yes":
                assert verify_certificate(inst, S, fast.certificate)


class TestHomogeneous:
    def test_zero_in_s(self):
        # the core is {0}, a coset, and the system's answer is the zero combination
        S = SubsetS.of(Z4, [(0,), (3,)])
        for hgens in ((), (((1,), (2,), (3,)), ((2,), (0,), (1,)))):
            inst = ProblemInstance(Z4, 3, tuple((0,) for _ in range(3)), hgens)
            res = solve_homogeneous_core(inst, S)
            assert res.kind == "yes" and res.certificate == (0,) * len(hgens)

    def test_coset_core_examples(self):
        S = SubsetS.of(Z4, [(1,), (3,)])
        yes = ProblemInstance(Z4, 2, ((0,), (0,)), (((1,), (1,)),))
        assert solve_homogeneous_core(yes, S).kind == "yes"
        no = ProblemInstance(Z4, 2, ((0,), (0,)), (((2,), (2,)),))
        assert solve_homogeneous_core(no, S).kind == "no"

    def test_rejects_nonzero_xstar(self):
        # decide checks before classifying, so an NP-complete S fails the same way
        inst = ProblemInstance(Z4, 1, ((1,),), ())
        with pytest.raises(ValueError, match="the homogeneous variant needs xstar = 0"):
            solve_homogeneous_core(inst, SubsetS.of(Z4, [(0,)]))
        with pytest.raises(ValueError, match="the homogeneous variant needs xstar = 0"):
            decide(inst, SubsetS.of(Z4, [(1,), (2,)]), "Pi")

    def test_rejects_non_coset_core(self):
        inst = ProblemInstance(FiniteAbelianGroup((5,)), 1, ((0,),), ())
        S = SubsetS.of(FiniteAbelianGroup((5,)), [(1,), (2,), (4,)])
        with pytest.raises(ValueError):
            solve_homogeneous_core(inst, S)

    def test_agrees_with_oracle(self):
        rng = random.Random(2718)
        groups = [G for G in small_groups(9)]
        checked = 0
        while checked < 500:
            G = rng.choice(groups)
            S = SubsetS.of(G, [e for e in G.elements() if rng.random() < 0.5])
            if classify_homogeneous(G, S).verdict != IN_P:
                continue
            inst = random_instance(rng, G, homogeneous=True)
            fast = solve_homogeneous_core(inst, S)
            slow = oracle_solve(inst, S)
            assert fast.kind == slow.kind, (G, sorted(S.elements), inst)
            if fast.kind == "yes":
                assert verify_certificate(inst, S, fast.certificate)
            checked += 1


class TestDecide:
    SOLVERS = {"P": solve_affine_coset, "Pi": solve_homogeneous_core}

    @pytest.mark.parametrize("variant", ["P", "Pi"])
    def test_one_path_agrees_with_each_solver(self, variant):
        # the polynomial wrapper on in-P targets, the oracle at the same budget
        # on NP-complete ones, and the reference oracle's kind on every target
        rng = random.Random(1618)
        seen = set()
        for G in small_groups(6):
            for _ in range(40):
                pick = random_coset_subset if rng.random() < 0.5 else random_subset
                S = pick(rng, G)
                inst = random_instance(rng, G, max_t=3, max_gens=3,
                                       homogeneous=variant == "Pi")
                budget = rng.choice((3, 10 ** 8))
                res = decide(inst, S, variant, budget=budget)
                in_p = CLASSIFIERS[variant](G, S).verdict == IN_P
                seen.add(in_p)
                if in_p:
                    other = self.SOLVERS[variant](inst, S)
                else:
                    other = oracle_solve(inst, S, budget=budget)
                    assert res.nodes == other.nodes
                assert res == other, (G, sorted(S.elements), inst)
                ref, _ = reference_oracle_solve(inst, S)
                assert decide(inst, S, variant).kind == ref.kind, (G, sorted(S.elements), inst)
        assert seen == {True, False}

    def test_unknown_variant(self):
        inst = ProblemInstance(Z4, 1, ((0,),), ())
        with pytest.raises(ValueError, match="unknown variant"):
            decide(inst, SubsetS.of(Z4, [(1,)]), "Q")

    def test_rejects_subset_over_another_group(self):
        inst = ProblemInstance(Z4, 1, ((0,),), ())
        with pytest.raises(ValueError, match="different groups"):
            decide(inst, SubsetS.of(FiniteAbelianGroup((2,)), [(1,)]))


def test_scales_to_desk_size():
    # polynomial-runtime sanity bound, not a proof
    G = FiniteAbelianGroup((256,))
    rng = random.Random(1)
    t = 64
    sub = [(32,)]
    base = (7,)
    S = SubsetS.of(G, [G.add(base, G.scale(k, sub[0])) for k in range(8)])
    hgens = tuple(tuple((rng.randrange(256),) for _ in range(t)) for _ in range(64))
    inst = ProblemInstance(G, t, tuple((0,) for _ in range(t)), hgens)
    start = time.monotonic()
    res = solve_affine_coset(inst, S)
    elapsed = time.monotonic() - start
    assert res.kind in ("yes", "no")
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_scales_to_desk_size_mixed_moduli():
    # a planted yes over mixed moduli, with S a coset of a subgroup of
    # order 12, so Q = G/G' is Z_2 x Z_12
    G = FiniteAbelianGroup((2, 6, 24))
    rng = random.Random(1)
    t = 64
    S = SubsetS.of(G, [G.add((1, 5, 7), k) for k in span_bruteforce(G, [(1, 3, 0), (0, 2, 12)])])
    hgens = tuple(tuple(random_element(rng, G) for _ in range(t)) for _ in range(64))
    cert = tuple(rng.randrange(G.exponent) for _ in hgens)
    xstar = []
    for i in range(t):
        x = rng.choice(sorted(S.elements))
        for c, g in zip(cert, hgens):
            x = G.sub(x, G.scale(c, g[i]))
        xstar.append(x)
    inst = ProblemInstance(G, t, tuple(xstar), hgens)
    start = time.monotonic()
    res = solve_affine_coset(inst, S)
    elapsed = time.monotonic() - start
    assert res.kind == "yes" and verify_certificate(inst, S, res.certificate)
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_desk_size_system_has_no_column_for_the_subgroup(monkeypatch):
    # the instance of test_scales_to_desk_size: S is a coset of <32> in Z_256,
    # decided in Q = Z_256/<32> = Z_32 by one system with dim(Q) = 1 row per
    # slot and one column per H-generator, none for the subgroup: 64 x 64
    G = FiniteAbelianGroup((256,))
    rng = random.Random(1)
    S = SubsetS.of(G, [G.add((7,), G.scale(k, (32,))) for k in range(8)])
    hgens = tuple(tuple((rng.randrange(256),) for _ in range(64)) for _ in range(64))
    inst = ProblemInstance(G, 64, tuple((0,) for _ in range(64)), hgens)
    shapes = []
    solve = cosetint.groups.solve_linear_congruence

    def recording(mat, rhs, moduli):
        shapes.append((len(mat), len(mat[0]) if mat else 0))
        return solve(mat, rhs, moduli)

    for module in (cosetint.groups, cosetint.polysolve):
        monkeypatch.setattr(module, "solve_linear_congruence", recording)
    solve_affine_coset(inst, S)
    assert shapes == [(64, 64)]
