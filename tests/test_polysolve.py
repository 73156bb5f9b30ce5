import random
import time

import pytest

import cosetint.groups
from cosetint.groups import FiniteAbelianGroup
from cosetint.classify import IN_P, classify_affine, classify_homogeneous
from cosetint.model import ProblemInstance, SubsetS, oracle_solve, verify_certificate
from cosetint.polysolve import solve_affine_coset, solve_homogeneous_core

from helpers import random_coset_subset, small_groups

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
        inst = ProblemInstance(Z4, 1, ((0,),), ())
        with pytest.raises(ValueError):
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


class TestHomogeneous:
    def test_zero_in_s(self):
        S = SubsetS.of(Z4, [(0,), (3,)])
        inst = ProblemInstance(Z4, 3, tuple((0,) for _ in range(3)), ())
        res = solve_homogeneous_core(inst, S)
        assert res.kind == "yes" and verify_certificate(inst, S, res.certificate)

    def test_coset_core_examples(self):
        S = SubsetS.of(Z4, [(1,), (3,)])
        yes = ProblemInstance(Z4, 2, ((0,), (0,)), (((1,), (1,)),))
        assert solve_homogeneous_core(yes, S).kind == "yes"
        no = ProblemInstance(Z4, 2, ((0,), (0,)), (((2,), (2,)),))
        assert solve_homogeneous_core(no, S).kind == "no"

    def test_rejects_nonzero_xstar(self):
        inst = ProblemInstance(Z4, 1, ((1,),), ())
        with pytest.raises(ValueError):
            solve_homogeneous_core(inst, SubsetS.of(Z4, [(0,)]))

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


def test_desk_size_system_has_one_column_per_subgroup_generator(monkeypatch):
    # the instance of test_scales_to_desk_size: S is a coset of <32> in Z_256,
    # whose 8 elements must enter the system as one generator per slot,
    # 64 H-generators + 64 slots = 128 columns
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

    monkeypatch.setattr(cosetint.groups, "solve_linear_congruence", recording)
    solve_affine_coset(inst, S)
    assert [s for s in shapes if s[0] == 64] == [(64, 128)]
