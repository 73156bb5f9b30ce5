import random

import pytest

from cosetint.groups import FiniteAbelianGroup, SubgroupGens, idempotents, subgroup_enumerate
from cosetint.classify import (
    IN_P,
    NP_COMPLETE,
    classify_affine,
    classify_homogeneous,
    dilation_core,
    find_noncoset_witness,
    is_coset,
)
from cosetint.model import SubsetS

from helpers import (
    all_subgroups,
    all_subsets,
    random_coset_subset,
    reference_dilation_core,
    reference_is_coset,
    reference_noncoset_witness,
    small_groups,
    span_bruteforce,
)

Z4 = FiniteAbelianGroup((4,))
Z5 = FiniteAbelianGroup((5,))
Z6 = FiniteAbelianGroup((6,))


def coset_oracle(G, S):
    """Independent check: enumerate every subgroup and every translate."""
    if not S.elements:
        return False
    for sub in all_subgroups(G):
        for g in G.elements():
            if frozenset(G.add(h, g) for h in sub) == S.elements:
                return True
    return False


def base_and_span(hit):
    """An is_coset result as (base, spanned set); None stays None."""
    if hit is None:
        return None
    base, sub = hit
    return base, span_bruteforce(sub.group, sub.gens)


def check_against_reference(S):
    hit = is_coset(S)
    assert base_and_span(hit) == base_and_span(reference_is_coset(S)), S
    assert hit is None or len(hit[1].gens) <= S.group.dim, (S, hit)
    return hit


class TestIsCoset:
    def test_examples(self):
        base, sub = is_coset(SubsetS.of(Z4, [(1,), (3,)]))
        assert base == (1,)
        assert set(subgroup_enumerate(sub)) == {(0,), (2,)}
        assert is_coset(SubsetS.of(Z4, [(0,), (1,)])) is None
        base, sub = is_coset(SubsetS.of(Z4, [(3,)]))
        assert base == (3,) and set(subgroup_enumerate(sub)) == {(0,)}

    def test_empty_absent(self):
        assert is_coset(SubsetS.of(Z4, [])) is None

    def test_any_base_gives_same_subgroup(self):
        rng = random.Random(5)
        for G in small_groups(8):
            for sub in all_subgroups(G):
                g = G.element_at(rng.randrange(G.order))
                S = SubsetS.of(G, [G.add(h, g) for h in sub])
                base, found = is_coset(S)
                assert base == min(S.elements)
                assert span_bruteforce(G, found.gens) == set(sub), (S, found)
                assert len(found.gens) <= G.dim, (S, found)

    def test_matches_pairwise_closure(self):
        for G in small_groups(8):
            for S in all_subsets(G):
                check_against_reference(S)


class TestDilationCore:
    def test_zero_in_s(self):
        for S in ([(0,)], [(0,), (1,)], [(0,), (2,), (3,)]):
            assert dilation_core(SubsetS.of(Z4, S)).elements == {(0,)}

    def test_fixed_example(self):
        assert dilation_core(SubsetS.of(Z4, [(1,), (3,)])).elements == {(1,), (3,)}

    def test_shrinking_example(self):
        assert dilation_core(SubsetS.of(Z6, [(1,), (2,), (4,)])).elements == {(2,), (4,)}

    def test_empty(self):
        assert dilation_core(SubsetS.of(Z6, [])).elements == frozenset()

    def test_contained_and_idempotent(self):
        # and S meets the span of its core only in the core, the fact that
        # compile_hardness_Pi's set-eq check records
        groups = small_groups(8) + [FiniteAbelianGroup((12,)), FiniteAbelianGroup((2, 6))]
        for G in groups:
            for S in all_subsets(G):
                core = dilation_core(S)
                assert core.elements <= S.elements
                assert dilation_core(core).elements == core.elements
                span = subgroup_enumerate(SubgroupGens(G, core.sorted_elements()))
                assert S.elements & set(span) == core.elements, (G, S)

    def test_matches_definition(self):
        groups = small_groups(8) + [FiniteAbelianGroup((12,)), FiniteAbelianGroup((2, 6))]
        for G in groups:
            for S in all_subsets(G):
                assert dilation_core(S) == reference_dilation_core(S), (G, S)

    def test_prime_power_law(self):
        for moduli in ((2,), (3,), (4,), (5,), (7,), (8,), (9,), (2, 2)):
            G = FiniteAbelianGroup(moduli)
            for S in all_subsets(G):
                core = dilation_core(S)
                if not S.elements:
                    assert core.elements == frozenset()
                elif G.zero() in S:
                    assert core.elements == {G.zero()}
                else:
                    assert core.elements == S.elements


class TestIdempotents:
    def test_matches_scan(self):
        for N in range(1, 5001):
            assert sorted(idempotents(N)) == [e for e in range(N) if e * e % N == e], N

    @pytest.mark.parametrize(
        "N, expected",
        [
            # 0 or 1 mod 1031 and mod 1033, both primes above trial division
            (1031 * 1033, [0, 1, 531996, 533028]),
            (2 * 1031 * 1033, [0, 1, 531996, 533028, 1065023, 1065024, 1597019, 1598051]),
        ],
    )
    def test_cofactor_above_trial_division(self, N, expected):
        assert sorted(idempotents(N)) == expected
        assert all(e * e % N == e for e in expected)

    def test_core_over_composite_cofactor(self):
        # e = 531996 sends {1, e} to {e}; with only 0 and 1 the core stays {1, e}
        G = FiniteAbelianGroup((1031 * 1033,))
        S = SubsetS.of(G, [(1,), (531996,)])
        assert dilation_core(S).elements == {(531996,)}


class TestMatchesScanReferences:
    """is_coset and dilation_core agree with the pairwise closure test and
    the scan over every a < exponent that they replace, on groups whose
    exponent has idempotents other than 0 and 1."""

    @pytest.mark.parametrize("moduli", [(30,), (60,), (210,), (6, 10), (2, 6, 6)])
    def test_random_subsets_and_cosets(self, moduli):
        # exponents with idempotents other than 0 and 1, which give cores
        # other than S and {0}
        G = FiniteAbelianGroup(moduli)
        m = G.exponent
        idempotents = [e for e in range(2, m) if e * e % m == e]
        rng = random.Random(m * G.order)
        cosets = proper_cores = 0
        for _ in range(60):
            if rng.random() < 0.4:
                S = random_coset_subset(rng, G)
            else:
                p = rng.choice((0.03, 0.1, 0.4))
                S = SubsetS.of(G, [x for x in G.elements() if rng.random() < p])
            if rng.random() < 0.6:
                # add eS, dropping what e sends to 0, so e but not 0 dilates S into itself
                e = rng.choice(idempotents)
                kept = [x for x in S.elements if G.scale(e, x) != G.zero()]
                S = SubsetS.of(G, kept + [G.scale(e, x) for x in kept])
            hit, core = check_against_reference(S), dilation_core(S)
            assert core == reference_dilation_core(S), S
            cosets += hit is not None
            proper_cores += core.elements not in (S.elements, {G.zero()})
        assert cosets >= 5 and proper_cores >= 20, (cosets, proper_cores)


def count_group_ops(monkeypatch, bound):
    """Count FiniteAbelianGroup.scale and .sub calls, and fail as soon as
    they pass `bound`, so that a scan is caught without running it out."""
    calls = {"n": 0}
    for name in ("scale", "sub"):
        op = getattr(FiniteAbelianGroup, name)

        def counting(self, *args, _op=op):
            calls["n"] += 1
            assert calls["n"] <= bound, f"more than {bound} scale/sub calls"
            return _op(self, *args)

        monkeypatch.setattr(FiniteAbelianGroup, name, counting)
    return calls


class TestBoundedWork:
    # count group operations, not seconds: the scans replaced here made
    # exponent * |S| dilations and |S|^2 differences
    def test_homogeneous_on_even_nonzero_residues(self, monkeypatch):
        G = FiniteAbelianGroup((4096,))
        S = SubsetS.of(G, [(x,) for x in range(2, 4096, 2)])
        calls = count_group_ops(monkeypatch, 4 * len(S))
        c = classify_homogeneous(G, S)
        assert c.reason == "core-non-coset" and c.core == S
        assert calls["n"] > 0

    def test_affine_on_odd_coset(self, monkeypatch):
        G = FiniteAbelianGroup((1 << 16,))
        S = SubsetS.of(G, [(x,) for x in range(1, 1 << 16, 2)])
        calls = count_group_ops(monkeypatch, 2 * len(S))
        c = classify_affine(G, S)
        assert c.reason == "coset" and c.base == (1,)
        assert c.subgroup.gens == ((2,),)
        assert calls["n"] > 0


class TestWitness:
    def test_examples(self):
        assert find_noncoset_witness(SubsetS.of(Z4, [(0,), (1,), (2,)])) == ((0,), (1,), (2,))
        assert find_noncoset_witness(SubsetS.of(Z5, [(1,), (2,), (4,)])) == ((1,), (1,), (3,))
        assert find_noncoset_witness(SubsetS.of(Z6, [(0,), (2,), (4,)])) is None

    def test_size_guard(self):
        with pytest.raises(ValueError):
            find_noncoset_witness(SubsetS.of(Z4, [(0,), (1,)]))

    def test_witness_predicate_reverifies(self):
        rng = random.Random(11)
        for G in small_groups(8):
            for _ in range(20):
                S = SubsetS.of(G, [e for e in G.elements() if rng.random() < 0.5])
                if len(S) < 3:
                    continue
                w = find_noncoset_witness(S)
                if w is None:
                    continue
                s, a, b = w
                assert s in S and G.add(s, a) in S and G.add(s, b) in S
                assert a != b
                assert G.add(G.add(s, a), b) not in S

    def test_matches_full_group_scan(self):
        for G in small_groups(8):
            for S in all_subsets(G):
                if len(S) >= 3:
                    assert find_noncoset_witness(S) == reference_noncoset_witness(S), S

    @pytest.mark.parametrize("elems", [
        [(0,), (1,), (3,)],
        [(0,), (1,), (3,), (7,), (1 << 19,), (5 << 16,), ((1 << 20) - 1,)],
        # a coset: the search exhausts every (s, a, b) and finds none
        [(5 + k * (1 << 17),) for k in range(8)],
    ])
    def test_bounded_at_max_order(self, monkeypatch, elems):
        # the scan must not touch G: count membership tests, not seconds
        G = FiniteAbelianGroup((1 << 20,))
        S = SubsetS.of(G, elems)
        calls = 0
        contains = SubsetS.__contains__

        def counting(self, element):
            nonlocal calls
            calls += 1
            return contains(self, element)

        monkeypatch.setattr(SubsetS, "__contains__", counting)
        w = find_noncoset_witness(S)
        assert (w is None) == (len(elems) == 8)
        assert 0 < calls <= len(S) ** 3


class TestClassifyAffine:
    def test_examples(self):
        assert classify_affine(Z4, SubsetS.of(Z4, [])).reason == "empty-set"
        c = classify_affine(Z4, SubsetS.of(Z4, [(1,), (3,)]))
        assert c.verdict == IN_P and c.reason == "coset"
        c = classify_affine(Z4, SubsetS.of(Z4, [(0,), (1,)]))
        assert c.verdict == NP_COMPLETE and c.reason == "two-element"
        assert c.difference == (1,)

    def test_matches_coset_oracle_small(self):
        for G in small_groups(6):
            for S in all_subsets(G):
                verdict = classify_affine(G, S).verdict
                expect = IN_P if (not S.elements or coset_oracle(G, S)) else NP_COMPLETE
                assert verdict == expect, (G, sorted(S.elements))

    def test_describe_golden(self):
        c = classify_affine(Z4, SubsetS.of(Z4, [(0,), (1,)]))
        assert c.describe() == "NP-complete (S not a coset; |S|=2, d=1)"


class TestClassifyHomogeneous:
    def test_examples(self):
        c = classify_homogeneous(Z4, SubsetS.of(Z4, [(0,), (1,)]))
        assert c.verdict == IN_P and c.reason == "core-coset"
        c = classify_homogeneous(Z5, SubsetS.of(Z5, [(1,), (2,), (4,)]))
        assert c.verdict == NP_COMPLETE and c.core.elements == {(1,), (2,), (4,)}
        assert classify_homogeneous(Z6, SubsetS.of(Z6, [])).verdict == IN_P

    def test_core_non_coset_mixed_order(self):
        c = classify_homogeneous(Z6, SubsetS.of(Z6, [(1,), (2,), (4,)]))
        assert c.verdict == NP_COMPLETE and c.core.elements == {(2,), (4,)}

    def test_homogeneous_in_p_iff_core_coset(self):
        for G in small_groups(6):
            for S in all_subsets(G):
                c = classify_homogeneous(G, S)
                if not S.elements:
                    assert c.verdict == IN_P
                    continue
                core = dilation_core(S)
                assert (c.verdict == IN_P) == coset_oracle(G, core)
