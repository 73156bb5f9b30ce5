"""Acceptance gate: every shipped claim, at its stated scale and time bound.

Each test prints one PASS line with its runtime; a failure of any assert is
the corresponding FAIL.
"""

import random
import time

from cosetint.groups import (
    FiniteAbelianGroup,
    Homomorphism,
    SubgroupGens,
    kernel_of_hom,
    quotient_group,
    scaling_hom,
    subgroup_enumerate,
)
from cosetint.model import ProblemInstance, SubsetS, oracle_solve, verify_certificate
from cosetint.classify import IN_P, classify_affine, dilation_core, is_coset
from cosetint.polysolve import solve_affine_coset, solve_homogeneous_core
from cosetint.transforms import (
    complete_graph,
    cycle_graph,
    divideout_lift,
    map_instance,
    path_graph,
    phi_fixed_subset,
    pi_from_p,
    transform_double,
    translate_instance,
)
from cosetint.hardness import apply_pipeline, compile_hardness
from cosetint.formats import format_instance, format_pipeline, parse_pipeline

from helpers import (
    all_subgroups,
    all_subsets,
    is_three_colorable,
    random_element,
    random_instance,
    random_subgroup,
    random_subset,
    small_groups,
)


def _report(n, label, t0):
    print(f"ACCEPTANCE {n} ({label}): PASS in {time.monotonic() - t0:.1f}s")


def test_criterion_1_classifier_dichotomy():
    t0 = time.monotonic()
    checked = 0
    for G in small_groups(8):
        subgroups = all_subgroups(G)
        for S in all_subsets(G):
            if not S.elements:
                easy = True
            else:
                base = min(S.elements)
                shifted = frozenset(G.sub(x, base) for x in S.elements)
                easy = shifted in subgroups
            verdict = classify_affine(G, S).verdict
            assert (verdict == IN_P) == easy, (G, sorted(S.elements))
            checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    assert checked == 1422  # sum of 2^|G| over the 14 groups of order <= 8
    _report(1, f"classifier dichotomy, {checked} targets", t0)


def test_criterion_2_dilation_core_laws():
    t0 = time.monotonic()
    mods = [(2,), (3,), (4,), (5,), (7,), (8,), (9,), (2, 2)]
    checked = 0
    for m in mods:
        G = FiniteAbelianGroup(m)
        zero = G.zero()
        for S in all_subsets(G):
            core = dilation_core(S)
            assert core.elements <= S.elements
            assert dilation_core(core).elements == core.elements
            want = frozenset({zero}) if zero in S.elements else S.elements
            assert core.elements == want, (m, sorted(S.elements))
            checked += 1
    assert checked == 972
    _report(2, f"dilation core laws, {checked} subsets", t0)


def test_criterion_3_poly_solver_vs_oracle():
    t0 = time.monotonic()
    rng = random.Random(101)
    groups = [G for G in small_groups(9) if G.order > 1]

    done = 0
    while done < 500:  # affine instances with coset subsets
        G = rng.choice(groups)
        sub = subgroup_enumerate(random_subgroup(rng, G))
        base = random_element(rng, G)
        S = SubsetS.of(G, [G.add(base, h) for h in sub])
        if rng.random() < 0.05:
            S = SubsetS.of(G, [])
        inst = random_instance(rng, G, max_t=4, max_gens=4)
        fast = solve_affine_coset(inst, S)
        slow = oracle_solve(inst, S)
        assert fast.kind == slow.kind, (G, sorted(S.elements), inst)
        if fast.kind == "yes":
            assert verify_certificate(inst, S, fast.certificate)
        done += 1

    done = 0
    while done < 500:  # homogeneous instances with coset dilation cores
        G = rng.choice(groups)
        S = random_subset(rng, G)
        if is_coset(dilation_core(S)) is None and S.elements:
            continue
        inst = random_instance(rng, G, max_t=4, max_gens=4)
        inst = ProblemInstance(G, inst.t, (G.zero(),) * inst.t, inst.hgens)
        fast = solve_homogeneous_core(inst, S)
        slow = oracle_solve(inst, S)
        assert fast.kind == slow.kind, (G, sorted(S.elements), inst)
        if fast.kind == "yes":
            assert verify_certificate(inst, S, fast.certificate)
        done += 1

    elapsed = time.monotonic() - t0
    assert elapsed < 120
    _report(3, "poly solver vs oracle, 500+500 instances", t0)


def _injective_hom_pool():
    Z = lambda *m: FiniteAbelianGroup(m)
    pool = [
        Homomorphism(Z(2), Z(4), ((2,),)),
        Homomorphism(Z(2), Z(8), ((4,),)),
        Homomorphism(Z(3), Z(6), ((2,),)),
        Homomorphism(Z(4), Z(8), ((2,),)),
        Homomorphism(Z(4), Z(2, 4), ((1,), (1,))),
        Homomorphism(Z(3), Z(3, 3), ((1,), (2,))),
        Homomorphism(Z(2, 2), Z(2, 4), ((1, 0), (0, 2))),
        Homomorphism(Z(2, 2), Z(2, 2), ((0, 1), (1, 0))),
        scaling_hom(Z(5), 2),
        scaling_hom(Z(7), 3),
        scaling_hom(Z(4), 3),
        scaling_hom(Z(6), 5),
        scaling_hom(Z(9), 2),
    ]
    for f in pool:
        assert all(g == f.source.zero() for g in kernel_of_hom(f).gens)
    return pool


def test_criterion_4_transformer_soundness():
    t0 = time.monotonic()
    rng = random.Random(202)
    groups = [G for G in small_groups(8) if G.order > 1]

    for _ in range(200):  # translate
        G = rng.choice(groups)
        S = random_subset(rng, G)
        inst = random_instance(rng, G)
        g = random_element(rng, G)
        a = oracle_solve(inst, S).kind
        b = oracle_solve(translate_instance(inst, g), S.translate(g)).kind
        assert a == b

    pool = _injective_hom_pool()
    for _ in range(200):  # map through an injective hom
        f = rng.choice(pool)
        S = random_subset(rng, f.source)
        inst = random_instance(rng, f.source)
        image = SubsetS.of(f.target, [f.apply(x) for x in S.elements])
        a = oracle_solve(inst, S).kind
        b = oracle_solve(map_instance(inst, f), image).kind
        assert a == b

    for _ in range(200):  # divide out a subgroup and lift
        G = rng.choice(groups)
        K = random_subgroup(rng, G, max_gens=2)
        qm = quotient_group(G, K)
        Sigma = random_subset(rng, qm.group)
        pre = SubsetS.of(G, [x for x in G.elements() if qm.proj.apply(x) in Sigma])
        inst = random_instance(rng, qm.group, max_t=2, max_gens=2)
        a = oracle_solve(inst, Sigma).kind
        b = oracle_solve(divideout_lift(inst, G, K), pre).kind
        assert a == b, (G, K.gens, inst)

    for _ in range(200):  # double
        G = rng.choice(groups)
        S = random_subset(rng, G)
        inst = random_instance(rng, G)
        c = scaling_hom(G, rng.randrange(G.exponent))
        g = random_element(rng, G)
        a = oracle_solve(inst, phi_fixed_subset(S, c, g)).kind
        b = oracle_solve(transform_double(inst, c, g), S).kind
        assert a == b

    done = 0
    primes = [FiniteAbelianGroup((5,)), FiniteAbelianGroup((7,))]
    Z6 = FiniteAbelianGroup((6,))
    while done < 200:  # re-tag an affine instance as homogeneous
        if rng.random() < 0.8:
            G = rng.choice(primes)
            S = random_subset(rng, G)
            if G.zero() in S or not S.elements:
                continue
            inst = random_instance(rng, G, max_t=3, max_gens=2)
        else:
            G = Z6
            S = SubsetS.of(G, [e for e in ((2,), (4,)) if rng.random() < 0.8])
            if not S.elements or dilation_core(S).elements != S.elements:
                continue
            span = ((0,), (2,), (4,))
            t = rng.randrange(3)
            inst = ProblemInstance(
                G, t,
                tuple(rng.choice(span) for _ in range(t)),
                tuple(tuple(rng.choice(span) for _ in range(t))
                      for _ in range(rng.randrange(3))),
            )
        a = oracle_solve(inst, S).kind
        b = oracle_solve(pi_from_p(inst, S), S).kind
        assert a == b, (G, sorted(S.elements), inst)
        done += 1

    elapsed = time.monotonic() - t0
    assert elapsed < 300
    _report(4, "5 transformers x 200 in-domain instances", t0)


def test_criterion_5_doubling_fidelity():
    t0 = time.monotonic()
    rng = random.Random(303)
    G = FiniteAbelianGroup((4,))
    for S in all_subsets(G):
        for _ in range(50):
            c = scaling_hom(G, rng.randrange(4))
            g = random_element(rng, G)
            inst = random_instance(rng, G)
            a = oracle_solve(inst, phi_fixed_subset(S, c, g)).kind
            b = oracle_solve(transform_double(inst, c, g), S).kind
            assert a == b, (sorted(S.elements), c.matrix, g, inst)
    _report(5, "doubling fidelity, 16 subsets x 50 maps", t0)


TARGETS = [
    ("P", (4,), ((0,), (1,))),
    ("P", (4,), ((0,), (1,), (2,))),
    ("P", (2, 2), ((0, 1), (1, 0), (1, 1))),
    ("Pi", (5,), ((1,), (2,), (4,))),
    ("Pi", (6,), ((1,), (2,), (4,))),
]

GRAPHS = [complete_graph(3), cycle_graph(5), path_graph(3), complete_graph(4)]


def _compiled_targets():
    out = []
    for variant, mods, elems in TARGETS:
        G = FiniteAbelianGroup(mods)
        S = SubsetS.of(G, elems)
        out.append((S, compile_hardness(G, S, variant, selfcheck=False)))
    return out


def test_criterion_6_compiler_end_to_end():
    t0 = time.monotonic()
    cases = 0
    for S, pipe in _compiled_targets():
        for graph in GRAPHS:
            inst, _ = apply_pipeline(pipe, graph)
            res = oracle_solve(inst, S, budget=10 ** 7)
            want = "yes" if is_three_colorable(graph) else "no"
            assert res.kind == want, (pipe.variant, sorted(S.elements), graph)
            cases += 1
    assert cases == 20
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    _report(6, "compiler end-to-end, 20 graph cases", t0)


def test_criterion_7_witness_threading():
    t0 = time.monotonic()
    colorings = {3: (1, 2, 3), 5: (1, 2, 1, 2, 3)}
    threaded = 0
    for S, pipe in _compiled_targets():
        for graph in GRAPHS:
            if not is_three_colorable(graph):
                continue
            inst, cert = apply_pipeline(pipe, graph, coloring=colorings[graph.n])
            assert cert is not None
            assert verify_certificate(inst, S, cert), (pipe.variant, graph)
            threaded += 1
    assert threaded == 15
    _report(7, "witness threading, 15 colorable cases", t0)


def test_criterion_8_round_trip_determinism():
    t0 = time.monotonic()
    for S, pipe in _compiled_targets():
        reparsed = parse_pipeline(format_pipeline(pipe))
        assert reparsed == pipe
        for graph in GRAPHS:
            a, _ = apply_pipeline(pipe, graph)
            b, _ = apply_pipeline(reparsed, graph)
            assert format_instance(a) == format_instance(b)
            assert a == b
    _report(8, "pipeline round trips re-apply byte-identically", t0)
