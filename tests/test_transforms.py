import math
import random
from collections import Counter

import pytest

from cosetint.groups import (
    FiniteAbelianGroup,
    Homomorphism,
    SubgroupGens,
    quotient_group,
    scaling_hom,
)
from cosetint import formats, hardness
from cosetint.formats import format_instance, parse_instance
from cosetint.hardness import apply_pipeline, compile_hardness
from cosetint.model import ProblemInstance, SubsetS, oracle_solve, verify_certificate
from cosetint.transforms import (
    Graph,
    cert_coloring_full,
    cert_s01,
    complete_graph,
    cycle_graph,
    divideout_lift,
    gadget_coloring_full,
    gadget_coloring_full_subset,
    gadget_s01,
    gadget_s01_subset,
    kcol_from_3col,
    map_instance,
    pad_coloring,
    path_graph,
    phi_fixed_subset,
    pi_from_p,
    transform_double,
    translate_instance,
)
from cosetint.classify import dilation_core

from helpers import (
    REPLAY_TARGETS,
    is_three_colorable,
    proper_colorings,
    random_element,
    random_instance,
    random_subgroup,
    random_subset,
    reference_divideout_lift,
    reference_format_instance,
    reference_gadget_coloring_full,
    reference_map_instance,
    reference_parse_instance,
    reference_transform_double,
    reference_translate_instance,
    small_groups,
    three_coloring,
)
from test_scripts import load_script

Z2 = FiniteAbelianGroup((2,))
Z3 = FiniteAbelianGroup((3,))
Z4 = FiniteAbelianGroup((4,))
Z5 = FiniteAbelianGroup((5,))
Z6 = FiniteAbelianGroup((6,))
C22 = FiniteAbelianGroup((2, 2))


def answers_match(inst_before, S_before, inst_after, S_after):
    return oracle_solve(inst_before, S_before).kind == oracle_solve(inst_after, S_after).kind


class TestGraph:
    def test_normalizes_and_dedups(self):
        g = Graph.of(3, [(2, 1), (1, 2), (2, 3)])
        assert g.edges == frozenset({(1, 2), (2, 3)})
        assert g.sorted_edges() == ((1, 2), (2, 3))

    def test_rejects_loops_and_range(self):
        with pytest.raises(ValueError):
            Graph.of(2, [(1, 1)])
        with pytest.raises(ValueError):
            Graph.of(2, [(1, 3)])

    def test_constructors(self):
        assert complete_graph(4).edges == frozenset(
            {(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)}
        )
        assert cycle_graph(5).edges == frozenset({(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)})
        assert path_graph(3).edges == frozenset({(1, 2), (2, 3)})


class TestTranslate:
    def test_zero_is_identity(self):
        inst = ProblemInstance(Z4, 2, ((1,), (3,)), (((2,), (1,)),))
        assert translate_instance(inst, (0,)) == inst

    def test_direct_formula(self):
        inst = ProblemInstance(Z4, 1, ((1,),), ())
        assert translate_instance(inst, (2,)).xstar == ((3,),)

    def test_rejects_foreign_element(self):
        inst = ProblemInstance(Z4, 1, ((1,),), ())
        with pytest.raises(ValueError):
            translate_instance(inst, (0, 0))

    def test_answer_preserving(self):
        rng = random.Random(1)
        groups = [G for G in small_groups(8) if G.order >= 2]
        for _ in range(60):
            G = rng.choice(groups)
            inst = random_instance(rng, G)
            S = random_subset(rng, G)
            g = random_element(rng, G)
            assert answers_match(inst, S, translate_instance(inst, g), S.translate(g))


class TestMapInstance:
    def test_identity(self):
        inst = ProblemInstance(Z4, 1, ((1,),), (((2,),),))
        assert map_instance(inst, scaling_hom(Z4, 1)) == inst

    def test_rejects_non_injective(self):
        f = Homomorphism(Z4, Z2, ((1,),))
        inst = ProblemInstance(Z4, 1, ((1,),), ())
        with pytest.raises(ValueError):
            map_instance(inst, f)

    def test_embedding_z3_in_z6(self):
        f = Homomorphism(Z3, Z6, ((2,),))
        S = SubsetS.of(Z3, [(0,), (1,)])
        S2 = SubsetS.of(Z6, [(0,), (2,)])
        rng = random.Random(2)
        for _ in range(60):
            inst = random_instance(rng, Z3)
            assert answers_match(inst, S, map_instance(inst, f), S2)

    def test_composition(self):
        f = Homomorphism(Z2, Z4, ((2,),))
        g = Homomorphism(Z4, FiniteAbelianGroup((8,)), ((2,),))
        gf = Homomorphism(Z2, FiniteAbelianGroup((8,)), ((4,),))
        inst = ProblemInstance(Z2, 2, ((1,), (0,)), (((1,), (1,)),))
        assert map_instance(map_instance(inst, f), g) == map_instance(inst, gf)


class TestDivideOutLift:
    def test_worked_example(self):
        K = SubgroupGens(Z4, ((2,),))
        qm = quotient_group(Z4, K)
        assert qm.group.moduli == (2,)
        inst = ProblemInstance(qm.group, 1, ((0,),), (((1,),),))
        lifted = divideout_lift(inst, Z4, K)
        assert lifted.group == Z4
        assert lifted.xstar == ((0,),)
        assert set(lifted.hgens) == {((1,),), ((2,),)}
        Sq = SubsetS.of(qm.group, [(1,)])
        S = SubsetS.of(Z4, [(1,), (3,)])
        assert answers_match(inst, Sq, lifted, S)

    def test_trivial_kernel(self):
        K = SubgroupGens(Z4, ())
        qm = quotient_group(Z4, K)
        inst = ProblemInstance(qm.group, 2, (qm.proj.apply((1,)), qm.proj.apply((3,))), ())
        lifted = divideout_lift(inst, Z4, K)
        assert lifted.hgens == ()
        assert lifted.xstar == ((1,), (3,))

    def test_rejects_wrong_ambient(self):
        K = SubgroupGens(Z4, ((2,),))
        inst = ProblemInstance(Z4, 1, ((0,),), ())
        with pytest.raises(ValueError):
            divideout_lift(inst, Z4, K)

    def test_answer_preserving(self):
        rng = random.Random(3)
        groups = [G for G in small_groups(8) if 2 <= G.order <= 8]
        for _ in range(60):
            G = rng.choice(groups)
            K = random_subgroup(rng, G)
            qm = quotient_group(G, K)
            inst = random_instance(rng, qm.group)
            Sq = random_subset(rng, qm.group)
            S = SubsetS.of(G, [x for x in G.elements() if qm.proj.apply(x) in Sq])
            assert answers_match(inst, Sq, divideout_lift(inst, G, K), S)


class TestTransformDouble:
    def test_worked_example(self):
        inst = ProblemInstance(Z4, 1, ((1,),), (((2,),),))
        out = transform_double(inst, scaling_hom(Z4, -1), (3,))
        assert out.t == 2
        assert out.xstar == ((1,), (2,))
        assert out.hgens == (((2,), (2,)),)
        S = SubsetS.of(Z4, [(0,), (1,), (2,)])
        assert phi_fixed_subset(S, scaling_hom(Z4, -1), (3,)).elements == frozenset(
            {(1,), (2,)}
        )
        assert answers_match(
            inst, SubsetS.of(Z4, [(1,), (2,)]), out, S
        )

    def test_identity_phi(self):
        rng = random.Random(4)
        for _ in range(30):
            inst = random_instance(rng, Z4)
            S = random_subset(rng, Z4)
            out = transform_double(inst, scaling_hom(Z4, 1), (0,))
            assert out.t == 2 * inst.t
            assert len(out.hgens) == len(inst.hgens)
            assert answers_match(inst, S, out, S)

    def test_lemma_statement_over_z4(self):
        # every subset of Z4, random scaling endomorphism and shift
        rng = random.Random(5)
        elems = list(Z4.elements())
        for bits in range(16):
            S = SubsetS.of(Z4, [e for i, e in enumerate(elems) if bits >> i & 1])
            for _ in range(5):
                c = scaling_hom(Z4, rng.randrange(4))
                g = random_element(rng, Z4)
                inst = random_instance(rng, Z4)
                out = transform_double(inst, c, g)
                assert answers_match(inst, phi_fixed_subset(S, c, g), out, S)


class TestPiRetagging:
    def test_pi_from_p_worked_example(self):
        S = SubsetS.of(Z4, [(1,), (3,)])
        inst = ProblemInstance(Z4, 1, ((1,),), (((2,),),))
        out = pi_from_p(inst, S)
        assert out.t == 3
        assert out.is_homogeneous()
        assert out.hgens == (((1,), (1,), (3,)), ((2,), (0,), (0,)))
        assert oracle_solve(inst, S).kind == "yes"
        assert oracle_solve(out, S).kind == "yes"

    def test_pi_from_p_t0(self):
        S = SubsetS.of(Z4, [(1,), (3,)])
        inst = ProblemInstance(Z4, 0, (), ())
        out = pi_from_p(inst, S)
        assert out.t == 2
        assert out.hgens == (((1,), (3,)),)
        assert oracle_solve(out, S).kind == "yes"

    def test_pi_from_p_no_case(self):
        S = SubsetS.of(Z4, [(1,), (3,)])
        inst = ProblemInstance(Z4, 1, ((0,),), ())
        out = pi_from_p(inst, S)
        assert oracle_solve(inst, S).kind == "no"
        assert oracle_solve(out, S).kind == "no"

    def test_rejection_matches_dilation_core(self):
        # with empty instance data, accepted iff the core fixes the subset
        elems = list(Z4.elements())
        inst = ProblemInstance(Z4, 0, (), ())
        for bits in range(1, 16):
            S = SubsetS.of(Z4, [e for i, e in enumerate(elems) if bits >> i & 1])
            fixed = dilation_core(S).elements == S.elements
            if fixed:
                pi_from_p(inst, S)
            else:
                with pytest.raises(ValueError):
                    pi_from_p(inst, S)

    def test_rejects_data_outside_span(self):
        # {2,4} in Z6 is fixed by its dilation core but spans only the
        # even half; folding xstar=5 into a generator would flip the
        # answer (coefficient 2 hits (4,4,2)), so it must be rejected
        S = SubsetS.of(Z6, [(2,), (4,)])
        assert dilation_core(S).elements == S.elements
        inst = ProblemInstance(Z6, 1, ((5,),), ())
        with pytest.raises(ValueError):
            pi_from_p(inst, S)

    def test_rejects_one_out_of_span_entry_repeated_or_not(self):
        # each distinct entry is tested once; one entry outside span{2,4}
        # must still be found, alone or repeated among in-span entries
        S = SubsetS.of(Z6, [(2,), (4,)])
        for t, xstar, hgens in [
            (3, ((2,), (4,), (0,)), (((2,), (3,), (4,)),)),
            (3, ((3,), (2,), (3,)), (((3,), (3,), (3,)), ((2,), (0,), (4,)))),
            (2, ((0,), (0,)), (((4,), (2,)), ((2,), (1,)))),
        ]:
            inst = ProblemInstance(Z6, t, xstar, hgens)
            with pytest.raises(ValueError, match="span of the subset"):
                pi_from_p(inst, S)
        inst = ProblemInstance(Z6, 3, ((2,), (4,), (2,)), (((4,), (4,), (0,)),))
        assert pi_from_p(inst, S).t == 5

    def test_answer_preserving_prime_order(self):
        rng = random.Random(6)
        primes = [Z2, Z3, Z5, FiniteAbelianGroup((7,))]
        done = 0
        while done < 100:
            G = rng.choice(primes)
            S = SubsetS.of(
                G, [e for e in G.elements() if e != G.zero() and rng.random() < 0.5]
            )
            if not len(S):
                continue
            inst = random_instance(rng, G)
            out = pi_from_p(inst, S)
            assert answers_match(inst, S, out, S)
            done += 1


class TestGadgetColoringFull:
    def test_k2_over_c22(self):
        inst = gadget_coloring_full(complete_graph(2), C22)
        S = gadget_coloring_full_subset(C22)
        assert inst.t == 1
        assert oracle_solve(inst, S).kind == "yes"
        cert = cert_coloring_full(complete_graph(2), C22, (1, 2))
        assert verify_certificate(inst, S, cert)

    def test_k5_not_4_colorable(self):
        for G in (Z4, C22):
            inst = gadget_coloring_full(complete_graph(5), G)
            assert oracle_solve(inst, gadget_coloring_full_subset(G)).kind == "no"

    def test_edgeless(self):
        inst = gadget_coloring_full(Graph.of(3, []), Z3)
        assert inst.t == 0
        assert oracle_solve(inst, gadget_coloring_full_subset(Z3)).kind == "yes"

    def test_small_order_rejected(self):
        with pytest.raises(ValueError):
            gadget_coloring_full(complete_graph(2), Z2)

    def test_matches_colorability(self):
        graphs = [complete_graph(3), cycle_graph(5), path_graph(3), complete_graph(4)]
        for G in (Z3, Z4, C22):
            S = gadget_coloring_full_subset(G)
            for graph in graphs:
                inst = gadget_coloring_full(graph, G)
                want = "yes" if proper_colorings(graph, G.order) else "no"
                assert oracle_solve(inst, S).kind == want

    def test_cert_from_every_coloring(self):
        graph = cycle_graph(5)
        for G in (Z3, C22):
            inst = gadget_coloring_full(graph, G)
            S = gadget_coloring_full_subset(G)
            for coloring in proper_colorings(graph, G.order):
                assert verify_certificate(inst, S, cert_coloring_full(graph, G, coloring))

    def test_cert_does_not_list_the_group(self, monkeypatch):
        def refuse(self):
            raise AssertionError("cert_coloring_full listed every element of G")

        G = FiniteAbelianGroup((4, 1 << 18))
        colors = (1, 2, G.order)
        want = tuple(c for i in colors for c in G.element_at(i - 1))
        monkeypatch.setattr(FiniteAbelianGroup, "elements", refuse)
        cert = cert_coloring_full(complete_graph(3), G, colors)
        assert cert == want == (0, 0, 0, 1, 3, (1 << 18) - 1)


class TestGadgetS01:
    def test_layout_shape(self):
        graph = complete_graph(3)
        inst, layout = gadget_s01(graph, Z4)
        assert inst.t == 5 * 3 + 3 * 3
        assert layout.t == inst.t
        assert layout.offsets == (0, 9, 12, 15)
        assert len(inst.hgens) == 9

    def test_k3_yes_with_cert(self):
        graph = complete_graph(3)
        inst, layout = gadget_s01(graph, Z4)
        S = gadget_s01_subset(Z4)
        assert oracle_solve(inst, S).kind == "yes"
        cert = cert_s01(layout, (1, 2, 3))
        assert verify_certificate(inst, S, cert)

    def test_k4_no(self):
        inst, _ = gadget_s01(complete_graph(4), Z4)
        res = oracle_solve(inst, gadget_s01_subset(Z4), budget=10 ** 6)
        assert res.kind == "no"

    def test_single_vertex(self):
        inst, layout = gadget_s01(Graph.of(1, []), Z4)
        S = gadget_s01_subset(Z4)
        assert oracle_solve(inst, S).kind == "yes"
        assert verify_certificate(inst, S, cert_s01(layout, (2,)))

    def test_rejects_bad_groups(self):
        with pytest.raises(ValueError):
            gadget_s01(complete_graph(3), Z3)
        with pytest.raises(ValueError):
            gadget_s01(complete_graph(3), C22)

    def test_matches_3_colorability(self):
        graphs = [
            complete_graph(2),
            complete_graph(3),
            complete_graph(4),
            cycle_graph(5),
            path_graph(3),
        ]
        for n in (4, 5):
            G = FiniteAbelianGroup((n,))
            S = gadget_s01_subset(G)
            for graph in graphs:
                inst, _ = gadget_s01(graph, G)
                want = "yes" if is_three_colorable(graph) else "no"
                assert oracle_solve(inst, S, budget=10 ** 6).kind == want


class TestKColFrom3Col:
    def test_k3_unchanged(self):
        g = cycle_graph(5)
        assert kcol_from_3col(g, 3) == g

    def test_k3_to_k4(self):
        assert kcol_from_3col(complete_graph(3), 4) == complete_graph(4)
        assert kcol_from_3col(complete_graph(4), 4) == complete_graph(5)

    def test_colorability_tracks(self):
        assert proper_colorings(kcol_from_3col(complete_graph(3), 4), 4)
        assert not proper_colorings(kcol_from_3col(complete_graph(4), 4), 4)

    def test_pad_coloring(self):
        g = cycle_graph(5)
        padded = kcol_from_3col(g, 4)
        coloring = next(iter(proper_colorings(g, 3)))
        full = pad_coloring(g, 4, coloring)
        assert len(full) == padded.n
        assert all(full[u - 1] != full[v - 1] for u, v in padded.edges)

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            kcol_from_3col(complete_graph(3), 2)


# --- the per-distinct-entry transformers against their cell-by-cell references


def same_instance(got, want):
    """Equal instances whose text is byte-identical."""
    assert got == want
    assert format_instance(got) == reference_format_instance(want)


def same_outcome(fast, reference, *args) -> bool:
    """Both raise the same ValueError, or both build the same instance;
    True in the second case."""
    try:
        want = reference(*args)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            fast(*args)
        assert str(got.value) == str(e)
        return False
    same_instance(fast(*args), want)
    return True


def random_hom(rng, G, T):
    """A random homomorphism G -> T, or None when the drawn matrix is not one."""
    rows = tuple(tuple(rng.randrange(max(T.exponent, 1)) for _ in range(G.dim))
                 for _ in range(T.dim))
    try:
        return Homomorphism(G, T, rows)
    except ValueError:
        return None


def random_injection(rng, G):
    """An automorphism of G, or for cyclic G an embedding into a larger cyclic group."""
    if G.dim == 1 and rng.random() < 0.5:
        k = rng.randint(2, 3)
        return Homomorphism(G, FiniteAbelianGroup((k * G.moduli[0],)), ((k,),))
    units = [u for u in range(1, G.exponent + 1) if math.gcd(u, G.exponent) == 1]
    return scaling_hom(G, rng.choice(units))


REFERENCE_STEPS = {
    "translate_instance": reference_translate_instance,
    "map_instance": reference_map_instance,
    "divideout_lift": reference_divideout_lift,
    "transform_double": reference_transform_double,
    "gadget_coloring_full": reference_gadget_coloring_full,
}


@pytest.fixture(scope="module")
def replay_pipelines():
    pipes = {}
    for variant, mods, elems in REPLAY_TARGETS:
        G = FiniteAbelianGroup(mods)
        pipes[variant, mods, elems] = compile_hardness(
            G, SubsetS.of(G, elems), variant, selfcheck=False)
    return pipes


def gnm_graphs(seed, count, n=10, m=18):
    rng = random.Random(seed)
    all_edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    return [Graph.of(n, rng.sample(all_edges, m)) for _ in range(count)]


def entry_objects(inst):
    return {id(e) for row in (inst.xstar, *inst.hgens) for e in row}


class TestMatchesCellByCellReference:
    def test_random_instances(self):
        rng = random.Random(23)
        groups = small_groups(8)
        built = Counter()
        for _ in range(600):
            G = rng.choice(groups)
            inst = random_instance(rng, G, max_t=4, max_gens=4)
            g = random_element(rng, G)
            built["translate"] += same_outcome(
                translate_instance, reference_translate_instance, inst, g)
            f = random_injection(rng, G) if G.dim else None
            for hom in (f, random_hom(rng, G, rng.choice(groups))):
                if hom is not None:
                    built["map"] += same_outcome(map_instance, reference_map_instance, inst, hom)
            c = random_hom(rng, G, G)
            if c is not None:
                built["double"] += same_outcome(
                    transform_double, reference_transform_double, inst, c, g)
            K = random_subgroup(rng, G)
            over_quotient = random_instance(rng, quotient_group(G, K).group, max_t=4, max_gens=4)
            built["divideout"] += same_outcome(
                divideout_lift, reference_divideout_lift, over_quotient, G, K)
        assert min(built.values()) >= 300, built

    def test_entries_equal_in_value_keep_their_own_text(self):
        # (True,) equals (1,) but would be written "(True)", which
        # parse_instance rejects, so a bool is no coordinate
        one, true = (1,), (True,)
        with pytest.raises(ValueError, match=r"xstar entry \(True,\) not in group"):
            ProblemInstance(Z4, 3, (true, one, (1,)), ((one, true, (2,)), (true, true, one)))
        with pytest.raises(ValueError, match="not in group"):
            SubsetS.of(Z4, [(0,), true])
        inst = ProblemInstance(Z4, 3, (one, one, (1,)), ((one, (1,), (2,)), ((1,), one, one)))
        assert format_instance(inst) == reference_format_instance(inst)
        assert "xstar: (1) (1) (1)\n" in format_instance(inst)
        assert parse_instance(format_instance(inst)) == inst
        double = Homomorphism(Z4, Z4, ((3,),))
        same_instance(translate_instance(inst, (2,)), reference_translate_instance(inst, (2,)))
        same_instance(map_instance(inst, scaling_hom(Z4, 3)),
                      reference_map_instance(inst, scaling_hom(Z4, 3)))
        same_instance(transform_double(inst, double, (1,)),
                      reference_transform_double(inst, double, (1,)))

    def test_gadget_coloring_full(self):
        rng = random.Random(4)
        for G in small_groups(8):
            if G.order < 3:
                continue
            for graph in gnm_graphs(rng.random(), 2, n=6, m=7):
                same_instance(gadget_coloring_full(graph, G),
                              reference_gadget_coloring_full(graph, G))

    def test_replay_pipelines(self, replay_pipelines, monkeypatch):
        graphs = gnm_graphs(11, 3)
        certs = 0
        for pipe in replay_pipelines.values():
            for graph in graphs:
                coloring = three_coloring(graph)
                inst, cert = apply_pipeline(pipe, graph, coloring)
                with monkeypatch.context() as m:
                    for name, reference in REFERENCE_STEPS.items():
                        m.setattr(hardness, name, reference)
                    want, want_cert = apply_pipeline(pipe, graph, coloring)
                same_instance(inst, want)
                assert cert == want_cert
                certs += cert is not None
                text = format_instance(inst)
                back = parse_instance(text)
                assert back == reference_parse_instance(text) == inst
                assert format_instance(back) == text
        assert certs >= len(replay_pipelines)


@pytest.fixture
def derived_checked(monkeypatch):
    """Rebuild every instance that `ProblemInstance._derived` returns with
    the public constructor on the same rows: it must be equal and hold
    cells of the same types (repr tells True from 1).  Returns the list of
    checked instances."""
    derived = ProblemInstance._derived
    checked = []

    def checked_derived(cls, group, t, xstar, hgens, new):
        inst = derived(group, t, xstar, hgens, new)
        want = ProblemInstance(group, t, xstar, hgens)
        assert inst == want
        assert repr((inst.xstar, inst.hgens)) == repr((want.xstar, want.hgens))
        checked.append(inst)
        return inst

    monkeypatch.setattr(ProblemInstance, "_derived", classmethod(checked_derived))
    return checked


def round_trip(inst):
    back = parse_instance(format_instance(inst))
    assert back == inst
    assert repr((back.xstar, back.hgens)) == repr((inst.xstar, inst.hgens))


class TestDerivedMatchesPublicConstructor:
    def test_replays(self, replay_pipelines, derived_checked):
        graphs = [(graph, three_coloring(graph)) for graph in gnm_graphs(13, 4)]
        graphs += [(complete_graph(3), (1, 2, 3)), (cycle_graph(5), (1, 2, 1, 2, 3)),
                   (path_graph(3), (1, 2, 1)), (complete_graph(4), None)]
        for pipe in replay_pipelines.values():
            for graph, coloring in graphs:
                inst, _ = apply_pipeline(pipe, graph, coloring)
                round_trip(inst)
        # each replay builds the gadget, one instance per later step and one parse
        assert len(derived_checked) == len(graphs) * sum(
            sum(not isinstance(step, hardness.KColFrom3Col) for step in pipe.steps) + 1
            for pipe in replay_pipelines.values())

    def test_compile_showcase(self, derived_checked):
        assert load_script("compile_showcase").main([]) == 0
        # 5 targets, each replayed on K3 and K4 by its self-check and on 4 graphs
        assert len(derived_checked) >= 5 * (2 + 4) * 2

    def test_random_instances(self, derived_checked):
        rng = random.Random(29)
        groups = small_groups(8)
        built = Counter()
        for _ in range(600):
            G = rng.choice(groups)
            inst = random_instance(rng, G, max_t=4, max_gens=4)
            g = random_element(rng, G)
            outs = [translate_instance(inst, g)]
            if G.dim:
                outs.append(map_instance(inst, random_injection(rng, G)))
            c = random_hom(rng, G, G)
            if c is not None:
                outs.append(transform_double(inst, c, g))
            K = random_subgroup(rng, G)
            over_quotient = random_instance(rng, quotient_group(G, K).group, max_t=4, max_gens=4)
            outs.append(divideout_lift(over_quotient, G, K))
            try:
                outs.append(pi_from_p(inst, random_subset(rng, G)))
            except ValueError:  # the subset is not fixed by its core, or too small a span
                pass
            for out in outs:
                round_trip(out)
            built[len(outs)] += 1
        assert len(derived_checked) > 2 * 3 * 600
        assert built[5] >= 100, built

    def test_gadgets(self, derived_checked):
        rng = random.Random(5)
        for G in small_groups(8):
            for graph in gnm_graphs(rng.random(), 2, n=6, m=7):
                if G.order >= 3:
                    round_trip(gadget_coloring_full(graph, G))
                if G.dim == 1 and G.order >= 4:
                    round_trip(gadget_s01(graph, G)[0])
        assert len(derived_checked) > 40


def test_formats_each_distinct_value_once(replay_pipelines, monkeypatch):
    calls = Counter()
    format_element = formats.format_element

    def counting_format(e):
        calls[e] += 1
        return format_element(e)

    graph, = gnm_graphs(7, 1)
    for pipe in replay_pipelines.values():
        inst, _ = apply_pipeline(pipe, graph)
        want = format_instance(inst)
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(formats, "format_element", counting_format)
            assert format_instance(inst) == want
        cells = [e for row in (inst.xstar,) + inst.hgens for e in row]
        assert set(calls) == set(cells) and max(calls.values()) == 1
        assert len(cells) > 10 * len(calls)


class TestWorkPerDistinctEntry:
    """During a replay, each layer works once per distinct entry object,
    and the gadget and the steps share element objects instead of
    building one per cell."""

    @pytest.fixture
    def pi_z5(self, replay_pipelines):
        return replay_pipelines["Pi", (5,), ((1,), (2,), (4,))]

    def test_validation(self, pi_z5, monkeypatch):
        calls = Counter()
        contains = FiniteAbelianGroup.contains
        post_init = ProblemInstance.__post_init__
        derived = ProblemInstance._derived
        built = []

        def counting_contains(self, x):
            calls["contains"] += 1
            return contains(self, x)

        def counting_post_init(self):
            calls["scans"] += 1
            post_init(self)

        def recording_derived(cls, group, t, xstar, hgens, new):
            new = tuple(new)
            before = calls["contains"]
            inst = derived(group, t, xstar, hgens, new)
            built.append((inst, calls["contains"] - before, {id(e) for e in new}))
            return inst

        monkeypatch.setattr(FiniteAbelianGroup, "contains", counting_contains)
        monkeypatch.setattr(ProblemInstance, "__post_init__", counting_post_init)
        monkeypatch.setattr(ProblemInstance, "_derived", classmethod(recording_derived))
        graph, = gnm_graphs(7, 1)
        inst, _ = apply_pipeline(pi_z5, graph, three_coloring(graph))
        assert len(built) == len(pi_z5.steps)  # the gadget, then one per step
        assert parse_instance(format_instance(inst)) == inst
        assert len(built) == len(pi_z5.steps) + 1  # and one for the parse
        assert calls["scans"] == 0  # no cell is checked a second time
        for inst, checks, new in built:
            objects = entry_objects(inst)
            assert checks <= len(new)
            assert len(objects) <= 3 * inst.group.order
            assert inst.t * (1 + len(inst.hgens)) > 100 * len(objects)

    def test_homomorphism_images(self, pi_z5, monkeypatch):
        calls = Counter()
        apply = Homomorphism.apply
        steps = []

        def counting_apply(self, x):
            calls["apply"] += 1
            return apply(self, x)

        def recording(step):
            def run(inst, *args):
                before = calls["apply"]
                out = step(inst, *args)
                steps.append((len(entry_objects(inst)), calls["apply"] - before))
                return out
            return run

        monkeypatch.setattr(Homomorphism, "apply", counting_apply)
        monkeypatch.setattr(hardness, "map_instance", recording(map_instance))
        monkeypatch.setattr(hardness, "transform_double", recording(transform_double))
        graph, = gnm_graphs(7, 1)
        apply_pipeline(pi_z5, graph)
        assert len(steps) == 2  # one map-through step, one double step
        for distinct, images in steps:
            assert 0 < images <= distinct
