import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cosetint.groups import (
    FiniteAbelianGroup,
    SubgroupGens,
    quotient_group,
    scaling_hom,
    subgroup_enumerate,
)
from cosetint.formats import format_instance
from cosetint.hardness import (
    DivideOutLift,
    GadgetColoringFull,
    GadgetS01,
    MapThrough,
    PiFromP,
    TransformDouble,
    Translate,
    apply_pipeline,
    apply_steps_to_instance,
    compile_hardness,
)
from cosetint.transforms import (
    Graph,
    complete_graph,
    gadget_coloring_full,
    gadget_s01,
    phi_fixed_subset,
    transform_double,
)
from cosetint.model import (
    ProblemInstance,
    SolveResult,
    SubsetS,
    _undouble,
    oracle_solve,
    verify_certificate,
    witness_point,
)

from helpers import (
    REPLAY_TARGETS,
    enum_oracle,
    flatten,
    is_three_colorable,
    random_element,
    random_instance,
    random_subset,
    reference_oracle_solve,
    reference_order_oracle_solve,
    reference_validate,
    reference_witness_point,
    small_groups,
    span_bruteforce,
    unflatten,
)


Z4 = FiniteAbelianGroup((4,))


class TestSubsetS:
    def test_validates_membership(self):
        with pytest.raises(ValueError):
            SubsetS.of(Z4, [(4,)])

    def test_dedup_and_contains(self):
        S = SubsetS.of(Z4, [(1,), (1,), (3,)])
        assert len(S) == 2
        assert (1,) in S and (0,) not in S

    def test_translate(self):
        S = SubsetS.of(Z4, [(1,), (3,)])
        assert S.translate((1,)).sorted_elements() == ((0,), (2,))


class TestProblemInstance:
    def test_length_checks(self):
        with pytest.raises(ValueError):
            ProblemInstance(Z4, 2, ((0,),), ())
        with pytest.raises(ValueError):
            ProblemInstance(Z4, 1, ((0,),), (((1,), (2,)),))

    def test_homogeneous_flag(self):
        assert ProblemInstance(Z4, 1, ((0,),), (((2,),),)).is_homogeneous()
        assert not ProblemInstance(Z4, 1, ((1,),), ()).is_homogeneous()


# entries equal to (1,) that are not group elements
EQUAL_TO_ONE = {
    "float": lambda: (1.0,),
    "fraction": lambda: (Fraction(1),),
    "numpy": lambda: (pytest.importorskip("numpy").int64(1),),
}


def validation_error(G, t, xstar, hgens):
    """The message ProblemInstance raises, asserted equal to the
    cell-by-cell check's; None when both accept."""
    try:
        ref_xstar, ref_hgens = reference_validate(G, t, xstar, hgens)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            ProblemInstance(G, t, xstar, hgens)
        assert str(got.value) == str(e)
        return str(e)
    inst = ProblemInstance(G, t, xstar, hgens)
    # repr tells True from 1, so the entries come out exactly as they went in
    assert repr((inst.xstar, inst.hgens)) == repr((ref_xstar, ref_hgens))
    # equal cells held by other objects give an equal instance
    copies = fresh_cells(inst)
    assert copies == inst and hash(copies) == hash(inst)
    return None


def fresh_cells(inst):
    """The instance rebuilt with every cell a new tuple object of equal value."""
    return ProblemInstance(inst.group, inst.t, [tuple(list(e)) for e in inst.xstar],
                           [[tuple(list(e)) for e in gen] for gen in inst.hgens])


class TestValidationPerDistinctEntry:
    """Each distinct entry object is checked once; that rejects exactly
    what the cell-by-cell check rejects, with the same message."""

    @pytest.mark.parametrize("make_bad", EQUAL_TO_ONE.values(), ids=EQUAL_TO_ONE.keys())
    def test_equal_value_of_another_type_after_a_valid_entry(self, make_bad):
        one, bad = (1,), make_bad()
        assert bad == one
        # before and after the valid entry, so neither the first nor the
        # last of equal entries may stand in for the others
        for pair in ((one, bad), (bad, one)):
            msg = validation_error(Z4, 2, pair, ())
            assert msg.startswith(f"xstar entry {bad} not in group")
            msg = validation_error(Z4, 2, (one, one), ((one, one), pair))
            assert msg.startswith(f"generator entry {bad} not in group")
        # checked in xstar first, then met again in a generator
        msg = validation_error(Z4, 1, (one,), ((bad,),))
        assert msg.startswith("generator entry")

    def test_names_the_first_bad_entry(self):
        assert validation_error(Z4, 3, ((1,), (5,), (1.0,)), ()).startswith(
            "xstar entry (5,) not in group")
        msg = validation_error(Z4, 2, ((1,), (1,)), (((1,), (2,)), ((4,), (7,))))
        assert msg.startswith("generator entry (4,) not in group")

    def test_length_error_comes_before_a_bad_entry_in_a_later_generator(self):
        msg = validation_error(Z4, 2, ((1,), (1,)), (((1,),), ((9,), (1,))))
        assert msg == "generator has length 1, expected t=2"
        msg = validation_error(Z4, 2, ((1,), (1,)), (((9,), (1,)), ((1,),)))
        assert msg.startswith("generator entry (9,) not in group")

    def test_matches_cell_by_cell_check_on_mixed_entries(self):
        rng = random.Random(5)
        for G in (Z4, FiniteAbelianGroup((2, 3))):
            shared = [G.element_at(i) for i in range(G.order)]
            one = (1,) * G.dim

            def entry():
                r = rng.random()
                if r < 0.5:
                    return rng.choice(shared)
                if r < 0.7:
                    return G.element_at(rng.randrange(G.order))  # a fresh object
                return rng.choice([
                    list(one), (True,) * G.dim, (1.0,) * G.dim, (Fraction(1),) * G.dim,
                    (4,) * G.dim, (-1,) * G.dim, (1,) * (G.dim + 1), (),
                ])

            rejected = 0
            for _ in range(400):
                t = rng.randrange(4)
                xstar = [entry() for _ in range(t + (rng.random() < 0.05))]
                hgens = [[entry() for _ in range(t + (rng.random() < 0.05))]
                         for _ in range(rng.randrange(4))]
                rejected += validation_error(G, t, xstar, hgens) is not None
            assert 50 < rejected < 350


class TestEqualValuesInDistinctObjects:
    """Per-entry tables are keyed by value, so an instance whose every cell
    is its own object, or a deep or pickled copy, gives the results of the
    instance whose cells share a few objects."""

    STEP_KINDS = {Translate, MapThrough, DivideOutLift, TransformDouble, PiFromP}

    @staticmethod
    def variants(inst):
        fresh = fresh_cells(inst)
        cells = [e for row in (fresh.xstar,) + fresh.hgens for e in row]
        if inst.group.dim:
            assert len(set(map(id, cells))) == len(cells)
        return [fresh, copy.deepcopy(inst), pickle.loads(pickle.dumps(inst)),
                copy.deepcopy(fresh), pickle.loads(pickle.dumps(fresh))]

    def test_formats_transforms_and_oracle_agree(self):
        seen = set()
        for variant, mods, elems in REPLAY_TARGETS:
            G = FiniteAbelianGroup(mods)
            S = SubsetS.of(G, elems)
            pipe = compile_hardness(G, S, variant, selfcheck=False)
            # the gadget's output (shared cells) on the 4-clique, a no graph
            i = next(i for i, step in enumerate(pipe.steps)
                     if isinstance(step, (GadgetS01, GadgetColoringFull)))
            gadget = pipe.steps[i]
            if isinstance(gadget, GadgetS01):
                inst = gadget_s01(complete_graph(4), gadget.group)[0]
            else:
                inst = gadget_coloring_full(complete_graph(gadget.group.order + 1),
                                            gadget.group)
            for step in pipe.steps[i + 1:]:
                out = apply_steps_to_instance([step], inst)[0]
                for other in self.variants(inst):
                    assert format_instance(other) == format_instance(inst)
                    got = apply_steps_to_instance([step], other)[0]
                    assert got == out, step
                    assert repr((got.xstar, got.hgens)) == repr((out.xstar, out.hgens)), step
                    assert format_instance(got) == format_instance(out), step
                seen.add(type(step))
                inst = out
            want = oracle_solve(inst, S)
            for other in self.variants(inst):
                got = oracle_solve(other, S)
                assert (got, got.nodes) == (want, want.nodes), (variant, mods, elems)
        assert seen == self.STEP_KINDS


class TestDerived:
    def test_reads_no_cell(self):
        class Unreadable(tuple):
            def __iter__(self):
                raise AssertionError("a row was read cell by cell")

        one, zero = (1,), (0,)
        xstar = Unreadable((one, zero, one))
        hgens = (Unreadable((zero, one, one)), Unreadable((one, one, zero)))
        inst = ProblemInstance._derived(Z4, 3, xstar, hgens, (one, zero))
        assert inst.xstar is xstar and inst.hgens is hgens
        assert (inst.group, inst.t) == (Z4, 3)


class TestWitnessPoint:
    def test_matches_cell_by_cell_reference(self):
        rng = random.Random(16)
        for G in small_groups(8):
            for _ in range(30):
                inst = random_instance(rng, G, max_t=5, max_gens=4)
                # negative coefficients and coefficients past the exponent
                bound = 2 * G.exponent
                cert = tuple(rng.randint(-bound, bound) for _ in inst.hgens)
                assert witness_point(inst, cert) == reference_witness_point(inst, cert)

    def test_scales_each_distinct_entry_once_per_coefficient(self, monkeypatch):
        inst, _ = gadget_s01(complete_graph(4), FiniteAbelianGroup((5,)))
        cert = tuple(k % 7 - 3 for k in range(len(inst.hgens)))
        want = reference_witness_point(inst, cert)
        zero = inst.group.zero()
        bound = sum(len({e for e in gen if e != zero})
                    for coeff, gen in zip(cert, inst.hgens) if coeff % 5)
        calls = []
        scale = FiniteAbelianGroup.scale

        def counting_scale(self, c, x):
            calls.append((c, x))
            return scale(self, c, x)

        monkeypatch.setattr(FiniteAbelianGroup, "scale", counting_scale)
        assert witness_point(inst, cert) == want
        assert 0 < len(calls) <= bound < inst.t


class TestVerifyCertificate:
    def test_t0_vacuous(self):
        inst = ProblemInstance(Z4, 0, (), ())
        assert verify_certificate(inst, SubsetS.of(Z4, []), ())

    def test_worked_example(self):
        inst = ProblemInstance(Z4, 1, ((1,),), (((2,),),))
        S = SubsetS.of(Z4, [(0,), (1,)])
        assert verify_certificate(inst, S, (0,))
        assert not verify_certificate(inst, S, (1,))

    def test_length_mismatch(self):
        inst = ProblemInstance(Z4, 1, ((1,),), (((2,),),))
        with pytest.raises(ValueError):
            verify_certificate(inst, SubsetS.of(Z4, [(0,)]), (0, 0))

    def test_coefficients_mod_exponent(self):
        inst = ProblemInstance(Z4, 1, ((1,),), (((2,),),))
        S = SubsetS.of(Z4, [(1,)])
        assert verify_certificate(inst, S, (4,)) == verify_certificate(inst, S, (0,))


class TestOracleSolve:
    def test_yes_with_smallest_cert(self):
        inst = ProblemInstance(Z4, 1, ((1,),), (((2,),),))
        res = oracle_solve(inst, SubsetS.of(Z4, [(0,), (1,)]))
        assert res == SolveResult("yes", (0,))

    def test_no(self):
        inst = ProblemInstance(Z4, 1, ((3,),), ())
        assert oracle_solve(inst, SubsetS.of(Z4, [(0,), (1,)])).kind == "no"

    def test_t0_always_yes(self):
        inst = ProblemInstance(Z4, 0, (), ())
        assert oracle_solve(inst, SubsetS.of(Z4, [])) == SolveResult("yes", ())

    def test_budget_exceeded_is_a_value(self):
        # four coordinates on a cycle, generator j moving j and j + 1: the
        # coefficients must solve c_3 + c_0 = 6, c_0 + c_1 = 6, c_1 + c_2 = 6
        # and c_2 + c_3 = 7, whose alternating sum reads 0 = 1; each c_0 leaves
        # one digit for c_1 and for c_2, and the node for c_3 fails
        G = FiniteAbelianGroup((8,))
        inst = ProblemInstance(
            G, 4, ((1,), (1,), (1,), (0,)),
            tuple(tuple((int(i in (j, (j + 1) % 4)),) for i in range(4)) for j in range(4)),
        )
        S = SubsetS.of(G, [(7,)])
        res = oracle_solve(inst, S, budget=5)
        assert res == SolveResult("budget_exceeded")
        res = oracle_solve(inst, S)
        assert (res, res.nodes) == (SolveResult("no"), 1 + 3 * 8)

    def test_unit_generators_take_one_node_each(self):
        # each generator moves one coordinate, so each node tries only the
        # digit that puts its coordinate into S
        G = FiniteAbelianGroup((8,))
        inst = ProblemInstance(
            G, 4, tuple((1,) for _ in range(4)),
            tuple(tuple((int(i == j),) for i in range(4)) for j in range(4)),
        )
        res = oracle_solve(inst, SubsetS.of(G, [(7,)]), budget=5)
        assert (res, res.nodes) == (SolveResult("yes", (6, 6, 6, 6)), 5)

    def test_agrees_with_enumeration_oracle(self):
        rng = random.Random(20240817)
        groups = [G for G in small_groups(8) if G.order <= 8]
        for trial in range(1000):
            G = rng.choice(groups)
            inst = random_instance(rng, G)
            S = random_subset(rng, G)
            res = oracle_solve(inst, S)
            assert res.kind in ("yes", "no")
            assert (res.kind == "yes") == enum_oracle(inst, S), (inst, sorted(S.elements))
            if res.kind == "yes":
                assert verify_certificate(inst, S, res.certificate)

    def test_invariant_under_permutation_and_negation(self):
        rng = random.Random(7)
        groups = [G for G in small_groups(8) if G.order <= 8]
        for trial in range(200):
            G = rng.choice(groups)
            inst = random_instance(rng, G)
            S = random_subset(rng, G)
            base = oracle_solve(inst, S).kind
            perm = list(inst.hgens)
            rng.shuffle(perm)
            Gt = G.power(inst.t)
            perm = [
                unflatten(G, inst.t, Gt.neg(flatten(G, gen))) if rng.random() < 0.5 else gen
                for gen in perm
            ]
            twisted = ProblemInstance(G, inst.t, inst.xstar, tuple(perm))
            assert oracle_solve(twisted, S).kind == base

    def test_lex_smallest_certificate(self):
        rng = random.Random(99)
        for trial in range(200):
            G = rng.choice([FiniteAbelianGroup((4,)), FiniteAbelianGroup((2, 2)), FiniteAbelianGroup((6,))])
            inst = random_instance(rng, G, max_t=2, max_gens=2)
            S = random_subset(rng, G)
            res = oracle_solve(inst, S)
            if res.kind != "yes":
                continue
            exp = G.exponent
            all_certs = [(a, b) for a in range(exp) for b in range(exp)] if len(inst.hgens) == 2 \
                else ([(a,) for a in range(exp)] if len(inst.hgens) == 1 else [()])
            verifying = [c for c in all_certs if verify_certificate(inst, S, c)]
            assert res.certificate == min(verifying)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_yes_implies_verifies(self, data):
        moduli = tuple(data.draw(st.lists(st.integers(2, 4), min_size=1, max_size=2)))
        G = FiniteAbelianGroup(moduli)
        t = data.draw(st.integers(0, 2))
        elem = st.tuples(*(st.integers(0, d - 1) for d in moduli))
        inst = ProblemInstance(
            G, t,
            tuple(data.draw(elem) for _ in range(t)),
            tuple(tuple(data.draw(elem) for _ in range(t))
                  for _ in range(data.draw(st.integers(0, 2)))),
        )
        S = SubsetS.of(G, data.draw(st.sets(elem, max_size=G.order)))
        res = oracle_solve(inst, S)
        if res.kind == "yes":
            assert verify_certificate(inst, S, res.certificate)
            assert witness_point(inst, res.certificate) in [witness_point(inst, res.certificate)]


def same_search(inst, S, budget=10 ** 8):
    """The order-bounded reference searches the exponent-bounded one's
    tree cut down to digits below each generator's order, and the oracle
    searches that tree cut down further by its group checks, all in the
    same order.  So wherever a reference decides, the oracle gives the
    same kind and certificate, and it never takes more nodes than the
    order-bounded reference.  The two references take exactly as many
    nodes when every generator's order is the exponent, where their trees
    coincide.  Returns (reference nodes, order-bounded nodes, oracle nodes)."""
    ref, ref_nodes = reference_oracle_solve(inst, S, budget)
    order = reference_order_oracle_solve(inst, S, budget)
    res = oracle_solve(inst, S, budget)
    where = (inst, sorted(S.elements), budget)
    for decided in (ref, order):
        if decided.kind != "budget_exceeded":
            assert (res.kind, res.certificate) == (decided.kind, decided.certificate), where
    assert res.nodes <= order.nodes <= ref_nodes, where
    G = inst.group
    orders = [math.lcm(*map(G.element_order, gen)) for gen in inst.hgens]
    if all(o == G.exponent for o in orders):
        assert order.nodes == ref_nodes, where
    return ref_nodes, order.nodes, res.nodes


def gnm_graphs(seed, count, colourable, n=10, m=18):
    """`count` seeded G(n, m) graphs whose 3-colourability is `colourable`."""
    rng = random.Random(seed)
    all_edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    graphs = []
    while len(graphs) < count:
        graph = Graph.of(n, rng.sample(all_edges, m))
        if is_three_colorable(graph) == colourable:
            graphs.append(graph)
    return graphs


def replay_pipeline(target):
    variant, mods, elems = target
    G = FiniteAbelianGroup(mods)
    return compile_hardness(G, SubsetS.of(G, elems), variant, selfcheck=False)


class TestOracleMatchesReference:
    def test_nodes_do_not_take_part_in_equality(self):
        assert SolveResult("no", nodes=7) == SolveResult("no")
        assert hash(SolveResult("yes", (1,), nodes=3)) == hash(SolveResult("yes", (1,)))
        inst = ProblemInstance(Z4, 1, ((1,),), (((2,),),))
        assert oracle_solve(inst, SubsetS.of(Z4, [(0,), (1,)])).nodes == 2

    def test_random_small_groups(self):
        rng = random.Random(31)
        groups = small_groups(8)
        budgets_checked = fewer = pruned = 0
        for trial in range(1200):
            G = rng.choice(groups)
            inst = random_instance(rng, G, max_t=4, max_gens=4)
            S = random_subset(rng, G)
            nodes, order_nodes, oracle_nodes = same_search(inst, S)
            fewer += order_nodes < nodes
            pruned += oracle_nodes < order_nodes
            if trial % 10 == 0:
                for budget in range(1, nodes + 2):
                    same_search(inst, S, budget)
                budgets_checked += 1
        assert budgets_checked == 120
        # each cut-down tree is sometimes strictly smaller
        assert fewer > 20
        assert pruned > 100

    def test_replay_targets_on_gnm_graphs(self):
        rng = random.Random(18)
        all_edges = [(u, v) for u in range(1, 11) for v in range(u + 1, 11)]
        graphs = [Graph.of(10, rng.sample(all_edges, 18)) for _ in range(3)]
        total = 0
        for target in REPLAY_TARGETS:
            pipe = replay_pipeline(target)
            for graph in graphs:
                inst, _ = apply_pipeline(pipe, graph)
                total += same_search(inst, pipe.subset, budget=5 * 10 ** 4)[2]
                want = "yes" if is_three_colorable(graph) else "no"
                assert oracle_solve(inst, pipe.subset, budget=5 * 10 ** 4).kind == want
        # node counts are deterministic: a change that keeps the search keeps this
        assert total == 20420


class TestGroupCheck:
    """The checks that decide what the order bound alone leaves undecided,
    and the cap that keeps their tables small."""

    def test_non_colourable_graphs_over_z2_z2(self):
        # on Z_2 x Z_2 every generator's order is the exponent, so only the
        # group checks cut the tree; the order-bounded search spends its budget
        pipe = replay_pipeline(REPLAY_TARGETS[2])
        assert pipe.group.moduli == (2, 2)
        exceeded = 0
        for graph in gnm_graphs(3, 4, colourable=False):
            inst, _ = apply_pipeline(pipe, graph)
            assert oracle_solve(inst, pipe.subset, budget=5 * 10 ** 4).kind == "no"
            order = reference_order_oracle_solve(inst, pipe.subset, budget=5 * 10 ** 4)
            exceeded += order.kind == "budget_exceeded"
        assert exceeded >= 1

    @pytest.mark.parametrize("modulus, nodes", [(2 ** 7, 1), (2 ** 8, 129)])
    def test_cap_on_digit_tuples(self, modulus, nodes):
        # (2) has order 64 in Z_128, at the cap, and the root's check sees that
        # no multiple moves 1 onto 0; in Z_256 its order 128 is past the cap,
        # and the search tries every digit
        G = FiniteAbelianGroup((modulus,))
        res = oracle_solve(ProblemInstance(G, 1, ((1,),), (((2,),),)), SubsetS.of(G, [(0,)]))
        assert (res.kind, res.nodes) == ("no", nodes)

    def test_no_table_at_max_order(self, monkeypatch):
        G = FiniteAbelianGroup((2 ** 20,))
        calls = 0
        add = FiniteAbelianGroup.add

        def counting_add(self, x, y):
            nonlocal calls
            calls += 1
            return add(self, x, y)

        monkeypatch.setattr(FiniteAbelianGroup, "add", counting_add)
        inst = ProblemInstance(G, 2, ((0,), (3,)), (((1,), (1,)),))
        assert oracle_solve(inst, SubsetS.of(G, [(5,), (8,)])) == SolveResult("yes", (5,))
        # the instance doubles xstar = (0) along x -> x + 3, so S = {7} would
        # leave nothing to search; {2000, 2003} leaves {2000}, past the budget
        slow = SubsetS.of(G, [(2000,), (2003,)])
        assert oracle_solve(inst, slow, budget=1000).kind == "budget_exceeded"
        assert calls < 2000


class TestDigitFilter:
    """The node for generator k tries only the digits that put every
    coordinate that g_k alone still moves into S."""

    def test_disjoint_supports(self):
        # every coordinate has at most one generator, so the root checks
        # them all: a no fails there, and a yes takes each generator's
        # first allowed digit without backtracking
        rng = random.Random(15)
        groups = small_groups(8)
        found = {"yes": 0, "no": 0}
        for _ in range(600):
            G = rng.choice(groups)
            t, ngens = rng.randint(0, 5), rng.randint(0, 4)
            owner = [rng.randrange(-1, ngens) for _ in range(t)]
            zero = G.zero()
            hgens = tuple(tuple(random_element(rng, G) if owner[i] == k else zero
                                for i in range(t)) for k in range(ngens))
            inst = ProblemInstance(G, t, tuple(random_element(rng, G) for _ in range(t)), hgens)
            S = random_subset(rng, G)
            res = oracle_solve(inst, S)
            ref = reference_order_oracle_solve(inst, S)
            where = (inst, sorted(S.elements))
            assert (res.kind, res.certificate) == (ref.kind, ref.certificate), where
            assert res.nodes == (ngens + 1 if res.kind == "yes" else 1), where
            found[res.kind] += 1
        assert min(found.values()) > 100

    def test_capped_final_coordinates(self):
        # in Z_256 an entry 2 * odd has order 128, past the cap: its group
        # {k} gets no check and no digit filter, and a coordinate that such a
        # generator moves last is tested once the generator's digit is set
        G = FiniteAbelianGroup((256,))
        inst = ProblemInstance(G, 2, ((1,), (1,)), (((2,), (4,)), ((0,), (4,))))
        S = SubsetS.of(G, [(7,), (13,)])
        # c_0 = 0 puts coordinate 1 into S with c_1 = 3, but leaves coordinate 0 at 1
        assert oracle_solve(inst, S) == reference_order_oracle_solve(inst, S) == (
            SolveResult("yes", (3, 0)))
        rng = random.Random(256)
        capped = [(4 * rng.randrange(64) + 2,) for _ in range(3)]
        uncapped = [(4 * rng.randrange(64),) for _ in range(3)]
        kinds = set()
        for _ in range(60):
            t = rng.randint(1, 3)
            gens = [tuple(rng.choice(pool) for _ in range(t)) for pool in (capped, uncapped)]
            rng.shuffle(gens)
            inst = ProblemInstance(G, t, tuple(random_element(rng, G) for _ in range(t)),
                                   tuple(gens))
            S = SubsetS.of(G, rng.sample(list(G.elements()), 6))
            res, ref = oracle_solve(inst, S), reference_order_oracle_solve(inst, S)
            assert (res.kind, res.certificate) == (ref.kind, ref.certificate), (inst, S)
            kinds.add(res.kind)
        assert kinds == {"yes", "no"}

    def test_digit_bound_one_without_own_group(self):
        # in Z_10 with S = {0, 1, 5, 6} = {0, 1} + <5>, the entry 5 lies in
        # the stabilizer, so g_1 = (5, 5, 5) has digit bound 1; later
        # generators move all its coordinates, so it has no group {1} and its
        # digit filter is all ones.  Its node takes only digit 0, and under
        # c_0 = 0 that subtree fails, so the node returns with nothing moved
        G = FiniteAbelianGroup((10,))
        inst = ProblemInstance(G, 3, ((3,), (0,), (0,)), (
            ((1,), (0,), (0,)), ((5,), (5,), (5,)), ((1,), (1,), (0,)), ((0,), (1,), (1,))))
        S = SubsetS.of(G, [(0,), (1,), (5,), (6,)])
        res, ref = oracle_solve(inst, S), reference_order_oracle_solve(inst, S)
        assert (res.kind, res.certificate) == (ref.kind, ref.certificate) == ("yes", (1, 0, 1, 0))
        # root, g_1 and g_2 under c_0 = 0, g_3 under c_2 = 2 and 3; then
        # g_1, g_2, g_3 and the leaf under c_0 = 1
        assert res.nodes == 9 < ref.nodes

    def test_failed_moves_are_undone_for_the_next_sibling(self):
        # in Z_5 with S = {0, 1}: under c_0 = 0, coordinate 0 (at 3) lets
        # g_1 take only digits 2 and 3, and with either one coordinate 1 has
        # no digit of g_2 in common with coordinate 2.  That node has moved
        # coordinates 0 and 1 three times when it fails, and its sibling under
        # c_0 = 1 must start from where they were
        G = FiniteAbelianGroup((5,))
        inst = ProblemInstance(G, 3, ((3,), (0,), (0,)), (
            ((1,), (0,), (0,)), ((1,), (1,), (0,)), ((0,), (1,), (1,))))
        S = SubsetS.of(G, [(0,), (1,)])
        res, ref = oracle_solve(inst, S), reference_order_oracle_solve(inst, S)
        assert (res.kind, res.certificate) == (ref.kind, ref.certificate) == ("yes", (1, 1, 0))
        # root, g_1 under c_0 = 0, g_2 under c_1 = 2 and 3; then g_1, g_2
        # and the leaf under c_0 = 1
        assert res.nodes == 7 < ref.nodes


class TestPresolve:
    """Undoubling keeps the search node for node; the stabilizer's digit
    bound only cuts it down."""

    def test_undoubling_keeps_kind_certificate_and_nodes(self):
        rng = random.Random(12)
        groups = small_groups(8)
        plus_one = 0
        for _ in range(800):
            G = rng.choice(groups)
            inst = random_instance(rng, G, max_t=3, max_gens=3)
            S = random_subset(rng, G)
            c, g = rng.choice((1, -1)), random_element(rng, G)
            doubled = transform_double(inst, scaling_hom(G, c), g)
            res = oracle_solve(doubled, S)
            fixed = oracle_solve(inst, phi_fixed_subset(S, scaling_hom(G, c), g))
            where = (inst, c, g, sorted(S.elements))
            assert (res.kind, res.certificate) == (fixed.kind, fixed.certificate), where
            # +1 is tried first, and it also undoes a -1 doubling when every
            # generator entry has order <= 2 and xstar's halves differ by a
            # constant; its subset then agrees with the -1 one on every point
            # the search reaches, but may have another stabilizer
            h = inst.t
            shifts = {G.sub(y, x) for x, y in zip(doubled.xstar[:h], doubled.xstar[h:])}
            if (c == -1 and len(shifts) == 1
                    and all(gen[:h] == gen[h:] for gen in doubled.hgens)):
                plus_one += 1
                fixed = oracle_solve(inst, phi_fixed_subset(S, scaling_hom(G, 1), shifts.pop()))
            assert res.nodes == fixed.nodes, where
        assert 0 < plus_one < 200

    def test_undoes_nested_doublings(self):
        Z6 = FiniteAbelianGroup((6,))
        inst = ProblemInstance(Z6, 2, ((1,), (4,)), (((1,), (0,)), ((2,), (3,))))
        S = SubsetS.of(Z6, [(0,), (1,), (2,), (4,), (5,)])
        once = transform_double(inst, scaling_hom(Z6, -1), (3,))
        twice = transform_double(once, scaling_hom(Z6, 1), (2,))
        inner = phi_fixed_subset(S, scaling_hom(Z6, 1), (2,))
        fixed = oracle_solve(inst, phi_fixed_subset(inner, scaling_hom(Z6, -1), (3,)))
        res = oracle_solve(twice, S)
        assert (res, res.nodes) == (fixed, fixed.nodes)
        members = phi_fixed_subset(inner, scaling_hom(Z6, -1), (3,)).elements
        assert _undouble(Z6, twice.xstar, twice.hgens, S.elements) == (
            inst.xstar, inst.hgens, members)

    def test_periodic_subsets(self):
        # a K-periodic S is decided by the order-bounded search over G/K, whose
        # digits stop at each generator's order modulo K, with the same kind and
        # certificate.  When no nonzero entry lies in K, both searches finish
        # each coordinate after the same generator, so the oracle over G, cut
        # down by its group checks, never takes more nodes than that search
        rng = random.Random(19)
        groups = [G for G in small_groups(8) if G.order > 1]
        fewer = bounded = 0
        for _ in range(400):
            G = rng.choice(groups)
            K = span_bruteforce(G, [random_element(rng, G) for _ in range(2)])
            if len(K) == 1:
                continue
            bases = [random_element(rng, G) for _ in range(rng.randint(1, 3))]
            S = SubsetS.of(G, {G.add(b, k) for b in bases for k in K})
            inst = random_instance(rng, G, max_t=4, max_gens=4)
            _, order_nodes, oracle_nodes = same_search(inst, S)
            fewer += oracle_nodes < order_nodes
            q = quotient_group(G, SubgroupGens(G, tuple(K)))
            pi = q.proj.apply
            over_q = ProblemInstance(q.group, inst.t, tuple(map(pi, inst.xstar)),
                                     tuple(tuple(map(pi, gen)) for gen in inst.hgens))
            ref = reference_order_oracle_solve(over_q, SubsetS.of(q.group, map(pi, S)))
            res = oracle_solve(inst, S)
            assert res == ref, (inst, sorted(S.elements))
            if not K.intersection(set().union(*inst.hgens)).difference([G.zero()]):
                assert res.nodes <= ref.nodes, (inst, sorted(S.elements))
                bounded += 1
        assert fewer > 20 and bounded > 100

    def test_bounded_setup_at_max_order(self, monkeypatch):
        # S is a union of two cosets of <512>, so the entry 1 of order 2^20
        # has period 512: 11 passes over S that hold and one that misses
        G = FiniteAbelianGroup((2 ** 20,))
        S = SubsetS.of(G, [(b + 512 * j,) for b in (0, 1) for j in range(2 ** 11)])
        assert len(S) == 4096
        calls = 0
        add = FiniteAbelianGroup.add

        def counting_add(self, x, y):
            nonlocal calls
            calls += 1
            return add(self, x, y)

        monkeypatch.setattr(FiniteAbelianGroup, "add", counting_add)
        yes = ProblemInstance(G, 1, ((2,),), (((1,),),))
        no = ProblemInstance(G, 3, ((0,), (3,), (7,)), (((1,), (1,), (1,)),))
        for inst, want in ((yes, SolveResult("yes", (510,))), (no, SolveResult("no"))):
            calls = 0
            res = oracle_solve(inst, S)
            assert res == want and res.nodes <= 513
            # distinct entries x divisors of 2^20 x |S|
            assert calls <= 1 * 21 * len(S)
