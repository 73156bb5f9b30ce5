import hashlib
import math
import random

import pytest

from cosetint.groups import (
    FiniteAbelianGroup,
    Homomorphism,
    SubgroupGens,
    scaling_hom,
)
from cosetint.formats import format_pipeline
from cosetint.model import SubsetS, oracle_solve, verify_certificate
from cosetint.transforms import Graph, complete_graph, cycle_graph, path_graph
from cosetint.hardness import (
    CompileError,
    DivideOutLift,
    GadgetColoringFull,
    GadgetS01,
    KColFrom3Col,
    MapThrough,
    PiFromP,
    ReductionPipeline,
    TransformDouble,
    Translate,
    _two_gen_step,
    _two_gen_worklist,
    apply_pipeline,
    compile_hardness,
    compile_hardness_P,
    normalize_steps,
    run_selfcheck,
    verify_trace,
)

from helpers import REPLAY_TARGETS, is_three_colorable, np_complete_targets, small_groups

Z3 = FiniteAbelianGroup((3,))
Z4 = FiniteAbelianGroup((4,))
Z5 = FiniteAbelianGroup((5,))
Z6 = FiniteAbelianGroup((6,))
Z8 = FiniteAbelianGroup((8,))
C22 = FiniteAbelianGroup((2, 2))

TARGETS = [
    ("P", Z4, [(0,), (1,)]),
    ("P", Z4, [(0,), (1,), (2,)]),
    ("P", C22, [(0, 1), (1, 0), (1, 1)]),
    ("Pi", Z5, [(1,), (2,), (4,)]),
    ("Pi", Z6, [(1,), (2,), (4,)]),
]

GRAPHS = [complete_graph(3), cycle_graph(5), path_graph(3), complete_graph(4)]


def compiled(variant, G, elems, selfcheck=False):
    return compile_hardness(G, SubsetS.of(G, elems), variant, selfcheck=selfcheck)


class TestPipelineShapes:
    def test_s01_family(self):
        pipe = compiled("P", Z4, [(0,), (1,)])
        assert pipe.steps == (GadgetS01(Z4),)

    def test_three_of_four(self):
        pipe = compiled("P", Z4, [(0,), (1,), (2,)])
        assert pipe.steps == (
            GadgetS01(Z4),
            Translate(Z4, (1,)),
            TransformDouble(scaling_hom(Z4, -1), (3,)),
        )

    def test_klein_all_but_zero(self):
        pipe = compiled("P", C22, [(0, 1), (1, 0), (1, 1)])
        assert pipe.steps == (KColFrom3Col(4), GadgetColoringFull(C22))

    def test_pi_z5(self):
        pipe = compiled("Pi", Z5, [(1,), (2,), (4,)])
        kinds = [type(s) for s in pipe.steps]
        assert kinds == [
            GadgetS01, MapThrough, Translate, TransformDouble, Translate, PiFromP,
        ]
        assert pipe.steps[-1].order == ((1,), (2,), (4,))

    def test_pi_z6_embeds_span_of_core(self):
        pipe = compiled("Pi", Z6, [(1,), (2,), (4,)])
        g0, fold, emb = pipe.steps
        assert g0 == GadgetColoringFull(Z3)
        assert fold.order == ((1,), (2,))
        assert emb.hom.source.moduli == (3,)
        assert {emb.hom.apply(x) for x in emb.hom.source.elements()} == {(0,), (2,), (4,)}

    def test_periodic_target_divides_out(self):
        pipe = compiled("P", Z8, [(0,), (1,), (4,), (5,)])
        assert pipe.steps == (
            GadgetS01(Z4),
            DivideOutLift(SubgroupGens(Z8, ((4,),))),
        )

    def test_order3_difference_uses_full_gadget(self):
        pipe = compiled("P", Z3, [(0,), (1,)])
        assert pipe.steps == (GadgetColoringFull(Z3), Translate(Z3, (2,)))

    def test_two_element_multidim(self):
        G = FiniteAbelianGroup((2, 4))
        pipe = compiled("P", G, [(0, 0), (1, 1)])
        gadget, emb = pipe.steps
        assert gadget == GadgetS01(Z4)
        assert emb.hom.apply((1,)) == (1, 1)


class TestWorklistInternals:
    def test_worked_step(self):
        S = SubsetS.of(Z4, [(0,), (1,), (2,)])
        kind, c, shift, S_phi = _two_gen_step(Z4, S, (1,), (2,), [])
        assert kind == "double"
        assert c == scaling_hom(Z4, -1)
        assert shift == (3,)
        assert S_phi.elements == frozenset({(1,), (2,)})

    def test_even_pattern_base(self):
        S = SubsetS.of(C22, [(0, 0), (1, 0), (0, 1)])
        out = _two_gen_worklist(C22, S, (1, 0), (0, 1), [])
        assert out[0] == "base"
        kinds = [type(s) for s in out[1]]
        assert kinds == [KColFrom3Col, GadgetColoringFull, Translate, DivideOutLift]

    def test_rejects_missing_witness(self):
        S = SubsetS.of(Z4, [(0,), (1,), (2,), (3,)])
        with pytest.raises(CompileError):
            _two_gen_worklist(Z4, S, (1,), (2,), [])


class TestCompileGate:
    def test_rejects_cosets(self):
        with pytest.raises(CompileError):
            compiled("P", Z4, [(0,), (2,)])
        with pytest.raises(CompileError):
            compiled("P", Z4, [])

    def test_pi_rejects_zero_in_subset(self):
        with pytest.raises(CompileError):
            compiled("Pi", Z4, [(0,), (1,)])

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            compile_hardness(Z4, SubsetS.of(Z4, [(0,), (1,)]), "Q")


class TestEndToEnd:
    @pytest.mark.parametrize("variant,G,elems", TARGETS)
    def test_matches_three_colorability(self, variant, G, elems):
        S = SubsetS.of(G, elems)
        pipe = compile_hardness(G, S, variant, selfcheck=False)
        for graph in GRAPHS:
            inst, _ = apply_pipeline(pipe, graph)
            want = "yes" if is_three_colorable(graph) else "no"
            assert oracle_solve(inst, S, budget=10 ** 7).kind == want

    @pytest.mark.parametrize("variant,G,elems", TARGETS)
    def test_witness_threading(self, variant, G, elems):
        S = SubsetS.of(G, elems)
        pipe = compile_hardness(G, S, variant, selfcheck=False)
        colorings = {3: (1, 2, 3), 5: (1, 2, 1, 2, 3)}
        for graph in GRAPHS:
            if not is_three_colorable(graph):
                continue
            coloring = colorings.get(graph.n, (1, 2, 3))
            inst, cert = apply_pipeline(pipe, graph, coloring=coloring)
            assert cert is not None
            assert verify_certificate(inst, S, cert)

    def test_selfcheck_passes_on_targets(self):
        for variant, G, elems in TARGETS:
            compiled(variant, G, elems, selfcheck=True)

    def test_empty_graph(self):
        pipe = compiled("P", Z4, [(0,), (1,)])
        inst, cert = apply_pipeline(pipe, Graph.of(0, []), coloring=())
        assert inst.t == 0
        assert oracle_solve(inst, pipe.subset).kind == "yes"
        assert verify_certificate(inst, pipe.subset, cert)

    def test_rejects_bad_colorings(self):
        pipe = compiled("P", Z4, [(0,), (1,)])
        with pytest.raises(ValueError):
            apply_pipeline(pipe, complete_graph(3), coloring=(1, 2))
        with pytest.raises(ValueError):
            apply_pipeline(pipe, complete_graph(3), coloring=(1, 2, 4))
        with pytest.raises(ValueError):
            apply_pipeline(pipe, complete_graph(3), coloring=(1, 2, 1))

    @pytest.mark.parametrize("steps", [
        (GadgetS01(Z4), GadgetS01(Z4)),
        (GadgetS01(Z4), KColFrom3Col(4)),
        (Translate(Z4, (1,)),),
    ], ids=["second-gadget", "kcol-after-gadget", "no-gadget"])
    def test_rejects_malformed_replay_shapes(self, steps):
        pipe = ReductionPipeline(Z4, SubsetS.of(Z4, [(0,), (1,)]), "P", steps, ())
        for coloring in (None, (1, 2, 3)):
            with pytest.raises(CompileError):
                apply_pipeline(pipe, complete_graph(3), coloring=coloring)


class TestTraceAndDeterminism:
    @pytest.mark.parametrize("variant,G,elems", TARGETS)
    def test_trace_reverifies(self, variant, G, elems):
        pipe = compiled(variant, G, elems)
        assert verify_trace(pipe)

    def test_recompilation_is_identical(self):
        for variant, G, elems in TARGETS:
            assert compiled(variant, G, elems) == compiled(variant, G, elems)

    # SHA-256 of each replay target's pipeline text, which the replay
    # benchmark compiles and replays: a change to any of them changes that
    # workload's instances, certificates and node counts
    REPLAY_PIPELINE_SHA256 = (
        "f68b84420a8408efa29d6d676c1118f682360989b4fa280913d06a980ee683b7",
        "81d9e112a0ff800365d38b6edd60c710014a0fe8d8cafe1e71618a359c47f26a",
        "f853c912222feddba090f49eb9941303e356bcfb17155a05918a1a6ce9541696",
        "c6ff86b4f80a3a93749b1081b666f6bbef71ffe3ac7dc7f64f31de5418797c4f",
        "4bde7f222e5380fab0f6826d4f34fe1134ff510318e923109bde1d74f006d6f0",
        "e8c6589df6b2fec999224b3973b3b6cc6aac6e01181b8a1ce497d4600887250d",
    )

    @pytest.mark.parametrize("k", range(len(REPLAY_TARGETS)))
    def test_replay_pipeline_texts_are_pinned(self, k):
        variant, moduli, elems = REPLAY_TARGETS[k]
        G = FiniteAbelianGroup(moduli)
        text = format_pipeline(compiled(variant, G, elems))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == self.REPLAY_PIPELINE_SHA256[k], (variant, moduli, elems)

    def test_tampered_trace_detected(self):
        pipe = compiled("P", Z4, [(0,), (1,), (2,)])
        bad = ReductionPipeline(pipe.group, pipe.subset, pipe.variant,
                                pipe.steps, pipe.trace[:-1])
        with pytest.raises(CompileError):
            verify_trace(bad)

    def test_measure_drops_recorded(self):
        pipe = compiled("P", Z4, [(0,), (1,), (2,)])
        drops = [r for r in pipe.trace if r.kind == "measure-drop"]
        assert drops
        for r in drops:
            info = dict(r.info)
            assert int(info["after"]) < int(info["before"])


class TestNormalization:
    def test_merges_translates(self):
        steps = (Translate(Z4, (1,)), Translate(Z4, (2,)))
        assert normalize_steps(steps) == (Translate(Z4, (3,)),)

    def test_cancelling_translates_vanish(self):
        steps = (Translate(Z4, (1,)), Translate(Z4, (3,)))
        assert normalize_steps(steps) == ()

    def test_drops_identity_map(self):
        steps = (MapThrough(scaling_hom(Z4, 1)),)
        assert normalize_steps(steps) == ()

    def test_drops_kcol3(self):
        assert normalize_steps((KColFrom3Col(3),)) == ()
        assert normalize_steps((KColFrom3Col(4),)) == (KColFrom3Col(4),)

    def test_drops_trivial_divideout(self):
        assert normalize_steps((DivideOutLift(SubgroupGens(Z4, ())),)) == ()
        keep = DivideOutLift(SubgroupGens(Z4, ((2,),)))
        assert normalize_steps((keep,)) == (keep,)


SWEEP_BUDGET = 2 * 10 ** 5


class TestCompileSweep:
    """Every NP-complete target over small groups compiles and passes
    its self-check: the triangle's threaded certificate verifies end to
    end, and the oracle decides the 4-clique No within SWEEP_BUDGET."""

    @pytest.mark.parametrize("variant, floor", [("P", 30), ("Pi", 10)])
    def test_sweep(self, variant, floor):
        count = 0
        for G in small_groups(6):
            for _, S in np_complete_targets(G, (variant,)):
                run_selfcheck(compile_hardness(G, S, variant, selfcheck=False),
                              budget=SWEEP_BUDGET)
                count += 1
        assert count > floor

    def test_divide_out_targets_past_order_six(self):
        # each K4 instance of these pipelines is doubled around a divide-out,
        # and the fixed subset left by undoubling is periodic, so the oracle's
        # presolve decides it within SWEEP_BUDGET
        pipes = []
        for _, S in np_complete_targets(Z8, ("P",)):
            pipe = compile_hardness_P(Z8, S, selfcheck=False)
            if any(isinstance(step, DivideOutLift) for step in pipe.steps):
                pipes.append(pipe)
        assert len(pipes) == 14
        for mods, S in (((10,), (0, 1, 5, 6)), ((10,), (0, 1, 4, 5, 6)), ((12,), (0, 1, 6, 7))):
            G = FiniteAbelianGroup(mods)
            pipes.append(compile_hardness_P(G, SubsetS.of(G, [(e,) for e in S]),
                                            selfcheck=False))
        for pipe in pipes:
            run_selfcheck(pipe, budget=SWEEP_BUDGET)

    def test_selfcheck_census_past_order_six(self):
        # every NP-complete target of Z_7, Z_2 x Z_4 and Z_2^3 self-checks
        # within SWEEP_BUDGET; Z_8 is left out, where the Pi target
        # {1,2,3,6,7} still overruns it
        counts = {}
        for mods in ((7,), (2, 4), (2, 2, 2)):
            G = FiniteAbelianGroup(mods)
            for variant, S in np_complete_targets(G):
                run_selfcheck(compile_hardness(G, S, variant, selfcheck=False),
                              budget=SWEEP_BUDGET)
                counts[mods] = counts.get(mods, 0) + 1
        assert counts == {(7,): 176, (2, 4): 336, (2, 2, 2): 296}

    def test_ten_generators_over_z6_stop_at_their_orders(self):
        # seven of the K4 instance's ten generators have order 2 or 3, so
        # the search box holds 3 * 6^3 * 2^6 leaves rather than 6^10
        pipe = compiled("P", Z6, [(0,), (2,), (3,), (5,)])
        inst, _ = apply_pipeline(pipe, complete_graph(4))
        orders = [math.lcm(*map(Z6.element_order, gen)) for gen in inst.hgens]
        assert orders == [3, 6, 6, 6] + [2] * 6
        assert oracle_solve(inst, pipe.subset, budget=20_000).kind == "no"
