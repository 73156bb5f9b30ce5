import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from cosetint.groups import FiniteAbelianGroup, Homomorphism, SubgroupGens, scaling_hom
from cosetint.model import ProblemInstance, SubsetS
from cosetint import formats, hardness, transforms
from cosetint.transforms import Graph, complete_graph, gadget_s01
from cosetint.hardness import (
    DivideOutLift,
    GadgetColoringFull,
    GadgetS01,
    KColFrom3Col,
    MapThrough,
    PiFromP,
    ReductionPipeline,
    TraceRecord,
    TransformDouble,
    Translate,
    compile_hardness,
)
from cosetint.formats import (
    ParseError,
    format_element,
    format_graph,
    format_group,
    format_instance,
    format_int_line,
    format_pipeline,
    format_subset,
    parse_element,
    parse_graph,
    parse_group,
    parse_instance,
    parse_int_line,
    parse_pipeline,
    parse_subset,
)

from helpers import (
    random_instance,
    random_subset,
    reference_format_instance,
    reference_parse_instance,
    small_groups,
)

Z4 = FiniteAbelianGroup((4,))


class TestGroupFormat:
    def test_round_trips(self):
        for s in ("2", "4", "2,4", "2,2,2", "12", "1"):
            assert format_group(parse_group(s)) == s

    def test_trivial_group(self):
        assert parse_group("1") == FiniteAbelianGroup(())
        assert format_group(FiniteAbelianGroup(())) == "1"

    @pytest.mark.parametrize("bad", ["", "0", "-4", "4,", ",4", "4,,2", "a", "4 2", "1,4"])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_group(bad)

    def test_order_bound(self):
        with pytest.raises(ParseError):
            parse_group(str(2 ** 21))

    def test_internal_trivial_factor_has_no_text_form(self):
        with pytest.raises(ValueError):
            format_group(FiniteAbelianGroup((1, 4)))


class TestElementFormat:
    def test_round_trips(self):
        G = FiniteAbelianGroup((2, 4))
        for e in G.elements():
            assert parse_element(G, format_element(e)) == e

    @pytest.mark.parametrize("bad", ["", "1", "(4)", "(1,2)", "(-1)", "()"])
    def test_rejects_for_z4(self, bad):
        with pytest.raises(ParseError):
            parse_element(Z4, bad)


class TestSubsetFormat:
    def test_cyclic_uses_bare_residues(self):
        S = SubsetS.of(Z4, [(2,), (0,)])
        assert format_subset(S) == "{0,2}"
        assert parse_subset(Z4, "{0,2}") == S
        assert parse_subset(Z4, "{(0),(2)}") == S
        assert parse_subset(Z4, "0\n2\n") == S
        assert parse_subset(Z4, "(0)\n(2)\n") == S

    def test_empty(self):
        S = SubsetS.of(Z4, [])
        assert format_subset(S) == "{}"
        assert parse_subset(Z4, "{}") == S

    def test_multidim(self):
        G = FiniteAbelianGroup((2, 2))
        S = SubsetS.of(G, [(1, 0), (0, 1)])
        assert format_subset(S) == "{(0,1),(1,0)}"
        assert parse_subset(G, format_subset(S)) == S

    def test_bare_residues_need_cyclic(self):
        G = FiniteAbelianGroup((2, 2))
        with pytest.raises(ParseError):
            parse_subset(G, "{0,1}")

    @pytest.mark.parametrize("bad", ["{4}", "{0,,1}", "{0 1}", "", "{(0),(4)}"])
    def test_rejects_for_z4(self, bad):
        with pytest.raises(ParseError):
            parse_subset(Z4, bad)

    @pytest.mark.parametrize("literal, msg", [
        ("{0,7}", "subset entry 7 out of range for group 4"),
        ("{0,x}", "bad subset entry 'x'"),
        ("{(1),(7)}", "element (7) out of range for group 4"),
        ("{(1),(1,0)}", "element (1,0) has 2 coordinates, group has 1"),
        ("{(1)(2)}", "bad tuple '(1)(2)': expected (a,b,...)"),
        ("{0,1", "bad subset literal '{0,1': expected {...}"),
    ])
    def test_literal_errors_name_their_line(self, literal, msg):
        with pytest.raises(ParseError) as err:
            parse_subset(Z4, f"# a comment\n{literal}\n")
        assert str(err.value) == f"line 2: {msg}"

    def test_random_round_trips(self):
        rng = random.Random(5)
        for G in small_groups(8):
            for _ in range(20):
                S = random_subset(rng, G)
                assert parse_subset(G, format_subset(S)) == S


class TestInstanceFormat:
    def test_worked_example(self):
        G = FiniteAbelianGroup((2, 4))
        inst = ProblemInstance(
            G, 2, ((0, 1), (1, 0)), (((1, 1), (0, 2)), ((0, 0), (1, 3)))
        )
        text = format_instance(inst)
        assert text == (
            "group: 2,4\n"
            "t: 2\n"
            "xstar: (0,1) (1,0)\n"
            "gen: (1,1) (0,2)\n"
            "gen: (0,0) (1,3)\n"
        )
        assert parse_instance(text) == inst

    def test_comments_and_headers_ignored(self):
        inst = ProblemInstance(Z4, 1, ((1,),), (((2,),),))
        text = format_instance(inst, header=["seed: 9", "kind: instance"])
        assert text.startswith("# seed: 9\n# kind: instance\n")
        assert parse_instance(text) == inst
        assert parse_instance("group: 4 # inline\nt: 1\nxstar: (1)\ngen: (2)\n") == inst

    def test_t_zero(self):
        inst = ProblemInstance(Z4, 0, (), ((), ()))
        text = format_instance(inst)
        assert parse_instance(text) == inst

    def test_no_generators(self):
        inst = ProblemInstance(Z4, 1, ((3,),), ())
        assert parse_instance(format_instance(inst)) == inst

    @pytest.mark.parametrize("bad", [
        "",
        "t: 1\nxstar: (0)\n",
        "group: 4\nt: 2\nxstar: (0)\n",
        "group: 4\nt: 1\nxstar: (0)\nfoo: (1)\n",
        "group: 4\nt: 1\nxstar: (0)\ngen: (1) (2)\n",
        "group: 4\nt: x\nxstar: (0)\n",
    ])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_instance(bad)

    @pytest.mark.parametrize("text, msg, scans", [
        # a row of the wrong length: checked as the row is split, and named with its line
        ("group: 5\nt: 2\nxstar: (0) (1)\ngen: (1) (2)\ngen: (3)\n",
         "line 5: generator has length 1, expected t=2", 0),
        ("group: 5\nt: 2\nxstar: (0) (1)\ngen: \n",
         "line 4: generator has length 0, expected t=2", 0),
        ("group: 5\nt: 2\nxstar: (0) (1)\ngen: (1) (2) (0)\n",
         "line 4: generator has length 3, expected t=2", 0),
        ("group: 5\nt: 3\nxstar: (0) (1)\ngen: (1) (2)\n",
         "line 3: xstar has length 2, expected t=3", 0),
        # a bad token: parse_element names its line before any instance is built
        ("group: 5\nt: 2\nxstar: (0) (1)\ngen: (1) (7)\n",
         "line 4: element (7) out of range for group 5", 0),
        ("group: 2,3\nt: 1\nxstar: (1,2)\ngen: (1,3)\n",
         "line 4: element (1,3) out of range for group 2,3", 0),
    ])
    def test_errors_after_the_tokens_parse(self, text, msg, scans, monkeypatch):
        calls = []
        post_init = ProblemInstance.__post_init__

        def counting_post_init(self):
            calls.append(self)
            post_init(self)

        monkeypatch.setattr(ProblemInstance, "__post_init__", counting_post_init)
        with pytest.raises(ParseError) as got:
            parse_instance(text)
        assert str(got.value) == msg
        assert len(calls) == scans  # no error falls back to the public constructor
        with pytest.raises(ParseError) as want:
            reference_parse_instance(text)
        assert re.sub(r"^line \d+: ", "", msg) == str(want.value)  # the reference names no line

    def test_random_round_trips(self):
        rng = random.Random(6)
        for G in small_groups(8):
            for _ in range(20):
                inst = random_instance(rng, G)
                assert parse_instance(format_instance(inst)) == inst

    @pytest.mark.parametrize("token, msg", [
        ("(4)", "element (4) out of range for group 4"),
        ("(1,0)", "element (1,0) has 2 coordinates, group has 1"),
        ("(a)", "bad tuple '(a)': expected (a,b,...)"),
    ])
    def test_bad_element_token_names_its_line(self, token, msg):
        Z4 = FiniteAbelianGroup((4,))
        head = "variant: P\ngroup: 4\nsubset: {0,1}\n"
        for parse, text in [
            (parse_instance, f"group: 4\nt: 2\nxstar: (0) (0)\ngen: (1) {token}\ngen: {token} (1)\n"),
            (parse_instance, f"group: 4\nt: 2\n\nxstar: (0) {token}\n"),
            (lambda text: parse_subset(Z4, text), f"(1)\n\n# a comment\n{token}\n(2)\n"),
            (parse_pipeline, head + f"step: translate group=4 g={token}\n"),
            (parse_pipeline, head + f"step: double group=4 rows=(1) g={token}\n"),
            (parse_pipeline, head + f"step: divide-out group=4 kernel=(2),{token}\n"),
            (parse_pipeline, head + f"step: pi-from-p group=4 order={token},(1)\n"),
        ]:
            with pytest.raises(ParseError) as err:
                parse(text)
            assert str(err.value) == f"line 4: {msg}"


def corrupt(rng, text):
    """The text with one element token replaced by a bad one, one token
    dropped, or one token in a noncanonical spelling."""
    lines = text.splitlines()
    rows = [i for i, line in enumerate(lines) if line.partition(":")[2].strip()]
    if not rows:
        return text
    i = rng.choice(rows)
    key, _, rest = lines[i].partition(":")
    toks = rest.split()
    j = rng.randrange(len(toks))
    kind = rng.randrange(4)
    if kind == 0:
        toks[j] = rng.choice(["(9)", "(0,9)", "(-1)", "(1,2,3,4)", "()", "(x)", "1"])
    elif kind == 1:
        del toks[j]
    elif kind == 2:
        toks[j] = toks[j].replace("(", "(0").replace(",", ",-0")
    return "\n".join(lines[:i] + [key + ": " + " ".join(toks)] + lines[i + 1:]) + "\n"


class TestInstanceFormatMatchesReference:
    """The per-distinct-token serializers against the cell-by-cell ones."""

    def test_random_instances(self):
        rng = random.Random(12)
        rejected = 0
        for G in small_groups(8):
            for _ in range(30):
                inst = random_instance(rng, G, max_t=5, max_gens=4)
                text = format_instance(inst, header=["seed: 12"])
                assert text == reference_format_instance(inst, header=["seed: 12"])
                assert parse_instance(text) == reference_parse_instance(text) == inst
                bad = corrupt(rng, text)
                try:
                    want = reference_parse_instance(bad)
                except ParseError as e:
                    with pytest.raises(ParseError) as got:
                        parse_instance(bad)
                    # the same error; element errors now name their line
                    assert str(got.value) == str(e) or (
                        str(got.value).startswith("line ") and str(got.value).endswith(f": {e}"))
                    rejected += 1
                    continue
                got = parse_instance(bad)
                assert repr((got.xstar, got.hgens)) == repr((want.xstar, want.hgens))
        assert 100 < rejected < 400

    def test_parses_each_distinct_token_once(self, monkeypatch):
        calls = []
        parse = formats.parse_element

        def counting_parse(G, s, lineno=None):
            calls.append(s)
            return parse(G, s, lineno)

        monkeypatch.setattr(formats, "parse_element", counting_parse)
        inst, _ = gadget_s01(complete_graph(5), FiniteAbelianGroup((4,)))
        text = format_instance(inst)
        assert parse_instance(text) == inst
        tokens = [tok for line in text.splitlines()[2:] for tok in line.partition(":")[2].split()]
        assert len(tokens) == inst.t * (1 + len(inst.hgens))
        assert 0 < len(calls) <= len(set(tokens)) == 3


class TestGraphFormat:
    def test_round_trips(self):
        g = complete_graph(4)
        text = format_graph(g)
        assert text == (
            "p edge 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n"
        )
        assert parse_graph(text) == g

    def test_comments_and_edge_order(self):
        text = "c a triangle\np edge 3 3\ne 2 3\ne 1 2\ne 3 1\n"
        assert parse_graph(text) == complete_graph(3)

    def test_edgeless(self):
        g = Graph.of(3, [])
        assert parse_graph(format_graph(g)) == g

    @pytest.mark.parametrize("bad", [
        "",
        "e 1 2\n",
        "p edge 2 1\n",
        "p edge 2 1\ne 1 3\n",
        "p edge 2 1\ne 1 1\n",
        "p edge 3 2\ne 1 2\ne 2 1\n",
        "p edge 2 1\np edge 2 1\ne 1 2\n",
        "q edge 2 1\ne 1 2\n",
    ])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_graph(bad)

    @given(st.integers(1, 7), st.integers(0, 2 ** 21 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_round_trips(self, n, mask):
        pairs = [(u, v) for u in range(1, 8) for v in range(u + 1, 8) if u < v <= n]
        edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
        g = Graph.of(n, edges)
        assert parse_graph(format_graph(g)) == g


class TestIntLineFormat:
    def test_round_trips(self):
        for vals in ((1, 0, 2), (), (5,), (-1, 3)):
            assert parse_int_line(format_int_line(vals)) == vals

    def test_whitespace_tolerant(self):
        assert parse_int_line("1, 0 , 2\n") == (1, 0, 2)

    def test_rejects_multiline(self):
        with pytest.raises(ParseError):
            parse_int_line("1,2\n3\n")


def _all_step_kinds():
    Z3 = FiniteAbelianGroup((3,))
    Z8 = FiniteAbelianGroup((8,))
    C24 = FiniteAbelianGroup((2, 4))
    return [
        Translate(Z4, (3,)),
        Translate(C24, (1, 2)),
        MapThrough(Homomorphism(Z3, FiniteAbelianGroup((6,)), ((2,),))),
        MapThrough(Homomorphism(C24, C24, ((1, 0), (0, 3)))),
        DivideOutLift(SubgroupGens(Z8, ((4,),))),
        DivideOutLift(SubgroupGens(C24, ((1, 0), (0, 2)))),
        TransformDouble(scaling_hom(Z4, -1), (3,)),
        TransformDouble(scaling_hom(Z4, 1), (2,)),
        PiFromP(Z4, ((1,), (3,))),
        GadgetS01(Z4),
        GadgetColoringFull(FiniteAbelianGroup((2, 2))),
        KColFrom3Col(4),
    ]


class TestPipelineFormat:
    def test_every_step_kind_round_trips(self):
        pipe = ReductionPipeline(
            Z4, SubsetS.of(Z4, [(0,), (1,)]), "P",
            tuple(_all_step_kinds()),
            (TraceRecord("witness", (("s", "(0)"), ("a", "(1)"))),
             TraceRecord("a-set", (("size", "2"),))),
        )
        text = format_pipeline(pipe)
        back = parse_pipeline(text)
        assert back == pipe
        assert format_pipeline(back) == text

    def test_compiled_pipelines_round_trip(self):
        targets = [
            ("P", Z4, [(0,), (1,)]),
            ("P", Z4, [(0,), (1,), (2,)]),
            ("P", FiniteAbelianGroup((2, 2)), [(0, 1), (1, 0), (1, 1)]),
            ("Pi", FiniteAbelianGroup((5,)), [(1,), (2,), (4,)]),
            ("Pi", FiniteAbelianGroup((6,)), [(1,), (2,), (4,)]),
        ]
        for variant, G, elems in targets:
            pipe = compile_hardness(G, SubsetS.of(G, elems), variant, selfcheck=False)
            text = format_pipeline(pipe)
            back = parse_pipeline(text)
            assert back == pipe
            assert format_pipeline(back) == text

    def test_header_comments_dropped(self):
        pipe = compile_hardness(Z4, SubsetS.of(Z4, [(0,), (1,)]), "P", selfcheck=False)
        text = format_pipeline(pipe, header=["compiled for a test"])
        assert parse_pipeline(text) == pipe

    @pytest.mark.parametrize("bad", [
        "",
        "variant: P\ngroup: 4\n",
        "variant: Q\ngroup: 4\nsubset: {0}\n",
        "variant: P\ngroup: 4\nsubset: {0}\nstep: warp k=1\n",
        "variant: P\ngroup: 4\nsubset: {0}\nstep: translate group=4\n",
        "variant: P\ngroup: 4\nsubset: {0}\nstep: translate group=4 g=(1) x=2\n",
        "variant: P\ngroup: 4\nsubset: {0}\nstep: map-through source=4 target=4 rows=(1),(2)\n",
        "variant: P\ngroup: 4\nsubset: {0}\ntrace: x a=1\nstep: translate group=4 g=(1)\n",
        "variant: P\ngroup: 4\nsubset: {0}\nstep: map-through source=2 target=4 rows=(1)\n",
        "variant: P\ngroup: 4\nsubset: {0}\nstep: p-from-pi\n",
        "variant: P\ngroup: 4\nsubset: {0}\nstep: kcol-from-3col k=1\n",
        "variant: P\ngroup: 4\nsubset: {0}\nstep: gadget-s01 group=2\n",
        "variant: P\ngroup: 4\nsubset: {0}\nstep: pi-from-p group=4 order=(1),(1)\n",
        "variant: P\ngroup: 4\nsubset: {0}\nstep: pi-from-p group=4 order=(0),(1)\n",
        "variant: P\ngroup: 4\nsubset: {0}\nstep: map-through source=4 target=4 rows=(2)\n",
        "variant: P\ngroup: 4\nsubset: {0}\nstep: gadget-coloring-full group=2\n",
    ])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_pipeline(bad)

    @pytest.mark.parametrize("line, msg", [
        ("step: map-through source=2 target=4 rows=(1)",
         "matrix does not define a homomorphism"),
        ("step: double group=2,4 rows=(1,0),(1,1) g=(0,0)",
         "matrix does not define a homomorphism"),
        ("step: map-through source=4 target=4 rows=(1),(2)",
         "matrix shape does not match source/target dims"),
        ("step: map-through source=4 target=4 rows=(x)", "bad tuple '(x)': expected (a,b,...)"),
        ("step: divide-out group=4 kernel=(1),(q)", "bad tuple '(q)': expected (a,b,...)"),
        ("step: pi-from-p group=4 order=(1", "bad tuple '(1': expected (a,b,...)"),
        ("step: translate group=0 g=(1)",
         "bad group '0': moduli must be >= 2 (the trivial group is written 1)"),
        ("step: p-from-pi", "unknown step 'p-from-pi'"),
        ("step: kcol-from-3col k=1", "padding needs k >= 3"),
        ("step: gadget-s01 group=2", "the {0,1} gadget needs a cyclic group of order at least 4"),
        ("step: pi-from-p group=4 order=(1),(1)",
         "enumeration order must list each subset element once"),
        ("step: pi-from-p group=4 order=(0),(1)",
         "homogenization needs the subset fixed by its dilation core"),
        ("step: map-through source=4 target=4 rows=(2)",
         "instance mapping needs an injective homomorphism"),
        ("step: gadget-coloring-full group=2",
         "the full-coloring gadget needs group order at least 3"),
    ])
    def test_step_errors_name_their_line(self, line, msg):
        with pytest.raises(ParseError) as err:
            parse_pipeline(f"variant: P\ngroup: 4\n\nsubset: {{0,1}}\n{line}\n")
        assert str(err.value) == f"line 5: {msg}"

    @pytest.mark.parametrize("text, msg", [
        ("variant: P\ngroup: 4\nsubset: {0,7}\n", "line 3: subset entry 7 out of range for group 4"),
        ("variant: P\ngroup: 4\nsubset: {(1),(7)}\n", "line 3: element (7) out of range for group 4"),
        ("variant: P\ngroup: 2,x\nsubset: {}\n",
         "line 2: bad group '2,x': expected comma-separated moduli like 4 or 2,4"),
        ("variant: P\nsubset: {0}\nsubset: {0}\n",
         "line 3: pipeline file must start with variant:, group:, subset:"),
    ])
    def test_header_errors_name_their_line(self, text, msg):
        with pytest.raises(ParseError) as err:
            parse_pipeline(text)
        assert str(err.value) == msg

    def test_matrix_entries_keep_sign(self):
        text = (
            "variant: P\ngroup: 4\nsubset: {0,1}\n"
            "step: double group=4 rows=(-1) g=(3)\n"
        )
        step = parse_pipeline(text).steps[0]
        assert step.hom.matrix == ((-1,),)
        assert format_pipeline(parse_pipeline(text)).endswith(
            "step: double group=4 rows=(-1) g=(3)\n"
        )


STEP_TRANSFORMS = ("gadget_s01", "gadget_coloring_full", "translate_instance", "map_instance",
                   "divideout_lift", "transform_double", "pi_from_p", "kcol_from_3col")


class TestStepChecksRunNoTransform:
    """Building a step and parsing its line check its parameters without
    running its transform, so traced transform counters count replay work."""

    @pytest.fixture
    def transforms_raise(self, monkeypatch):
        def ran(*args, **kwargs):
            raise AssertionError("a step check ran its transform")

        for module in (transforms, hardness, formats):
            for name in STEP_TRANSFORMS:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, ran)

    def test_every_step_kind_builds_and_parses(self, transforms_raise):
        pipe = ReductionPipeline(Z4, SubsetS.of(Z4, [(0,), (1,)]), "P",
                                 tuple(_all_step_kinds()), ())
        text = format_pipeline(pipe)
        assert parse_pipeline(text) == pipe

    @pytest.mark.parametrize("line, msg", [
        ("step: gadget-s01 group=2", "the {0,1} gadget needs a cyclic group of order at least 4"),
        ("step: gadget-coloring-full group=2",
         "the full-coloring gadget needs group order at least 3"),
        ("step: pi-from-p group=4 order=(1),(1)",
         "enumeration order must list each subset element once"),
        ("step: pi-from-p group=4 order=(0),(1)",
         "homogenization needs the subset fixed by its dilation core"),
        ("step: map-through source=4 target=4 rows=(2)",
         "instance mapping needs an injective homomorphism"),
    ])
    def test_bad_parameters_still_fail(self, transforms_raise, line, msg):
        with pytest.raises(ParseError) as err:
            parse_pipeline(f"variant: P\ngroup: 4\nsubset: {{0,1}}\n{line}\n")
        assert str(err.value) == f"line 4: {msg}"
