import random

import pytest

from cosetint.cli import main
from cosetint.groups import FiniteAbelianGroup
from cosetint.model import ProblemInstance, SubsetS
from cosetint.transforms import Graph
from cosetint.hardness import ReductionPipeline
from cosetint import formats

from helpers import random_instance, random_subset, small_groups
from test_formats import _all_step_kinds


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def k3(tmp_path):
    return write(tmp_path / "k3.col", "p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n")


@pytest.fixture
def coset_instance(tmp_path):
    # H = <(1,1)> in Z4^2, xstar = 0
    return write(
        tmp_path / "inst.txt",
        "group: 4\nt: 2\nxstar: (0) (0)\ngen: (1) (1)\n",
    )


class TestGoldenInvocations:
    """Exit codes on the fixed golden set."""

    def test_01_classify_hard(self, capsys):
        assert main(["classify", "--group", "4", "--subset", "{0,1}"]) == 0
        assert capsys.readouterr().out == "NP-complete (S not a coset; |S|=2, d=1)\n"

    def test_02_classify_easy(self, capsys):
        assert main(["classify", "--group", "4", "--subset", "{0,2}"]) == 0
        assert capsys.readouterr().out == "in-P (S is a coset: base 0, subgroup <2>)\n"

    def test_02_classify_trivial_coset_names_the_zero(self, capsys):
        assert main(["classify", "--group", "2,2", "--subset", "{(1,1)}"]) == 0
        assert capsys.readouterr().out == (
            "in-P (S is a coset: base (1,1), subgroup <(0,0)>)\n"
        )

    def test_03_theta(self, capsys):
        assert main(["theta", "--group", "6", "--subset", "{1,2,4}"]) == 0
        assert capsys.readouterr().out == "{2,4}\n"

    def test_04_solve_yes_prints_certificate(self, capsys, coset_instance):
        assert main(["solve", "--instance", coset_instance, "--subset", "{1,3}"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "yes"
        assert out[1].startswith("cert: ")

    def test_05_solve_no(self, capsys, tmp_path):
        # x* + H = {(c, c+1)} never lands in {0,2}^2
        inst = write(tmp_path / "i.txt",
                     "group: 4\nt: 2\nxstar: (0) (1)\ngen: (1) (1)\n")
        assert main(["solve", "--instance", inst, "--subset", "{0,2}"]) == 1
        assert capsys.readouterr().out == "no\n"

    def test_06_oracle_budget_exceeded(self, capsys, coset_instance):
        rc = main(["oracle", "--instance", coset_instance, "--subset", "{1,3}",
                   "--budget", "1"])
        assert rc == 3
        assert capsys.readouterr().out == "budget exceeded\n"

    def test_07_verify_ok(self, capsys, tmp_path, coset_instance):
        cert = write(tmp_path / "c.txt", "1\n")
        rc = main(["verify", "--instance", coset_instance, "--subset", "{1,3}",
                   "--cert", cert])
        assert rc == 0
        assert capsys.readouterr().out == "certificate ok\n"

    def test_08_verify_corrupted(self, capsys, tmp_path, coset_instance):
        cert = write(tmp_path / "c.txt", "2\n")
        rc = main(["verify", "--instance", coset_instance, "--subset", "{1,3}",
                   "--cert", cert])
        assert rc == 1
        assert capsys.readouterr().out == "certificate rejected\n"

    def test_09_compile_hard_target(self, capsys, tmp_path):
        out = tmp_path / "pipe.txt"
        rc = main(["compile-hardness", "--group", "4", "--subset", "{0,1}",
                   "--out", str(out)])
        assert rc == 0
        assert out.read_text().startswith("variant: P\n")

    def test_10_compile_easy_target_is_an_error(self, capsys, tmp_path):
        rc = main(["compile-hardness", "--group", "4", "--subset", "{0,2}",
                   "--out", str(tmp_path / "pipe.txt")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_11_apply(self, capsys, tmp_path, k3):
        pipe = tmp_path / "pipe.txt"
        main(["compile-hardness", "--group", "4", "--subset", "{0,1}",
              "--out", str(pipe), "--no-selfcheck"])
        out = tmp_path / "inst.txt"
        rc = main(["apply", "--pipeline", str(pipe), "--graph", k3,
                   "--out", str(out)])
        assert rc == 0
        inst = formats.parse_instance(out.read_text())
        assert inst.group == FiniteAbelianGroup((4,))

    def test_12_malformed_subset(self, capsys):
        assert main(["classify", "--group", "4", "--subset", "{0,1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestMoreSurface:
    def test_classify_pi(self, capsys):
        assert main(["classify", "--group", "6", "--subset", "{1,2,4}", "--pi"]) == 0
        assert "dilation core" in capsys.readouterr().out

    def test_solve_pi_needs_homogeneous(self, capsys, tmp_path):
        inst = write(tmp_path / "i.txt", "group: 4\nt: 1\nxstar: (1)\ngen: (1)\n")
        assert main(["solve", "--instance", inst, "--subset", "{1,3}", "--pi"]) == 2
        assert capsys.readouterr().err == "error: the homogeneous variant needs xstar = 0\n"

    def test_solve_pi_homogeneous(self, capsys, tmp_path):
        inst = write(tmp_path / "i.txt", "group: 4\nt: 1\nxstar: (0)\ngen: (1)\n")
        assert main(["solve", "--instance", inst, "--subset", "{1,3}", "--pi"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "yes"

    def test_solve_np_complete_target_runs_the_oracle(self, capsys, tmp_path):
        # {0,1} in Z4 is not a coset, so solve searches, within --budget
        inst = write(tmp_path / "i.txt",
                     "group: 4\nt: 2\nxstar: (1) (0)\ngen: (1) (1)\ngen: (0) (2)\n")
        args = ["solve", "--instance", inst, "--subset", "{0,1}", "--budget"]
        assert main(args + ["100"]) == 0
        assert capsys.readouterr().out == "yes\ncert: 0,0\n"
        assert main(args + ["1"]) == 3
        assert capsys.readouterr().out == "budget exceeded\n"

    def test_subset_from_file(self, capsys, tmp_path):
        sub = write(tmp_path / "s.txt", "# two residues\n0\n1\n")
        assert main(["classify", "--group", "4", "--subset", sub]) == 0
        assert capsys.readouterr().out.startswith("NP-complete")

    def test_missing_file(self, capsys):
        assert main(["classify", "--group", "4", "--subset", "does/not/exist"]) == 2

    def test_budget_must_be_positive(self, capsys, coset_instance):
        rc = main(["oracle", "--instance", coset_instance, "--subset", "{1}",
                   "--budget", "0"])
        assert rc == 2

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_apply_with_coloring_writes_cert(self, capsys, tmp_path, k3):
        pipe = tmp_path / "pipe.txt"
        main(["compile-hardness", "--group", "4", "--subset", "{0,1}",
              "--out", str(pipe), "--no-selfcheck"])
        col = write(tmp_path / "col.txt", "1,2,3\n")
        out = tmp_path / "inst.txt"
        cert = tmp_path / "cert.txt"
        rc = main(["apply", "--pipeline", str(pipe), "--graph", k3,
                   "--out", str(out), "--coloring", col, "--cert-out", str(cert)])
        assert rc == 0
        rc = main(["verify", "--instance", str(out), "--subset", "{0,1}",
                   "--cert", str(cert)])
        assert rc == 0

    def test_apply_names_the_line_of_a_bad_step(self, capsys, tmp_path, k3):
        pipe = write(tmp_path / "pipe.txt",
                     "variant: P\ngroup: 4\nsubset: {0,1}\nstep: kcol-from-3col k=1\n")
        out = str(tmp_path / "inst.txt")
        assert main(["apply", "--pipeline", pipe, "--graph", k3, "--out", out]) == 2
        assert capsys.readouterr().err == "error: line 4: padding needs k >= 3\n"

    def test_gen_is_deterministic(self, capsys, tmp_path):
        a, b, c = (tmp_path / n for n in ("a.txt", "b.txt", "c.txt"))
        for path, seed in ((a, "9"), (b, "9"), (c, "10")):
            rc = main(["gen", "--kind", "instance", "--seed", seed,
                       "--group", "2,4", "--out", str(path)])
            assert rc == 0
        assert a.read_text() == b.read_text()
        assert a.read_text() != c.read_text()
        assert "# seed: 9" in a.read_text().splitlines()
        formats.parse_instance(a.read_text())

    def test_gen_graph_and_subset(self, capsys, tmp_path):
        g = tmp_path / "g.txt"
        assert main(["gen", "--kind", "graph", "--seed", "3", "--n", "6",
                     "--out", str(g)]) == 0
        formats.parse_graph(g.read_text())
        s = tmp_path / "s.txt"
        assert main(["gen", "--kind", "subset", "--seed", "3", "--group", "6",
                     "--out", str(s)]) == 0
        formats.parse_subset(FiniteAbelianGroup((6,)), s.read_text())

    def test_gen_graph_with_no_vertices(self, capsys):
        assert main(["gen", "--kind", "graph", "--seed", "1", "--n", "0"]) == 0
        out = capsys.readouterr().out
        assert out == "c seed: 1\nc kind: graph\np edge 0 0\n"
        assert formats.parse_graph(out).n == 0

    @pytest.mark.parametrize("p", ["1.5", "-1", "nan"])
    def test_gen_graph_rejects_p_outside_unit_interval(self, capsys, p):
        assert main(["gen", "--kind", "graph", "--seed", "1", "--n", "3",
                     "--p", p]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: gen --p must lie in [0, 1]\n"

    def test_gen_instance_output_is_pinned(self, capsys):
        # text written by the earlier generator, which drew with rng.choice
        # over the listed elements of G
        assert main(["gen", "--kind", "instance", "--seed", "5", "--group", "2,3,4",
                     "--t", "3", "--gens", "2"]) == 0
        assert capsys.readouterr().out == (
            "# seed: 5\n# kind: instance\ngroup: 2,3,4\nt: 3\n"
            "xstar: (1,1,3) (0,2,0) (1,2,3)\n"
            "gen: (0,2,3) (1,2,2) (1,2,3)\n"
            "gen: (1,2,0) (1,1,0) (0,0,0)\n"
        )
        assert main(["gen", "--kind", "instance", "--seed", "11", "--group", "6"]) == 0
        assert capsys.readouterr().out == (
            "# seed: 11\n# kind: instance\ngroup: 6\nt: 2\n"
            "xstar: (3) (3)\ngen: (4) (4)\ngen: (1) (1)\ngen: (4) (3)\n"
        )

    @pytest.mark.parametrize("t, gens", [(0, 2), (2, 0), (0, 0)])
    def test_gen_instance_keeps_zero_counts(self, capsys, t, gens):
        assert main(["gen", "--kind", "instance", "--seed", "5", "--group", "2,3",
                     "--t", str(t), "--gens", str(gens)]) == 0
        inst = formats.parse_instance(capsys.readouterr().out)
        assert inst.t == t and len(inst.hgens) == gens

    @pytest.mark.parametrize("flag", ["--t", "--gens"])
    def test_gen_instance_rejects_negative_counts(self, capsys, flag):
        assert main(["gen", "--kind", "instance", "--seed", "5", "--group", "2,3",
                     flag, "-2"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "nonnegative" in err

    @pytest.mark.parametrize("group", [",".join(["2"] * 20), "1048576"])
    def test_gen_instance_does_not_list_the_group(self, capsys, monkeypatch, group):
        def refuse(self):
            raise AssertionError("gen --kind instance listed every element of G")

        monkeypatch.setattr(FiniteAbelianGroup, "elements", refuse)
        assert main(["gen", "--kind", "instance", "--seed", "1", "--group", group,
                     "--t", "2", "--gens", "2"]) == 0
        inst = formats.parse_instance(capsys.readouterr().out)
        assert inst.group.order == 1 << 20 and len(inst.hgens) == 2

    def test_reduce_applies_transformer_steps(self, capsys, tmp_path):
        steps = write(
            tmp_path / "steps.txt",
            "variant: P\ngroup: 4\nsubset: {0,1,2}\n"
            "step: translate group=4 g=(1)\n",
        )
        inst = write(tmp_path / "i.txt", "group: 4\nt: 1\nxstar: (1)\ngen: (2)\n")
        out = tmp_path / "o.txt"
        assert main(["reduce", "--pipeline", steps, "--instance", inst,
                     "--out", str(out)]) == 0
        moved = formats.parse_instance(out.read_text())
        assert moved.xstar == ((2,),)

    def test_reduce_refuses_gadget_steps(self, capsys, tmp_path):
        pipe = tmp_path / "pipe.txt"
        main(["compile-hardness", "--group", "4", "--subset", "{0,1}",
              "--out", str(pipe), "--no-selfcheck"])
        inst = write(tmp_path / "i.txt", "group: 4\nt: 1\nxstar: (0)\ngen: (1)\n")
        rc = main(["reduce", "--pipeline", str(pipe), "--instance", inst,
                   "--out", str(tmp_path / "o.txt")])
        assert rc == 2

    def test_selftest_is_gone(self, capsys):
        assert main(["selftest"]) == 2
        assert "invalid choice: 'selftest'" in capsys.readouterr().err


class TestRoundTripFuzz:
    """1000 fuzzed values across the five formats."""

    def test_thousand_values(self):
        rng = random.Random(20260815)
        groups = [G for G in small_groups(9)]
        checked = 0

        for _ in range(250):  # groups
            G = rng.choice(groups)
            assert formats.parse_group(formats.format_group(G)) == G
            checked += 1

        for _ in range(250):  # subsets
            G = rng.choice(groups)
            S = random_subset(rng, G)
            assert formats.parse_subset(G, formats.format_subset(S)) == S
            checked += 1

        for _ in range(250):  # instances
            G = rng.choice(groups)
            inst = random_instance(rng, G, max_t=4, max_gens=4)
            assert formats.parse_instance(formats.format_instance(inst)) == inst
            checked += 1

        for _ in range(200):  # graphs
            n = rng.randint(1, 8)
            edges = [
                (u, v)
                for u in range(1, n + 1)
                for v in range(u + 1, n + 1)
                if rng.random() < 0.4
            ]
            g = Graph.of(n, edges)
            assert formats.parse_graph(formats.format_graph(g)) == g
            checked += 1

        kinds = _all_step_kinds()
        Z4 = FiniteAbelianGroup((4,))
        for _ in range(50):  # pipelines
            steps = tuple(rng.choice(kinds) for _ in range(rng.randint(0, 6)))
            pipe = ReductionPipeline(
                Z4, SubsetS.of(Z4, [(0,), (1,)]),
                rng.choice(("P", "Pi")), steps, (),
            )
            text = formats.format_pipeline(pipe)
            assert formats.parse_pipeline(text) == pipe
            assert formats.format_pipeline(formats.parse_pipeline(text)) == text
            checked += 1

        assert checked == 1000
