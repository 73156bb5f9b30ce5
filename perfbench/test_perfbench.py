"""Tests of the benchmark itself: run with `python3 -m pytest perfbench`."""

import json
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import refs
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


# --- generators are deterministic -----------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic(name):
    make = workloads.WORKLOADS[name]
    assert make().setup(7) == make().setup(7)
    assert make().setup(7) != make().setup(8)


def test_sweep_covers_every_hard_target():
    items = workloads.CompileSweep().setup(0)
    assert len(items) == len({(i.variant, i.mods, i.S) for i in items}) == 272


# --- references agree with exhaustive search at tiny sizes -----------------------


def _exhaustive_yes(item):
    N = refs.exponent(item.mods)
    for lam in product(range(N), repeat=len(item.hgens)):
        if all(p in item.S for p in refs.witness_point(item.mods, item.xstar, item.hgens, lam)):
            return "yes"
    return "no"


@pytest.mark.parametrize("mods", [(4,), (6,), (2, 4), (12,), (2, 6)])
@pytest.mark.parametrize("variant", ["P", "Pi"])
def test_planted_answers_match_exhaustive_search(mods, variant):
    rng = random.Random(f"{mods}{variant}")
    for trial in range(12):
        answer = ("yes", "no")[trial % 2]
        t, ngens = 2 + trial % 2, 2 + trial % 3 // 2
        while True:
            try:
                item = workloads.make_solve_item(rng, mods, variant, answer, t, ngens,
                                                 k_target=2 + trial % 3, junk=1)
                break
            except ValueError:
                continue
        if variant == "Pi":
            assert (0,) * len(mods) not in item.S
            core = refs.dilation_core(mods, item.S)
            assert core and refs.is_coset(mods, core)
        else:
            assert refs.is_coset(mods, item.S)
        assert _exhaustive_yes(item) == answer


def _exhaustive_colourable(n, edges):
    return any(all(c[u - 1] != c[v - 1] for u, v in edges)
               for c in product((1, 2, 3), repeat=n))


def test_three_colouring_matches_exhaustive_search():
    rng = random.Random(3)
    seen = set()
    for _ in range(300):
        n = rng.randrange(1, 8)
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                 if rng.random() < 0.6]
        col = refs.three_colouring(n, edges)
        assert (col is not None) == _exhaustive_colourable(n, edges)
        if col is not None:
            assert all(col[u - 1] != col[v - 1] for u, v in edges)
        seen.add(col is None)
    assert seen == {True, False}


def test_certificate_check_rejects_a_point_outside_s():
    mods, S = (4,), frozenset({(0,), (1,)})
    refs.check_certificate(mods, ((1,),), (((1,),),), (3,), S, "ok")
    with pytest.raises(refs.WrongAnswer):
        refs.check_certificate(mods, ((1,),), (((1,),),), (1,), S, "bad")


def test_a_wrong_answer_stops_the_run(monkeypatch, capsys):
    from cosetint import SolveResult

    def flipped(inst, S):
        return SolveResult("no")

    monkeypatch.setattr(workloads, "solve_affine_coset", flipped)
    monkeypatch.setattr(workloads, "solve_homogeneous_core", flipped)
    assert run.main(["--workload", "tractable-solve", "--seed", "1", "--seconds", "0"]) == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is False


# --- traced counts are exact ------------------------------------------------------


def _traced_counts(wl, items):
    tracer = spans.Tracer()
    tracer.install([workloads])
    try:
        tally = run.Tally()
        run.timed_loop(wl, items, 0.0, tracer, tally)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(tally.passes, run.speed_factors(tally.kernel), 1.0)
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


def test_traced_counts_repeat_exactly():
    solve = workloads.TractableSolve()
    solve_items = solve.setup(5)[:12]
    first = _traced_counts(solve, solve_items)
    assert first == _traced_counts(solve, solve_items)
    assert first["polysolve.calls"] == 12 and first["groups.solve.cells"] > 0
    assert first["model.oracle.calls"] == 0
    assert all(first[f"transforms.{s}.calls"] == 0 for s in spans.TRANSFORM_STEPS)

    replay = workloads.ReplayGnp()
    replay_items = replay.setup(5)[:6]
    first = _traced_counts(replay, replay_items)
    assert first == _traced_counts(replay, replay_items)
    assert first["classify.calls"] == 0 and first["polysolve.calls"] == 0
    assert first["model.oracle.calls"] == 6
    assert first["transforms.pi_from_p.out_cells"] > 0


def test_uninstall_restores_the_package():
    import cosetint.groups as groups
    before = groups.solve_linear_congruence, groups.QuotientMap.lift
    tracer = spans.Tracer()
    tracer.install()
    assert groups.solve_linear_congruence is not before[0]
    tracer.uninstall()
    assert (groups.solve_linear_congruence, groups.QuotientMap.lift) == before


# --- printed metrics match BENCHMARK.json ----------------------------------------


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_tables_match_benchmark_json():
    spec = _spec()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace,table", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, table):
    spec = _spec()
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tractable-solve", "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec[table]}
