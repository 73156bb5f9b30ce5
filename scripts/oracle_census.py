"""Oracle census: the 4-clique replayed through every NP-complete target.

    PYTHONPATH=src python scripts/oracle_census.py 7 2x4 2x2x2 --budget 200000

Each group is given by its moduli joined with 'x'.  For every subset S of
the group that the classifier calls NP-complete, as an affine (`P`) or a
homogeneous (`Pi`) target, the script compiles the reduction with the
self-check off, replays K4 through it and decides the instance with
`oracle_solve` at --budget nodes.  It prints one table row per group and
variant: targets, K4 `no` answers, budget overruns, and the most nodes a
decided run took.

Exits 1 if any K4 replay is decided `yes` (K4 is not 3-colourable, so the
reduction or the oracle is wrong).  Overruns are only counted: the tier-1
test suite already fails on any overrun of Z_7, Z_2 x Z_4 and Z_2^3 at
2*10^5 nodes, and the larger groups of ROADMAP item 1 still have some.

The targets are those of the test suite's `np_complete_targets`.
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

from cosetint import FiniteAbelianGroup, apply_pipeline, compile_hardness, complete_graph, oracle_solve

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from helpers import np_complete_targets  # noqa: E402


def census(G: FiniteAbelianGroup, budget: int):
    """{variant: Counter of targets, each result kind, and max_nodes, the
    most nodes a decided run took}."""
    rows = {"P": Counter(), "Pi": Counter()}
    for variant, S in np_complete_targets(G):
        pipe = compile_hardness(G, S, variant, selfcheck=False)
        inst, _ = apply_pipeline(pipe, complete_graph(4))
        res = oracle_solve(inst, S, budget=budget)
        row = rows[variant]
        row["targets"] += 1
        row[res.kind] += 1
        if res.kind != "budget_exceeded":
            row["max_nodes"] = max(row["max_nodes"], res.nodes)
        if res.kind == "yes":
            print(f"K4 decided yes: {variant} {G.moduli} {S.sorted_elements()}",
                  file=sys.stderr)
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("groups", nargs="+", help="moduli joined with 'x', e.g. 2x4")
    ap.add_argument("--budget", type=int, default=2 * 10 ** 5)
    args = ap.parse_args(argv)

    yes = 0
    print(f"oracle budget {args.budget} nodes")
    print("| Group | variant | NP-complete targets | K4 `no` | overruns "
          "| max nodes when decided |")
    print("|---|---|---|---|---|---|")
    for spec in args.groups:
        G = FiniteAbelianGroup(tuple(int(m) for m in spec.split("x")))
        name = " x ".join(f"Z_{m}" for m in G.moduli)
        for variant, row in census(G, args.budget).items():
            print(f"| {name} | {variant} | {row['targets']:,} | {row['no']:,} "
                  f"| {row['budget_exceeded']:,} | {row['max_nodes']:,} |")
            yes += row["yes"]
    if yes:
        print(f"oracle_census: {yes} K4 replays decided yes", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
