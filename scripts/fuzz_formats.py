"""Long-running seeded fuzz of the text formats.

Round-trips random groups, subsets, instances, graphs, and compiled
pipelines through the serializers; any mismatch prints the offending value
and exits nonzero.  Every other instance is also rebuilt with each cell a
fresh object of equal value, which must format to the same text.  Each
compiled pipeline is replayed on the round's random graph, and the replayed
instance, whose cells the transforms check only where they are new, must
equal the public constructor's instance on the same rows, cell types
included, and survive a format/parse round trip.
"""

import argparse
import random
import sys

from cosetint import (
    FiniteAbelianGroup,
    Graph,
    NP_COMPLETE,
    ProblemInstance,
    SubsetS,
    apply_pipeline,
    classify_affine,
    compile_hardness_P,
    formats,
)


def random_group(rng) -> FiniteAbelianGroup:
    dim = rng.randint(1, 3)
    return FiniteAbelianGroup(tuple(rng.randint(2, 9) for _ in range(dim)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rounds", type=int, default=2000)
    args = ap.parse_args(argv)
    rng = random.Random(args.seed)

    compiled = 0
    for i in range(args.rounds):
        G = random_group(rng)
        assert formats.parse_group(formats.format_group(G)) == G, G

        elems = tuple(G.elements())
        S = SubsetS.of(G, [e for e in elems if rng.random() < 0.4])
        assert formats.parse_subset(G, formats.format_subset(S)) == S, S

        t = rng.randint(0, 4)
        inst = ProblemInstance(
            G, t,
            tuple(rng.choice(elems) for _ in range(t)),
            tuple(tuple(rng.choice(elems) for _ in range(t))
                  for _ in range(rng.randint(0, 4))),
        )
        text = formats.format_instance(inst)
        assert formats.parse_instance(text) == inst, inst
        if i % 2:
            fresh = ProblemInstance(
                G, t, [tuple(list(e)) for e in inst.xstar],
                [[tuple(list(e)) for e in gen] for gen in inst.hgens],
            )
            assert fresh == inst and formats.format_instance(fresh) == text, inst

        n = rng.randint(1, 9)
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                 if rng.random() < 0.3]
        g = Graph.of(n, edges)
        assert formats.parse_graph(formats.format_graph(g)) == g, g

        # compile the occasional small hard target and round-trip the pipeline
        if G.order <= 8 and classify_affine(G, S).verdict == NP_COMPLETE:
            pipe = compile_hardness_P(G, S, selfcheck=False)
            text = formats.format_pipeline(pipe)
            back = formats.parse_pipeline(text)
            assert back == pipe, text
            assert formats.format_pipeline(back) == text, text
            compiled += 1

            inst, _ = apply_pipeline(pipe, g)
            public = ProblemInstance(inst.group, inst.t, inst.xstar, inst.hgens)
            rows = repr((inst.xstar, inst.hgens))
            assert public == inst and repr((public.xstar, public.hgens)) == rows, text
            reparsed = formats.parse_instance(formats.format_instance(inst))
            assert reparsed == inst and repr((reparsed.xstar, reparsed.hgens)) == rows, text

        if (i + 1) % 500 == 0:
            print(f"{i + 1} rounds, {compiled} pipelines round-tripped")

    print(f"ok: {args.rounds} rounds, {compiled} compiled pipelines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
