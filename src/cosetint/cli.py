"""Command line surface.

Exit codes: 0 success (and "yes" answers), 1 "no" answers and failed
verification, 2 parse or contract errors (one-line diagnostic on stderr),
3 oracle budget exceeded.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import Optional, Sequence

from .groups import FiniteAbelianGroup
from .model import (
    DEFAULT_BUDGET,
    ProblemInstance,
    SubsetS,
    oracle_solve,
    verify_certificate,
)
from .classify import classify_affine, classify_homogeneous, dilation_core
from .polysolve import decide
from .transforms import Graph
from .hardness import (
    CompileError,
    apply_pipeline,
    apply_steps_to_instance,
    compile_hardness,
)
from . import formats
from .formats import ParseError


class ContractError(Exception):
    """Raised for violations of a subcommand's input contract."""


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ContractError(f"cannot read {path}: {e.strerror}") from e


def _write(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise ContractError(f"cannot write {path}: {e.strerror}") from e


def _load_subset(G: FiniteAbelianGroup, spec: str) -> SubsetS:
    """Inline {...} literal, or a path to a subset file."""
    if spec.lstrip().startswith("{"):
        return formats.parse_subset(G, spec)
    return formats.parse_subset(G, _read(spec))


def _load_instance(path: str) -> ProblemInstance:
    return formats.parse_instance(_read(path))


# --- subcommands ---------------------------------------------------------------


def _cmd_classify(ns: argparse.Namespace) -> int:
    G = formats.parse_group(ns.group)
    S = _load_subset(G, ns.subset)
    cls = classify_homogeneous(G, S) if ns.pi else classify_affine(G, S)
    print(cls.describe())
    return 0


def _cmd_theta(ns: argparse.Namespace) -> int:
    G = formats.parse_group(ns.group)
    S = _load_subset(G, ns.subset)
    print(formats.format_subset(dilation_core(S)))
    return 0


def _print_result(res) -> int:
    if res.kind == "yes":
        print("yes")
        print(("cert: " + ",".join(str(c) for c in res.certificate)).rstrip())
        return 0
    if res.kind == "no":
        print("no")
        return 1
    print("budget exceeded")
    return 3


def _cmd_solve(ns: argparse.Namespace) -> int:
    inst = _load_instance(ns.instance)
    S = _load_subset(inst.group, ns.subset)
    return _print_result(decide(inst, S, "Pi" if ns.pi else "P", budget=ns.budget))


def _cmd_oracle(ns: argparse.Namespace) -> int:
    inst = _load_instance(ns.instance)
    S = _load_subset(inst.group, ns.subset)
    return _print_result(oracle_solve(inst, S, budget=ns.budget))


def _cmd_verify(ns: argparse.Namespace) -> int:
    inst = _load_instance(ns.instance)
    S = _load_subset(inst.group, ns.subset)
    cert = formats.parse_int_line(_read(ns.cert))
    if len(cert) != len(inst.hgens):
        print("certificate rejected")
        return 1
    if verify_certificate(inst, S, cert):
        print("certificate ok")
        return 0
    print("certificate rejected")
    return 1


def _cmd_compile(ns: argparse.Namespace) -> int:
    G = formats.parse_group(ns.group)
    S = _load_subset(G, ns.subset)
    pipe = compile_hardness(G, S, "Pi" if ns.pi else "P", selfcheck=not ns.no_selfcheck)
    _write(ns.out, formats.format_pipeline(pipe))
    checked = "unchecked" if ns.no_selfcheck else "self-checked"
    print(f"wrote {len(pipe.steps)}-step pipeline ({checked})")
    return 0


def _write_replayed(ns: argparse.Namespace, inst: ProblemInstance, cert) -> int:
    """The instance to --out; the threaded certificate, if any, to
    --cert-out or as a cert: line."""
    _write(ns.out, formats.format_instance(inst))
    if cert is not None:
        line = formats.format_int_line(cert)
        if ns.cert_out is not None:
            _write(ns.cert_out, line)
        else:
            print(("cert: " + line.strip()).rstrip())
    print(f"wrote instance (t={inst.t}, {len(inst.hgens)} generators)")
    return 0


def _cmd_apply(ns: argparse.Namespace) -> int:
    pipe = formats.parse_pipeline(_read(ns.pipeline))
    graph = formats.parse_graph(_read(ns.graph))
    coloring = None
    if ns.coloring is not None:
        coloring = formats.parse_int_line(_read(ns.coloring))
    return _write_replayed(ns, *apply_pipeline(pipe, graph, coloring=coloring))


def _cmd_reduce(ns: argparse.Namespace) -> int:
    pipe = formats.parse_pipeline(_read(ns.pipeline))
    inst = _load_instance(ns.instance)
    cert = None
    if ns.cert is not None:
        cert = formats.parse_int_line(_read(ns.cert))
    return _write_replayed(ns, *apply_steps_to_instance(pipe.steps, inst, cert))


def _cmd_gen(ns: argparse.Namespace) -> int:
    if ns.kind != "graph" and ns.group is None:
        raise ContractError("gen needs --group for this kind")
    if ns.kind == "graph" and ns.n is None:
        raise ContractError("gen --kind graph needs --n")
    if not 0 <= ns.p <= 1:  # also false for nan
        raise ContractError("gen --p must lie in [0, 1]")
    if any(n is not None and n < 0 for n in (ns.t, ns.gens)):
        raise ContractError("gen --t and --gens must be nonnegative")
    rng = random.Random(ns.seed)
    header = [f"seed: {ns.seed}", f"kind: {ns.kind}"]
    if ns.kind == "graph":
        n = ns.n
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                 if rng.random() < ns.p]
        text = formats.format_graph(Graph.of(n, edges), header=header)
    elif ns.kind == "subset":
        G = formats.parse_group(ns.group)
        chosen = [e for e in G.elements() if rng.random() < 0.5]
        text = "\n".join(f"# {h}" for h in header) + "\n"
        text += formats.format_subset(SubsetS.of(G, chosen)) + "\n"
    else:
        G = formats.parse_group(ns.group)

        def draw():
            # the same draw as rng.choice(tuple(G.elements())), without listing G
            return G.element_at(rng.randrange(G.order))

        t = rng.randint(1, 3) if ns.t is None else ns.t
        ngens = rng.randint(1, 3) if ns.gens is None else ns.gens
        xstar = tuple(draw() for _ in range(t))
        hgens = tuple(tuple(draw() for _ in range(t)) for _ in range(ngens))
        text = formats.format_instance(
            ProblemInstance(G, t, xstar, hgens), header=header
        )
    if ns.out is not None:
        _write(ns.out, text)
    else:
        sys.stdout.write(text)
    return 0


# --- argument parsing ------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cosetint",
        description="Decide, classify, and compile hardness for "
                    "coset-meets-subset-power problems over finite abelian groups.",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    add = sub.add_parser

    p = add("classify", help="classify a target as in-P or NP-complete")
    p.add_argument("--group", required=True)
    p.add_argument("--subset", required=True)
    p.add_argument("--pi", action="store_true")

    p = add("theta", help="print the dilation core of a subset")
    p.add_argument("--group", required=True)
    p.add_argument("--subset", required=True)

    for name in ("solve", "oracle"):
        p = add(name, help="decide an instance"
                if name == "solve" else "decide with the search oracle only")
        p.add_argument("--instance", required=True)
        p.add_argument("--subset", required=True)
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
        if name == "solve":
            p.add_argument("--pi", action="store_true")

    p = add("verify", help="check a certificate against an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--subset", required=True)
    p.add_argument("--cert", required=True)

    p = add("compile-hardness", help="compile a 3-coloring reduction pipeline")
    p.add_argument("--group", required=True)
    p.add_argument("--subset", required=True)
    p.add_argument("--pi", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--no-selfcheck", action="store_true")

    p = add("apply", help="replay a pipeline on a graph")
    p.add_argument("--pipeline", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--coloring")
    p.add_argument("--cert-out")

    p = add("reduce", help="apply a pipeline's instance transformers to an instance")
    p.add_argument("--pipeline", required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--cert")
    p.add_argument("--cert-out")

    p = add("gen", help="generate seeded random inputs")
    p.add_argument("--kind", required=True, choices=("instance", "subset", "graph"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--group")
    p.add_argument("--t", type=int)
    p.add_argument("--gens", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--out")
    return ap


_DISPATCH = {
    "classify": _cmd_classify,
    "theta": _cmd_theta,
    "solve": _cmd_solve,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
    "compile-hardness": _cmd_compile,
    "apply": _cmd_apply,
    "reduce": _cmd_reduce,
    "gen": _cmd_gen,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = _build_parser()
    try:
        ns = ap.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        if getattr(ns, "budget", DEFAULT_BUDGET) < 1:
            raise ContractError("budget must be at least 1")
        return _DISPATCH[ns.subcommand](ns)
    except (ParseError, ContractError, CompileError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
