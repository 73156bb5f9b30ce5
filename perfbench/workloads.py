"""The three benchmark workloads: input generation, the timed item, and its check.

Each workload builds a fixed pool of items from the seed.  `run` is the
part of an item that is timed and calls only the program; `check` compares
its outcome with the references in `refs` and returns whether the item was
decided.  A wrong answer raises `refs.WrongAnswer`; a budget overrun or a
self-check `CompileError` is a failed item, never a wrong one.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional, Tuple

from cosetint import (
    IN_P,
    CompileError,
    FiniteAbelianGroup,
    ProblemInstance,
    SubsetS,
    apply_pipeline,
    classify_affine,
    classify_homogeneous,
    compile_hardness,
    complete_graph,
    format_instance,
    format_pipeline,
    oracle_solve,
    parse_instance,
    parse_pipeline,
    run_selfcheck,
    solve_affine_coset,
    solve_homogeneous_core,
    verify_trace,
)
from cosetint.transforms import Graph

import refs
from refs import WrongAnswer


def _smallest_prime(n):
    return next(p for p in range(2, n + 1) if n % p == 0)


def _idempotent(N, q):
    """e with e*e = e mod N, e = 1 modulo the q-primary part of N and
    e = 0 modulo the rest; e = 1 when N is a power of q's prime."""
    m1 = 1
    while N % (m1 * q) == 0:
        m1 *= q
    m2 = N // m1
    if m2 == 1:
        return 1
    return m2 * pow(m2, -1, m1) % N


# --- tractable-solve ------------------------------------------------------------

# orders 16..4096; three shapes have a composite exponent, which lets the
# homogeneous items carry elements outside their dilation core
SOLVE_SHAPES = ((16,), (2, 8), (4, 4), (12, 12), (64,), (48,), (6, 60), (256,),
                (2, 6, 24), (1024,), (2, 2048), (4096,))
SOLVE_POOL = 288
SOLVE_T = (8, 12, 16, 20, 24)
SOLVE_K = (2, 4, 8, 16)


@dataclass(frozen=True)
class SolveItem:
    variant: str  # "P" (affine) or "Pi" (homogeneous)
    answer: str  # planted "yes" or "no"
    mods: Tuple[int, ...]
    S: frozenset
    xstar: tuple
    hgens: tuple
    group: FiniteAbelianGroup
    subset: SubsetS
    inst: ProblemInstance


def make_solve_item(rng, mods, variant, answer, t, ngens, k_target, junk):
    """One in-P instance with a planted answer.

    S lies in a coset of ker(psi) for psi(x) = x_j mod q, and H lies in the
    kernel of chi(v) = sum_i c_i psi(v_i).  A planted no makes chi nonzero
    on every candidate point (on (a,..,a) - xstar for the affine variant,
    on all of S^t for the homogeneous one); a planted yes puts a point of
    S^t into xstar + H.
    """
    N = refs.exponent(mods)
    j = len(mods) - 1
    q = _smallest_prime(mods[j])
    unit = tuple(1 if i == j else 0 for i in range(len(mods)))
    e = 1 if variant == "P" else _idempotent(N, q)
    if e == 1:
        junk = 0

    def rand():
        return tuple(rng.randrange(d) for d in mods)

    def rand_ker_psi():
        x = list(rand())
        x[j] = x[j] * q % mods[j]
        return tuple(x)

    # K: cyclic, inside e*ker(psi), of the largest order <= k_target available
    gen_orders = [d // math.gcd(d, e * (q if i == j else 1)) for i, d in enumerate(mods)]
    avail = math.lcm(*gen_orders)
    k = max(m for m in range(1, min(k_target, 16 - junk) + 1) if avail % m == 0)
    while True:
        x = refs.scale(mods, e, rand_ker_psi())
        o = refs.order_of(mods, x)
        if o % k == 0:
            kappa = refs.scale(mods, o // k, x)
            break
    K = sorted(refs.span(mods, [kappa]))

    if variant == "P":
        a = rand()
        S = frozenset(refs.add(mods, a, y) for y in K)
    else:
        r = list(rand())
        r[j] = (1 + q * rng.randrange(mods[j] // q)) % mods[j]
        c0 = refs.scale(mods, e, tuple(r))
        C = [refs.add(mods, c0, y) for y in K]
        S = frozenset(C)
        # the core of a coset is a dilate of it, hence a coset; with extra
        # elements the core has to be checked
        if junk:
            while len(S) < len(C) + junk:
                z = refs.scale(mods, 1 - e, rand())
                if any(z):
                    S |= {refs.add(mods, rng.choice(C), z)}
            core = refs.dilation_core(mods, S)
            if not core or not refs.is_coset(mods, core):
                raise ValueError("generated homogeneous subset is not in P")

    c = [1] + [rng.randrange(q) for _ in range(t - 1)]
    if variant == "Pi":
        want = 0 if answer == "yes" else rng.randrange(1, q)
        c[-1] = (c[-1] + want - sum(c)) % q

    def chi(v):
        return sum(ci * (x[j] % q) for ci, x in zip(c, v)) % q

    def into_ker_chi(v):
        v = list(v)
        v[0] = refs.sub(mods, v[0], refs.scale(mods, chi(v), unit))
        return tuple(v)

    hgens = [into_ker_chi([rand() for _ in range(t)]) for _ in range(ngens)]
    zero = (0,) * len(mods)
    if variant == "Pi":
        xstar = (zero,) * t
        if answer == "yes":
            p = [rng.choice(C) for _ in range(t)]
            for g in hgens[1:]:
                mu = rng.randrange(N)
                p = [refs.add(mods, pi, refs.scale(mods, mu, gi)) for pi, gi in zip(p, g)]
            hgens[0] = tuple(p)
    elif answer == "yes":
        p = [rng.choice(sorted(S)) for _ in range(t)]
        for g in hgens:
            lam = rng.randrange(N)
            p = [refs.sub(mods, pi, refs.scale(mods, lam, gi)) for pi, gi in zip(p, g)]
        xstar = tuple(p)
    else:
        xstar = [rand() for _ in range(t)]
        if chi([refs.sub(mods, a, x) for x in xstar]) == 0:
            xstar[0] = refs.sub(mods, xstar[0], unit)
        xstar = tuple(xstar)

    G = FiniteAbelianGroup(mods)
    hgens = tuple(hgens)
    return SolveItem(variant, answer, mods, S, xstar, hgens, G, SubsetS.of(G, S),
                     ProblemInstance(G, t, xstar, hgens))


class TractableSolve:
    """The CLI solve path on in-P targets: classify, then the polynomial solver."""

    name = "tractable-solve"

    def setup(self, seed):
        rng = random.Random(seed)
        items = []
        for i in range(SOLVE_POOL):
            mods = SOLVE_SHAPES[i % len(SOLVE_SHAPES)]
            block = i // len(SOLVE_SHAPES)
            variant = ("P", "Pi")[block % 2]
            answer = ("yes", "no")[(block // 2) % 2]
            t = SOLVE_T[i % len(SOLVE_T)]
            ngens = SOLVE_T[(i + block) % len(SOLVE_T)]
            k = SOLVE_K[(i + 2 * block) % len(SOLVE_K)]
            junk = 1 + i % 3
            while True:
                try:
                    items.append(make_solve_item(rng, mods, variant, answer, t, ngens, k, junk))
                    break
                except ValueError:
                    continue
        return items

    def run(self, item):
        if item.variant == "P":
            cls = classify_affine(item.group, item.subset)
            if cls.verdict != IN_P:
                return cls, None
            return cls, solve_affine_coset(item.inst, item.subset)
        cls = classify_homogeneous(item.group, item.subset)
        if cls.verdict != IN_P:
            return cls, None
        return cls, solve_homogeneous_core(item.inst, item.subset)

    def check(self, item, outcome):
        if isinstance(outcome, Exception):
            return False
        cls, res = outcome
        if res is None:
            raise WrongAnswer(f"classified {cls.verdict} but the target is in P")
        if res.kind != item.answer:
            raise WrongAnswer(f"answered {res.kind}, planted {item.answer}")
        if res.kind == "yes":
            refs.check_certificate(item.mods, item.xstar, item.hgens, res.certificate,
                                   item.S, "solve certificate")
        return True


# --- replay-gnp -----------------------------------------------------------------

# the five compile showcase targets, plus one that divides out a subgroup
REPLAY_TARGETS = (
    ("P", (4,), ((0,), (1,))),
    ("P", (4,), ((0,), (1,), (2,))),
    ("P", (2, 2), ((0, 1), (1, 0), (1, 1))),
    ("Pi", (5,), ((1,), (2,), (4,))),
    ("Pi", (6,), ((1,), (2,), (4,))),
    ("P", (6,), ((0,), (1,), (2,), (4,), (5,))),
)
REPLAY_N = 10
# G(n, m) rather than G(n, p): a fixed edge count fixes every instance size,
# so seeds differ only in structure; about half of G(10, 18) is 3-colourable
REPLAY_M = 18
REPLAY_POOL = 240
# per target, 8 of every 10 graphs are drawn 3-colourable, so the median item
# is a yes item, whose cost is building and parsing the instance
REPLAY_YES = 8
REPLAY_BUDGET = 50_000


@dataclass(frozen=True)
class ReplayItem:
    target: int
    graph: Graph
    colouring: Optional[Tuple[int, ...]]  # from refs.three_colouring


def _gnm(rng, n, m):
    return sorted(rng.sample([(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)], m))


class ReplayGnp:
    """Compiled reductions replayed on G(n, m) graphs, then decided by the oracle."""

    name = "replay-gnp"

    def setup(self, seed):
        self.pipes = []
        for variant, mods, elems in REPLAY_TARGETS:
            G = FiniteAbelianGroup(mods)
            S = SubsetS.of(G, elems)
            if not refs.np_complete(mods, frozenset(elems), variant):
                raise WrongAnswer(f"replay target {variant} {mods} is not NP-complete")
            compiled = compile_hardness(G, S, variant, selfcheck=False)
            text = format_pipeline(compiled)
            pipe = parse_pipeline(text)
            if pipe != compiled or format_pipeline(pipe) != text:
                raise WrongAnswer("pipeline text does not survive a round trip")
            self.pipes.append(pipe)
        rng = random.Random(seed)
        items = []
        for i in range(REPLAY_POOL):
            want = (i // len(REPLAY_TARGETS)) % 10 < REPLAY_YES
            while True:
                edges = _gnm(rng, REPLAY_N, REPLAY_M)
                col = refs.three_colouring(REPLAY_N, edges)
                if (col is not None) == want:
                    break
            items.append(ReplayItem(i % len(REPLAY_TARGETS), Graph.of(REPLAY_N, edges), col))
        return items

    def run(self, item):
        pipe = self.pipes[item.target]
        inst, cert = apply_pipeline(pipe, item.graph, coloring=item.colouring)
        text = format_instance(inst)
        back = parse_instance(text)
        return inst, cert, back, oracle_solve(back, pipe.subset, budget=REPLAY_BUDGET)

    def check(self, item, outcome):
        if isinstance(outcome, Exception):
            return False
        inst, cert, back, res = outcome
        _, mods, elems = REPLAY_TARGETS[item.target]
        S = frozenset(elems)
        if inst.group.moduli != mods:
            raise WrongAnswer(f"replay ended over {inst.group.moduli}, not {mods}")
        if back != inst:
            raise WrongAnswer("instance changed in the format/parse hand-off")
        if item.colouring is not None:
            if cert is None:
                raise WrongAnswer("no threaded certificate for a 3-colourable graph")
            refs.check_certificate(mods, inst.xstar, inst.hgens, cert, S, "threaded certificate")
        if res.kind == "budget_exceeded":
            return False
        if (res.kind == "yes") != (item.colouring is not None):
            raise WrongAnswer(f"oracle answered {res.kind} on a graph that is "
                              f"{'' if item.colouring else 'not '}3-colourable")
        if res.kind == "yes":
            refs.check_certificate(mods, back.xstar, back.hgens, res.certificate, S,
                                   "oracle certificate")
        return True


# --- compile-sweep --------------------------------------------------------------

# every presentation Z/d1 x ... with factors >= 2 of a group of order <= 6
SWEEP_GROUPS = ((2,), (3,), (4,), (5,), (6,), (2, 2), (2, 3), (3, 2))
SWEEP_BUDGET = 200_000
K3_COLOURING = (1, 2, 3)


@dataclass(frozen=True)
class SweepItem:
    variant: str
    mods: Tuple[int, ...]
    S: frozenset
    group: FiniteAbelianGroup
    subset: SubsetS


class CompileSweep:
    """The compile-hardness path on every NP-complete target of order <= 6."""

    name = "compile-sweep"

    def setup(self, seed):
        items = []
        for mods in SWEEP_GROUPS:
            G = FiniteAbelianGroup(mods)
            elems = list(refs.elements(mods))
            for mask in range(1 << len(elems)):
                S = frozenset(x for b, x in enumerate(elems) if mask >> b & 1)
                for variant in ("P", "Pi"):
                    if refs.np_complete(mods, S, variant):
                        items.append(SweepItem(variant, mods, S, G, SubsetS.of(G, S)))
        random.Random(seed).shuffle(items)
        return items

    def run(self, item):
        pipe = compile_hardness(item.group, item.subset, item.variant, selfcheck=False)
        try:
            run_selfcheck(pipe, budget=SWEEP_BUDGET)
            selfcheck_ok = True
        except CompileError:
            selfcheck_ok = False
        verified = verify_trace(pipe)
        text = format_pipeline(pipe)
        return pipe, selfcheck_ok, verified, text, parse_pipeline(text)

    def check(self, item, outcome):
        if isinstance(outcome, Exception):
            if not isinstance(outcome, CompileError):
                return False
            classify = classify_affine if item.variant == "P" else classify_homogeneous
            if classify(item.group, item.subset).verdict == IN_P:
                raise WrongAnswer(f"{item.variant} {item.mods} {sorted(item.S)} "
                                  "classified in P but the target is NP-complete")
            return False
        pipe, selfcheck_ok, verified, text, back = outcome
        if not verified:
            raise WrongAnswer("verify_trace did not confirm the pipeline")
        if back != pipe or format_pipeline(back) != text:
            raise WrongAnswer("pipeline does not survive a format/parse round trip")
        inst, cert = apply_pipeline(pipe, complete_graph(3), coloring=K3_COLOURING)
        if cert is None or inst.group.moduli != item.mods:
            raise WrongAnswer("no threaded triangle certificate over the target group")
        refs.check_certificate(item.mods, inst.xstar, inst.hgens, cert, item.S,
                               "threaded triangle certificate")
        return selfcheck_ok


WORKLOADS = {w.name: w for w in (TractableSolve, ReplayGnp, CompileSweep)}
