"""Compiler from NP-complete (group, subset) targets to replayable
reduction pipelines.

A pipeline maps any graph to a problem instance whose yes/no answer
equals the graph's 3-colorability.  Compilation follows a worklist over
shifted copies of the subset: each shift either hands off to a smaller
target (via a doubling transformation or a quotient) or certifies local
structure; if every shift certifies structure, the subset is the "even
pattern" whose quotient is the four-element non-cyclic group, handled
by the full-coloring gadget.  Every structural fact the compiler relies
on is checked at compile time and logged in the trace; a failed check
is an internal error, never a wrong pipeline.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .groups import (
    FiniteAbelianGroup,
    GroupElement,
    Homomorphism,
    SubgroupGens,
    hom_preimage,
    kernel_of_hom,
    quotient_group,
    scaling_hom,
    span_basis,
    subgroup_abstract,
    subgroup_enumerate,
)
from .classify import (
    NP_COMPLETE,
    classify_affine,
    classify_homogeneous,
    find_noncoset_witness,
    is_coset,
)
from .model import Certificate, ProblemInstance, SubsetS, oracle_solve, verify_certificate
from .transforms import (
    Graph,
    cert_coloring_full,
    cert_s01,
    check_gadget_coloring_full,
    check_gadget_s01,
    check_padding,
    check_pi_from_p,
    complete_graph,
    divideout_lift,
    gadget_coloring_full,
    gadget_s01,
    kcol_from_3col,
    map_instance,
    pad_coloring,
    phi_fixed_subset,
    pi_from_p,
    transform_double,
    translate_instance,
)


class CompileError(Exception):
    pass


# --- pipeline steps ---------------------------------------------------------
# PiFromP, the gadgets and KColFrom3Col run their transform's parameter check
# when built, so bad parameters fail where a step is made or parsed.


@dataclass(frozen=True)
class Translate:
    group: FiniteAbelianGroup
    g: GroupElement


@dataclass(frozen=True)
class MapThrough:
    hom: Homomorphism


@dataclass(frozen=True)
class DivideOutLift:
    kernel: SubgroupGens  # subgroup of the post-step ambient group


@dataclass(frozen=True)
class TransformDouble:
    hom: Homomorphism
    g: GroupElement


@dataclass(frozen=True)
class PiFromP:
    group: FiniteAbelianGroup
    order: Tuple[GroupElement, ...]  # enumeration of the folded subset

    def __post_init__(self):
        check_pi_from_p(SubsetS.of(self.group, self.order), self.order)


@dataclass(frozen=True)
class GadgetS01:
    group: FiniteAbelianGroup

    def __post_init__(self):
        check_gadget_s01(self.group)


@dataclass(frozen=True)
class GadgetColoringFull:
    group: FiniteAbelianGroup

    def __post_init__(self):
        check_gadget_coloring_full(self.group)


@dataclass(frozen=True)
class KColFrom3Col:
    k: int

    def __post_init__(self):
        check_padding(self.k)


Step = object  # tagged union of the dataclasses above


@dataclass(frozen=True)
class TraceRecord:
    kind: str
    info: Tuple[Tuple[str, str], ...]


@dataclass(frozen=True)
class ReductionPipeline:
    group: FiniteAbelianGroup
    subset: SubsetS
    variant: str  # "P" | "Pi"
    steps: Tuple[Step, ...]
    trace: Tuple[TraceRecord, ...]


def _fmt(v) -> str:
    if isinstance(v, tuple):
        return "(" + ",".join(str(c) for c in v) + ")"
    if isinstance(v, frozenset):
        return "{" + ",".join(_fmt(e) for e in sorted(v)) + "}"
    return str(v)


def _rec(kind: str, **kv) -> TraceRecord:
    return TraceRecord(kind, tuple((k, _fmt(v)) for k, v in kv.items()))


# --- structural checks (hard failures; compiler bug if violated) ------------


def _check_coset_inside(G, T: SubsetS, base, step_el, trace, what):
    # walk base + <step> until it closes: at most |T| + 1 membership tests
    x = base
    while True:
        if x not in T:
            raise CompileError(f"internal: {what}: {base} + <{step_el}> escapes the set")
        x = G.add(x, step_el)
        if x == base:
            break
    trace.append(_rec("subset", base=base, step=step_el, note=what))


def _check_periodic(G, T: SubsetS, d, trace):
    if frozenset(G.add(x, d) for x in T.elements) != T.elements:
        raise CompileError("internal: set is not periodic under the claimed shift")
    trace.append(_rec("periodic", shift=d))


def _check_non_coset(Q, Sigma: SubsetS, trace, what):
    if is_coset(Sigma) is not None:
        raise CompileError(f"internal: {what} collapsed to a coset")
    trace.append(_rec("non-coset", size=len(Sigma), note=what))


# --- the per-shift case analysis --------------------------------------------


def _two_gen_step(G, T: SubsetS, a, b, trace):
    """One round of the case analysis at a shift where 0, a, b are in the
    set but a+b is not.  Returns ("double", hom, shift, remaining subset),
    ("divide", kernel gens), or ("advance",)."""
    neg = scaling_hom(G, -1)
    ident = scaling_hom(G, 1)

    def generic(c, shift):
        S_phi = phi_fixed_subset(T, c, shift)
        if 2 <= len(S_phi) < len(T) and is_coset(S_phi) is None:
            return S_phi
        return None

    amb = G.sub(a, b)
    bma = G.sub(b, a)
    if amb in T or bma in T:
        x, y = (a, b) if amb in T else (b, a)
        # flip around x+y: keeps x, y, drops 0
        hit = generic(neg, G.add(x, y))
        if hit is not None:
            return "double", neg, G.add(x, y), hit
        _check_coset_inside(G, T, x, G.sub(y, x), trace, "flip-fixed-coset")
        # shift by x-y: keeps 0, x, y, never a coset
        d = G.sub(x, y)
        hit = generic(ident, d)
        if hit is not None:
            return "double", ident, d, hit
        _check_periodic(G, T, d, trace)
        return "divide", SubgroupGens(G, (d,))
    # both differences lie outside the set
    hit = generic(neg, b)
    if hit is not None:
        return "double", neg, b, hit
    _check_coset_inside(G, T, G.zero(), b, trace, "flip-b-fixed-subgroup")
    hit = generic(neg, a)
    if hit is not None:
        return "double", neg, a, hit
    _check_coset_inside(G, T, G.zero(), a, trace, "flip-a-fixed-subgroup")
    mab = G.neg(G.add(a, b))
    hit = generic(ident, mab)
    if hit is not None:
        return "double", ident, mab, hit
    if mab in T:
        raise CompileError("internal: shift by -(a+b) was forced to recurse but did not")
    hit = generic(neg, mab)
    if hit is not None:
        return "double", neg, mab, hit
    _check_coset_inside(G, T, G.neg(a), G.sub(a, b), trace, "flip-sum-fixed-coset")
    _check_coset_inside(G, T, G.neg(b), G.sub(b, a), trace, "flip-sum-fixed-coset")
    return ("advance",)


def _two_gen_worklist(G, S: SubsetS, a, b, trace):
    """Walk the shift set A = {g : g, g+a, g+b in S, g+a+b not in S} from 0,
    closing under g -> g-2a and g -> g-2b, until a case recurses or the
    closure is exhausted (the even-pattern base)."""

    def in_shift_set(g):
        return (
            g in S
            and G.add(g, a) in S
            and G.add(g, b) in S
            and G.add(G.add(g, a), b) not in S
        )

    zero = G.zero()
    if not in_shift_set(zero):
        raise CompileError("internal: worklist entered without its witness triple")
    visited = {zero}
    queue = deque([zero])
    while queue:
        g = queue.popleft()
        T = S.translate(G.neg(g))
        out = _two_gen_step(G, T, a, b, trace)
        if out[0] == "double":
            _, c, shift, S_phi = out
            trace.append(_rec("double", scale=c.matrix[0][0] if c.matrix else 1,
                              shift=shift, at=g, keeps=len(S_phi)))
            steps: List[Step] = [TransformDouble(c, shift)]
            if g != zero:
                steps.append(Translate(G, g))
            return "double", S_phi, steps
        if out[0] == "divide":
            _, K = out
            qm = quotient_group(G, K)
            Sigma = SubsetS(qm.group, frozenset(qm.proj.apply(x) for x in S.elements))
            # S lies inside proj^-1(Sigma) = S + K, which has |Sigma| * |K| elements
            if len(Sigma) * (G.order // qm.group.order) != len(S):
                raise CompileError("internal: quotient image does not pull back to the set")
            _check_non_coset(qm.group, Sigma, trace, "quotient-image")
            trace.append(_rec("divide", kernel=K.gens[0], quotient=qm.group.moduli))
            return "divide", qm.group, Sigma, [DivideOutLift(K)]
        for h in (G.sub(g, G.scale(2, a)), G.sub(g, G.scale(2, b))):
            if h not in visited:
                if not in_shift_set(h):
                    raise CompileError("internal: advance target fails the shift predicate")
                visited.add(h)
                queue.append(h)
    # exhausted: the even pattern.  in_shift_set needs g in S, so a scan of
    # S finds the whole shift set
    direct = frozenset(g for g in S.elements if in_shift_set(g))
    K = SubgroupGens(G, (G.scale(2, a), G.scale(2, b)))
    doubled = frozenset(subgroup_enumerate(K))
    if frozenset(visited) != doubled or direct != doubled:
        raise CompileError("internal: shift-set closure is not the doubled subgroup")
    trace.append(_rec("a-set", size=len(doubled)))
    pattern = frozenset(
        G.add(base, h) for base in (zero, a, b) for h in doubled
    )
    if S.elements != pattern:
        raise CompileError("internal: exhausted worklist without the even pattern")
    trace.append(_rec("even-pattern", a=a, b=b))
    qm = quotient_group(G, K)
    if qm.group.moduli != (2, 2):
        raise CompileError("internal: even-pattern quotient is not the Klein group")
    trace.append(_rec("quotient-c22", moduli=qm.group.moduli))
    w = qm.proj.apply(G.add(a, b))
    front: List[Step] = [
        KColFrom3Col(4),
        GadgetColoringFull(qm.group),
        Translate(qm.group, w),
        DivideOutLift(K),
    ]
    return "base", front


def _two_element_front(G, S: SubsetS, trace) -> List[Step]:
    lo, hi = S.sorted_elements()
    d = G.sub(hi, lo)
    m = G.element_order(d)
    if m < 3:
        raise CompileError("internal: two-element set with involutive difference is a coset")
    trace.append(_rec("two-element", base=lo, difference=d, order=m))
    if m == 3:
        # inside <d> the pair sits as {0, d}; the full-coloring gadget over
        # the 3-element group gives the nonzero pair, shifted into place
        Z3 = FiniteAbelianGroup((3,))
        emb = Homomorphism(Z3, G, tuple((c,) for c in d))
        front: List[Step] = [GadgetColoringFull(Z3), Translate(Z3, (2,)), MapThrough(emb)]
    else:
        Zm = FiniteAbelianGroup((m,))
        emb = Homomorphism(Zm, G, tuple((c,) for c in d))
        front = [GadgetS01(Zm), MapThrough(emb)]
    trace.append(_rec("injective", order=m))
    if lo != G.zero():
        front.append(Translate(G, lo))
    return front


def _pullback(emb: Homomorphism, elements) -> frozenset:
    """The preimages under the injective emb of those elements in its
    image: one solve per element, with no scan of emb's source."""
    pre = (hom_preimage(emb, y) for y in elements)
    return frozenset(x for x in pre if x is not None)


def _compile_steps(G, S: SubsetS, trace) -> List[Step]:
    tail: List[Step] = []
    measure = None
    while True:
        m = G.order + len(S)
        if measure is not None:
            if m >= measure:
                raise CompileError("internal: recursion measure failed to decrease")
            trace.append(_rec("measure-drop", before=measure, after=m))
        measure = m
        if len(S) < 2 or is_coset(S) is not None:
            raise CompileError("internal: compile reached a polynomial-time target")
        if len(S) == 2:
            return _two_element_front(G, S, trace) + tail
        witness = find_noncoset_witness(S)
        assert witness is not None
        s, a, b = witness
        trace.append(_rec("witness", s=s, a=a, b=b))
        if s != G.zero():
            tail.insert(0, Translate(G, s))
            S = S.translate(G.neg(s))
        order, _ = span_basis(G, (a, b))
        if order < G.order:
            A, emb = subgroup_abstract(SubgroupGens(G, (a, b)))
            if any(k != A.zero() for k in kernel_of_hom(emb).gens):
                raise CompileError("internal: subgroup presentation is not injective")
            SA = SubsetS(A, _pullback(emb, S.elements))
            a = hom_preimage(emb, a)
            b = hom_preimage(emb, b)
            assert a is not None and b is not None
            trace.append(_rec("injective", span=A.moduli, inside=G.moduli))
            tail.insert(0, MapThrough(emb))
            G, S = A, SA
        out = _two_gen_worklist(G, S, a, b, trace)
        if out[0] == "double":
            _, S, extra = out
            tail = extra + tail
        elif out[0] == "divide":
            _, G, S, extra = out
            tail = extra + tail
        else:
            return out[1] + tail


# --- peephole normalization ---------------------------------------------------


def _is_trivial_divideout(step: DivideOutLift) -> bool:
    K = step.kernel
    G = K.group
    if any(k != G.zero() for k in K.gens):
        return False
    qm = quotient_group(G, K)
    return qm.group == G and qm.proj.is_identity()


def normalize_steps(steps: Sequence[Step]) -> Tuple[Step, ...]:
    """Drop no-op steps and merge adjacent translations."""
    kept: List[Step] = []
    for st in steps:
        if isinstance(st, MapThrough) and st.hom.is_identity():
            continue
        if isinstance(st, KColFrom3Col) and st.k == 3:
            continue
        if isinstance(st, DivideOutLift) and _is_trivial_divideout(st):
            continue
        kept.append(st)
    out: List[Step] = []
    for st in kept:
        if isinstance(st, Translate):
            if out and isinstance(out[-1], Translate) and out[-1].group == st.group:
                prev = out.pop()
                st = Translate(st.group, st.group.add(prev.g, st.g))
            if any(st.g):
                out.append(st)
            continue
        out.append(st)
    return tuple(out)


# --- compilation entry points -------------------------------------------------


def compile_hardness_P(G: FiniteAbelianGroup, S: SubsetS,
                       selfcheck: bool = True) -> ReductionPipeline:
    cls = classify_affine(G, S)
    if cls.verdict != NP_COMPLETE:
        raise CompileError("nothing to compile: " + cls.describe())
    trace: List[TraceRecord] = []
    steps = normalize_steps(_compile_steps(G, S, trace))
    pipe = ReductionPipeline(G, S, "P", steps, tuple(trace))
    if selfcheck:
        run_selfcheck(pipe)
    return pipe


def compile_hardness_Pi(G: FiniteAbelianGroup, S: SubsetS,
                        selfcheck: bool = True) -> ReductionPipeline:
    cls = classify_homogeneous(G, S)
    if cls.verdict != NP_COMPLETE:
        raise CompileError("nothing to compile: " + cls.describe())
    trace: List[TraceRecord] = []
    T = cls.core
    trace.append(_rec("core-fixed", core=T.elements))
    A, emb = subgroup_abstract(SubgroupGens(G, T.sorted_elements()))
    # S meets <T> only in T: with E the idempotents e mod the exponent with
    # eS inside S (closed under products) and e* their product, T = e*S;
    # <T> lies in e*G, which e* fixes pointwise, so x in S and <T> gives
    # x = e*x in e*S = T.  The check stays as the trace's set-eq fact.
    # T lies inside S, so its pull-back is read off S's.
    pulled = _pullback(emb, S.elements)
    TA = SubsetS(A, frozenset(x for x in pulled if emb.apply(x) in T.elements))
    if pulled != TA.elements:
        raise CompileError("internal: S meets the span of its dilation core outside the core")
    trace.append(_rec("set-eq", core=len(TA), span=A.moduli))
    steps = _compile_steps(A, TA, trace)
    steps.append(PiFromP(A, TA.sorted_elements()))
    steps.append(MapThrough(emb))
    pipe = ReductionPipeline(G, S, "Pi", normalize_steps(steps), tuple(trace))
    if selfcheck:
        run_selfcheck(pipe)
    return pipe


def compile_hardness(G: FiniteAbelianGroup, S: SubsetS, variant: str = "P",
                     selfcheck: bool = True) -> ReductionPipeline:
    if variant == "P":
        return compile_hardness_P(G, S, selfcheck=selfcheck)
    if variant == "Pi":
        return compile_hardness_Pi(G, S, selfcheck=selfcheck)
    raise ValueError(f"unknown variant {variant!r}")


# --- replay -------------------------------------------------------------------


def _apply_step(step: Step, inst: ProblemInstance,
                cert: Optional[Certificate]):
    """One instance-transformer step; returns (instance, threaded
    certificate or None)."""
    if isinstance(step, Translate):
        if inst.group != step.group:
            raise CompileError("translate step over the wrong group")
        return translate_instance(inst, step.g), cert
    if isinstance(step, MapThrough):
        return map_instance(inst, step.hom), cert
    if isinstance(step, TransformDouble):
        return transform_double(inst, step.hom, step.g), cert
    if isinstance(step, DivideOutLift):
        out = divideout_lift(inst, step.kernel.group, step.kernel)
        if cert is not None:
            # the slack generators take coefficient zero
            cert = tuple(cert) + (0,) * (len(out.hgens) - len(inst.hgens))
        return out, cert
    if isinstance(step, PiFromP):
        out = pi_from_p(inst, SubsetS.of(step.group, step.order), order=step.order)
        # the folded generator comes first and takes coefficient one
        return out, None if cert is None else (1,) + tuple(cert)
    raise CompileError(f"step {step!r} is not an instance transformer "
                       "(graph-stage steps open a pipeline and need apply_pipeline)")


def apply_steps_to_instance(steps, inst: ProblemInstance,
                            cert: Optional[Certificate] = None):
    """Run instance-transformer steps on an existing instance, threading an
    optional certificate.  Graph-stage steps need apply_pipeline."""
    for step in steps:
        inst, cert = _apply_step(step, inst, cert)
    return inst, cert


def apply_pipeline(pipeline: ReductionPipeline, graph: Graph,
                   coloring: Optional[Sequence[int]] = None):
    """Replay the pipeline on a graph.  Returns (instance, certificate or
    None); a certificate is produced when a proper 3-coloring is given."""
    col: Optional[Tuple[int, ...]] = None
    if coloring is not None:
        col = tuple(coloring)
        if len(col) != graph.n:
            raise ValueError("coloring length does not match the graph")
        if any(c not in (1, 2, 3) for c in col):
            raise ValueError("colorings use colors 1..3")
        if any(col[u - 1] == col[v - 1] for u, v in graph.edges):
            raise ValueError("coloring is not proper")
    steps = pipeline.steps
    g = graph
    i = 0
    while i < len(steps) and isinstance(steps[i], KColFrom3Col):
        if col is not None:
            col = pad_coloring(g, steps[i].k, col)
        g = kcol_from_3col(g, steps[i].k)
        i += 1
    gadget = steps[i] if i < len(steps) else None
    cert: Optional[Certificate] = None
    if isinstance(gadget, GadgetS01):
        inst, layout = gadget_s01(g, gadget.group)
        if col is not None:
            cert = cert_s01(layout, col)
    elif isinstance(gadget, GadgetColoringFull):
        inst = gadget_coloring_full(g, gadget.group)
        if col is not None:
            cert = cert_coloring_full(g, gadget.group, col)
    else:
        raise CompileError("pipeline is missing its gadget front end")
    inst, cert = apply_steps_to_instance(steps[i + 1:], inst, cert)
    if inst.group != pipeline.group:
        raise CompileError("pipeline replay ended over the wrong group")
    return inst, cert


def run_selfcheck(pipeline: ReductionPipeline, budget: int = 10 ** 7) -> None:
    """Compiled pipelines must send the triangle to Yes (proved by the
    threaded certificate) and the 4-clique to No (checked by the oracle)."""
    inst, cert = apply_pipeline(pipeline, complete_graph(3), coloring=(1, 2, 3))
    if cert is None or not verify_certificate(inst, pipeline.subset, cert):
        raise CompileError("self-check: threaded triangle certificate does not verify")
    inst, _ = apply_pipeline(pipeline, complete_graph(4))
    res = oracle_solve(inst, pipeline.subset, budget=budget)
    if res.kind == "budget_exceeded":
        raise CompileError(
            f"self-check: the 4-clique oracle run exceeded its budget of {budget} "
            "nodes; compile with selfcheck disabled to skip it"
        )
    if res.kind != "no":
        raise CompileError("self-check: 4-clique compiled to a yes-instance")


def verify_trace(pipeline: ReductionPipeline) -> bool:
    """Recompile the pipeline's target and require identical steps and
    trace; compilation re-runs every structural assertion."""
    fresh = compile_hardness(pipeline.group, pipeline.subset, pipeline.variant,
                             selfcheck=False)
    if fresh.steps != pipeline.steps:
        raise CompileError("trace verification: steps diverge on recompilation")
    if fresh.trace != pipeline.trace:
        raise CompileError("trace verification: trace diverges on recompilation")
    return True
