"""Answer-preserving instance transformers and graph-coloring gadgets.

Each transformer maps instances of one (group, subset) problem to
instances of another so that yes/no answers are preserved; the hardness
compiler chains them.  The two gadgets are the reduction front-ends:
one reduces 3-colorability to S = {0,1} over a cyclic group of order at
least 4, the other reduces |G|-colorability to S = G minus zero.

An instance holds a few distinct group elements in many cells, so the
transformers map the cells through a `model.Memo` that computes each
distinct value's image once, as the cells are looked up, and the gadgets
fill their cells with a few shared element objects.  Each output is built
by `ProblemInstance._derived`, which checks only the objects that the step
adds (its memo's images, the gadget's elements, a zero or a kernel
generator) and not the cells it copies from its input.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

from .groups import (
    FiniteAbelianGroup,
    GroupElement,
    Homomorphism,
    SubgroupGens,
    kernel_of_hom,
    quotient_group,
    subgroup_membership,
)
from .classify import dilation_core
from .model import Certificate, Memo, ProblemInstance, SubsetS


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph, vertices 1..n."""

    n: int
    edges: frozenset  # of (u, v) tuples with u < v

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        norm = set()
        for e in self.edges:
            u, v = e
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValueError(f"edge {e} out of range 1..{self.n}")
            norm.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(norm))

    @staticmethod
    def of(n: int, edges) -> "Graph":
        return Graph(n, frozenset(tuple(e) for e in edges))

    def sorted_edges(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(sorted(self.edges))


def complete_graph(n: int) -> Graph:
    return Graph.of(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph.of(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def path_graph(n: int) -> Graph:
    return Graph.of(n, [(i, i + 1) for i in range(1, n)])


def phi_fixed_subset(S: SubsetS, c: Homomorphism, g: GroupElement) -> SubsetS:
    """S intersected with the preimage of S under x -> c(x) + g."""
    G = S.group
    return SubsetS(G, frozenset(x for x in S.elements if G.add(c.apply(x), g) in S))


def _mapped(table: Dict[GroupElement, GroupElement], row: Sequence[GroupElement]):
    return tuple(map(table.__getitem__, row))


def translate_instance(inst: ProblemInstance, g: GroupElement) -> ProblemInstance:
    """Shift xstar by g everywhere; answers move from S to S + g."""
    G = inst.group
    if not G.contains(g):
        raise ValueError(f"{g} not in group {G}")
    shifted = Memo(lambda x: G.add(x, g))
    return ProblemInstance._derived(G, inst.t, _mapped(shifted, inst.xstar), inst.hgens,
                                    shifted.values())


def map_instance(inst: ProblemInstance, f: Homomorphism) -> ProblemInstance:
    """Push the instance through an injective homomorphism coordinate-wise."""
    if f.source != inst.group:
        raise ValueError("homomorphism source does not match instance group")
    check_injective(f)
    image = Memo(f.apply)
    return ProblemInstance._derived(
        f.target,
        inst.t,
        _mapped(image, inst.xstar),
        tuple(_mapped(image, gen) for gen in inst.hgens),
        image.values(),
    )


def check_injective(f: Homomorphism) -> None:
    zero = f.source.zero()
    if any(k != zero for k in kernel_of_hom(f).gens):
        raise ValueError("instance mapping needs an injective homomorphism")


def divideout_lift(inst: ProblemInstance, G: FiniteAbelianGroup,
                   K: SubgroupGens) -> ProblemInstance:
    """Lift an instance over the quotient G/K back to G, adding one slack
    generator per (coordinate, K-generator) pair.

    Preserves answers between the quotient problem on S' and the problem
    on the union of kernel cosets S' + K.
    """
    if K.group != G:
        raise ValueError("kernel generators live in a different group")
    qmap = quotient_group(G, K)
    if inst.group != qmap.group:
        raise ValueError("instance is not over the quotient of G by K")
    t = inst.t
    lift = Memo(qmap.lift)
    xstar = _mapped(lift, inst.xstar)
    lifted = [_mapped(lift, gen) for gen in inst.hgens]
    zero = G.zero()
    slack = []
    for i in range(t):
        for k in K.gens:
            if k == zero:
                continue
            gen = [zero] * t
            gen[i] = k
            slack.append(tuple(gen))
    return ProblemInstance._derived(G, t, xstar, tuple(lifted) + tuple(slack),
                                    (*lift.values(), zero, *K.gens))


def transform_double(inst: ProblemInstance, c: Homomorphism, g: GroupElement) -> ProblemInstance:
    """Double the instance along x -> c(x) + g.

    The output has the same answer for S as the input has for the
    phi-fixed subset S intersect phi^{-1}(S).
    """
    G = inst.group
    if c.source != G or c.target != G:
        raise ValueError("doubling needs an endomorphism of the instance group")
    if not G.contains(g):
        raise ValueError(f"{g} not in group {G}")
    image = Memo(c.apply)
    shifted = Memo(lambda x: G.add(image[x], g))
    xstar = inst.xstar + _mapped(shifted, inst.xstar)
    hgens = tuple(gen + _mapped(image, gen) for gen in inst.hgens)
    return ProblemInstance._derived(G, 2 * inst.t, xstar, hgens,
                                    (*image.values(), *shifted.values()))


def check_pi_from_p(S_prime: SubsetS, enum: Sequence[GroupElement]) -> None:
    if dilation_core(S_prime).elements != S_prime.elements:
        raise ValueError("homogenization needs the subset fixed by its dilation core")
    if frozenset(enum) != S_prime.elements or len(enum) != len(S_prime):
        raise ValueError("enumeration order must list each subset element once")


def pi_from_p(inst: ProblemInstance, S_prime: SubsetS,
              order: Optional[Sequence[GroupElement]] = None) -> ProblemInstance:
    """Fold xstar into one extra generator, pinning it via |S'| extra
    coordinates.  Sound when S' is fixed by its dilation core and the
    instance data lies in the span of S'; the folded generator comes
    first, so a threaded certificate prepends a coefficient of 1.
    """
    G = inst.group
    if S_prime.group != G:
        raise ValueError("subset is over a different group")
    enum = tuple(order) if order is not None else S_prime.sorted_elements()
    check_pi_from_p(S_prime, enum)
    span = SubgroupGens(G, enum)
    for e in set(chain(inst.xstar, *inst.hgens)):
        if subgroup_membership(span, e) is None:
            raise ValueError("instance data must lie in the span of the subset")
    n = len(enum)
    t2 = inst.t + n
    zero = G.zero()
    ystar = inst.xstar + enum
    pad = (zero,) * n
    padded = tuple(gen + pad for gen in inst.hgens)
    return ProblemInstance._derived(G, t2, (zero,) * t2, (ystar,) + padded, (*enum, zero))


@dataclass(frozen=True)
class GadgetLayout:
    """Coordinate bookkeeping for the {0,1}-gadget's four blocks."""

    vertices: Tuple[int, ...]
    colors: Tuple[int, int, int]
    edges: Tuple[Tuple[int, int], ...]
    offsets: Tuple[int, int, int, int]  # starts of blocks V*C, V, V, E*C
    t: int

    def vc_index(self, v: int, c: int) -> int:
        return self.offsets[0] + self.vertices.index(v) * 3 + self.colors.index(c)

    def sum_index(self, v: int, block: int) -> int:
        # block is 2 or 3 (the two vertex-sum blocks)
        return self.offsets[block - 1] + self.vertices.index(v)

    def ec_index(self, e: Tuple[int, int], c: int) -> int:
        return self.offsets[3] + self.edges.index(e) * 3 + self.colors.index(c)


def check_gadget_s01(G: FiniteAbelianGroup) -> None:
    if G.dim != 1 or G.order < 4:
        raise ValueError("the {0,1} gadget needs a cyclic group of order at least 4")


def gadget_s01(graph: Graph, G: FiniteAbelianGroup) -> Tuple[ProblemInstance, GadgetLayout]:
    """3-colorability front-end for S = {0,1} over a cyclic group of
    order at least 4.

    One generator per (vertex, color).  Block one is an identity on the
    generators, so the oracle's finalize-early pruning collapses each
    digit to {0,1}.  Blocks two and three pin the per-vertex color count
    to exactly one, and the edge block forbids sharing a color.
    """
    check_gadget_s01(G)
    n = G.order
    vertices = tuple(range(1, graph.n + 1))
    colors = (1, 2, 3)
    edges = graph.sorted_edges()
    nv, ne = len(vertices), len(edges)
    offsets = (0, 3 * nv, 4 * nv, 5 * nv)
    t = 5 * nv + 3 * ne
    layout = GadgetLayout(vertices, colors, edges, offsets, t)

    zero, one, minus_one = (0,), (1,), (n - 1,)
    xstar = [zero] * t
    for v in vertices:
        xstar[layout.sum_index(v, 3)] = minus_one

    hgens = []
    for v in vertices:
        for c in colors:
            gen = [zero] * t
            gen[layout.vc_index(v, c)] = one
            gen[layout.sum_index(v, 2)] = one
            gen[layout.sum_index(v, 3)] = one
            for e in edges:
                if v in e:
                    gen[layout.ec_index(e, c)] = one
            hgens.append(tuple(gen))
    return ProblemInstance._derived(G, t, tuple(xstar), tuple(hgens),
                                    (zero, one, minus_one)), layout


def gadget_s01_subset(G: FiniteAbelianGroup) -> SubsetS:
    return SubsetS.of(G, [(0,), (1,)])


def cert_s01(layout: GadgetLayout, coloring: Sequence[int]) -> Certificate:
    """Certificate from a proper 3-coloring (1 iff vertex has that color)."""
    if len(coloring) != len(layout.vertices):
        raise ValueError("coloring length does not match vertex count")
    return tuple(
        1 if coloring[layout.vertices.index(v)] == c else 0
        for v in layout.vertices
        for c in layout.colors
    )


def check_gadget_coloring_full(G: FiniteAbelianGroup) -> None:
    if G.order < 3:
        raise ValueError("the full-coloring gadget needs group order at least 3")


def gadget_coloring_full(graph: Graph, G: FiniteAbelianGroup) -> ProblemInstance:
    """|G|-colorability front-end for S = G minus zero.

    Coordinates are edges; the generator for (vertex, component) adds
    the component's unit where the vertex is an edge's lower endpoint
    and subtracts it at the higher endpoint.
    """
    check_gadget_coloring_full(G)
    edges = graph.sorted_edges()
    t = len(edges)
    zero = G.zero()
    shared = {zero: zero}
    # units[j][coeff]: coeff times the j-th standard generator, one object per value
    units = []
    for j, d in enumerate(G.moduli):
        signed = {0: zero}
        for coeff in (1, -1):
            e = [0] * G.dim
            e[j] = coeff % d
            unit = tuple(e)
            signed[coeff] = shared.setdefault(unit, unit)
        units.append(signed)
    hgens = []
    for v in range(1, graph.n + 1):
        for signed in units:
            hgens.append(tuple(
                signed[1 if v == u else (-1 if v == w else 0)] for (u, w) in edges
            ))
    xstar = (zero,) * t
    return ProblemInstance._derived(G, t, xstar, tuple(hgens), shared.values())


def gadget_coloring_full_subset(G: FiniteAbelianGroup) -> SubsetS:
    return SubsetS.of(G, [e for e in G.elements() if e != G.zero()])


def cert_coloring_full(graph: Graph, G: FiniteAbelianGroup,
                       coloring: Sequence[int]) -> Certificate:
    """Certificate from a proper |G|-coloring: vertex v's generators get
    the coordinates of the color's group element (lex enumeration)."""
    if len(coloring) != graph.n:
        raise ValueError("coloring length does not match vertex count")
    cert: List[int] = []
    for v in range(1, graph.n + 1):
        color = coloring[v - 1]
        if not (1 <= color <= G.order):
            raise ValueError(f"color {color} out of range 1..{G.order}")
        cert.extend(G.element_at(color - 1))
    return tuple(cert)


def check_padding(k: int) -> None:
    if k < 3:
        raise ValueError("padding needs k >= 3")


def kcol_from_3col(graph: Graph, k: int) -> Graph:
    """Universal-vertex padding: k-colorable iff the input is 3-colorable."""
    check_padding(k)
    extra = range(graph.n + 1, graph.n + k - 2)
    edges = set(graph.edges)
    for x in extra:
        for v in range(1, x):
            edges.add((v, x))
    return Graph.of(graph.n + k - 3, edges)


def pad_coloring(graph: Graph, k: int, coloring: Sequence[int]) -> Tuple[int, ...]:
    """Extend a 3-coloring of the original graph to the padded one."""
    if len(coloring) != graph.n:
        raise ValueError("coloring length does not match vertex count")
    return tuple(coloring) + tuple(range(4, k + 1))
