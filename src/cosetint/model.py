"""Instance data model, certificate checks and the search oracle.

The decision problem: given a coset xstar + H of a subgroup H <= G^t,
does it meet S^t?  The homogeneous variant fixes xstar = 0.  The oracle
here is an exact, budgeted depth-first search over each generator's
multiples -- it decides the NP-complete cases, and every polynomial
solver and every reduction is tested against it.  Its pruning and
presolve keep the search order of the plain DFS and only cut nodes, and
the tests cross-check it against the naive searches that it refines
(`reference_oracle_solve` and `reference_order_oracle_solve` in
`tests/helpers.py`).  Its one pruning rule: the coordinates
that the same remaining generators R still move form a group, and a node
fails when no digit tuple of R puts the whole group into S.  With R = {k}
the check leaves the digits of generator k that do, and the node for k
tries only those.  So a finished coordinate is tested on its own only at
the root, when no generator moves it, or below g_k when its group {k} has
too many digits to check.

Each cell object of an instance is checked once, where it enters: input
from outside the package per object at the public constructor, parsed input
per distinct token (`formats.parse_element`), and transform or gadget output
per new object (`ProblemInstance._derived`); a cell copied from an instance
is not checked again.  An instance holds a few distinct values in many
cells, so a layer that computes something per cell does it through a
`Memo`, a table that lives for one call and computes f(x) the first time
a cell of value x is looked up: once per distinct value, and with no pass
over the cells beyond the lookups themselves.

Before the search, a presolve that keeps the search order and the
smallest certificate: while the second half of the coordinates is the
first half under x -> c*x + g for c = +1 or -1 (the shape that
`transforms.transform_double` gives), the second half is dropped and S
becomes S intersect c^-1(S - g); and generator k's digits run only below
its order modulo K^t, where K = {k : S + k = S} is the stabilizer of S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Optional, Sequence, Tuple

from .groups import FiniteAbelianGroup, GroupElement, _prime_power_pieces

DEFAULT_BUDGET = 10 ** 8

Certificate = Tuple[int, ...]


@dataclass(frozen=True)
class SubsetS:
    """A finite subset of the base group with O(1) membership."""

    group: FiniteAbelianGroup
    elements: frozenset

    def __post_init__(self):
        elems = frozenset(tuple(e) for e in self.elements)
        for e in elems:
            if not self.group.contains(e):
                raise ValueError(f"subset element {e} not in group {self.group}")
        object.__setattr__(self, "elements", elems)

    @staticmethod
    def of(group: FiniteAbelianGroup, elements) -> "SubsetS":
        return SubsetS(group, frozenset(tuple(e) for e in elements))

    def __contains__(self, element) -> bool:
        return tuple(element) in self.elements

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.sorted_elements())

    def sorted_elements(self) -> Tuple[GroupElement, ...]:
        return tuple(sorted(self.elements))

    def translate(self, g: GroupElement) -> "SubsetS":
        G = self.group
        return SubsetS(G, frozenset(G.add(e, g) for e in self.elements))


@dataclass(frozen=True)
class ProblemInstance:
    """(t, xstar, hgens) over a base group; hgens generate H <= G^t.

    The public constructor is for input from outside the package.  Every
    entry is normalized to a tuple and checked to be an element of the
    group, once per distinct entry object (keyed by `id`, so an entry
    equal to a checked one but of another type, such as (1.0,) after
    (1,), is still checked and rejected).  When a check fails, a
    cell-by-cell pass names the first error in cell order: xstar's
    length, its first bad entry, then each generator's length and its
    first bad entry.  Rows built inside the package go through
    `_derived`, which checks only the objects they add.
    """

    group: FiniteAbelianGroup
    t: int
    xstar: Tuple[GroupElement, ...]
    hgens: Tuple[Tuple[GroupElement, ...], ...]

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("t must be nonnegative")
        xstar = tuple(map(tuple, self.xstar))
        hgens = tuple(tuple(map(tuple, gen)) for gen in self.hgens)
        objects: Dict[int, GroupElement] = {}
        for row in (xstar,) + hgens:
            objects.update(zip(map(id, row), row))
        if (len(xstar) != self.t or any(len(gen) != self.t for gen in hgens)
                or not all(map(self.group.contains, objects.values()))):
            raise ValueError(self._first_error(xstar, hgens))
        object.__setattr__(self, "xstar", xstar)
        object.__setattr__(self, "hgens", hgens)

    @classmethod
    def _derived(cls, group: FiniteAbelianGroup, t: int, xstar, hgens,
                 new) -> "ProblemInstance":
        """An instance on tuple rows built inside the package, each cell
        either a cell of an instance already checked or one of the objects
        in `new`.  Checks the row lengths and each object of `new`, and
        reads no cell; on a failure the public constructor rebuilds the
        instance from the rows and names the error."""
        rows = (xstar,) + hgens
        if any(len(row) != t for row in rows) or not all(map(group.contains, new)):
            return cls(group, t, xstar, hgens)
        inst = object.__new__(cls)
        for name, value in (("group", group), ("t", t), ("xstar", xstar), ("hgens", hgens)):
            object.__setattr__(inst, name, value)
        return inst

    def _first_error(self, xstar, hgens) -> Optional[str]:
        """The complaint of a cell-by-cell check, which runs only once a
        length or a distinct entry has failed."""
        if len(xstar) != self.t:
            return f"xstar has length {len(xstar)}, expected t={self.t}"
        for e in xstar:
            if not self.group.contains(e):
                return f"xstar entry {e} not in group {self.group}"
        for gen in hgens:
            if len(gen) != self.t:
                return f"generator has length {len(gen)}, expected t={self.t}"
            for e in gen:
                if not self.group.contains(e):
                    return f"generator entry {e} not in group {self.group}"
        return None

    def is_homogeneous(self) -> bool:
        zero = self.group.zero()
        return all(e == zero for e in self.xstar)


class Memo(dict):
    """x -> f(x), computed the first time x is looked up and then kept.

    Every cell of an instance is a validated tuple of ints, so cells of
    equal value share one entry: mapping the cells through a memo calls f
    once per distinct value."""

    def __init__(self, f: Callable):
        super().__init__()
        self.f = f

    def __missing__(self, x):
        y = self[x] = self.f(x)
        return y


@dataclass(frozen=True)
class SolveResult:
    kind: str  # "yes" | "no" | "budget_exceeded"
    certificate: Optional[Certificate] = None
    nodes: int = field(default=0, compare=False)  # oracle search nodes; 0 elsewhere

    def __post_init__(self):
        if self.kind not in ("yes", "no", "budget_exceeded"):
            raise ValueError(f"bad result kind {self.kind!r}")
        if (self.kind == "yes") != (self.certificate is not None):
            raise ValueError("certificate present iff kind is yes")


def witness_point(inst: ProblemInstance, cert: Sequence[int]) -> Tuple[GroupElement, ...]:
    """xstar + sum(cert[i] * hgens[i]), computed coordinate-wise.  A zero
    cell adds nothing, and each generator scales each of its distinct
    entries once."""
    if len(cert) != len(inst.hgens):
        raise ValueError(f"certificate length {len(cert)} != generator count {len(inst.hgens)}")
    G = inst.group
    zero = G.zero()
    point = list(inst.xstar)
    for coeff, gen in zip(cert, inst.hgens):
        if coeff % G.exponent == 0:
            continue
        scaled = Memo(partial(G.scale, coeff))
        for i, e in enumerate(gen):
            if e != zero:
                point[i] = G.add(point[i], scaled[e])
    return tuple(point)


def verify_certificate(inst: ProblemInstance, S: SubsetS, cert: Sequence[int]) -> bool:
    """True iff the certified point lies in S^t (vacuously true for t=0)."""
    if S.group != inst.group:
        raise ValueError("subset and instance are over different groups")
    point = witness_point(inst, cert)
    return all(p in S for p in point)


class _BudgetExceeded(Exception):
    pass


class _Successors(dict):
    """x -> x + g for one generator entry g, filled on demand."""

    def __init__(self, group: FiniteAbelianGroup, g: GroupElement):
        super().__init__()
        self.group = group
        self.g = g

    def __missing__(self, x: GroupElement) -> GroupElement:
        y = self[x] = self.group.add(x, self.g)
        return y


class _Hits(dict):
    """x -> bitmask of the digit tuples of a generator suffix R that move
    x into S, for one coordinate's entries over R, filled on demand.

    The entry of R's first generator is `succ.g`, `order` is that
    generator's digit bound, and `tail` holds the hits of the rest of R (an
    `_InS` when R has one generator).  Tuples are numbered in mixed radix
    with the first digit most significant, so every coordinate with the
    same R numbers them alike and the masks of a group can be ANDed."""

    def __init__(self, succ: _Successors, order: int, tail: dict):
        super().__init__()
        self.succ, self.tail = succ, tail
        self.size = order * tail.size

    def __missing__(self, x: GroupElement) -> int:
        tail, succ = self.tail, self.succ
        mask, y = 0, x
        for shift in range(0, self.size, tail.size):
            mask |= tail[y] << shift
            y = succ[y]
        self[x] = mask
        return mask


class _InS(dict):
    """x -> 1 if x is in S else 0: the hits of the empty digit tuple."""

    size = 1

    def __init__(self, members: frozenset):
        super().__init__()
        self.members = members

    def __missing__(self, x: GroupElement) -> int:
        hit = self[x] = int(x in self.members)
        return hit


# the largest number of digit tuples a group check enumerates (also capped by |G|)
GROUP_CHECK_TUPLES = 64


def _undouble(G: FiniteAbelianGroup, xstar, hgens, members: frozenset):
    """Undo doublings x -> (x, c*x + g) with c = +1 or -1 while t is even.

    When every generator's second half is c times its first half and
    xstar's second half is c times its first half plus one constant g,
    coordinate h + i is c * (coordinate i) + g at every point of the
    coset, so both lie in S iff coordinate i lies in S intersect
    c^-1(S - g).  The two also share their remaining generators, so the
    search over the first half against that subset makes every decision
    of the search over both halves.  Returns (xstar, hgens, members).
    """
    while xstar and len(xstar) % 2 == 0:
        h = len(xstar) // 2
        for c in (1, -1):
            image = Memo(partial(G.scale, c))
            if all(image[a] == b for gen in hgens for a, b in zip(gen, gen[h:])):
                shifts = {G.sub(y, image[x]) for x, y in zip(xstar, xstar[h:])}
                if len(shifts) == 1:
                    break
        else:
            return xstar, hgens, members
        (g,) = shifts
        members = frozenset(x for x in members if G.add(G.scale(c, x), g) in members)
        xstar, hgens = xstar[:h], tuple(gen[:h] for gen in hgens)
    return xstar, hgens, members


def _period(G: FiniteAbelianGroup, e: GroupElement, members: frozenset) -> int:
    """The least divisor d of ord(e) with S + d*e = S.

    Those d are the multiples of the least one, so it is found by
    dividing ord(e) by each of its primes while the quotient still
    fixes S; each test is one pass over S that stops at its first miss.
    """
    d = G.element_order(e)
    for p, _ in _prime_power_pieces(d):
        while d % p == 0:
            step = G.scale(d // p, e)
            if not all(G.add(s, step) in members for s in members):
                break
            d //= p
    return d


def oracle_solve(inst: ProblemInstance, S: SubsetS, budget: int = DEFAULT_BUDGET) -> SolveResult:
    """Exhaustive pruned DFS over coefficient digits, generator k's digit
    in [0, r_k), after a presolve of the instance.

    The presolve first undoes doublings (`_undouble`): while t is even and
    the second half of every generator and of xstar is the first half
    under x -> c*x + g with c = +1 or -1, the search runs over the first
    half against S intersect c^-1(S - g), and makes the same decisions.
    Then r_k is the order of g_k modulo K^t, where K = {k : S + k = S}:
    the lcm over g_k's distinct entries e of the least divisor d of
    ord(e) with S + d*e = S (`_period`).  S is K-periodic, so a digit c
    reaches the same memberships as c mod r_k, which is no larger; no
    certificate is lost and the smallest one keeps every digit below r_k.
    Neither part lists G or K, and neither changes the search order.

    At the node for generator k, coordinate i's remaining generators are
    R = {j >= k : g_j[i] != 0}, and the coordinates with equal R form a
    group that only R's digits can still move.  The node fails when some
    group has no digit tuple (c_j < r_j)_{j in R} putting every one of
    its coordinates into S.  The root checks every group; the node below
    generator k - 1 checks the groups that g_{k-1} changed.  A group is
    skipped (capped) when R has more than min(|G|, GROUP_CHECK_TUPLES)
    digit tuples.  The last check of the group R = {k} on the path leaves
    the mask of g_k's digits that put all of that group into S, and the
    node for generator k tries only those digits.  So a coordinate that
    g_k moves last always lands in S, and is tested at the node below
    only when its group {k} is capped; a coordinate that no generator
    moves is tested at the root.  A failing node or a skipped digit has
    no certificate below it, so the search visits a subtree of the plain
    DFS in the same order.

    Digits are tried in ascending order with generators in given order,
    which makes the first certificate found the lexicographically
    smallest one.  Every call of the presolved search is one node and
    counts against the budget; the result carries the count (budget + 1
    when the budget is exceeded).

    The running point is a list of element tuples.  Adding generator
    entry g to a coordinate reads a successor memo x -> x + g, one dict
    per distinct entry, filled as the search first takes each step.  A
    group check ANDs per-coordinate bitmasks of the digit tuples that
    land in S (`_Hits`), one memo per distinct run of entries and digit
    bounds, also filled on demand, so nothing of size |G| is allocated.
    """
    if S.group != inst.group:
        raise ValueError("subset and instance are over different groups")
    if budget < 1:
        raise ValueError("budget must be positive")
    G = inst.group
    xstar, hgens, members = _undouble(G, inst.xstar, inst.hgens, S.elements)
    t, ngens = len(xstar), len(hgens)
    zero = G.zero()

    # moves[k]: (coordinate, successor memo) for each nonzero entry of gen k;
    # orders[k]: the order of gen k modulo K^t, the lcm of its moved entries' periods
    memos = Memo(partial(_Successors, G))
    moves = [[(i, memos[g]) for i, g in enumerate(gen) if g != zero] for gen in hgens]
    moved = [{succ.g for _, succ in move} for move in moves]
    period = {g: _period(G, g, members) for g in set().union(*moved)}
    orders = [math.lcm(*map(period.__getitem__, gs)) for gs in moved]

    # Walking the generators from the last, suffix[i] stands for those walked
    # so far that touch coordinate i: None if none does, `capped` once they
    # have more than `cap` digit tuples, else (group, hits memo).  Suffixes
    # are interned by (generator, entry, rest), so the walk is linear in the
    # nonzero entries.  When g_k touches i, i joins the group of the suffix
    # after g_k at the node for generator k + 1.  A coordinate that g_k
    # touches last is tested at that node only when its group {k} is capped.
    final_at = [[] for _ in range(ngens + 1)]
    checks = [[] for _ in range(ngens + 1)]
    cap = min(G.order, GROUP_CHECK_TUPLES)
    capped, empty = object(), (None, _InS(members))
    suffix = [None] * t
    suffix_of, group_of, hits_of = {}, {}, {}
    # checks[k]: (write slot, read slot, new members) for each group that the
    # node for generator k tests.  Its older members have kept their values
    # since the group's previous check, at an ancestor node, so a check ANDs
    # the mask that check left in masks[read] with the new members' masks.
    # Built from the last level, each check writes the slot that its
    # group's next check reads (slot 0 if none does).  The last check of
    # group {k} writes allowed[k], the digits of g_k that put that group into
    # S; slot 1 stays all ones for a generator whose group {k} is capped.
    masks, reads = [-1, -1], {}
    allowed = [1] * ngens

    def add_checks(level, joined):
        for group, new in joined.items():
            checks[level].append((reads.get(group, 0), len(masks), new))
            reads[group] = len(masks)
            masks.append(-1)

    for k in range(ngens - 1, -1, -1):
        joined = {}
        for i, succ in moves[k]:
            tail = suffix[i]
            if tail is None:
                if orders[k] > cap:
                    final_at[k + 1].append(i)
                tail = empty
            elif tail is capped:
                continue
            else:
                joined.setdefault(tail[0], []).append((i, tail[1]))
            key = (k, id(succ), id(tail))
            if key not in suffix_of:
                group, hits = tail
                if hits.size * orders[k] > cap:
                    suffix_of[key] = capped
                else:
                    entry = (id(succ), orders[k], id(hits))
                    if entry not in hits_of:
                        hits_of[entry] = _Hits(succ, orders[k], hits)
                    suffix_of[key] = (group_of.setdefault((k, group), len(group_of)),
                                      hits_of[entry])
            suffix[i] = suffix_of[key]
        add_checks(k + 1, joined)
        if (k, None) in group_of:
            allowed[k] = reads[group_of[k, None]] = len(masks)
            masks.append(-1)
    joined = {}
    for i, tail in enumerate(suffix):
        if tail is None:
            final_at[0].append(i)
        elif tail is not capped:
            joined.setdefault(tail[0], []).append((i, tail[1]))
    add_checks(0, joined)
    point = list(xstar)
    nodes = 0

    def dfs(k: int, stack) -> Optional[Tuple[int, ...]]:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise _BudgetExceeded
        for i in final_at[k]:
            if point[i] not in members:
                return None
        for write, read, new in checks[k]:
            mask = masks[read]
            for i, hits in new:
                mask &= hits[point[i]]
                if not mask:
                    return None
            masks[write] = mask
        if k == ngens:
            return tuple(stack)
        move = moves[k]
        saved = [point[i] for i, _ in move]
        digits = masks[allowed[k]]
        for digit in range(orders[k]):
            if not digits >> digit:
                break
            if digit:
                for i, succ in move:
                    point[i] = succ[point[i]]
            if digits >> digit & 1:
                stack.append(digit)
                found = dfs(k + 1, stack)
                if found is not None:
                    return found
                stack.pop()
        for (i, _), x in zip(move, saved):
            point[i] = x
        return None

    try:
        cert = dfs(0, [])
    except _BudgetExceeded:
        return SolveResult("budget_exceeded", nodes=nodes)
    finally:
        # dfs refers to itself, so its tables would wait for the cycle collector
        del dfs
    if cert is None:
        return SolveResult("no", nodes=nodes)
    return SolveResult("yes", cert, nodes=nodes)
