"""Text formats for groups, subsets, instances, graphs, and pipelines.

Everything is UTF-8, line oriented, with '#' starting a comment that runs
to the end of the line.  Serializers emit a canonical form (sorted where
an order is not semantically fixed) and parse(format(x)) == x for every
value; formatting a parsed file reproduces it byte for byte as long as it
was canonical to begin with.

Instance files repeat a few group elements in many cells.  The instance
serializer formats each distinct value once, and the instance parser
parses and checks each distinct element token once, each through a
`model.Memo` that lives for one call and fills itself as the cells are
looked up.  The parser checks each row's length as it splits the row, so
every error names its line, and the instance is built by
`ProblemInstance._derived` without checking its cells again.
"""

from __future__ import annotations

import re
from typing import Iterable, List, Optional, Sequence, Tuple

from .groups import (
    FiniteAbelianGroup,
    GroupElement,
    Homomorphism,
    SubgroupGens,
)
from .model import Memo, ProblemInstance, SubsetS
from .transforms import Graph, check_injective
from .hardness import (
    DivideOutLift,
    GadgetColoringFull,
    GadgetS01,
    KColFrom3Col,
    MapThrough,
    PiFromP,
    ReductionPipeline,
    Step,
    TraceRecord,
    TransformDouble,
    Translate,
)

# groups larger than this are rejected at the parse boundary: `gen --kind subset`
# still lists G, so larger orders buy hangs there.  Compiling lists no group; the
# cost left at this bound is the default K4 self-check, which can exceed its budget
MAX_ORDER = 1 << 20


class ParseError(ValueError):
    pass


def _fail(msg: str, lineno: Optional[int] = None):
    where = f"line {lineno}: " if lineno is not None else ""
    raise ParseError(where + msg)


def _logical_lines(text: str) -> List[Tuple[int, str]]:
    """(lineno, content) with comments stripped and blanks dropped."""
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((i, line))
    return out


# --- groups ------------------------------------------------------------------


def format_group(G: FiniteAbelianGroup) -> str:
    if G.dim == 0:
        return "1"
    if any(d < 2 for d in G.moduli):
        raise ValueError("groups with trivial factors have no canonical text form")
    return ",".join(str(d) for d in G.moduli)


def parse_group(s: str, lineno: Optional[int] = None) -> FiniteAbelianGroup:
    s = s.strip()
    if s == "1":
        return FiniteAbelianGroup(())
    if not re.fullmatch(r"\d+(,\d+)*", s):
        _fail(f"bad group {s!r}: expected comma-separated moduli like 4 or 2,4", lineno)
    moduli = tuple(int(d) for d in s.split(","))
    if any(d < 2 for d in moduli):
        _fail(f"bad group {s!r}: moduli must be >= 2 (the trivial group is written 1)",
              lineno)
    G = FiniteAbelianGroup(moduli)
    if G.order > MAX_ORDER:
        _fail(f"group order {G.order} exceeds the supported bound {MAX_ORDER}", lineno)
    return G


# --- elements and tuple lists ------------------------------------------------


def format_element(e: GroupElement) -> str:
    return "(" + ",".join(str(c) for c in e) + ")"


_TUPLE_RE = re.compile(r"\((?:-?\d+(?:,-?\d+)*)?\)")


def _parse_int_tuple(s: str, lineno: Optional[int] = None) -> Tuple[int, ...]:
    if not _TUPLE_RE.fullmatch(s):
        _fail(f"bad tuple {s!r}: expected (a,b,...)", lineno)
    body = s[1:-1]
    return tuple(int(v) for v in body.split(",")) if body else ()


def parse_element(G: FiniteAbelianGroup, s: str, lineno: Optional[int] = None) -> GroupElement:
    e = _parse_int_tuple(s, lineno)
    if len(e) != G.dim:
        _fail(f"element {s} has {len(e)} coordinates, group has {G.dim}", lineno)
    if not G.contains(e):
        _fail(f"element {s} out of range for group {format_group(G)}", lineno)
    return e


def _format_tuple_list(items: Iterable[Tuple[int, ...]]) -> str:
    return ",".join(format_element(t) for t in items)


def _parse_tuple_list(s: str, lineno: Optional[int] = None,
                      G: Optional[FiniteAbelianGroup] = None) -> Tuple[Tuple[int, ...], ...]:
    """Comma-separated tuples, checked as elements of G when G is given.
    The list splits only between ')' and '(', so a malformed list names
    its first bad tuple."""
    if not s:
        return ()
    toks = re.split(r"(?<=\)),(?=\()", s)
    if G is None:
        return tuple(_parse_int_tuple(tok, lineno) for tok in toks)
    return tuple(parse_element(G, tok, lineno) for tok in toks)


# --- subsets -----------------------------------------------------------------


def format_subset(S: SubsetS) -> str:
    """Canonical brace literal, sorted; bare residues for cyclic groups."""
    elems = S.sorted_elements()
    if S.group.dim == 1:
        return "{" + ",".join(str(e[0]) for e in elems) + "}"
    return "{" + ",".join(format_element(e) for e in elems) + "}"


def _parse_residue(G: FiniteAbelianGroup, part: str, lineno: Optional[int]) -> GroupElement:
    """A bare residue as an element of the cyclic group G."""
    if not re.fullmatch(r"\d+", part):
        _fail(f"bad subset entry {part!r}", lineno)
    if int(part) >= G.moduli[0]:
        _fail(f"subset entry {part} out of range for group {format_group(G)}", lineno)
    return (int(part),)


def _parse_subset_literal(G: FiniteAbelianGroup, s: str,
                          lineno: Optional[int] = None) -> SubsetS:
    if not (s.startswith("{") and s.endswith("}")):
        _fail(f"bad subset literal {s!r}: expected {{...}}", lineno)
    body = s[1:-1].strip()
    if not body:
        return SubsetS.of(G, [])
    if body.startswith("("):
        return SubsetS.of(G, _parse_tuple_list(body.replace(" ", ""), lineno, G))
    if G.dim != 1:
        _fail("bare residues in a subset literal need a cyclic group", lineno)
    return SubsetS.of(G, [_parse_residue(G, part.strip(), lineno)
                          for part in body.split(",")])


def parse_subset(G: FiniteAbelianGroup, text: str) -> SubsetS:
    """Either one brace literal or one element per line."""
    lines = _logical_lines(text)
    if not lines:
        _fail("empty subset input")
    if len(lines) == 1 and lines[0][1].startswith("{"):
        return _parse_subset_literal(G, lines[0][1], lines[0][0])
    elems = []
    for lineno, line in lines:
        if line.startswith("("):
            elems.append(parse_element(G, line, lineno))
        elif re.fullmatch(r"\d+", line) and G.dim == 1:
            elems.append(_parse_residue(G, line, lineno))
        else:
            _fail(f"bad subset line {line!r}", lineno)
    return SubsetS.of(G, elems)


# --- instances ---------------------------------------------------------------


def format_instance(inst: ProblemInstance, header: Sequence[str] = ()) -> str:
    texts = Memo(format_element)

    def row_text(row) -> str:
        return " ".join(map(texts.__getitem__, row))

    lines = [f"# {h}" for h in header]
    lines.append(f"group: {format_group(inst.group)}")
    lines.append(f"t: {inst.t}")
    lines.append(("xstar: " + row_text(inst.xstar)).rstrip())
    for gen in inst.hgens:
        lines.append(("gen: " + row_text(gen)).rstrip())
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> ProblemInstance:
    lines = _logical_lines(text)
    if len(lines) < 3:
        _fail("instance file needs group:, t: and xstar: lines")
    fields = []
    for lineno, line in lines:
        if ":" not in line:
            _fail(f"expected 'key: value', got {line!r}", lineno)
        key, _, rest = line.partition(":")
        fields.append((lineno, key.strip(), rest.strip()))
    (l0, k0, v0), (l1, k1, v1), (l2, k2, v2) = fields[0], fields[1], fields[2]
    if k0 != "group":
        _fail("instance file must start with a group: line", l0)
    G = parse_group(v0, l0)
    if k1 != "t" or not re.fullmatch(r"\d+", v1):
        _fail("second line must be 't: N'", l1)
    t = int(v1)
    if k2 != "xstar":
        _fail("third line must be 'xstar: ...'", l2)
    # token -> element for this file: each distinct token is parsed once, and
    # an error names the line being split, read from the loop below
    parsed = Memo(lambda tok: parse_element(G, tok, lineno))
    rows = []
    for lineno, key, rest in fields[2:]:
        if rows and key != "gen":
            _fail(f"unexpected line key {key!r}", lineno)
        toks = rest.split()
        rows.append(tuple(map(parsed.__getitem__, toks)))
        if len(toks) != t:
            name = "generator" if len(rows) > 1 else "xstar"
            _fail(f"{name} has length {len(toks)}, expected t={t}", lineno)
    return ProblemInstance._derived(G, t, rows[0], tuple(rows[1:]), parsed.values())


# --- graphs (DIMACS-like) ----------------------------------------------------


def format_graph(graph: Graph, header: Sequence[str] = ()) -> str:
    lines = [f"c {h}" for h in header]
    lines.append(f"p edge {graph.n} {len(graph.edges)}")
    for u, v in graph.sorted_edges():
        lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    n = m = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if n is not None:
                _fail("duplicate problem line", lineno)
            mm = re.fullmatch(r"p\s+edge\s+(\d+)\s+(\d+)", line)
            if not mm:
                _fail(f"bad problem line {line!r}", lineno)
            n, m = int(mm.group(1)), int(mm.group(2))
        elif line.startswith("e"):
            if n is None:
                _fail("edge before the problem line", lineno)
            mm = re.fullmatch(r"e\s+(\d+)\s+(\d+)", line)
            if not mm:
                _fail(f"bad edge line {line!r}", lineno)
            u, v = int(mm.group(1)), int(mm.group(2))
            if not (1 <= u <= n and 1 <= v <= n):
                _fail(f"edge endpoint out of range in {line!r}", lineno)
            if u == v:
                _fail(f"self-loop in {line!r}", lineno)
            edges.append((u, v))
        else:
            _fail(f"unrecognized line {line!r}", lineno)
    if n is None:
        _fail("missing problem line 'p edge N M'")
    if m != len(edges):
        _fail(f"problem line promises {m} edges, file has {len(edges)}")
    graph = Graph.of(n, edges)
    if len(graph.edges) != len(edges):
        _fail("duplicate edges in graph file")
    return graph


# --- certificates and colorings ----------------------------------------------


def format_int_line(values: Sequence[int]) -> str:
    return ",".join(str(v) for v in values) + "\n"


def parse_int_line(text: str) -> Tuple[int, ...]:
    lines = _logical_lines(text)
    if not lines:
        return ()
    if len(lines) > 1:
        _fail("expected a single line of comma-separated integers")
    lineno, line = lines[0]
    if not re.fullmatch(r"-?\d+(\s*,\s*-?\d+)*", line):
        _fail(f"bad integer list {line!r}", lineno)
    return tuple(int(v) for v in line.split(","))


# --- pipelines ---------------------------------------------------------------


def _hom_params(hom: Homomorphism) -> str:
    rows = _format_tuple_list(hom.matrix)
    return (
        f"source={format_group(hom.source)} target={format_group(hom.target)} "
        f"rows={rows}"
    )


def _format_step(step: Step) -> str:
    if isinstance(step, Translate):
        return f"step: translate group={format_group(step.group)} g={format_element(step.g)}"
    if isinstance(step, MapThrough):
        return f"step: map-through {_hom_params(step.hom)}"
    if isinstance(step, DivideOutLift):
        K = step.kernel
        return (
            f"step: divide-out group={format_group(K.group)} "
            f"kernel={_format_tuple_list(K.gens)}"
        )
    if isinstance(step, TransformDouble):
        G = step.hom.source
        return (
            f"step: double group={format_group(G)} "
            f"rows={_format_tuple_list(step.hom.matrix)} g={format_element(step.g)}"
        )
    if isinstance(step, PiFromP):
        return (
            f"step: pi-from-p group={format_group(step.group)} "
            f"order={_format_tuple_list(step.order)}"
        )
    if isinstance(step, GadgetS01):
        return f"step: gadget-s01 group={format_group(step.group)}"
    if isinstance(step, GadgetColoringFull):
        return f"step: gadget-coloring-full group={format_group(step.group)}"
    if isinstance(step, KColFrom3Col):
        return f"step: kcol-from-3col k={step.k}"
    raise ValueError(f"unknown step {step!r}")


def _parse_kv(parts: List[str], lineno: int):
    kv = {}
    for part in parts:
        if "=" not in part:
            _fail(f"expected key=value, got {part!r}", lineno)
        k, _, v = part.partition("=")
        if k in kv:
            _fail(f"duplicate key {k!r}", lineno)
        kv[k] = v
    return kv


def _need(kv, keys, lineno: int):
    if set(kv) != set(keys):
        _fail(f"expected keys {sorted(keys)}, got {sorted(kv)}", lineno)


def _parse_step(body: str, lineno: int) -> Step:
    parts = body.split()
    if not parts:
        _fail("empty step line", lineno)
    try:
        return _build_step(parts[0], _parse_kv(parts[1:], lineno), lineno)
    except ParseError:
        raise
    except ValueError as e:  # a step or homomorphism that rejects its parameters
        _fail(str(e), lineno)


def _build_step(name: str, kv, lineno: int) -> Step:
    if name == "translate":
        _need(kv, ("group", "g"), lineno)
        G = parse_group(kv["group"], lineno)
        return Translate(G, parse_element(G, kv["g"], lineno))
    if name == "map-through":
        _need(kv, ("source", "target", "rows"), lineno)
        src, tgt = parse_group(kv["source"], lineno), parse_group(kv["target"], lineno)
        hom = Homomorphism(src, tgt, _parse_tuple_list(kv["rows"], lineno))
        # injectivity is checked here, not in MapThrough: the compiler builds
        # only embeddings, and a constructor check would slow every compile
        check_injective(hom)
        return MapThrough(hom)
    if name == "divide-out":
        _need(kv, ("group", "kernel"), lineno)
        G = parse_group(kv["group"], lineno)
        return DivideOutLift(SubgroupGens(G, _parse_tuple_list(kv["kernel"], lineno, G)))
    if name == "double":
        _need(kv, ("group", "rows", "g"), lineno)
        G = parse_group(kv["group"], lineno)
        return TransformDouble(Homomorphism(G, G, _parse_tuple_list(kv["rows"], lineno)),
                               parse_element(G, kv["g"], lineno))
    if name == "pi-from-p":
        _need(kv, ("group", "order"), lineno)
        G = parse_group(kv["group"], lineno)
        return PiFromP(G, _parse_tuple_list(kv["order"], lineno, G))
    if name == "gadget-s01":
        _need(kv, ("group",), lineno)
        return GadgetS01(parse_group(kv["group"], lineno))
    if name == "gadget-coloring-full":
        _need(kv, ("group",), lineno)
        return GadgetColoringFull(parse_group(kv["group"], lineno))
    if name == "kcol-from-3col":
        _need(kv, ("k",), lineno)
        if not re.fullmatch(r"\d+", kv["k"]):
            _fail(f"bad k {kv['k']!r}", lineno)
        return KColFrom3Col(int(kv["k"]))
    _fail(f"unknown step {name!r}", lineno)


def format_pipeline(pipe: ReductionPipeline, header: Sequence[str] = ()) -> str:
    lines = [f"# {h}" for h in header]
    lines.append(f"variant: {pipe.variant}")
    lines.append(f"group: {format_group(pipe.group)}")
    lines.append(f"subset: {format_subset(pipe.subset)}")
    for step in pipe.steps:
        lines.append(_format_step(step))
    for rec in pipe.trace:
        kvs = "".join(f" {k}={v}" for k, v in rec.info)
        lines.append(f"trace: {rec.kind}{kvs}")
    return "\n".join(lines) + "\n"


def parse_pipeline(text: str) -> ReductionPipeline:
    lines = _logical_lines(text)
    if len(lines) < 3:
        _fail("pipeline file needs variant:, group: and subset: lines")
    header = {}
    for lineno, line in lines[:3]:
        key, _, rest = line.partition(":")
        key = key.strip()
        if key not in ("variant", "group", "subset") or key in header:
            _fail("pipeline file must start with variant:, group:, subset:", lineno)
        header[key] = (lineno, rest.strip())
    variant = header["variant"][1]
    if variant not in ("P", "Pi"):
        _fail(f"bad variant {variant!r}", header["variant"][0])
    G = parse_group(header["group"][1], header["group"][0])
    S = _parse_subset_literal(G, header["subset"][1], header["subset"][0])
    steps: List[Step] = []
    trace: List[TraceRecord] = []
    for lineno, line in lines[3:]:
        key, _, rest = line.partition(":")
        key, rest = key.strip(), rest.strip()
        if key == "step":
            if trace:
                _fail("step line after trace lines", lineno)
            steps.append(_parse_step(rest, lineno))
        elif key == "trace":
            parts = rest.split()
            if not parts:
                _fail("empty trace line", lineno)
            kv = _parse_kv(parts[1:], lineno)
            trace.append(TraceRecord(parts[0], tuple(kv.items())))
        else:
            _fail(f"unexpected line key {key!r}", lineno)
    return ReductionPipeline(G, S, variant, tuple(steps), tuple(trace))
