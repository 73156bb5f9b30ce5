"""Spans around calls into cosetint, recorded from outside the package.

`Tracer.install` wraps each public function listed in `LAYERS` and rebinds
every module-level name that refers to it, in the cosetint modules and in
the modules passed in, so calls between cosetint modules are traced too.
Nothing under src/ changes.  Each call records its span name, start, end,
parent span, the current item id and one integer measured from its
arguments or result.  Spans stay in memory until the run ends.

Element arithmetic (`FiniteAbelianGroup.add` and friends) and the data
model's constructors are not wrapped; their time is self time of the
calling span.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import sys
import time
from array import array
from collections import defaultdict


def _cells(args, result, exc):
    mat = args[0]
    return len(mat) * (len(mat[0]) if mat else 0)


def _out_cells(args, result, exc):
    if result is None:
        return 0
    inst = result[0] if isinstance(result, tuple) else result
    return inst.t * len(inst.hgens)


def _text_in(args, result, exc):
    return len(args[0])


def _text_out(args, result, exc):
    return 0 if result is None else len(result)


VERDICTS = ("yes", "no", "budget_exceeded")


def _verdict(args, result, exc):
    return -1 if result is None else VERDICTS.index(result.kind)


def _raised(args, result, exc):
    return int(exc is not None)


def _steps(args, result, exc):
    return 0 if result is None else len(result.steps)


# (module, function or Class.method, span name, measure)
LAYERS = (
    ("groups", "solve_linear_congruence", "groups.solve", _cells),
    ("groups", "smith_normal_form", "groups.snf", None),
    ("groups", "quotient_group", "groups.quotient", None),
    ("groups", "QuotientMap.lift", "groups.lift", None),
    ("groups", "subgroup_enumerate", "groups.enumerate", None),
    ("groups", "subgroup_membership", "groups.membership", None),
    ("groups", "subgroup_reduce_gens", "groups.reduce_gens", None),
    ("groups", "subgroup_abstract", "groups.abstract", None),
    ("groups", "kernel_of_hom", "groups.kernel", None),
    ("groups", "hom_preimage", "groups.preimage", None),
    ("classify", "classify_affine", "classify", None),
    ("classify", "classify_homogeneous", "classify", None),
    ("classify", "dilation_core", "classify.core", None),
    ("classify", "find_noncoset_witness", "classify.witness", None),
    ("classify", "is_coset", "classify.coset", None),
    ("polysolve", "solve_affine_coset", "polysolve", None),
    ("polysolve", "solve_homogeneous_core", "polysolve", None),
    ("model", "oracle_solve", "model.oracle", _verdict),
    ("model", "verify_certificate", "model.verify", None),
    ("transforms", "gadget_s01", "transforms.gadget", _out_cells),
    ("transforms", "gadget_coloring_full", "transforms.gadget", _out_cells),
    ("transforms", "translate_instance", "transforms.translate", _out_cells),
    ("transforms", "map_instance", "transforms.map", _out_cells),
    ("transforms", "divideout_lift", "transforms.divideout", _out_cells),
    ("transforms", "transform_double", "transforms.double", _out_cells),
    ("transforms", "pi_from_p", "transforms.pi_from_p", _out_cells),
    ("transforms", "phi_fixed_subset", "transforms.phi", None),
    ("transforms", "kcol_from_3col", "transforms.kcol", None),
    ("formats", "parse_instance", "formats.parse", _text_in),
    ("formats", "parse_pipeline", "formats.parse", _text_in),
    ("formats", "parse_graph", "formats.parse", _text_in),
    ("formats", "parse_subset", "formats.parse", _text_in),
    ("formats", "format_instance", "formats.format", _text_out),
    ("formats", "format_pipeline", "formats.format", _text_out),
    ("formats", "format_graph", "formats.format", _text_out),
    ("formats", "format_subset", "formats.format", _text_out),
    ("hardness", "compile_hardness", "hardness.compile", _steps),
    ("hardness", "compile_hardness_P", "hardness.compile", _steps),
    ("hardness", "compile_hardness_Pi", "hardness.compile", _steps),
    ("hardness", "apply_pipeline", "hardness.apply", None),
    ("hardness", "apply_steps_to_instance", "hardness.apply", None),
    ("hardness", "run_selfcheck", "hardness.selfcheck", _raised),
    ("hardness", "verify_trace", "hardness.verify_trace", None),
)

MODULES = ("groups", "classify", "polysolve", "model", "transforms", "formats", "hardness")
TRANSFORM_STEPS = ("gadget", "translate", "map", "divideout", "double", "pi_from_p")


def _metric_table():
    """(name, unit, better) for every per-layer metric, in output order."""
    out = [("groups.solve.calls", "count", "lower"), ("groups.solve.busy_s", "s", "lower"),
           ("groups.solve.cells", "cells", "lower")]
    for op in ("snf", "quotient", "lift", "enumerate"):
        out += [(f"groups.{op}.calls", "count", "lower"), (f"groups.{op}.busy_s", "s", "lower")]
    out += [("classify.calls", "count", "lower"), ("classify.busy_s", "s", "lower"),
            ("classify.core.busy_s", "s", "lower"), ("classify.witness.busy_s", "s", "lower"),
            ("polysolve.calls", "count", "lower"), ("polysolve.busy_s", "s", "lower"),
            ("model.oracle.calls", "count", "lower"), ("model.oracle.busy_s", "s", "lower"),
            ("model.oracle.yes", "count", "higher"), ("model.oracle.no", "count", "higher"),
            ("model.oracle.budget_exceeded", "count", "lower"),
            ("model.verify.busy_s", "s", "lower")]
    for step in TRANSFORM_STEPS:
        out += [(f"transforms.{step}.calls", "count", "lower"),
                (f"transforms.{step}.busy_s", "s", "lower"),
                (f"transforms.{step}.out_cells", "cells", "lower")]
    for op in ("parse", "format"):
        out += [(f"formats.{op}.calls", "count", "lower"), (f"formats.{op}.busy_s", "s", "lower"),
                (f"formats.{op}.bytes", "bytes", "lower")]
    for op in ("compile", "apply", "selfcheck", "verify_trace"):
        out += [(f"hardness.{op}.calls", "count", "lower"), (f"hardness.{op}.busy_s", "s", "lower")]
    out += [("hardness.selfcheck.failed", "count", "lower"), ("hardness.steps", "count", "lower")]
    out += [(f"{m}.self_s", "s", "lower") for m in MODULES]
    # the one layer that works during set-up (replay-gnp compiles its pipelines)
    out += [("setup.hardness.compile.calls", "count", "lower"),
            ("setup.hardness.compile.busy_s", "s", "lower")]
    return tuple(out)


PER_LAYER = _metric_table()

# the integer each span records, summed over outermost spans of the name
VALUE_METRICS = {
    "groups.solve": "groups.solve.cells",
    "formats.parse": "formats.parse.bytes",
    "formats.format": "formats.format.bytes",
    "hardness.selfcheck": "hardness.selfcheck.failed",
    "hardness.compile": "hardness.steps",
    **{f"transforms.{s}": f"transforms.{s}.out_cells" for s in TRANSFORM_STEPS},
}


class Tracer:
    """In-memory span log with the wrappers that fill it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.value = array("q")
        self.start = array("d")
        self.end = array("d")
        self.current_item = -1
        self._stack = []
        self._paused = False
        self._patches = []
        self.origin = time.perf_counter()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside record no spans (the benchmark's own checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _wrap(self, fn, span_name, measure):
        nid = self._ids.setdefault(span_name, len(self.names))
        if nid == len(self.names):
            self.names.append(span_name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.item.append(self.current_item)
            self.value.append(0)
            self.end.append(0.0)
            stack.append(idx)
            result = exc = None
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()
                if measure is not None:
                    self.value[idx] = measure(args, result, exc)

        return traced

    def install(self, callers=()):
        """Wrap every function in LAYERS and rebind the names that refer to
        it in the cosetint modules and in `callers`."""
        for mod_name, attr, span_name, measure in LAYERS:
            module = importlib.import_module("cosetint." + mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, span_name, measure))
                continue
            orig = getattr(module, attr)
            wrapped = self._wrap(orig, span_name, measure)
            holders = [m for n, m in list(sys.modules.items())
                       if n == "cosetint" or n.startswith("cosetint.")]
            for holder in holders + list(callers):
                for key, val in list(vars(holder).items()):
                    if val is orig:
                        self._patches.append((holder, key, orig))
                        setattr(holder, key, wrapped)

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def layer_metrics(self, passes, factors, setup_factor):
        """Per-layer metrics for one pass over the items, and for one set-up
        under names starting with "setup.".

        A span of item i lasts its measured time times factors[i], a set-up
        span its measured time times setup_factor.  Calls, busy time and
        recorded values count outermost spans of each name only (a span
        nested in one of the same name adds nothing).  Self time is a span's
        duration minus that of its child spans, summed per module.
        """
        n = len(self.start)
        names, parent = self.name, self.parent
        dur = [(e - s) * (factors[i] if i >= 0 else setup_factor)
               for s, e, i in zip(self.start, self.end, self.item)]
        child = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        setup, timed = defaultdict(float), defaultdict(float)
        for i in range(n):
            acc = setup if self.item[i] < 0 else timed
            span = self.names[names[i]]
            acc[span.split(".")[0] + ".self_s"] += dur[i] - child[i]
            p = parent[i]
            while p >= 0 and names[p] != names[i]:
                p = parent[p]
            if p >= 0:
                continue
            acc[span + ".calls"] += 1
            acc[span + ".busy_s"] += dur[i]
            if span == "model.oracle":
                if self.value[i] >= 0:
                    acc[f"model.oracle.{VERDICTS[self.value[i]]}"] += 1
            elif span in VALUE_METRICS:
                acc[VALUE_METRICS[span]] += self.value[i]
        return {name: setup[name[6:]] if name.startswith("setup.") else timed[name] / passes
                for name, _, _ in PER_LAYER}

    def dump(self, path):
        """Write every span as gzip'd tab-separated text."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\titem\tname\tstart_s\tend_s\tvalue\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.item[i]}\t{self.names[self.name[i]]}\t"
                         f"{self.start[i] - self.origin:.9f}\t{self.end[i] - self.origin:.9f}\t"
                         f"{self.value[i]}\n")
