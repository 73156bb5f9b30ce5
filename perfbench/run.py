"""cosetint benchmark: one workload, one seed, one closed loop.

    python3 perfbench/run.py --workload tractable-solve --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  The workload's items are generated from
the seed during set-up; the timed phase then runs them in order, one at a
time in this process, in whole passes over the pool, until another pass
would end after --seconds.  Every outcome is checked against the
references in refs.py; a wrong answer stops the run with exit code 1.

With --trace 0 the last line of output is a JSON object with the
end-to-end metrics.  With --trace 1 the calls into cosetint are wrapped
(see spans.py), the JSON object carries the per-layer metrics instead, and
the spans are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_REPEATS = 3
IMPORT_REPEATS = 7
# Times are scaled to a host on which speed_kernel() takes this long.  The
# kernel runs after every item, and each item's time (and, traced, the time
# of each of its spans) is multiplied by REF_KERNEL_S over the median kernel
# time around it.  On a shared 2-core KVM guest (Xeon, 2.0 GHz) the raw time
# of one pass of tractable-solve varied by a factor of 1.77 within three
# minutes while the scaled time stayed within 7% of its median.
REF_KERNEL_S = 0.0013
KERNEL_WINDOW = 7
# a pass is cut short only after this long, so a slow program still ends in time
HARD_STOP_S = 120.0

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("decided_share", "share", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


def speed_kernel():
    """Fixed pure-Python work shaped like modular elimination."""
    rows = [[(i * j + 1) % 97 for j in range(24)] for i in range(24)]
    for r in range(24):
        for i in range(24):
            if i != r:
                f = rows[i][r]
                rows[i] = [(a - f * b) % 4093 for a, b in zip(rows[i], rows[r])]
    return len({tuple(row[:4]) for row in rows})


def kernel_seconds():
    t0 = time.perf_counter()
    speed_kernel()
    return time.perf_counter() - t0


def speed_factors(kernel):
    """REF_KERNEL_S over the median kernel time within KERNEL_WINDOW of each index."""
    w = KERNEL_WINDOW
    return [REF_KERNEL_S / statistics.median(kernel[max(0, i - w):i + w + 1])
            for i in range(len(kernel))]


def import_seconds():
    """Time of `import cosetint` in a fresh interpreter, and the median
    kernel time measured there right after it."""
    code = ("import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
            "import cosetint; d = time.perf_counter() - t; import run, statistics; "
            "print(d, statistics.median(run.kernel_seconds() for _ in range(5)))")
    out = subprocess.run([sys.executable, "-c", code, str(SRC), str(HERE)],
                         capture_output=True, text=True, timeout=60, check=True)
    return tuple(float(v) for v in out.stdout.split())


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Tally:
    """What the timed phase has done so far."""

    def __init__(self):
        self.latencies = []
        self.kernel = []
        self.decided = 0
        self.errors = Counter()
        self.passes = 0.0


def timed_loop(wl, items, seconds, tracer, tally):
    """Run whole passes over items, recording each item in tally."""
    quiet = tracer.paused if tracer else contextlib.nullcontext
    start = time.perf_counter()
    while True:
        for item in items:
            if tracer:
                tracer.current_item = len(tally.latencies)
            t0 = time.perf_counter()
            try:
                outcome = wl.run(item)
            except Exception as exc:  # the program failed on this item
                outcome = exc
            tally.latencies.append(time.perf_counter() - t0)
            if isinstance(outcome, Exception):
                tally.errors[type(outcome).__name__] += 1
            with quiet():
                tally.decided += bool(wl.check(item, outcome))
            tally.kernel.append(kernel_seconds())
            if time.perf_counter() - start > max(seconds, HARD_STOP_S):
                break
        tally.passes = len(tally.latencies) / len(items)
        elapsed = time.perf_counter() - start
        if tally.passes % 1 or elapsed * (tally.passes + 1) / tally.passes > seconds:
            break
    if tracer:
        tracer.current_item = -1


def report(correct, attempted, failed, metrics, units):
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cosetint" / "__init__.py").is_file():
        print(f"perfbench: no cosetint sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    import workloads
    from refs import WrongAnswer

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install([workloads])

    tally = Tally()
    imports = [import_seconds() for _ in range(1 if tracer else IMPORT_REPEATS)]
    import_s = REF_KERNEL_S * statistics.median(d / k for d, k in imports)
    try:
        setups, setup_kernel = [], []
        for _ in range(1 if tracer else SETUP_REPEATS):
            t0 = time.perf_counter()
            items = wl.setup(args.seed)
            setups.append(time.perf_counter() - t0)
            setup_kernel.append(statistics.median(kernel_seconds() for _ in range(9)))
        timed_loop(wl, items, args.seconds, tracer, tally)
    except WrongAnswer as exc:
        print(f"perfbench: WRONG ANSWER on {args.workload} seed {args.seed} "
              f"at item {len(tally.latencies)}: {exc}", file=sys.stderr)
        attempted = max(len(tally.latencies), 1)
        report(False, attempted, attempted - tally.decided, {}, {})
        return 1

    latencies, decided, passes = tally.latencies, tally.decided, tally.passes
    attempted = len(latencies)
    failed = attempted - decided
    setup_s = import_s + REF_KERNEL_S * statistics.median(
        d / k for d, k in zip(setups, setup_kernel))
    factors = speed_factors(tally.kernel)
    lat = sorted(d * f for d, f in zip(latencies, factors))
    e2e = {
        "setup_s": setup_s,
        "items_per_s": decided / sum(lat),
        "latency_p50_ms": 1000 * nearest_rank(lat, 0.5),
        "latency_p90_ms": 1000 * nearest_rank(lat, 0.9),
        "decided_share": decided / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    beyond = attempted - math.ceil(0.9 * attempted)
    print(f"# {args.workload} seed {args.seed}: {attempted} items in {passes:g} passes "
          f"of {len(items)}, {failed} failed {dict(tally.errors)}; "
          f"latency samples {attempted}, {beyond} beyond p90")
    raw = sorted(latencies)
    raw_setup = statistics.median(d for d, _ in imports) + statistics.median(setups)
    print(f"# unscaled: set-up {raw_setup} s, "
          f"{decided / sum(raw)} items/s, p50 {1000 * nearest_rank(raw, 0.5)} ms, "
          f"p90 {1000 * nearest_rank(raw, 0.9)} ms; median kernel "
          f"{statistics.median(tally.kernel) * 1000} ms")
    if tracer:
        for name, _, _ in END_TO_END[1:5]:
            print(f"# traced {name} = {e2e[name]}")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        dump = out_dir / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.dump(dump)
        print(f"# {len(tracer.start)} spans written to {dump.relative_to(HERE.parent)}")
        metrics = tracer.layer_metrics(passes, factors, REF_KERNEL_S / setup_kernel[0])
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
    else:
        metrics = e2e
        units = {name: unit for name, unit, _ in END_TO_END}
    report(True, attempted, failed, metrics, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
