"""Benchmark of the ``matroidbetti`` command line, one workload per process.

    python3 perfbench/run.py --workload sweep-gf2 --seed 1 --seconds 30 --trace 0
    for w in sweep-gf2 sweep-odd structure; do python3 perfbench/run.py --workload $w; done

Every item goes through ``matroidbetti.cli.main(argv)`` in this process with
standard output captured: one caller, one thread, a closed loop in which the
next item starts only after the previous one returned. A pass sends every
item of the workload once, in its seeded order; passes repeat until the next
one would end after ``--seconds`` (at least two passes, so the tail
percentile has ten items above it). Each answer is checked against the
reference after the pass, outside the timed region, and each item runs under
a time limit, so a hang counts as a failed item.

The host's speed drifts: on a shared 2-vCPU machine the same work takes up
to 1.7 times as long from one stretch of seconds to the next, and the drift
slows the library and any other Python code alike. So in untraced passes a
fixed calibration that does not use the library (the reference Betti table
of fixture g1, about 10 ms) runs before the first item and after every item,
and each time is scaled by ``CALIBRATION_REF_S`` over the mean of the two
calibrations around it. The reported times read as on a host where the
calibration takes 10 ms; the text lines also give them unscaled, with the
calibration's median. ``setup_s`` is scaled the same way.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes over the same items and prints the per-layer
metrics of ``tracing.per_layer`` per traced pass, including the tracing
overhead; the spans are written to ``perfbench/out/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 1 when any answer
is wrong.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
MIN_PASSES = 2
ITEM_LIMIT_S = 20.0
# Start no item after this, so a run that keeps timing out still ends in time.
RUN_LIMIT_S = 140.0
# Times are scaled to a host on which ``calibrate`` takes this long.
CALIBRATION_REF_S = 0.010
_CAL_VERTICES, _CAL_EDGES = workloads.FIXTURES["g1"]
_CAL_RANK = reference.graph_rank(_CAL_VERTICES, _CAL_EDGES)


class ItemTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ItemTimeout


def tail_percentile(items_per_pass: int) -> int:
    """Highest percentile of the ladder that leaves at least ten of the
    MIN_PASSES * items_per_pass samples above it."""
    n = MIN_PASSES * items_per_pass
    return next(p for p in (99, 95, 90, 80, 75, 50) if n * (100 - p) >= 1000)


def calibrate() -> float:
    """Seconds a fixed piece of pure-Python work takes now: the reference
    Betti table of g1, computed without the library."""
    t0 = perf_counter()
    reference.euler_betti(len(_CAL_EDGES), _CAL_RANK)
    return perf_counter() - t0


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` as on a host where the calibration takes
    CALIBRATION_REF_S, given the calibrations just before and after."""
    return seconds * 2 * CALIBRATION_REF_S / (before + after)


def nearest_rank(sorted_values: list[float], pct: int) -> float:
    k = max(1, -(-pct * len(sorted_values) // 100))
    return sorted_values[k - 1]


class ScaledClock:
    """Sums laps, each timed from the end of the previous one and scaled by
    the calibrations just before and after it; the calibrations themselves
    are not counted."""

    def __init__(self) -> None:
        self.total = 0.0
        self.before = calibrate()
        self.t = perf_counter()

    def lap(self) -> None:
        dt = perf_counter() - self.t
        after = calibrate()
        self.total += scale(dt, self.before, after)
        self.before = after
        self.t = perf_counter()


def setup(name: str, seed: int):
    """Import the library afresh, generate the items, attach the expected
    answers and check the generator's guarantees, with a lap of a
    ``ScaledClock`` after each step. ``setup_s`` is the median of
    SETUP_REPEATS such set-ups in one process. Returns (scaled seconds,
    workload, cli.main)."""
    clock = ScaledClock()
    for mod in [m for m in sys.modules if m == "matroidbetti" or m.startswith("matroidbetti.")]:
        del sys.modules[mod]
    lib = importlib.import_module("matroidbetti")
    if Path(lib.__file__).resolve().parent != SRC / "matroidbetti":
        raise RuntimeError(f"benchmarking {lib.__file__}, not the checkout's {SRC}")
    main = importlib.import_module("matroidbetti.cli").main
    clock.lap()
    w = workloads.generate(name, seed)
    clock.lap()
    if seed == workloads.DEFAULT_SEED:
        stored = json.loads(workloads.REFERENCE_FILE.read_text())[name]
        for item in w.items:
            item.expect = stored[item.id]
    else:
        for item in w.items:
            item.expect = item.want()
    clock.lap()
    workloads.guarantee(w, lib, clock.lap)
    return clock.total, w, main


class Pass:
    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.scaled: list[float] = []
        self.calibrations: list[float] = []
        self.wall = 0.0
        self.output_bytes = 0
        self.failures: list[tuple[str, str]] = []


def run_pass(call, items, deadline: float, tracer: tracing.Tracer | None = None) -> Pass:
    """One pass over ``items``. Untraced passes calibrate around every item;
    ``wall`` leaves the calibrations out."""
    p = Pass()
    results = []
    t_pass = perf_counter()
    if tracer is None:
        p.calibrations.append(calibrate())
    for item in items:
        if perf_counter() > deadline:
            p.failures.append((item.id, "not run: the run's time limit passed"))
            continue
        out, err = io.StringIO(), io.StringIO()
        problem = None
        if tracer is not None:
            tracer.item = item.id
        t0 = perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, ITEM_LIMIT_S)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = call(item.argv)
                t1 = perf_counter()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except ItemTimeout:
            t1, code, problem = perf_counter(), None, f"timed out after {ITEM_LIMIT_S} s"
        except SystemExit as exc:
            t1, code = perf_counter(), exc.code if isinstance(exc.code, int) else 1
        except Exception:
            t1, code = perf_counter(), None
            problem = "raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
        p.latencies.append(t1 - t0)
        if tracer is None:
            p.calibrations.append(calibrate())
            p.scaled.append(scale(t1 - t0, *p.calibrations[-2:]))
        text = out.getvalue()
        p.output_bytes += len(text)
        results.append((item, code, text, problem))
    p.wall = perf_counter() - t_pass - sum(p.calibrations)
    for item, code, text, problem in results:
        problem = problem or reference.check(item.expect, code, text)
        if problem:
            p.failures.append((item.id, problem))
    return p


def end_to_end(passes: list[Pass], setups: list[float], items_per_pass: int) -> dict:
    lat = sorted(x for p in passes for x in p.scaled)
    raw = sorted(x for p in passes for x in p.latencies)
    cal = statistics.median(c for p in passes for c in p.calibrations)
    pct = tail_percentile(items_per_pass)
    tail = nearest_rank(lat, pct)
    print(f"item_tail_ms is p{pct} of {len(lat)} items; "
          f"{sum(1 for x in lat if x > tail)} lie above it")
    print(f"unscaled: {len(raw) / sum(p.wall for p in passes):.4f} items/s, "
          f"p50 {statistics.median(raw) * 1000:.2f} ms, p{pct} {nearest_rank(raw, pct) * 1000:.2f} ms; "
          f"calibration median {cal * 1000:.2f} ms against {CALIBRATION_REF_S * 1000:g} ms")
    return {
        "items_per_s": len(lat) / sum(lat),
        "item_p50_ms": statistics.median(lat) * 1000,
        "item_tail_ms": tail * 1000,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


UNITS = {"items_per_s": "1/s", "item_p50_ms": "ms", "item_tail_ms": "ms", "setup_s": "s",
         "peak_rss_mb": "MB"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    setups = []
    calibrate()  # warm-up
    for _ in range(SETUP_REPEATS):
        dt, w, cli_main = setup(args.workload, args.seed)
        setups.append(dt)
    items = w.items
    signal.signal(signal.SIGALRM, _on_alarm)
    start = perf_counter()
    deadline = start + RUN_LIMIT_S

    untraced: list[Pass] = []
    traced: list[Pass] = []
    tracer = tracing.Tracer()
    while True:
        untraced.append(run_pass(cli_main, items, deadline))
        if args.trace:
            tracer.install()
            try:
                traced.append(run_pass(tracer.span("cli.main", cli_main), items, deadline, tracer))
            finally:
                tracer.uninstall()
        elapsed = perf_counter() - start
        rounds = len(untraced)
        if perf_counter() > deadline:
            break
        if (args.trace or rounds >= MIN_PASSES) and elapsed * (rounds + 1) / rounds > args.seconds:
            break

    every = untraced + traced
    attempted = len(items) * len(every)
    failures = [f for p in every for f in p.failures]
    for item_id, problem in failures[:20]:
        print(f"FAILED {item_id}: {problem}", file=sys.stderr)

    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes of {len(items)} items; "
          f"error_rate {len(failures)}/{attempted}; scaled setup runs {[round(s, 3) for s in setups]}")
    if args.trace:
        metrics = tracing.per_layer(
            tracer, len(traced), sum(p.wall for p in traced),
            sum(p.wall for p in untraced), sum(p.output_bytes for p in traced))
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            {"spans": tracer.spans, "counters": tracer.counters}))
        accounted = sum(v for k, v in metrics.items() if k.startswith("layer_self."))
        print(f"per traced pass: layer self times {accounted:.4f} s + harness "
              f"{metrics['trace.harness_s']:.4f} s = {accounted + metrics['trace.harness_s']:.4f} s "
              f"of {metrics['trace.wall_s']:.4f} s traced wall; ratios are per "
              f"{metrics['matroid.rank_calls']:.0f} rank calls and "
              f"{metrics['complexes.boundary_calls']:.0f} boundary_rank calls")
    else:
        metrics = end_to_end(untraced, setups, len(items))
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
