"""Benchmark of gsinv through its public API.

    python3 bench/run.py --workload ladder-theis --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each was chosen):
``ladder-theis``, ``cli-single-order`` and ``verify-all``; ``--workload
all`` runs each in its own process.  One client runs operations back to
back (a closed loop) in whole passes until ``--seconds`` have elapsed,
in one process and one thread.  Every operation passes a correctness gate;
an exception or a failed gate counts as a failed operation.

With ``--trace 0`` the end-to-end metrics are measured with no tracing,
and every time is scaled to a fixed machine speed by the probe of
speed.py, which runs on the same single CPU as the timed run (on a shared
host a CPU's speed can drift by up to a factor of two; the raw wall-clock
median is printed too).
With ``--trace 1`` one pass runs untraced, then passes run with the
benchmark's wrappers installed (tracing.py); the per-layer metrics are
means per traced operation, and the spans are written to
``.bench_out/trace-<workload>-<seed>.json``.

The last line of standard output is the result as one JSON object.  The
program under test is imported from ``src/`` next to this directory; the
run fails without printing a result when it is missing.
"""
from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from speed import SpeedProbe
from tracing import Tracer, installed
from workloads import OUT, ROOT, SRC, WORKLOADS

SETUP_LAUNCHES = 15
SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
import gsinv
for n in range(1, int(sys.argv[2]) + 1):
    gsinv.gaver_stehfest_coeffs(n)
"""
CALIBRATION_ORDERS = (14, 30, 60)
REGIONS = ("taylor", "branch", "halley")
SUITES = ("vandermonde", "genfun", "lambertw", "qn-asymptotics", "integral-rep",
          "decay-bound", "corpus")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "digits_correct_min": "digits",
    "checks_passed": "count",
    "peak_rss_mb": "MB",
}

# Per-layer metrics read from the trace: name -> (unit, source, key).
# "calls", "busy" and "self" aggregate spans named key; "count" reads a
# tracer count.  All are divided by the number of traced operations.
TRACE_METRICS = {
    "transform.calls": ("count/op", "calls", "transform"),
    "transform.distinct_z": ("count/op", "count", "transform.distinct_z"),
    "transform.busy_s": ("s/op", "busy", "transform"),
    "inverter.invert_ladder.calls": ("count/op", "calls", "inverter.invert_ladder"),
    "inverter.invert_ladder.self_s": ("s/op", "self", "inverter.invert_ladder"),
    "inverter.stehfest_approx.calls": ("count/op", "calls", "inverter.stehfest_approx"),
    "inverter.stehfest_approx.self_s": ("s/op", "self", "inverter.stehfest_approx"),
    "inverter.stehfest_via_gaver.self_s": ("s/op", "self", "inverter.stehfest_via_gaver"),
    "coeffs.gaver_stehfest_coeffs.calls": ("count/op", "calls", "coeffs.gaver_stehfest_coeffs"),
    "coeffs.gaver_stehfest_coeffs.busy_s": ("s/op", "busy", "coeffs.gaver_stehfest_coeffs"),
    "numerics.contexts_built": ("count/op", "count", "numerics.contexts_built"),
    "numerics.integrate.calls": ("count/op", "calls", "numerics.integrate"),
    "numerics.integrate.integrand_evals":
        ("count/op", "count", "numerics.integrate.integrand_evals"),
    "numerics.integrate.busy_s": ("s/op", "busy", "numerics.integrate"),
    "numerics.integrate.failures": ("count/op", "count", "numerics.integrate.failures"),
    **{f"lambertw.lambert_w0.calls.{r}": ("count/op", "calls", f"lambertw.lambert_w0.{r}")
       for r in REGIONS},
    **{f"lambertw.lambert_w0.busy_s.{r}": ("s/op", "busy", f"lambertw.lambert_w0.{r}")
       for r in REGIONS},
    "lambertw.xi_alpha.calls": ("count/op", "calls", "lambertw.xi_alpha"),
    "lambertw.xi_alpha.busy_s": ("s/op", "busy", "lambertw.xi_alpha"),
    "qpoly.qn_eval.calls": ("count/op", "calls", "qpoly.qn_eval"),
    "qpoly.qn_eval.busy_s": ("s/op", "busy", "qpoly.qn_eval"),
    "qpoly.decay_bound_probe.self_s": ("s/op", "self", "qpoly.decay_bound_probe"),
    "qpoly.integral_representation_check.self_s":
        ("s/op", "self", "qpoly.integral_representation_check"),
    "qpoly.qn_jump_form_check.busy_s": ("s/op", "busy", "qpoly.qn_jump_form_check"),
    "pairs.run_pair.busy_s": ("s/op", "busy", "pairs.run_pair"),
    **{f"verify.{s}.busy_s": ("s/op", "busy", f"verify.{s}") for s in SUITES},
    "cli.main.self_s": ("s/op", "self", "cli.main"),
}
# Per-layer metrics computed outside the span table.
OTHER_UNITS = {
    "transform.useful_ratio": "ratio",
    "coeffs.cold_table_s": "s",
    "cli.output_bytes": "B/op",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
    **{f"calibration.n{n}.transform_calls": "count" for n in CALIBRATION_ORDERS},
    **{f"calibration.n{n}.distinct_z": "count" for n in CALIBRATION_ORDERS},
}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    latencies: list = field(default_factory=list)
    windows: list = field(default_factory=list)  # (start, end) per timed op
    digits: list = field(default_factory=list)
    pass_checks: list = field(default_factory=list)
    out_bytes: int = 0


def run_op(workload, item, tally, tracer=None):
    """One operation and its gate; returns (seconds inside it, checks passed)."""
    tally.attempted += 1
    try:
        with tracer.operation() if tracer else contextlib.nullcontext():
            t0 = time.monotonic()
            out = workload.run(item)
            t1 = time.monotonic()
        dt = t1 - t0
        tally.latencies.append(dt)
        tally.windows.append((t0, t1))
        outcome = workload.check(item, out)
    except Exception:  # a failed operation is counted; the run goes on
        traceback.print_exc(file=sys.stderr)
        tally.failed += 1
        return 0.0, 0
    if not outcome.ok:
        print(f"gate failed: {workload.name} {item!r}", file=sys.stderr)
        tally.failed += 1
    tally.digits += outcome.digits
    tally.out_bytes += outcome.out_bytes
    return dt, outcome.checks


def run_pass(workload, items, tally, tracer=None):
    tally.pass_checks.append(sum(run_op(workload, item, tally, tracer)[1] for item in items))


def run_passes(workload, passes, tally, seconds, tracer=None):
    """Whole passes until ``seconds`` have elapsed."""
    deadline = time.perf_counter() + seconds
    for items in passes:
        run_pass(workload, items, tally, tracer)
        if time.perf_counter() >= deadline:
            return


def setup_windows(order):
    """(start, end) of SETUP_LAUNCHES launches from a fresh interpreter to a
    finished ``import gsinv`` and coefficient tables 1..order (a first,
    untimed launch fills the bytecode cache)."""
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC), str(order)]
    windows = []
    for _ in range(SETUP_LAUNCHES + 1):
        t0 = time.monotonic()
        subprocess.run(argv, check=True, stdin=subprocess.DEVNULL)
        windows.append((t0, time.monotonic()))
    return windows[1:]


def tail(latencies):
    """(value, percentile, samples beyond) at the highest percentile that
    has at least ten samples beyond it, but never below p90 (nearest rank).
    Under 100 samples that is p90 with fewer than ten beyond it, so that
    the tail does not fall towards the median when a slower machine
    completes fewer operations."""
    s = sorted(latencies)
    n = len(s)
    i = max(n - 11, math.ceil(0.9 * n) - 1)
    return s[i], 100 * (i + 1) / n, n - 1 - i


def timed_run(workload, seconds):
    with SpeedProbe() as probe:
        setup = setup_windows(workload.setup_order)
        passes = workload.passes()
        first = next(passes)
        workload.run(first[0])  # warm-up: let caches fill before timing
        tally = Tally()
        run_passes(workload, itertools.chain([first], passes), tally, seconds)
    setup_s = statistics.median((t1 - t0) * probe.scale(t0, t1) for t0, t1 in setup)
    scales = [probe.scale(t0, t1) for t0, t1 in tally.windows]
    ok_ops = tally.attempted - tally.failed
    # every operation raised: report, don't crash
    latencies = [dt * s for dt, s in zip(tally.latencies, scales)] or [0.0]
    tail_s, tail_pct, beyond = tail(latencies)
    values = {
        "setup_s": setup_s,
        "ops_per_s": ok_ops / (sum(latencies) or 1.0),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail_s,
        "digits_correct_min": min(tally.digits, default=0.0),
        "checks_passed": min(tally.pass_checks),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"op_tail_ms is p{tail_pct:.1f} of {len(tally.latencies)} samples "
        f"({beyond} beyond it)",
        f"error_rate = {tally.failed}/{tally.attempted}",
        f"setup_s is the median of {SETUP_LAUNCHES} launches",
        f"times scaled to the probe's nominal speed (speed.py): median scale "
        f"{statistics.median(scales or [1.0]):.3f}, raw wall-clock p50 "
        f"{1e3 * statistics.median(tally.latencies or [0.0]):.1f} ms, "
        f"{len(probe.durs)} probe chunks on CPU {probe.cpu}",
    ]
    if hasattr(workload, "sha256"):
        notes.append(f"report sha256 = {','.join(sorted(workload.sha256))}")
    return tally, {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}, notes


def calibration(gsinv):
    """Transform calls of plain ladders on a cheap F, as in the ROADMAP
    baseline (n_max = 14 / 30 / 60 at x = 1)."""
    out = {}
    for n in CALIBRATION_ORDERS:
        tr = Tracer()
        F = gsinv.TransformFn(tr.transform(lambda z: 1 / (z + 1)), "1/(z+1)")
        with tr.operation():
            gsinv.invert_ladder(F, 1, n)
        out[f"calibration.n{n}.transform_calls"] = tr.calls["transform"]
        out[f"calibration.n{n}.distinct_z"] = tr.counts["transform.distinct_z"]
    return out


@contextlib.contextmanager
def tracing(workload, tracer):
    """The tracer's wrappers installed, and around the workload's own transform."""
    workload.wrap = tracer.transform
    try:
        with installed(tracer):
            yield
    finally:
        workload.wrap = lambda fn: fn


def traced_run(workload, seconds, gsinv, env):
    extra = calibration(gsinv)
    passes = workload.passes()
    first = next(passes)
    workload.run(first[0])  # warm-up, as in the timed run
    tally = Tally()
    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    # Each operation of the first pass runs untraced and then traced, so
    # drift in machine speed cancels from the overhead.
    untraced = traced = 0.0
    for item in first:
        untraced += run_op(workload, item, tally)[0]
        with tracing(workload, tracer):
            traced += run_op(workload, item, tally, tracer)[0]
    with tracing(workload, tracer):
        run_passes(workload, passes, tally, deadline - time.perf_counter(), tracer)

    raw = gsinv.coeffs.gaver_stehfest_coeffs.__wrapped__  # bypasses the table cache
    cold = []
    for _ in range(3):
        t0 = time.perf_counter()
        for n in range(1, workload.setup_order + 1):
            raw(n)
        cold.append(time.perf_counter() - t0)

    calls = tracer.calls
    source = {"calls": calls, "busy": tracer.busy, "self": tracer.self_s,
              "count": tracer.counts}
    metrics = {name: (source[kind][key] / tracer.ops, unit)
               for name, (unit, kind, key) in TRACE_METRICS.items()}
    extra.update({
        "transform.useful_ratio": tracer.counts["transform.distinct_z"] / max(calls["transform"], 1),
        "coeffs.cold_table_s": statistics.median(cold),
        "cli.output_bytes": tally.out_bytes / tally.attempted,
        "trace.overhead_s": traced - untraced,
        "trace.overhead_ratio": (traced - untraced) / (untraced or 1.0),
    })
    metrics.update({k: (v, OTHER_UNITS[k]) for k, v in extra.items()})

    names = sorted({s[3] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    path = OUT / f"trace-{workload.name}-{workload.seed}.json"
    with open(path, "w") as fh:
        json.dump({
            "environment": env,
            "span_fields": ["id", "parent", "op", "name", "start", "end", "self_s"],
            "names": names,
            "spans": [s[:3] + (index[s[3]],) + s[4:] for s in tracer.spans],
            "spans_dropped": sum(calls.values()) - len(tracer.spans),
            "counts": dict(tracer.counts),
        }, fh)
    notes = [
        f"{tracer.ops} traced operations; first pass {untraced:.3f} s untraced, "
        f"{traced:.3f} s traced",
        f"{len(tracer.spans)} of {sum(calls.values())} spans written to "
        f"{path.relative_to(ROOT)}",
    ]
    return tally, metrics, notes


def import_gsinv():
    """gsinv from src/ beside this directory, never an installed copy."""
    if not (SRC / "gsinv" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'gsinv'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import gsinv

    if SRC.resolve() not in Path(gsinv.__file__).resolve().parents:
        sys.exit(f"error: gsinv imported from {gsinv.__file__}, not {SRC}")
    return gsinv


def environment(args, gsinv):
    import mpmath

    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "gsinv": gsinv.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.workload == "all":
        rc = 0
        for name in WORKLOADS:
            rc |= subprocess.run([sys.executable, __file__, "--workload", name,
                                  "--seed", str(args.seed), "--seconds", str(args.seconds),
                                  "--trace", str(args.trace)]).returncode
        return rc

    gsinv = import_gsinv()
    OUT.mkdir(exist_ok=True)
    env = environment(args, gsinv)
    print(json.dumps({"environment": env}))
    workload = WORKLOADS[args.workload](gsinv, args.seed)
    try:
        if args.trace:
            tally, metrics, notes = traced_run(workload, args.seconds, gsinv, env)
        else:
            tally, metrics, notes = timed_run(workload, args.seconds)
    finally:
        workload.close()

    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:>14.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
