"""Spans and counts for the traced benchmark run.

The wrappers here belong to the benchmark.  :func:`installed` puts them at
every name under which a ``gsinv`` module holds one of the traced public
functions (the defining module included, so calls a module makes to its
own functions are seen too), and restores the originals on exit; nothing
under ``src/`` changes.  Spans stay in memory until the run ends.

A span is ``(id, parent_id, op_id, name, start, end, self_s)``.  Its self
time is its duration minus the time covered by its direct child spans.
Calls, busy time (duration) and self time are summed per span name as
spans close; only the first ``MAX_SPANS`` spans are kept, to bound memory.
A call made while a span of the same function is open (``lambert_w0``
conjugating its argument, ``integrate`` swapping reversed limits) is part
of the open span and records nothing of its own.
"""
from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, function) -> span name.  The suite functions of gsinv.verify
# are added per suite by installed(), and cli.main is listed here so the
# benchmark's own calls through gsinv.cli.main are traced.
TRACED = {
    ("inverter", "invert_ladder"): "inverter.invert_ladder",
    ("inverter", "stehfest_approx"): "inverter.stehfest_approx",
    ("inverter", "stehfest_via_gaver"): "inverter.stehfest_via_gaver",
    ("coeffs", "gaver_stehfest_coeffs"): "coeffs.gaver_stehfest_coeffs",
    ("numerics", "integrate"): "numerics.integrate",
    ("lambertw", "lambert_w0"): "lambertw.lambert_w0",
    ("lambertw", "xi_alpha"): "lambertw.xi_alpha",
    ("qpoly", "qn_eval"): "qpoly.qn_eval",
    ("qpoly", "decay_bound_probe"): "qpoly.decay_bound_probe",
    ("qpoly", "integral_representation_check"): "qpoly.integral_representation_check",
    ("qpoly", "qn_jump_form_check"): "qpoly.qn_jump_form_check",
    ("pairs", "run_pair"): "pairs.run_pair",
    ("cli", "main"): "cli.main",
}
MAX_SPANS = 100_000  # about 8 MB of JSON; a cli pass makes about 120k


def lambert_region(z, *_):
    """The algorithm region ``lambert_w0`` documents for argument ``z``.

    Thresholds are those of the ``gsinv.lambertw`` module docstring:
    Taylor series for ``|z| < 0.2/e``, branch-point series for
    ``|1 + e z| < 0.05``, Halley iteration elsewhere.
    """
    z = complex(z)
    if abs(z) < 0.2 / math.e:
        return "taylor"
    if abs(1 + math.e * z) < 0.05:
        return "branch"
    return "halley"


class Tracer:
    """In-memory span and count recorder; one per traced run."""

    def __init__(self):
        self.spans = []  # the first MAX_SPANS spans; totals cover all of them
        self.counts = Counter()
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.ops = 0
        self._stack = []  # open spans: [id, name, start, child_s]
        self._open = Counter()  # open spans per traced function
        self._next_id = 0
        self._op_id = None
        self._op_z = set()

    def _enter(self, name):
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        sid, name, start, child = frame
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.calls[name] += 1
        self.busy[name] += dur
        self.self_s[name] += dur - child
        if len(self.spans) < MAX_SPANS:
            self.spans.append((sid, parent[0] if parent else None, self._op_id, name,
                               start, end, dur - child))

    def wrap(self, name, fn, region=None, count_integrand=False):
        """``fn`` recording one span per call; ``region`` suffixes the name."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._open[name]:
                return fn(*args, **kwargs)
            label = f"{name}.{region(*args)}" if region else name
            if count_integrand:
                args = (self._counted(f"{name}.integrand_evals", args[0]),) + args[1:]
            self._open[name] += 1
            frame = self._enter(label)
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.counts[f"{name}.failures"] += 1
                raise
            finally:
                self._open[name] -= 1
                self._exit(frame)

        return traced

    def _counted(self, key, fn):
        def counted(*args):
            self.counts[key] += 1
            return fn(*args)

        return counted

    def transform(self, fn):
        """The user's transform evaluator, traced as ``transform`` with its
        abscissas collected per operation."""
        traced = self.wrap("transform", fn)

        def recorded(z):
            self._op_z.add(z)
            return traced(z)

        return recorded

    @contextmanager
    def operation(self):
        """Root span of one benchmark operation; its spans share its id."""
        self._op_id, self._op_z = self.ops, set()
        frame = self._enter("op")
        try:
            yield
        finally:
            self._exit(frame)
            self.counts["transform.distinct_z"] += len(self._op_z)
            self.ops += 1
            self._op_id = None


def _gsinv_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "gsinv" or name.startswith("gsinv."))]


@contextmanager
def installed(tracer: Tracer):
    """Install the tracer's wrappers into the gsinv modules."""
    for mod, _fn in TRACED:
        importlib.import_module(f"gsinv.{mod}")
    import gsinv.numerics
    import gsinv.verify
    from gsinv.inverter import TransformFn

    undo = []

    def patch(obj, attr, value):
        undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    targets = [(getattr(sys.modules[f"gsinv.{mod}"], fn), name)
               for (mod, fn), name in TRACED.items()]
    targets += [(fn, f"verify.{suite}") for suite, fn in gsinv.verify.SUITES.items()]
    wrappers = {  # by id: module attributes need not be hashable
        id(fn): tracer.wrap(name, fn,
                            region=lambert_region if name == "lambertw.lambert_w0" else None,
                            count_integrand=name == "numerics.integrate")
        for fn, name in targets
    }
    for module in _gsinv_modules():
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                patch(module, attr, wrappers[id(value)])
    suites = gsinv.verify.SUITES
    for suite in list(suites):
        undo.append((suites, suite, suites[suite]))
        suites[suite] = wrappers[id(suites[suite])]

    mp_context = gsinv.numerics.MPContext

    def counted_context():
        tracer.counts["numerics.contexts_built"] += 1
        return mp_context()

    patch(gsinv.numerics, "MPContext", counted_context)

    def traced_transform_fn(eval, label=""):
        return TransformFn(tracer.transform(eval), label)

    for name in ("gsinv.pairs", "gsinv.cli"):  # the modules that build TransformFn
        patch(sys.modules[name], "TransformFn", traced_transform_fn)
    try:
        yield tracer
    finally:
        for obj, attr, value in reversed(undo):
            if isinstance(obj, dict):
                obj[attr] = value
            else:
                setattr(obj, attr, value)
