"""The benchmark's workloads: seeded inputs, one operation, correctness gate.

Each workload yields its inputs in passes.  A pass is a fixed mix that
every run repeats with fresh seeded values, so a run made of whole passes
always sees the same mix and its medians stay comparable across seeds.
Each seeded value sits in a slice of its range and moves through that
slice by the golden-ratio step from one pass to the next, so the passes
of any run cover every slice evenly; a minimum taken over a run then
depends little on the seed.  References are computed with plain mpmath in
a context of the benchmark's own; no gsinv code is involved in them.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from mpmath.ctx_mp import MPContext

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

REF = MPContext()
REF.dps = 60


def digits_correct(value, reference) -> float:
    """Correct digits: -log10 |value - reference| / max(|reference|, 1).

    The error is relative for |reference| >= 1 and absolute below it, so
    references that vanish (the step below its jump, sine at pi) give a
    finite figure.
    """
    err = abs(REF.mpf(value) - reference)
    if err == 0:
        return float(REF.dps)
    return float(-REF.log10(err / max(abs(reference), 1)))


@dataclass
class Outcome:
    """Gate result of one operation."""

    ok: bool
    checks: int  # correctness checks passed
    digits: list = field(default_factory=list)  # digits_correct per output
    out_bytes: int = 0


GOLDEN = (5**0.5 - 1) / 2


def sweep(offset, k):
    """Position in [0, 1) of a value with seeded ``offset`` in pass ``k``."""
    return (offset + k * GOLDEN) % 1


def theis_transform(z):
    """Theis well-function transform F(z) = K0(sqrt z) / z."""
    m = z.context
    return m.besselk(0, m.sqrt(z)) / z


def theis_reference(t):
    """Its original f(t) = E1(1/(4t)) / 2."""
    return REF.e1(1 / (4 * REF.mpf(t))) / 2


class Workload:
    """Common state: the gsinv package, the seed, and ``wrap``, which the
    traced run sets to put its recorder around a transform the benchmark
    defines."""

    def __init__(self, gsinv, seed):
        self.gsinv = gsinv
        self.seed = seed
        self.wrap = lambda fn: fn

    def close(self):
        """Remove what the workload wrote."""


class LadderTheis(Workload):
    """invert_ladder on the Theis transform, t log-uniform in [1, 10].

    A pass holds one t from each of STRATA equal slices of log10 t, so
    every pass spans the range and its costs and digits do not hinge on
    where a few draws fell.
    """

    name = "ladder-theis"
    n_max = 16
    setup_order = n_max  # coefficient tables 1..n_max
    STRATA = 8
    MIN_DIGITS = 9  # measured at seed: 11.1 (t = 1) to 14 (t = 10)

    def passes(self):
        rng = random.Random(f"{self.name}:{self.seed}")
        offsets = [rng.random() for _ in range(self.STRATA)]
        for k in itertools.count():
            ts = [10 ** ((i + sweep(v, k)) / self.STRATA) for i, v in enumerate(offsets)]
            rng.shuffle(ts)
            yield [(t, theis_reference(t)) for t in ts]

    def run(self, item):
        t, ref = item
        F = self.gsinv.TransformFn(self.wrap(theis_transform), "K0(sqrt(z))/z")
        return self.gsinv.invert_ladder(F, t, self.n_max, ref=lambda _x: ref)

    def check(self, item, report):
        d = digits_correct(report.entries[-1].value, item[1])
        ok = len(report.entries) == self.n_max and d >= self.MIN_DIGITS
        return Outcome(ok, int(ok), [d])


CLI_REFERENCE = {
    "exponential": lambda x: REF.exp(-x),
    "root": lambda x: 1 / REF.sqrt(x),
    "step": lambda x: REF.mpf(0) if x < 1 else REF.mpf(1) if x > 1 else REF.mpf(0.5),
    "sine": REF.sin,
}


def cli_min_digits(pair, n):
    """Gate: digits every output of ``pair`` at order ``n`` must reach.

    Set about two digits under the worst case measured over the point
    strata at seed: smooth pairs converge geometrically, sine more slowly,
    and the step stays near one digit next to its jump at x = 1.
    """
    per_order = {"exponential": 0.5, "root": 0.5, "sine": 0.2}
    return per_order[pair] * n if pair in per_order else 0.5


class CliSingleOrder(Workload):
    """gsinv.cli.main invert at one order for 8 points in (0, 4].

    A pass is every (pair, order) combination once, in seeded order.  The
    points of one call take one seeded value from the middle half of each
    0.5-wide slice of (0, 4], so each call spans the interval and none
    lands within 0.125 of the step's jump, where the digits of a single
    point swing with its distance to the jump.
    """

    name = "cli-single-order"
    PAIRS = ("exponential", "root", "step", "sine")
    ORDERS = (16, 32, 48)
    setup_order = max(ORDERS)
    POINTS = 8

    def __init__(self, gsinv, seed):
        super().__init__(gsinv, seed)
        importlib.import_module("gsinv.cli")
        self.out_path = OUT / f"{self.name}-{seed}.json"

    def passes(self):
        rng = random.Random(f"{self.name}:{self.seed}")
        combos = [(p, n) for p in self.PAIRS for n in self.ORDERS]
        offsets = {c: [rng.random() for _ in range(self.POINTS)] for c in combos}
        for k in itertools.count():
            rng.shuffle(combos)
            yield [
                (p, n, [f"{0.5 * i + 0.125 + 0.25 * sweep(v, k):.6f}"
                        for i, v in enumerate(offsets[p, n])])
                for p, n in combos
            ]

    def run(self, item):
        pair, n, xs = item
        argv = ["invert", "--pair", pair, "--x", ",".join(xs), "--n", str(n),
                "--output", "json", "--out", str(self.out_path)]
        with contextlib.redirect_stderr(io.StringIO()):  # the oscillatory-pair note
            return self.gsinv.cli.main(argv)

    def check(self, item, rc):
        pair, n, xs = item
        if rc != 0:
            return Outcome(False, 0)
        raw = self.out_path.read_bytes()
        reports = json.loads(raw)["reports"]
        need = cli_min_digits(pair, n)
        checks, digits = 0, []
        for x, rep in zip(xs, reports):
            entry, = rep["entries"]
            ref = CLI_REFERENCE[pair](REF.mpf(x))
            d = digits_correct(entry["value"], ref)
            err = REF.mpf(entry["abs_error"]) / max(abs(ref), 1)
            digits.append(d)
            checks += entry["n"] == n and d >= need and err <= REF.mpf(10) ** -need
        ok = len(reports) == len(xs) and checks == len(xs)
        return Outcome(ok, checks, digits, len(raw))

    def close(self):
        self.out_path.unlink(missing_ok=True)


class VerifyAll(Workload):
    """gsinv.verify.run_suites("all"), the path behind `gsinv verify --suite all`.

    Its grids are fixed, so the seed selects nothing.  The report bytes
    must be identical on every pass, since verify output is deterministic
    by design.
    """

    name = "verify-all"
    setup_order = 18  # run_suites("all") uses coefficient tables 1..18

    def __init__(self, gsinv, seed):
        super().__init__(gsinv, seed)
        importlib.import_module("gsinv.verify")
        self.sha256 = set()

    def passes(self):
        while True:
            yield [None]

    def run(self, _item):
        return self.gsinv.verify.run_suites("all")

    def check(self, _item, result):
        reports, ok = result
        doc = json.dumps({"checks": reports, "all_passed": ok}, indent=2) + "\n"
        self.sha256.add(hashlib.sha256(doc.encode()).hexdigest())
        passed = sum(r["status"] == "pass" for r in reports)
        # inversion errors the report carries; their references (e^-1 for
        # the exponential, 1/2 at the step's jump) are below 1
        digits = [-REF.log10(REF.mpf(v)) for r in reports
                  for k, v in r["metrics"].items() if k.startswith("error_")]
        return Outcome(ok and len(self.sha256) == 1, passed, [float(d) for d in digits])


WORKLOADS = {w.name: w for w in (LadderTheis, CliSingleOrder, VerifyAll)}
