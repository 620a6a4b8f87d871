"""Corpus of closed-form transform pairs with regularity classes.

Each pair stores an exact transform expression evaluated at arbitrary
precision (the abscissas k ln2/x are irrational and precision-dependent,
so tabulated values would be useless), a reference original, a regularity
class asserted by construction, and the jump data needed to form Jordan
midpoint targets.  A corpus transform is its operator form for a lone
z, and at the inverter's abscissas a batch on the integer steps of
:mod:`gsinv.mantissa` with the same bits.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from mpmath.libmp import from_rational, mpf_pi, round_nearest, to_rational

from .errors import DomainError
from .inverter import (InversionReport, TransformFn, _Kernel, _symmetrized_difference,
                       invert_ladder)
from .mantissa import (_abscissas, _ExpProgression, _plus_one, _quotient_pos, _RootProgression,
                       _round_pos, _root_table)
from .numerics import (_TABLES, PrecisionContext, check_point, context_for_order, integrate,
                       mpf_tuples)

CLASSES = ("smooth", "dini", "bounded-variation-jump", "oscillatory")


@dataclass(frozen=True)
class TransformPair:
    """A transform evaluator with its known original.

    ``jumps`` lists (location, left limit, right limit); locations are
    exact rationals, strictly ascending.  A pair with a ``period`` (> 0)
    has more jumps than it lists: those of its last listed period recur
    every ``period`` on.
    """

    name: str
    F: TransformFn
    f_ref: object
    klass: str
    jumps: tuple = ()
    period: Fraction | None = None
    # (numerator, denominator) of each listed location: a key that hashes fast
    _locations: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.klass not in CLASSES:
            raise DomainError(f"unknown regularity class {self.klass!r}")
        if self.period is not None and not self.period > 0:
            raise DomainError(f"period must be > 0, or None if not periodic, got {self.period!r}")
        exact = [Fraction(loc) for loc, _l, _r in self.jumps]
        if any(a >= b for a, b in zip(exact, exact[1:])):
            raise DomainError("jump locations must be strictly ascending, got "
                              + ", ".join(map(str, exact)))
        object.__setattr__(self, "_locations", tuple((q.numerator, q.denominator) for q in exact))

    @property
    def formula(self) -> str:
        """The human-readable transform expression: the label of ``F``."""
        return self.F.label

    @property
    def oscillatory_flag(self) -> bool:
        """True for the oscillatory class, which the convergence theory does not cover."""
        return self.klass == "oscillatory"


def _sq_ref(t):
    # square wave, Jordan-normalized: 1 on (2m, 2m+1), 0 on (2m+1, 2m+2) and
    # the midpoint 1/2 at every jump t = 1, 2, ..., not only at the listed ones
    m = t.context
    fl = m.floor(t)
    if t == fl and t > 0:
        return m.mpf(1) / 2
    return m.mpf(1 if int(fl) % 2 == 0 else 0)


# The transform F of each corpus pair is a _Kernel of the formula's operator
# form, the mpf evaluator F.eval of a lone z, and of its batch on the
# abscissas z_j of one x, named after the pair, which the inverter calls
# instead (see inverter._Kernel).  A batch runs the steps for positive
# operands and rounds where the operator form rounds, so its bits are those
# of the form at z_j.  Step and square wave take exp(-z_j) from one
# geometric progression per x; the root rounds pi once per precision and
# takes one Newton step from a progression per x.  No other batch makes a
# libmp call.

def _constant_batch(bman, bexp, prec):
    return lambda js: [_quotient_pos(1, 0, *z, prec) for z in _abscissas(bman, bexp, js, prec)]


def _ramp_batch(bman, bexp, prec):
    return lambda js: [_quotient_pos(1, 0, *_round_pos(zman * zman, zexp + zexp, prec), prec)
                       for zman, zexp in _abscissas(bman, bexp, js, prec)]


def _exponential_batch(bman, bexp, prec):
    return lambda js: [_quotient_pos(1, 0, *_plus_one(*z, prec), prec)
                       for z in _abscissas(bman, bexp, js, prec)]


def _pi(prec):
    """pi rounded to ``prec`` bits, a pair, rounded once per precision."""
    return _TABLES.get(("pi", prec), lambda: mpf_pi(prec, round_nearest)[1:3])


def _root_batch(bman, bexp, prec):
    """The root's progression for ``base = bman 2**bexp``; pi and the table are taken
    once per precision."""
    table = _TABLES.get(("root", prec), lambda: _root_table(prec))
    return _RootProgression(*_pi(prec), bman, bexp, prec, table)


def _root_form(z):
    if z < 0:  # m.sqrt would return an mpc
        raise DomainError(f"sqrt(pi/z) needs z > 0, got z = {z}")
    m = z.context
    return m.sqrt(m.pi / z)


def _step_batch(bman, bexp, prec):
    exps = _ExpProgression(bman, bexp, prec)
    return lambda js: [_quotient_pos(*e, *z, prec) for z, e in exps(js)]


def _square_wave_batch(bman, bexp, prec):
    exps = _ExpProgression(bman, bexp, prec)

    def batch(js):
        out = []
        for (zman, zexp), e in exps(js):
            dman, dexp = _plus_one(*e, prec)
            out.append(_quotient_pos(1, 0, *_round_pos(zman * dman, zexp + dexp, prec), prec))
        return out

    return batch


def _sine_batch(bman, bexp, prec):
    return lambda js: [
        _quotient_pos(1, 0, *_plus_one(*_round_pos(zman * zman, zexp + zexp, prec), prec), prec)
        for zman, zexp in _abscissas(bman, bexp, js, prec)]


def corpus() -> tuple[TransformPair, ...]:
    """The built-in pairs instantiating the convergence theorem's classes.

    The one transform registry: ``invert --transform`` takes, at each
    call, the pair whose ``formula`` it names.  Built once per
    ``TransformFn`` in effect in this module, so a constructor patched
    here (a tracer's) builds the pairs it returns.
    """
    return _corpus(TransformFn)


@lru_cache(maxsize=1)
def _corpus(transform_fn) -> tuple[TransformPair, ...]:
    return (
        TransformPair(
            "constant",
            transform_fn(_Kernel(lambda z: 1 / z, _constant_batch), "1/z"),
            lambda t: t.context.mpf(1),
            "smooth",
        ),
        TransformPair(
            "ramp",
            transform_fn(_Kernel(lambda z: 1 / z**2, _ramp_batch), "1/z^2"),
            lambda t: t,
            "smooth",
        ),
        TransformPair(
            "exponential",
            transform_fn(_Kernel(lambda z: 1 / (z + 1), _exponential_batch), "1/(z+1)"),
            lambda t: t.context.exp(-t),
            "smooth",
        ),
        TransformPair(
            "root",
            transform_fn(_Kernel(_root_form, _root_batch), "sqrt(pi/z)"),
            lambda t: 1 / t.context.sqrt(t),
            "smooth",
        ),
        TransformPair(
            "step",
            transform_fn(_Kernel(lambda z: z.context.exp(-z) / z, _step_batch), "exp(-z)/z"),
            lambda t: t.context.mpf(1 if t >= 1 else 0),
            "bounded-variation-jump",
            jumps=((Fraction(1), 0, 1),),
        ),
        TransformPair(
            "square-wave",
            transform_fn(_Kernel(lambda z: 1 / (z * (1 + z.context.exp(-z))), _square_wave_batch),
                         "1/(z(1+exp(-z)))"),
            _sq_ref,
            "bounded-variation-jump",
            jumps=tuple(
                (Fraction(k), 1 if k % 2 == 1 else 0, 0 if k % 2 == 1 else 1)
                for k in range(1, 81)
            ),
            period=Fraction(2),
        ),
        TransformPair(
            "sine",
            transform_fn(_Kernel(lambda z: 1 / (1 + z**2), _sine_batch), "1/(1+z^2)"),
            lambda t: t.context.sin(t),
            "oscillatory",
        ),
    )


def get_pair(name: str) -> TransformPair:
    for p in corpus():
        if p.name == name:
            return p
    raise DomainError(f"no corpus pair named {name!r}")


def jordan_target(pair: TransformPair, x, ctx: PrecisionContext):
    """Reference value at ``x``: f_ref(x), or the jump midpoint at a jump."""
    return _target(pair, check_point(x, ctx), ctx)


def _target(pair: TransformPair, x, ctx: PrecisionContext):
    """:func:`jordan_target` at an ``x`` its caller has checked with ``check_point``."""
    if pair.jumps:
        # the locations rounded as ctx.mpf rounds them, once per precision
        prec, exact = ctx.mp.prec, pair._locations
        rounded = _TABLES.get(("jumps", exact, prec),
                              lambda: mpf_tuples([Fraction(*q) for q in exact], prec))
        for loc, (_, left, right) in zip(rounded, pair.jumps):
            if x._mpf_ == loc:  # x == ctx.mpf(location)
                return (ctx.mpf(left) + ctx.mpf(right)) / 2
        if pair.period:
            jump = _recurring_jump(pair, x._mpf_, prec)
            if jump:
                return (ctx.mpf(jump[1]) + ctx.mpf(jump[2])) / 2
    return ctx.mpf(pair.f_ref(x))


def _recurring(pair: TransformPair) -> list:
    """The jumps of ``pair``'s last listed period: those that recur every ``period``."""
    last = pair.jumps[-1][0]
    return [jump for jump in pair.jumps if jump[0] > last - pair.period]


def _recurring_jump(pair: TransformPair, x: tuple, prec: int):
    """The jump of ``pair``'s last listed period that recurs at the mpf tuple ``x``, or None.

    A jump at ``loc`` recurs at each ``loc + k period``, k >= 1, and is at
    ``x`` where ``x`` is that location rounded to ``prec`` bits, as
    ``ctx.mpf`` rounds it.  Only the recurrence nearest ``x`` can be.
    """
    X, period = Fraction(*to_rational(x)), Fraction(pair.period)
    for jump in _recurring(pair):
        loc = Fraction(jump[0])
        k = round((X - loc) / period)
        s = loc + k * period
        if k >= 1 and from_rational(s.numerator, s.denominator, prec, round_nearest) == x:
            return jump
    return None


def run_pair(pair: TransformPair, x, n_max: int, ctx: PrecisionContext | None = None) -> InversionReport:
    """Ladder for a corpus pair, with errors against the Jordan target."""
    if ctx is None:
        ctx = context_for_order(n_max)
    # the ladder asks for the target once it has checked x and n_max
    return invert_ladder(pair.F, x, n_max, lambda t: jordan_target(pair, t, ctx), ctx)


@dataclass(frozen=True)
class DiniEstimate:
    value: object
    divergent: bool
    increment: object  # growth when v_min shrinks by one decade


def dini_integral_estimate(pair: TransformPair, x, c, epsilon, ctx: PrecisionContext) -> DiniEstimate:
    """Quadrature estimate of the local Dini integral for a pair.

    Estimates integral over [v_min, eps] of
    ``|f(-x log2(1/2+v)) + f(-x log2(1/2-v)) - 2c| / v`` with
    ``v_min = 10^-(digits/2)``, plus a divergence flag: the integrand is
    re-integrated from ``v_min/10`` and growth beyond a vanishing fraction
    of a log decade marks the integral as apparently divergent.

    The integrand carries an absolute value, so accuracy relies on the
    symmetrized oscillation keeping one sign near 0; the default corpus
    satisfies this at the points the tests probe.
    """
    m = ctx.mp
    g = _symmetrized_difference(pair.f_ref, x, c, epsilon, ctx)

    def integrand(v):
        return abs(g(v)) / v

    v_min = m.mpf(10) ** (-(ctx.digits // 2))
    base = integrate(integrand, v_min, epsilon, ctx)
    extended = integrate(integrand, v_min / 10, v_min, ctx)
    threshold = m.mpf("1e-6") * max(m.mpf(1), abs(base))
    return DiniEstimate(value=base, divergent=bool(extended > threshold), increment=extended)


def _jumps_below(pair: TransformPair, stop, ctx: PrecisionContext) -> list:
    """Every jump of ``pair`` below ``stop``, ascending, as mpf of ``ctx``.

    Each jump is ``(location, left limit, right limit)``: the listed ones
    first, then for a periodic pair those of its last listed period
    shifted by whole periods.
    """
    listed = list(pair.jumps)
    shifted = []
    if pair.period and listed:
        window = _recurring(pair)
        k = 1
        while ctx.mpf(window[0][0] + k * pair.period) < stop:
            shifted += [(loc + k * pair.period, left, right) for loc, left, right in window]
            k += 1
    jumps = [tuple(map(ctx.mpf, jump)) for jump in listed + shifted]
    return [jump for jump in jumps if jump[0] < stop]


def laplace_identity_residual(pair: TransformPair, z, ctx: PrecisionContext):
    """|integral_0^inf e^(-z t) f_ref(t) dt - F(z)|, split at the jumps.

    The quadrature is piecewise between consecutive jump locations (plus
    a semi-infinite tail), since the double-exponential rule assumes
    smoothness away from the endpoints.  A periodic pair is split at
    every jump below the span, not only at the listed ones.  A node whose
    offset from an end is below the working precision rounds onto that
    end; at a jump it takes the piece's one-sided limit from the jump
    data, not ``f_ref`` there (the Jordan midpoint, or a step's right
    value), so a piece where the original is 0 integrates to exactly 0.
    A piece on ``(lo, s)`` integrates ``e^(-z (t - lo)) f_ref(t)`` and is
    scaled by ``e^(-z lo)`` after: :func:`~gsinv.numerics.integrate`
    stops once two levels agree to ``10**-digits`` absolutely when its
    value is below 1, which leaves a piece near 1e-12 a relative error
    near 1e-13.  The tail is integrated in ``u = z (t - lo)``, where it
    decays as ``e^(-u)``, the rate that ``integrate`` needs on ``(0,
    inf)``; it is not scaled, since past the span it is negligible and a
    periodic pair still jumps there.
    """
    m = ctx.mp
    z = check_point(z, ctx, "z")
    f = pair.f_ref

    def piece(lo, after_lo, hi, before_hi, origin):  # e^(-z (t - origin)) f(t) on (lo, hi)
        def integrand(t):
            v = after_lo if t == lo else before_hi if t == hi else f(t)
            return m.exp(-z * (t - origin)) * v if v else v  # a zero piece costs no exp

        return integrand

    # keep enough pieces that the tail beyond the last split is negligible
    span = (ctx.digits + ctx.guard + 5) * m.ln(10) / z
    total = m.mpf(0)
    lo, after_lo = m.mpf(0), None  # no node rounds onto 0
    for s, left, right in _jumps_below(pair, span, ctx):
        value = integrate(piece(lo, after_lo, s, left, lo), lo, s, ctx)
        total += m.exp(-z * lo) * value if value else value
        lo, after_lo = s, right
    tail = piece(lo, after_lo, None, None, 0)
    total += integrate(lambda u: tail(lo + u / z), 0, m.inf, ctx) / z
    return abs(total - pair.F(z))
