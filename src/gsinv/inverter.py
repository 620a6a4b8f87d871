"""Gaver functionals, accelerated approximants and convergence probes.

The two algebraically identical routes to the order-``n`` approximant are
kept as separate code paths on purpose: the collapsed form
(:func:`stehfest_approx`) is the production evaluator, the accelerated
combination of Gaver functionals (:func:`stehfest_via_gaver`) is its
independent witness, and the test suite holds them together to within
``10**(-digits + guard + 2)``.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from mpmath.libmp import fzero, mpf_add, mpf_mul

from .coeffs import QN_MAX_ORDER, check_order, gaver_stehfest_coeffs, stehfest_weights
from .errors import DomainError, ProbeError, TransformEvaluationError
from .numerics import (
    _TABLES,
    PrecisionContext,
    check_point,
    context_for_order,
    fit_line,
    integrate,
    mpf_tuples,
    required_digits,
)

__all__ = [
    "TransformFn",
    "InversionReport",
    "ReportEntry",
    "gaver_approx",
    "stehfest_approx",
    "stehfest_via_gaver",
    "invert_ladder",
    "expansion_probe",
    "equivalence_probe",
]


@dataclass(frozen=True)
class TransformFn:
    """A Laplace transform evaluator F(z) for real z > 0, with a label.

    ``eval`` must be deterministic and defined for every requested
    abscissa; it receives a high-precision scalar and should derive any
    constants it needs from ``z.context`` so results carry the caller's
    precision.
    """

    eval: object
    label: str = ""

    def __call__(self, z):
        return self.eval(z)


@dataclass(frozen=True)
class ReportEntry:
    n: int
    value: object
    abs_error: object | None = None


@dataclass(frozen=True)
class InversionReport:
    """Ladder of approximants at one evaluation point.

    ``flags`` carries caller-asserted caveats, e.g. ``"oscillatory"`` for
    transforms the convergence theory does not cover.
    """

    x: object
    entries: tuple[ReportEntry, ...]
    digits_used: int
    flags: tuple[str, ...] = ()


class _AbscissaCache:
    """Cache of F(j ln2 / x) for one (F, x, ctx).

    Every order reads F only at the points j ln2 / x, so one cache shared
    by a whole ladder (or by the Gaver functionals of one accelerated
    sum) evaluates F once per distinct abscissa.
    """

    def __init__(self, F, x, ctx):
        self.F = F
        self.ctx = ctx
        self.base = ctx.mp.ln(2) / ctx.mpf(x)
        self.values: dict[int, object] = {}

    def __call__(self, j: int):
        if j not in self.values:
            z = j * self.base
            try:
                self.values[j] = self.F(z)
            except Exception as exc:  # attach the offending abscissa
                raise TransformEvaluationError(
                    f"transform evaluation failed at z = {self.ctx.nstr(z)}", z=z
                ) from exc
        return self.values[j]


def _warn_low_digits(ctx, n: int):
    """Warn the public caller (two frames up) when ``ctx`` is too coarse for order ``n``."""
    if ctx.digits < required_digits(n):
        warnings.warn(
            f"digits={ctx.digits} below required_digits({n})={required_digits(n)}; "
            "expect cancellation loss",
            stacklevel=3,
        )


def gaver_approx(F, x, k: int, ctx: PrecisionContext, _cache=None):
    """Order-``k`` Gaver functional.

    ln2/x * (2k)!/(k!(k-1)!) * sum_{i=0}^k C(k,i) (-1)^i F((k+i) ln2/x)

    The binomial factors are computed exactly and converted once.
    Requires ``1 <= k <= MAX_ORDER`` and ``ctx.digits >= required_digits(k)``.
    """
    x = check_point(x, ctx)
    check_order(k)
    _warn_low_digits(ctx, k)
    m = ctx.mp
    cache = _cache or _AbscissaCache(F, x, ctx)
    pre = Fraction(factorial(2 * k), factorial(k) * factorial(k - 1))
    acc = m.mpf(0)
    for i in range(k + 1):
        acc += ctx.mpf((-1) ** i * comb(k, i)) * cache(k + i)
    return m.ln(2) / x * ctx.mpf(pre) * acc


def stehfest_approx(F, x, n: int, ctx: PrecisionContext, _cache=None):
    """Order-``n`` accelerated approximant, collapsed form.

    ln2/x * sum_{k=1}^{2n} a_k(n) F(k ln2 / x)

    The private ``_cache`` lets :func:`invert_ladder` share one abscissa
    cache across orders; that caller makes the precision check once.
    """
    x = check_point(x, ctx)
    check_order(n)
    m = ctx.mp
    # a_k(n) as raw tuples (see mpf_tuples)
    a = _TABLES.get(("a_k", n, m.prec), lambda: mpf_tuples(gaver_stehfest_coeffs(n).a, m.prec))
    if _cache is None:
        _warn_low_digits(ctx, n)
        _cache = _AbscissaCache(F, x, ctx)
    values = [_cache(k) for k in range(1, len(a) + 1)]
    if all(hasattr(v, "_mpf_") for v in values):
        # the calls mpf.__mul__ and mpf.__add__ make, on raw tuples: same bits
        prec, rnd = m._prec_rounding
        acc = fzero
        for a_k, v in zip(a, values):
            acc = mpf_add(acc, mpf_mul(a_k, v._mpf_, prec, rnd), prec, rnd)
        return _cache.base * m.make_mpf(acc)
    make = m.make_mpf
    acc = m.mpf(0)
    for a_k, v in zip(a, values):  # ints, floats or mpc values
        acc += make(a_k) * v
    return _cache.base * acc


def stehfest_via_gaver(F, x, n: int, ctx: PrecisionContext):
    """Order-``n`` approximant as sum_k c_k(n) * gaver_approx(F, x, k).

    Algebraically identical to :func:`stehfest_approx`; kept as the
    independent second route for the two-path agreement checks.
    """
    x = check_point(x, ctx)
    cache = _AbscissaCache(F, x, ctx)
    c = stehfest_weights(n).c
    acc = ctx.mp.mpf(0)
    for k in range(1, n + 1):
        acc += ctx.mpf(c[k - 1]) * gaver_approx(F, x, k, ctx, _cache=cache)
    return acc


def invert_ladder(F, x, n_max: int, ref=None, ctx: PrecisionContext | None = None,
                  flags=()):
    """Approximants for n = 1..n_max, with errors when ``ref`` is given.

    With ``ctx=None`` the precision follows the required_digits rule for
    ``n_max``.  An explicit coarser context is allowed (one warning is
    issued) so cancellation failure can be demonstrated deliberately.
    All orders share one abscissa cache, so F is evaluated once per
    distinct abscissa: 2 n_max calls.
    """
    check_order(n_max)
    if ctx is None:
        ctx = context_for_order(n_max)
    x = check_point(x, ctx)
    _warn_low_digits(ctx, n_max)
    target = None if ref is None else ctx.mpf(ref(x))
    cache = _AbscissaCache(F, x, ctx)
    entries = []
    for n in range(1, n_max + 1):
        value = stehfest_approx(F, x, n, ctx, _cache=cache)
        err = None if target is None else abs(value - target)
        entries.append(ReportEntry(n, value, err))
    return InversionReport(x, tuple(entries), ctx.digits, tuple(flags))


def expansion_probe(F, x, k_range, ref, ctx: PrecisionContext):
    """Empirical leading error coefficient of the Gaver functionals.

    Fits ``k (gaver_k(x) - ref)`` against ``b1 + b2/k`` over ``k_range``
    (at least 4 values) and returns the fitted limit ``b1``.  Diagnostic
    only: the caller asserts smoothness of the original at ``x`` and
    supplies the reference value.

    Raises
    ------
    ProbeError
        If the fit residual exceeds 5% of ``|b1|`` (plus a small absolute
        floor), which signals the 1/k expansion is not visible over the
        window.
    """
    ks = list(k_range)
    if len(ks) < 4:
        raise DomainError("k_range must span at least 4 values")
    x = check_point(x, ctx)
    for k in ks:  # every order, before the first transform call
        check_order(k)
    m = ctx.mp
    fref = ctx.mpf(ref)
    cache = _AbscissaCache(F, x, ctx)
    ys = [k * (gaver_approx(F, x, k, ctx, _cache=cache) - fref) for k in ks]
    b1, b2, rms = fit_line([m.mpf(1) / k for k in ks], ys, m)
    floor = m.mpf(10) ** (-(ctx.digits // 2)) * max(m.mpf(1), abs(fref))
    if rms > ctx.mpf(0.05) * abs(b1) + floor:
        raise ProbeError(
            f"expansion fit residual {ctx.nstr(rms, 6)} too large for b1 = {ctx.nstr(b1, 6)}"
        )
    return b1


def _symmetrized_difference(f, x, c, eps, ctx: PrecisionContext):
    """The symmetrized difference ``g(v) = f(-x log2(1/2+v)) + f(-x log2(1/2-v)) - 2c``.

    Both convergence criteria integrate it over ``v`` in (0, eps), eps < 1/4;
    ``x`` and ``eps`` are checked before ``f`` is called.
    """
    m = ctx.mp
    x = check_point(x, ctx)
    c = ctx.mpf(c)
    eps = ctx.mpf(eps)
    if not 0 < eps < m.mpf(1) / 4:
        raise DomainError(f"eps must lie in (0, 1/4), got eps = {eps}")
    half = m.mpf(1) / 2
    ln2 = m.ln(2)
    return lambda v: f(-x * m.ln(half + v) / ln2) + f(-x * m.ln(half - v) / ln2) - 2 * c


def equivalence_probe(f, x, c, eps, n: int, ctx: PrecisionContext):
    """The oscillatory integral whose vanishing characterizes f_n(x) -> c.

    integral_0^eps |xi(v)|^-n sin(n alpha(v))/alpha(v) g(v) dv, with g the
    symmetrized difference, for ``eps`` in (0, 1/4); ``f`` must be locally
    integrable near ``x``.
    """
    from .lambertw import xi_alpha  # the inverter proper does not need Lambert W

    check_order(n, QN_MAX_ORDER)
    m = ctx.mp
    g = _symmetrized_difference(f, x, c, eps, ctx)

    def integrand(v):
        if v == 0:
            return m.mpf(0)
        xa = xi_alpha(v, ctx)
        if xa.alpha == 0:
            osc = m.mpf(n)  # limit of sin(n a)/a as 1 - 4v^2 rounds to 1
        else:
            osc = abs(xa.xi) ** (-n) * m.sin(n * xa.alpha) / xa.alpha
        return osc * g(v)

    return integrate(integrand, 0, eps, ctx)
