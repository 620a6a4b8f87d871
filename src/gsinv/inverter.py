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

from mpmath.libmp import from_man_exp, ftwo, mpf_div, mpf_log, round_nearest

from .coeffs import QN_MAX_ORDER, check_order, gaver_stehfest_coeffs, stehfest_weights
from .errors import DomainError, TransformEvaluationError
from .mantissa import _abscissas, _nearest_sum
from .numerics import (
    _TABLES,
    PrecisionContext,
    check_point,
    context_for_order,
    integrate,
    low_digits_note,
    mpf_tuples,
    weighted_sum,
)


@dataclass(frozen=True)
class TransformFn:
    """A Laplace transform evaluator F(z) for real z > 0, with a label.

    ``eval`` must be deterministic and defined for every requested
    abscissa; it receives a high-precision scalar and should derive any
    constants it needs from ``z.context`` so results carry the caller's
    precision.  Every library caller passes an mpf.  The corpus
    evaluators of :mod:`gsinv.pairs` are ``_Kernel``s: their operator
    forms, which take only a finite mpf, each with a batch on the pairs of
    :mod:`gsinv.mantissa`.  When F is a ``TransformFn`` (no subclass)
    whose ``eval`` is one, the inverter runs the batch instead: one call
    per read of the abscissa cache gives the values at all the abscissas
    it is missing (step and square wave take exp(-z) from a geometric
    progression, the root its value from a Newton step, both kept per x).
    It calls every other F, a wrapped kernel included, per abscissa.
    """

    eval: object
    label: str = ""

    def __call__(self, z):
        return self.eval(z)


class _Kernel:
    """The mpf evaluator F(z) of an operator ``form(z)``, for a finite mpf ``z``; any
    other ``z`` raises DomainError naming it, and so does a ``z`` at a pole, where
    the form divides by zero.

    ``batch`` is the form on the abscissas of one x, as integer steps:
    ``batch(bman, bexp, prec)``, for ``base = bman 2**bexp > 0``, returns
    a function ``js -> [(man, exp), ...]`` that gives, for each ``j >= 1``
    of ``js``, the bits of ``form`` at ``prec`` at z_j, ``j * base``
    rounded as :func:`~gsinv.mantissa._abscissas` rounds it, in one loop,
    with state shared across the calls of that x.
    """

    __slots__ = ("form", "batch")

    def __init__(self, form, batch):
        self.form = form
        self.batch = batch

    def __call__(self, z):
        try:
            _, man, exp, _ = z._mpf_
        except AttributeError:
            raise DomainError(f"a corpus transform needs an mpf z, got z = {z!r}") from None
        if exp and not man:
            raise DomainError(f"a corpus transform needs a finite z, got z = {z}")
        try:
            return self.form(z)
        except ZeroDivisionError:  # the form divides by zero: abscissas never get here
            raise DomainError(f"a corpus transform has a pole at z = {z}") from None


@dataclass(frozen=True)
class ReportEntry:
    n: int
    value: object
    abs_error: object | None = None


@dataclass(frozen=True)
class InversionReport:
    """Ladder of approximants at one evaluation point."""

    x: object
    entries: tuple[ReportEntry, ...]
    digits_used: int


class _AbscissaCache:
    """Cache of F(j ln2 / x) for one (F, x, ctx), with ``x`` already checked.

    Every order reads F only at the points j ln2 / x, so one cache shared
    by a whole ladder (or by the Gaver functionals of one accelerated
    sum) evaluates F once per distinct abscissa, and checks once that the
    value is a number the mpf operators take.  The abscissa ``j * base``
    is rounded as its operator (``mpf_mul_int``) rounds it, as a pair
    (:func:`~gsinv.mantissa._abscissas`).  For a library kernel (see
    :class:`TransformFn`), ``batch`` is the kernel's batch for this x
    (see :class:`_Kernel`), whose state lives and dies with the cache:
    each read calls it once for the abscissas it is missing, and the
    values stay pairs.  Any other F gets an mpf per abscissa, through
    ``F(z)``.
    """

    def __init__(self, F, x, ctx):
        self.F = F
        self.x = x
        self.ctx = ctx
        prec = ctx.mp.prec  # ln(2) / x: the calls of m.ln(2) and the operator
        ln2 = mpf_log(ftwo, prec, round_nearest)
        self.base = ctx.mp.make_mpf(mpf_div(ln2, x._mpf_, prec, round_nearest))
        # exact types: a subclass's __call__ or a wrapper (functools.wraps
        # copies attributes) must see every evaluation
        kernel = F.eval if type(F) is TransformFn else None
        self.batch = (kernel.batch(*self.base._mpf_[1:3], prec)
                      if type(kernel) is _Kernel else None)
        self.values: dict[int, object] = {}

    def _values(self, js):
        """F at the abscissas ``j * base`` for ``j`` in ``js``, each evaluated once.

        The one evaluation routine: an exception from F or its kernel
        becomes TransformEvaluationError carrying z, a value that is not a
        number DomainError naming z; any number is kept as F returned it,
        a kernel's as its pair.
        """
        values = self.values
        missing = [j for j in js if j not in values]
        if not missing:
            return [values[j] for j in js]
        new = (self._batch if self.batch else self._each)(missing)
        values.update(zip(missing, new))
        return new if len(missing) == len(js) else [values[j] for j in js]

    def _batch(self, js):
        """The kernel's batch at ``js``.  Where it raises, each ``j`` runs alone, on
        this error path only, and the error names the first that raises, with its
        exception as the cause (the last ``j`` and the batch's own, if none does)."""
        try:
            return self.batch(js)
        except Exception as exc:
            for j in js:
                try:
                    self.batch((j,))
                except Exception as alone:
                    exc = alone
                    break
            m = self.ctx.mp
            raise self._failure(m.make_mpf(from_man_exp(
                *_abscissas(*self.base._mpf_[1:3], (j,), m.prec)[0]))) from exc

    def _each(self, js):
        """F at ``js``, called once per abscissa with an mpf, each value checked."""
        m = self.ctx.mp
        make, F = m.make_mpf, self.F
        out = []
        for z in _abscissas(*self.base._mpf_[1:3], js, m.prec):
            z = make(from_man_exp(*z))
            try:
                value = F(z)
            except Exception as exc:  # attach the offending abscissa
                raise self._failure(z) from exc
            if not hasattr(value, "_mpf_"):  # a check only: the value is kept
                try:
                    m.convert(value, strings=False)
                except (TypeError, ValueError):
                    raise DomainError(f"transform value at z = {self.ctx.nstr(z)} is "
                                      f"not a number: {value!r}") from None
            out.append(value)
        return out

    def _failure(self, z):
        """The TransformEvaluationError of an evaluation at the mpf ``z``."""
        return TransformEvaluationError(f"transform evaluation failed at z = {self.ctx.nstr(z)}",
                                        z=z)

    def __call__(self, j: int):
        """F at the abscissa ``j * base``, as a value of the mpf operators."""
        value = self._values((j,))[0]
        return self.ctx.mp.make_mpf(from_man_exp(*value)) if self.batch else value

    def first(self, count: int) -> list:
        """F at the abscissas 1..count, in order; pairs if ``batch`` is set."""
        return self._values(range(1, count + 1))


def _start(F, x, n: int, ctx: PrecisionContext) -> _AbscissaCache:
    """Every entry point's prologue: check ``x`` and the largest order ``n``, warn the
    public caller (two frames up) once, return the call's abscissa cache.

    A call handed a private ``_cache`` skips it: its caller ran it, or checked ``x``
    and the order itself.
    """
    x = check_point(x, ctx)
    check_order(n)
    note = low_digits_note(ctx.digits, n)
    if note:
        warnings.warn(note, stacklevel=3)
    return _AbscissaCache(F, x, ctx)


def gaver_approx(F, x, k: int, ctx: PrecisionContext, _cache=None):
    """Order-``k`` Gaver functional.

    ln2/x * (2k)!/(k!(k-1)!) * sum_{i=0}^k C(k,i) (-1)^i F((k+i) ln2/x)

    The binomial factors are computed exactly and converted once.
    Requires ``1 <= k <= MAX_ORDER``; below ``required_digits(k)`` digits
    it warns and still computes.
    """
    cache = _cache or _start(F, x, k, ctx)
    pre = Fraction(factorial(2 * k), factorial(k) * factorial(k - 1))
    acc = ctx.mp.mpf(0)
    for i in range(k + 1):
        acc += ctx.mpf((-1) ** i * comb(k, i)) * cache(k + i)
    return cache.base * ctx.mpf(pre) * acc


def stehfest_approx(F, x, n: int, ctx: PrecisionContext, _cache=None):
    """Order-``n`` accelerated approximant, collapsed form.

    ln2/x * sum_{k=1}^{2n} a_k(n) F(k ln2 / x)

    The private ``_cache`` lets :func:`invert_ladder` share one abscissa
    cache across orders.
    """
    cache = _cache or _start(F, x, n, ctx)
    m = ctx.mp
    # a_k(n) as raw tuples (see mpf_tuples)
    a = _TABLES.get(("a_k", n, m.prec), lambda: mpf_tuples(gaver_stehfest_coeffs(n).a, m.prec))
    values = cache.first(len(a))
    if cache.batch:  # the values are a kernel's pairs: weighted_sum's steps, called directly
        return cache.base * m.make_mpf(_nearest_sum(a, values, m.prec))
    return cache.base * weighted_sum(a, values, m)


def stehfest_via_gaver(F, x, n: int, ctx: PrecisionContext):
    """Order-``n`` approximant as sum_k c_k(n) * gaver_approx(F, x, k).

    Algebraically identical to :func:`stehfest_approx`; kept as the
    independent second route for the two-path agreement checks.
    """
    cache = _start(F, x, n, ctx)
    c = stehfest_weights(n).c
    acc = ctx.mp.mpf(0)
    for k in range(1, n + 1):
        acc += ctx.mpf(c[k - 1]) * gaver_approx(F, cache.x, k, ctx, _cache=cache)
    return acc


def invert_ladder(F, x, n_max: int, ref=None, ctx: PrecisionContext | None = None, _cache=None):
    """Approximants for n = 1..n_max, with errors when ``ref`` is given.

    With ``ctx=None`` the precision follows the required_digits rule for
    ``n_max``.  An explicit coarser context is allowed (one warning is
    issued) so cancellation failure can be demonstrated deliberately.
    All orders share one abscissa cache, so F is evaluated once per
    distinct abscissa: 2 n_max calls.  A private ``_cache`` is that cache,
    built by a caller that has checked ``x`` and ``n_max`` (see ``_start``).
    """
    if ctx is None:
        ctx = context_for_order(n_max)  # checks n_max first
    cache = _cache or _start(F, x, n_max, ctx)
    x = cache.x
    target = None if ref is None else ctx.mpf(ref(x))
    entries = []
    for n in range(1, n_max + 1):
        value = stehfest_approx(F, x, n, ctx, _cache=cache)
        err = None if target is None else abs(value - target)
        entries.append(ReportEntry(n, value, err))
    return InversionReport(x, tuple(entries), ctx.digits)


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

    xi(v) does not depend on n, so it is computed once per quadrature node
    for each ``(eps, digits, guard)`` and kept as raw tuples in
    ``numerics._TABLES``; a warm table reads the same bits.  The key
    carries digits and guard, not only the precision, because
    :func:`~gsinv.lambertw.lambert_w0` bounds its residual by both.
    """
    from .lambertw import xi_alpha  # the inverter proper does not need Lambert W

    check_order(n, QN_MAX_ORDER)
    m = ctx.mp
    g = _symmetrized_difference(f, x, c, eps, ctx)  # first: nothing is stored for a bad call
    # {v._mpf_: xi._mpc_} over the tanh-sinh nodes of (0, eps); alpha is Im xi.
    # Threads that miss the same node both compute it and store equal bits.
    table = _TABLES.get(("xi", ctx.mpf(eps)._mpf_, ctx.digits, ctx.guard), dict)

    def integrand(v):
        if v == 0:
            return m.mpf(0)
        hit = table.get(v._mpf_)
        if hit is None:
            hit = table[v._mpf_] = xi_alpha(v, ctx)[0]._mpc_
        xi = m.make_mpc(hit)
        alpha = xi.imag
        if alpha == 0:
            osc = m.mpf(n)  # limit of sin(n a)/a as 1 - 4v^2 rounds to 1
        else:
            osc = abs(xi) ** (-n) * m.sin(n * alpha) / alpha
        return osc * g(v)

    return integrate(integrand, 0, eps, ctx)
