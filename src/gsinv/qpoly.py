"""The polynomial kernel q_n(v), its generating function and asymptotics.

Everything structural (coefficients, the generating-function identity,
the integral representation's kernel identity q_n(4y(1 - y)) =
sum a_k(n) y^k) is exact rational; floating point enters only when
evaluating at a point.  The asymptotic checks compare exact values of q_n
against closed forms built from the Lambert W branch structure.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm

from mpmath.libmp import from_man_exp, fzero

from . import series as fps
from .coeffs import QN_MAX_ORDER, check_order, gaver_stehfest_coeffs
from .errors import DomainError, ProbeError, as_number
from .lambertw import w_of_v, xi_alpha
from .mantissa import _quotient, _signed
from .numerics import PrecisionContext, fit_line


@dataclass(frozen=True)
class JumpFormCheck:
    """Exact q_n(1-4v^2) against the oscillatory closed form."""

    difference: object
    decay: object  # |xi(v)|^-n, the scale of the admissible error
    q_value: object
    form_value: object


@dataclass(frozen=True)
class DecayFit:
    """Fitted envelope max_v |q_n(v)|/v ~ C b^-n."""

    C: object
    b: object
    residual: object  # multiplicative rms misfit of the envelope points
    ratios: tuple  # the per-n maxima that were fitted, in the order of n_range


def _poch_half(k: int) -> Fraction:
    # (1/2)_k = (2k)! / (4^k k!)
    return Fraction(factorial(2 * k), 4**k * factorial(k))


@lru_cache(maxsize=None, typed=True)
def qn_coeffs(n: int) -> tuple[Fraction, ...]:
    """Exact c_1..c_n of q_n(v) = sum c_k v^k: (-1)^(n+k) k^(n+1) (1/2)_k / ((n-k)! (k!)^2)."""
    check_order(n, QN_MAX_ORDER)
    return tuple(
        (-1) ** (n + k)
        * Fraction(k ** (n + 1))
        * _poch_half(k)
        / (factorial(n - k) * factorial(k) ** 2)
        for k in range(1, n + 1)
    )


def qn_exact(n: int, v: Fraction) -> Fraction:
    """q_n at a rational point, exactly."""
    v = as_number(Fraction, v, "rational number")
    acc = Fraction(0)
    for c in reversed(qn_coeffs(n)):
        acc = (acc + c) * v
    return acc


@lru_cache(maxsize=None, typed=True)
def _qn_integer_form(n: int) -> tuple[tuple[int, ...], int]:
    """Numerators N_1..N_n of the q_n coefficients over their common denominator D."""
    coeffs = qn_coeffs(n)
    D = lcm(*(c.denominator for c in coeffs))
    return tuple(c.numerator * (D // c.denominator) for c in coeffs), D


def qn_eval(n: int, v, ctx: PrecisionContext):
    """Evaluate q_n(v) at working precision, rounded once.

    Every point is an exact rational p/q with q = odd 2^s: a Fraction or
    an int as it is, a floating ``v`` (an mpf of any context, or anything
    ``ctx.mpf`` converts) as the dyadic it stores.  Horner runs exactly in
    integers over the cached numerators N_k and common denominator D of
    the coefficients: ``sum N_k p^k (odd 2^s)^(n-k)`` is divided by ``D
    odd^n 2^(sn)`` in one correctly rounded division, as ``from_rational``
    rounds the exact q_n(v).  The alternating terms peak near e^n while
    q_n may be near e^-n; the exact route loses nothing to that
    cancellation (a floating Horner's 0.44 n boost fell short from n = 120).

    Raises
    ------
    DomainError
        If ``v`` is infinite or NaN.
    """
    m = ctx.mp
    numerators, D = _qn_integer_form(n)  # checks the order, even at v = 0
    if isinstance(v, (Fraction, int)):
        p, q = Fraction(v).as_integer_ratio()
        s = (q & -q).bit_length() - 1
        odd = q >> s
    else:
        raw = getattr(v, "_mpf_", None) or ctx.mpf(v)._mpf_
        p, exp = _signed(raw)
        if not p and raw != fzero:
            raise DomainError(f"qn_eval needs a finite v, got {ctx.nstr(m.make_mpf(raw))}")
        p, s, odd = (p << exp, 0, 1) if exp > 0 else (p, -exp, 1)
    if not p:
        return m.mpf(0)
    if odd > 1:  # N_k odd^(n-k) over D odd^n; a dyadic point skips this
        numerators = [c * odd ** (n - k) for k, c in enumerate(numerators, 1)]
        D *= odd**n
    acc = shift = 0
    for c in reversed(numerators):  # N_k is scaled by 2^(s(n-k))
        acc = acc * p + (c << shift)
        shift += s
    acc *= p
    return m.make_mpf(from_man_exp(*_quotient(acc, -s * n, D, 0, m.prec)))


# ---------------------------------------------------------------------
# the series G
# ---------------------------------------------------------------------

def _g_coeff(n: int) -> Fraction:
    """Coefficient of z^n in G(z), n >= 1; the series converges for |z| < 1/e."""
    return (-1) ** n * _poch_half(n) * Fraction(n ** (n + 1)) / factorial(n) ** 2


# ---------------------------------------------------------------------
# generating function
# ---------------------------------------------------------------------

def _genfun_matches(qvals, v: Fraction, n_max: int) -> bool:
    # compose G(v t e^t) as a formal series in t; coefficient of t^n must
    # equal (-1)^n * q_n(v) exactly
    inner = [Fraction(0)] + [v / factorial(k - 1) for k in range(1, n_max + 1)]
    composed = fps.compose_outer(_g_coeff, inner, n_max)
    return all(composed[n] == (-1) ** n * qvals[n - 1] for n in range(1, n_max + 1))


def genfun_identity_check(n_max: int, v) -> bool:
    """Exact check of G(v t e^t) = sum q_n(v) (-1)^n t^n through t^n_max.

    ``v`` must be rational in [0, 1] and ``n_max`` at most 30; exact
    rational arithmetic throughout makes the result a strict equality test.
    """
    check_order(n_max, 30)
    v = as_number(Fraction, v, "rational number")
    if not 0 <= v <= 1:
        raise DomainError(f"v must lie in [0, 1], got v = {v}")
    qvals = [qn_exact(n, v) for n in range(1, n_max + 1)]
    return _genfun_matches(qvals, v, n_max)


# ---------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------

def _sqrt2_over_pi(m):
    return m.sqrt(2) / m.pi


def qn_asymptotic(n: int, v, ctx: PrecisionContext, extended: bool = False):
    """Leading asymptotic of q_n(v) for v in [1/2, 1).

    Plain mode: (-1)^n (sqrt(2)/pi) Re[w^-n / (1+w)], w = W(-1/(ev)).
    Extended mode adds the refined corrections
    ``- 5/(24n) w^-n + 25/(1152 n^2) (1+w) w^-n`` inside Re[.].

    ``v = 1`` is rejected: w(1) = -1 is a double pole of the integrand
    that produced this form; use :func:`qn_at_one_asymptotic` there.
    """
    check_order(n, QN_MAX_ORDER)
    m = ctx.mp
    v = ctx.mpf(v)
    if not m.mpf(1) / 2 <= v < 1:
        raise DomainError(f"v must lie in [1/2, 1), got v = {v}; v = 1 has its own formula")
    w = w_of_v(v, ctx)
    inner = w ** (-n) / (1 + w)
    if extended:
        inner += -m.mpf(5) / (24 * n) * w ** (-n) + m.mpf(25) / (1152 * n**2) * (1 + w) * w ** (-n)
    return (-1) ** n * _sqrt2_over_pi(m) * inner.real


def qn_at_one_asymptotic(n: int, ctx: PrecisionContext):
    """(sqrt(2)/pi) (n + 1/3 - 5/(24n)); residual is O(n^-3)."""
    check_order(n, QN_MAX_ORDER)
    m = ctx.mp
    return _sqrt2_over_pi(m) * (n + m.mpf(1) / 3 - m.mpf(5) / (24 * n))


def qn_jump_form_check(n: int, v, ctx: PrecisionContext) -> JumpFormCheck:
    """q_n(1-4v^2) against (sqrt(2)/pi) |xi|^-n sin(n alpha)/alpha.

    The admissible error of the closed form is O(xi^-n) with an O(1)
    constant (the dropped term oscillates like cos(n alpha)/3), so the
    returned ``difference`` should be compared against ``C * decay`` with
    a fitted, n-stable C rather than against the form value pointwise.
    """
    m = ctx.mp
    u = Fraction(v) if isinstance(v, (Fraction, int)) else ctx.mpf(v)
    if not 0 < u <= 0.25:  # exact for a Fraction and for an mpf
        raise DomainError(f"v must lie in (0, 1/4], got v = {u}")
    q = qn_eval(n, 1 - 4 * u * u, ctx)
    xi, alpha = xi_alpha(ctx.mpf(u), ctx)
    decay = abs(xi) ** (-n)
    form = _sqrt2_over_pi(m) * decay * m.sin(n * alpha) / alpha
    return JumpFormCheck(abs(q - form), decay, q, form)


_SCREEN_GUARD = 16  # bits the fixed-point screen of _max_ratio carries beyond prec


def _max_ratio(n: int, vs, ctx: PrecisionContext):
    """The largest ``abs(qn_eval(n, v, ctx)) / v`` over the mpfs ``vs`` in (0, 1), its bits.

    A fixed-point Horner screens every point: with ``W = prec +
    _SCREEN_GUARD`` and ``v = p 2^-s``, ``acc <- C_k + floor(acc p / 2^s)``
    from k = n down to 1 over ``C_k = round(N_k 2^W / D)``.  Each step
    adds under 1.5 units of 2^-W and v < 1 shrinks what came before, so
    ``|acc|`` lies within 1.5n < ``err = 2n + 2`` units of ``2^W |q_n(v)|/v``.
    The exact ratio is computed only at the points with ``|acc| >= top -
    2 err - top 2^-(prec-4)``, ``top`` the largest ``|acc|``: any other
    point lies below the screen's top point by more than the errors of
    both screens and the two roundings of ``round(round(|q|)/v)``, which
    need not follow the exact order within about 2 ulp.  So the maximum,
    taken with a strict ``>`` from 0 in the order of ``vs``, has the bits
    of the loop over every point.
    """
    m = ctx.mp
    numerators, D = _qn_integer_form(n)
    W = m.prec + _SCREEN_GUARD
    scaled = [((c << W + 1) + D) // (2 * D) for c in reversed(numerators)]
    screen = []
    for v in vs:
        _, p, e, _ = v._mpf_
        s, acc = -e, 0
        for c in scaled:
            acc = c + (acc * p >> s)
        screen.append(abs(acc))
    top, err = max(screen), 2 * n + 2
    cut = top - 2 * err - (top >> m.prec - 4)
    best = m.mpf(0)
    for v, a in zip(vs, screen):
        if a >= cut:
            r = abs(qn_eval(n, v, ctx)) / v
            if r > best:
                best = r
    return best


def decay_bound_probe(epsilon, n_range, ctx: PrecisionContext) -> DecayFit:
    """Fit max over v in [0, 1-eps] of |q_n(v)|/v against C b^-n.

    The maximum is taken over the 121 equally spaced points of (0, 1-eps].
    It has the bits of the exhaustive loop of ``abs(qn_eval(n, v, ctx)) /
    v`` over those points, but the exact q_n is computed only where a
    fixed-point screen with a proven error bound cannot exclude the
    point (see ``_max_ratio``): once per order on the ``decay-bound`` check's grid.

    The per-n maxima oscillate around their geometric envelope (the
    nearest sin(n alpha) peak moves relative to the grid edge), so the
    fit runs through the local maxima of the sequence: those lie on the
    envelope that the decay lemma actually bounds.  A least-squares fit
    through all points would report a misleading ~15-20% residual.

    Returns
    -------
    DecayFit
        Fitted C and b (check ``b > 1``), the multiplicative rms misfit
        of the envelope points, and the raw sequence, one entry per order
        of ``n_range``.

    Raises
    ------
    DomainError
        Before any q_n, if ``epsilon`` lies outside (0, 1) or ``n_range``
        is not a sequence, holds fewer than 4 orders or an order outside
        [1, 200].
    ProbeError
        If the sequence has fewer than two envelope points to fit.
    """
    m = ctx.mp
    eps = ctx.mpf(epsilon)
    if not 0 < eps < 1:
        raise DomainError(f"epsilon must lie in (0, 1), got epsilon = {eps}")
    ns = as_number(list, n_range, "sequence of orders")
    if len(ns) < 4:
        raise DomainError(f"n_range must span at least 4 orders, got {len(ns)}")
    for n in ns:  # every order, before the first q_n
        check_order(n, QN_MAX_ORDER)
    hi = 1 - eps
    vs = [hi * m.mpf(i) / 121 for i in range(1, 122)]
    ratios = [_max_ratio(n, vs, ctx) for n in ns]
    logs = [m.ln(r) for r in ratios]
    peaks = [
        i
        for i in range(len(ns))
        if (i == 0 or logs[i] >= logs[i - 1]) and (i == len(ns) - 1 or logs[i] >= logs[i + 1])
    ]
    if len(peaks) < 2:
        raise ProbeError("degenerate fit: fewer than two envelope points")
    inter, slope, rms = fit_line([ns[i] for i in peaks], [logs[i] for i in peaks], m)
    return DecayFit(
        C=m.exp(inter),
        b=m.exp(-slope),
        residual=m.exp(rms) - 1,
        ratios=tuple(ratios),
    )


def integral_representation_check(n: int) -> bool:
    """Exact check of q_n(4y(1 - y)) = sum_{k=1}^{2n} a_k(n) y^k.

    This is the kernel statement of the integral representation
    ``f_n(x) = int_0^inf q_n(4 e^-u (1 - e^-u)) f(x u / ln 2) du``: with
    y = e^-u the summation form ``(ln 2 / x) sum a_k F(k ln 2 / x)`` is
    the same integral over ``sum a_k y^k``, so the two forms agree for
    every original exactly when the polynomials do.  ``D q_n(4y(1 - y))``
    is expanded in integers from the numerators N_i of
    ``_qn_integer_form`` as ``sum N_i 4^i y^i (1 - y)^i``, and each
    coefficient is compared with a_k(n) over D by cross-multiplying.
    ``n`` is an approximant order, 1..64.
    """
    check_order(n)
    numerators, D = _qn_integer_form(n)
    poly = [0] * (2 * n + 1)  # D q_n(4y(1 - y)) = sum poly[k] y^k
    for i, N in enumerate(numerators, 1):
        c = N << 2 * i  # N_i 4^i
        for j in range(i + 1):  # y^i (1 - y)^i = sum_j (-1)^j C(i, j) y^(i+j)
            poly[i + j] += (-1) ** j * comb(i, j) * c
    a = gaver_stehfest_coeffs(n).a
    return all(p * ak.denominator == ak.numerator * D for p, ak in zip(poly[1:], a))
