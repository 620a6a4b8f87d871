"""Principal-branch Lambert W over the complex plane.

The defining equation is ``w e^w = z``.  The principal branch is analytic
on the plane cut along ``(-inf, -1/e]``; on the cut itself this module
returns the boundary value taken from the upper half-plane (``0 < Im w <
pi``), so W is continuous for ``Im z >= 0``.  The conjugate solution is
obtained by the caller via conjugation.

Algorithm selection per region:

* ``|z| < 0.2/e``: Taylor series at 0 (geometric ratio <= 0.2),
* ``|1 + e z| < 0.05``: square-root branch series at ``z = -1/e`` with
  exact rational coefficients extended by a recurrence,
* otherwise: Halley iteration with a region-dependent seed: the
  branch-point series to p^4 for ``|1 + e z| < 0.45`` and for the part of
  ``|z| <= 1.2`` left of the branch point (off the cut), the Taylor sum
  for ``|z| < 0.2/e``, ``z (1 - z)`` in the rest of ``|z| <= 1.2``, and
  ``ln z - ln ln z`` (or the linearization at W(1) near z = 1) beyond.

Every region finishes with Halley's iteration, which runs on the
integer steps of :mod:`gsinv.mantissa`; only ``mpc_exp``'s ``mpf_exp``
and ``mpf_cos_sin`` stay libmp calls.  What depends only on the
precision (the branch point, the tolerances, the region radii, the seed
constants and the rounded branch series) is built once per binary
precision, with the caller's context, and kept as raw tuples in
``numerics._TABLES``, the one store of per-precision tables, bounded at
256 entries.  The two stop tests ``|f| <= rtol`` and ``|dw| <= 10**-dps
(1 + |w|)`` are screened on the integers first: a nonzero part
``man 2**exp`` lies in ``[2**(top-1), 2**top)`` with ``top = exp +
man.bit_length()``, so when those bounds alone show a test false, its
``hypot`` is skipped.  A test the bounds cannot decide, or
one on zero, is made exactly on raw tuples.

The prologue that picks the region runs on raw tuples too: ``1 + e z``
and the log seed ``ln z - ln ln z`` make the libmpc calls of their
operator forms.  The region tests ``|1 + e z| < 0.05``, ``|1 + e z| <
0.45`` and ``|ln z| < 0.2`` are screened on exponents in the same way:
a part of ``1 + e z`` of at least 1/2, or a part of ``ln z`` of at least
1/4, settles them as false without a ``hypot``.  ``|z|``, which sets the
tolerances, is always exact.  An argument with ``Im z < 0`` is solved
at its conjugate and the result conjugated, as
``conj(W(conj z))``.  The bits are those of the plain mpc arithmetic.
:func:`wew_residual`, which only checks a result, makes the libmp calls
of ``abs(w * exp(w) - z)`` on raw tuples in ``_wew_residual``, which the
identity check of :mod:`gsinv.verify` also calls once per point.
"""
from __future__ import annotations

import math
import threading
from fractions import Fraction
from typing import NamedTuple

from mpmath.libmp import (finf, fnone, fone, fzero, mpc_abs, mpc_add_mpf, mpc_conjugate,
                          mpc_exp, mpc_log, mpc_mul, mpc_mul_mpf, mpc_sub, mpc_to_str, mpf_add,
                          mpf_cos_sin, mpf_exp, mpf_gt, mpf_le, mpf_lt, mpf_mul, round_nearest,
                          to_str)

from .coeffs import check_count
from .errors import DomainError, PrecisionError, as_number
from .mantissa import _add, _cdiv, _cmul, _csub, _raw, _round_even, _signed
from .numerics import _TABLES, PrecisionContext, mpf_tuples, power_sum


# -- exact branch-point coefficients ----------------------------------
#
# Write w = -1 + u(p).  The defining equation becomes
#   sum_{k>=2} (k-1)/k! u^k = p^2/2.
# Differentiating in p and substituting back yields, with s = u^2,
#   (p^2/2 - 1) s'/2 = p u - p,
# whose coefficients give an O(N^2) recurrence: for M >= 2
#   s_{M+1} = ((M-1) s_{M-1}/4 - mu_{M-1}) * 2/(M+1)
#   mu_M    = (s_{M+1} - sum_{j=2}^{M-1} mu_j mu_{M+1-j}) / 2.
# The test suite resubstitutes u into the defining equation (exact
# rationals) and requires the residual series to vanish through order N.

_MU = [Fraction(-1), Fraction(1)]
_S2 = [Fraction(0), Fraction(0), Fraction(1)]  # s = u^2
_MU_LOCK = threading.Lock()


def _extend_mu(N: int):
    with _MU_LOCK:
        while len(_MU) <= N:
            M = len(_MU)
            s_next = (Fraction(M - 1) * _S2[M - 1] / 4 - _MU[M - 1]) * Fraction(2, M + 1)
            cross = sum(_MU[j] * _MU[M + 1 - j] for j in range(2, M))
            _MU.append((s_next - cross) / 2)
            _S2.append(s_next)


def branch_series(N: int) -> tuple[Fraction, ...]:
    """Exact coefficients mu_0..mu_N of W(z) = sum mu_n p^n, p = sqrt(2(1+ez))."""
    check_count(N)
    _extend_mu(N)
    return tuple(_MU[: N + 1])


_CZERO = (fzero, fzero)


def in_region_a(w, tol=0) -> bool:
    """Membership in the principal-branch range A.

    A = { x + iy : x > -y cot(y), -pi < y < pi }, with the y = 0 slice
    meaning x > -1 (the limit of -y cot y).  The test runs in floats; its
    slack beyond ``tol`` covers rounding x and y to floats; the error of y
    is scaled by the boundary's slope ``y / sin(y)^2 - cot(y)``, so
    a W on the boundary curve (the cut) tests inside.
    """
    x, y = float(w.real), float(w.imag)
    if not -math.pi < y < math.pi:
        return False
    if y == 0:
        return x > -1 - float(tol)
    y_slope = (y / math.sin(y)) ** 2 - y / math.tan(y)
    return x >= -y / math.tan(y) - float(tol) - 1e-15 * (1 + abs(x) + abs(y_slope))


def wew_residual(w, z, ctx: PrecisionContext):
    """|w e^w - z| at working precision.

    ``w`` and ``z`` are taken as ``m.mpc`` takes them: a float or complex
    exactly, an mpf or mpc of any context with each part rounded to the
    working precision.  So a w wider than the context is
    checked at its rounded bits, not its own: a 60-digit W(2+3i) checked
    at 30 digits gives 4.59e-41, its own bits 2.30e-41.
    """
    m = ctx.mp
    return m.make_mpf(_wew_residual(m.mpc(w)._mpc_, m.mpc(z)._mpc_, m.prec))


def _wew_residual(w, z, prec):
    """``|w e^w - z|`` of the raw mpc ``w`` and ``z``, with the libmp calls of the
    operator form ``abs(w * exp(w) - z)`` at ``prec``."""
    wew = mpc_mul(w, mpc_exp(w, prec, round_nearest), prec, round_nearest)
    return mpc_abs(mpc_sub(wew, z, prec, round_nearest), prec, round_nearest)


class _WConstants(NamedTuple):
    """Raw ``_mpf_`` tuples of the quantities :func:`lambert_w0` needs at one precision."""

    minus_inv_e: tuple  # -1/e, the branch point
    e: tuple
    rtol_scale: tuple  # 10**(-dps + 2)
    rtol_factor: tuple  # 1e-4
    step_tol: tuple  # 10**(-dps), Halley's relative step tolerance
    taylor_tol: tuple  # 10**(-dps - 5), the Taylor tail cut-off
    branch_radius: tuple  # |1 + e z| < 0.05: branch series
    seed_radius: tuple  # |1 + e z| < 0.45: branch-point seed
    taylor_radius: tuple  # |z| < 0.2/e: Taylor series
    disk_radius: tuple  # |z| <= 1.2: seed z (1 - z)
    omega_radius: tuple  # |ln z| < 0.2: linearization at W(1)
    omega: tuple  # W(1)


def _build_w_constants(m) -> _WConstants:
    e = m.e
    return _WConstants(*(x._mpf_ for x in (
        -m.exp(-1), e, m.mpf(10) ** (-m.dps + 2), m.mpf("1e-4"), m.mpf(10) ** (-m.dps),
        m.mpf(10) ** (-m.dps - 5), m.mpf("0.05"), m.mpf("0.45"), m.mpf("0.2") / e,
        m.mpf("1.2"), m.mpf("0.2"), m.mpf("0.5671432904097838729999686622103555497538"),
    )))


def _top(v):
    """``exp + bit length`` of the larger part of ``v``, a pair of ``(man, exp)`` parts.

    A nonzero part c has ``2**(top - 1) <= |c| < 2**top``.  None when
    both parts are zero.
    """
    (rm, re), (im, ie) = v
    if rm:
        return max(re + rm.bit_length(), ie + im.bit_length()) if im else re + rm.bit_length()
    return ie + im.bit_length() if im else None


def _screened_abs(v, top_min, prec):
    """``|v|`` of the finite raw mpc ``v``, or inf once a part has ``_top >= top_min``.

    Such a part alone gives ``|v| >= 2**(top_min - 1)``, so the inf
    stands in for ``|v|`` in a comparison with a smaller radius.
    """
    top = _top(_signed(v))
    if top is not None and top >= top_min:
        return finf
    return mpc_abs(v, prec, round_nearest)


def _halley(z, w, rtol, step_tol, prec, max_residual):
    """Halley's iteration for ``w e^w = z`` on raw ``_mpc_`` tuples.

    Each step computes ``w * e^w - z`` and ``ew (w+1) - (w+2) f / (2 (w+1))``
    with the bits of the mpc operators: ``mpc_exp``'s ``mpf_exp`` and
    ``mpf_cos_sin`` are libmp calls, every other operation an exact
    product or a step of :mod:`gsinv.mantissa`.  The stop tests
    ``|f| <= rtol`` and ``|dw| <= step_tol (1 + |w|)`` are first screened
    on the integers' exponents (see :func:`_top`): when the bounds alone
    show a test false, its ``hypot`` is skipped.  After 100
    steps the stored residuals are replayed with strict ``<``, which
    returns the first w of least residual, as tracking it on every step
    would.

    ``max_residual()`` is called only on that fallback and returns the
    raw bound the best ``|f|`` must meet; a w that misses it raises
    :class:`PrecisionError` instead of being returned.
    """
    f_screen = rtol[2] + rtol[3] + 2  # _top(f) >= f_screen: |f| >= 2**(f_screen - 1) > rtol
    step_screen = step_tol[2] + step_tol[3] + 3
    mz, (wr, wi) = _signed(z), _signed(w)
    steps = []
    for _ in range(100):
        if not wr[0]:  # mpc_exp: cos and sin at prec when Re w = 0, exp when Im w = 0
            ew = _signed(mpf_cos_sin(w[1], prec, round_nearest))
        elif not wi[0]:
            ew = (_signed(mpf_exp(w[0], prec, round_nearest)), (0, 0))
        else:
            mm, me = _signed(mpf_exp(w[0], prec + 4, round_nearest))
            (cm, ce), (sm, se) = _signed(mpf_cos_sin(w[1], prec + 4, round_nearest))
            ew = (_round_even(mm * cm, me + ce, prec), _round_even(mm * sm, me + se, prec))
        f = _csub(_cmul((wr, wi), ew, prec), mz, prec)
        steps.append((w, f))
        top_f = _top(f)
        if top_f is None or top_f < f_screen:
            if mpf_le(mpc_abs(_raw(f), prec, round_nearest), rtol):
                return w
        w1r = _add(*wr, 1, 0, prec)  # Re (w + 1)
        if not (w1r[0] or wi[0]):
            return w  # branch point: iteration map is singular there
        ew_w1 = _cmul(ew, (w1r, wi), prec)
        w1x2 = ((w1r[0], w1r[1] + 1), (wi[0], wi[1] + 1))  # 2 (w + 1): exact
        denom = _csub(ew_w1, _cdiv(_cmul((_add(*wr, 1, 1, prec), wi), f, prec), w1x2, prec), prec)
        if not (denom[0][0] or denom[1][0]):
            denom = ew_w1
        dw = _cdiv(f, denom, prec)
        wr, wi = _csub((wr, wi), dw, prec)
        w = _raw((wr, wi))
        top_dw, top_w = _top(dw), _top((wr, wi))
        if top_dw is None or top_w is None or top_dw < step_screen + max(top_w + 1, 0):
            aw1 = mpf_add(mpc_abs(w, prec, round_nearest), fone, prec, round_nearest)  # |w| + 1
            bound = mpf_mul(step_tol, aw1, prec, round_nearest)
            if mpf_le(mpc_abs(_raw(dw), prec, round_nearest), bound):
                return w
    best_w, best_f = steps[0][0], finf
    for w, f in steps:
        af = mpc_abs(_raw(f), prec, round_nearest)
        if mpf_lt(af, best_f):
            best_w, best_f = w, af
    bound = max_residual()
    if not mpf_le(best_f, bound):
        raise PrecisionError(
            f"Halley's iteration for W({mpc_to_str(z, 10)}) did not converge: best "
            f"residual {to_str(best_f, 6)} exceeds {to_str(bound, 3)}"
        )
    return best_w


def _taylor_w(m, z, tol):
    # W(z) = sum (-n)^(n-1) z^n / n!; term ratio -((n+1)/n)^(n-1) * z.
    # The sum starts at z, so a z below the cut-off is its own W.
    acc = term = m.mpc(z)
    n = 2
    while True:
        term = term * z * (-((1 + m.mpf(1) / (n - 1)) ** (n - 2)))
        if abs(term) <= tol:
            return acc
        acc += term
        n += 1


def lambert_w0(z, ctx: PrecisionContext):
    """Principal-branch W(z) with the upper-boundary extension on the cut.

    Parameters
    ----------
    z : complex or real
        Finite argument.  For real ``z < -1/e`` the representative with
        ``0 < Im w < pi`` is returned.  An mpc or mpf of ``ctx`` whose
        parts fit its precision is taken as it is; any other value as
        ``m.mpc`` takes it, which rounds each part to that precision.
    ctx : PrecisionContext

    Returns
    -------
    mpc
        ``w`` with ``|w e^w - z| <= max(|z|, 1) * 10**(-digits + guard)``
        and ``w`` inside the region A (boundary curve included on the cut).
        For ``|z| < 1`` the bound is absolute, not relative: ``w`` for
        ``z = 1e-46`` at 60 digits agrees with W to about 46 digits.

    Raises
    ------
    DomainError
        If ``z`` is infinite or NaN.
    PrecisionError
        If Halley's iteration ends without a ``w`` meeting that bound.
    """
    m = ctx.mp
    prec = m.prec
    if type(z) is m.mpc and z._mpc_[0][3] <= prec and z._mpc_[1][3] <= prec:
        zc = z._mpc_  # parts that fit prec: m.mpc would return their bits
    elif type(z) is m.mpf and z._mpf_[3] <= prec:
        zc = (z._mpf_, fzero)
    else:
        zc = as_number(m.mpc, z, "complex number")._mpc_
    if any(not man and exp for _s, man, exp, _bc in zc):  # inf or nan
        raise DomainError(f"lambert_w0 needs a finite argument, got {m.make_mpc(zc)}")
    if zc == _CZERO:
        return m.mpc(0)
    if mpf_lt(zc[1], fzero):  # W(conj z) = conj W(z)
        w = _w0_upper(mpc_conjugate(zc, prec, round_nearest), ctx)
        return m.make_mpc(mpc_conjugate(w, prec, round_nearest))
    return m.make_mpc(_w0_upper(zc, ctx))


def _w0_upper(zc, ctx: PrecisionContext):
    """Raw W of the nonzero finite raw ``zc`` with ``Im z >= 0``; see :func:`lambert_w0`."""
    m = ctx.mp
    z, (zr, zi) = m.make_mpc(zc), zc
    prec = m.prec
    K = _TABLES.get(("w", prec), lambda: _build_w_constants(m))
    on_cut = zi == fzero and mpf_lt(zr, K.minus_inv_e)
    az = mpc_abs(zc, prec, round_nearest)
    scale = az if mpf_gt(az, fone) else fone  # max(|z|, 1)
    rtol = mpf_mul(K.rtol_scale, scale, prec, round_nearest)
    rtol = mpf_mul(rtol, K.rtol_factor, prec, round_nearest)
    ez1 = mpc_add_mpf(mpc_mul_mpf(zc, K.e, prec, round_nearest), fone, prec,
                      round_nearest)  # 1 + e z
    aez1 = _screened_abs(ez1, 0, prec)  # a part >= 1/2: beyond 0.05 and 0.45
    in_disk = mpf_le(az, K.disk_radius) and not on_cut

    if mpf_lt(aez1, K.branch_radius):
        p = m.sqrt(2 * m.make_mpc(ez1))  # principal root: Im p >= 0 on the cut side
        if p == 0:
            return (fnone, fzero)
        N = int(1.6 * m.dps) + 12
        mu = _TABLES.get(("mu", N, prec), lambda: mpf_tuples(branch_series(N), prec))
        w = power_sum(mu, p, m)._mpc_  # |p| < 0.32: inside the |p| < sqrt(2) disk
    elif mpf_lt(aez1, K.seed_radius) or (in_disk and mpf_lt(zr, K.minus_inv_e)):
        # left of the branch point the seed z (1 - z) can lead Halley to
        # another branch, or next to the cut to no root at all
        p = m.sqrt(2 * m.make_mpc(ez1))
        mu = _TABLES.get(("mu", 4, prec), lambda: mpf_tuples(branch_series(4), prec))
        mk = m.make_mpf
        w = (-1 + p - p**2 / 3 + mk(mu[3]) * p**3 + mk(mu[4]) * p**4)._mpc_
    elif mpf_lt(az, K.taylor_radius):
        w = _taylor_w(m, z, m.make_mpf(K.taylor_tol))._mpc_
    elif in_disk:
        w = (z * (1 - z))._mpc_
    else:
        lz = mpc_log(zc, prec, round_nearest)  # principal log; Im = pi on the cut
        if mpf_lt(_screened_abs(lz, -1, prec), K.omega_radius):  # a part >= 1/4: beyond 0.2
            # near z = 1 the log seed degenerates; linearize at W(1)
            omega = m.make_mpf(K.omega)
            w = (omega + (z - 1) * omega / (1 + omega))._mpc_
        else:
            w = mpc_sub(lz, mpc_log(lz, prec, round_nearest), prec, round_nearest)
        if on_cut and mpf_lt(w[1], fzero):
            w = mpc_conjugate(w, prec, round_nearest)

    def max_residual():  # the documented max(|z|, 1) 10**(-digits + guard)
        return mpf_mul(scale, (m.mpf(10) ** (ctx.guard - ctx.digits))._mpf_, prec, round_nearest)

    w = _halley(zc, w, rtol, K.step_tol, prec, max_residual)

    if on_cut and mpf_lt(w[1], fzero):
        w = mpc_conjugate(w, prec, round_nearest)
    return w


def w_of_v(v, ctx: PrecisionContext):
    """The curve w(v) = W(-1/(e v)) for v in (0, 1].

    Equivalently the unique root of ``1 + v z e^(1+z) = 0`` with
    ``0 <= Im z < pi``; the residual of that equation is below
    ``10**(-digits + guard)``.
    """
    m = ctx.mp
    v = ctx.mpf(v)
    if not 0 < v <= 1:
        raise DomainError(f"v must be in (0, 1], got {v}")
    if v == 1:
        return m.mpc(-1)
    return lambert_w0(-1 / (m.e * v), ctx)


def xi_alpha(v, ctx: PrecisionContext):
    """The pair (xi(v), alpha(v)): xi = W(-1/(e(1-4v^2))) and alpha = Im xi, v in [0, 1/2).

    Both |xi| and alpha are smooth and strictly increasing on [0, 1/2);
    near 0, alpha(v) = 2 sqrt(2) v + (14 sqrt(2)/9) v^3 + O(v^5).
    """
    v = ctx.mpf(v)
    if not 0 <= v < ctx.mp.mpf("0.5"):
        raise DomainError(f"v must be in [0, 1/2), got {v}")
    xi = w_of_v(1 - 4 * v * v, ctx)  # w_of_v(1) = -1 at v = 0
    return xi, xi.imag
