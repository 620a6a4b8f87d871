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

Every region finishes with Halley's iteration.  Each step runs as two
passes of straight-line integer code, :func:`_wew` for ``e^w`` and ``f
= w e^w - z`` and :func:`_halley_step` for the update, which round
every sum in line with the bits of the mpc operators; only
``mpc_exp``'s ``mpf_exp`` and ``mpf_cos_sin`` stay libmp calls.  What depends only on the
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
:func:`wew_residual`, which only checks a result, takes ``mpc_abs`` of
the f of :func:`_wew` in ``_wew_residual``, which the identity check of
:mod:`gsinv.verify` also calls once per point: the package has one
definition of ``w e^w - z``, with the bits of ``abs(w * exp(w) - z)``.
"""
from __future__ import annotations

import math
import threading
from fractions import Fraction
from typing import NamedTuple

from mpmath.libmp import (finf, fnone, fone, fzero, mpc_abs, mpc_add_mpf, mpc_conjugate,
                          mpc_log, mpc_mul_mpf, mpc_sub, mpc_to_str, mpf_add, mpf_cos_sin,
                          mpf_exp, mpf_gt, mpf_le, mpf_lt, mpf_mul, round_nearest, to_str)

from .coeffs import check_count
from .errors import DomainError, PrecisionError, as_number
from .mantissa import _raw, _signed, _unrounded_sum
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
    at 30 digits gives 4.59e-41, its own bits 2.30e-41.  An infinite or
    nan part takes mpmath's operators, whose rules for them the integer
    steps of ``_wew`` do not carry.
    """
    m = ctx.mp
    w, z = m.mpc(w), m.mpc(z)
    if any(not man and exp for _, man, exp, _ in w._mpc_ + z._mpc_):  # inf or nan
        return abs(w * m.exp(w) - z)
    return m.make_mpf(_wew_residual(w._mpc_, z._mpc_, m.prec))


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


def _wew_residual(w, z, prec):
    """``|w e^w - z|`` of the finite raw mpc ``w`` and ``z``: ``mpc_abs`` of the f of
    :func:`_wew`, with the bits of the operator form ``abs(w * exp(w) - z)``."""
    wew = _wew(w, z, prec)
    return mpc_abs(_raw(((wew[4], wew[5]), (wew[6], wew[7]))), prec, round_nearest)


# Halley's step runs as straight-line integer code over local ints, with
# the bits of the mpc operators: each part is ``man 2**exp``, each sum is
# formed exactly from its operands (exact products mostly) and rounded
# in line, half to even at prec, except mpc_div's three sums, which
# round toward zero at wp = prec + 10.  A signed s rounds half to even at
# n dropped bits as (s + 2**(n-1) - 1 + (s >> n & 1)) >> n: the floor
# quotient, raised when the remainder passes half or reaches it from an
# odd quotient.  A sum whose operands' tops lie more than prec + 4 bits
# apart (wp + 4 for mpc_div's) takes mpf_add's far-operand rule through
# mantissa._unrounded_sum, so no shift spans the gap.  A quotient keeps
# prec + 2 bits and a sticky bit for the remainder, as mpf_div does.


def _wew(w, z, prec):
    """``e^w`` and ``f = w e^w - z`` of the finite raw mpc ``w`` and ``z``, as ``mpc_exp``,
    then ``mpc_mul`` and ``mpc_sub`` round them at ``prec``: the parts of both, flat, as
    ``(er, ere, ei, eie, fr, fre, fi, fie)``.

    ``mpc_exp`` takes cos and sin at prec when Re w = 0, exp when Im w =
    0, and otherwise both at ``prec + 4``, whose products it rounds; its
    ``mpf_exp`` and ``mpf_cos_sin`` stay libmp calls.
    """
    (s, a, ae, _), (t, b, be, _) = w
    a, b = -a if s else a, -b if t else b
    (s, zr, zre, _), (t, zi, zie, _) = z
    zr, zi = -zr if s else zr, -zi if t else zi
    if not a:
        (s, er, ere, _), (t, ei, eie, _) = mpf_cos_sin(w[1], prec, round_nearest)
    elif not b:
        (s, er, ere, _), t, ei, eie = mpf_exp(w[0], prec, round_nearest), 0, 0, 0
    else:
        _, m, me, _ = mpf_exp(w[0], prec + 4, round_nearest)
        (s, er, ere, _), (t, ei, eie, _) = mpf_cos_sin(w[1], prec + 4, round_nearest)
        er, ere, ei, eie = m * er, me + ere, m * ei, me + eie
        n = er.bit_length() - prec
        if n > 0:
            er, ere = (er + (1 << n - 1) - 1 + (er >> n & 1)) >> n, ere + n
        n = ei.bit_length() - prec
        if n > 0:
            ei, eie = (ei + (1 << n - 1) - 1 + (ei >> n & 1)) >> n, eie + n
    er, ei, far = -er if s else er, -ei if t else ei, prec + 4
    p, pe, q, qe = a * er, ae + ere, -b * ei, be + eie  # Re (w e^w)
    g = pe + p.bit_length() - qe - q.bit_length()
    pr, pre = (_unrounded_sum(p, pe, q, qe, prec) if g > far or g < -far else
               (p + (q << qe - pe), pe) if pe < qe else ((p << pe - qe) + q, qe))
    n = pr.bit_length() - prec
    if n > 0:
        pr, pre = (pr + (1 << n - 1) - 1 + (pr >> n & 1)) >> n, pre + n
    p, pe, q, qe = a * ei, ae + eie, b * er, be + ere  # Im (w e^w)
    g = pe + p.bit_length() - qe - q.bit_length()
    pi, pie = (_unrounded_sum(p, pe, q, qe, prec) if g > far or g < -far else
               (p + (q << qe - pe), pe) if pe < qe else ((p << pe - qe) + q, qe))
    n = pi.bit_length() - prec
    if n > 0:
        pi, pie = (pi + (1 << n - 1) - 1 + (pi >> n & 1)) >> n, pie + n
    p, pe, q, qe = pr, pre, -zr, zre  # Re f
    g = pe + p.bit_length() - qe - q.bit_length()
    fr, fre = (_unrounded_sum(p, pe, q, qe, prec) if g > far or g < -far else
               (p + (q << qe - pe), pe) if pe < qe else ((p << pe - qe) + q, qe))
    n = fr.bit_length() - prec
    if n > 0:
        fr, fre = (fr + (1 << n - 1) - 1 + (fr >> n & 1)) >> n, fre + n
    p, pe, q, qe = pi, pie, -zi, zie  # Im f
    g = pe + p.bit_length() - qe - q.bit_length()
    fi, fie = (_unrounded_sum(p, pe, q, qe, prec) if g > far or g < -far else
               (p + (q << qe - pe), pe) if pe < qe else ((p << pe - qe) + q, qe))
    n = fi.bit_length() - prec
    if n > 0:
        fi, fie = (fi + (1 << n - 1) - 1 + (fi >> n & 1)) >> n, fie + n
    return er, ere, ei, eie, fr, fre, fi, fie


def _halley_step(w, wew, prec):
    """``dw = f / (h - (w + 2) f / (2 (w + 1)))``, ``h = e^w (w + 1)``, and ``w - dw`` of
    the finite raw mpc ``w`` and ``wew = _wew(w, z, prec)``, as the mpc operators round
    them at ``prec``: the parts of both, flat, as ``(kr, kre, ki, kie, wr, wre, wi, wie)``.

    A zero denominator is replaced by h.  None at the branch point, where
    ``w + 1`` rounds to 0 and the iteration map is singular.
    """
    (s, a, ae, _), (t, b, be, _) = w
    a, b = -a if s else a, -b if t else b
    er, ere, ei, eie, fr, fre, fi, fie = wew
    far, wp, wfar = prec + 4, prec + 10, prec + 14
    p, pe, q, qe = a, ae, 1, 0  # Re (w + 1)
    g = pe + p.bit_length() - qe - q.bit_length()
    u, ue = (_unrounded_sum(p, pe, q, qe, prec) if g > far or g < -far else
             (p + (q << qe - pe), pe) if pe < qe else ((p << pe - qe) + q, qe))
    n = u.bit_length() - prec
    if n > 0:
        u, ue = (u + (1 << n - 1) - 1 + (u >> n & 1)) >> n, ue + n
    if not (u or b):
        return None
    p, pe, q, qe = er * u, ere + ue, -ei * b, eie + be  # h = e^w (w + 1)
    g = pe + p.bit_length() - qe - q.bit_length()
    hr, hre = (_unrounded_sum(p, pe, q, qe, prec) if g > far or g < -far else
               (p + (q << qe - pe), pe) if pe < qe else ((p << pe - qe) + q, qe))
    n = hr.bit_length() - prec
    if n > 0:
        hr, hre = (hr + (1 << n - 1) - 1 + (hr >> n & 1)) >> n, hre + n
    p, pe, q, qe = er * b, ere + be, ei * u, eie + ue  # Im h
    g = pe + p.bit_length() - qe - q.bit_length()
    hi, hie = (_unrounded_sum(p, pe, q, qe, prec) if g > far or g < -far else
               (p + (q << qe - pe), pe) if pe < qe else ((p << pe - qe) + q, qe))
    n = hi.bit_length() - prec
    if n > 0:
        hi, hie = (hi + (1 << n - 1) - 1 + (hi >> n & 1)) >> n, hie + n
    p, pe, q, qe = a, ae, 1, 1  # Re (w + 2)
    g = pe + p.bit_length() - qe - q.bit_length()
    v, ve = (_unrounded_sum(p, pe, q, qe, prec) if g > far or g < -far else
             (p + (q << qe - pe), pe) if pe < qe else ((p << pe - qe) + q, qe))
    n = v.bit_length() - prec
    if n > 0:
        v, ve = (v + (1 << n - 1) - 1 + (v >> n & 1)) >> n, ve + n
    p, pe, q, qe = v * fr, ve + fre, -b * fi, be + fie  # t = (w + 2) f
    g = pe + p.bit_length() - qe - q.bit_length()
    tr, tre = (_unrounded_sum(p, pe, q, qe, prec) if g > far or g < -far else
               (p + (q << qe - pe), pe) if pe < qe else ((p << pe - qe) + q, qe))
    n = tr.bit_length() - prec
    if n > 0:
        tr, tre = (tr + (1 << n - 1) - 1 + (tr >> n & 1)) >> n, tre + n
    p, pe, q, qe = v * fi, ve + fie, b * fr, be + fre  # Im t
    g = pe + p.bit_length() - qe - q.bit_length()
    ti, tie = (_unrounded_sum(p, pe, q, qe, prec) if g > far or g < -far else
               (p + (q << qe - pe), pe) if pe < qe else ((p << pe - qe) + q, qe))
    n = ti.bit_length() - prec
    if n > 0:
        ti, tie = (ti + (1 << n - 1) - 1 + (ti >> n & 1)) >> n, tie + n
    wp = prec + 10  # q = t / (2 (w + 1)), the 2 exact in the exponents
    p, pe, q, qe = u * u, 2 * ue + 2, b * b, 2 * be + 2  # |2 (w + 1)|^2
    g = pe + p.bit_length() - qe - q.bit_length()
    ma, mae = (_unrounded_sum(p, pe, q, qe, wp) if g > wfar or g < -wfar else
               (p + (q << qe - pe), pe) if pe < qe else ((p << pe - qe) + q, qe))
    n = ma.bit_length() - wp
    if n > 0:
        ma, mae = ma >> n, mae + n
    p, pe, q, qe = tr * u, tre + ue + 1, ti * b, tie + be + 1  # Re t conj(2 (w + 1))
    g = pe + p.bit_length() - qe - q.bit_length()
    sa, sae = (_unrounded_sum(p, pe, q, qe, wp) if g > wfar or g < -wfar else
               (p + (q << qe - pe), pe) if pe < qe else ((p << pe - qe) + q, qe))
    n = sa.bit_length() - wp
    if n > 0:
        sa, sae = sa >> n if sa > 0 else -(-sa >> n), sae + n
    p, pe, q, qe = ti * u, tie + ue + 1, -tr * b, tre + be + 1  # Im t conj(2 (w + 1))
    g = pe + p.bit_length() - qe - q.bit_length()
    ta, tae = (_unrounded_sum(p, pe, q, qe, wp) if g > wfar or g < -wfar else
               (p + (q << qe - pe), pe) if pe < qe else ((p << pe - qe) + q, qe))
    n = ta.bit_length() - wp
    if n > 0:
        ta, tae = ta >> n if ta > 0 else -(-ta >> n), tae + n
    qr = qre = 0
    if sa:
        p = -sa if sa < 0 else sa
        k = prec + 2 + ma.bit_length() - p.bit_length()
        p, r = divmod(p << k, ma) if k >= 0 else divmod(p, ma << -k)
        p = p << 1 | (r != 0)
        n = p.bit_length() - prec
        p = (p + (1 << n - 1) - 1 + (p >> n & 1)) >> n
        qr, qre = -p if sa < 0 else p, sae - mae - k - 1 + n
    qi = qie = 0
    if ta:
        p = -ta if ta < 0 else ta
        k = prec + 2 + ma.bit_length() - p.bit_length()
        p, r = divmod(p << k, ma) if k >= 0 else divmod(p, ma << -k)
        p = p << 1 | (r != 0)
        n = p.bit_length() - prec
        p = (p + (1 << n - 1) - 1 + (p >> n & 1)) >> n
        qi, qie = -p if ta < 0 else p, tae - mae - k - 1 + n
    p, pe, q, qe = hr, hre, -qr, qre  # d = h - q
    g = pe + p.bit_length() - qe - q.bit_length()
    dr, dre = (_unrounded_sum(p, pe, q, qe, prec) if g > far or g < -far else
               (p + (q << qe - pe), pe) if pe < qe else ((p << pe - qe) + q, qe))
    n = dr.bit_length() - prec
    if n > 0:
        dr, dre = (dr + (1 << n - 1) - 1 + (dr >> n & 1)) >> n, dre + n
    p, pe, q, qe = hi, hie, -qi, qie  # Im d
    g = pe + p.bit_length() - qe - q.bit_length()
    di, die = (_unrounded_sum(p, pe, q, qe, prec) if g > far or g < -far else
               (p + (q << qe - pe), pe) if pe < qe else ((p << pe - qe) + q, qe))
    n = di.bit_length() - prec
    if n > 0:
        di, die = (di + (1 << n - 1) - 1 + (di >> n & 1)) >> n, die + n
    if not (dr or di):
        dr, dre, di, die = hr, hre, hi, hie
    p, pe, q, qe = dr * dr, dre + dre, di * di, die + die  # |d|^2; dw = f / d
    g = pe + p.bit_length() - qe - q.bit_length()
    mb, mbe = (_unrounded_sum(p, pe, q, qe, wp) if g > wfar or g < -wfar else
               (p + (q << qe - pe), pe) if pe < qe else ((p << pe - qe) + q, qe))
    n = mb.bit_length() - wp
    if n > 0:
        mb, mbe = mb >> n, mbe + n
    p, pe, q, qe = fr * dr, fre + dre, fi * di, fie + die  # Re f conj(d)
    g = pe + p.bit_length() - qe - q.bit_length()
    sb, sbe = (_unrounded_sum(p, pe, q, qe, wp) if g > wfar or g < -wfar else
               (p + (q << qe - pe), pe) if pe < qe else ((p << pe - qe) + q, qe))
    n = sb.bit_length() - wp
    if n > 0:
        sb, sbe = sb >> n if sb > 0 else -(-sb >> n), sbe + n
    p, pe, q, qe = fi * dr, fie + dre, -fr * di, fre + die  # Im f conj(d)
    g = pe + p.bit_length() - qe - q.bit_length()
    tb, tbe = (_unrounded_sum(p, pe, q, qe, wp) if g > wfar or g < -wfar else
               (p + (q << qe - pe), pe) if pe < qe else ((p << pe - qe) + q, qe))
    n = tb.bit_length() - wp
    if n > 0:
        tb, tbe = tb >> n if tb > 0 else -(-tb >> n), tbe + n
    kr = kre = 0
    if sb:
        p = -sb if sb < 0 else sb
        k = prec + 2 + mb.bit_length() - p.bit_length()
        p, r = divmod(p << k, mb) if k >= 0 else divmod(p, mb << -k)
        p = p << 1 | (r != 0)
        n = p.bit_length() - prec
        p = (p + (1 << n - 1) - 1 + (p >> n & 1)) >> n
        kr, kre = -p if sb < 0 else p, sbe - mbe - k - 1 + n
    ki = kie = 0
    if tb:
        p = -tb if tb < 0 else tb
        k = prec + 2 + mb.bit_length() - p.bit_length()
        p, r = divmod(p << k, mb) if k >= 0 else divmod(p, mb << -k)
        p = p << 1 | (r != 0)
        n = p.bit_length() - prec
        p = (p + (1 << n - 1) - 1 + (p >> n & 1)) >> n
        ki, kie = -p if tb < 0 else p, tbe - mbe - k - 1 + n
    p, pe, q, qe = a, ae, -kr, kre  # w - dw
    g = pe + p.bit_length() - qe - q.bit_length()
    wr, wre = (_unrounded_sum(p, pe, q, qe, prec) if g > far or g < -far else
               (p + (q << qe - pe), pe) if pe < qe else ((p << pe - qe) + q, qe))
    n = wr.bit_length() - prec
    if n > 0:
        wr, wre = (wr + (1 << n - 1) - 1 + (wr >> n & 1)) >> n, wre + n
    p, pe, q, qe = b, be, -ki, kie  # Im (w - dw)
    g = pe + p.bit_length() - qe - q.bit_length()
    wi, wie = (_unrounded_sum(p, pe, q, qe, prec) if g > far or g < -far else
               (p + (q << qe - pe), pe) if pe < qe else ((p << pe - qe) + q, qe))
    n = wi.bit_length() - prec
    if n > 0:
        wi, wie = (wi + (1 << n - 1) - 1 + (wi >> n & 1)) >> n, wie + n
    return kr, kre, ki, kie, wr, wre, wi, wie


def _halley(z, w, rtol, step_tol, prec, max_residual):
    """Halley's iteration for ``w e^w = z`` on raw ``_mpc_`` tuples.

    Each step is :func:`_wew` and :func:`_halley_step`, with the bits of
    the mpc operators.  The stop tests ``|f| <= rtol`` and ``|dw| <=
    step_tol (1 + |w|)`` are first screened on the integers' exponents
    (see :func:`_top`): when the bounds alone show a test false, its
    ``hypot`` is skipped.  After 100 steps the stored residuals are
    replayed with strict ``<``, which returns the first w of least
    residual, as tracking it on every step would.

    ``max_residual()`` is called only on that fallback and returns the
    raw bound the best ``|f|`` must meet; a w that misses it raises
    :class:`PrecisionError` instead of being returned.
    """
    f_screen = rtol[2] + rtol[3] + 2  # _top(f) >= f_screen: |f| >= 2**(f_screen - 1) > rtol
    step_screen = step_tol[2] + step_tol[3] + 3
    steps = []
    for _ in range(100):
        wew = _wew(w, z, prec)
        f = (wew[4], wew[5]), (wew[6], wew[7])
        steps.append((w, f))
        top_f = _top(f)
        if top_f is None or top_f < f_screen:
            if mpf_le(mpc_abs(_raw(f), prec, round_nearest), rtol):
                return w
        step = _halley_step(w, wew, prec)
        if step is None:  # the branch point
            return w
        kr, kre, ki, kie, wr, wre, wi, wie = step
        dw, v = ((kr, kre), (ki, kie)), ((wr, wre), (wi, wie))
        w = _raw(v)
        top_dw, top_w = _top(dw), _top(v)
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
