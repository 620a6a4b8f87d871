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
* otherwise: Halley iteration with a region-dependent seed.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError
from .numerics import PrecisionContext, mpf_tuples

__all__ = [
    "BranchSeries",
    "XiAlpha",
    "branch_series",
    "branch_series_eval",
    "lambert_w0",
    "w_of_v",
    "xi_alpha",
    "in_region_a",
    "wew_residual",
]


@dataclass(frozen=True)
class BranchSeries:
    """Coefficients mu_0..mu_N of W(z) = sum mu_n p^n, p = sqrt(2(1+ez))."""

    mu: tuple[Fraction, ...]


@dataclass(frozen=True)
class XiAlpha:
    """The curve xi(v) = W(-1/(e(1-4v^2))) and its phase alpha = Im xi."""

    v: object
    xi: object
    alpha: object


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


def branch_series(N: int) -> BranchSeries:
    """Exact coefficients mu_0..mu_N of the branch-point expansion."""
    if N < 0:
        raise DomainError("N must be >= 0")
    _extend_mu(N)
    return BranchSeries(tuple(_MU[: N + 1]))


@lru_cache(maxsize=64)
def _mu_vector(N: int, prec: int) -> tuple:
    """Raw ``_mpf_`` tuples of mu_0..mu_N at ``prec`` bits.

    Bit-identical to ``ctx.mpf(mu_n)`` (see :func:`mpf_tuples`).
    """
    return mpf_tuples(branch_series(N).mu, prec)


_SQRT2_MARGIN = 0.9  # stay inside the |p| < sqrt(2) convergence disk


def branch_series_eval(p, N: int, series: BranchSeries, ctx: PrecisionContext):
    """Evaluate sum_{n<=N} mu_n p^n; requires |p| < 0.9 sqrt(2).

    Truncation is bounded by the next-term heuristic; for the full-W use
    case prefer :func:`lambert_w0`, which picks N from the precision.
    """
    m = ctx.mp
    p = m.mpc(p)
    if abs(p) >= _SQRT2_MARGIN * m.sqrt(2):
        raise DomainError(f"|p| = {abs(p)} outside the safe convergence disk")
    if N >= len(series.mu):
        raise DomainError(f"series holds {len(series.mu)} coefficients, need {N + 1}")
    return _sum_series(m, p, mpf_tuples(series.mu[: N + 1], m.prec))


def _sum_series(m, p, coeffs):
    """sum c_n p^n over raw ``_mpf_`` coefficient tuples, in working precision."""
    acc = m.mpc(0)
    ppow = m.mpc(1)
    for c in coeffs:
        acc += m.make_mpf(c) * ppow
        ppow *= p
    return acc


def in_region_a(w, tol=0) -> bool:
    """Membership in the principal-branch range A.

    A = { x + iy : x > -y cot(y), -pi < y < pi }, with the y = 0 slice
    meaning x > -1 (the limit of -y cot y).
    """
    x, y = float(w.real), float(w.imag)
    if not -math.pi < y < math.pi:
        return False
    if y == 0:
        return x > -1 - float(tol)
    return x >= -y / math.tan(y) - float(tol) - 1e-15


def wew_residual(w, z, ctx: PrecisionContext):
    """|w e^w - z| at working precision."""
    m = ctx.mp
    return abs(m.mpc(w) * m.exp(m.mpc(w)) - m.mpc(z))


def _halley(m, z, w, rtol):
    best_w, best_f = w, m.inf
    for _ in range(100):
        ew = m.exp(w)
        f = w * ew - z
        af = abs(f)
        if af < best_f:
            best_w, best_f = w, af
        if af <= rtol:
            return w
        w1 = w + 1
        if w1 == 0:
            return w  # branch point: iteration map is singular there
        denom = ew * w1 - (w + 2) * f / (2 * w1)
        if denom == 0:
            denom = ew * w1
        dw = f / denom
        w = w - dw
        if abs(dw) <= m.mpf(10) ** (-m.dps) * (1 + abs(w)):
            return w
    return best_w


def _taylor_w(m, z, dps):
    # W(z) = sum (-n)^(n-1) z^n / n!; term ratio -((n+1)/n)^(n-1) * z
    acc = m.mpc(0)
    term = m.mpc(z)
    tol = m.mpf(10) ** (-dps - 5)
    n = 1
    while abs(term) > tol:
        acc += term
        n += 1
        term = term * z * (-((1 + m.mpf(1) / (n - 1)) ** (n - 2)))
    return acc


def lambert_w0(z, ctx: PrecisionContext):
    """Principal-branch W(z) with the upper-boundary extension on the cut.

    Parameters
    ----------
    z : complex or real
        Finite argument.  For real ``z < -1/e`` the representative with
        ``0 < Im w < pi`` is returned.
    ctx : PrecisionContext

    Returns
    -------
    mpc
        ``w`` with ``|w e^w - z| <= max(|z|, 1) * 10**(-digits + guard)``
        and ``w`` inside the region A (boundary curve included on the cut).

    Raises
    ------
    DomainError
        If ``z`` is infinite or NaN.
    """
    m = ctx.mp
    z = m.mpc(z)
    if not m.isfinite(z):
        raise DomainError(f"lambert_w0 needs a finite argument, got {z}")
    if z == 0:
        return m.mpc(0)
    if z.imag < 0:
        return m.conj(lambert_w0(m.conj(z), ctx))

    on_cut = z.imag == 0 and z.real < -m.exp(-1)
    rtol = m.mpf(10) ** (-m.dps + 2) * max(m.mpf(1), abs(z)) * m.mpf("1e-4")
    ez1 = 1 + m.e * z

    if abs(ez1) < m.mpf("0.05"):
        p = m.sqrt(2 * ez1)  # principal root: Im p >= 0 on the cut side
        if p == 0:
            return m.mpc(-1)
        N = int(1.6 * m.dps) + 12
        w = _sum_series(m, p, _mu_vector(N, m.prec))  # |p| < 0.32 is inside the disk
        w = _halley(m, z, w, rtol)
    elif abs(ez1) < m.mpf("0.45"):
        p = m.sqrt(2 * ez1)
        seed = -1 + p - p**2 / 3 + m.mpf(11) / 72 * p**3 - m.mpf(43) / 540 * p**4
        w = _halley(m, z, seed, rtol)
    elif abs(z) < m.mpf("0.2") / m.e:
        w = _halley(m, z, _taylor_w(m, z, m.dps), rtol)
    elif abs(z) <= m.mpf("1.2") and not on_cut:
        w = _halley(m, z, z * (1 - z), rtol)
    else:
        lz = m.ln(z)  # principal log; Im = pi on the cut
        if abs(lz) < m.mpf("0.2"):
            # near z = 1 the log seed degenerates; linearize at W(1)
            omega = m.mpf("0.5671432904097838729999686622103555497538")
            seed = omega + (z - 1) * omega / (1 + omega)
        else:
            seed = lz - m.ln(lz)
        if on_cut and seed.imag < 0:
            seed = m.conj(seed)
        w = _halley(m, z, seed, rtol)

    if on_cut and w.imag < 0:
        w = m.conj(w)
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


def xi_alpha(v, ctx: PrecisionContext) -> XiAlpha:
    """xi(v) = W(-1/(e(1-4v^2))) and alpha(v) = Im xi(v) for v in [0, 1/2).

    Both |xi| and alpha are smooth and strictly increasing on [0, 1/2);
    near 0, alpha(v) = 2 sqrt(2) v + (14 sqrt(2)/9) v^3 + O(v^5).
    """
    m = ctx.mp
    v = ctx.mpf(v)
    if not 0 <= v < m.mpf("0.5"):
        raise DomainError(f"v must be in [0, 1/2), got {v}")
    if v == 0:
        return XiAlpha(v, m.mpc(-1), m.mpf(0))
    xi = w_of_v(1 - 4 * v * v, ctx)
    return XiAlpha(v, xi, xi.imag)
