import random
from fractions import Fraction
from math import factorial

import mpmath
import pytest

from gsinv import (
    BranchSeries,
    DomainError,
    PrecisionContext,
    branch_series,
    branch_series_eval,
    in_region_a,
    lambert_w0,
    w_of_v,
    wew_residual,
    xi_alpha,
)
from gsinv import lambertw
from gsinv.series import mul_trunc


def test_branch_series_leading_coefficients():
    mu = branch_series(5).mu
    assert mu == (
        Fraction(-1),
        Fraction(1),
        Fraction(-1, 3),
        Fraction(11, 72),
        Fraction(-43, 540),
        Fraction(769, 17280),
    )


def test_branch_series_resubstitution():
    # oracle for the generated coefficients: plugging u = W + 1 back into
    # sum_{k>=2} (k-1)/k! u^k must reproduce p^2/2 exactly through order N
    N = 40
    mu = branch_series(N).mu
    u = [Fraction(0)] + list(mu[1:])
    acc = [Fraction(0)] * (N + 1)
    upow = u[:]
    for k in range(2, N + 2):
        upow = mul_trunc(upow, u, N)
        c = Fraction(k - 1, factorial(k))
        for i in range(N + 1):
            acc[i] += c * upow[i]
    expected = [Fraction(0)] * (N + 1)
    expected[2] = Fraction(1, 2)
    assert acc == expected


def test_branch_series_eval(ctx30):
    m = ctx30.mp
    series = branch_series(40)
    assert branch_series_eval(0, 40, series, ctx30) == -1
    p = ctx30.mpf("0.05")
    w = branch_series_eval(p, 40, series, ctx30)
    target = (p**2 / 2 - 1) / m.e
    assert abs(w * m.exp(w) - target) <= 10 * ctx30.eps
    with pytest.raises(DomainError):
        branch_series_eval(ctx30.mpf("1.3"), 40, series, ctx30)


def test_branch_series_eval_bits_match_fraction_route(ctx30):
    # branch_series_eval on any series, and the cached vector lambert_w0
    # sums, give the bits of converting each mu_n on its own
    m = ctx30.mp
    N = int(1.6 * m.dps) + 12  # the lambert_w0 truncation
    other = BranchSeries(tuple(Fraction((-1) ** k, k + 3) for k in range(N + 1)))
    for series in (branch_series(N), other):
        for p in (m.mpf("0.05"), m.mpc("0.1", "-0.2"), m.mpc(0, "0.3")):
            acc, ppow = m.mpc(0), m.mpc(1)
            for mu in series.mu:
                acc += ctx30.mpf(mu) * ppow
                ppow *= p
            expected = (acc.real._mpf_, acc.imag._mpf_)
            got = branch_series_eval(p, N, series, ctx30)
            assert (got.real._mpf_, got.imag._mpf_) == expected
            if series is not other:
                got = lambertw._sum_series(m, m.mpc(p), lambertw._mu_vector(N, m.prec))
                assert (got.real._mpf_, got.imag._mpf_) == expected


def test_branch_region_w_converts_no_coefficient_when_warm(ctx30, monkeypatch):
    m = ctx30.mp
    z = -m.exp(-1) + m.mpf("0.001")  # |1 + e z| < 0.05: the branch-series region
    expected = lambert_w0(z, ctx30)
    conversions = []
    plain_mpf = PrecisionContext.mpf

    def counted_mpf(self, x):
        if isinstance(x, Fraction):
            conversions.append(x)
        return plain_mpf(self, x)

    def no_rounding(values, prec):
        raise AssertionError("coefficients rounded again")

    monkeypatch.setattr(PrecisionContext, "mpf", counted_mpf)
    monkeypatch.setattr(lambertw, "mpf_tuples", no_rounding)
    assert lambert_w0(z, ctx30) == expected
    assert conversions == []


def test_w_special_points(ctx30):
    m = ctx30.mp
    assert lambert_w0(0, ctx30) == 0
    assert abs(lambert_w0(-m.exp(-1), ctx30) + 1) <= 10 * ctx30.eps
    w = lambert_w0(ctx30.mpf(-2) / m.e, ctx30)
    assert abs(abs(w) - m.mpf("1.2508")) <= m.mpf("1e-3")


def test_w_rejects_non_finite(ctx30):
    m = ctx30.mp
    for z in (m.nan, m.inf, -m.inf, m.mpc(1, m.inf), m.mpc(m.nan, 1), float("nan")):
        with pytest.raises(DomainError):
            lambert_w0(z, ctx30)


def test_w_defining_identity_random_grid(ctx30):
    m = ctx30.mp
    tol_scale = m.mpf(10) ** (-(ctx30.digits - 5))
    rng = random.Random(12345)
    count = 0
    while count < 1000:
        z = ctx30.mpc(rng.uniform(-10, 10), rng.uniform(-10, 10))
        if abs(z.imag) < m.mpf("1e-3") and z.real < 0:
            continue  # stay off the cut
        w = lambert_w0(z, ctx30)
        assert wew_residual(w, z, ctx30) <= max(abs(z), m.mpf(1)) * tol_scale
        assert in_region_a(w, tol=tol_scale)
        count += 1


def test_w_agrees_with_mpmath_oracle(ctx30):
    # independent route: mpmath's own lambertw at matching precision
    m = ctx30.mp
    tol = m.mpf(10) ** (-(ctx30.digits - 5))
    rng = random.Random(99)
    points = []
    for _ in range(120):
        points.append(ctx30.mpc(rng.uniform(-8, 8), rng.uniform(0.001, 8)))
    # force the Taylor region |z| < 0.2/e and the branch ball |1+ez| < 0.05
    for _ in range(60):
        r = rng.uniform(0, 0.2 / 2.7182818284)
        th = rng.uniform(0, 3.14159)
        points.append(ctx30.mpc(r * mpmath.cos(th), r * mpmath.sin(th)))
    for _ in range(60):
        r = rng.uniform(1e-8, 0.049)
        th = rng.uniform(0, 3.14159)
        points.append(ctx30.mpc(-1 / 2.7182818284 + r * mpmath.cos(th) / 2.7182818284,
                                r * mpmath.sin(th) / 2.7182818284))
    with mpmath.mp.workdps(ctx30.dps):
        for z in points:
            mine = lambert_w0(z, ctx30)
            theirs = mpmath.lambertw(mpmath.mpc(z))
            assert abs(mine - mpmath.mpc(theirs)) <= tol * max(1, abs(mine))


def test_w_boundary_extension_monotone(ctx30):
    # walking z down the cut, Im W and |W| both grow
    m = ctx30.mp
    grid = [-(m.exp(-1)) - m.mpf("0.05") - m.mpf("0.199") * i for i in range(200)]
    prev_im, prev_abs = None, None
    for z in grid:
        w = lambert_w0(z, ctx30)
        assert 0 < w.imag < m.pi
        assert wew_residual(w, z, ctx30) <= max(abs(z), m.mpf(1)) * m.mpf(10) ** (-(ctx30.digits - 5))
        if prev_im is not None:
            assert w.imag >= prev_im
            assert abs(w) >= prev_abs
        prev_im, prev_abs = w.imag, abs(w)


def test_w_conjugate_symmetry(ctx30):
    z = ctx30.mpc("0.3", "-2.2")
    assert lambert_w0(z, ctx30) == ctx30.mp.conj(lambert_w0(ctx30.mp.conj(z), ctx30))


def test_w_of_v(ctx30):
    m = ctx30.mp
    assert w_of_v(1, ctx30) == -1
    w = w_of_v(ctx30.mpf(1) / 2, ctx30)
    assert abs(abs(w) - m.mpf("1.2508")) <= m.mpf("1e-3")
    # residual of 1 + v w e^(1+w) = 0
    for v in (m.mpf("0.3"), m.mpf("0.7"), m.mpf("0.95")):
        w = w_of_v(v, ctx30)
        assert abs(1 + v * w * m.exp(1 + w)) <= m.mpf(10) ** (-(ctx30.digits - ctx30.guard))
    mods = [abs(w_of_v(m.mpf(v), ctx30)) for v in ("0.6", "0.8", "1.0")]
    ims = [w_of_v(m.mpf(v), ctx30).imag for v in ("0.6", "0.8")]
    assert mods[0] > mods[1] > mods[2]
    assert ims[0] > ims[1]
    with pytest.raises(DomainError):
        w_of_v(0, ctx30)
    with pytest.raises(DomainError):
        w_of_v(ctx30.mpf("1.5"), ctx30)


def test_xi_alpha_origin_and_expansion(ctx30):
    m = ctx30.mp
    at0 = xi_alpha(0, ctx30)
    assert at0.xi == -1 and at0.alpha == 0
    # alpha(v) = 2 sqrt(2) v + (14 sqrt(2)/9) v^3 + O(v^5)
    a3 = xi_alpha(m.mpf("1e-3"), ctx30).alpha
    lead = 2 * m.sqrt(2) * m.mpf("1e-3")
    assert abs(a3 / (lead + 14 * m.sqrt(2) / 9 * m.mpf("1e-9")) - 1) <= m.mpf("1e-5")
    a2 = xi_alpha(m.mpf("0.01"), ctx30).alpha
    cubic = (a2 - 2 * m.sqrt(2) * m.mpf("0.01")) / m.mpf("1e-6")
    assert abs(cubic / (14 * m.sqrt(2) / 9) - 1) <= m.mpf("0.01")
    with pytest.raises(DomainError):
        xi_alpha(ctx30.mpf("0.5"), ctx30)


def test_xi_alpha_strictly_increasing():
    ctx = PrecisionContext(20)
    m = ctx.mp
    prev_mod, prev_alpha = None, None
    for i in range(1001):
        v = m.mpf("0.49") * i / 1000
        xa = xi_alpha(v, ctx)
        mod = abs(xa.xi)
        if prev_mod is not None:
            assert mod > prev_mod
            assert xa.alpha > prev_alpha
        prev_mod, prev_alpha = mod, xa.alpha
