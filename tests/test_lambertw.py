import hashlib
import random
import time
from fractions import Fraction
from math import factorial

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.ctx_mp import MPContext
from mpmath.libmp import finf

from gsinv import (
    DomainError,
    PrecisionContext,
    PrecisionError,
    branch_series,
    in_region_a,
    lambert_w0,
    w_of_v,
    wew_residual,
    xi_alpha,
)
from gsinv import lambertw, numerics, verify
from gsinv.numerics import power_sum
from gsinv.series import mul_trunc
from conftest import load_fixture
from test_acceptance import _cut_linspace


def test_branch_series_leading_coefficients():
    mu = branch_series(5)
    assert mu == (
        Fraction(-1),
        Fraction(1),
        Fraction(-1, 3),
        Fraction(11, 72),
        Fraction(-43, 540),
        Fraction(769, 17280),
    )


def test_branch_series_values_are_pinned():
    # sha256 of the str of mu_0..mu_40, joined by spaces
    mu = branch_series(40)
    assert len(mu) == 41
    assert hashlib.sha256(" ".join(map(str, mu)).encode()).hexdigest() == (
        "4f9d2b04f9effcc74d3972d700998b47b45f074da5f3abb4635211df579e5505")


def test_branch_series_resubstitution():
    # oracle for the generated coefficients: plugging u = W + 1 back into
    # sum_{k>=2} (k-1)/k! u^k must reproduce p^2/2 exactly through order N
    N = 40
    mu = branch_series(N)
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


def test_lambert_w0_mu_vector_bits_match_fraction_route(ctx30):
    # the cached vector lambert_w0 sums gives the bits of converting each
    # mu_n on its own
    m = ctx30.mp
    N = int(1.6 * m.dps) + 12  # the lambert_w0 truncation
    lambert_w0(-m.exp(-1) + m.mpf("0.001"), ctx30)  # stores the vector it sums
    stored_mu = numerics._TABLES.get(("mu", N, m.prec), lambda: pytest.fail("mu not stored"))
    for p in (m.mpf("0.05"), m.mpc("0.1", "-0.2"), m.mpc(0, "0.3")):
        acc, ppow = m.mpc(0), m.mpc(1)
        for mu in branch_series(N):
            acc += ctx30.mpf(mu) * ppow
            ppow *= p
        got = power_sum(stored_mu, m.mpc(p), m)
        assert (got.real._mpf_, got.imag._mpf_) == (acc.real._mpf_, acc.imag._mpf_)


@pytest.mark.parametrize("p", ["0.05", "0.1-0.2j", "0.3j"])
def test_w_in_branch_ball_meets_defining_identity(ctx30, p):
    # z = (p^2/2 - 1)/e lies in |1 + ez| < 0.05, where W is the branch
    # series in p = sqrt(2(1 + ez)) polished by Halley
    m = ctx30.mp
    p = m.mpc(complex(p))
    z = (p**2 / 2 - 1) / m.e
    w = lambert_w0(z, ctx30)
    assert abs(w * m.exp(w) - z) <= 10 * ctx30.eps


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


def _w_bits(w):
    return (w.real._mpf_, w.imag._mpf_)


def test_w_bits_match_pinned_fixture():
    # tools/make_lambertw_bits.py: every region at 15, 30 and 60 digits
    doc = load_fixture("lambertw_bits.json")
    for digits, rows in doc["bits"].items():
        ctx = PrecisionContext(int(digits))
        for (region, re, im), row in zip(doc["points"], rows):
            expected = tuple((s, int(man, 16), e, bc) for s, man, e, bc in row)
            assert _w_bits(lambert_w0(ctx.mpc(re, im), ctx)) == expected, (digits, region, re, im)


def test_warm_w_builds_no_constants(monkeypatch):
    # the constants are keyed by precision: a second context of the same
    # digits reads what the first one built
    zs = ("0.03", "-0.3668794411714423", "-0.33", "0.5", "5", "1.21", "-3", "2-5j")
    first, second = PrecisionContext(37), PrecisionContext(37)
    expected = [_w_bits(lambert_w0(first.mp.mpc(complex(z)), first)) for z in zs]

    def no_build(m):
        raise AssertionError("W constants built again")

    monkeypatch.setattr(lambertw, "_build_w_constants", no_build)
    for ctx in (first, second):
        assert [_w_bits(lambert_w0(ctx.mp.mpc(complex(z)), ctx)) for z in zs] == expected


def _halley_on_numbers(m, z, w, rtol, step_tol):
    # Halley's iteration in plain mpc arithmetic, tracking the best residual
    best_w, best_f = w, m.inf
    for _ in range(100):
        ew = m.exp(w)
        f = w * ew - z
        af = abs(f)
        if af < best_f:
            best_w, best_f = w, af
        if af <= rtol:
            return w, False
        w1 = w + 1
        if w1 == 0:
            return w, False
        denom = ew * w1 - (w + 2) * f / (2 * w1)
        if denom == 0:
            denom = ew * w1
        dw = f / denom
        w = w - dw
        if abs(dw) <= step_tol * (1 + abs(w)):
            return w, False
    return best_w, True


def test_halley_on_tuples_matches_mpc_arithmetic():
    # the exponent screens and the replayed fallback change no bit; zero
    # tolerances run the full 100 steps, so the fallback is exercised, and
    # its best w must meet lambert_w0's documented residual bound
    ctx = PrecisionContext(20)
    m = ctx.mp
    fallbacks = 0
    for zs in ("0.5", "3+2j", "-2", "-0.3+0.1j", "100", "-1e3-1e-20j"):
        z = m.mpc(complex(zs))
        w0 = z * (1 - z) if abs(z) < 1 else m.ln(z)
        bound = (max(abs(z), 1) * m.mpf(10) ** (ctx.guard - ctx.digits))._mpf_
        for rtol, step_tol in ((m.mpf("1e-20"), m.mpf(10) ** -m.dps), (m.mpf(0), m.mpf(0))):
            expected, fell_back = _halley_on_numbers(m, z, w0, rtol, step_tol)
            got = lambertw._halley(z._mpc_, w0._mpc_, rtol._mpf_, step_tol._mpf_, m.prec,
                                   lambda: bound)
            assert got == expected._mpc_, (zs, rtol)
            fallbacks += fell_back
    assert fallbacks >= 2


_CONTEXTS = {}


def _context(prec):
    if prec not in _CONTEXTS:
        _CONTEXTS[prec] = MPContext()
        _CONTEXTS[prec].prec = prec
    return _CONTEXTS[prec]


_MAGNITUDE = st.floats(1e-300, 1e300)
_PART = st.one_of(st.just(0.0), st.builds(lambda s, x: s * x, st.sampled_from([1.0, -1.0]),
                                          _MAGNITUDE))


@st.composite
def _halley_cases(draw):
    """``(prec, z, seed, zero_tolerances)``: parts from 1e-300 to 1e300 or
    zero, or a real z on the cut; the seed's rule of the test above, or
    its real or imaginary part alone."""
    prec = draw(st.integers(53, 600))
    if draw(st.booleans()):
        z = (draw(st.floats(-1e300, -0.37)), 0.0)  # -0.37 < -1/e
    else:
        z = draw(st.tuples(_PART, _PART).filter(lambda z: z != (0.0, 0.0)))
    return prec, z, draw(st.sampled_from(["rule", "real", "imaginary"])), draw(st.booleans())


@settings(max_examples=80)
@given(_halley_cases())
def test_integer_halley_matches_mpc_arithmetic(case):
    # zero tolerances run all 100 steps and the replayed fallback
    prec, (re, im), seed, zero_tolerances = case
    m = _context(prec)
    z = m.mpc(re, im)
    w0 = z * (1 - z) if abs(z) < 1 else m.ln(z)
    w0 = {"rule": w0, "real": m.mpc(w0.real), "imaginary": m.mpc(0, w0.imag)}[seed]
    if zero_tolerances:
        rtol = step_tol = m.mpf(0)
    else:
        rtol, step_tol = m.mpf(10) ** (-m.dps + 2) * max(abs(z), 1) / 10**4, m.mpf(10) ** -m.dps
    expected, _ = _halley_on_numbers(m, z, w0, rtol, step_tol)
    got = lambertw._halley(z._mpc_, w0._mpc_, rtol._mpf_, step_tol._mpf_, m.prec, lambda: finf)
    assert got == expected._mpc_


def test_w_across_a_gap_of_332000_bits_keeps_its_bits_and_is_fast():
    # Im z is 332,000 bits below Re z: the sums of Halley's step take
    # mpf_add's far-operand rule instead of shifting across the gap
    ctx = PrecisionContext(30)
    z = ctx.mpc(5, "1e-100000")
    start = time.perf_counter()
    w = lambert_w0(z, ctx)
    assert time.perf_counter() - start < 0.5
    assert w._mpc_ == ((0, 14446752298912180153324564073775074775783, -133, 134),
                       (0, 45347652676503227369312124010384252151023, -332331, 136))


@pytest.mark.parametrize("digits", [15, 30, 60])
@pytest.mark.parametrize("re, im", [("1e-46", "0"), ("1e-400", "0"), ("0", "1e-46")])
def test_w_of_z_under_the_taylor_cut_off_is_z(digits, re, im):
    # the Taylor sum starts at z; its first term is never cut off, so a z
    # at or under 10**-(dps + 5) is its own W instead of 0
    ctx = PrecisionContext(digits)
    z = ctx.mpc(re, im)
    assert lambert_w0(z, ctx)._mpc_ == z._mpc_


@pytest.mark.parametrize("z", ["1e-46", "1e-30", "1e-12"])
def test_w_of_small_z_meets_its_bound_absolutely(z):
    # for |z| < 1 the bound max(|z|, 1) 10**(-digits + guard) is absolute:
    # at 60 digits W(1e-46) is right to about 46 significant digits
    ctx = PrecisionContext(60)
    w = lambert_w0(ctx.mpf(z), ctx)
    with mpmath.mp.workdps(120):
        err = abs(mpmath.mpc(w) - mpmath.lambertw(mpmath.mpf(z)))
        assert err <= mpmath.mpf(10) ** (-ctx.digits + ctx.guard)
        assert err <= mpmath.mpf("1e-45") * mpmath.mpf(z)


_CTX = {d: PrecisionContext(d) for d in (15, 20, 30)}
_finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@given(st.sampled_from(sorted(_CTX)), _finite, _finite)
def test_w_conjugate_symmetry_is_bitwise_off_the_cut(digits, re, im):
    ctx = _CTX[digits]
    m = ctx.mp
    z = ctx.mpc(re, im)
    if z.imag == 0 and z.real <= -m.exp(-1):
        return  # the cut carries the upper boundary value instead
    assert _w_bits(lambert_w0(m.conj(z), ctx)) == _w_bits(m.conj(lambert_w0(z, ctx)))


@given(st.sampled_from(sorted(_CTX)), _finite, _finite)
def test_w_meets_documented_residual_bound_in_region_a(digits, re, im):
    ctx = _CTX[digits]
    m = ctx.mp
    z = ctx.mpc(re, im)
    w = lambert_w0(z, ctx)
    tol = m.mpf(10) ** (-ctx.digits + ctx.guard)
    assert wew_residual(w, z, ctx) <= max(abs(z), 1) * tol
    assert in_region_a(w, tol=tol)


# _mpf_ of wew_residual at 30 digits of w and z given as 60-digit mpc
# values, whose parts are rounded to the working precision first (as
# m.mpc rounds them), and as Python complex values, taken exactly
_RESIDUAL_PINS = {
    "complex": (0, 1808718700066873266333724868070997665281, -133, 131),
    "mpc60": (0, 444666952918983405897581886569477014487, -129, 129),
}


@pytest.mark.parametrize("kind", sorted(_RESIDUAL_PINS))
def test_wew_residual_rounds_foreign_arguments_at_the_working_precision(kind):
    ctx, wide = PrecisionContext(30), PrecisionContext(60).mp
    w, z = {
        "complex": (0.3 + 0.2j, 0.5 + 0.4j),
        "mpc60": (wide.mpc(wide.mpf(1) / 3, wide.mpf(2) / 7),
                  wide.mpc(wide.mpf(1) / 7, -wide.mpf(1) / 9)),
    }[kind]
    residual = wew_residual(w, z, ctx)
    assert type(residual) is ctx.mp.mpf
    assert residual._mpf_ == _RESIDUAL_PINS[kind]


def _operator_residual(w, z, ctx):
    # wew_residual as it was written on mpmath operators
    m = ctx.mp
    w = m.mpc(w)
    return abs(w * m.exp(w) - m.mpc(z))


def test_wew_residual_has_the_bits_of_its_operator_form():
    ctx = PrecisionContext(30)
    m = ctx.mp
    wide, narrow = PrecisionContext(60), PrecisionContext(20)
    rng = random.Random(31)
    cases = []
    for _ in range(100):  # random w and z, and W(z) with its z
        z = ctx.mpc(rng.uniform(-20, 20), rng.uniform(-20, 20))
        cases += [(ctx.mpc(rng.uniform(-5, 5), rng.uniform(-4, 4)), z), (lambert_w0(z, ctx), z)]
    for x in (-0.25, 1.5, 40):  # real z: an mpf, a float, an int
        cases += [(lambert_w0(x, ctx), ctx.mpf(x)), (lambert_w0(x, ctx), x),
                  (lambert_w0(x, ctx), int(x))]
    cases += [(0, 0), (m.mpc(0), m.mpf(0)), (ctx.mpc("0.1", "0.2"), 0)]  # z = 0
    for other in (wide, narrow):  # foreign contexts, and Python complex values
        o = other.mp
        w = lambert_w0(other.mpc(2, 3), other)
        cases += [(w, other.mpc(2, 3)), (w, 2 + 3j), (0.3 + 0.2j, other.mpc(2, 3)),
                  (o.mpf(1) / 3, o.mpf(2) / 7)]
    for w, z in cases:
        residual = wew_residual(w, z, ctx)
        assert type(residual) is m.mpf
        assert residual._mpf_ == _operator_residual(w, z, ctx)._mpf_, (w, z)


def _operator_identity_check(seed, cut):
    # verify.check_lambertw_defining_identity as it was written on mpmath
    # operators, the reference for the check's raw-tuple loop; also returns
    # the points it solves, as raw mpc
    ctx = numerics.cached_context(30)
    m = ctx.mp
    tol = m.mpf(10) ** (-(ctx.digits - 5))
    rng = random.Random(seed)
    near_cut = m.mpf("1e-3")
    worst, outside_a, points = m.mpf(0), 0, []
    while len(points) < 800:
        z = m.mpc(rng.uniform(-10, 10), rng.uniform(-10, 10))
        if abs(z.imag) < near_cut and z.real < 0:
            continue
        w = lambert_w0(z, ctx)
        worst = max(worst, _operator_residual(w, z, ctx) / max(abs(z), m.mpf(1)))
        outside_a += not in_region_a(w, tol=tol)
        points.append(z._mpc_)
    for i in range(200):
        z = cut(m, i)
        worst = max(worst, _operator_residual(lambert_w0(z, ctx), z, ctx) / max(abs(z), m.mpf(1)))
        points.append(m.mpc(z)._mpc_)
    return {"check": "lambertw-defining-identity",
            "status": "pass" if worst <= tol and not outside_a else "fail",
            "metrics": {"worst_scaled_residual": ctx.nstr(worst, 6),
                        "tolerance": ctx.nstr(tol, 3)},
            "grid": {"random_points": 800, "cut_points": 200, "digits": ctx.digits}}, points


@pytest.mark.parametrize("grid", ["verify", "acceptance", "seed-22"])
def test_identity_check_reports_what_its_operator_loop_reports(monkeypatch, grid):
    # the acceptance grid's cut points are mpf, the verify grid's mpc; the
    # 51st draw of seed 22 lands next to the cut, where the check draws again
    seed, cut = {"verify": (20240901, verify._cut_from_branch_point),
                 "acceptance": (2468, _cut_linspace),
                 "seed-22": (22, verify._cut_from_branch_point)}[grid]
    expected, expected_points = _operator_identity_check(seed, cut)
    points = []
    solve = verify.lambert_w0
    monkeypatch.setattr(verify, "lambert_w0",
                        lambda z, ctx: points.append(ctx.mp.mpc(z)._mpc_) or solve(z, ctx))
    assert verify.check_lambertw_defining_identity(seed=seed, cut=cut) == expected
    assert points == expected_points


def test_identity_check_scales_by_the_larger_of_abs_z_and_1(monkeypatch):
    # with every residual 1 the worst scaled residual is 1 / max(|z|, 1) at
    # the smallest |z|: the first cut point -1/e has |z| < 1, so it is 1
    monkeypatch.setattr(verify, "_wew_residual", lambda w, z, prec: mpmath.libmp.fone)
    report = verify.check_lambertw_defining_identity()
    assert report["status"] == "fail"
    assert report["metrics"]["worst_scaled_residual"] == "1.0"


def _w0_inputs():
    # (kind, z) for a 30-digit context: numbers of the context itself, of it
    # at a raised precision, of other contexts and of Python, in several regions
    ctx = PrecisionContext(30)
    m, wide = ctx.mp, PrecisionContext(60).mp
    with m.extraprec(40):
        raised = [m.mpc(m.mpf(1) / 3, m.mpf(2) / 7), m.mpc(-m.mpf(1) / 3, m.mpf(1) / 10**9),
                  m.mpc(m.mpf(1) / 30, -m.mpf(1) / 70), m.mpf(-1) / 3, m.mpf(7) / 3,
                  m.mpc(-m.mpf(10) / 3, 0)]
    return ctx, [
        *(("same", ctx.mpc(re, im)) for re, im in
          (("2.5", "-1.5"), ("-0.3678", "1e-6"), ("0.05", "0.02"), ("-3", "0"))),
        *(("mpf", ctx.mpf(x)) for x in ("-0.25", "-1", "0.01", "40")),
        *(("raised", z) for z in raised),
        *(("foreign", z) for z in (wide.mpc(wide.mpf(1) / 3, -wide.mpf(2) / 7),
                                  wide.mpf(-5) / 3, PrecisionContext(20).mpc("1.5", "0.5"))),
        *(("python", z) for z in (0.3 + 0.2j, -0.5, 3, -0.36 - 0.01j)),
        *(("non-finite", z) for z in (m.mpc(m.inf, 0), m.mpc(0, m.nan), wide.mpc(1, wide.ninf),
                                      complex("nan+1j"), m.inf)),
    ]


def test_w_of_every_kind_of_argument_keeps_its_bits():
    # a number of the context whose parts fit its precision is taken as it
    # is; every other argument is rounded to the precision first, as m.mpc
    # rounds it.  The digest pins the bits (or DomainError) of every input.
    ctx, inputs = _w0_inputs()
    m = ctx.mp
    out = []
    for kind, z in inputs:
        try:
            w = lambert_w0(z, ctx)
        except DomainError:
            out.append((kind, "DomainError"))
            with pytest.raises(DomainError):
                lambert_w0(m.mpc(z), ctx)
            continue
        assert _w_bits(w) == _w_bits(lambert_w0(m.mpc(z), ctx)), (kind, z)
        out.append((kind, *_w_bits(w)))
    assert [kind for kind, *row in out if row == ["DomainError"]] == ["non-finite"] * 5
    assert hashlib.sha256(repr(out).encode()).hexdigest() == (
        "d6cf018c00ca59ec3d81c5ab731171666a19c624a39f828282535d066b1beafe")


@given(st.sampled_from([float("inf"), float("-inf"), float("nan")]), _finite, st.booleans())
def test_w_rejects_non_finite_parts(bad, other, bad_is_real):
    ctx = _CTX[15]
    z = ctx.mp.mpc(bad, other) if bad_is_real else ctx.mp.mpc(other, bad)
    with pytest.raises(DomainError):
        lambert_w0(z, ctx)


def test_w_left_of_branch_point_next_to_cut_is_principal(ctx30):
    # |z| <= 1.2 and Re z < -1/e, next to the cut: where the seed z (1 - z)
    # reaches another branch or no root, the branch-point seed is used
    m = ctx30.mp
    tol = m.mpf(10) ** (-(ctx30.digits - 5))
    with mpmath.mp.workdps(ctx30.dps):
        for re, im in (("-1", "1e-30"), ("-1.09375", "0.0078125"), ("-0.7", "1e-100"),
                       ("-1.2", "1e-6"), ("-0.55", "0.05"), ("-0.9", "-1e-12")):
            z = ctx30.mpc(re, im)
            w = lambert_w0(z, ctx30)
            assert abs(w - mpmath.lambertw(mpmath.mpc(z))) <= tol, (re, im)


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
    assert xi_alpha(0, ctx30) == (-1, 0)
    # alpha(v) = 2 sqrt(2) v + (14 sqrt(2)/9) v^3 + O(v^5)
    _, a3 = xi_alpha(m.mpf("1e-3"), ctx30)
    lead = 2 * m.sqrt(2) * m.mpf("1e-3")
    assert abs(a3 / (lead + 14 * m.sqrt(2) / 9 * m.mpf("1e-9")) - 1) <= m.mpf("1e-5")
    _, a2 = xi_alpha(m.mpf("0.01"), ctx30)
    cubic = (a2 - 2 * m.sqrt(2) * m.mpf("0.01")) / m.mpf("1e-6")
    assert abs(cubic / (14 * m.sqrt(2) / 9) - 1) <= m.mpf("0.01")
    with pytest.raises(DomainError):
        xi_alpha(ctx30.mpf("0.5"), ctx30)


# raw _mpc_ of xi(v) at 30 digits; alpha's _mpf_ is its imaginary part
XI_BITS = {
    "0": ((1, 1, 0, 1), (0, 0, 0, 0)),
    "1e-3": ((1, 21778013407961461566341229131251719923155, -134, 134),
             (0, 31538040840404703436243060838683804039185, -143, 135)),
    "0.01": ((1, 21772262783760898719152596968019168247801, -134, 134),
             (0, 78851174363688943247045477998418218271407, -141, 136)),
    "0.2": ((1, 38473647731422343746241310937398524987799, -135, 135),
            (0, 6368031744344333259245999753326285099445, -133, 133)),
    "0.49": ((0, 14302943299002348037932668286628270438871, -133, 134),
             (0, 23134139302659495303385191610710233940381, -133, 135)),
}


@pytest.mark.parametrize("v", sorted(XI_BITS))
def test_xi_alpha_bits_are_pinned(ctx30, v):
    xi, alpha = xi_alpha(ctx30.mpf(v), ctx30)
    assert xi._mpc_ == XI_BITS[v]
    assert alpha._mpf_ == XI_BITS[v][1]


def test_xi_alpha_strictly_increasing():
    ctx = PrecisionContext(20)
    m = ctx.mp
    prev_mod, prev_alpha = None, None
    for i in range(1001):
        v = m.mpf("0.49") * i / 1000
        xi, alpha = xi_alpha(v, ctx)
        mod = abs(xi)
        if prev_mod is not None:
            assert mod > prev_mod
            assert alpha > prev_alpha
        prev_mod, prev_alpha = mod, alpha


def test_halley_fallback_outside_the_bound_raises(monkeypatch):
    # a seed Halley cannot recover from in 100 steps: w e^w overflows the
    # bound by hundreds of thousands of decades, and must not be returned
    ctx = PrecisionContext(30)
    monkeypatch.setattr(lambertw, "_taylor_w", lambda m, z, tol: m.mpc(10**6))
    with pytest.raises(PrecisionError, match="did not converge"):
        lambert_w0(ctx.mpf("0.05"), ctx)

