import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath.libmp import from_rational, round_nearest

from gsinv import (
    DomainError,
    PrecisionContext,
    ProbeError,
    context_for_order,
    decay_bound_probe,
    genfun_identity_check,
    get_pair,
    integral_representation_check,
    qn_at_one_asymptotic,
    qn_coeffs,
    qn_eval,
    qn_exact,
    qn_jump_form_check,
    stehfest_approx,
)
from gsinv import numerics, qpoly
from gsinv.numerics import cached_context, integrate
from gsinv.qpoly import _g_coeff, _genfun_matches, qn_asymptotic


# sha256 of the str of c_1..c_n of q_n, joined by spaces
QN_COEFF_DIGESTS = {
    1: "d939926f05444b0f4495fb9629ecbfa80d99a8ec1a20d06800ca5a3d5f4fd276",
    2: "22cbba7ee1def8c32453f3a89345262621de9ce466362fde25267da7abe99679",
    13: "44729a4349e0943344261f1c8f1585c60cbda2b8883f60a0484ba9442a594a14",
    200: "4e29286e13d20e905afc367d454d6bb8b777844bfca0a3ea40222dd2bd72351c",
}


@pytest.mark.parametrize("n", sorted(QN_COEFF_DIGESTS))
def test_qn_coeffs_values_are_pinned(n):
    coeffs = qn_coeffs(n)
    assert type(coeffs) is tuple and len(coeffs) == n
    assert hashlib.sha256(" ".join(map(str, coeffs)).encode()).hexdigest() == (
        QN_COEFF_DIGESTS[n])


def test_qn_small_orders():
    assert qn_coeffs(1) == (Fraction(1, 2),)
    assert qn_coeffs(2) == (Fraction(-1, 2), Fraction(3, 2))
    assert qn_exact(1, Fraction(1)) == Fraction(1, 2)
    assert qn_exact(2, Fraction(1)) == 1
    assert qn_exact(2, Fraction(0)) == 0


def test_qn_sign_pattern():
    for n in range(1, 51):
        for k, c in enumerate(qn_coeffs(n), start=1):
            assert (c > 0) == ((-1) ** (n + k) > 0)


def test_qn_eval_routes_agree(ctx30):
    # the floating route must track the rational one even where q_n is
    # ~e^-n against terms peaking near e^n
    v = Fraction(37, 100)
    for n in (30, 120):
        exact = ctx30.mpf(qn_exact(n, v))
        floating = qn_eval(n, ctx30.mpf("0.37"), ctx30)
        assert abs(exact - floating) <= 10 * ctx30.eps * abs(exact)


def _work_context(n, ctx):
    # the boosted context qn_eval runs Horner in
    return cached_context(ctx.digits + ((45 * n + 99) // 100 + 10 if n > 1 else 0), ctx.guard)


def test_qn_eval_bits_match_fraction_horner(ctx30):
    # the cached-vector Horner against the plain loop over Fractions
    for n in (1, 2, 13, 40):
        work = _work_context(n, ctx30)
        for v in ("0.37", "0.999", "1e-3"):
            vv = work.mpf(ctx30.mpf(v))
            acc = work.mp.mpf(0)
            for c in reversed(qn_coeffs(n)):
                acc = (acc + work.mpf(c)) * vv
            assert qn_eval(n, ctx30.mpf(v), ctx30)._mpf_ == ctx30.mpf(acc)._mpf_


def test_qn_eval_is_correctly_rounded_at_high_order():
    # a floating v is the dyadic rational it stores: q_n of that rational,
    # rounded once, is the only right answer, also where the terms cancel
    # more than 0.44 n digits (n >= 120)
    rng = random.Random(5)
    for n in (120, 200):
        for digits in (15, 30):
            ctx = PrecisionContext(digits)
            for _ in range(10):
                v = ctx.mpf(rng.random())
                _, man, exp, _ = v._mpf_
                q = qn_exact(n, Fraction(man) * Fraction(2) ** exp)
                want = from_rational(q.numerator, q.denominator, ctx.mp.prec, round_nearest)
                assert qn_eval(n, v, ctx)._mpf_ == want, (n, digits, v)


@given(st.integers(1, 200), st.integers(15, 60), st.fractions(-2, 2), st.integers(-40, 0))
def test_qn_eval_is_q_n_of_its_dyadic_point_rounded_once(n, digits, r, scale):
    # against the exact q_n as from_rational rounds it, once, at the mpf v
    # and at the Fraction it stores
    ctx = PrecisionContext(digits)
    v = ctx.mpf(r) * ctx.mp.mpf(2) ** scale
    sign, man, exp, _ = v._mpf_
    exact = Fraction((-1) ** sign * man) * Fraction(2) ** exp
    q = qn_exact(n, exact)
    want = from_rational(q.numerator, q.denominator, ctx.mp.prec, round_nearest)
    assert qn_eval(n, v, ctx)._mpf_ == want
    assert qn_eval(n, exact, ctx)._mpf_ == want


@given(st.integers(1, 200), st.integers(15, 60), st.integers(-10**6, 10**6),
       st.integers(1, 10**5), st.integers(0, 40))
def test_qn_eval_of_a_fraction_with_an_odd_denominator_part_is_rounded_once(n, digits, num, k, s):
    ctx = PrecisionContext(digits)
    v = Fraction(num, (2 * k + 1) << s)  # an odd part times 2^s
    q = qn_exact(n, v)
    assert qn_eval(n, v, ctx)._mpf_ == from_rational(q.numerator, q.denominator, ctx.mp.prec,
                                                     round_nearest)


@pytest.mark.parametrize("n", [1, 13, 200])
@pytest.mark.parametrize("v", [-3, 0, 1, 2])
def test_qn_eval_of_an_int_is_rounded_once(ctx30, n, v):
    q = qn_exact(n, Fraction(v))
    got = qn_eval(n, v, ctx30)._mpf_
    assert got == from_rational(q.numerator, q.denominator, ctx30.mp.prec, round_nearest)


@pytest.mark.parametrize("v", ["inf", "-inf", "nan"])
def test_qn_eval_rejects_non_finite(ctx30, v):
    with pytest.raises(DomainError, match="finite"):
        qn_eval(10, ctx30.mpf(v), ctx30)


def test_qn_eval_bits_match_boosted_horner_on_decay_grid():
    # the decay-bound grid (eps = 0.1, 121 points, 25 digits) through the
    # former route: Horner at digits + ceil(0.45 n) + 10, rounded to ctx
    ctx = PrecisionContext(25)
    m = ctx.mp
    hi = 1 - ctx.mpf("0.1")
    vs = [hi * m.mpf(i) / 121 for i in range(1, 122, 10)]
    for n in (10, 25, 40):
        work = PrecisionContext(ctx.digits + (45 * n + 99) // 100 + 10, ctx.guard)
        coeffs = [work.mpf(c) for c in qn_coeffs(n)]
        for v in vs:
            vv = work.mpf(v)
            acc = work.mp.mpf(0)
            for c in reversed(coeffs):
                acc = (acc + c) * vv
            assert qn_eval(n, v, ctx)._mpf_ == ctx.mpf(acc)._mpf_


def test_qn_eval_builds_no_context_when_warm(ctx30, monkeypatch):
    built = []
    real = numerics.MPContext

    def counted():
        built.append(1)
        return real()

    points = [ctx30.mpf(i) / 97 for i in range(1, 97)]
    for n in (5, 25):
        qn_eval(n, points[0], ctx30)
    monkeypatch.setattr(numerics, "MPContext", counted)
    for n in (5, 25):
        for v in points:
            qn_eval(n, v, ctx30)
    assert built == []


def test_qn_bounds():
    with pytest.raises(DomainError):
        qn_coeffs(0)
    with pytest.raises(DomainError):
        qn_coeffs(201)


def test_g_coefficients():
    assert _g_coeff(1) == Fraction(-1, 2)  # (1/2)_1/(1!)^2 * (-1) * 1^2
    assert _g_coeff(2) == Fraction(3, 2) * Fraction(8, 1) / 4 / Fraction(2)  # (3/4)/4 * 8


@pytest.mark.parametrize("n", [10, 25, 50, 100, 200, 400])
def test_g_coefficients_carry_the_singular_part_of_g(n, ctx30):
    # G = ((1 + ez)^-1 + (5/24) ln(1 + ez)) / (pi sqrt 2) + milder terms, so
    # pi sqrt(2) g_n (-e)^-n = 1 - 5/(24n) + 25/(1152 n^2) + c/n^3, c about 0.0065
    m = ctx30.mp
    ratio = m.pi * m.sqrt(2) * ctx30.mpf(_g_coeff(n)) / (-m.e) ** n
    rest = ratio - 1 + m.mpf(5) / (24 * n) - m.mpf(25) / (1152 * n**2)
    assert 0 < rest * n**3 < m.mpf("0.0066")


def test_genfun_identity_exact():
    assert genfun_identity_check(2, Fraction(1, 3))
    for v in (Fraction(1, 3), Fraction(1, 2), Fraction(1)):
        assert genfun_identity_check(20, v)


def test_genfun_detects_corruption():
    n_max = 6
    v = Fraction(1, 3)
    qvals = [qn_exact(n, v) for n in range(1, n_max + 1)]
    # flip one coefficient sign in q_2 (note q_2(1/3) itself is 0, so the
    # corruption must happen at the coefficient level)
    c1, c2 = qn_coeffs(2)
    qvals[1] = -c1 * v + c2 * v * v
    assert not _genfun_matches(qvals, v, n_max)


def test_genfun_domain():
    with pytest.raises(DomainError):
        genfun_identity_check(31, Fraction(1, 3))
    with pytest.raises(DomainError):
        genfun_identity_check(5, Fraction(3, 2))


def test_qn_asymptotic_relative_error(ctx30):
    rels = []
    for n in (50, 100, 200):
        exact = ctx30.mpf(qn_exact(n, Fraction(3, 4)))
        approx = qn_asymptotic(n, ctx30.mpf("0.75"), ctx30)
        rels.append(abs(exact - approx) / abs(exact))
    assert rels[0] <= ctx30.mpf("0.05")
    assert rels[0] > rels[1] > rels[2]


def test_qn_asymptotic_extended_beats_plain(ctx30):
    for n in (60, 120):
        exact = ctx30.mpf(qn_exact(n, Fraction(1, 2)))
        plain = qn_asymptotic(n, ctx30.mpf("0.5"), ctx30)
        ext = qn_asymptotic(n, ctx30.mpf("0.5"), ctx30, extended=True)
        assert abs(exact - ext) < abs(exact - plain) / 50


def test_qn_asymptotic_sign_and_domain(ctx30):
    from gsinv import w_of_v

    m = ctx30.mp
    n = 37
    w = w_of_v(ctx30.mpf("0.8"), ctx30)
    val = qn_asymptotic(n, ctx30.mpf("0.8"), ctx30)
    assert ((-1) ** n * val > 0) == ((w ** (-n) / (1 + w)).real > 0)
    with pytest.raises(DomainError):
        qn_asymptotic(10, 1, ctx30)
    with pytest.raises(DomainError):
        qn_asymptotic(10, ctx30.mpf("0.3"), ctx30)


def test_qn_at_one_values(ctx30):
    m = ctx30.mp
    val2 = qn_at_one_asymptotic(2, ctx30)
    assert abs(val2 - m.mpf("1.0035")) <= m.mpf("2e-4")
    assert abs(val2 - 1) < m.mpf("0.004")  # exact q_2(1) = 1
    # n = 1 is outside the asymptotic regime: a finite mismatch against
    # the exact q_1(1) = 1/2 is expected (measured ~0.0064)
    val1 = qn_at_one_asymptotic(1, ctx30)
    assert m.mpf("1e-3") < abs(val1 - ctx30.mpf(Fraction(1, 2))) < m.mpf("0.1")


def test_qn_at_one_residual_scaled(ctx30):
    scaled = []
    for n in (50, 100, 200):
        exact = ctx30.mpf(qn_exact(n, Fraction(1)))
        scaled.append(abs(exact - qn_at_one_asymptotic(n, ctx30)) * n**3)
    # the O(n^-3) coefficient is ~0.0098 and flat in n
    assert all(s < ctx30.mpf("0.02") for s in scaled)
    assert max(scaled) <= 2 * scaled[0]


@pytest.mark.parametrize("n", [25, 50, 100, 200])
def test_qn_at_one_carries_the_log_term_of_g(n, ctx30):
    # the (5/24) ln(1 + ez) part of G gives the -5/(24n) of q_n(1) pi/sqrt(2);
    # past it, -(25/1152) n^-2 + O(n^-3) is left
    m = ctx30.mp
    s = ctx30.mpf(qn_exact(n, Fraction(1))) * m.pi / m.sqrt(2)
    log_term = n * (s - n - m.mpf(1) / 3)
    assert abs(log_term + m.mpf(5) / 24) * n**2 < m.mpf("0.025")


def test_jump_form_bound_and_stability(ctx30):
    # the paper's claim is |q_n(1-4v^2) - form| = O(|xi|^-n) with an O(1)
    # constant; a pointwise relative-error comparison against the form is
    # NOT implied (the dropped term oscillates like cos(n alpha)/3)
    m = ctx30.mp
    cs = []
    for vs in ("0.05", "0.1", "0.2", "0.25"):
        for n in (50, 100, 200):
            chk = qn_jump_form_check(n, Fraction(vs), ctx30)
            c_n = chk.difference / chk.decay
            cs.append(c_n)
            assert chk.difference <= m.mpf("0.5") * chk.decay
    assert max(cs) <= m.mpf("0.2")  # fitted constant, stable across the grid


def test_jump_form_small_v_limit(ctx30):
    # sin(n alpha)/alpha -> n as v -> 0+, so the form approaches the
    # q_n(1) scale (sqrt(2)/pi) n
    m = ctx30.mp
    chk = qn_jump_form_check(10, ctx30.mpf("1e-6"), ctx30)
    target = m.sqrt(2) / m.pi * 10
    assert abs(chk.form_value / target - 1) <= m.mpf("1e-9")


def test_jump_form_domain(ctx30):
    with pytest.raises(DomainError):
        qn_jump_form_check(10, Fraction(3, 10), ctx30)
    with pytest.raises(DomainError):
        qn_jump_form_check(10, Fraction(0), ctx30)


def test_decay_bound_probe():
    ctx = PrecisionContext(25)
    ns = range(10, 41)
    fit = decay_bound_probe(ctx.mpf("0.1"), ns, ctx)
    assert fit.b > 1
    assert fit.residual <= ctx.mpf("0.05")
    # every grid point respects the fitted envelope with small slack
    assert len(fit.ratios) == len(ns)
    for n, r in zip(ns, fit.ratios):
        assert r <= ctx.mpf("1.05") * fit.C * fit.b ** (-n)
    # smaller domain decays faster
    fit5 = decay_bound_probe(ctx.mpf("0.5"), range(10, 41), ctx)
    assert fit5.b > fit.b > 1


def _exhaustive_max_ratio(n, vs, ctx):
    # the oracle: the exact ratio at every point, kept with a strict > from 0
    best = ctx.mp.mpf(0)
    for v in vs:
        r = abs(qn_eval(n, v, ctx)) / v
        if r > best:
            best = r
    return best


def _probe_grid(ctx, epsilon):
    # the 121 points of (0, 1 - epsilon] that decay_bound_probe takes
    hi = 1 - ctx.mpf(epsilon)
    return [hi * ctx.mp.mpf(i) / 121 for i in range(1, 122)]


def _count_qn_evals(monkeypatch):
    # the order of every exact q_n the screen asks for, through qpoly.qn_eval
    calls = []
    real = qpoly.qn_eval
    monkeypatch.setattr(qpoly, "qn_eval", lambda n, v, ctx: calls.append(n) or real(n, v, ctx))
    return calls


def test_decay_bound_probe_evaluates_q_n_once_per_order_with_the_exhaustive_bits(monkeypatch):
    # the decay-bound check's grid: 31 exact q_n instead of 3,751
    ctx = PrecisionContext(25)
    ns = range(10, 41)
    calls = _count_qn_evals(monkeypatch)
    fit = decay_bound_probe(ctx.mpf("0.1"), ns, ctx)
    assert calls == list(ns)
    vs = _probe_grid(ctx, "0.1")
    assert [r._mpf_ for r in fit.ratios] == [_exhaustive_max_ratio(n, vs, ctx)._mpf_ for n in ns]


@pytest.mark.parametrize("digits, epsilon, ns, copies", [
    (25, "0.5", range(10, 41), 1),
    (20, "0.1", (10, 20, 40, 80), 1),
    (40, "0.1", range(150, 201, 10), 1),
    (25, "0.1", range(10, 41, 3), 2),  # every point twice: both copies of the top are evaluated
])
def test_max_ratio_has_the_bits_of_the_exhaustive_loop(digits, epsilon, ns, copies, monkeypatch):
    ctx = PrecisionContext(digits)
    vs = [v for v in _probe_grid(ctx, epsilon) for _ in range(copies)]
    calls = _count_qn_evals(monkeypatch)
    for n in ns:
        assert qpoly._max_ratio(n, vs, ctx)._mpf_ == _exhaustive_max_ratio(n, vs, ctx)._mpf_
    assert calls == [n for n in ns for _ in range(copies)]


def test_max_ratio_with_a_screen_of_a_few_bits_evaluates_every_point(monkeypatch):
    # W = 4 bits: every |acc| lies within 2 err of the top, so every point is a candidate
    ctx = PrecisionContext(25)
    monkeypatch.setattr(qpoly, "_SCREEN_GUARD", 4 - ctx.mp.prec)
    vs = _probe_grid(ctx, "0.1")
    ns = range(10, 41, 5)
    calls = _count_qn_evals(monkeypatch)
    for n in ns:
        assert qpoly._max_ratio(n, vs, ctx)._mpf_ == _exhaustive_max_ratio(n, vs, ctx)._mpf_
    assert calls == [n for n in ns for _ in vs]


def test_max_ratio_keeps_the_rounded_maximum_where_it_leaves_the_exact_order(monkeypatch):
    # 121 points spaced 1e-21 around a peak of |q_10(v)|/v, 0.80 at v = 0.9124...:
    # their exact ratios lie within 3 ulp, and the point of the exact maximum does
    # not carry the largest rounded ratio, so the screen's margin for the two
    # roundings has to admit the others
    ctx = PrecisionContext(25)
    n = 10
    peak, step = ctx.mpf("0.91241768337260223376"), ctx.mpf("1e-21")
    vs = [peak + i * step for i in range(-60, 61)]
    points = [Fraction(v.man, 2 ** -v.exp) for v in vs]
    exact = [abs(qn_exact(n, v)) / v for v in points]
    rounded = [abs(qn_eval(n, v, ctx)) / v for v in vs]
    assert rounded[exact.index(max(exact))] < max(rounded)
    calls = _count_qn_evals(monkeypatch)
    assert qpoly._max_ratio(n, vs, ctx)._mpf_ == _exhaustive_max_ratio(n, vs, ctx)._mpf_
    assert 1 < len(calls) <= len(vs)


def test_decay_bound_degenerate():
    ctx = PrecisionContext(20)
    with pytest.raises(DomainError, match="at least 4 orders, got 3"):
        decay_bound_probe(ctx.mpf("0.1"), [10, 11, 12], ctx)


def test_decay_bound_needs_two_envelope_points():
    # the maxima fall strictly at every order, so only the first is a peak
    ctx = PrecisionContext(20)
    with pytest.raises(ProbeError, match="fewer than two envelope points"):
        decay_bound_probe(ctx.mpf("0.1"), [10, 20, 40, 80], ctx)


def test_integral_representation_identity_holds_at_every_order():
    # q_n(4y(1 - y)) = sum a_k(n) y^k at every order the inverter accepts
    assert [n for n in range(1, 65) if not integral_representation_check(n)] == []


def _position(where, seq):
    return {"first": 0, "middle": len(seq) // 2, "last": len(seq) - 1}[where]


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("n", [1, 2, 13, 64])
def test_integral_representation_fails_with_one_a_k_sign_flipped(n, where, monkeypatch):
    coeffs = qpoly.gaver_stehfest_coeffs(n)
    a = list(coeffs.a)
    k = _position(where, a)
    assert a[k] != 0
    a[k] = -a[k]
    monkeypatch.setattr(qpoly, "gaver_stehfest_coeffs", lambda order: coeffs._replace(a=tuple(a)))
    assert not integral_representation_check(n)


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("n", [1, 2, 13, 64])
def test_integral_representation_fails_with_one_q_n_numerator_off_by_one(n, where, monkeypatch):
    numerators, D = qpoly._qn_integer_form(n)
    bad = list(numerators)
    bad[_position(where, bad)] += 1
    monkeypatch.setattr(qpoly, "_qn_integer_form", lambda order: (tuple(bad), D))
    assert not integral_representation_check(n)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_integral_form_of_the_approximant_matches_its_summation_form(n):
    # a numerical witness of the lemma whose kernel the identity states
    # exactly: the integral of q_n(4 e^-u (1 - e^-u)) f(x u / ln 2) over
    # u in (0, inf), by tanh-sinh in y = e^-u over (0, 1), against the
    # a_k(n) summation f_n(x)
    ctx = context_for_order(8)
    m = ctx.mp
    pair = get_pair("exponential")
    x, ln2 = ctx.mpf(1), m.ln(2)

    def direct(y):  # du = -dy / y
        return qn_eval(n, 4 * y * (1 - y), ctx) * pair.f_ref(-x * m.ln(y) / ln2) / y

    tol = m.mpf(10) ** (-(ctx.digits // 2))
    assert abs(integrate(direct, 0, 1, ctx) - stehfest_approx(pair.F, x, n, ctx)) <= tol
