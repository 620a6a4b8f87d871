import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath.ctx_mp import MPContext
from mpmath.libmp import (MPZ, finf, fnan, fninf, fone, from_man_exp, from_rational, fzero,
                          mpf_add, mpf_mul, mpf_neg, round_nearest)

from gsinv import (
    DomainError,
    PrecisionContext,
    ProbeError,
    QuadratureError,
    TransformFn,
    context_for_order,
    get_pair,
    guard_for_order,
    integrate,
    equivalence_probe,
    invert_ladder,
    lambert_w0,
    qn_eval,
    required_digits,
    stehfest_approx,
)
from gsinv import numerics, qpoly
from gsinv.numerics import fit_line, mpf_tuples, power_sum, weighted_sum
from conftest import _factor


def test_required_digits_examples():
    assert required_digits(1) == 13
    assert required_digits(10) == 32
    assert required_digits(14) == 41


def test_required_digits_exact_ceiling():
    # 2.2 * 5 = 11 exactly; a floating ceil would report 12
    assert required_digits(5) == 21
    assert required_digits(15) == 43


def test_required_digits_rejects_bad_order():
    with pytest.raises(DomainError):
        required_digits(0)


def test_context_invariants():
    with pytest.raises(DomainError):
        PrecisionContext(14)
    with pytest.raises(DomainError):
        PrecisionContext(20, guard=4)
    ctx = PrecisionContext(20, guard=5)
    assert ctx.dps == 25
    assert ctx.eps == ctx.mp.mpf(10) ** -20
    finer = PrecisionContext(40, 5)
    assert finer.digits == 40 and finer.guard == 5
    assert finer.eps == finer.mp.mpf(10) ** -40


@pytest.mark.parametrize("digits, guard", [
    (20.5, 10), (30.0, 10), ("30", 10), (None, 10), (float("nan"), 10), (float("inf"), 10),
    (20, 5.5), (20, "5"), (20, None),
])
def test_context_rejects_a_non_integer_digits_or_guard(monkeypatch, digits, guard):
    def no_context():
        raise AssertionError("mpmath context built before the check")

    numerics.cached_context(30, 10)  # a cached (30, 10) must not let 30.0 through
    monkeypatch.setattr(numerics, "MPContext", no_context)
    for build in (PrecisionContext, numerics.cached_context):
        with pytest.raises(DomainError, match="must be an integer >="):
            build(digits, guard)


def test_eps_is_built_once():
    ctx = PrecisionContext(33)
    assert ctx.eps is ctx.eps
    assert type(ctx.eps) is ctx.mp.mpf
    assert ctx.eps._mpf_ == (ctx.mp.mpf(10) ** -33)._mpf_


def test_context_for_order_covers_required():
    for n in (1, 5, 12, 18):
        ctx = context_for_order(n)
        assert ctx.digits == max(15, required_digits(n))
        assert ctx.guard == guard_for_order(n) >= 5


def test_integrate_exponential(ctx30):
    val = integrate(lambda u: ctx30.mp.exp(-u), 0, ctx30.mp.inf, ctx30)
    assert abs(val - 1) <= ctx30.eps


def test_integrate_gaver_kernel_mass(ctx30):
    # p_1(u) = 2 e^-u (1 - e^-u) has unit mass on [0, inf)
    m = ctx30.mp
    val = integrate(lambda u: 2 * m.exp(-u) * (1 - m.exp(-u)), 0, m.inf, ctx30)
    assert abs(val - 1) <= ctx30.eps


def _si_series(x, ctx):
    # independent oracle: Si(x) = sum (-1)^k x^(2k+1) / ((2k+1)(2k+1)!)
    m = ctx.mp
    acc = m.mpf(0)
    term = m.mpf(x)
    k = 0
    while abs(term) > m.mpf(10) ** (-ctx.dps - 5):
        acc += term / (2 * k + 1)
        k += 1
        term = term * (-(m.mpf(x) ** 2)) / ((2 * k) * (2 * k + 1))
    return acc


def test_integrate_sine_integral(ctx30):
    m = ctx30.mp
    val = integrate(lambda u: m.sin(u) / u, 0, m.pi, ctx30)
    oracle = _si_series(m.pi, ctx30)
    assert str(oracle).startswith("1.85193705198")
    assert abs(val - oracle) <= 10 * ctx30.eps


def test_integrate_linearity(ctx30):
    m = ctx30.mp
    rng = random.Random(7)
    f = lambda u: m.exp(-u)
    g = lambda u: m.sin(u)
    for _ in range(3):
        alpha = ctx30.mpf(rng.uniform(-3, 3))
        beta = ctx30.mpf(rng.uniform(-3, 3))
        combined = integrate(lambda u: alpha * f(u) + beta * g(u), 0, 2, ctx30)
        separate = alpha * integrate(f, 0, 2, ctx30) + beta * integrate(g, 0, 2, ctx30)
        assert abs(combined - separate) <= 2 * ctx30.eps * max(1, abs(combined))


def test_integrate_precision_consistency():
    coarse = PrecisionContext(20)
    fine = PrecisionContext(40)
    m = fine.mp
    f = lambda u: m.exp(-(u**2))
    a = integrate(f, 0, m.inf, coarse)
    b = integrate(f, 0, m.inf, fine)
    assert abs(fine.mpf(a) - b) <= coarse.eps


def test_integrate_endpoint_singularity(ctx30):
    m = ctx30.mp
    val = integrate(lambda x: 1 / m.sqrt(x), 0, 1, ctx30)
    assert abs(val - 2) <= ctx30.eps


def test_integrate_semi_infinite_with_singularity(ctx30):
    m = ctx30.mp
    val = integrate(lambda x: m.exp(-2 * x) / m.sqrt(x), 0, m.inf, ctx30)
    assert abs(val - m.sqrt(m.pi / 2)) <= 10 * ctx30.eps


def test_integrate_orientation_and_empty(ctx30):
    m = ctx30.mp
    assert integrate(lambda x: x, 1, 1, ctx30) == 0
    forward = integrate(lambda x: x**2, 0, 2, ctx30)
    backward = integrate(lambda x: x**2, 2, 0, ctx30)
    assert abs(forward + backward) <= ctx30.eps


def test_quadrature_error_carries_estimates(ctx30, monkeypatch):
    m = ctx30.mp
    monkeypatch.setattr(numerics, "MAX_LEVEL", 1)
    with pytest.raises(QuadratureError) as err:
        integrate(lambda u: m.sin(u) / u, 0, m.pi, ctx30)
    assert err.value.last_estimates is not None
    assert len(err.value.last_estimates) == 2


@pytest.mark.parametrize("kind", ["mpf", "float"])
@pytest.mark.parametrize("a, b", [("-inf", "0"), ("nan", "1"), ("inf", "1"), ("0", "-inf"),
                                  ("0", "nan")])
def test_integrate_rejects_bad_limits_before_calling_f(ctx30, kind, a, b):
    make = ctx30.mpf if kind == "mpf" else float

    def f(u):
        raise AssertionError("integrand called")

    with pytest.raises(DomainError):
        integrate(f, make(a), make(b), ctx30)


def test_integrate_accepts_float_inf(ctx30):
    m = ctx30.mp
    assert integrate(lambda u: m.exp(-u), 0, float("inf"), ctx30) == \
        integrate(lambda u: m.exp(-u), 0, m.inf, ctx30)


# _mpf_ of integrate over (0, 2) and over (0, inf), one integrand pair per
# value type; the float pair returns floats only beyond u = 60, where they
# are far below the tolerance, and the int pair truncates e^(200 - ...)
# to integers wider than the working precision, which must not be
# rounded before the first operation.  The mpf60 pair returns mpfs of a
# 60-digit context, which must be rebound to the working context before
# the first operation: mpmath rounds at the left operand's precision
_VALUE_PINS = {
    (20, "int"): ((0, 4715167891479108588894619150975, 180, 102),
                  (0, 1841862457609026792536960605849, 188, 101)),
    (20, "float"): ((0, 3602879701896397, -54, 52), (0, 1, 0, 1)),
    (20, "mpf"): ((0, 2390304894924208636532562697705, -100, 101),
                  (0, 10141204801825835211973625643007, -104, 103)),
    (20, "mpf60"): ((0, 5980163889437430860369012075257, -103, 103),
                    (0, 6760803201217223474649083762005, -104, 103)),
    (40, "int"): ((0, 21744873839671952140656380893580846574416808634113, 118, 164),
                  (0, 543621845991798803516409522339521164360420215852827, 120, 169)),
    (40, "float"): ((0, 3602879701896397, -54, 52),
                    (0, 187072209578355573530071658587684226515959423193201, -167, 168)),
    (40, "mpf"): ((0, 176373370619208312604394578603845036587024571377415, -166, 167),
                  (0, 748288838313422294120286634350736906063837462003707, -170, 169)),
}


@pytest.mark.parametrize("digits, kind", sorted(_VALUE_PINS))
def test_integrate_value_bits_are_pinned(digits, kind):
    # an integrand may return an int, a float or an mpf of any context;
    # each is taken as the mpf operators of ctx take it (ints and floats exactly)
    ctx = PrecisionContext(digits)
    m, wide = ctx.mp, PrecisionContext(60).mp
    finite, semi = {
        "int": (lambda x: int(m.exp(200 - 100 * x)), lambda u: int(m.exp(200 - u))),
        "float": (lambda x: 0.1, lambda u: m.exp(-u) if u < 60 else float(m.exp(-u))),
        "mpf": (lambda x: m.sqrt(x), lambda u: m.exp(-u) * m.cos(u)),
        "mpf60": (lambda x: wide.exp(-x) * wide.cos(x), lambda u: wide.exp(-u) / 3),
    }[kind]
    got = (integrate(finite, 0, 2, ctx)._mpf_, integrate(semi, 0, m.inf, ctx)._mpf_)
    assert got == _VALUE_PINS[digits, kind]


@pytest.mark.parametrize("value", ["mpc", "complex", "None", "str"])
def test_integrate_rejects_a_value_that_is_not_real(ctx20, value):
    m = ctx20.mp
    bad = {"mpc": m.mpc(1, 1), "complex": 1j, "None": None, "str": "1"}[value]
    for b in (1, m.inf):
        with pytest.raises(DomainError, match="integrand value"):
            integrate(lambda x: bad, 0, b, ctx20)


def test_fit_line_recovers_a_line_and_rejects_no_spread(ctx30):
    m = ctx30.mp
    assert fit_line([1, 2, 3, 4], [m.mpf(3 + 2 * k) for k in (1, 2, 3, 4)], m) == (3, 2, 0)
    with pytest.raises(ProbeError):
        fit_line([2, 2, 2], [m.mpf(1), m.mpf(2), m.mpf(3)], m)


def _clear_precision_caches():
    numerics._TABLES.cache_clear()
    qpoly._qn_integer_form.cache_clear()
    numerics._CONTEXTS.cache_clear()


def _bits(x):
    return x._mpf_


def test_mpf_tuples_round_like_context():
    rng = random.Random(11)
    values = [Fraction(rng.randint(-10**40, 10**40), rng.randint(1, 10**25)) for _ in range(40)]
    values += [Fraction(0), Fraction(1, 3), Fraction(-7, 1)]
    for digits in (15, 31, 77):
        ctx = PrecisionContext(digits)
        raw = mpf_tuples(values, ctx.mp.prec)
        assert raw == tuple(_bits(ctx.mpf(q)) for q in values)


@st.composite
def _wide_fractions(draw):
    # a context of 15-80 digits and a Fraction whose numerator is wider
    # than its precision, so rounding the numerator first would lose bits;
    # the low bits are drawn at random (hypothesis favours simple integers,
    # whose quotients rarely lie near a rounding midpoint)
    ctx = PrecisionContext(draw(st.integers(15, 80)))
    rng = draw(st.randoms(use_true_random=False))
    width = ctx.mp.prec + draw(st.integers(1, 200))
    num = (rng.getrandbits(width) | 1 << (width - 1)) * rng.choice((1, -1))
    return ctx, Fraction(num, rng.getrandbits(draw(st.integers(1, 300))) or 1)


@given(_wide_fractions())
def test_fractions_are_rounded_once_as_from_rational(case):
    ctx, q = case
    prec = ctx.mp.prec
    want = from_rational(q.numerator, q.denominator, prec, round_nearest)
    assert _bits(ctx.mpf(q)) == want
    assert mpf_tuples([q], prec) == (want,)


def test_power_sum_matches_mpf_loop(ctx30):
    m = ctx30.mp
    coeffs = [Fraction((-1) ** k * 3**k, k + 2) for k in range(25)]
    raw = mpf_tuples(coeffs, m.prec)
    for p in (m.mpf("0.37"), m.mpf("-1.25"), m.mpf(0), m.mpc("0.1", "-0.2"), m.mpc(0, "0.3")):
        acc, ppow = m.mpc(0), m.mpc(1)
        for c in coeffs:
            acc += ctx30.mpf(c) * ppow
            ppow *= p
        got = power_sum(raw, p, m)
        if type(p) is m.mpf:
            assert type(got) is m.mpf
            assert _bits(got) == _bits(acc.real) and acc.imag == 0
        else:
            assert type(got) is m.mpc
            assert (_bits(got.real), _bits(got.imag)) == (_bits(acc.real), _bits(acc.imag))
            assert type(power_sum(raw[:1], p, m)) is m.mpc  # the type follows p from c_0 on


@st.composite
def _sum_cases(draw, special=False):
    """``(prec, terms)``: a term is ``(c, v)``, or None to cancel the running sum exactly.

    The magnitude of each value is moved by a gap of 0 to 10**5 bits,
    both ways: next to the others (so sums round, and tie), around the
    precision, and past the ``2 prec + 2`` bits the far-operand rule
    starts at.  With ``special``, about one value in five is inf, -inf
    or nan; without, every value is finite.
    """
    prec = draw(st.integers(53, 1000))
    gaps = st.one_of(
        st.integers(0, 4),
        st.sampled_from([prec - 1, prec, prec + 1, 2 * prec + 2, 2 * prec + 3]),
        st.integers(0, 3 * prec),
        st.integers(0, 10**5),
    )
    terms = []
    for _ in range(draw(st.integers(1, 10))):
        if terms and draw(st.integers(0, 5)) == 0:
            terms.append(None)
            continue
        top = draw(gaps) * draw(st.sampled_from([1, -1]))
        c = draw(_factor(prec, draw(st.integers(-2, 2))))
        v = draw(_factor(prec, top))
        if special and draw(st.integers(0, 4)) == 0:
            v = draw(st.sampled_from([finf, fninf, fnan]))
        terms.append((c, v))
    return prec, terms


def _check_weighted_sum(prec, terms):
    """weighted_sum of the terms has the bits of the mpf_mul/mpf_add loop at prec."""
    m = MPContext()
    m.prec = prec
    coeffs, values, acc = [], [], fzero
    for term in terms:
        c, v = term or (fone, mpf_neg(acc))  # None: cancel to exact zero, mid-sum or at the end
        coeffs.append(c)
        values.append(v)
        acc = mpf_add(acc, mpf_mul(c, v, prec, round_nearest), prec, round_nearest)
    special = any(term and term[1] in (finf, fninf, fnan) for term in terms)
    assert terms[-1] is not None or acc == (fnan if special else fzero)
    assert weighted_sum(coeffs, [m.make_mpf(v) for v in values], m)._mpf_ == acc


@given(_sum_cases())
def test_weighted_sum_bits_match_the_libmp_loop(case):
    _check_weighted_sum(*case)


@given(_sum_cases(special=True))
def test_weighted_sum_with_infinite_or_nan_values_matches_the_libmp_loop(case):
    _check_weighted_sum(*case)


def _libmp_sum(coeffs, values, prec):
    acc = fzero
    for c, v in zip(coeffs, values):
        acc = mpf_add(acc, mpf_mul(c, v, prec, round_nearest), prec, round_nearest)
    return acc


_LOW_BITS = {  # the k bits a rounding to prec drops, as a function of k
    "tie": lambda k: 1 << (k - 1),
    "above tie": lambda k: 3 << (k - 2),  # the sticky bit next to the half bit
    "below tie": lambda k: (1 << (k - 1)) - 1,
    "all ones": lambda k: (1 << k) - 1,
}


@pytest.mark.parametrize("low", sorted(_LOW_BITS))
@pytest.mark.parametrize("kept", ["even", "odd", "all ones"])
@pytest.mark.parametrize("k", [2, 3, 40, 301])
@pytest.mark.parametrize("prec", [53, 200, 1000])
def test_weighted_sum_rounds_halfway_and_sticky_bits_as_libmp(prec, k, kept, low):
    # prec kept bits and k dropped ones, rounded once: as the product of 1 and
    # a value of prec + k bits, and as the sum of a prec-bit accumulator and
    # a product k bits lower
    rng = random.Random(prec * k)
    high = {"even": rng.getrandbits(prec - 2) << 1 | 1 << (prec - 1),
            "odd": rng.getrandbits(prec - 2) << 1 | 1 << (prec - 1) | 1,
            "all ones": (1 << prec) - 1}[kept]
    m = MPContext()
    m.prec = prec
    for sign in (1, -1):
        cases = [([fone], [from_man_exp(sign * (high << k | _LOW_BITS[low](k)), 0)])]
        if k <= prec:  # the lower product has at most prec bits
            cases.append(([fone, fone], [from_man_exp(sign * high, k),
                                         from_man_exp(sign * _LOW_BITS[low](k), 0)]))
        for coeffs, values in cases:
            want = _libmp_sum(coeffs, values, prec)
            assert weighted_sum(coeffs, [m.make_mpf(v) for v in values], m)._mpf_ == want


def _sample_integrals(ctx, wrap=lambda g: g):
    m = ctx.mp
    return [
        integrate(wrap(lambda u: m.exp(-2 * u) / m.sqrt(u)), 0, m.inf, ctx),
        integrate(wrap(lambda u: m.exp(-u) * m.cos(u)), 1, m.inf, ctx),
        integrate(wrap(lambda u: m.sin(u) / u), 0, m.pi, ctx),
        integrate(wrap(lambda x: 1 / m.sqrt(x)), 0, 1, ctx),
    ]


def test_integrate_cold_and_warm_caches_agree_bitwise():
    ctx = PrecisionContext(27)
    _clear_precision_caches()
    cold = _sample_integrals(ctx)
    warm = _sample_integrals(ctx)
    assert [_bits(v) for v in cold] == [_bits(v) for v in warm]


def test_integrate_returns_callers_type_across_equal_contexts():
    # the node tables are shared by precision, not by context: a second
    # context of equal digits reads the first one's tables, yet its
    # integrand and result only ever see its own numbers
    first, second = PrecisionContext(29), PrecisionContext(29)
    assert first.mp is not second.mp
    _clear_precision_caches()
    ref = _sample_integrals(first)
    m = second.mp
    seen = set()

    def own(g):
        def checked(u):
            seen.add(type(u))
            return g(u)
        return checked

    got = _sample_integrals(second, own)
    assert seen == {m.mpf}
    assert all(type(v) is m.mpf for v in got)
    tables = [t for key, t in numerics._TABLES._data.items() if key[0] == "nodes"]
    assert tables and all(type(x) is tuple for t in tables for node in t for x in node)
    assert [_bits(v) for v in got] == [_bits(v) for v in ref]


def test_bounded_cache_returns_the_entry_stored_first():
    # a build that fills its own key stands in for a second thread that
    # missed the same key and stored first: both callers get that entry
    cache = numerics._BoundedCache(maxsize=2)
    inner = []

    def outer_build():
        inner.append(cache.get("k", lambda: ["inner"]))
        return ["outer"]

    got = cache.get("k", outer_build)
    assert got is inner[0] == ["inner"]
    assert cache.get("k", lambda: ["rebuilt"]) is got
    cache.get("a", list)
    cache.get("k", list)  # a hit keeps "k" the most recent entry
    cache.get("b", list)
    assert list(cache._data) == ["k", "b"]


def _raw(x):
    # an int (or the backend's integer type), or a tuple or dict of raw values
    if isinstance(x, (int, MPZ)):
        return True
    if isinstance(x, dict):
        return all(_raw(k) and _raw(v) for k, v in x.items())
    return isinstance(x, tuple) and all(_raw(v) for v in x)


def test_precision_tables_hold_raw_tuples_and_stay_under_their_bound():
    from gsinv import verify

    F = TransformFn(lambda z: z.context.besselk(0, z.context.sqrt(z)) / z, "K0(sqrt(z))/z")
    numerics._TABLES.cache_clear()
    assert verify.run_suites("all")[1]
    invert_ladder(F, 3, 16)
    entries = dict(numerics._TABLES._data)
    assert {key[0] for key in entries} >= {"a_k", "mu", "w", "nodes", "xi"}
    bad = [key for key, value in entries.items() if not _raw(value)]
    assert bad == []
    assert len(entries) < numerics._TABLES.maxsize  # nothing was evicted


def _mixed_jobs(ctx):
    m = ctx.mp
    v = ctx.mpf("0.37")
    return [
        lambda: qn_eval(6, v, ctx),
        lambda: integrate(lambda u: m.exp(-2 * u) / m.sqrt(u), 0, m.inf, ctx),
        lambda: qn_eval(17, v, ctx),
        lambda: integrate(lambda u: m.sin(u) / u, 0, m.pi, ctx),
        lambda: qn_eval(30, v, ctx),
        lambda: qpoly.integral_representation_check(23),
        lambda: qpoly.integral_representation_check(41),
        lambda: equivalence_probe(lambda t: m.exp(-t), 1, m.exp(-1), "0.2", 20, ctx),
    ]


def _run_threaded(jobs, repeat=2):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # force thread switches inside the cache fills
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            return list(pool.map(lambda job: job(), jobs * repeat, timeout=120))
    finally:
        sys.setswitchinterval(interval)


def _bits_or_verdict(x):
    return x if isinstance(x, bool) else x._mpf_


def test_thread_safety_of_precision_caches():
    # the node tables, q_n integer forms and xi tables are process-wide;
    # threads racing to fill them cold must reproduce the serial bits,
    # and the kernel identity, which reads the q_n integer forms, its
    # serial verdict
    per_ctx = [_mixed_jobs(PrecisionContext(d)) for d in (20, 35)]
    jobs = [job for pair in zip(*per_ctx) for job in pair]  # alternate precisions
    _clear_precision_caches()
    serial = [_bits_or_verdict(job()) for job in jobs]
    assert [v for v in serial if isinstance(v, bool)] == [True] * 4
    _clear_precision_caches()
    threaded = [_bits_or_verdict(v) for v in _run_threaded(jobs)]
    assert threaded == serial * 2


def test_thread_safety_of_special_function_paths():
    # the W constants and branch-series vectors are process-wide, and a
    # Stehfest sum at an order no other job uses fills its a_k table cold
    # through mpf_tuples while the W jobs run
    def w_jobs(ctx):
        zs = ("0.03+0.02j", "-0.3668794411714423", "-0.33+0.01j", "0.5-0.5j", "5+3j", "-3")
        return [lambda z=z: lambert_w0(ctx.mp.mpc(complex(z)), ctx) for z in zs]

    a_ctx = PrecisionContext(required_digits(9))
    a_job = lambda: stehfest_approx(get_pair("exponential").F, 1, 9, a_ctx)
    per_ctx = [w_jobs(PrecisionContext(d)) for d in (20, 30, 45)]
    jobs = [job for group in zip(*per_ctx) for job in group]
    jobs.insert(len(jobs) // 2, a_job)

    def bits(v):
        return v._mpc_ if hasattr(v, "_mpc_") else v._mpf_

    _clear_precision_caches()
    serial = [bits(job()) for job in jobs]
    _clear_precision_caches()
    assert [bits(v) for v in _run_threaded(jobs)] == serial * 2


def test_context_for_order_is_one_context_per_thread():
    numerics._CONTEXTS.cache_clear()
    mine = context_for_order(12)
    assert context_for_order(12) is mine
    assert numerics.cached_context(mine.digits, mine.guard) is mine
    assert context_for_order(13) is not mine
    seen = []
    worker = threading.Thread(
        target=lambda: seen.extend(context_for_order(12) for _ in range(2)), daemon=True)
    worker.start()
    worker.join(60)
    assert len(seen) == 2 and seen[0] is seen[1]  # a hit within the other thread
    assert seen[0] is not mine and seen[0] == mine  # equal settings, its own context
    assert seen[0].mp is not mine.mp
    assert context_for_order(12) is mine  # the other thread left this one's cache alone


def test_every_context_rounds_to_nearest():
    # the libmp calls and the integer steps take round_nearest as a
    # constant: an MPContext has no rounding setting, and besselk, which
    # raises the precision and restores it, leaves the rounding alone
    numerics._CONTEXTS.cache_clear()
    fresh, cached = PrecisionContext(30), numerics.cached_context(30)
    for ctx in (fresh, cached):
        assert ctx.mp._prec_rounding[1] == round_nearest
        prec = ctx.mp.prec
        ctx.mp.besselk(0, ctx.mp.sqrt(ctx.mpf(3)))
        assert ctx.mp._prec_rounding == [prec, round_nearest]


def test_cached_context_left_at_raised_precision_is_rebuilt():
    numerics._CONTEXTS.cache_clear()
    ctx = numerics.cached_context(31, 7)
    prec = ctx.mp.prec
    ctx.mp.prec += 100  # a caller that raised the precision and left it so
    fresh = numerics.cached_context(31, 7)
    assert fresh is not ctx and fresh.mp.prec == prec
    assert numerics.cached_context(31, 7) is fresh
    assert fresh.mpf(1) / 3 == PrecisionContext(31, 7).mpf(1) / 3


def test_cached_contexts_are_bounded_per_thread():
    numerics._CONTEXTS.cache_clear()
    first = numerics.cached_context(20)
    for digits in range(21, 21 + numerics._CONTEXTS.maxsize):
        numerics.cached_context(digits)
    assert len(numerics._CONTEXTS._data) == numerics._CONTEXTS.maxsize
    assert numerics.cached_context(20) is not first  # the oldest entry was dropped


def test_threaded_besselk_ladders_match_serial_bits():
    # besselk raises the precision of the context it runs in and restores
    # it afterwards; four threads sharing one context push the precision
    # up without bound and never finish, so they run on daemon threads
    # with a deadline rather than in a pool that interpreter exit would join
    F = TransformFn(lambda z: z.context.besselk(0, z.context.sqrt(z)) / z, "K0(sqrt(z))/z")
    ts = ("1", "1.6", "2.5", "3.9", "6.1", "9.4", "1.25", "7.7")

    def ladder(t):
        ctx = context_for_order(16)
        return [e.value._mpf_ for e in invert_ladder(F, t, 16, ctx=ctx).entries]

    serial = [ladder(t) for t in ts]
    results = {}

    def worker(i):
        for j in range(i, len(ts), 4):
            results[j] = ladder(ts[j])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=worker, args=(i,), daemon=True) for i in range(4)]
        for w in workers:
            w.start()
        deadline = time.monotonic() + 120
        for w in workers:
            w.join(max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers), "threaded ladders missed the deadline"
    assert [results.get(j) for j in range(len(ts))] == serial
