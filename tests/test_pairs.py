import re
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from mpmath import MPContext
from mpmath.libmp import from_man_exp

import gsinv.mantissa
import gsinv.pairs
from gsinv import numerics
from gsinv import (
    DomainError,
    PrecisionContext,
    TransformFn,
    TransformPair,
    context_for_order,
    corpus,
    get_pair,
    invert_ladder,
    jordan_target,
    run_pair,
    stehfest_approx,
)
from gsinv.cli import MAX_DIGITS
from gsinv.inverter import _AbscissaCache
from gsinv.mantissa import _root_table, _round_even
from gsinv.pairs import _jumps_below, dini_integral_estimate, laplace_identity_residual


def test_corpus_contents():
    names = {p.name: p for p in corpus()}
    assert set(names) == {
        "constant",
        "ramp",
        "exponential",
        "root",
        "step",
        "square-wave",
        "sine",
    }
    assert names["sine"].oscillatory_flag
    assert names["step"].jumps[0][0] == Fraction(1)
    assert names["constant"].klass == "smooth"
    with pytest.raises(DomainError):
        get_pair("nope")


def test_corpus_is_built_once_per_transform_constructor(monkeypatch):
    built = corpus()
    assert corpus() is built
    assert get_pair("square-wave") is built[5]
    labels = []

    def counting(eval, label=""):
        labels.append(label)
        return TransformFn(eval, label)

    # a constructor patched into the module (as a tracer does) builds the pairs
    monkeypatch.setattr(gsinv.pairs, "TransformFn", counting)
    patched = corpus()
    assert corpus() is patched and patched is not built
    assert labels == [p.formula for p in built]


def test_jordan_targets(ctx30):
    m = ctx30.mp
    assert jordan_target(get_pair("step"), 1, ctx30) == m.mpf(1) / 2
    assert abs(jordan_target(get_pair("exponential"), 1, ctx30) - m.exp(-1)) <= ctx30.eps
    assert jordan_target(get_pair("ramp"), 2, ctx30) == 2
    assert jordan_target(get_pair("square-wave"), 3, ctx30) == m.mpf(1) / 2
    assert jordan_target(get_pair("square-wave"), ctx30.mpf("2.5"), ctx30) == 1


def test_jordan_target_rounds_the_jump_locations_once_per_precision(monkeypatch):
    ctx = PrecisionContext(33, 9)
    pair = get_pair("square-wave")
    first = [jordan_target(pair, x, ctx) for x in (3, "2.5", 80, 81)]
    converted = []
    mpf = PrecisionContext.mpf

    def counting(self, x):
        if isinstance(x, Fraction):
            converted.append(x)
        return mpf(self, x)

    monkeypatch.setattr(PrecisionContext, "mpf", counting)
    monkeypatch.setattr(gsinv.pairs, "mpf_tuples", lambda *args: converted.append(args),
                        raising=False)
    assert [jordan_target(pair, x, ctx) for x in (3, "2.5", 80, 81)] == first
    assert converted == []


@pytest.mark.parametrize("x", [81, 82, 100])
def test_square_wave_target_is_the_midpoint_beyond_the_listed_jumps(ctx30, x):
    # jumps lists 1..80; the reference itself must give 1/2 at a later jump
    pair = get_pair("square-wave")
    assert max(loc for loc, _, _ in pair.jumps) < x
    assert jordan_target(pair, x, ctx30) == ctx30.mp.mpf(1) / 2
    assert jordan_target(pair, ctx30.mpf(x) + ctx30.mpf("0.5"), ctx30) == (x + 1) % 2


def _plain_square_wave(t):
    # a square wave with no midpoints of its own: only the jump data gives them
    return t.context.mpf(1 - int(t.context.floor(t)) % 2)


def test_periodic_target_is_the_midpoint_at_every_recurring_jump(ctx30):
    wave, half = get_pair("square-wave"), ctx30.mpf(1) / 2
    pair = TransformPair("plain", wave.F, _plain_square_wave, wave.klass,
                         ((1, 1, 0), (2, 0, 1)), 2)
    assert [jordan_target(pair, x, ctx30) for x in (1, 2, 3, 4, 5, 101)] == [half] * 6
    assert [jordan_target(pair, x, ctx30) for x in ("0.5", "2.5", "5.5")] == [1, 1, 0]


def test_periodic_target_recurs_after_the_listed_jumps_only(ctx30):
    # the last listed period recurs forward: 1 and 2 are no jumps of this pair
    wave, half = get_pair("square-wave"), ctx30.mpf(1) / 2
    late = TransformPair("late", wave.F, _plain_square_wave, wave.klass,
                         ((3, 1, 0), (4, 0, 1)), 2)
    assert [jordan_target(late, x, ctx30) for x in (1, 2, 5, 6)] == [0, 1, half, half]


def test_periodic_target_off_the_binary_grid_is_the_midpoint_only_at_its_rounding(ctx30):
    # a location off the binary grid recurs where x is its rounding, and only there
    wave, half = get_pair("square-wave"), ctx30.mpf(1) / 2
    third = TransformPair("third", wave.F, _plain_square_wave, wave.klass,
                          ((Fraction(1, 3), 1, 0),), Fraction(2, 3))
    at = [ctx30.mpf(Fraction(1 + 2 * k, 3)) for k in (2, 3, 4)]
    assert [jordan_target(third, x, ctx30) for x in at] == [half] * 3
    assert jordan_target(third, at[0] * (1 + 4 * ctx30.eps), ctx30) == 0


def test_laplace_identity_all_pairs():
    # each pair's evaluator really is the transform of its original
    ctx = PrecisionContext(18)
    tol = ctx.mp.mpf(10) ** (-(ctx.digits - ctx.guard + 2))
    for pair in corpus():
        for z in (1, 2, 5):
            resid = laplace_identity_residual(pair, ctx.mpf(z), ctx)
            assert resid <= tol, (pair.name, z, ctx.nstr(resid, 4))


@pytest.mark.parametrize("z", [0.2, 0.5])
def test_laplace_identity_square_wave_past_the_listed_jumps(z):
    # the span (digits + guard + 5) ln 10 / z is about 380 at z = 0.2, past the
    # last listed jump (80), so the pieces must follow the wave's later jumps
    ctx = PrecisionContext(18)
    tol = ctx.mp.mpf(10) ** (-(ctx.digits - ctx.guard + 2))  # as in the all-pairs test
    resid = laplace_identity_residual(get_pair("square-wave"), z, ctx)
    assert resid <= tol, ctx.nstr(resid, 4)


@pytest.mark.parametrize("digits", [18, 30])
@pytest.mark.parametrize("name", ["constant", "ramp", "root", "step", "sine"])
def test_laplace_identity_at_a_slow_decay_rate(name, digits):
    # at z = 0.2 the span (digits + guard + 5) ln 10 / z is about 380 at 18
    # digits and 518 at 30, so the last piece (lo, span) is long
    ctx = PrecisionContext(digits)
    tol = ctx.mp.mpf(10) ** (-(ctx.digits - ctx.guard + 2))  # as in the all-pairs test
    resid = laplace_identity_residual(get_pair(name), "0.2", ctx)
    assert resid <= tol, ctx.nstr(resid, 4)


def test_laplace_identity_of_every_pair_to_the_working_precision():
    # integrate's stopping test is absolute for values below 1: unscaled, the
    # square wave's pieces past t = 140 (each near 1e-12) stopped with relative
    # errors near 1e-13, a residual of 4.8e-25 against at most 1.2e-27 for the rest
    ctx = PrecisionContext(18)
    for pair in corpus():
        resid = laplace_identity_residual(pair, "0.2", ctx)
        assert resid < ctx.mp.mpf("1e-26"), (pair.name, ctx.nstr(resid, 4))


@pytest.mark.parametrize("name", ["step", "square-wave"])
def test_laplace_identity_piece_where_the_original_is_zero_is_exactly_zero(monkeypatch, name):
    # nodes that round onto a jump take the piece's one-sided limit, 0 here,
    # not the step's right value or the wave's Jordan midpoint
    ctx = PrecisionContext(18)
    pair = get_pair(name)
    pieces = []
    integrate = gsinv.pairs.integrate

    def recorded(f, a, b, ctx):
        value = integrate(f, a, b, ctx)
        pieces.append((a, b, value))
        return value

    monkeypatch.setattr(gsinv.pairs, "integrate", recorded)
    laplace_identity_residual(pair, "0.2", ctx)
    zero = [(a, value) for a, b, value in pieces if pair.f_ref((a + b) / 2) == 0]
    assert len(zero) == (1 if name == "step" else 190)  # the wave's last piece (379, span) too
    assert all(value == 0 for _a, value in zero), [(ctx.nstr(a, 4), value) for a, value in zero
                                                  if value]


def test_laplace_identity_takes_no_exp_where_the_original_is_zero(monkeypatch):
    # the step is 0 on (0, 1): there the integrand is 0 without e^(-z (t - lo))
    ctx = PrecisionContext(18)
    m = ctx.mp
    laplace_identity_residual(get_pair("step"), 2, ctx)  # builds the nodes, which take exp
    args, pieces = [], []
    exp, integrate = m.exp, gsinv.pairs.integrate

    def recorded(f, a, b, ctx):
        before = len(args)
        value = integrate(f, a, b, ctx)
        pieces.append((a, len(args) - before))
        return value

    monkeypatch.setattr(m, "exp", lambda v: args.append(v) or exp(v))
    monkeypatch.setattr(gsinv.pairs, "integrate", recorded)
    resid = laplace_identity_residual(get_pair("step"), 2, ctx)
    assert resid <= m.mpf(10) ** (-(ctx.digits - ctx.guard + 2))
    assert pieces[0] == (0, 0) and [a for a, _ in pieces] == [0, 1]
    assert pieces[1][1] > 0 and max(args) <= 0


def test_jump_locations_continue_a_periodic_pair(ctx30):
    wave = get_pair("square-wave")
    assert len(wave.jumps) == 80 and wave.period == 2

    def locations(pair, stop):
        return [loc for loc, _left, _right in _jumps_below(pair, ctx30.mpf(stop), ctx30)]

    assert locations(wave, "100.5") == list(range(1, 101))
    assert locations(wave, 40) == list(range(1, 40))
    assert locations(get_pair("step"), 1000) == [1]
    assert locations(get_pair("sine"), 1000) == []
    # the shifted jumps keep the limits of the period they repeat
    assert [(left, right) for loc, left, right in _jumps_below(wave, ctx30.mpf(100), ctx30)
            ] == [(1, 0) if k % 2 else (0, 1) for k in range(1, 100)]


# the operator form of every corpus formula, as the evaluators were written
# before they ran on raw tuples
OPERATOR_FORMS = {
    "1/z": lambda z: 1 / z,
    "1/z^2": lambda z: 1 / z**2,
    "1/(z+1)": lambda z: 1 / (z + 1),
    "sqrt(pi/z)": lambda z: z.context.sqrt(z.context.pi / z),
    "exp(-z)/z": lambda z: z.context.exp(-z) / z,
    "1/(z(1+exp(-z)))": lambda z: 1 / (z * (1 + z.context.exp(-z))),
    "1/(1+z^2)": lambda z: 1 / (1 + z**2),
}


def test_every_corpus_formula_has_an_operator_form():
    assert sorted(p.formula for p in corpus()) == sorted(OPERATOR_FORMS)


@given(st.integers(15, 300), st.integers(15, 300), st.integers(-6, 5), st.integers(1, 10**6),
       st.integers(1, 10**6))
def test_corpus_evaluators_match_their_operator_forms_bit_for_bit(d1, d2, decade, p, q):
    assume(d1 != d2)
    own, other = PrecisionContext(d1), PrecisionContext(d2)
    # 10 to a power that is no integer: a full mantissa in (1e-6, 1e6), even for small p, q
    z = own.mpf(10) ** (decade + own.mpf(p) / (p + q))
    points = (
        z,
        other.mpf(z),  # a point of a second context at a different precision
        other.mp.make_mpf(z._mpf_),  # own's bits in the second context, rounded on use
    )
    for pair in corpus():
        form = OPERATOR_FORMS[pair.formula]
        for w in points:
            got = pair.F(w)
            assert type(got) is type(w), pair.name  # computed in z's own context
            assert got._mpf_ == form(w)._mpf_, (pair.name, d1, d2, w)


@pytest.mark.parametrize("digits", [15, 40, 300])
def test_root_on_exact_squares_matches_its_operator_form(digits):
    # pi/z is 4**k exactly, so the square root has no remainder
    m = PrecisionContext(digits).mp
    root = get_pair("root").F
    for k in range(-3, 4):
        z = m.pi * m.mpf(4) ** -k
        assert root(z)._mpf_ == OPERATOR_FORMS["sqrt(pi/z)"](z)._mpf_ == (m.mpf(2) ** k)._mpf_


@pytest.mark.parametrize("x", ["1e-30", "0.75", "1e30"])
@pytest.mark.parametrize("digits", [15, MAX_DIGITS])
def test_kernels_at_far_abscissas_and_the_digits_cap_match_their_operator_forms(x, digits):
    # outside the hypothesis draws: abscissas j ln2/x near 1e30 and 1e-30,
    # the CLI's digits cap, integers (mpf_exp's own route above 600 bits)
    # and negative points, where the root has no real value and says so.  The abscissas j = 1..128
    # are read ascending, as stehfest_approx reads them, and descending,
    # so step's and square wave's progression is extended from any j
    ctx = PrecisionContext(digits)
    m = ctx.mp
    base = m.ln(2) / ctx.mpf(x)
    js = range(1, 129)
    for pair in corpus():
        form = OPERATOR_FORMS[pair.formula]
        expected = [form(j * base)._mpf_ for j in js]
        for order in (js, js[::-1]):
            cache = _AbscissaCache(pair.F, ctx.mpf(x), ctx)  # the inverter's path on pairs
            assert cache.batch is not None
            assert [cache(j)._mpf_ for j in order] == [expected[j - 1] for j in order], pair.name
        for z in (1, 2, 7, 10**30, -0.5, -7):
            z = ctx.mpf(z)
            if z > 0 or pair.name != "root":
                assert pair.F(z)._mpf_ == form(z)._mpf_, (pair.name, z)
            else:
                with pytest.raises(DomainError, match=re.escape(f"got z = {z}")):
                    pair.F(z)


def _reads(n, reading):
    """The reads of the abscissas j = 1..2n that the inverter's routes make of
    one batch: the calls of the batch of one x, in order."""
    return {
        "ascending": lambda: [range(1, 2 * n + 1)],  # stehfest_approx
        "descending": lambda: [range(2 * n, 0, -1)],
        "ladder": lambda: [(2 * k - 1, 2 * k) for k in range(1, n + 1)],  # two new per order
        "one at a time": lambda: [(k + i,) for k in range(1, n + 1) for i in range(k + 1)],
    }[reading]()  # the last: the Gaver witness, which reads k + i for each functional k


_READINGS = ("ascending", "descending", "ladder", "one at a time")


def _check_batches(bman, bexp, prec, reads):
    """Each corpus kernel's batch for ``base = bman 2**bexp``, made once and read as
    ``reads``: every value has the bits of its operator form at z_j, at ``prec``."""
    m = MPContext()
    m.prec = prec
    for pair in corpus():
        form = OPERATOR_FORMS[pair.formula]
        batch = pair.F.eval.batch(bman, bexp, prec)
        want = {}  # j -> the operator form at z_j, z_j rounded as the abscissa cache rounds it
        for js in reads:
            for j in js:
                if j not in want:
                    z = m.make_mpf(from_man_exp(*_round_even(bman * j, bexp, prec)))
                    want[j] = form(z)._mpf_
            assert [from_man_exp(*v) for v in batch(js)] == [want[j] for j in js], (
                pair.name, bman, bexp, prec, js)


def _base(x, ctx):
    """ln2 / x as the abscissa cache rounds it, a pair."""
    return _AbscissaCache(get_pair("constant").F, ctx.mpf(x), ctx).base._mpf_[1:3]


@given(st.floats(-6, 6), st.integers(15, 300), st.integers(1, 64), st.sampled_from(_READINGS))
def test_batch_kernels_have_the_bits_of_their_operator_forms(decade, digits, n, reading):
    ctx = PrecisionContext(digits)
    _check_batches(*_base(10.0 ** decade, ctx), ctx.mp.prec, _reads(n, reading))


@pytest.mark.parametrize("reading", _READINGS)
@pytest.mark.parametrize("n", [1, 16, 64])
@pytest.mark.parametrize("x", ["1e-30", "1e30"])
def test_batch_kernels_at_far_abscissas(x, n, reading):
    # abscissas near 1e30, where the exp progression falls back on mpf_exp
    # at lower precisions, and near 1e-30.  Order 1 runs at 70 bits, where
    # the root's table is empty and every root is the exact one
    ctx = context_for_order(n)
    prec = ctx.mp.prec
    assert (_root_table(prec) == ()) == (n == 1)
    _check_batches(*_base(x, ctx), prec, _reads(n, reading))


@pytest.mark.parametrize("reading", ["ascending", "one at a time"])
@pytest.mark.parametrize("prec", [70, 664])
@pytest.mark.parametrize("base", [(3, 0), (1, -1)])
def test_batch_kernels_at_integer_abscissas(base, prec, reading):
    # every abscissa an integer (base 3), or every other one (base 1/2)
    _check_batches(*base, prec, _reads(64, reading))


def test_batch_kernels_where_the_progressions_fall_back(monkeypatch):
    # x = 153577/37043 at 70 bits: exp(-z_2) lies 2**-19 ulp from a rounding
    # midpoint, where the exp progression takes mpf_exp's bits.  With the
    # root's band widened to a whole ulp, every root is the exact one
    ctx = context_for_order(1)
    assert ctx.mp.prec == 70
    base = _base(Fraction(153577, 37043), ctx)
    for reading in _READINGS:
        _check_batches(*base, 70, _reads(64, reading))
    ctx = context_for_order(16)
    monkeypatch.setattr(gsinv.mantissa, "_ROOT_BAND", 0)
    for reading in _READINGS:
        _check_batches(*_base("0.7", ctx), ctx.mp.prec, _reads(16, reading))


@pytest.mark.parametrize("z", ["inf", "-inf", "nan"])
def test_corpus_evaluators_refuse_a_non_finite_point(ctx30, z):
    for pair in corpus():
        with pytest.raises(DomainError, match="finite z"):
            pair.F(ctx30.mpf(z))


def _ulps_from_midpoint(x, prec):
    """How far exp(x) lies from the nearest rounding midpoint at prec bits, in ulps."""
    m = MPContext()
    m.prec = prec + 80
    e = m.exp(m.make_mpf(x))
    units = m.ldexp(e, prec - int(m.floor(m.log(e, 2))) - 1)  # e in ulps at prec
    return abs(units - m.floor(units) - m.mpf(1) / 2)


@pytest.mark.parametrize("n", [1, 8, 16, 48])
def test_mpf_exp_is_the_only_libmp_call_per_abscissa(monkeypatch, n):
    # step and square wave take exp(-z) from one progression per x on the
    # inverter's path: one mpf_exp for its ratio at prec + 64 bits, and
    # mpf_exp itself only for an abscissa whose exp(-z) lies within
    # 2**-6 ulp of a rounding midpoint
    calls = []
    exp = gsinv.mantissa.mpf_exp
    monkeypatch.setattr(gsinv.mantissa, "mpf_exp", lambda *args: calls.append(args) or exp(*args))
    ctx = context_for_order(n)
    prec = ctx.mp.prec
    for pair in corpus():
        takes_exp = pair.name in ("step", "square-wave")
        calls.clear()
        stehfest_approx(pair.F, "0.7", n, ctx)
        assert [c[1] for c in calls[:1]] == ([prec + 64] if takes_exp else []), pair.name
        for x, wp, _ in calls[1:]:
            assert wp == prec and _ulps_from_midpoint(x, prec) < 2**-6, pair.name
        assert len(calls) <= 1 + n // 8, pair.name
    # the kernels reach libmp only through numerics' and mantissa's steps
    assert not {"mpf_add", "mpf_div", "mpf_exp", "mpf_pow_int", "mpf_rdiv_int", "mpf_sqrt"} & set(
        vars(gsinv.pairs))


@pytest.mark.parametrize("n", [1, 8, 16, 48])
def test_isqrt_runs_once_per_x_on_the_root_progression(monkeypatch, n):
    # the root takes sqrt(pi/z) at the abscissas from one progression per x:
    # one isqrt for its scale, plus the precision's table when it is built.
    # Below the precision of its bound (n = 1) the table is empty and each
    # abscissa takes the exact root
    ctx = context_for_order(n)
    built = len(_root_table(ctx.mp.prec))
    per_abscissa = 0 if built else 1
    calls = []
    isqrt = gsinv.mantissa.isqrt
    monkeypatch.setattr(gsinv.mantissa, "isqrt", lambda a: calls.append(a) or isqrt(a))
    F = get_pair("root").F
    numerics._TABLES.cache_clear()
    for x, table in (("0.7", built), ("3", 0)):
        calls.clear()
        stehfest_approx(F, x, n, ctx)
        assert len(calls) == table + 1 + 2 * n * per_abscissa, x


def test_dini_constant_zero(ctx20):
    est = dini_integral_estimate(get_pair("constant"), 1, 1, ctx20.mpf("0.2"), ctx20)
    assert abs(est.value) <= 10 * ctx20.eps
    assert not est.divergent


def test_dini_exponential_convergent(ctx20):
    m = ctx20.mp
    est = dini_integral_estimate(get_pair("exponential"), 1, m.exp(-1), m.mpf("0.2"), ctx20)
    assert est.value < 1
    assert not est.divergent


def test_dini_step_wrong_target_diverges(ctx20):
    est = dini_integral_estimate(get_pair("step"), 1, 0, ctx20.mpf("0.2"), ctx20)
    # integrand tends to 1/v: the estimate grows like a log decade per
    # shrink of v_min, which sets the divergence flag
    assert est.divergent
    assert est.value > 10


def test_dini_domain(ctx20):
    with pytest.raises(DomainError):
        dini_integral_estimate(get_pair("constant"), 1, 1, ctx20.mpf("0.3"), ctx20)


def test_run_pair_constant():
    rep = run_pair(get_pair("constant"), 1, 6)
    for e in rep.entries:
        assert e.abs_error <= 10 ** -(rep.digits_used - 15)


def test_run_pair_step_midpoint():
    rep = run_pair(get_pair("step"), 1, 18)
    ctx = context_for_order(18)
    e6, e18 = rep.entries[5].abs_error, rep.entries[17].abs_error
    assert e18 < ctx.mpf("0.05")
    assert e18 < e6


def test_run_pair_step_continuity_point():
    rep = run_pair(get_pair("step"), 2, 12)
    errs = [e.abs_error for e in rep.entries]
    assert errs[11] < errs[3]
    assert errs[11] < 0.01


def test_smooth_pairs_monotone_from_4():
    for name in ("ramp", "exponential", "root"):
        rep = run_pair(get_pair(name), 1, 12)
        errs = [e.abs_error for e in rep.entries]
        for e1, e2 in zip(errs[3:], errs[4:]):
            assert e2 < e1, name


def test_square_wave_running():
    rep = run_pair(get_pair("square-wave"), 1, 18)
    errs = [e.abs_error for e in rep.entries]
    assert errs[17] < errs[5]
    rep2 = run_pair(get_pair("square-wave"), Fraction(1, 2), 18)
    assert rep2.entries[17].abs_error < 0.01


def test_localization():
    # originals agreeing near x produce ladders that merge as n grows:
    # add a bump supported on (2, 3) and evaluate at x = 1/2
    ctx = context_for_order(16)
    m = ctx.mp
    base = get_pair("exponential").F
    bumped = TransformFn(
        lambda z: base(z) + (z.context.exp(-2 * z) - z.context.exp(-3 * z)) / z,
        "1/(z+1) + bump(2,3)",
    )
    deltas = {}
    for n in (4, 8, 16):
        a = invert_ladder(base, ctx.mpf(1) / 2, n, ctx=ctx).entries[-1].value
        b = invert_ladder(bumped, ctx.mpf(1) / 2, n, ctx=ctx).entries[-1].value
        deltas[n] = abs(a - b)
    assert deltas[16] < deltas[8] < deltas[4]
    assert deltas[16] < m.mpf("1e-4")


def test_oscillatory_flagged_but_usable():
    pair = get_pair("sine")
    assert pair.oscillatory_flag
    rep = run_pair(pair, 1, 10)
    assert rep.entries[9].abs_error < 1e-3  # entire original: fine at x=1
