"""Each step of gsinv.mantissa against the libmp or libmpc call it names."""
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath.libmp import (fone, from_man_exp, from_rational, ftwo, fzero, mpc_div, mpc_mul,
                          mpc_sub, mpf_abs, mpf_add, mpf_div, mpf_exp, mpf_log, mpf_mul,
                          mpf_mul_int, mpf_neg, mpf_pi, mpf_pos, mpf_sqrt, round_down,
                          round_nearest)

import gsinv.mantissa as mantissa
from gsinv import PrecisionContext, context_for_order
from gsinv.mantissa import (_abscissas, _add, _cdiv, _cmul, _csub, _ExpProgression, _plus_one,
                            _quotient, _quotient_pos, _raw, _RootProgression, _root_table,
                            _round_down, _round_even, _signed, _sqrt)
from conftest import _factor


_STEPS = ((round_nearest, _round_even), (round_down, _round_down))


@st.composite
def _real_operands(draw):
    """``(prec, x, y)``: each a :func:`_factor` or the exact product of two
    (up to twice as wide), y 0 to 10**5 bits away from x either way, past
    mpf_add's far-operand rule (more than ``prec + 4`` bits) included."""
    prec = draw(st.integers(53, 600))

    def operand(top):
        x = draw(_factor(prec, top))
        return mpf_mul(x, draw(_factor(prec, 0))) if draw(st.booleans()) else x

    gap = st.one_of(
        st.integers(0, 4),
        st.sampled_from([prec + 4, prec + 5, prec + 14, prec + 15, 2 * prec, 2 * prec + 1]),
        st.integers(0, 3 * prec),
        st.integers(0, 10**5),
    )
    return prec, operand(0), operand(draw(gap) * draw(st.sampled_from([1, -1])))


@given(_real_operands())
def test_mantissa_steps_match_libmp(case):
    # the rounding, sum, quotient and root steps give libmp's bits at
    # round-to-nearest, the first two also toward zero (the default of
    # libmpc's mpc_div)
    prec, x, y = case
    for rnd, step in _STEPS:
        assert from_man_exp(*step(*_signed(x), prec)) == mpf_pos(x, prec, rnd)
        assert from_man_exp(*_add(*_signed(x), *_signed(y), prec, step)) == mpf_add(x, y, prec, rnd)
    if y != fzero:
        for d in (y, mpf_neg(y)):
            quotient = _quotient(*_signed(x), *_signed(d), prec)
            assert from_man_exp(*quotient) == mpf_div(x, d, prec, round_nearest)
    man, exp = _signed(mpf_abs(x))
    for low in (0, 3):  # a pair may carry trailing zero bits
        root = _sqrt(man << low, exp - low, prec)
        assert from_man_exp(*root) == mpf_sqrt(mpf_abs(x), prec, round_nearest)


@given(_real_operands())
def test_positive_steps_match_libmp(case):
    # the steps for operands > 0 as the batch kernels take them: x / y, and
    # for operands of at most prec bits x + 1 and the multiples j x
    prec, x, y = case
    x, y = mpf_abs(x), mpf_abs(y)
    if fzero not in (x, y):
        quotient = _quotient_pos(*_signed(x), *_signed(y), prec)
        assert from_man_exp(*quotient) == mpf_div(x, y, prec, round_nearest)
    for v in (x, y):
        v = mpf_pos(v, prec, round_nearest)
        if v == fzero:
            continue
        man, exp = _signed(v)
        for low in (0, 3):  # a pair may carry trailing zero bits
            assert from_man_exp(*_plus_one(man << low, exp - low, prec)) == mpf_add(
                v, fone, prec, round_nearest)
        js = (1, 2, 3, 7, 96, 128, 1000)
        assert [from_man_exp(*z) for z in _abscissas(man, exp, js, prec)] == [
            mpf_mul_int(v, j, prec, round_nearest) for j in js]


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("rnd, step", _STEPS)
@pytest.mark.parametrize("prec", [53, 200])
def test_mantissa_add_takes_the_far_operand_shortcut_where_it_decides_a_bit(prec, rnd, step, sign):
    # x has 2 prec bits: below its kept prec bits lie a bit under a tie
    # (round-to-nearest) or all ones (toward zero).  y is one unit of x's
    # last bit plus a bit 101 lower, so the exact sum rounds up; mpf_add
    # rounds x perturbed by one instead, which rounds down
    below = (1 << (prec - 1)) - 1 if rnd == round_nearest else (1 << prec) - 1
    x = from_man_exp(sign * ((1 << (prec - 1) | 1) << prec | below), 0)
    y = from_man_exp(sign * ((1 << 101) + 1), -101)
    exact = mpf_pos(mpf_add(x, y), prec, rnd)
    for a, b in ((x, y), (y, x)):
        want = mpf_add(a, b, prec, rnd)
        assert want != exact
        assert from_man_exp(*_add(*_signed(a), *_signed(b), prec, step)) == want


def _mul_div_with(x, y, prec, add):
    """``mpc_mul(x, y)`` and ``mpc_div(x, y)`` as libmpc makes them, with
    each sum of two exact products made by ``add(p, q, prec, rnd)``."""
    (a, b), (c, d) = x, y
    wp = prec + 10
    mul = (add(mpf_mul(a, c), mpf_neg(mpf_mul(b, d)), prec, round_nearest),
           add(mpf_mul(a, d), mpf_mul(b, c), prec, round_nearest))
    mag = add(mpf_mul(c, c), mpf_mul(d, d), wp, round_down)
    t = add(mpf_mul(a, c), mpf_mul(b, d), wp, round_down)
    u = add(mpf_mul(b, c), mpf_neg(mpf_mul(a, d)), wp, round_down)
    return mul, (mpf_div(t, mag, prec, round_nearest), mpf_div(u, mag, prec, round_nearest))


_RULE_DROPPED = {  # each rule of libmpc's sums, replaced by another rounding
    "toward-zero": lambda p, q, prec, rnd: mpf_add(p, q, prec, round_nearest),
    "far-gap": lambda p, q, prec, rnd: mpf_pos(mpf_add(p, q), prec, rnd),  # exact, then rounded
}

# (rule, operation, prec, x, y) with x and y pairs of (man, exp) parts:
# mpc_div's sums rounded toward zero at prec + 10, and mpf_add's
# far-operand rule where the product above (a c in mpc_mul, a c + b d in
# mpc_div) or the one below (b d in mpc_mul, b c - a d in mpc_div) is
# more than prec + 4 bits from the other
_DECIDING_CASES = [
    ("toward-zero", "div", 64,
     ((-14278556607192130115, -66),
      (-14717111800213140027, -63)),
     ((10853173116138462906, -64),
      (-14081149105223591541, -63))),
    ("toward-zero", "div", 53,
     ((-7240653509220053, -53),
      (-5681037538489929, -55)),
     ((-6915268357586497, -54),
      (8335656048413087, -55))),
    ("far-gap", "mul", 120,
     ((895440541862978621087500254366983081, -120),
      (-1312905311595290830895515695976770475, -246)),
     ((-1252532969797467909210097858846030804, -120),
      (-1220206907534926443362569628951582472, -119))),
    ("far-gap", "mul", 113,
     ((7095155275253591624574234341775818, -113),
      (8791581139282824209223350452736486, -234)),
     ((-10183378175520284335236183123425324, -113),
      (-9581161855622422870785231897392488, -112))),
    ("far-gap", "mul", 113,
     ((-7484431823930883087739356886922301, -234),
      (8746133589465123639490570471709393, -113)),
     ((-9571771024160936970423669956745625, -113),
      (-10005847784047025717963643993565461, -110))),
    ("far-gap", "mul", 113,
     ((5271671389982855012370802341141415, -232),
      (-7988942736304602219785680907626077, -110)),
     ((-5631949956149624886912741643268954, -113),
      (8072660978491255373999064106165601, -110))),
    ("far-gap", "div", 113,
     ((-8367396833049418452069824350208832, -113),
      (8766677471770240891065918695462429, -245)),
     ((-7315012906957287991399776786107025, -113),
      (-7323753537879323198119404461751781, -115))),
    ("far-gap", "div", 120,
     ((-1245362152744353263324157383245142112, -120),
      (-948154731703867427209787748925845642, -256)),
     ((-763696432024224735656455364066688381, -120),
      (-820313094705625003406559158890426202, -117))),
]


@pytest.mark.parametrize("rule, op, prec, x, y", _DECIDING_CASES)
def test_halley_steps_round_as_libmpc_where_a_rule_decides_a_bit(rule, op, prec, x, y):
    rx, ry = _raw(x), _raw(y)
    mul, div = _mul_div_with(rx, ry, prec, mpf_add)
    assert mul == mpc_mul(rx, ry, prec, round_nearest)
    assert div == mpc_div(rx, ry, prec, round_nearest)
    want, step = (mul, _cmul) if op == "mul" else (div, _cdiv)
    other = _mul_div_with(rx, ry, prec, _RULE_DROPPED[rule])[op == "div"]
    assert other != want  # the rule decides a bit of this operation
    assert _raw(step(x, y, prec)) == want


@st.composite
def _complex_operands(draw):
    """``(prec, x, y)``: pairs of (man, exp) parts, up to 10**5 bits apart."""
    prec = draw(st.integers(53, 600))

    def part(top):
        kind = draw(st.sampled_from(["random", "random", "ones", "one", "zero"]))
        man = {"random": lambda: draw(st.integers(1 << (prec - 1), (1 << prec) - 1)),
               "ones": lambda: (1 << prec) - 1, "one": lambda: 1, "zero": lambda: 0}[kind]()
        return man * draw(st.sampled_from([1, -1])), top - man.bit_length()

    gaps = (prec + 4, prec + 5, prec + 14, prec + 15, 2 * prec + 1)  # around the far rule
    tops = st.one_of(st.integers(-4, 4), st.sampled_from([s * g for g in gaps for s in (1, -1)]),
                     st.integers(-3 * prec, 3 * prec), st.integers(-10**5, 10**5))
    return prec, (part(0), part(draw(tops))), (part(draw(tops)), part(draw(tops)))


@given(_complex_operands())
def test_halley_steps_match_libmpc(case):
    prec, x, y = case
    rx, ry = _raw(x), _raw(y)
    assert _raw(_cmul(x, y, prec)) == mpc_mul(rx, ry, prec, round_nearest)
    assert _raw(_csub(x, y, prec)) == mpc_sub(rx, ry, prec, round_nearest)
    if y[0][0] or y[1][0]:
        assert _raw(_cdiv(x, y, prec)) == mpc_div(rx, ry, prec, round_nearest)


def _base(x, prec):
    """``ln2 / x`` for a raw tuple ``x > 0``, rounded as the abscissa cache rounds it, a pair."""
    _, bman, bexp, _ = mpf_div(mpf_log(ftwo, prec, round_nearest), x, prec, round_nearest)
    return bman, bexp


def _check_progression(bman, bexp, prec, js):
    """The progression of ``base = bman 2**bexp`` read at ``js`` in one call: each
    value is z_j with ``mpf_exp(-z_j, prec)``; returns the progression."""
    exps = _ExpProgression(bman, bexp, prec)
    for j, (z, e) in zip(js, exps(js), strict=True):
        assert z == _round_even(bman * j, bexp, prec)  # z_j as the abscissa cache rounds it
        want = mpf_exp(mpf_neg(from_man_exp(*z)), prec, round_nearest)
        assert from_man_exp(*e) == want, (bman, bexp, prec, j)
    return exps


@st.composite
def _progressions(draw):
    """``(x, n, js)``: x log-uniform in [1e-6, 1e6], an order n and every
    abscissa index j <= 2n in a random order."""
    n = draw(st.integers(1, 64))
    return 10.0 ** draw(st.floats(-6, 6)), n, draw(st.permutations(range(1, 2 * n + 1)))


@given(_progressions())
def test_exp_progression_has_the_bits_of_mpf_exp(case):
    x, n, js = case
    ctx = context_for_order(n)
    prec = ctx.mp.prec
    _check_progression(*_base(ctx.mpf(x)._mpf_, prec), prec, js)


@pytest.mark.parametrize("n", [1, 16, 64])
@pytest.mark.parametrize("x", ["1e-30", "1e30"])
def test_exp_progression_at_far_abscissas(x, n):
    # abscissas near 1e30, where delta_j**2 is negligible only at the
    # higher precisions, and near 1e-30, where exp(-z) is just under 1
    ctx = context_for_order(n)
    prec = ctx.mp.prec
    _check_progression(*_base(ctx.mpf(x)._mpf_, prec), prec, range(2 * n, 0, -1))


@pytest.mark.parametrize("prec", [70, 664])
@pytest.mark.parametrize("base", [(3, 0), (1, -1)])
def test_exp_progression_at_integer_abscissas(base, prec):
    # mpf_exp takes an integer to mpf_pow_int above 600 bits: an integer
    # base makes every abscissa one and needs no ratio, base 1/2 every other
    exps = _check_progression(*base, prec, range(1, 129))
    assert (exps.powers is None) == (base[1] >= 0)


def test_exp_progression_takes_mpf_exp_in_the_band(monkeypatch):
    # x = 153577/37043 at 70 bits: exp(-z_2) lies 2**-19 ulp from a rounding
    # midpoint, and mpf_exp rounds it to the other side than the exact value
    prec = 70
    bman, bexp = _base(from_rational(153577, 37043, prec, round_nearest), prec)
    z = _round_even(2 * bman, bexp, prec)
    minus_z = mpf_neg(from_man_exp(*z))
    want = mpf_exp(minus_z, prec, round_nearest)
    assert want != mpf_pos(mpf_exp(minus_z, prec + 60, round_nearest), prec, round_nearest)
    calls = []
    monkeypatch.setattr(mantissa, "mpf_exp",
                        lambda x, wp, rnd: calls.append((x, wp)) or mpf_exp(x, wp, rnd))
    (_, got), = _ExpProgression(bman, bexp, prec)((2,))
    # the ratio exp(-base), then libmp's own call for the value in the band
    assert calls == [(mpf_neg(from_man_exp(bman, bexp)), prec + 64), (minus_z, prec)]
    assert from_man_exp(*got) == want


def _check_roots(bman, bexp, prec, js):
    """The root progression of ``base = bman 2**bexp`` read at ``js`` in one call: each
    value is the exact kernel's ``_sqrt(*_quotient(pi, z_j))``, as a pair."""
    pi = mpf_pi(prec, round_nearest)[1:3]
    roots = _RootProgression(*pi, bman, bexp, prec, _root_table(prec))
    for j, root in zip(js, roots(js), strict=True):
        z = _round_even(bman * j, bexp, prec)  # z_j as the abscissa cache rounds it
        assert root == _sqrt(*_quotient(*pi, *z, prec), prec), (bman, bexp, prec, j)


@given(_progressions(), st.integers(15, 300))
def test_root_progression_has_the_bits_of_the_exact_root(case, digits):
    x, _, js = case
    ctx = PrecisionContext(digits)
    prec = ctx.mp.prec
    _check_roots(*_base(ctx.mpf(x)._mpf_, prec), prec, js)


@pytest.mark.parametrize("n", [1, 16, 64])
@pytest.mark.parametrize("x", ["1e-30", "1e30"])
def test_root_progression_at_far_abscissas(x, n):
    # n = 1 runs at 70 bits, below the precision of the bound: an empty table
    ctx = context_for_order(n)
    prec = ctx.mp.prec
    assert (_root_table(prec) == ()) == (n == 1)
    _check_roots(*_base(ctx.mpf(x)._mpf_, prec), prec, range(2 * n, 0, -1))


def test_root_progression_past_its_table():
    prec = context_for_order(64).mp.prec
    assert len(_root_table(prec)) == 128
    _check_roots(*_base(from_rational(7, 10, prec, round_nearest), prec), prec, range(129, 161))


def test_root_progression_takes_the_exact_root_in_the_band(monkeypatch):
    # a band of a whole ulp holds every value: each is _sqrt's, none the Newton step's
    prec = context_for_order(16).mp.prec
    calls = []
    monkeypatch.setattr(mantissa, "_ROOT_BAND", 0)
    monkeypatch.setattr(mantissa, "_sqrt", lambda *q: calls.append(q) or _sqrt(*q))
    _check_roots(*_base(from_rational(153577, 37043, prec, round_nearest), prec), prec,
                 range(1, 33))
    assert len(calls) == 32
