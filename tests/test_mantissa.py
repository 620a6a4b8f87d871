"""Each step of gsinv.mantissa against the libmp or libmpc call it names."""
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath.libmp import (fone, from_man_exp, from_rational, ftwo, fzero, mpf_abs, mpf_add,
                          mpf_div, mpf_exp, mpf_log, mpf_mul, mpf_mul_int, mpf_neg, mpf_pi,
                          mpf_pos, mpf_sqrt, round_down, round_nearest)

import gsinv.mantissa as mantissa
from gsinv import PrecisionContext, context_for_order
from gsinv.mantissa import (_abscissas, _ExpProgression, _plus_one, _quotient, _quotient_pos,
                            _RootProgression, _root_table, _round_even, _signed, _sqrt,
                            _unrounded_sum)
from conftest import _factor


def _rounded_sum(x, y, prec, rnd):
    """The raw ``x + y`` of :func:`_unrounded_sum`, rounded at ``rnd``."""
    return mpf_pos(from_man_exp(*_unrounded_sum(*_signed(x), *_signed(y), prec)), prec, rnd)


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
    # the rounding, quotient and root steps give libmp's bits at
    # round-to-nearest, and the unrounded sum rounds to mpf_add's bits
    # there and toward zero (the default of libmpc's mpc_div)
    prec, x, y = case
    assert from_man_exp(*_round_even(*_signed(x), prec)) == mpf_pos(x, prec, round_nearest)
    for rnd in (round_nearest, round_down):
        assert _rounded_sum(x, y, prec, rnd) == mpf_add(x, y, prec, rnd)
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
@pytest.mark.parametrize("rnd", [round_nearest, round_down])
@pytest.mark.parametrize("prec", [53, 200])
def test_unrounded_sum_takes_the_far_operand_shortcut_where_it_decides_a_bit(prec, rnd, sign):
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
        assert _rounded_sum(a, b, prec, rnd) == want


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
