"""Truncated power series over exact rationals: ``mul_trunc`` and
``compose_outer``, the two operations the generating-function identity of
q_n is built from, and H's Laurent coefficients built with them.  Every check
is an exact equality of ``Fraction`` lists."""
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gsinv.lambertw import branch_series
from gsinv.series import compose_outer, mul_trunc

F = Fraction


def _exp(c, order):
    # exp(c t)
    return [F(c) ** k / factorial(k) for k in range(order + 1)]


def _binomial(a, order):
    # (1 + t)^a
    out = [F(1)]
    for k in range(1, order + 1):
        out.append(out[-1] * (a - k + 1) / k)
    return out


def _poly_mul(a, b):
    # the full product, no truncation
    out = [F(0)] * max(0, len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _truncated(a, order):
    return list(a[: order + 1]) + [F(0)] * max(0, order + 1 - len(a))


@pytest.mark.parametrize("c1, c2, order", [(1, -1, 0), (1, -1, 12), (F(1, 2), F(1, 3), 8),
                                           (-2, 5, 10)])
def test_mul_trunc_exp_times_exp_is_exp_of_the_sum(c1, c2, order):
    assert mul_trunc(_exp(c1, order), _exp(c2, order), order) == _exp(F(c1) + c2, order)


@pytest.mark.parametrize("a, b", [(F(1, 2), F(1, 2)), (F(-1), F(3)), (F(1, 3), F(-4, 3)),
                                  (F(5, 2), F(-1, 2)), (F(-1, 2), F(-1, 2))])
def test_mul_trunc_binomial_exponents_add(a, b):
    assert mul_trunc(_binomial(a, 10), _binomial(b, 10), 10) == _binomial(a + b, 10)


@pytest.mark.parametrize("a, b, order, expected", [
    ([1, 1], [1, 1], 1, [1, 2]),  # the t^2 term is past the order
    ([1, 1], [1, 1], 4, [1, 2, 1, 0, 0]),  # padded with zeros up to the order
    ([1, 2, 3], [4, 5, 6], 0, [4]),
    ([0, 0, 1], [1, 1, 1], 3, [0, 0, 1, 1]),  # leading zeros of a shift the product
    ([], [1, 2], 2, [0, 0, 0]),
])
def test_mul_trunc_truncates_and_pads(a, b, order, expected):
    out = mul_trunc([F(x) for x in a], [F(x) for x in b], order)
    assert out == expected
    assert all(isinstance(x, Fraction) for x in out)


_series = st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=12), max_size=8)


@given(_series, _series, st.integers(0, 10))
def test_mul_trunc_is_the_truncated_cauchy_product(a, b, order):
    out = mul_trunc(a, b, order)
    assert out == _truncated(_poly_mul(a, b), order)
    assert mul_trunc(b, a, order) == out


def _log1p(order):
    # log(1 + t)
    return [F(0)] + [F((-1) ** (k + 1), k) for k in range(1, order + 1)]


def _tree(order):
    # the tree function T = t e^T, T = -W(-t)
    return [F(0)] + [F(k ** (k - 1), factorial(k)) for k in range(1, order + 1)]


def _t(order):
    return [F(0), F(1)] + [F(0)] * (order - 1)


# (coefficient of u^n, inner series u(t), the composition) through t^10
COMPOSITIONS = {
    "log(1+u) at u = e^t - 1 is t": (
        lambda n: F((-1) ** (n + 1), n), lambda N: [F(0)] + _exp(1, N)[1:], _t),
    "e^u - 1 at u = log(1+t) is t": (lambda n: F(1, factorial(n)), _log1p, _t),
    "u/(1-u) at u = t/(1+t) is t": (
        lambda n: F(1), lambda N: [F(0)] + [F((-1) ** (k + 1)) for k in range(1, N + 1)], _t),
    "e^T - 1 is T/t - 1 for the tree function T": (
        lambda n: F(1, factorial(n)), _tree, lambda N: [F(0)] + _tree(N + 1)[2:]),
    "(1+u)^a - 1 at u = (1+t)^b - 1 is (1+t)^(ab) - 1": (
        lambda n: _binomial(F(1, 2), n)[n], lambda N: [F(0)] + _binomial(F(-3), N)[1:],
        lambda N: [F(0)] + _binomial(F(-3, 2), N)[1:]),
}


@pytest.mark.parametrize("name", COMPOSITIONS)
def test_compose_outer_reproduces_composition_identities(name):
    coeff_of, inner, expected = COMPOSITIONS[name]
    assert compose_outer(coeff_of, inner(10), 10) == expected(10)


@pytest.mark.parametrize("order", [0, 1, 6])
def test_compose_outer_with_inner_t_lists_the_coefficients(order):
    # inner = t, shorter than the order: the n-th output coefficient is coeff_of(n)
    out = compose_outer(lambda n: F(n * n, n + 1), [F(0), F(1)], order)
    assert out == [F(0)] + [F(n * n, n + 1) for n in range(1, order + 1)]


@pytest.mark.parametrize("inner", [[F(1)], [F(-1, 2), F(1), F(1)]])
def test_compose_outer_rejects_a_constant_term(inner):
    with pytest.raises(ValueError, match="inner series must have zero constant term"):
        compose_outer(lambda n: F(1), inner, 4)


@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6), min_size=1,
                max_size=7),
       _series, st.integers(0, 7))
def test_compose_outer_is_the_sum_of_the_truncated_powers(coeffs, tail, order):
    # sum_{n>=1} c_n u^n with every power taken in full, then truncated
    inner = [F(0)] + tail
    expected, power = [F(0)], [F(1)]
    for n in range(1, order + 1):
        power = _poly_mul(power, inner)
        c = coeffs[n - 1] if n <= len(coeffs) else F(0)
        term = [c * x for x in power]
        expected = [x + y for x, y in zip(_truncated(expected, len(term) - 1), term)]
    got = compose_outer(lambda n: coeffs[n - 1] if n <= len(coeffs) else F(0), inner, order)
    assert got == _truncated(expected, order)


def test_h_laurent_coefficients_are_exact():
    # H = p^-3 (1 - p S) S^-3 with S = (1 + W)/p, W = sum mu_n p^n the branch
    # series (mu_0 = -1, mu_1 = 1), and 1/S = 1 + sum (-1)^n (S - 1)^n: the
    # Laurent coefficients of H from p^-3 on, as exact rationals
    order = 4
    s = list(branch_series(order + 1)[1:])  # S: mu_0 cancels the 1
    inverse = [F(1)] + compose_outer(lambda n: F((-1) ** n), [F(0)] + s[1:], order)[1:]
    cube = mul_trunc(inverse, mul_trunc(inverse, inverse, order), order)
    h = mul_trunc([F(1)] + [-c for c in s[:order]], cube, order)  # (1 - p S) S^-3
    assert h == [F(1), F(0), F(-11, 24), F(-4, 135), F(-1, 1152)]
