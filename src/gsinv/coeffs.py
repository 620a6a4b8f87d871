"""Exact-rational Gaver-Stehfest coefficients and weights.

All coefficient arithmetic is exact (big-integer rationals); conversion
to floating point happens only at evaluation time.  The alternating signs
make floating coefficient generation the dominant error source, so no
floating shortcut is offered.
"""
from __future__ import annotations

import numbers
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from typing import NamedTuple

from .errors import DomainError

MAX_ORDER = 64  # approximant orders; beyond 64 the exact integers grow without benefit
QN_MAX_ORDER = 200  # q_n orders, which the verification layer probes up to 200


class StehfestWeights(NamedTuple):
    """Acceleration weights c_k(n), k = 1..n, exact rationals."""

    n: int
    c: tuple[Fraction, ...]


class GaverStehfestCoeffs(NamedTuple):
    """Collapsed summation coefficients a_k(n), k = 1..2n, exact rationals."""

    n: int
    a: tuple[Fraction, ...]


def check_order(n, cap: int = MAX_ORDER):
    """The one order check of the package: ``n`` must be an integer in ``[1, cap]``."""
    if not (isinstance(n, numbers.Integral) and 1 <= n <= cap):
        raise DomainError(f"order must be an integer in [1, {cap}], got {n!r}")


def check_count(N):
    """The one series-length check of the package: ``N`` must be an integer >= 0."""
    if not (isinstance(N, numbers.Integral) and N >= 0):
        raise DomainError(f"series length must be an integer >= 0, got {N!r}")


# typed: 5.0 or True reaches the order check, not the table cached for 5 or 1
@lru_cache(maxsize=None, typed=True)
def stehfest_weights(n: int) -> StehfestWeights:
    """Weights c_k(n) = (-1)^(n+k) k^n / (k! (n-k)!).

    They satisfy the Vandermonde conditions: sum_k c_k k^-j equals 1 for
    j = 0 and 0 for j = 1..n-1, exactly in rational arithmetic.
    """
    check_order(n)
    c = tuple(
        (-1) ** (n + k) * Fraction(k**n, factorial(k) * factorial(n - k))
        for k in range(1, n + 1)
    )
    return StehfestWeights(n, c)


def vandermonde_check(w: StehfestWeights) -> bool:
    """True iff sum_k c_k k^-j = delta_{j,0} exactly for j = 0..n-1.

    The test runs on integers: with c_k = N_k / D over one denominator D
    and L = lcm(1..len(c)), the condition for j reads sum_k N_k (L/k)^j
    = D delta_{j,0}, and each term is the one for j - 1 times L/k.
    """
    if not isinstance(w, StehfestWeights):
        raise DomainError(f"vandermonde_check needs StehfestWeights, got {w!r}")
    c = [Fraction(ck) for ck in w.c]
    d = lcm(*(ck.denominator for ck in c))
    terms = [ck.numerator * (d // ck.denominator) for ck in c]  # N_k, for j = 0
    span = lcm(*range(1, len(c) + 1))
    steps = [span // k for k in range(1, len(c) + 1)]  # L/k
    for j in range(w.n):
        if sum(terms) != (d if j == 0 else 0):
            return False
        terms = [t * s for t, s in zip(terms, steps)]
    return True


@lru_cache(maxsize=None, typed=True)
def gaver_stehfest_coeffs(n: int) -> GaverStehfestCoeffs:
    """Coefficients a_k(n), k = 1..2n, from the closed double sum.

    a_k(n) = (-1)^(n+k)/n! * sum_{j=floor((k+1)/2)}^{min(k,n)}
             j^(n+1) C(n,j) C(2j,j) C(j,k-j)

    One pass over the binomial rows j = 1..n adds j^(n+1) C(n,j) C(2j,j)
    C(j,i) to the sum of k = j+i, which takes every (k, j) term once; the
    cross-check against :func:`coeffs_from_weights` is in the test suite.
    """
    check_order(n)
    s = [0] * (2 * n + 1)  # s[k], k = 1..2n
    for j in range(1, n + 1):
        f = j ** (n + 1) * comb(n, j) * comb(2 * j, j)
        for i in range(j + 1):
            s[j + i] += f * comb(j, i)
    nfact = factorial(n)
    return GaverStehfestCoeffs(
        n, tuple(Fraction(-s[k] if (n + k) % 2 else s[k], nfact) for k in range(1, 2 * n + 1)))


def coeffs_from_weights(n: int) -> GaverStehfestCoeffs:
    """Alternative construction: expand the accelerated combination.

    Collapses sum_k c_k(n) * [row-k finite difference] into coefficients of
    F(m ln2 / x), m = 1..2n.  Must reproduce :func:`gaver_stehfest_coeffs`
    exactly; kept separate as the independent route for that identity.
    """
    w = stehfest_weights(n)
    a = [Fraction(0)] * (2 * n)
    for k in range(1, n + 1):
        row = Fraction(factorial(2 * k), factorial(k) * factorial(k - 1))
        for i in range(k + 1):
            m = k + i
            a[m - 1] += w.c[k - 1] * row * comb(k, i) * (-1) ** i
    return GaverStehfestCoeffs(n, tuple(a))
