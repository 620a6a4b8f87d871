from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gsinv import (
    DomainError,
    GaverStehfestCoeffs,
    StehfestWeights,
    coeffs_from_weights,
    gaver_stehfest_coeffs,
    stehfest_weights,
    vandermonde_check,
)
from gsinv.coeffs import MAX_ORDER


def test_weights_small_orders():
    assert stehfest_weights(1).c == (Fraction(1),)
    assert stehfest_weights(2).c == (Fraction(-1), Fraction(2))
    assert stehfest_weights(3).c == (Fraction(1, 2), Fraction(-4), Fraction(9, 2))


def test_weight_signs_alternate():
    for n in range(1, 21):
        for k, ck in enumerate(stehfest_weights(n).c, start=1):
            assert (ck > 0) == ((-1) ** (n + k) > 0)


def test_vandermonde_holds_through_20():
    for n in range(1, 21):
        assert vandermonde_check(stehfest_weights(n))


def test_vandermonde_detects_perturbation():
    bad = StehfestWeights(2, (Fraction(-1), Fraction(2) + Fraction(1, 7)))
    assert not vandermonde_check(bad)


def _rational_vandermonde(w):
    # the check as it reads: the exact sums of c_k k^-j in Fractions
    return all(sum(ck * Fraction(1, k**j) for k, ck in enumerate(w.c, start=1)) == (j == 0)
               for j in range(w.n))


@given(st.integers(1, 15), st.integers(0, 14), st.fractions(max_denominator=10**6),
       st.sampled_from(["weights", "perturbed", "random", "ints"]))
def test_vandermonde_check_gives_the_boolean_of_the_rational_sums(n, k, delta, kind):
    c = list(stehfest_weights(n).c)
    if kind == "perturbed":
        c[k % n] += delta
    elif kind == "random":
        c = [Fraction(k + i, 1 + (i * delta.denominator) % 97) * (-1) ** i for i in range(n)]
    elif kind == "ints":  # any Rational: the order 1 weights as an int
        c = [int(x) if x.denominator == 1 else x for x in c]
    w = StehfestWeights(n, tuple(c))
    assert vandermonde_check(w) == _rational_vandermonde(w)


def test_coeffs_small_orders():
    assert gaver_stehfest_coeffs(1).a == (Fraction(2), Fraction(-2))
    assert gaver_stehfest_coeffs(2).a == (
        Fraction(-2),
        Fraction(26),
        Fraction(-48),
        Fraction(24),
    )


def test_constant_sum_exact():
    # forced by exactness on constant originals
    for n in range(1, 21):
        a = gaver_stehfest_coeffs(n).a
        assert sum(ak / Fraction(k) for k, ak in enumerate(a, start=1)) == 1


def test_cross_construction_identity():
    for n in range(1, MAX_ORDER + 1):
        assert coeffs_from_weights(n) == gaver_stehfest_coeffs(n)


def test_records_are_immutable_values():
    a2, c2 = gaver_stehfest_coeffs(2), stehfest_weights(2)
    for record, field in ((a2, "n"), (a2, "a"), (c2, "n"), (c2, "c")):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    twin = GaverStehfestCoeffs(2, a2.a)
    assert twin == a2 and hash(twin) == hash(a2)
    assert StehfestWeights(2, c2.c) == c2 and hash(StehfestWeights(2, c2.c)) == hash(c2)
    assert GaverStehfestCoeffs(2, a2.a[:3] + (Fraction(25),)) != a2
    assert repr(a2) == ("GaverStehfestCoeffs(n=2, a=(Fraction(-2, 1), Fraction(26, 1), "
                        "Fraction(-48, 1), Fraction(24, 1)))")
    assert repr(c2) == "StehfestWeights(n=2, c=(Fraction(-1, 1), Fraction(2, 1)))"
    with pytest.raises(DomainError, match="needs StehfestWeights"):
        vandermonde_check((2, c2.c))


def test_order_bounds():
    with pytest.raises(DomainError):
        stehfest_weights(0)
    with pytest.raises(DomainError):
        gaver_stehfest_coeffs(65)

