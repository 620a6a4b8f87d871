"""Truncated power series over exact rationals.

Series are plain lists of ``Fraction``; index = power.  Only the few
operations the verification layer needs live here.
"""
from __future__ import annotations

from fractions import Fraction


def mul_trunc(a, b, order):
    """Product of two series truncated at ``order`` (inclusive)."""
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a):
        if i > order or ai == 0:
            continue
        for j, bj in enumerate(b):
            if i + j > order:
                break
            out[i + j] += ai * bj
    return out


def compose_outer(coeff_of, inner, order):
    """Series of ``sum_{n>=1} coeff_of(n) * inner(t)**n`` truncated at ``order``.

    ``inner`` must have zero constant term, otherwise the composition is
    not a formal power series operation.
    """
    if inner and inner[0] != 0:
        raise ValueError("inner series must have zero constant term")
    out = [Fraction(0)] * (order + 1)
    power = list(inner[: order + 1]) + [Fraction(0)] * max(0, order + 1 - len(inner))
    for n in range(1, order + 1):
        c = coeff_of(n)
        if c != 0:
            for i in range(n, order + 1):
                out[i] += c * power[i]
        if n < order:
            power = mul_trunc(power, inner, order)
    return out
