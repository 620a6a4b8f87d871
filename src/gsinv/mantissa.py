"""Correctly rounded steps on signed integer mantissas.

A real value is a pair ``(man, exp)`` for ``man * 2**exp``: zero when
``man`` is 0, with any number of trailing zero bits.  A complex value is
a pair of such pairs.  Each step gives the value of the libmp or libmpc
call it names, at round-to-nearest unless it says otherwise: libmp
rounds the exact result of each call correctly, and so does the step,
so a chain of steps has the bits of the chain of calls without building
a tuple per call.  :func:`_signed` turns a raw ``_mpf_`` or ``_mpc_``
tuple into a pair, and :func:`_raw` turns a complex pair back.  The
steps for positive operands (:func:`_round_pos`, :func:`_quotient_pos`,
:func:`_plus_one` and :func:`_abscissas`) have no sign branches: the
batches of the corpus transforms in :mod:`gsinv.pairs` run on them, and
the signed rounding and quotient, which ``qn_eval`` takes, call them on
the magnitudes.  Lambert W's Halley step rounds in line instead, with a
copy of the rounding idiom per operation, and takes only ``mpf_add``'s
far-operand rule from here (:func:`_unrounded_sum`).

One step is no correctly rounded operation: ``mpf_exp`` rounds a
``prec + 14``-bit approximation of the exponential, whose error,
measured over 12,000 samples at prec 206-664, is at most 17.4 ulp at
``prec + 14``, about 2**-9.8 ulp at ``prec``.  Its result is the
correctly rounded value wherever that value lies farther than this
error from a rounding midpoint.  :class:`_ExpProgression` rounds its
own approximation only where it lies more than 2**-6 ulp from one, an
eightfold margin, and calls ``mpf_exp`` everywhere else.
:class:`_RootProgression` does the same for ``sqrt(pi/z)`` with a band
it proves from exact steps alone; both round through :func:`_round_clear`.
"""
from __future__ import annotations

from math import isqrt

from mpmath.libmp import from_man_exp, mpf_exp, round_nearest


def _signed(x):
    """The pair of the raw ``_mpf_`` tuple ``x``, or the pair of pairs of a raw ``_mpc_``."""
    if len(x) == 2:
        return _signed(x[0]), _signed(x[1])
    return -x[1] if x[0] else x[1], x[2]


def _raw(v):
    """The raw ``_mpc_`` tuple of the pair of pairs ``v``: the inverse of :func:`_signed`."""
    return from_man_exp(*v[0]), from_man_exp(*v[1])


def _round_even(man, exp, prec):
    """``man 2**exp`` rounded to ``prec`` bits half to even, as ``normalize1`` at round_nearest."""
    if man < 0:
        man, exp = _round_pos(-man, exp, prec)
        return -man, exp
    return _round_pos(man, exp, prec)


def _round_pos(a, exp, prec):
    """:func:`_round_even` of ``a 2**exp`` for ``a >= 0``, without the sign branches."""
    n = a.bit_length() - prec
    if n <= 0:
        return a, exp
    t = a >> (n - 1)
    return (t >> 1) + 1 if t & 1 and ((t & 2) or a & ((1 << (n - 1)) - 1)) else t >> 1, exp + n


def _quotient(nman, nexp, dman, dexp, prec):
    """``(nman 2**nexp) / (dman 2**dexp)`` for ``dman != 0``, as ``mpf_div``: the
    :func:`_quotient_pos` of the magnitudes, with the quotient's sign."""
    if not nman:
        return 0, 0
    if dman < 0:
        nman, dman = -nman, -dman
    if nman < 0:
        man, exp = _quotient_pos(-nman, nexp, dman, dexp, prec)
        return -man, exp
    return _quotient_pos(nman, nexp, dman, dexp, prec)


def _quotient_pos(nman, nexp, dman, dexp, prec):
    """:func:`_quotient` for ``nman, dman > 0``, without the sign branches.

    The integer quotient keeps at least ``prec + 2`` bits and a sticky
    bit for the remainder before :func:`_round_pos`.
    """
    k = prec + 2 + dman.bit_length() - nman.bit_length()
    q, r = divmod(nman << k, dman) if k >= 0 else divmod(nman, dman << -k)
    q = q << 1 | (r != 0)
    n = q.bit_length() - prec  # 3 or 4: _round_pos, inlined, as every kernel ends here
    t = q >> (n - 1)
    q = (t >> 1) + 1 if t & 1 and ((t & 2) or q & ((1 << (n - 1)) - 1)) else t >> 1
    return q, nexp - dexp - k - 1 + n


def _sqrt(man, exp, prec):
    """The square root of ``man 2**exp`` for ``man >= 0``, as ``mpf_sqrt``.

    Like ``mpf_sqrt``, it rounds the exact floor root of the shifted
    mantissa, of at least ``prec + 2`` bits, with a sticky bit for a
    nonzero remainder.
    """
    if exp & 1:
        man <<= 1
        exp -= 1
    shift = max(4, 2 * prec - man.bit_length() + 4)
    shift += shift & 1
    man <<= shift
    root = isqrt(man)
    if root * root != man:
        root = root << 1 | 1
        shift += 2
    return _round_pos(root, (exp - shift) // 2, prec)


def _unrounded_sum(xman, xexp, yman, yexp, prec):
    """The ``(man, exp)`` whose rounding at ``prec`` ``mpf_add(x, y, prec)`` returns: the
    exact sum, except for far operands.

    When x lies more than ``prec + 4`` bits above y and its lowest set
    bit more than 100 above y's, ``mpf_add`` rounds ``x 2**(prec + 4)``
    perturbed by one toward y's sign instead.  That differs from the
    exact sum's rounding only when x has more than ``prec`` bits (an
    exact product), and it shifts nothing across the gap.
    """
    if not xman:
        return yman, yexp
    if not yman:
        return xman, xexp
    gap = xexp + xman.bit_length() - yexp - yman.bit_length()
    if gap > prec + 4 and _low(xman, xexp) - _low(yman, yexp) > 100:
        return (xman << prec + 4) + (1 if yman > 0 else -1), xexp - prec - 4
    if gap < -prec - 4 and _low(yman, yexp) - _low(xman, xexp) > 100:
        return (yman << prec + 4) + (1 if xman > 0 else -1), yexp - prec - 4
    if xexp >= yexp:
        return (xman << xexp - yexp) + yman, yexp
    return xman + (yman << yexp - xexp), xexp


def _plus_one(man, exp, prec):
    """``x + 1`` as ``mpf_add(x, 1, prec)`` for ``x = man 2**exp > 0`` of at most ``prec`` bits.

    For such an x, ``mpf_add``'s far-operand rule (see :func:`_unrounded_sum`)
    gives the rounding of the exact sum, so the step rounds the exact sum
    with :func:`_round_pos`; where one operand lies under half an ulp of
    the other, the sum is the other, and nothing is shifted.
    """
    top = exp + man.bit_length()  # 2**(top - 1) <= x < 2**top
    if top > prec + 1:  # 1 is under half an ulp of x
        return man, exp
    if top <= -prec:  # x is under half an ulp of 1
        return 1, 0
    if exp >= 0:
        return _round_pos((man << exp) + 1, 0, prec)
    return _round_pos(man + (1 << -exp), exp, prec)


def _abscissas(bman, bexp, js, prec):
    """``j * base`` for ``base = bman 2**bexp > 0`` and each ``j >= 1`` of ``js``, rounded
    as ``mpf_mul_int`` rounds it: a list of the pairs of :func:`_round_pos`."""
    out = []
    for j in js:  # _round_pos, inlined: the call would cost about a tenth of a kernel
        p = bman * j
        n = p.bit_length() - prec
        if n > 0:
            t = p >> (n - 1)
            p = (t >> 1) + 1 if t & 1 and ((t & 2) or p & ((1 << (n - 1)) - 1)) else t >> 1
            out.append((p, bexp + n))
        else:
            out.append((p, bexp))
    return out


def _low(man, exp):
    """The exponent of the lowest set bit of nonzero ``man 2**exp``: the libmp tuple's exponent."""
    return exp + (man & -man).bit_length() - 1


def _nearest_sum(coeffs, values, prec):
    """``acc = mpf_add(acc, mpf_mul(c, v))`` from ``acc = 0`` at ``prec`` bits; the raw sum.

    ``coeffs`` are finite raw tuples and ``values`` finite pairs.  Each
    product is formed exactly and rounded as :func:`_round_even` rounds,
    then added exactly to the accumulator, which is rounded the same way
    (``mpf_add``'s far-operand shortcut gives the same value here); only
    the final tuple is put in canonical form.  An operand more than
    ``2 prec + 2`` bits of exponent below the other is under a quarter
    ulp of it: the sum is the larger operand, and nothing is shifted.
    """
    acc = aexp = 0
    far = 2 * prec + 2
    for (cs, cm, ce, _), (man, exp) in zip(coeffs, values):
        if man < 0:
            man = -man
            cs ^= 1
        man *= cm
        if not man:
            continue
        exp += ce
        n = man.bit_length() - prec
        if n > 0:  # _round_even, inlined here and below: the calls would cost ~30% per term
            t = man >> (n - 1)
            man = (t >> 1) + 1 if t & 1 and ((t & 2) or man & ((1 << (n - 1)) - 1)) else t >> 1
            exp += n
        if cs:
            man = -man
        if not acc:
            acc, aexp = man, exp
            continue
        gap = aexp - exp
        if gap > far:  # the product is under a quarter ulp of acc
            continue
        if gap < -far:  # acc is under a quarter ulp of the product
            acc, aexp = man, exp
            continue
        if gap >= 0:
            s = (acc << gap) + man
        else:
            s = acc + (man << -gap)
            exp = aexp
        neg = s < 0
        if neg:
            s = -s
        n = s.bit_length() - prec
        if n > 0:
            t = s >> (n - 1)
            s = (t >> 1) + 1 if t & 1 and ((t & 2) or s & ((1 << (n - 1)) - 1)) else t >> 1
            exp += n
        acc, aexp = -s if neg else s, exp
    return from_man_exp(acc, aexp)


def _round_clear(man, exp, prec, band):
    """``man 2**exp`` for ``man > 0`` of more than ``prec`` bits, rounded to nearest at
    ``prec`` bits where the bits it drops lie more than 2**-band ulp at ``prec`` from a
    rounding midpoint, as :func:`_round_even` rounds it; None within that band.

    A progression passes the band its error bound allows: outside it, an
    exact value within the bound of ``man 2**exp`` rounds to the same bits.
    """
    n = man.bit_length() - prec
    low, half = man & (1 << n) - 1, 1 << n - 1
    if abs(low - half) << band > 1 << n:  # no tie, so no rule to break one
        return (man >> n) + (low > half), exp + n
    return None


_EXP_GUARD = 64  # bits the powers of the progression carry beyond prec
_EXP_BAND = 6  # the progression rounds only more than 2**-_EXP_BAND ulp from a midpoint


class _ExpProgression:
    """exp(-z_j) for the abscissas ``z_j = j * base`` rounded to ``prec`` bits, as
    ``mpf_exp(-z_j, prec)`` gives it, for ``base = bman 2**bexp > 0`` and any ``j >= 1``.

    The abscissas are an arithmetic progression, so their exponentials are
    nearly the geometric one ``P_j = Q**j``, ``Q = exp(-base)``.  ``Q`` is
    one ``mpf_exp`` at ``wp = prec + _EXP_GUARD`` bits, taken on first
    use; the powers are kept truncated to ``wp`` bits and extended on
    demand, so ``j`` may come in any order.  The rounding of the abscissa
    leaves the exact ``delta_j = j base - z_j``, and ``exp(-z_j) =
    P_j exp(delta_j)`` is taken as ``P_j (1 + delta_j)``.  For ``j <= 128``
    the result is within about 2**-55 ulp of exp(-z_j) at ``prec``; it is
    rounded half to even when it lies more than 2**-_EXP_BAND ulp from a
    rounding midpoint, where ``mpf_exp`` rounds to the same bits (see the
    module docstring).  Near a power of two the two roundings agree as
    well, since both values lie far under half an ulp from it.
    ``mpf_exp`` gives every other value: within the band, where
    ``delta_j**2`` is not negligible at ``wp`` (huge abscissas), and at an
    integer z_j, which ``mpf_exp`` takes to ``mpf_pow_int`` above 600 bits.
    """

    __slots__ = ("bman", "bexp", "prec", "powers")

    def __init__(self, bman, bexp, prec):
        self.bman, self.bexp, self.prec = bman, bexp, prec
        self.powers = None  # [P_0, P_1, ...] as wp-bit (man, exp) pairs, from the first use

    def __call__(self, js):
        """``(z_j, exp(-z_j))`` for each ``j`` of ``js``, a pair of pairs, z_j from
        :func:`_abscissas`."""
        bman, bexp, prec = self.bman, self.bexp, self.prec
        wp = prec + _EXP_GUARD
        powers, out = None, []
        for j, (zman, zexp) in zip(js, _abscissas(bman, bexp, js, prec)):
            if _low(zman, zexp) < 0:  # z_j is no integer; nor is base, so bexp < 0
                d = j * bman - (zman << zexp - bexp)  # delta_j = d 2**bexp, exactly
                if not d or 2 * (d.bit_length() + bexp) < -wp:  # delta_j**2 / 2 is under 2**-wp
                    if powers is None:
                        powers = self._powers(max(js), wp)
                    pman, pexp = powers[j]
                    man = pman + (pman * d >> -bexp)
                    rounded = _round_clear(man, pexp, prec, _EXP_BAND)
                    if rounded:
                        out.append(((zman, zexp), rounded))
                        continue
            _, eman, eexp, _ = mpf_exp(from_man_exp(-zman, zexp), prec, round_nearest)
            out.append(((zman, zexp), (eman, eexp)))
        return out

    def _powers(self, top, wp):
        """``[P_0, .., P_top]`` at least, ``wp``-bit pairs, each power truncated from the last."""
        powers = self.powers
        if powers is None:
            _, qman, qexp, _ = mpf_exp(from_man_exp(-self.bman, self.bexp), wp, round_nearest)
            n = qman.bit_length() - wp
            powers = self.powers = [(1 << wp - 1, 1 - wp), (qman << -n, qexp + n)]
        qman, qexp = powers[1]
        while len(powers) <= top:
            man, exp = powers[-1]
            man *= qman
            n = man.bit_length() - wp
            powers.append((man >> n, exp + qexp + n))
        return powers


_ROOT_GUARD = 64  # W = prec + _ROOT_GUARD: the bits of A and of the table's 2**W / sqrt(j)
_ROOT_TERMS = 128  # the table covers j = 1..128, every abscissa of an order up to 64
_ROOT_MIN_PREC = 73  # the least precision at which the root progression's bound holds
_ROOT_BAND = 59  # its proven error, under one unit of s, is under 2**-59 ulp


def _root_table(prec):
    """``floor(2**W / sqrt(j))`` for ``j = 1.._ROOT_TERMS``, ``W = prec + _ROOT_GUARD``: the
    factors of :class:`_RootProgression` at ``prec``, and empty below ``_ROOT_MIN_PREC``."""
    if prec < _ROOT_MIN_PREC:
        return ()
    top = 1 << 2 * (prec + _ROOT_GUARD)
    return tuple(isqrt(top // j) for j in range(1, _ROOT_TERMS + 1))


class _RootProgression:
    """sqrt(pi/z_j) for the abscissas ``z_j = j * base`` rounded to ``prec`` bits, as
    ``_sqrt(*_quotient(*pi, *z_j, prec), prec)`` gives it, for ``pi = pman 2**pexp`` and
    ``base = bman 2**bexp``, both positive, ``table = _root_table(prec)`` and any ``j >= 1``.

    Per x it takes ``A = floor(2**F sqrt(pi/base))`` with one division and
    one ``isqrt``, for the F that gives A ``W - 1`` or ``W`` bits, ``W =
    prec + _ROOT_GUARD``.  Per abscissa it keeps the exact quotient ``q =
    _quotient(pi, z_j)`` and, for ``j`` in the table, forms ``Y = A R_j >>
    W`` with ``R_j = table[j - 1]`` and takes one Newton step ``s = Y +
    (q 2**2F - Y**2) // 2Y`` towards ``T = 2**F sqrt(q)``, whose rounding
    to ``prec`` bits is the one wanted (a square root of a ``prec``-bit
    value never lies on a midpoint).  The bound, with ``u = 2**-prec``:

    - A and R_j are floors of ``a = 2**F sqrt(pi/base) < 2**W`` and
      ``r = 2**W / sqrt(j) <= 2**W``, so for ``X = a r 2**-W = 2**F
      sqrt(pi/(j base))``, ``X - A R_j 2**-W = (a - A) R_j 2**-W + (r -
      R_j) a 2**-W`` lies in [0, 2), and ``0 <= X - Y < 3``.
    - z_j and q are correctly rounded: ``z_j = j base (1 + e1)`` and ``q =
      (pi/z_j)(1 + e2)`` with ``|e1|, |e2| <= u``, so ``T / X = sqrt((1 +
      e2)/(1 + e1))`` lies in ``[1 - u, 1 + 2u]``, and ``|X - T| <= 2uX <
      2**(W - prec + 1) = 2**65``.  With the above, ``|Y - T| < 2**66``.
    - ``a >= 2**(W - 1.5)`` and ``j <= 128`` give ``X >= 2**(W - 5)``, so
      ``2Y > 2**(W - 5)``; q 2**2F is an integer, since ``T**2 >=
      2**(2W - 11)`` and q has at most ``prec + 1`` bits.
    - Y and q 2**2F are integers, so ``s = floor(T + (Y - T)**2 / 2Y)``,
      and ``-1 < s - T < 2**132 / 2**(W - 5) <= 1`` for ``prec >=
      _ROOT_MIN_PREC``.

    So s lies within one unit of T, and ``s > 2**(W - 6)`` has at least
    ``prec + 59`` bits: the error is under 2**-59 ulp at ``prec``.  Where
    s lies more than that from a rounding midpoint, s and T round to the
    same bits, and s is rounded to nearest; near a power of two the
    midpoints of the binade below lie farther still.  ``_sqrt(q)`` gives
    every other value: within the band, at ``j`` beyond the table and at
    a precision whose table is empty.  No bound is measured: every step
    above is exact integer arithmetic or a correct rounding.
    """

    __slots__ = ("pi", "bman", "bexp", "prec", "table", "a", "f")

    def __init__(self, pman, pexp, bman, bexp, prec, table):
        self.pi, self.bman, self.bexp, self.prec, self.table = (pman, pexp), bman, bexp, prec, table
        # pman / bman lies within a factor 2 of 2**k: the shift gives the
        # radicand 2W - 2 or 2W - 1 bits, plus one for an even 2F
        shift = 2 * (prec + _ROOT_GUARD) - 2 - pman.bit_length() + bman.bit_length()
        shift += (shift - pexp + bexp) & 1
        self.f = (shift - pexp + bexp) >> 1
        self.a = isqrt((pman << shift) // bman)

    def __call__(self, js):
        """sqrt(pi/z_j) for each ``j`` of ``js``, as pairs, z_j from :func:`_abscissas`."""
        prec, table, f, a = self.prec, self.table, self.f, self.a
        w, size, pi = prec + _ROOT_GUARD, len(table), self.pi
        out = []
        for j, z in zip(js, _abscissas(self.bman, self.bexp, js, prec)):
            qman, qexp = _quotient_pos(*pi, *z, prec)
            if j <= size:
                y = a * table[j - 1] >> w
                s = y + ((qman << qexp + 2 * f) - y * y) // (y << 1)
                rounded = _round_clear(s, -f, prec, _ROOT_BAND)
                if rounded:
                    out.append(rounded)
                    continue
            out.append(_sqrt(qman, qexp, prec))
        return out
