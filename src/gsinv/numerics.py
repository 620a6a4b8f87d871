"""Arbitrary-precision scalar kernel, precision policy and quadrature.

Every floating operation in the package goes through a
:class:`PrecisionContext`, which owns a private mpmath context instance.
There is no global precision state: two contexts never interact.  A
context may be used by one thread at a time: mpmath's special functions
(``besselk`` through ``hypercomb``, for one) raise the working precision
of the context they run in and restore it afterwards, so a second thread
in that context computes at the raised precision, and a few such threads
push it up without bound.  Values are immutable and may be shared
freely.  :func:`context_for_order` keeps one context per
``(digits, guard)`` for each thread, so its contexts are never shared
between threads.

Quantities that depend only on the working precision (the rounded a_k,
branch-series coefficient vectors, Lambert W's constants, the tanh-sinh
node tables, the equivalence probe's xi(v) at its nodes) are built once
per process and kept in one store, ``_TABLES``, an LRU map bounded at
256 entries.  Each key names its table and carries the binary precision,
e.g. ``("a_k", n, prec)``, or the digits and guard it follows from, e.g.
``("xi", eps, digits, guard)``.  The store holds raw ``_mpf_`` tuples
(the root kernel's pi as a signed pair, see below), never mpmath
numbers, so no mpmath context is shared through it: each caller
rebuilds the values with its own ``make_mpf``, and the results are
bit-identical to building them afresh.

:func:`integrate` runs on the mpf operators of its context: it makes a
few quadratures per verify run, so only its node tables are raw tuples.
An integrand's mpf is rebound to the context before any arithmetic,
because mpmath rounds an operation at its left operand's precision.
:func:`weighted_sum` runs on the integer steps of :mod:`gsinv.mantissa`.
Every context rounds to nearest: an ``MPContext`` has no rounding
setting.
"""
from __future__ import annotations

import numbers
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from fractions import Fraction

from mpmath.ctx_mp import MPContext
from mpmath.libmp import from_rational, round_nearest

from .coeffs import check_order
from .errors import DomainError, ProbeError, QuadratureError, as_number
from .mantissa import _nearest_sum, _signed

MIN_DIGITS = 15  # the working-precision floor of PrecisionContext
MAX_LEVEL = 10  # tanh-sinh refinement levels before integrate gives up


def required_digits(n: int) -> int:
    """Minimum working precision (decimal digits) for an order-``n`` run.

    The rule is ``ceil(2.2 n) + 10``.  The linear constant gives headroom
    for the alternating-sign cancellation in the summation weights, which
    empirically destroys about ``1.3 n`` digits; the acceptance suite
    validates the rule rather than assuming it.
    """
    check_order(n)
    return (11 * n + 4) // 5 + 10  # exact ceil(2.2 n) + 10


def low_digits_note(digits: int, n: int) -> str | None:
    """The one low-digits verdict, which the inverter warns and the CLI prints; None if enough."""
    need = required_digits(n)
    if digits >= need:
        return None
    return f"digits={digits} below required_digits({n})={need}; cancellation will dominate"


def guard_for_order(n: int) -> int:
    """Guard digits to carry on top of :func:`required_digits` at order ``n``.

    Cancellation in the weighted sums grows like ``1.3 n`` digits, so a
    constant guard cannot cover all orders; ``ceil(0.7 n) + 3`` keeps the
    computation error several orders below the reporting tolerance
    ``10**(-digits + guard)``.
    """
    check_order(n)
    return max(5, (7 * n + 9) // 10 + 3)


def _check_precision(digits, guard):
    """``digits`` and ``guard`` must be integers of at least 15 and 5, as check_order checks."""
    for name, value, low in (("digits", digits, MIN_DIGITS), ("guard", guard, 5)):
        if not (isinstance(value, numbers.Integral) and value >= low):
            raise DomainError(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision, guard digits and derived comparison tolerance.

    Parameters
    ----------
    digits : int
        Decimal digits of working precision, an integer of at least 15.
        The comparison tolerance ``eps`` equals ``10**-digits``.
    guard : int
        Extra digits carried internally, an integer of at least 5.  All
        arithmetic runs at ``digits + guard`` decimal digits.

    Notes
    -----
    The context is frozen.  ``eps`` is computed once at construction and
    therefore never goes stale.
    """

    digits: int
    guard: int = 10
    _mp: MPContext = field(init=False, repr=False, compare=False)
    _eps: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_precision(self.digits, self.guard)
        m = MPContext()
        m.dps = self.digits + self.guard
        object.__setattr__(self, "_mp", m)
        object.__setattr__(self, "_eps", m.mpf(10) ** (-self.digits))

    # -- scalar factory / helpers -------------------------------------
    @property
    def mp(self) -> MPContext:
        """The private mpmath context (treat as read-only)."""
        return self._mp

    @property
    def dps(self) -> int:
        return self.digits + self.guard

    @property
    def eps(self):
        """Comparison tolerance ``10**-digits`` at working precision."""
        return self._eps

    def mpf(self, x):
        """``x`` as an mpf of this context; a Fraction rounded once, by ``from_rational``."""
        if isinstance(x, Fraction):
            m = self._mp
            return m.make_mpf(from_rational(x.numerator, x.denominator, m.prec, round_nearest))
        return as_number(self._mp.mpf, x, "real number")

    def mpc(self, re, im=0):
        return self._mp.mpc(self.mpf(re), self.mpf(im))

    def nstr(self, x, n: int | None = None) -> str:
        """Decimal string at full reporting precision (default ``digits``)."""
        return self._mp.nstr(x, n or self.digits)


class _ThreadContexts(threading.local):
    """One :class:`PrecisionContext` per ``(digits, guard)`` for each thread.

    LRU-bounded per thread.  A hit whose mpmath context no longer runs at
    the precision it was built at (a caller raised ``mp.prec`` and left
    it so) is rebuilt, so every context handed out starts at its nominal
    precision.
    """

    maxsize = 64

    def __init__(self):
        self._data: OrderedDict = OrderedDict()  # key -> (context, prec at build)

    def get(self, digits: int, guard: int) -> PrecisionContext:
        key = (digits, guard)
        hit = self._data.get(key)
        if hit is not None and hit[0].mp.prec == hit[1]:
            self._data.move_to_end(key)
            return hit[0]
        ctx = PrecisionContext(digits, guard)
        self._data[key] = (ctx, ctx.mp.prec)
        self._data.move_to_end(key)
        if len(self._data) > self.maxsize:
            self._data.popitem(last=False)
        return ctx

    def cache_clear(self):
        """Forget the calling thread's contexts."""
        self._data.clear()


_CONTEXTS = _ThreadContexts()


def cached_context(digits: int, guard: int = 10) -> PrecisionContext:
    """The calling thread's context of ``digits`` and ``guard`` (see :class:`_ThreadContexts`).

    Callers that build a context per call use this one instead; the
    context must not be handed to another thread.  A direct
    ``PrecisionContext(...)`` is never cached.  The arguments are checked
    on every call, so ``30.0`` is refused even where ``30`` is cached.
    """
    _check_precision(digits, guard)
    return _CONTEXTS.get(digits, guard)


def context_for_order(n: int) -> PrecisionContext:
    """Context sized by the :func:`required_digits` rule for order ``n``.

    The context floor of 15 digits binds below order 3.  The calling
    thread gets the same context on every call (see :func:`cached_context`).
    """
    return cached_context(max(MIN_DIGITS, required_digits(n)), guard_for_order(n))


def check_point(x, ctx: PrecisionContext, name: str = "x"):
    """The one point check of the package: ``x`` as an mpf of ``ctx``, finite and > 0.

    ``name`` is the caller's name for the parameter, for the message.
    """
    x = ctx.mpf(x)
    if not (x > 0 and ctx.mp.isfinite(x)):
        raise DomainError(f"evaluation point must be finite and > 0, got {name} = {x}")
    return x


def mpf_tuples(values, prec: int) -> tuple:
    """Raw ``_mpf_`` tuples of the Fractions ``values`` at ``prec`` bits.

    Each exact quotient is rounded once to nearest by ``from_rational``,
    as :meth:`PrecisionContext.mpf` rounds a Fraction, so a caller at
    binary precision ``prec`` that rebuilds them with its own
    ``make_mpf`` gets the same bits as converting each Fraction itself.
    """
    return tuple(from_rational(q.numerator, q.denominator, prec, round_nearest) for q in values)


def weighted_sum(coeffs, values, m):
    """``c_1 v_1 + c_2 v_2 + ...`` in ``m``; ``coeffs`` are raw tuples (see :func:`mpf_tuples`).

    The bits are those of ``acc += c_k * v_k`` from ``acc = mpf(0)``.
    Finite mpf values run :func:`~gsinv.mantissa._nearest_sum` on their
    pairs, which gives the values of the operators' libmp calls; any
    other values (an infinite or nan mpf, ints, floats, mpc) run that
    operator loop itself.
    """
    if all(hasattr(v, "_mpf_") for v in values):
        pairs = [_signed(v._mpf_) for v in values]
        if all(man or not exp for man, exp in pairs):  # no inf or nan
            return m.make_mpf(_nearest_sum(coeffs, pairs, m.prec))
    make = m.make_mpf
    acc = m.mpf(0)
    for c, v in zip(coeffs, values):
        acc += make(c) * v
    return acc


def power_sum(coeffs, p, m):
    """``c_0 + c_1 p + ...``: the :func:`weighted_sum` over ``p**0``, ``p**0 * p``, ..."""
    powers = [p**0]
    for _ in coeffs[1:]:
        powers.append(powers[-1] * p)
    return weighted_sum(coeffs, powers, m)


def fit_line(xs, ys, m):
    """Least-squares line ``y = c0 + c1 x`` in context ``m``.

    Returns ``(c0, c1, rms)``, where ``rms`` is the root-mean-square
    residual of the fit.

    Raises
    ------
    ProbeError
        If the ``xs`` have no spread.
    """
    xs = [m.mpf(x) for x in xs]
    N = len(xs)
    sx = sum(xs)
    sy = sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    denom = N * sxx - sx * sx
    if denom == 0:
        raise ProbeError("degenerate fit: no spread in x")
    c1 = (N * sxy - sx * sy) / denom
    c0 = (sy - c1 * sx) / N
    rms = m.sqrt(sum((y - c0 - c1 * x) ** 2 for x, y in zip(xs, ys)) / N)
    return c0, c1, rms


class _BoundedCache:
    """Thread-safe LRU map of at most ``maxsize`` entries.

    Values are built outside the lock by the caller's ``build``; two
    threads that miss the same key both build it and keep one result:
    the entry stored first, which both callers get back.
    """

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key, build):
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                return self._data[key]
        value = build()
        with self._lock:
            value = self._data.setdefault(key, value)
            self._data.move_to_end(key)
            if len(self._data) > self.maxsize:
                self._data.popitem(last=False)
        return value

    def cache_clear(self):
        with self._lock:
            self._data.clear()


# Every table built per binary precision, keyed by table name, its
# order and m.prec (m.dps is a function of m.prec for every context),
# or digits and guard where the table depends on them.
# verify --suite all, the cli-single-order mix and four Theis ladders to
# n_max = 16 in one process hold 85 entries, so nothing is evicted.
_TABLES = _BoundedCache(maxsize=256)


# ---------------------------------------------------------------------
# tanh-sinh (double exponential) quadrature
# ---------------------------------------------------------------------

def _neg_log1m(m, s):
    # -ln(1-s) for s in [0, 1); series branch keeps tiny s exact in
    # relative terms, which the singular-endpoint substitution relies on.
    if s > 0.25:
        return -m.ln(1 - s)
    acc = m.mpf(0)
    term = m.mpf(s)
    k = 1
    floor = m.mpf(10) ** (-m.dps - 5) * s
    while True:
        piece = term / k
        acc += piece
        if abs(piece) <= floor:
            return acc
        k += 1
        term *= s


def _build_level(m, level):
    # weight w and offset d = 1 - tanh(s) of the nodes of one refinement
    # level: every t = i h at level 0, the odd multiples of h = 2^-level
    # above it; the trapezoid is truncated once offsets drop below the
    # noise floor
    tmax = m.asinh(m.ln(m.mpf(10) ** (m.dps + 5)) * 2 / m.pi)
    pih = m.pi / 2
    h = m.mpf(1) / 2**level
    if level == 0:
        ts = (i * h for i in range(int(tmax / h) + 2))
    else:
        ts = ((2 * i + 1) * h for i in range(int(tmax / (2 * h)) + 2))
    nodes = []
    for t in ts:
        if t > tmax:
            break
        s = pih * m.sinh(t)
        es = m.exp(2 * s)
        delta = 2 / (es + 1)  # 1 - tanh(s), no cancellation
        w = pih * m.cosh(t) * 4 * es / (es + 1) ** 2
        nodes.append((w._mpf_, delta._mpf_))
    return tuple(nodes)


def _build_semi_level(m, level):
    # the (0, inf) map reads s = d/2 at both ends: u = -ln(1-s) near 0
    # and u = -ln(s) for large u
    nodes = []
    for w, delta in _level_nodes(m, level, False):
        s = m.make_mpf(delta) / 2
        nodes.append((w, s._mpf_, _neg_log1m(m, s)._mpf_, m.ln(s)._mpf_))
    return tuple(nodes)


def _level_nodes(m, level, semi_infinite):
    """Raw node tuples of one level at ``m.prec``, built by ``m`` on a miss.

    Finite nodes are ``(w, d)``; semi-infinite ones are
    ``(w, s, -ln(1 - s), ln s)`` with ``s = d/2``.
    """
    build = _build_semi_level if semi_infinite else _build_level
    return _TABLES.get(("nodes", m.prec, level, semi_infinite), lambda: build(m, level))


def _real_value(v, m):
    """Integrand value ``v`` as an mpf of ``m``, converted as the mpf operators convert it.

    An mpf of any context keeps its bits but is rebound to ``m``: mpmath
    rounds a binary operation at its left operand's precision, so a value
    left in a wider context would round the node sum there.  An int or a
    float is taken exactly; a value no real mpf stands for (an mpc, None,
    a string) raises DomainError.
    """
    try:
        return m.make_mpf(v._mpf_)
    except AttributeError:
        pass
    try:
        return m.make_mpf(m.convert(v, strings=False)._mpf_)
    except (TypeError, ValueError, AttributeError):
        raise DomainError(f"integrand value is not a real number: {v!r}") from None


def _tanh_sinh(m, fleft, fright, digits, semi_infinite=False):
    """Integrate over [-1, 1] given endpoint-offset evaluators.

    ``fleft(node)`` evaluates the integrand at ``x = -1 + d`` and
    ``fright(node)`` at ``x = 1 - d``, where ``node`` is the level's node
    tuple (see :func:`_level_nodes`) rebuilt as mpfs of ``m``, and returns
    an mpf of ``m``; offsets ``d`` stay exact down to ~1e-(dps+5), so
    integrable endpoint singularities at a = 0 cost no precision.  The
    node sum of a level is ``new += w * (fright + fleft)``.
    """
    tol = m.mpf(10) ** (-digits)
    total = m.mpf(0)
    prev = None
    for level in range(MAX_LEVEL + 1):
        nodes = [tuple(map(m.make_mpf, node)) for node in _level_nodes(m, level, semi_infinite)]
        new = m.mpf(0)
        if level == 0:  # the midpoint t = 0, counted once
            new += nodes[0][0] * fright(nodes[0])
            nodes = nodes[1:]
        for node in nodes:
            new += node[0] * (fright(node) + fleft(node))
        total = (total / 2 if level else m.mpf(0)) + new / 2**level
        if level >= 2 and abs(total - prev) <= tol * max(m.mpf(1), abs(total)):
            return total
        prev = total
    raise QuadratureError(
        f"tanh-sinh did not converge within {MAX_LEVEL} levels",
        last_estimates=(prev, total),
    )


def integrate(f, a, b, ctx: PrecisionContext):
    """Integrate ``f`` over ``(a, b)`` with absolute error near ``ctx.eps``.

    Parameters
    ----------
    f : callable
        Real-valued integrand of one high-precision argument.  Integrable
        endpoint singularities are fine when the endpoint is 0.
    a, b
        Interval ends.  ``a`` must be finite; ``b`` is finite or ``+inf``
        (mpmath or float infinity), in which case the range is reduced to
        ``s in [0, 1)`` via ``u = a - ln(1 - s)``.  The nodes reach about
        ``u = a + (dps + 5) ln 10``, so ``f`` must decay at least as fast
        as ``e^-(u - a)``: ``exp(-0.2 u)`` from ``a = 1`` is still near
        1e-7 there and raises QuadratureError at 18 digits.
    ctx : PrecisionContext
        Precision policy; refinement stops once two successive levels
        agree to ``10**-digits``, or fails after :data:`MAX_LEVEL` levels.

    Raises
    ------
    DomainError
        If ``a`` is not finite, or ``b`` is NaN or ``-inf``; ``f`` is
        never called then.  Also if ``f`` returns a value that is not a
        real number (an mpc, None, a string); an int or a float is taken
        exactly.
    QuadratureError
        If the refinement ladder does not converge; the error carries the
        last two level estimates.
    """
    m = ctx.mp
    a = ctx.mpf(a)
    b = ctx.mpf(b)
    if not m.isfinite(a) or m.isnan(b) or b == m.ninf:
        raise DomainError(f"integrate needs a finite a and a finite or +inf b, got ({a}, {b})")
    if b == m.inf:
        def fleft(node):  # s = d/2 near 0
            _, s, neg_log1m_s, _ = node
            return _real_value(f(a + neg_log1m_s), m) / (1 - s) / 2

        def fright(node):  # 1 - s = d/2 near 0, u large
            _, oms, _, ln_oms = node
            return _real_value(f(a - ln_oms), m) / oms / 2

        return _tanh_sinh(m, fleft, fright, ctx.digits, semi_infinite=True)

    if b == a:
        return m.mpf(0)
    if b < a:
        return -integrate(f, b, a, ctx)
    halfw = (b - a) / 2

    def fleft(node):
        return _real_value(f(a + halfw * node[1]), m) * halfw

    def fright(node):
        return _real_value(f(b - halfw * node[1]), m) * halfw

    return _tanh_sinh(m, fleft, fright, ctx.digits)
