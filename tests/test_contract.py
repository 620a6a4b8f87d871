"""The domain contract of the public API.

Every public function that takes an order (``n``, ``k``, ``n_max``), a
series length (``N``) or a real point (``x``, ``z``, ``v``, ``u``,
``eps``, ``epsilon``) rejects a value outside its domain with
``DomainError``, and with nothing else, before it evaluates a transform,
an original, an integrand or a series term.  Orders go through
``coeffs.check_order``, series lengths through ``coeffs.check_count`` and
positive points through ``numerics.check_point``; intervals are one-line
tests in each function.  The same holds for the paper diagnostics in
``DIAGNOSTICS``, which are public in their modules but not in the package.
"""
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gsinv
from gsinv import DomainError, PrecisionContext, TransformFn, TransformPair
from gsinv import pairs, qpoly
from gsinv.coeffs import MAX_ORDER, QN_MAX_ORDER

CTX = PrecisionContext(20)
NAN, INF = math.nan, math.inf


@dataclass(frozen=True)
class Order:
    """Orders are integers in [1, cap]."""

    cap: int

    def bad(self):
        return st.one_of(st.sampled_from([0, -1, self.cap + 1, 2.5, "5", None]),
                         st.integers(max_value=0), st.integers(min_value=self.cap + 1),
                         st.floats())


@dataclass(frozen=True)
class Count:
    """Series lengths are integers >= 0."""

    def bad(self):
        return st.one_of(st.sampled_from([-1, 2.5, "3", None]), st.integers(max_value=-1),
                         st.floats())


@dataclass(frozen=True)
class Point:
    """Real points between lo and hi; the bounds are in the domain where closed."""

    lo: float = -INF
    hi: float = INF
    lo_closed: bool = False
    hi_closed: bool = False

    def inside(self, t: float) -> bool:
        above = t >= self.lo if self.lo_closed else t > self.lo
        below = t <= self.hi if self.hi_closed else t < self.hi
        return above and below

    def bad(self):
        fixed = [v for v in (NAN, INF, -INF, "abc", None)
                 if not (isinstance(v, float) and self.inside(v))]
        draws = [st.sampled_from(fixed)]
        if self.lo > -INF:
            draws.append(st.floats(max_value=self.lo, exclude_max=self.lo_closed))
        if self.hi < INF:
            draws.append(st.floats(min_value=self.hi, exclude_min=self.hi_closed))
        return st.one_of(draws)


ORDER, QN_ORDER = Order(MAX_ORDER), Order(QN_MAX_ORDER)
COUNT = Count()
POSITIVE = Point(0)
REAL = Point()
EPS = Point(0, 0.25)  # the range of v in both convergence criteria


class Calls:
    """Wraps transforms and originals so that their calls are counted."""

    def __init__(self):
        self.count = 0
        self.wrapped = 0

    def __call__(self, fn):
        self.wrapped += 1

        def counted(*args):
            self.count += 1
            return fn(*args)

        return counted


def _F(calls):
    return TransformFn(calls(lambda z: 1 / z**2), "1/z^2")


def _f(calls):
    return calls(lambda t: t)  # the ramp, so f(1) = 1 exactly


def _pair(calls):
    return TransformPair("counted", _F(calls), _f(calls), "smooth")


# paper lemmas that only the tests reproduce: public in their module, out
# of gsinv.__all__ until a CLI command or a verify check reaches them
DIAGNOSTICS = {
    "dini_integral_estimate": pairs,
    "DiniEstimate": pairs,
    "laplace_identity_residual": pairs,
    "qn_asymptotic": qpoly,
}


def api(name):
    """The function a contract row names: from its module for a diagnostic, else the package."""
    return getattr(DIAGNOSTICS.get(name, gsinv), name)


# function name -> (its valid arguments, built around a call counter; the
# domain of each order or point parameter)
CONTRACT = {
    "stehfest_weights": (lambda count: dict(n=4), {"n": ORDER}),
    "gaver_stehfest_coeffs": (lambda count: dict(n=4), {"n": ORDER}),
    "coeffs_from_weights": (lambda count: dict(n=4), {"n": ORDER}),
    "gaver_approx": (lambda count: dict(F=_F(count), x=1, k=2, ctx=CTX),
                     {"x": POSITIVE, "k": ORDER}),
    "stehfest_approx": (lambda count: dict(F=_F(count), x=1, n=2, ctx=CTX),
                        {"x": POSITIVE, "n": ORDER}),
    "stehfest_via_gaver": (lambda count: dict(F=_F(count), x=1, n=2, ctx=CTX),
                           {"x": POSITIVE, "n": ORDER}),
    "invert_ladder": (lambda count: dict(F=_F(count), x=1, n_max=2, ctx=CTX),
                      {"x": POSITIVE, "n_max": ORDER}),
    "equivalence_probe": (lambda count: dict(f=_f(count), x=1, c=1, eps=0.2, n=4, ctx=CTX),
                          {"x": POSITIVE, "eps": EPS, "n": QN_ORDER}),
    "branch_series": (lambda count: dict(N=5), {"N": COUNT}),
    "lambert_w0": (lambda count: dict(z=1, ctx=CTX), {"z": REAL}),
    "w_of_v": (lambda count: dict(v=0.5, ctx=CTX), {"v": Point(0, 1, hi_closed=True)}),
    "xi_alpha": (lambda count: dict(v=0.1, ctx=CTX), {"v": Point(0, 0.5, lo_closed=True)}),
    "context_for_order": (lambda count: dict(n=4), {"n": ORDER}),
    "guard_for_order": (lambda count: dict(n=4), {"n": ORDER}),
    "required_digits": (lambda count: dict(n=4), {"n": ORDER}),
    "run_pair": (lambda count: dict(pair=_pair(count), x=1, n_max=2, ctx=CTX),
                 {"x": POSITIVE, "n_max": ORDER}),
    "jordan_target": (lambda count: dict(pair=_pair(count), x=1, ctx=CTX), {"x": POSITIVE}),
    "dini_integral_estimate": (lambda count: dict(pair=_pair(count), x=1, c=1, epsilon=0.2,
                                                  ctx=CTX),
                               {"x": POSITIVE, "epsilon": EPS}),
    "laplace_identity_residual": (lambda count: dict(pair=_pair(count), z=1, ctx=CTX),
                                  {"z": POSITIVE}),
    "qn_coeffs": (lambda count: dict(n=4), {"n": QN_ORDER}),
    "qn_eval": (lambda count: dict(n=4, v=0.5, ctx=CTX), {"n": QN_ORDER, "v": REAL}),
    "qn_exact": (lambda count: dict(n=4, v=Fraction(1, 2)), {"n": QN_ORDER, "v": REAL}),
    "genfun_identity_check": (lambda count: dict(n_max=4, v=Fraction(1, 3)),
                              {"n_max": Order(30),
                               "v": Point(0, 1, lo_closed=True, hi_closed=True)}),
    "qn_asymptotic": (lambda count: dict(n=4, v=0.75, ctx=CTX),
                      {"n": QN_ORDER, "v": Point(0.5, 1, lo_closed=True)}),
    "qn_at_one_asymptotic": (lambda count: dict(n=4, ctx=CTX), {"n": QN_ORDER}),
    "qn_jump_form_check": (lambda count: dict(n=4, v=0.1, ctx=CTX),
                           {"n": QN_ORDER, "v": Point(0, 0.25, hi_closed=True)}),
    "decay_bound_probe": (lambda count: dict(epsilon=0.1, n_range=range(10, 30), ctx=CTX),
                          {"epsilon": Point(0, 1)}),
    "integral_representation_check": (lambda count: dict(n=2), {"n": ORDER}),
}

# order- or point-named parameters of public functions that the contract leaves out
OUT_OF_SCOPE = {"wew_residual"}  # a residual of any (w, z) the caller passes


def _call(name, args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning before the error is something else
        return api(name)(**args)


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_valid_arguments_of_the_table_pass(name):
    # the property below varies one argument at a time, so the others must be valid
    valid, _ = CONTRACT[name]
    calls = Calls()
    _call(name, valid(calls))
    assert calls.count > 0 or not calls.wrapped  # the counter sees what it guards


@pytest.mark.parametrize("name, param", [(name, param) for name in sorted(CONTRACT)
                                         for param in CONTRACT[name][1]])
@settings(max_examples=30)  # a few fixed values and float or integer rays per parameter
@given(data=st.data())
def test_out_of_domain_argument_raises_only_domain_error_first(name, param, data):
    valid, domains = CONTRACT[name]
    calls = Calls()
    args = valid(calls)
    args[param] = data.draw(domains[param].bad(), label=param)
    with pytest.raises(DomainError):
        _call(name, args)
    assert calls.count == 0


STEP = gsinv.get_pair("step")


def _not_called(t):
    raise AssertionError("the original was called")


NO_CALL = TransformPair("no-call", STEP.F, _not_called, "smooth")  # its checks come first

# each of these returned a value or raised another error before its check
# (most are the shared order and point checks)
FINDINGS = {
    "equivalence_probe n=0": lambda: gsinv.equivalence_probe(STEP.f_ref, 1, 0.5, 0.2, 0, CTX),
    "equivalence_probe n=-3": lambda: gsinv.equivalence_probe(STEP.f_ref, 1, 0.5, 0.2, -3, CTX),
    "equivalence_probe n=2.5": lambda: gsinv.equivalence_probe(STEP.f_ref, 1, 0.5, 0.2, 2.5,
                                                               CTX),
    "dini_integral_estimate x=-1": lambda: pairs.dini_integral_estimate(STEP, -1, 0, 0.2, CTX),
    "jordan_target x=nan": lambda: gsinv.jordan_target(STEP, NAN, CTX),
    "jordan_target x=+inf": lambda: gsinv.jordan_target(STEP, INF, CTX),
    "laplace_identity_residual z=inf": lambda: pairs.laplace_identity_residual(STEP, INF, CTX),
    "gaver_stehfest_coeffs 2.5": lambda: gsinv.gaver_stehfest_coeffs(2.5),
    "stehfest_approx n=2.5": lambda: gsinv.stehfest_approx(STEP.F, 1, 2.5, CTX),
    "genfun_identity_check v='abc'": lambda: gsinv.genfun_identity_check(5, "abc"),
    "genfun_identity_check n_max=0": lambda: gsinv.genfun_identity_check(0, Fraction(1, 2)),
    "vandermonde_check None": lambda: gsinv.vandermonde_check(None),
    "context_for_order 100": lambda: gsinv.context_for_order(100),
    "qn_asymptotic n=2.5": lambda: qpoly.qn_asymptotic(2.5, 0.6, CTX),
    "lambert_w0 'abc'": lambda: gsinv.lambert_w0("abc", CTX),
    "branch_series N=2.5": lambda: gsinv.branch_series(2.5),
    "decay_bound_probe n_range=[1.5, ...]": lambda: gsinv.decay_bound_probe(
        0.1, [1.5, 2.5, 3.5, 4.5], CTX),
    "decay_bound_probe n_range=['a', ...]": lambda: gsinv.decay_bound_probe(
        0.1, ["a", "b", "c", "d"], CTX),
    "decay_bound_probe n_range=5": lambda: gsinv.decay_bound_probe(0.1, 5, CTX),
    "decay_bound_probe n_range=None": lambda: gsinv.decay_bound_probe(0.1, None, CTX),
    "constant F pole z=0": lambda: pairs.get_pair("constant").F(CTX.mpf(0)),
    "ramp F pole z=0": lambda: pairs.get_pair("ramp").F(CTX.mpf(0)),
    "root F pole z=0": lambda: pairs.get_pair("root").F(CTX.mpf(0)),
    "step F pole z=0": lambda: pairs.get_pair("step").F(CTX.mpf(0)),
    "square-wave F pole z=0": lambda: pairs.get_pair("square-wave").F(CTX.mpf(0)),
    "exponential F pole z=-1": lambda: pairs.get_pair("exponential").F(CTX.mpf(-1)),
    "exponential F z=2.0": lambda: pairs.get_pair("exponential").F(2.0),
    "exponential F z=2": lambda: pairs.get_pair("exponential").F(2),
    "exponential F z='2'": lambda: pairs.get_pair("exponential").F("2"),
    "exponential F z=None": lambda: pairs.get_pair("exponential").F(None),
    "TransformPair period=-2": lambda: TransformPair("bad", STEP.F, STEP.f_ref, STEP.klass,
                                                     STEP.jumps, Fraction(-2)),
    "TransformPair period=0": lambda: TransformPair("bad", STEP.F, STEP.f_ref, STEP.klass,
                                                    STEP.jumps, 0),
    "TransformPair jumps at 2 then 1": lambda: TransformPair(
        "bad", STEP.F, STEP.f_ref, STEP.klass, ((Fraction(2), 0, 1), (Fraction(1), 1, 0))),
    "TransformPair jumps at 1 then 1": lambda: TransformPair(
        "bad", STEP.F, STEP.f_ref, STEP.klass, ((Fraction(1), 0, 1), (Fraction(1), 1, 0))),
    "TransformPair period='2'": lambda: TransformPair("bad", STEP.F, STEP.f_ref, STEP.klass,
                                                      STEP.jumps, "2"),
    "TransformPair jump at 'abc'": lambda: TransformPair("bad", STEP.F, STEP.f_ref, STEP.klass,
                                                         (("abc", 0, 1),)),
    "TransformPair jump at inf": lambda: TransformPair("bad", STEP.F, STEP.f_ref, STEP.klass,
                                                       ((INF, 0, 1),)),
    "TransformPair jump (1, 0)": lambda: TransformPair("bad", STEP.F, STEP.f_ref, STEP.klass,
                                                       ((1, 0),)),
    "dini_integral_estimate epsilon=1e-15": lambda: pairs.dini_integral_estimate(
        NO_CALL, 1, 1, 1e-15, CTX),
    "dini_integral_estimate epsilon=v_min": lambda: pairs.dini_integral_estimate(
        NO_CALL, 1, 1, "1e-10", CTX),
}


@pytest.mark.parametrize("finding", sorted(FINDINGS))
def test_finding_raises_domain_error(finding):
    with pytest.raises(DomainError):
        FINDINGS[finding]()


def test_corpus_transforms_without_a_pole_at_zero_give_one_there():
    for name in ("sine", "exponential"):
        assert pairs.get_pair(name).F.eval(CTX.mpf(0)) == 1


def test_shared_messages():
    with pytest.raises(DomainError) as order:
        gsinv.qn_coeffs(201)
    assert str(order.value) == "order must be an integer in [1, 200], got 201"
    with pytest.raises(DomainError) as point:
        gsinv.jordan_target(STEP, "-2", CTX)
    assert str(point.value) == "evaluation point must be finite and > 0, got x = -2.0"
    with pytest.raises(DomainError) as named:
        pairs.laplace_identity_residual(STEP, INF, CTX)
    assert str(named.value) == "evaluation point must be finite and > 0, got z = +inf"
    with pytest.raises(DomainError) as count:
        gsinv.branch_series(-2)
    assert str(count.value) == "series length must be an integer >= 0, got -2"
    with pytest.raises(DomainError) as conversion:
        CTX.mpf("abc")
    assert str(conversion.value) == "not a real number: 'abc'"


@pytest.mark.parametrize("call, message", [
    (lambda: qpoly.qn_asymptotic(4, "0.3", CTX),
     "v must lie in [1/2, 1), got v = 0.3; v = 1 has its own formula"),
    (lambda: gsinv.decay_bound_probe(2, range(10, 14), CTX),
     "epsilon must lie in (0, 1), got epsilon = 2.0"),
], ids=["qn_asymptotic", "decay_bound_probe"])
def test_interval_messages_name_the_bad_value(call, message):
    with pytest.raises(DomainError) as bad:
        call()
    assert str(bad.value) == message
