import functools
import os
import warnings
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp

import gsinv.cli as cli
import gsinv.inverter as inverter
import gsinv.numerics as numerics
import gsinv.pairs
from gsinv import (
    DomainError,
    PrecisionContext,
    TransformEvaluationError,
    TransformFn,
    context_for_order,
    corpus,
    equivalence_probe,
    gaver_approx,
    gaver_stehfest_coeffs,
    get_pair,
    invert_ladder,
    required_digits,
    stehfest_approx,
    stehfest_via_gaver,
)
from gsinv.mantissa import _abscissas
from gsinv.numerics import low_digits_note
from conftest import load_fixture

F_CONST = TransformFn(lambda z: 1 / z, "1/z")
F_RAMP = TransformFn(lambda z: 1 / z**2, "1/z^2")
F_EXP = TransformFn(lambda z: 1 / (z + 1), "1/(z+1)")


@pytest.mark.parametrize("k", range(1, 11))
def test_gaver_constant_exact(k):
    # the prefactor (2k)!/(k!(k-1)!) gives the kernel p_k unit mass
    ctx = context_for_order(10)
    assert abs(gaver_approx(F_CONST, 1, k, ctx) - 1) <= 10 * ctx.eps


@pytest.mark.parametrize("k, mean", [(1, Fraction(3, 2)), (2, Fraction(13, 12))])
def test_gaver_ramp_first_order(ctx30, k, mean):
    # the functional of the ramp is E[U_k]/ln 2 at x = 1: E[U_1] = 3/2, E[U_2] = 13/12
    val = gaver_approx(F_RAMP, 1, k, ctx30)
    assert abs(val - ctx30.mpf(mean) / ctx30.mp.ln(2)) <= 10 * ctx30.eps


def test_gaver_error_decreasing_in_k():
    ctx = context_for_order(16)
    errs = [abs(gaver_approx(F_RAMP, 1, k, ctx) - 1) for k in range(4, 17)]
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))


def test_stehfest_constant_to_working_precision():
    ctx = context_for_order(7)
    val = stehfest_approx(F_CONST, ctx.mpf("2.5"), 7, ctx)
    assert abs(val - 1) <= ctx.mp.mpf(10) ** (-(ctx.digits - ctx.guard))


def test_stehfest_smooth_reference():
    ctx = PrecisionContext(41, 13)
    val = stehfest_approx(F_EXP, 1, 14, ctx)
    assert abs(val - ctx.mp.exp(-1)) <= ctx.mpf("1e-6")


def test_stehfest_jump_midpoint_trend():
    ctx = context_for_order(16)
    Fstep = get_pair("step").F
    errs = [abs(stehfest_approx(Fstep, 1, n, ctx) - ctx.mpf("0.5")) for n in (4, 8, 16)]
    assert errs[2] < errs[1] < errs[0]


def test_two_path_agreement_across_corpus():
    ctx = context_for_order(10)
    tol = ctx.mp.mpf(10) ** (-(ctx.digits - ctx.guard - 2))
    for pair in corpus():
        for x in (ctx.mpf(1) / 2, ctx.mpf(1), ctx.mpf(2)):
            for n in range(1, 11):
                a = stehfest_approx(pair.F, x, n, ctx)
                b = stehfest_via_gaver(pair.F, x, n, ctx)
                assert abs(a - b) <= tol, (pair.name, n, ctx.nstr(abs(a - b), 4))


def test_constant_exactness_invariant():
    ctx = context_for_order(12)
    tol = ctx.mp.mpf(10) ** (-(ctx.digits - ctx.guard))
    for c in (ctx.mpf(1), ctx.mpf(-3), ctx.mpf(Fraction(1, 7))):
        F = TransformFn(lambda z, c=c: c / z, "c/z")
        for x in (ctx.mpf(1) / 2, ctx.mpf(1), ctx.mpf(2)):
            for n in range(1, 13):
                assert abs(stehfest_approx(F, x, n, ctx) - c) <= tol


def test_scale_covariance_bit_exact():
    # with a = 2 every rescaling is a power of two, so the two routes hit
    # bit-identical abscissas: f_n[F(2z)/2](x) == f_n[F](x/2) / 4 exactly
    ctx = context_for_order(6)
    G = TransformFn(lambda z: F_EXP(2 * z) / 2, "F(2z)/2")
    x = ctx.mpf(1)
    for n in (1, 3, 6):
        lhs = stehfest_approx(G, x, n, ctx)
        rhs = stehfest_approx(F_EXP, x / 2, n, ctx) / 4
        assert lhs == rhs


def test_ladder_constant():
    rep = invert_ladder(F_CONST, 1, 5, ref=lambda x: x.context.mpf(1))
    assert [e.n for e in rep.entries] == [1, 2, 3, 4, 5]
    assert rep.digits_used >= required_digits(5)
    for e in rep.entries:
        assert e.abs_error <= 10 ** -(rep.digits_used - 15)


def test_ladder_matches_oracle_fixture():
    fx = load_fixture("smooth_ladder.json")
    ctx = context_for_order(14)
    rep = invert_ladder(F_EXP, 1, 14, ref=lambda x: x.context.exp(-x), ctx=ctx)
    for e in rep.entries:
        oracle = ctx.mpf(fx["errors"][str(e.n)])
        assert abs(e.abs_error - oracle) <= ctx.mpf("1e-9") * max(1, oracle)
    assert rep.entries[13].abs_error * 10**4 <= rep.entries[3].abs_error


def test_ladder_ramp_monotone():
    rep = invert_ladder(F_RAMP, 1, 10, ref=lambda x: x)
    errs = [e.abs_error for e in rep.entries]
    for e1, e2 in zip(errs[1:], errs[2:]):
        assert e2 < e1


def test_ladder_low_digits_warns():
    ctx = PrecisionContext(20)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        invert_ladder(F_EXP, 1, 10, ctx=ctx)
    assert any("required_digits" in str(w.message) for w in caught)


_CTX15 = PrecisionContext(15)

# each public entry point below the digits rule, with the largest order it needs
_LOW_DIGITS_CALLS = {
    "gaver_approx": (lambda: gaver_approx(F_EXP, 1, 10, _CTX15), 10),
    "stehfest_approx": (lambda: stehfest_approx(F_EXP, 1, 10, _CTX15), 10),
    "stehfest_via_gaver": (lambda: stehfest_via_gaver(F_EXP, 1, 10, _CTX15), 10),
    "invert_ladder": (lambda: invert_ladder(F_EXP, 1, 10, ctx=_CTX15), 10),
}


@pytest.mark.parametrize("entry", sorted(_LOW_DIGITS_CALLS))
def test_low_digits_warns_the_caller_once(entry):
    call, n = _LOW_DIGITS_CALLS[entry]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    assert [w.category for w in caught] == [UserWarning]
    assert caught[0].filename == __file__  # attributed to the public call
    assert str(caught[0].message) == low_digits_note(15, n)


def counting(F):
    seen = []

    def counted(z):
        seen.append(z)
        return F(z)

    return TransformFn(counted, F.label), seen


def _wrapped(F):
    # F's eval behind a functools.wraps wrapper, as the benchmark's tracer
    # wraps it: the inverter calls it once per abscissa with an mpf
    return TransformFn(functools.wraps(F.eval)(lambda z: F.eval(z)), F.label)


def _abscissa_bits(x, count, ctx):
    # j * (ln2/x) through the mpf operators
    base = ctx.mp.ln(2) / ctx.mpf(x)
    return [(j * base)._mpf_ for j in range(1, count + 1)]


@pytest.mark.parametrize("n_max", [1, 3, 16])
def test_ladder_calls_transform_once_per_abscissa(n_max):
    F, seen = counting(F_EXP)
    invert_ladder(F, "0.7", n_max)
    assert len(seen) == len(set(seen)) == 2 * n_max
    assert [z._mpf_ for z in seen] == _abscissa_bits("0.7", 2 * n_max, context_for_order(n_max))


@pytest.mark.parametrize("n", [1, 7, 48])
@pytest.mark.parametrize("x", ["0.3", "1", "2.75"])
def test_stehfest_calls_transform_at_each_abscissa_once(n, x):
    ctx = context_for_order(n)
    F, seen = counting(F_EXP)
    stehfest_approx(F, x, n, ctx)
    assert [z._mpf_ for z in seen] == _abscissa_bits(x, 2 * n, ctx)
    assert all(type(z) is ctx.mp.mpf for z in seen)


def test_transform_subclass_and_wrapped_eval_see_every_call(monkeypatch):
    calls = []

    class CountingCall(TransformFn):  # its own __call__ must see every evaluation
        def __call__(self, z):
            calls.append(z)
            return super().__call__(z)

    stehfest_approx(CountingCall(F_EXP.eval, "1/(z+1)"), 1, 9, context_for_order(9))
    assert len(calls) == 18
    # also around a corpus kernel, which a TransformFn itself runs on raw tuples
    stehfest_approx(CountingCall(get_pair("exponential").F.eval, "1/(z+1)"), 1, 9,
                    context_for_order(9))
    assert len(calls) == 18 + 18
    # the benchmark's tracer wraps each corpus eval through the module's constructor
    seen = []

    def traced_transform_fn(eval, label=""):
        @functools.wraps(eval)
        def traced(z):
            seen.append(z)
            return eval(z)

        return TransformFn(traced, label)

    monkeypatch.setattr(gsinv.pairs, "TransformFn", traced_transform_fn)
    pair = get_pair("exponential")
    stehfest_approx(pair.F, 1, 8, context_for_order(8))
    assert len(seen) == 16
    invert_ladder(pair.F, 1, 6)
    assert len(seen) == 16 + 12
    assert cli.main(["invert", "--pair", "step", "--x", "0.5,2", "--n", "5",
                     "--out", os.devnull]) == 0
    assert len(seen) == 16 + 12 + 2 * 10
    # --transform takes its eval from the corpus in effect, here the traced one
    assert cli.main(["invert", "--transform", "exp(-z)/z", "--x", "0.5,2", "--n", "5",
                     "--out", os.devnull]) == 0
    assert len(seen) == 16 + 12 + 2 * 10 + 2 * 10
    # and builds F through the CLI's own constructor, here around the unwrapped eval
    monkeypatch.setattr(gsinv.pairs, "TransformFn", TransformFn)
    monkeypatch.setattr(cli, "TransformFn", traced_transform_fn)
    assert cli.main(["invert", "--transform", "exp(-z)/z", "--x", "0.5,2", "--n", "5",
                     "--out", os.devnull]) == 0
    assert len(seen) == 16 + 12 + 2 * 10 + 2 * 10 + 2 * 10


_ENTRY_ROUTES = {  # the single-order path and the ladder to order 4: {order: value}
    "stehfest_approx": lambda F, ctx: {4: stehfest_approx(F, "0.8", 4, ctx)},
    "invert_ladder": lambda F, ctx: {e.n: e.value
                                     for e in invert_ladder(F, "0.8", 4, ctx=ctx).entries},
}


def test_corpus_transform_runs_its_kernel_without_its_eval(monkeypatch):
    ctx = context_for_order(6)
    expected = {p.name: (stehfest_approx(p.F, 1, 6, ctx), gaver_approx(p.F, 1, 6, ctx))
                for p in corpus()}

    def forbidden(self, z):
        raise AssertionError("a corpus eval called on the inverter's path")

    monkeypatch.setattr(inverter._Kernel, "__call__", forbidden)
    for p in corpus():  # the gaver_approx witness gets mpf values, made from the raw ones
        assert (stehfest_approx(p.F, 1, 6, ctx), gaver_approx(p.F, 1, 6, ctx)) == expected[p.name]


def test_kernel_path_calls_the_batch_once_per_read_that_misses_abscissas(monkeypatch):
    # one batch per call (per x), one call of it per read of the abscissa
    # cache that misses abscissas, for just those, and no call of the operator form
    made, reads, misses = [], [], []
    values = inverter._AbscissaCache._values

    def counting_values(self, js):
        missing = tuple(j for j in js if j not in self.values)
        if missing:
            misses.append(missing)
        return values(self, js)

    def forbidden(z):
        raise AssertionError("an operator form called on the inverter's path")

    monkeypatch.setattr(inverter._AbscissaCache, "_values", counting_values)
    ctx = context_for_order(6)
    routes = (  # each route's reads that miss abscissas
        (stehfest_approx, [tuple(range(1, 13))]),
        (lambda F, x, n, ctx: invert_ladder(F, x, n, ctx=ctx),
         [(2 * k - 1, 2 * k) for k in range(1, 7)]),  # two new abscissas per order
        (stehfest_via_gaver, [(j,) for j in range(1, 13)]),  # one at a time
    )
    for p in corpus():
        batch = p.F.eval.batch

        def counting(bman, bexp, prec, batch=batch):
            made.append(bman)
            at_x = batch(bman, bexp, prec)
            return lambda js: reads.append(tuple(js)) or at_x(js)

        monkeypatch.setattr(p.F.eval, "batch", counting)
        monkeypatch.setattr(p.F.eval, "form", forbidden)
        for route, expected in routes:
            del made[:], reads[:], misses[:]
            route(p.F, 1, 6, ctx)
            assert len(made) == 1 and reads == misses == expected, p.name


@pytest.mark.parametrize("route", sorted(_ENTRY_ROUTES))
def test_single_order_and_ladder_share_error_semantics(ctx30, route, monkeypatch):
    run = _ENTRY_ROUTES[route]
    base = ctx30.mp.ln(2) / ctx30.mpf("0.8")

    def fragile(z):
        if z > 2.5 * base:  # fails from the abscissa j = 3 on
            raise ValueError("boom")
        return 1 / z

    with pytest.raises(TransformEvaluationError) as err:
        run(TransformFn(fragile, "fragile"), ctx30)
    assert err.value.z._mpf_ == (3 * base)._mpf_
    assert isinstance(err.value.__cause__, ValueError)
    # a corpus kernel failing from j = 3 on: its path on pairs and the generic
    # path through a wrapped eval raise the same error at the same abscissa
    pair = get_pair("exponential")
    exponential = pair.F.eval.form

    def fragile_form(z):
        if z > 2.5 * base:
            raise ValueError("boom")
        return exponential(z)

    monkeypatch.setattr(pair.F.eval, "form", fragile_form)
    # and its batch, the fragile form at each abscissa of the call
    make = ctx30.mp.make_mpf
    monkeypatch.setattr(pair.F.eval, "batch", lambda bman, bexp, prec: lambda js: [
        fragile_form(make(from_man_exp(*z)))._mpf_[1:3]
        for z in _abscissas(bman, bexp, js, prec)])
    reported = []
    for F in (pair.F, _wrapped(pair.F)):
        with pytest.raises(TransformEvaluationError) as err:
            run(F, ctx30)
        assert isinstance(err.value.__cause__, ValueError)
        reported.append((str(err.value), err.value.z._mpf_))
    assert reported[0] == reported[1] and reported[0][1] == (3 * base)._mpf_
    monkeypatch.undo()
    for value in (None, "0.5"):
        with pytest.raises(DomainError, match=r"transform value at z = 0\.866.* is not a number"):
            run(TransformFn(lambda z: value, "bad"), ctx30)
    for f in (lambda z: 2, lambda z: 1 / (float(z) + 1), lambda z: 1 if z < 2 else 1 / z):
        got = run(TransformFn(f, "number"), ctx30)
        assert {n: _raw(v) for n, v in got.items()} == {
            n: _raw(_operator_loop(f, "0.8", n, ctx30)) for n in got}


def test_ladder_entries_equal_standalone_approximants():
    ctx = context_for_order(12)
    for pair in corpus():
        for x in (ctx.mpf(1) / 2, ctx.mpf(1), ctx.mpf(3)):
            rep = invert_ladder(pair.F, x, 12, ctx=ctx)
            for e in rep.entries:
                assert e.value == stehfest_approx(pair.F, x, e.n, ctx), (pair.name, e.n)
            generic = invert_ladder(_wrapped(pair.F), x, 12, ctx=ctx)
            assert [_raw(e.value) for e in rep.entries] == [
                _raw(e.value) for e in generic.entries], pair.name


def test_coefficient_vector_rounds_like_context_mpf():
    # the a_k vector stehfest_approx stores rounds each a_k as ctx.mpf does
    for digits in (20, 57):
        ctx = PrecisionContext(digits)
        for n in (1, 7, 30, 64):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # orders beyond the digits rule
                stehfest_approx(F_CONST, 1, n, ctx)
            key = ("a_k", n, ctx.mp.prec)
            cached = numerics._TABLES.get(key, lambda: pytest.fail(f"{key} not stored"))
            assert [ctx.mp.make_mpf(t) for t in cached] == [
                ctx.mpf(q) for q in gaver_stehfest_coeffs(n).a]


def test_equal_digits_contexts_agree_in_own_type():
    c1, c2 = PrecisionContext(33, 9), PrecisionContext(33, 9)
    assert c1.mp is not c2.mp
    v1 = stehfest_approx(F_EXP, 1, 9, c1)
    v2 = stehfest_approx(F_EXP, 1, 9, c2)
    assert v1 == v2
    assert type(v1) is c1.mp.mpf and type(v2) is c2.mp.mpf
    rep = invert_ladder(F_EXP, 1, 9, ctx=c2)
    assert all(type(e.value) is c2.mp.mpf for e in rep.entries)


def test_via_gaver_never_reads_coefficient_vector(monkeypatch):
    ctx = context_for_order(8)
    expected = stehfest_via_gaver(F_EXP, 1, 8, ctx)

    class Forbidden:
        def get(self, key, build):
            if key[0] == "a_k":
                raise AssertionError("a_k vector read by the witness route")
            return numerics._TABLES.get(key, build)

    monkeypatch.setattr(inverter, "_TABLES", Forbidden())
    assert stehfest_via_gaver(F_EXP, 1, 8, ctx) == expected
    with pytest.raises(AssertionError):
        stehfest_approx(F_EXP, 1, 8, ctx)
    monkeypatch.undo()

    def forbidden(*args):  # the witness keeps its own loop, so the two sums stay independent
        raise AssertionError("weighted_sum called by the witness route")

    monkeypatch.setattr(inverter, "weighted_sum", forbidden)
    assert stehfest_via_gaver(F_EXP, 1, 8, ctx) == expected
    with pytest.raises(AssertionError):
        stehfest_approx(F_EXP, 1, 8, ctx)


def test_order_beyond_max_fails_before_transform():
    F, seen = counting(F_EXP)
    ctx = context_for_order(64)
    for call in (lambda: invert_ladder(F, 1, 70, ctx=ctx),
                 lambda: stehfest_approx(F, 1, 70, ctx)):
        with pytest.raises(DomainError, match="got 70"):
            call()
    assert seen == []


def test_ladder_failure_carries_first_failing_abscissa(ctx30):
    ln2 = ctx30.mp.ln(2)

    def fragile(z):
        if z > 4.5 * ln2:  # fails from the abscissa j = 5 on
            raise ValueError("boom")
        return 1 / z

    with pytest.raises(TransformEvaluationError) as err:
        invert_ladder(TransformFn(fragile, "fragile"), 1, 6, ctx=ctx30)
    assert err.value.z == 5 * ln2


def test_transform_failure_carries_abscissa(ctx30):
    def bad(z):
        raise ValueError("boom")

    with pytest.raises(TransformEvaluationError) as err:
        stehfest_approx(TransformFn(bad, "bad"), 1, 2, ctx30)
    assert err.value.z is not None


ROUTES = {
    "stehfest_approx": lambda F, ctx: stehfest_approx(F, 1, 4, ctx),
    "stehfest_via_gaver": lambda F, ctx: stehfest_via_gaver(F, 1, 4, ctx),
    "invert_ladder": lambda F, ctx: invert_ladder(F, 1, 4, ctx=ctx),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("value", [None, "1", object()], ids=["None", "str", "object"])
def test_transform_value_that_is_not_a_number_raises_domain_error(ctx30, route, value):
    with pytest.raises(DomainError, match=r"transform value at z = 0\.6931.* is not a number"):
        ROUTES[route](TransformFn(lambda z: value, "bad"), ctx30)


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_transform_values_other_than_mpf_pass_unchanged(ctx30, route):
    # an int, a Fraction or an mpc value is a number: the operators convert it
    for value in (3, Fraction(1, 3), ctx30.mp.mpc(1, 2)):
        ROUTES[route](TransformFn(lambda z: value, "number"), ctx30)


def test_equivalence_probe_constant_zero(ctx30):
    f = lambda t: t.context.mpf("2.5")
    for n in (5, 20):
        val = equivalence_probe(f, 1, ctx30.mpf("2.5"), ctx30.mpf("0.2"), n, ctx30)
        assert abs(val) <= 10 * ctx30.eps


def test_equivalence_probe_exponential_decreases(ctx30):
    fx = load_fixture("equivalence_probe.json")
    m = ctx30.mp
    f = lambda t: t.context.exp(-t)
    vals = {}
    for n in (20, 40, 80):
        vals[n] = equivalence_probe(f, 1, m.exp(-1), m.mpf("0.2"), n, ctx30)
        oracle = ctx30.mpf(fx["values"][str(n)])
        assert abs(vals[n] - oracle) <= m.mpf("1e-9")
    assert abs(vals[80]) < abs(vals[40]) < abs(vals[20])


def test_equivalence_probe_step_vanishes(ctx30):
    step = get_pair("step")
    m = ctx30.mp
    for n in (20, 80):
        val = equivalence_probe(step.f_ref, 1, m.mpf(1) / 2, m.mpf("0.2"), n, ctx30)
        assert abs(val) <= m.mpf(10) ** (-(ctx30.digits - ctx30.guard))


def test_equivalence_probe_domain(ctx30):
    with pytest.raises(DomainError):
        equivalence_probe(lambda t: t, 1, 0, ctx30.mpf("0.3"), 5, ctx30)


def _xi_keys():
    return [key for key in numerics._TABLES._data if key[0] == "xi"]


@pytest.mark.parametrize("name, c, nodes", [("step", "0.5", 37), ("exponential", "1/e", 576)])
def test_equivalence_probe_solves_xi_once_per_node(ctx30, monkeypatch, name, c, nodes):
    import gsinv.lambertw as lambertw

    f = get_pair(name).f_ref
    m = ctx30.mp
    c = m.exp(-1) if c == "1/e" else m.mpf(c)  # f(1): f is continuous there, or 1/2 at the jump
    probe = lambda n: equivalence_probe(f, 1, c, m.mpf("0.2"), n, ctx30)
    ns = (20, 40, 80)
    fresh = []
    for n in ns:  # the table cleared before every call
        numerics._TABLES.cache_clear()
        fresh.append(probe(n)._mpf_)
    calls = []
    real = lambertw.xi_alpha
    monkeypatch.setattr(lambertw, "xi_alpha", lambda v, ctx: calls.append(v) or real(v, ctx))
    numerics._TABLES.cache_clear()
    cold = [probe(n)._mpf_ for n in ns]
    assert len(calls) == len(set(calls)) == nodes  # every order reads the same nodes
    warm = [probe(n)._mpf_ for n in ns]
    assert len(calls) == nodes
    assert cold == warm == fresh
    assert _xi_keys() == [("xi", m.mpf("0.2")._mpf_, ctx30.digits, ctx30.guard)]


def test_equivalence_probe_rejected_call_stores_no_table(ctx30):
    numerics._TABLES.cache_clear()
    with pytest.raises(DomainError):
        equivalence_probe(lambda t: t, 1, 0, ctx30.mpf("0.3"), 5, ctx30)
    assert _xi_keys() == []


def test_equivalence_probe_tables_are_keyed_by_digits_and_guard():
    # equal binary precision, but lambert_w0 bounds its residual by digits and guard
    a, b = PrecisionContext(30, 10), PrecisionContext(35, 5)
    assert a.mp.prec == b.mp.prec
    numerics._TABLES.cache_clear()
    for ctx in (a, b):
        equivalence_probe(lambda t: t.context.exp(-t), 1, ctx.mp.exp(-1), "0.2", 20, ctx)
    assert sorted(_xi_keys()) == [("xi", a.mpf("0.2")._mpf_, 30, 10),
                                  ("xi", b.mpf("0.2")._mpf_, 35, 5)]


def _ladder_values(F, x, n, ctx):
    return [e.value for e in invert_ladder(F, x, n, ctx=ctx).entries]


def test_thread_safety_across_contexts():
    # operations are pure given an explicit context; concurrent ladders on
    # distinct contexts must reproduce the serial results exactly, also
    # when the threads race to fill the process-wide coefficient cache.
    # Step and square wave keep their exp(-z) progression in each call's
    # abscissa cache, and the root its progression, whose table is built
    # once per precision: their ladders at n = 48 race as well
    from concurrent.futures import ThreadPoolExecutor

    jobs = []
    for digits in (25, 35):
        ctx = PrecisionContext(digits)
        for pair in corpus()[:4]:
            for n in (4, 6):
                jobs.append(functools.partial(stehfest_approx, pair.F, 1, n, ctx))
    ctx = PrecisionContext(context_for_order(48).digits)
    for name in ("step", "square-wave", "root"):
        for x in ("0.7", "3"):
            jobs.append(functools.partial(_ladder_values, get_pair(name).F, x, 48, ctx))
    serial = [job() for job in jobs]
    numerics._TABLES.cache_clear()
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda job: job(), jobs))
    assert serial == threaded


@pytest.mark.parametrize("x", ["inf", float("inf"), "nan", "-inf"])
@pytest.mark.parametrize("route", ["stehfest", "ladder", "gaver"])
def test_non_finite_point_is_rejected_before_any_transform_call(x, route):
    ctx = context_for_order(4)
    seen = []
    F = TransformFn(lambda z: seen.append(z) or 1 / z, "1/z")
    call = {
        "stehfest": lambda: stehfest_approx(F, x, 4, ctx),
        "ladder": lambda: invert_ladder(F, x, 4, ctx=ctx),
        "gaver": lambda: gaver_approx(F, x, 4, ctx),
    }[route]
    with pytest.raises(DomainError, match="x = "):
        call()
    assert seen == []


# Properties over random rationals, points and orders <= 8 (settings in conftest.py).
_INV_CTX = (context_for_order(8), PrecisionContext(40))
_contexts = st.sampled_from(range(len(_INV_CTX))).map(lambda i: _INV_CTX[i])
_orders = st.integers(1, 8)
_points = st.integers(1, 160).map(lambda i: Fraction(i, 16))  # x in (0, 10]
_rationals = st.builds(Fraction, st.integers(-10**4, 10**4), st.integers(1, 10**4))
_smooth = [p.F for p in corpus() if p.klass == "smooth"]


def _tol(ctx):
    return ctx.mp.mpf(10) ** (-(ctx.digits - ctx.guard))


@given(_contexts, _orders, _points, st.sampled_from(_smooth), st.sampled_from(_smooth),
       _rationals, _rationals)
def test_stehfest_is_linear_in_F(ctx, n, x, F1, F2, a, b):
    A, B = ctx.mpf(a), ctx.mpf(b)
    G = TransformFn(lambda z: A * F1(z) + B * F2(z), "a F1 + b F2")
    f1, f2 = stehfest_approx(F1, x, n, ctx), stehfest_approx(F2, x, n, ctx)
    scale = 1 + abs(A * f1) + abs(B * f2)
    assert abs(stehfest_approx(G, x, n, ctx) - (A * f1 + B * f2)) <= _tol(ctx) * scale


@given(st.sampled_from(corpus()), st.integers(1, 64), _points,
       st.builds(Fraction, st.integers(1, 1000), st.integers(1, 1000)))
def test_scale_covariance(pair, n, x, a):
    # F(z/a)/a is the transform of f(a t): both routes read F at k ln2/(a x)
    ctx = context_for_order(n)
    A = ctx.mpf(a)
    G = TransformFn(lambda z: pair.F(z / A) / A, "F(z/a)/a")
    expected = stehfest_approx(pair.F, ctx.mpf(a * x), n, ctx)
    assert abs(stehfest_approx(G, x, n, ctx) - expected) <= _tol(ctx) * max(1, abs(expected))


@given(_contexts, _orders, _points, _rationals)
def test_c_over_z_inverts_to_c(ctx, n, x, c):
    C = ctx.mpf(c)
    F = TransformFn(lambda z: C / z, "c/z")
    assert abs(stehfest_approx(F, x, n, ctx) - C) <= _tol(ctx)


_bad_points = st.one_of(
    st.integers(-10**6, 0),
    st.floats(max_value=0, allow_nan=False),
    st.sampled_from(["inf", "-inf", "nan", float("inf"), float("nan")]),
)
_bad_calls = st.one_of(
    st.tuples(st.sampled_from([-1, 0, 65]), st.one_of(_points, _bad_points)),
    st.tuples(_orders, _bad_points),
)


@given(st.sampled_from(["stehfest", "ladder", "gaver"]), _bad_calls)
def test_out_of_range_order_or_point_raises_only_domain_error(route, call):
    n, x = call
    ctx = _INV_CTX[0]
    seen = []
    F = TransformFn(lambda z: seen.append(z) or 1 / z, "1/z")
    run = {
        "stehfest": lambda: stehfest_approx(F, x, n, ctx),
        "ladder": lambda: invert_ladder(F, x, n, ctx=ctx),
        "gaver": lambda: gaver_approx(F, x, n, ctx),
    }[route]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning before the error is something else
        with pytest.raises(DomainError):
            run()
    assert seen == []


def _operator_loop(F, x, n, ctx):
    # the weighted sum through mpf operators, as stehfest_approx summed it
    # before it ran on raw tuples
    m = ctx.mp
    base = m.ln(2) / ctx.mpf(x)
    acc = m.mpf(0)
    for k, a_k in enumerate(gaver_stehfest_coeffs(n).a, start=1):
        acc += ctx.mpf(a_k) * F(k * base)
    return base * acc


def _raw(v):
    return (type(v).__name__, v._mpc_ if hasattr(v, "_mpc_") else v._mpf_)


@pytest.mark.parametrize("special", ["inf", "-inf", "nan", "inf and -inf"])
@pytest.mark.parametrize("where", [1, 3, 16])
def test_stehfest_sum_with_infinite_or_nan_values_matches_operator_loop(special, where):
    # an mpf user transform that is special at abscissa `where` (of 16) and finite elsewhere
    ctx = context_for_order(8)
    m = ctx.mp
    base = m.ln(2)
    values = {"inf": [m.inf], "-inf": [m.ninf], "nan": [m.nan], "inf and -inf": [m.inf, m.ninf]}
    at = dict(zip((where, where % 16 + 1), values[special]))  # abscissa k -> its value

    def f(z):
        k = int(m.nint(z / base))
        return at[k] if k in at else 1 / (z + 1)

    got = stehfest_approx(TransformFn(f), 1, 8, ctx)
    assert not m.isfinite(got)
    assert _raw(got) == _raw(_operator_loop(f, 1, 8, ctx))


@pytest.mark.parametrize("n", [1, 7, 16, 48])
def test_stehfest_sum_bits_match_operator_loop(n):
    ctx = context_for_order(n)
    m = ctx.mp
    foreign = PrecisionContext(50, 7)
    transforms = {
        "own mpf": lambda z: 1 / (z + 1),
        "own mpf, constant": lambda z: z.context.pi / z,
        "foreign mpf": lambda z: 1 / (foreign.mpf(z) + 1),
        "int": lambda z: 1,
        "float": lambda z: 1 / (float(z) + 1),
        "int and mpf": lambda z: 1 if z < 1 else 1 / z,
        "mpc": lambda z: 1 / (z + m.mpc(1, 2)),
        "complex": lambda z: 1 / (complex(z) + 1j),
        # the corpus evaluators: stehfest_approx runs their batches
        **{pair.name: pair.F.eval for pair in corpus()},
    }
    for label, f in transforms.items():
        for x in ("0.3", "1", "2.75"):
            got = stehfest_approx(TransformFn(f, label), x, n, ctx)
            assert _raw(got) == _raw(_operator_loop(f, x, n, ctx)), (label, x)
