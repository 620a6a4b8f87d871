from fractions import Fraction

import pytest

import gsinv.pairs
from gsinv import (
    DomainError,
    PrecisionContext,
    TransformFn,
    context_for_order,
    corpus,
    get_pair,
    invert_ladder,
    jordan_target,
    run_pair,
)
from gsinv.pairs import dini_integral_estimate, laplace_identity_residual


def test_corpus_contents():
    names = {p.name: p for p in corpus()}
    assert set(names) == {
        "constant",
        "ramp",
        "exponential",
        "root",
        "step",
        "square-wave",
        "sine",
    }
    assert names["sine"].oscillatory_flag
    assert names["step"].jumps[0][0] == Fraction(1)
    assert names["constant"].klass == "smooth"
    with pytest.raises(DomainError):
        get_pair("nope")


def test_corpus_is_built_once_per_transform_constructor(monkeypatch):
    built = corpus()
    assert corpus() is built
    assert get_pair("square-wave") is built[5]
    labels = []

    def counting(eval, label=""):
        labels.append(label)
        return TransformFn(eval, label)

    # a constructor patched into the module (as a tracer does) builds the pairs
    monkeypatch.setattr(gsinv.pairs, "TransformFn", counting)
    patched = corpus()
    assert corpus() is patched and patched is not built
    assert labels == [p.formula for p in built]


def test_jordan_targets(ctx30):
    m = ctx30.mp
    assert jordan_target(get_pair("step"), 1, ctx30) == m.mpf(1) / 2
    assert abs(jordan_target(get_pair("exponential"), 1, ctx30) - m.exp(-1)) <= ctx30.eps
    assert jordan_target(get_pair("ramp"), 2, ctx30) == 2
    assert jordan_target(get_pair("square-wave"), 3, ctx30) == m.mpf(1) / 2
    assert jordan_target(get_pair("square-wave"), ctx30.mpf("2.5"), ctx30) == 1


@pytest.mark.parametrize("x", [81, 82, 100])
def test_square_wave_target_is_the_midpoint_beyond_the_listed_jumps(ctx30, x):
    # jumps lists 1..80; the reference itself must give 1/2 at a later jump
    pair = get_pair("square-wave")
    assert max(loc for loc, _, _ in pair.jumps) < x
    assert jordan_target(pair, x, ctx30) == ctx30.mp.mpf(1) / 2
    assert jordan_target(pair, ctx30.mpf(x) + ctx30.mpf("0.5"), ctx30) == (x + 1) % 2


def test_laplace_identity_all_pairs():
    # each pair's evaluator really is the transform of its original
    ctx = PrecisionContext(18)
    tol = ctx.mp.mpf(10) ** (-(ctx.digits - ctx.guard + 2))
    for pair in corpus():
        for z in (1, 2, 5):
            resid = laplace_identity_residual(pair, ctx.mpf(z), ctx)
            assert resid <= tol, (pair.name, z, ctx.nstr(resid, 4))


def test_dini_constant_zero(ctx20):
    est = dini_integral_estimate(get_pair("constant"), 1, 1, ctx20.mpf("0.2"), ctx20)
    assert abs(est.value) <= 10 * ctx20.eps
    assert not est.divergent


def test_dini_exponential_convergent(ctx20):
    m = ctx20.mp
    est = dini_integral_estimate(get_pair("exponential"), 1, m.exp(-1), m.mpf("0.2"), ctx20)
    assert est.value < 1
    assert not est.divergent


def test_dini_step_wrong_target_diverges(ctx20):
    est = dini_integral_estimate(get_pair("step"), 1, 0, ctx20.mpf("0.2"), ctx20)
    # integrand tends to 1/v: the estimate grows like a log decade per
    # shrink of v_min, which sets the divergence flag
    assert est.divergent
    assert est.value > 10


def test_dini_domain(ctx20):
    with pytest.raises(DomainError):
        dini_integral_estimate(get_pair("constant"), 1, 1, ctx20.mpf("0.3"), ctx20)


def test_run_pair_constant():
    rep = run_pair(get_pair("constant"), 1, 6)
    for e in rep.entries:
        assert e.abs_error <= 10 ** -(rep.digits_used - 15)


def test_run_pair_step_midpoint():
    rep = run_pair(get_pair("step"), 1, 18)
    ctx = context_for_order(18)
    e6, e18 = rep.entries[5].abs_error, rep.entries[17].abs_error
    assert e18 < ctx.mpf("0.05")
    assert e18 < e6


def test_run_pair_step_continuity_point():
    rep = run_pair(get_pair("step"), 2, 12)
    errs = [e.abs_error for e in rep.entries]
    assert errs[11] < errs[3]
    assert errs[11] < 0.01


def test_smooth_pairs_monotone_from_4():
    for name in ("ramp", "exponential", "root"):
        rep = run_pair(get_pair(name), 1, 12)
        errs = [e.abs_error for e in rep.entries]
        for e1, e2 in zip(errs[3:], errs[4:]):
            assert e2 < e1, name


def test_square_wave_running():
    rep = run_pair(get_pair("square-wave"), 1, 18)
    errs = [e.abs_error for e in rep.entries]
    assert errs[17] < errs[5]
    rep2 = run_pair(get_pair("square-wave"), Fraction(1, 2), 18)
    assert rep2.entries[17].abs_error < 0.01


def test_localization():
    # originals agreeing near x produce ladders that merge as n grows:
    # add a bump supported on (2, 3) and evaluate at x = 1/2
    ctx = context_for_order(16)
    m = ctx.mp
    base = get_pair("exponential").F
    bumped = TransformFn(
        lambda z: base(z) + (z.context.exp(-2 * z) - z.context.exp(-3 * z)) / z,
        "1/(z+1) + bump(2,3)",
    )
    deltas = {}
    for n in (4, 8, 16):
        a = invert_ladder(base, ctx.mpf(1) / 2, n, ctx=ctx).entries[-1].value
        b = invert_ladder(bumped, ctx.mpf(1) / 2, n, ctx=ctx).entries[-1].value
        deltas[n] = abs(a - b)
    assert deltas[16] < deltas[8] < deltas[4]
    assert deltas[16] < m.mpf("1e-4")


def test_oscillatory_flagged_but_usable():
    pair = get_pair("sine")
    assert pair.oscillatory_flag
    rep = run_pair(pair, 1, 10)
    assert rep.entries[9].abs_error < 1e-3  # entire original: fine at x=1
