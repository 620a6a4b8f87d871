"""Verification checks behind the ``verify`` subcommand and the acceptance suite.

Each criterion is defined once, as a ``check_*`` function returning one
report ``{"check", "status", "metrics", "grid"}`` with metric values
serialized as decimal strings, so reports diff cleanly between runs.  A
check whose acceptance grid is larger than its ``verify`` grid takes the
grid points that differ as keyword arguments, defaulting to the quick
``verify`` grid; ``tests/test_acceptance.py`` calls the same checks on
the acceptance grids.  A check that raises one of the package's
numerical errors reports a failure carrying the error text.
"""
from __future__ import annotations

import functools
import random
from fractions import Fraction

from mpmath.libmp import (fone, from_float, fzero, mpc_abs, mpf_abs, mpf_div, mpf_gt, mpf_lt,
                          round_nearest)

from .coeffs import (MAX_ORDER, coeffs_from_weights, gaver_stehfest_coeffs, stehfest_weights,
                     vandermonde_check)
from .errors import NUMERICAL_ERRORS, DomainError
from .inverter import equivalence_probe, stehfest_approx, stehfest_via_gaver
from .lambertw import _wew_residual, in_region_a, lambert_w0, xi_alpha
from .numerics import cached_context, context_for_order
from .pairs import corpus, get_pair, run_pair
from .qpoly import (decay_bound_probe, genfun_identity_check, integral_representation_check,
                    qn_at_one_asymptotic, qn_eval, qn_jump_form_check)


def _check(name):
    """Make ``fn -> (ok, metrics, grid)`` a check reporting as ``name``."""

    def wrap(fn):
        @functools.wraps(fn)
        def check(**grid):
            try:
                ok, metrics, shown = fn(**grid)
            except NUMERICAL_ERRORS as exc:
                ok, metrics, shown = False, {"error": f"{type(exc).__name__}: {exc}"}, {}
            return {"check": name, "status": "pass" if ok else "fail", "metrics": metrics,
                    "grid": shown}

        return check

    return wrap


@_check("coefficient-identities")
def check_coefficient_identities():
    bad = []
    for n in range(1, 16):
        if not vandermonde_check(stehfest_weights(n)):
            bad.append(n)
        a = gaver_stehfest_coeffs(n).a
        if sum(ak / Fraction(k) for k, ak in enumerate(a, start=1)) != 1:
            bad.append(n)
    cross_bad = [n for n in range(1, 13) if coeffs_from_weights(n) != gaver_stehfest_coeffs(n)]
    return (not bad and not cross_bad,
            {"failures": bad, "cross_construction_failures": cross_bad},
            {"n": "1..15", "cross_construction_n": "1..12"})


@_check("generating-function-identity")
def check_generating_function_identity(cases=((20, "1/3"), (12, "1/2"), (12, "1"))):
    ok = all(genfun_identity_check(n, v) for n, v in cases)
    return ok, {"exact": ok}, {"n_max": max(n for n, _ in cases), "v": [v for _, v in cases]}


def _cut_from_branch_point(m, i):
    return m.mpc(-m.exp(-1) - i * m.mpf("0.198"), 0)


@_check("lambertw-defining-identity")
def check_lambertw_defining_identity(seed=20240901, cut=_cut_from_branch_point):
    """Scaled residuals at 800 random points off the cut and 200 on it.

    ``cut(m, i)`` is the i-th cut point; each random point's W must also
    lie in the principal-branch range A.  The per-point arithmetic runs on
    raw tuples with the bits of the operator forms ``m.mpc(x, y)``,
    ``abs(z.imag) < near_cut``, ``wew_residual(w, z, ctx) / max(abs(z), 1)``
    and ``max(worst, scaled)``.
    """
    ctx = cached_context(30)
    m = ctx.mp
    prec = m.prec
    tol = m.mpf(10) ** (-(ctx.digits - 5))
    region_tol = float(tol)
    rng = random.Random(seed)
    near_cut = m.mpf("1e-3")._mpf_
    worst, outside_a, count = fzero, 0, 0

    def record(w, zc):  # worst = max(worst, |w e^w - z| / max(|z|, 1))
        nonlocal worst
        az = mpc_abs(zc, prec, round_nearest)
        scale = fone if mpf_gt(fone, az) else az
        scaled = mpf_div(_wew_residual(w._mpc_, zc, prec), scale, prec, round_nearest)
        if mpf_gt(scaled, worst):
            worst = scaled

    while count < 800:
        x, y = rng.uniform(-10, 10), rng.uniform(-10, 10)
        zc = (from_float(x), from_float(y))
        if x < 0 and mpf_lt(mpf_abs(zc[1]), near_cut):
            continue
        w = lambert_w0(m.make_mpc(zc), ctx)
        record(w, zc)
        outside_a += not in_region_a(w, tol=region_tol)
        count += 1
    for i in range(200):
        z = cut(m, i)  # an mpc or an mpf
        record(lambert_w0(z, ctx), m.mpc(z)._mpc_)
    worst = m.make_mpf(worst)
    return (worst <= tol and not outside_a,
            {"worst_scaled_residual": ctx.nstr(worst, 6), "tolerance": ctx.nstr(tol, 3)},
            {"random_points": 800, "cut_points": 200, "digits": ctx.digits})


@_check("lambertw-branch-values")
def check_lambertw_branch_values():
    ctx = cached_context(30)
    m = ctx.mp
    w2e = abs(lambert_w0(m.mpf(-2) / m.e, ctx))
    _, alpha = xi_alpha(m.mpf("0.01"), ctx)
    coeff = (alpha - 2 * m.sqrt(2) * m.mpf("0.01")) / m.mpf("1e-6")
    target = 14 * m.sqrt(2) / 9
    ok = abs(w2e - m.mpf("1.2508")) <= m.mpf("1e-3") and abs(coeff / target - 1) <= m.mpf("0.01")
    return ok, {"abs_W_minus_2_over_e": ctx.nstr(w2e, 10),
                "alpha_cubic_coefficient": ctx.nstr(coeff, 8),
                "alpha_cubic_target": ctx.nstr(target, 8)}, {}


@_check("qn-at-one-refined")
def check_qn_at_one_refined():
    """n^3-scaled residuals of the refined q_n(1) asymptotic stay bounded."""
    ctx = cached_context(40)
    resid = {n: abs(qn_eval(n, 1, ctx) - qn_at_one_asymptotic(n, ctx)) * n**3
             for n in (50, 100, 150, 200)}
    return (max(resid.values()) <= 2 * resid[50],
            {str(n): ctx.nstr(r, 8) for n, r in resid.items()}, {"n": [50, 100, 150, 200]})


@_check("qn-jump-form-bound")
def check_qn_jump_form_bound():
    """The jump-form difference is a fitted, n-stable multiple of |xi|^-n."""
    ctx = cached_context(40)
    vs, ns = ("0.05", "0.1", "0.2"), (50, 100, 200)
    cmax = max(chk.difference / chk.decay
               for chk in (qn_jump_form_check(n, Fraction(v), ctx) for v in vs for n in ns))
    return (cmax <= ctx.mpf("0.5"), {"max_fitted_C": ctx.nstr(cmax, 6), "bound": "0.5"},
            {"v": list(vs), "n": list(ns)})


@_check("integral-representation")
def check_integral_representation():
    """The integral form's kernel is the summation form's, exactly, at every order."""
    bad = [n for n in range(1, MAX_ORDER + 1) if not integral_representation_check(n)]
    return not bad, {"failures": bad}, {"n": f"1..{MAX_ORDER}"}


@_check("decay-bound")
def check_decay_bound():
    ctx = cached_context(25)
    fit = decay_bound_probe(ctx.mpf("0.1"), range(10, 41), ctx)
    return (fit.b > 1 and fit.residual <= ctx.mpf("0.05"),
            {"C": ctx.nstr(fit.C, 8), "b": ctx.nstr(fit.b, 8),
             "envelope_residual": ctx.nstr(fit.residual, 4)},
            {"epsilon": "0.1", "n": "10..40"})


@_check("constant-exactness")
def check_constant_exactness(n_max=10, xs=("1",)):
    """c/z inverts to c within the guard digits at orders 1..n_max."""
    ctx = context_for_order(n_max)
    tol = ctx.mp.mpf(10) ** (-(ctx.digits - ctx.guard))
    worst = max(abs(stehfest_approx(lambda z, c=c: c / z, ctx.mpf(Fraction(x)), n, ctx) - c)
                for c in (ctx.mpf(Fraction(s)) for s in ("1", "-3", "1/7"))
                for x in xs for n in range(1, n_max + 1))
    return (worst <= tol, {"worst_error": ctx.nstr(worst, 6), "tolerance": ctx.nstr(tol, 3)},
            {"c": ["1", "-3", "1/7"], "x": list(xs), "n": f"1..{n_max}"})


@_check("two-path-agreement")
def check_two_path_agreement(ns=(2, 5, 8), xs=("1",)):
    """The a_k summation and the Gaver-functional route agree on every pair."""
    ctx = context_for_order(max(ns))
    tol = ctx.mp.mpf(10) ** (-(ctx.digits - ctx.guard - 2))
    pairs = corpus()
    worst = max(abs(stehfest_approx(p.F, x, n, ctx) - stehfest_via_gaver(p.F, x, n, ctx))
                for p in pairs for x in (ctx.mpf(Fraction(s)) for s in xs) for n in ns)
    return (worst <= tol, {"worst_delta": ctx.nstr(worst, 6), "tolerance": ctx.nstr(tol, 3)},
            {"pairs": [p.name for p in pairs], "n": list(ns), "x": list(xs)})


@_check("smooth-convergence")
def check_smooth_convergence():
    ctx = context_for_order(14)
    rep = run_pair(get_pair("exponential"), 1, 14, ctx)
    e4, e14 = rep.entries[3].abs_error, rep.entries[13].abs_error
    return (e14 <= ctx.mpf("1e-6") and e4 >= 10**4 * e14,
            {"error_n4": ctx.nstr(e4, 6), "error_n14": ctx.nstr(e14, 6)},
            {"pair": "exponential", "x": "1"})


@_check("jump-midpoint")
def check_jump_midpoint():
    ctx = context_for_order(18)
    rep = run_pair(get_pair("step"), 1, 18, ctx)
    e6, e18 = rep.entries[5].abs_error, rep.entries[17].abs_error
    return (e18 < ctx.mpf("0.05") and e18 < e6,
            {"error_n6": ctx.nstr(e6, 6), "error_n18": ctx.nstr(e18, 6)},
            {"pair": "step", "x": "1"})


@_check("equivalence-probe")
def check_equivalence_probe():
    """At the step's own midpoint the probe falls (non-strictly) below the floor."""
    ctx = cached_context(30)
    m = ctx.mp
    f = get_pair("step").f_ref
    ns = (20, 40, 80)
    vals = [abs(equivalence_probe(f, m.mpf(1), m.mpf(1) / 2, m.mpf("0.2"), n, ctx)) for n in ns]
    floor = m.mpf(10) ** (-(ctx.digits - ctx.guard))
    falls = all(b <= a + floor for a, b in zip(vals, vals[1:]))
    return (falls and vals[-1] <= floor, {str(n): ctx.nstr(v, 6) for n, v in zip(ns, vals)},
            {"pair": "step", "x": "1", "c": "1/2", "eps": "0.2"})


def _suite(*checks):
    return lambda: [check() for check in checks]


SUITES = {
    "vandermonde": _suite(check_coefficient_identities),
    "genfun": _suite(check_generating_function_identity),
    "lambertw": _suite(check_lambertw_defining_identity, check_lambertw_branch_values),
    "qn-asymptotics": _suite(check_qn_at_one_refined, check_qn_jump_form_bound),
    "integral-rep": _suite(check_integral_representation),
    "decay-bound": _suite(check_decay_bound),
    "corpus": _suite(check_constant_exactness, check_two_path_agreement,
                     check_smooth_convergence, check_jump_midpoint, check_equivalence_probe),
}


def run_suites(names) -> tuple[list[dict], bool]:
    """Run the named suites; returns (reports, all_passed).

    ``"all"`` (or ``None``) stands for every suite, wherever it appears in
    ``names``; each suite runs at most once, in order of first appearance.

    Raises
    ------
    DomainError
        If a name is not a suite, or ``names`` is empty, before any suite runs.
    """
    if names is None or isinstance(names, str):
        names = [names or "all"]
    expanded = [suite for name in names for suite in (SUITES if name == "all" else (name,))]
    if not expanded:
        raise DomainError(f"no suite named; choose from {sorted(SUITES)} or 'all'")
    for name in expanded:
        if name not in SUITES:
            raise DomainError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    reports = [report for name in dict.fromkeys(expanded) for report in SUITES[name]()]
    return reports, all(r["status"] == "pass" for r in reports)
