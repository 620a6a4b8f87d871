"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Each criterion is defined once, as a ``check_*`` function of
``gsinv.verify``; these tests call it on the acceptance grid.  Only the
oracle-fixture re-pins of criteria 4 and 5, the runtime bounds of
criteria 1 and 6 and criterion 8 live here.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the lines.  Criterion 8
is implemented faithfully and expected to fail; see the module-level
comment at that test for the measured numbers.
"""
import time
from fractions import Fraction

import pytest

from gsinv import PrecisionContext, context_for_order, get_pair, qn_jump_form_check, run_pair
from gsinv import verify
from conftest import load_fixture


def _line(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:2d} ({name}): {status}  {detail}")
    return ok


def _accept(num: int, *reports, ok: bool = True, detail: str = ""):
    ok = ok and all(r["status"] == "pass" for r in reports)
    metrics = "; ".join(f"{r['check']} {r['metrics']}" for r in reports)
    return _line(num, reports[0]["check"], ok, f"{metrics} {detail}")


def _timed(check, **grid):
    t0 = time.monotonic()
    report = check(**grid)
    return report, time.monotonic() - t0


def _repins_oracle_ladder(fixture, pair, n_max, ns):
    # the ladder errors agree with the committed 100-digit oracle ladder
    fx = load_fixture(fixture)
    ctx = context_for_order(n_max)
    rep = run_pair(get_pair(pair), 1, n_max, ctx)
    for n in ns:
        oracle = ctx.mpf(fx["errors"][str(n)])
        if not abs(rep.entries[n - 1].abs_error - oracle) <= ctx.mpf("1e-9") * oracle:
            return False
    return True


def test_criterion_01_coefficient_identities():
    report, elapsed = _timed(verify.check_coefficient_identities)
    assert _accept(1, report, ok=elapsed < 10, detail=f"runtime {elapsed:.2f}s")


def test_criterion_02_constant_exactness():
    report = verify.check_constant_exactness(n_max=12, xs=("1/2", "1", "2"))
    assert _accept(2, report)


def test_criterion_03_two_path_agreement():
    report = verify.check_two_path_agreement(ns=range(1, 11), xs=("1/2", "1", "2"))
    assert _accept(3, report)


def test_criterion_04_smooth_convergence():
    ok = _repins_oracle_ladder("smooth_ladder.json", "exponential", 14, (4, 14))
    assert _accept(4, verify.check_smooth_convergence(), ok=ok)


def test_criterion_05_jump_midpoint():
    ok = _repins_oracle_ladder("step_ladder.json", "step", 18, (6, 18))
    assert _accept(5, verify.check_jump_midpoint(), ok=ok)


def test_criterion_06_generating_function():
    report, elapsed = _timed(verify.check_generating_function_identity, cases=((20, "1/3"),))
    assert _accept(6, report, ok=elapsed < 60, detail=f"runtime {elapsed:.2f}s")


def test_criterion_07_qn_at_one_refinement():
    assert _accept(7, verify.check_qn_at_one_refined())


# The jump-form criterion is implemented faithfully and fails: the form
# drops a term oscillating like cos(n alpha)/3 * |xi|^-n, which the paper
# absorbs into O(xi^-n).  That term does not shrink relative to the kept
# sin term, and at the stated grid sin(n alpha(v)) passes near zero
# crossings (e.g. sin(200 alpha(0.05)) ~ 0.065), giving measured relative
# errors at n=200 of ~0.42 / 0.15 / 0.15 for v = 0.05 / 0.1 / 0.2 and no
# monotone decrease in n.  The claim the paper does make (difference
# uniformly below C |xi|^-n with stable C ~ 0.15) is verified in
# test_qpoly.py::test_jump_form_bound_and_stability.  See the decisions
# ledger for the full analysis.
@pytest.mark.xfail(strict=True, reason="spec defect: pointwise relative error "
                   "of the sin-form is not implied by the paper's O(xi^-n) bound")
def test_criterion_08_oscillatory_asymptotics():
    ctx = PrecisionContext(30)
    ok = True
    details = []
    for vs in ("0.05", "0.1", "0.2"):
        rels = []
        for n in (50, 100, 200):
            chk = qn_jump_form_check(n, Fraction(vs), ctx)
            rels.append(chk.difference / abs(chk.q_value))
        ok &= rels[2] <= ctx.mpf("0.1")
        ok &= rels[0] > rels[1] > rels[2]
        details.append(f"v={vs}: " + "/".join(ctx.nstr(r, 3) for r in rels))
    assert _line(8, "oscillatory asymptotics", ok, "; ".join(details))


def _cut_linspace(m, i):
    # 200 evenly spaced cut points from -1/e - 0.1 to -40
    return -m.exp(-1) - m.mpf("0.1") - (m.mpf(40) - m.exp(-1) - m.mpf("0.1")) * i / 199


def test_criterion_09_lambert_w():
    identity = verify.check_lambertw_defining_identity(seed=2468, cut=_cut_linspace)
    assert _accept(9, identity, verify.check_lambertw_branch_values())


def test_criterion_10_integral_representation():
    assert _accept(10, verify.check_integral_representation())


def test_criterion_11_decay_bound():
    assert _accept(11, verify.check_decay_bound())


def test_criterion_12_equivalence_probe():
    assert _accept(12, verify.check_equivalence_probe())
