#!/usr/bin/env python3
"""Mutation gate: each listed fault must fail the tests named with it.

For each mutant, copies ``src/`` to a temporary directory, replaces one
exact piece of source text (it must occur exactly once), runs the named
tests against the copy and prints ``caught`` or ``missed``.  Each
mutant's tests are first run on their own against the unmutated copy,
where they must pass: a test that fails when run alone would count a
mutant caught that it never saw.  Exits 1 if any mutant is missed or its
text is no longer in the source, 2 if its tests fail unmutated or a test
run errors out (collection error, interrupt).  The last line counts the
mutants caught.  Run from anywhere; the repository is found from this
file:

    python3 tools/mutants.py            # every mutant
    python3 tools/mutants.py NAME ...   # the named mutants only

It takes a few minutes and is not part of the test suite.
"""
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent

T_INV = "tests/test_inverter.py::"
T_MAN = "tests/test_mantissa.py::"
T_PAIRS = "tests/test_pairs.py::"
T_W = "tests/test_lambertw.py::"
T_NUM = "tests/test_numerics.py::"
T_Q = "tests/test_qpoly.py::"
T_CLI = "tests/test_cli.py::"
T_CONTRACT = "tests/test_contract.py::"

# name -> (file under src/gsinv, source text, mutated text, tests that must fail)
MUTANTS = {
    "corpus-rounding-mode": (
        "pairs.py",
        "    return lambda js: [_quotient_pos(1, 0, *z, prec) for z in _abscissas(bman, bexp, js, "
        "prec)]\n",
        "    def down(man, exp):  # toward zero\n"
        "        n = man.bit_length() - prec\n"
        "        return (man >> n, exp + n) if n > 0 else (man, exp)\n"
        "    return lambda js: [down(*_quotient_pos(1, 0, *z, prec + 4))\n"
        "                       for z in _abscissas(bman, bexp, js, prec)]\n",
        [T_PAIRS + "test_batch_kernels_have_the_bits_of_their_operator_forms"],
    ),
    "corpus-extra-precision-constant": (
        "pairs.py",
        "mpf_pi(prec, round_nearest)",
        "mpf_pi(prec + 5, round_nearest)",
        [T_PAIRS + "test_batch_kernels_have_the_bits_of_their_operator_forms"],
    ),
    "kernel-round-down": (
        "pairs.py",
        "            out.append(_quotient_pos(1, 0, *_round_pos(zman * dman, zexp + dexp, prec), "
        "prec))\n",
        "            p = zman * dman  # rounded toward zero\n"
        "            n = max(p.bit_length() - prec, 0)\n"
        "            out.append(_quotient_pos(1, 0, p >> n, zexp + dexp + n, prec))\n",
        [T_PAIRS + "test_batch_kernels_have_the_bits_of_their_operator_forms",
         T_PAIRS + "test_kernels_at_far_abscissas_and_the_digits_cap_match_their_operator_forms"],
    ),
    "halley-shift-dropped": (
        "lambertw.py",
        "u * u, 2 * ue + 2, b * b, 2 * be + 2  # |2 (w + 1)|^2",
        "u * u, 2 * ue, b * b, 2 * be  # |2 (w + 1)|^2",
        [T_W + "test_w_bits_match_pinned_fixture",
         T_W + "test_halley_on_tuples_matches_mpc_arithmetic"],
    ),
    "halley-exp-magnitude-at-prec": (
        "lambertw.py",
        "mpf_exp(w[0], prec + 4, round_nearest)",
        "mpf_exp(w[0], prec, round_nearest)",
        [T_W + "test_w_bits_match_pinned_fixture",
         T_W + "test_integer_halley_matches_mpc_arithmetic"],
    ),
    "halley-div-sums-to-nearest": (  # the three sums of q = t / (2 (w + 1))
        "lambertw.py",
        "        ma, mae = ma >> n, mae + n\n"
        "    p, pe, q, qe = tr * u, tre + ue + 1, ti * b, tie + be + 1  # Re t conj(2 (w + 1))\n"
        "    g = pe + p.bit_length() - qe - q.bit_length()\n"
        "    sa, sae = (_unrounded_sum(p, pe, q, qe, wp) if g > wfar or g < -wfar else\n"
        "               (p + (q << qe - pe), pe) if pe < qe else ((p << pe - qe) + q, qe))\n"
        "    n = sa.bit_length() - wp\n"
        "    if n > 0:\n"
        "        sa, sae = sa >> n if sa > 0 else -(-sa >> n), sae + n\n"
        "    p, pe, q, qe = ti * u, tie + ue + 1, -tr * b, tre + be + 1  # Im t conj(2 (w + 1))\n"
        "    g = pe + p.bit_length() - qe - q.bit_length()\n"
        "    ta, tae = (_unrounded_sum(p, pe, q, qe, wp) if g > wfar or g < -wfar else\n"
        "               (p + (q << qe - pe), pe) if pe < qe else ((p << pe - qe) + q, qe))\n"
        "    n = ta.bit_length() - wp\n"
        "    if n > 0:\n"
        "        ta, tae = ta >> n if ta > 0 else -(-ta >> n), tae + n\n",
        "        ma, mae = (ma + (1 << n - 1) - 1 + (ma >> n & 1)) >> n, mae + n\n"
        "    p, pe, q, qe = tr * u, tre + ue + 1, ti * b, tie + be + 1  # Re t conj(2 (w + 1))\n"
        "    g = pe + p.bit_length() - qe - q.bit_length()\n"
        "    sa, sae = (_unrounded_sum(p, pe, q, qe, wp) if g > wfar or g < -wfar else\n"
        "               (p + (q << qe - pe), pe) if pe < qe else ((p << pe - qe) + q, qe))\n"
        "    n = sa.bit_length() - wp\n"
        "    if n > 0:\n"
        "        sa, sae = (sa + (1 << n - 1) - 1 + (sa >> n & 1)) >> n, sae + n\n"
        "    p, pe, q, qe = ti * u, tie + ue + 1, -tr * b, tre + be + 1  # Im t conj(2 (w + 1))\n"
        "    g = pe + p.bit_length() - qe - q.bit_length()\n"
        "    ta, tae = (_unrounded_sum(p, pe, q, qe, wp) if g > wfar or g < -wfar else\n"
        "               (p + (q << qe - pe), pe) if pe < qe else ((p << pe - qe) + q, qe))\n"
        "    n = ta.bit_length() - wp\n"
        "    if n > 0:\n"
        "        ta, tae = (ta + (1 << n - 1) - 1 + (ta >> n & 1)) >> n, tae + n\n",
        [T_W + "test_halley_steps_round_as_libmpc_where_a_rule_decides_a_bit"],
    ),
    "halley-down-sum-to-nearest": (  # one sum of dw = f / d
        "lambertw.py",
        "        sb, sbe = sb >> n if sb > 0 else -(-sb >> n), sbe + n\n",
        "        sb, sbe = (sb + (1 << n - 1) - 1 + (sb >> n & 1)) >> n, sbe + n\n",
        [T_W + "test_halley_steps_round_as_libmpc_where_a_rule_decides_a_bit"],
    ),
    "halley-step-tie-to-even-dropped": (  # w + 1
        "lambertw.py",
        "        u, ue = (u + (1 << n - 1) - 1 + (u >> n & 1)) >> n, ue + n\n",
        "        u, ue = (u + (1 << n - 1) - 1) >> n, ue + n\n",
        [T_W + "test_halley_steps_round_as_libmpc_where_a_rule_decides_a_bit",
         T_W + "test_halley_steps_match_libmpc"],
    ),
    "halley-quotient-sticky-dropped": (  # Re q
        "lambertw.py",
        "        p = -sa if sa < 0 else sa\n"
        "        k = prec + 2 + ma.bit_length() - p.bit_length()\n"
        "        p, r = divmod(p << k, ma) if k >= 0 else divmod(p, ma << -k)\n"
        "        p = p << 1 | (r != 0)\n",
        "        p = -sa if sa < 0 else sa\n"
        "        k = prec + 2 + ma.bit_length() - p.bit_length()\n"
        "        p, r = divmod(p << k, ma) if k >= 0 else divmod(p, ma << -k)\n"
        "        p = p << 1\n",
        [T_W + "test_halley_steps_round_as_libmpc_where_a_rule_decides_a_bit",
         T_W + "test_halley_steps_match_libmpc"],
    ),
    "halley-step-far-sum-bypassed": (  # Re e^w (w + 1): exact across the gap
        "lambertw.py",
        "    hr, hre = (_unrounded_sum(p, pe, q, qe, prec) if g > far or g < -far else\n",
        "    hr, hre = (_unrounded_sum(p, pe, q, qe, prec) if False else\n",
        [T_W + "test_halley_steps_round_as_libmpc_where_a_rule_decides_a_bit"],
    ),
    "wew-far-sum-bypassed": (  # Re w e^w: exact across the gap
        "lambertw.py",
        "    pr, pre = (_unrounded_sum(p, pe, q, qe, prec) if g > far or g < -far else\n",
        "    pr, pre = (_unrounded_sum(p, pe, q, qe, prec) if False else\n",
        [T_W + "test_halley_steps_round_as_libmpc_where_a_rule_decides_a_bit"],
    ),
    "step-tie-to-even-dropped": (
        "mantissa.py",
        "t & 1 and ((t & 2) or a & ((1 << (n - 1)) - 1))",
        "t & 1 and (a & ((1 << (n - 1)) - 1))",
        [T_MAN + "test_mantissa_steps_match_libmp", T_W + "test_w_bits_match_pinned_fixture"],
    ),
    "step-quotient-sticky-dropped": (
        "mantissa.py",
        "q = q << 1 | (r != 0)",
        "q = q << 1",
        [T_MAN + "test_mantissa_steps_match_libmp",
         T_MAN + "test_positive_steps_match_libmp"],
    ),
    "step-sqrt-sticky-dropped": (
        "mantissa.py",
        "root = root << 1 | 1",
        "root = root << 1",
        [T_MAN + "test_mantissa_steps_match_libmp",
         T_MAN + "test_root_progression_has_the_bits_of_the_exact_root"],
    ),
    "step-far-gap-exact": (
        "mantissa.py",
        "    if gap > prec + 4 and _low(xman, xexp) - _low(yman, yexp) > 100:\n"
        "        return (xman << prec + 4) + (1 if yman > 0 else -1), xexp - prec - 4\n"
        "    if gap < -prec - 4 and _low(yman, yexp) - _low(xman, xexp) > 100:\n"
        "        return (yman << prec + 4) + (1 if xman > 0 else -1), yexp - prec - 4\n",
        "",
        [T_MAN + "test_unrounded_sum_takes_the_far_operand_shortcut_where_it_decides_a_bit",
         T_W + "test_halley_steps_round_as_libmpc_where_a_rule_decides_a_bit"],
    ),
    "step-far-gap-unrounded": (  # Re (w - dw)
        "lambertw.py",
        "    n = wr.bit_length() - prec\n",
        "    n = wr.bit_length() - prec if -far <= g <= far else 0\n",
        [T_W + "test_halley_steps_match_libmpc",
         T_W + "test_w_across_a_gap_of_332000_bits_keeps_its_bits_and_is_fast"],
    ),
    "final-conjugation-dropped": (
        "lambertw.py",
        "return m.make_mpc(mpc_conjugate(w, prec, round_nearest))",
        "return m.make_mpc(w)",
        [T_W + "test_w_bits_match_pinned_fixture", T_W + "test_w_conjugate_symmetry"],
    ),
    "eval-in-place-of-call": (
        "inverter.py",
        "value = F(z)",
        "value = F.eval(z)",
        [T_INV + "test_transform_subclass_and_wrapped_eval_see_every_call"],
    ),
    "abscissa-round-down": (
        "mantissa.py",
        "p = (t >> 1) + 1 if t & 1 and ((t & 2) or p & ((1 << (n - 1)) - 1)) else t >> 1",
        "p = t >> 1",
        [T_INV + "test_stehfest_calls_transform_at_each_abscissa_once",
         T_MAN + "test_positive_steps_match_libmp",
         T_PAIRS + "test_batch_kernels_have_the_bits_of_their_operator_forms",
         T_PAIRS + "test_kernels_at_far_abscissas_and_the_digits_cap_match_their_operator_forms"],
    ),
    "batch-kernel-round-down": (
        "pairs.py",
        "_round_pos, _root_table)\n",
        "_root_table)\n\n\n"
        "def _round_pos(a, exp, prec):  # toward zero\n"
        "    n = a.bit_length() - prec\n"
        "    return (a >> n, exp + n) if n > 0 else (a, exp)\n",
        [T_PAIRS + "test_batch_kernels_have_the_bits_of_their_operator_forms",
         T_PAIRS + "test_kernels_at_far_abscissas_and_the_digits_cap_match_their_operator_forms"],
    ),
    "plus-one-unrounded": (
        "mantissa.py",
        "    return _round_pos(man + (1 << -exp), exp, prec)\n",
        "    return man + (1 << -exp), exp\n",
        [T_MAN + "test_positive_steps_match_libmp",
         T_PAIRS + "test_batch_kernels_have_the_bits_of_their_operator_forms"],
    ),
    "read-returns-only-missing-values": (
        "inverter.py",
        "return new if len(missing) == len(js) else [values[j] for j in js]",
        "return new",
        [T_INV + "test_ladder_entries_equal_standalone_approximants"],
    ),
    "batch-failure-at-first-abscissa": (
        "inverter.py",
        "            for j in js:\n                try:\n                    self.batch((j,))",
        "            for j in js[:1]:\n                try:\n                    self.batch((j,))",
        [T_INV + "test_single_order_and_ladder_share_error_semantics"],
    ),
    "periodic-split-one-period": (
        "pairs.py",
        "        while ctx.mpf(window[0][0] + k * pair.period) < stop:",
        "        if ctx.mpf(window[0][0] + k * pair.period) < stop:",
        [T_PAIRS + "test_jump_locations_continue_a_periodic_pair",
         T_PAIRS + "test_laplace_identity_square_wave_past_the_listed_jumps"],
    ),
    "fast-path-for-wrapped-eval": (
        "inverter.py",
        "kernel = F.eval if type(F) is TransformFn else None",
        "kernel = getattr(F.eval, '__wrapped__', F.eval) if type(F) is TransformFn else None",
        [T_INV + "test_transform_subclass_and_wrapped_eval_see_every_call"],
    ),
    "fast-path-for-subclass": (
        "inverter.py",
        "kernel = F.eval if type(F) is TransformFn else None",
        "kernel = F.eval if isinstance(F, TransformFn) else None",
        [T_INV + "test_transform_subclass_and_wrapped_eval_see_every_call"],
    ),
    "fast-path-never-taken": (
        "inverter.py",
        "if type(kernel) is _Kernel else None)",
        "if False else None)",
        [T_INV + "test_corpus_transform_runs_its_kernel_without_its_eval",
         T_INV + "test_kernel_path_calls_the_batch_once_per_read_that_misses_abscissas"],
    ),
    "sum-product-tie-to-even-dropped": (
        "mantissa.py",
        "t & 1 and ((t & 2) or man & ((1 << (n - 1)) - 1))",
        "t & 1 and (man & ((1 << (n - 1)) - 1))",
        [T_NUM + "test_weighted_sum_bits_match_the_libmp_loop",
         T_NUM + "test_weighted_sum_rounds_halfway_and_sticky_bits_as_libmp"],
    ),
    "sum-addition-tie-to-even-dropped": (
        "mantissa.py",
        "t & 1 and ((t & 2) or s & ((1 << (n - 1)) - 1))",
        "t & 1 and (s & ((1 << (n - 1)) - 1))",
        [T_NUM + "test_weighted_sum_bits_match_the_libmp_loop",
         T_NUM + "test_weighted_sum_rounds_halfway_and_sticky_bits_as_libmp"],
    ),
    "sum-sticky-mask-one-bit-short": (
        "mantissa.py",
        "s & ((1 << (n - 1)) - 1)",
        "s & ((1 << (n - 2)) - 1)",
        [T_NUM + "test_weighted_sum_bits_match_the_libmp_loop",
         T_NUM + "test_weighted_sum_rounds_halfway_and_sticky_bits_as_libmp"],
    ),
    "sum-product-sign-ignored": (
        "mantissa.py",
        "        if cs:\n            man = -man\n",
        "",
        [T_NUM + "test_weighted_sum_bits_match_the_libmp_loop",
         T_NUM + "test_weighted_sum_rounds_halfway_and_sticky_bits_as_libmp"],
    ),
    "sum-far-gap-added-unrounded": (
        "mantissa.py",
        "quarter ulp of acc\n            continue\n",
        "quarter ulp of acc\n            acc, aexp = (acc << gap) + man, exp\n            continue\n",
        [T_NUM + "test_weighted_sum_bits_match_the_libmp_loop"],
    ),
    "sum-infinite-value-let-in": (
        "numerics.py",
        "if all(man or not exp for man, exp in pairs):",
        "if True:",
        [T_INV + "test_stehfest_sum_with_infinite_or_nan_values_matches_operator_loop",
         T_NUM + "test_weighted_sum_with_infinite_or_nan_values_matches_the_libmp_loop"],
    ),
    "kernel-sum-drops-last-term": (
        "inverter.py",
        "_nearest_sum(a, values, m.prec)",
        "_nearest_sum(a, values[:-1], m.prec)",
        [T_INV + "test_stehfest_sum_bits_match_operator_loop"],
    ),
    "progression-delta-dropped": (
        "mantissa.py",
        "man = pman + (pman * d >> -bexp)",
        "man = pman",
        [T_MAN + "test_exp_progression_has_the_bits_of_mpf_exp"],
    ),
    "progression-guard-cut-to-4": (
        "mantissa.py",
        "_EXP_GUARD = 64",
        "_EXP_GUARD = 4",
        [T_MAN + "test_exp_progression_has_the_bits_of_mpf_exp"],
    ),
    "progression-band-bypassed": (
        "mantissa.py",
        "if abs(low - half) << band > 1 << n:",
        "if True:",
        [T_MAN + "test_exp_progression_takes_mpf_exp_in_the_band",
         T_MAN + "test_root_progression_takes_the_exact_root_in_the_band"],
    ),
    "root-band-dropped": (
        "mantissa.py",
        "rounded = _round_clear(s, -f, prec, _ROOT_BAND)",
        "rounded = _round_even(s, -f, prec)",
        [T_MAN + "test_root_progression_takes_the_exact_root_in_the_band"],
    ),
    "root-table-read-at-j-plus-1": (
        "mantissa.py",
        "y = a * table[j - 1] >> w",
        "y = a * table[j] >> w",
        [T_MAN + "test_root_progression_has_the_bits_of_the_exact_root"],
    ),
    "qn-eval-rounds-a-bit-short": (
        "qpoly.py",
        "_quotient(acc, -s * n, D, 0, m.prec)",
        "_quotient(acc, -s * n, D, 0, m.prec - 1)",
        [T_Q + "test_qn_eval_is_q_n_of_its_dyadic_point_rounded_once"],
    ),
    "qn-odd-part-dropped": (
        "qpoly.py",
        "        D *= odd**n\n",
        "",
        [T_Q + "test_qn_eval_of_a_fraction_with_an_odd_denominator_part_is_rounded_once"],
    ),
    "fraction-rounded-twice": (
        "numerics.py",
        "    return tuple(from_rational(q.numerator, q.denominator, prec, round_nearest) "
        "for q in values)\n",
        "    from mpmath.libmp import from_int\n"
        "    return tuple(mpf_div(from_int(q.numerator, prec, round_nearest), "
        "from_int(q.denominator),\n"
        "                         prec, round_nearest) for q in values)\n",
        [T_NUM + "test_fractions_are_rounded_once_as_from_rational",
         T_NUM + "test_mpf_tuples_round_like_context",
         T_INV + "test_coefficient_vector_rounds_like_context_mpf"],
    ),
    "quadrature-value-not-rebound": (
        "numerics.py",
        "        return m.make_mpf(v._mpf_)\n",
        "        v._mpf_\n"
        "        return v\n",
        [T_NUM + "test_integrate_value_bits_are_pinned[20-mpf60]"],
    ),
    "poch-half-off-by-one": (
        "qpoly.py",
        "Fraction(factorial(2 * k), 4**k * factorial(k))",
        "Fraction(factorial(2 * k + 1), 4**k * factorial(k))",
        [T_Q + "test_integral_representation_identity_holds_at_every_order"],
    ),
    "a-k-sign-flipped": (
        "coeffs.py",
        "Fraction(-s[k] if (n + k) % 2 else s[k], nfact)",
        "Fraction(-s[k] if (n + k + (k == 1)) % 2 else s[k], nfact)",
        [T_Q + "test_integral_representation_identity_holds_at_every_order"],
    ),
    "screen-error-margin-dropped": (
        "qpoly.py",
        "    cut = top - 2 * err - (top >> m.prec - 4)\n",
        "    cut = top - (top >> m.prec - 4)\n",
        [T_Q + "test_max_ratio_with_a_screen_of_a_few_bits_evaluates_every_point"],
    ),
    "screen-error-not-scaled-by-order": (
        "qpoly.py",
        "top, err = max(screen), 2 * n + 2",
        "top, err = max(screen), 4",
        [T_Q + "test_max_ratio_with_a_screen_of_a_few_bits_evaluates_every_point"],
    ),
    "screen-rounding-margin-dropped": (
        "qpoly.py",
        "    cut = top - 2 * err - (top >> m.prec - 4)\n",
        "    cut = top - 2 * err\n",
        [T_Q + "test_max_ratio_keeps_the_rounded_maximum_where_it_leaves_the_exact_order"],
    ),
    "screen-point-doubled": (
        "qpoly.py",
        "acc = c + (acc * p >> s)",
        "acc = c + (acc * p >> s - 1)",
        [T_Q + "test_decay_bound_probe_evaluates_q_n_once_per_order_with_the_exhaustive_bits",
         T_Q + "test_max_ratio_has_the_bits_of_the_exhaustive_loop"],
    ),
    "transform-keyed-on-name": (
        "cli.py",
        "evals = {p.formula: p.F.eval for p in corpus()}",
        "evals = {p.name: p.F.eval for p in corpus()}",
        [T_CLI + "test_transform_formula_gives_the_values_of_its_pair"],
    ),
    "laplace-span-without-guard": (
        "pairs.py",
        "span = (ctx.digits + ctx.guard + 5) * m.ln(10) / z",
        "span = ctx.digits * m.ln(10) / z",
        [T_PAIRS + "test_laplace_identity_of_every_pair_to_the_working_precision"],
    ),
    "laplace-exp-on-zero-pieces": (
        "pairs.py",
        "return m.exp(-z * (t - lo)) * v if v else v",
        "return m.exp(-z * (t - lo)) * v",
        [T_PAIRS + "test_laplace_identity_takes_no_exp_where_the_original_is_zero"],
    ),
    "laplace-piece-reads-f-at-its-ends": (
        "pairs.py",
        "v = after_lo if t == lo else before_hi if t == hi else f(t)",
        "v = f(t)",
        [T_PAIRS + "test_laplace_identity_piece_where_the_original_is_zero_is_exactly_zero[step]"],
    ),
    "laplace-pieces-unscaled": (
        "pairs.py",
        "value = integrate(piece(lo, after_lo, s, left), lo, s, ctx)",
        "value = integrate(lambda t, g=piece(lo, after_lo, s, left), c=m.exp(-z * lo): g(t) * c, "
        "lo, s, ctx) / m.exp(-z * lo)",
        [T_PAIRS + "test_laplace_identity_of_every_pair_to_the_working_precision"],
    ),
    "identity-max-with-mpf-lt": (
        "verify.py",
        "if mpf_gt(scaled, worst):",
        "if mpf_lt(scaled, worst):",
        [T_W + "test_identity_check_reports_what_its_operator_loop_reports[verify]"],
    ),
    "identity-scale-without-max-1": (
        "verify.py",
        "scale = fone if mpf_gt(fone, az) else az",
        "scale = az",
        [T_W + "test_identity_check_scales_by_the_larger_of_abs_z_and_1"],
    ),
    "identity-near-cut-test-dropped": (
        "verify.py",
        "        if x < 0 and mpf_lt(mpf_abs(zc[1]), near_cut):\n            continue\n",
        "",
        [T_W + "test_identity_check_reports_what_its_operator_loop_reports[seed-22]"],
    ),
    "w0-fast-path-of-any-width": (
        "lambertw.py",
        "if type(z) is m.mpc and z._mpc_[0][3] <= prec and z._mpc_[1][3] <= prec:",
        "if type(z) is m.mpc:",
        [T_W + "test_w_of_every_kind_of_argument_keeps_its_bits"],
    ),
    "out-tail-not-cut": (
        "cli.py",
        "            fh.truncate()\n",
        "            pass\n",
        [T_CLI + f"test_out_rewrites_an_existing_file_in_place[{output}-longer]"
         for output in ("json", "csv", "text")],
    ),
    "out-truncated-unconditionally": (
        "cli.py",
        "if stat.S_ISREG(old.st_mode) and old.st_size > fh.tell():",
        "if True:",
        [T_CLI + "test_out_to_devnull_exits_0",
         T_CLI + "test_out_to_a_fifo_writes_the_stdout_bytes_and_cuts_nothing"],
    ),
    "periodic-target-listed-jumps-only": (
        "pairs.py",
        "        if pair.period:\n"
        "            jump = _recurring_jump(pair, x._mpf_, prec)\n",
        "        if False:\n"
        "            jump = _recurring_jump(pair, x._mpf_, prec)\n",
        [T_PAIRS + "test_periodic_target_is_the_midpoint_at_every_recurring_jump"],
    ),
    "periodic-target-recurs-backwards": (
        "pairs.py",
        "        if k >= 1 and from_rational(",
        "        if from_rational(",
        [T_PAIRS + "test_periodic_target_recurs_after_the_listed_jumps_only"],
    ),
    "integrate-infinite-b-let-through": (
        "numerics.py",
        "if not (m.isfinite(a) and m.isfinite(b)):",
        "if not m.isfinite(a) or m.isnan(b) or b == m.ninf:",
        [T_NUM + f"test_integrate_rejects_bad_limits_before_calling_f[0-inf-{kind}]"
         for kind in ("mpf", "float")],
    ),
    "pair-period-string-parsed": (
        "pairs.py",
        "    if not isinstance(value, str):\n",
        "    if True:\n",
        [T_CONTRACT + "test_finding_raises_domain_error[TransformPair period='2']"],
    ),
    "pair-jump-shape-unchecked": (
        "pairs.py",
        "if not (isinstance(jump, tuple) and len(jump) == 3):",
        "if False:",
        [T_CONTRACT + "test_finding_raises_domain_error[TransformPair jump (1, 0)]"],
    ),
    "dini-epsilon-below-v-min": (
        "pairs.py",
        "if not epsilon > v_min:",
        "if not epsilon >= v_min:",
        [T_CONTRACT + "test_finding_raises_domain_error[dini_integral_estimate epsilon=v_min]"],
    ),
    "dini-epsilon-unchecked": (
        "pairs.py",
        "if not epsilon > v_min:",
        "if False:",
        [T_CONTRACT + "test_finding_raises_domain_error[dini_integral_estimate epsilon=1e-15]"],
    ),
    "run-suites-none-passes": (
        "verify.py",
        "    if not expanded:\n",
        "    if False:\n",
        [T_CLI + "test_run_suites_refuses_no_suite_and_the_cli_runs_all"],
    ),
    "jump-order-unchecked": (
        "pairs.py",
        "if any(a >= b for a, b in zip(exact, exact[1:])):",
        "if False:",
        [T_CONTRACT + "test_finding_raises_domain_error[TransformPair jumps at 2 then 1]"],
    ),
}


def run_tests(src: pathlib.Path, tests) -> int:
    # no bytecode: a mutant of the same size within the same second as the
    # source would otherwise load the source's cached bytecode, or it the mutant's
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main(names) -> int:
    unknown = sorted(set(names) - set(MUTANTS))
    if unknown:
        print(f"unknown mutants: {unknown}; known: {sorted(MUTANTS)}", file=sys.stderr)
        return 2
    chosen = {name: MUTANTS[name] for name in names or MUTANTS}
    status = caught = 0
    with tempfile.TemporaryDirectory() as tmp:
        src = pathlib.Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        for name, (file, old, new, tests) in chosen.items():
            path = src / "gsinv" / file
            text = path.read_text()
            if text.count(old) != 1:
                print(f"{name:34s} stale: its text occurs {text.count(old)} times in {file}")
                status = max(status, 1)
                continue
            rc = run_tests(src, tests)
            if rc != 0:
                print(f"{name:34s} error: its tests fail unmutated (pytest exit {rc})")
                status = 2
                continue
            path.write_text(text.replace(old, new))
            try:
                rc = run_tests(src, tests)
            finally:
                path.write_text(text)
            verdict = {0: "missed", 1: "caught"}.get(rc, f"error (pytest exit {rc})")
            print(f"{name:34s} {verdict}")
            status = max(status, {0: 1, 1: 0}.get(rc, 2))
            caught += rc == 1
    print(f"{caught} of {len(chosen)} mutants caught")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
