"""Command-line front end: inversion runs, coefficient export, verification.

This is the one module that knows how results are written: JSON through
:func:`_write_json` (indent 2, one final newline), CSV through
:func:`_csv` (a header row per report), exact rationals as the ``p/q``
strings of ``str(Fraction)``.  Reports are deterministic: numbers are
serialized as decimal strings at the working precision, fields keep a
fixed order, and no timestamps or environment data are embedded, so
identical configurations produce byte-identical output.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
from typing import TYPE_CHECKING

from .errors import NUMERICAL_ERRORS

if TYPE_CHECKING:
    from .inverter import InversionReport
    from .numerics import PrecisionContext

# Each command imports the modules it uses, so that coeffs loads no
# mpmath, and invert, ladder and corpus load no verification layer.
# TransformFn is a module attribute resolved on use (see __getattr__); the
# commands read it through _module so that a constructor set on the module
# (a tracer's) builds the F of --transform.
_module = sys.modules[__name__]


def __getattr__(name):
    if name == "TransformFn":
        from .inverter import TransformFn

        return globals().setdefault(name, TransformFn)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Largest --digits of invert, ladder and weval; the smallest is the
# MIN_DIGITS floor of PrecisionContext.  Every automatic context stays
# below the cap (required_digits(MAX_ORDER) = 151).  Beyond it runs get
# long: near the branch point weval sums 1.6 dps + 12 terms of the exact
# mu recurrence, and its cost grows about as the cube of the digits.
MAX_DIGITS = 300


def _write(text: str, out_path):
    """``text`` on stdout, or in place in the file ``out_path``, with its old tail cut.

    The file is not truncated to zero first, as ``open(out_path, "w")``
    does: on ext4 (``auto_da_alloc``) closing a file truncated to zero and
    rewritten starts its writeback at once, a disk write per command.
    Encoding, newlines and the mode of a new file are those of
    ``open(out_path, "w")``.  Only a regular file longer than the text is
    cut; a device or a FIFO takes the text as it would from ``open``.
    """
    if not out_path:
        sys.stdout.write(text)
        return
    with open(os.open(out_path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as fh:
        old = os.fstat(fh.fileno())
        fh.write(text)
        if stat.S_ISREG(old.st_mode) and old.st_size > fh.tell():
            fh.truncate()


def _write_json(doc, out_path):
    _write(json.dumps(doc, indent=2) + "\n", out_path)


def _csv(rows) -> str:
    """Rows of cells as CSV lines; no cell holds a comma, a quote or a newline."""
    return "".join(",".join(row) + "\n" for row in rows)


def _parse_digits(digits: str) -> int:
    from .numerics import MIN_DIGITS

    d = int(digits)
    if d < MIN_DIGITS:
        raise ValueError(f"--digits {d} is below the floor MIN_DIGITS = {MIN_DIGITS}")
    if d > MAX_DIGITS:
        raise ValueError(f"--digits {d} exceeds the cap MAX_DIGITS = {MAX_DIGITS}")
    return d


def _resolve_ctx(digits: str, n_max: int) -> PrecisionContext:
    from .numerics import cached_context, context_for_order, guard_for_order, low_digits_note

    if digits == "auto":
        return context_for_order(n_max)
    d = _parse_digits(digits)
    note = low_digits_note(d, n_max)
    if note:
        print(f"warning: {note}", file=sys.stderr)
    return cached_context(d, guard_for_order(n_max))


def _cmd_coeffs(args) -> int:
    from .coeffs import gaver_stehfest_coeffs, stehfest_weights

    columns = {}  # "a": a_1..a_2n and/or "c": c_1..c_n, as exact p/q strings
    if args.set in ("a", "both"):
        columns["a"] = [str(q) for q in gaver_stehfest_coeffs(args.n).a]
    if args.set in ("c", "both"):
        columns["c"] = [str(q) for q in stehfest_weights(args.n).c]
    if args.output == "json":
        _write_json({"n": args.n, **columns}, args.out)
        return 0
    rows = [["k"] + [f"{name}_k" for name in columns]]
    for k in range(1, 2 * args.n + 1):
        row = [str(k)]
        for values in columns.values():
            row.append(values[k - 1] if k <= len(values) else "")  # c_k is blank for k > n
        rows.append(row)
    _write(_csv(rows), args.out)
    return 0


def _invert_single(F, x, n, ref, ctx) -> InversionReport:
    """Order ``n`` alone; the same entry as the last rung of a ladder to ``n``."""
    from .inverter import InversionReport, ReportEntry, _AbscissaCache, stehfest_approx

    value = stehfest_approx(F, x, n, ctx, _cache=_AbscissaCache(F, x, ctx))
    err = None if ref is None else abs(value - ctx.mpf(ref(x)))
    return InversionReport(x, (ReportEntry(n, value, err),), ctx.digits)


def _cmd_invert(args) -> int:
    from .inverter import _AbscissaCache, invert_ladder
    from .numerics import check_point
    from .pairs import _target, corpus, get_pair

    if args.n is not None and args.n_max is not None:
        print("error: give one of --n / --n-max, not both", file=sys.stderr)
        return 2
    if args.pair is not None and args.transform is not None:
        print("error: give one of --pair / --transform, not both", file=sys.stderr)
        return 2
    n_max = args.n if args.n_max is None else args.n_max
    if n_max is None:
        print("error: one of --n / --n-max is required", file=sys.stderr)
        return 2
    ctx = _resolve_ctx(args.digits, n_max)
    flags = []  # caveats the JSON report carries
    if args.pair:
        pair = get_pair(args.pair)
        F = pair.F
        ref = lambda x: _target(pair, x, ctx)
        if pair.oscillatory_flag:
            flags = ["oscillatory"]
            print(f"note: pair {pair.name!r} is oscillatory; convergence "
                  "theory does not cover it", file=sys.stderr)
    elif args.transform:
        # the corpus pair of that formula, looked up in the corpus in effect
        evals = {p.formula: p.F.eval for p in corpus()}
        if args.transform not in evals:
            print(f"error: unknown transform {args.transform!r}; built-ins: {sorted(evals)}",
                  file=sys.stderr)
            return 2
        F = _module.TransformFn(evals[args.transform], args.transform)
        ref = None
    else:
        print("error: --pair or --transform is required", file=sys.stderr)
        return 2

    # Each x is checked here, once, and n_max by _resolve_ctx, which has printed
    # the low-digits warning: the library calls take the checked x with its
    # abscissa cache, so they neither check it again nor repeat the warning.
    xs = [check_point(part, ctx) for part in args.x.split(",")]
    if args.n_max:
        reports = [invert_ladder(F, x, n_max, ref, ctx, _cache=_AbscissaCache(F, x, ctx))
                   for x in xs]
    else:
        reports = [_invert_single(F, x, n_max, ref, ctx) for x in xs]

    if args.output == "csv":
        rows = []
        for r in reports:
            rows.append(["n", "value", "abs_error", "digits"])
            for e in r.entries:
                err = "" if e.abs_error is None else ctx.nstr(e.abs_error)
                rows.append([str(e.n), ctx.nstr(e.value), err, str(r.digits_used)])
        _write(_csv(rows), args.out)
    elif args.output == "json":
        docs = []
        for r in reports:
            entries = []
            for e in r.entries:
                err = None if e.abs_error is None else ctx.nstr(e.abs_error)
                entries.append({"n": e.n, "value": ctx.nstr(e.value), "abs_error": err})
            docs.append({"x": ctx.nstr(r.x), "digits": r.digits_used, "flags": flags,
                         "entries": entries})
        _write_json({"reports": docs}, args.out)
    else:
        lines = []
        for r in reports:
            lines.append(f"x = {ctx.nstr(r.x)} (digits={r.digits_used})")
            for e in r.entries:
                err = "" if e.abs_error is None else f"  |err| = {ctx.nstr(e.abs_error, 6)}"
                lines.append(f"  n={e.n:3d}  {ctx.nstr(e.value)}{err}")
        _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_corpus(args) -> int:
    from .pairs import corpus

    rows = []
    for p in corpus():
        jumps = []
        for loc, left, right in p.jumps:
            jumps.append({"location": str(loc), "left": str(left), "right": str(right)})
        rows.append({"name": p.name, "class": p.klass, "formula": p.formula,
                     "oscillatory_flag": p.oscillatory_flag, "jumps": jumps})
    _write_json({"pairs": rows}, args.out)
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_suites

    names = args.suite
    reports, ok = run_suites(names if names else "all")
    _write_json({"checks": reports, "all_passed": ok}, args.out)
    return 0 if ok else 1


def _cmd_weval(args) -> int:
    from .lambertw import lambert_w0, wew_residual
    from .numerics import cached_context

    ctx = cached_context(_parse_digits(args.digits))
    parts = args.z.split(",")
    if len(parts) > 2:
        print(f"error: --z takes 're' or 're,im', got {args.z!r}", file=sys.stderr)
        return 2
    z = ctx.mpc(parts[0], parts[1] if len(parts) > 1 else 0)
    if z.imag == 0:
        z = ctx.mpf(parts[0])
    w = lambert_w0(z, ctx)
    doc = {
        "z": ctx.nstr(z),
        "w": ctx.nstr(w),
        "residual": ctx.nstr(wew_residual(w, z, ctx), 6),
    }
    _write_json(doc, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gsinv",
        description="High-precision Gaver-Stehfest inversion of Laplace transforms",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="export exact coefficients a_k(n), c_k(n)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--set", choices=["a", "c", "both"], default="both")
    p.add_argument("--output", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_coeffs)

    for name, need_nmax in (("invert", False), ("ladder", True)):
        p = sub.add_parser(name, help="evaluate approximants at given points")
        p.add_argument("--pair", default=None, help="corpus pair name")
        p.add_argument("--transform", default=None, help="built-in transform expression")
        p.add_argument("--x", required=True, help="comma-separated positive decimals")
        p.add_argument("--n", type=int, default=None, help="single order to report")
        p.add_argument("--n-max", dest="n_max", type=int, default=None,
                       required=need_nmax, help="report the full ladder n=1..n_max")
        p.add_argument("--digits", default="auto",
                       help="'auto' (required_digits rule) or an integer")
        p.add_argument("--output", choices=["json", "csv", "text"], default="text")
        p.add_argument("--out", default=None)
        p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("corpus", help="emit the transform-pair manifest")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_corpus)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", action="append", default=None,
                   help="suite name (repeatable) or 'all'")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("weval", help="evaluate the principal Lambert W branch")
    p.add_argument("--z", required=True, help="'re' or 're,im'")
    p.add_argument("--digits", default="30")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_weval)

    return ap


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # parsing leaves the parser as it was, so one serves every call
    return build_parser()


def main(argv=None) -> int:
    ap = _parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (ValueError, OSError, *NUMERICAL_ERRORS) as exc:
        # exit code 1 is reserved for "a verification check failed"
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
