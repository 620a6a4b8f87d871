#!/usr/bin/env python3
"""Pin the bytes of the command-line reports.

Writes tests/fixtures/cli_outputs.json: for each command of a small
matrix (every subcommand and output format, orders up to 12), its argv,
exit code, stdout and stderr.  A refactor of the CLI must reproduce
these exactly; regenerate the file only for an intended change of the
output.  Run from the repository root:

    PYTHONPATH=src python3 tools/make_cli_outputs.py
"""
import contextlib
import io
import json
import pathlib
import warnings

from gsinv.cli import main

OUT = pathlib.Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "cli_outputs.json"


def matrix():
    for n in (1, 2, 5, 12):
        for which in ("a", "c", "both"):
            for output in ("json", "csv"):
                yield ["coeffs", "--n", str(n), "--set", which, "--output", output]
    yield ["corpus"]
    for pair, x in (("constant", "1"), ("step", "0.5,1,2.5"), ("sine", "1,3"),
                    ("square-wave", "0.5,1.5")):
        for output in ("json", "csv", "text"):
            yield ["invert", "--pair", pair, "--x", x, "--n", "8", "--output", output]
            yield ["invert", "--pair", pair, "--x", x, "--n-max", "6", "--output", output]
    for output in ("json", "csv", "text"):
        yield ["invert", "--transform", "1/(z+1)", "--x", "0.5,2", "--n", "10",
               "--output", output]
    yield ["invert", "--pair", "exponential", "--x", "1", "--n-max", "12", "--digits", "20",
           "--output", "csv"]
    # below required_digits: one warning per command, before any note
    yield ["invert", "--pair", "sine", "--x", "1,3", "--n", "12", "--digits", "15",
           "--output", "json"]
    yield ["invert", "--pair", "exponential", "--x", "0.5,2", "--n-max", "10", "--digits", "15"]
    yield ["ladder", "--pair", "step", "--x", "1", "--n-max", "10", "--digits", "20",
           "--output", "csv"]
    yield ["invert", "--transform", "1/(z+1)", "--x", "1", "--n", "8", "--digits", "15",
           "--output", "csv"]
    yield ["ladder", "--pair", "root", "--x", "0.25,4", "--n-max", "5", "--output", "json"]
    yield ["ladder", "--pair", "ramp", "--x", "2", "--n-max", "4"]
    yield ["weval", "--z=-0.5,0.5", "--digits", "25"]
    yield ["weval", "--z", "-1.5"]
    yield ["verify", "--suite", "vandermonde", "--suite", "genfun"]
    yield ["invert", "--pair", "constant", "--x", "0", "--n", "4"]  # a domain error
    yield ["coeffs", "--n", "65"]
    # below required_digits at larger n: the a_k(n) are rounded from their
    # exact Fractions once, so these pin the last bits that rounding decides
    yield ["invert", "--pair", "step", "--x", "1", "--n", "32", "--digits", "15",
           "--output", "json"]
    yield ["ladder", "--pair", "root", "--x", "2", "--n-max", "24", "--digits", "20",
           "--output", "csv"]
    yield ["invert", "--pair", "sine", "--x", "1", "--n", "40", "--digits", "30",
           "--output", "csv"]
    yield ["invert", "--transform", "1/(z+1)", "--x", "1", "--n", "32", "--digits", "20",
           "--output", "csv"]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = main(argv)
    return {"argv": argv, "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


if __name__ == "__main__":
    OUT.write_text(json.dumps([run(argv) for argv in matrix()], indent=1) + "\n")
    print(f"wrote {OUT}")
