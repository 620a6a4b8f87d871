#!/usr/bin/env python3
"""Pin the bytes of the full verification report.

Writes tests/fixtures/verify_all.json: the standard output of
``gsinv verify --suite all``, byte for byte, which
``tests/test_cli.py::test_verify_all_suites`` compares with a fresh run.
A change that alters the report on purpose regenerates the file and
explains the diff; any other change must leave it as it is.  Exits with
the command's code, and writes nothing when the command fails.  Run from
the repository root:

    PYTHONPATH=src python3 tools/make_verify_all.py
"""
import contextlib
import io
import pathlib
import sys

from gsinv.cli import main

OUT = pathlib.Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "verify_all.json"

if __name__ == "__main__":
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["verify", "--suite", "all"])
    if rc != 0:
        sys.exit(rc)
    OUT.write_text(out.getvalue())
    print(f"wrote {OUT}")
