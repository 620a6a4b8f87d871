import contextlib
import errno
import io
import json
import os
import stat
import threading
import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gsinv import (
    DomainError,
    PrecisionError,
    ProbeError,
    QuadratureError,
    TransformEvaluationError,
    TransformFn,
    corpus,
    get_pair,
)
from gsinv import numerics
from gsinv.cli import MAX_DIGITS, main
from gsinv.numerics import low_digits_note
from conftest import FIXTURES, load_fixture


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# argv, exit code, stdout and stderr of a command matrix, recorded by
# tools/make_cli_outputs.py: every subcommand and output format
CLI_OUTPUTS = load_fixture("cli_outputs.json")


@pytest.mark.parametrize("case", CLI_OUTPUTS, ids=lambda case: " ".join(case["argv"]))
def test_output_bytes_are_pinned_on_stdout_and_out_file(capsys, tmp_path, case):
    assert run_cli(capsys, *case["argv"]) == (case["rc"], case["stdout"], case["stderr"])
    target = tmp_path / "out.txt"
    assert run_cli(capsys, *case["argv"], "--out", str(target)) == (case["rc"], "",
                                                                    case["stderr"])
    if case["rc"] == 0:
        assert target.read_text() == case["stdout"]  # --out writes what stdout shows
    else:
        assert not target.exists()


def test_coeffs_json(capsys):
    rc, out, _ = run_cli(capsys, "coeffs", "--n", "2", "--output", "json")
    assert rc == 0
    assert out.endswith("}\n")
    doc = json.loads(out)
    assert doc["n"] == 2
    assert doc["a"] == ["-2", "26", "-48", "24"]
    assert doc["c"] == ["-1", "2"]
    rc, out, _ = run_cli(capsys, "coeffs", "--n", "3", "--set", "c")
    assert rc == 0
    doc = json.loads(out)
    assert doc["c"] == ["1/2", "-4", "9/2"]  # exact p/q strings
    assert "a" not in doc


def test_coeffs_csv(capsys):
    rc, out, _ = run_cli(capsys, "coeffs", "--n", "3", "--output", "csv", "--set", "c")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,c_k"
    assert lines[1] == "1,1/2"
    rc, out, _ = run_cli(capsys, "coeffs", "--n", "2", "--output", "csv")
    assert rc == 0  # c_k is blank for k > n
    assert out.splitlines() == ["k,a_k,c_k", "1,-2,-1", "2,26,2", "3,-48,", "4,24,"]


def test_invert_step_ladder_csv(capsys):
    rc, out, _ = run_cli(
        capsys,
        "invert", "--pair", "step", "--x", "1", "--n-max", "18",
        "--digits", "auto", "--output", "csv",
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,value,abs_error,digits"
    last = lines[-1].split(",")
    assert last[0] == "18"
    assert 0.45 < float(last[1]) < 0.55  # ends near the jump midpoint


def test_invert_report_fields(capsys):
    argv = ("invert", "--pair", "constant", "--x", "1", "--n-max", "3", "--digits", "30")
    rc, out, _ = run_cli(capsys, *argv, "--output", "json")
    assert rc == 0
    (report,) = json.loads(out)["reports"]
    assert report["digits"] == 30 and len(report["entries"]) == 3
    assert report["x"] == "1.0" and report["flags"] == []
    assert list(report["entries"][0]) == ["n", "value", "abs_error"]
    rc, out, _ = run_cli(capsys, *argv, "--output", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,value,abs_error,digits"
    assert lines[1].startswith("1,1.0") and lines[1].endswith(",30")


def test_invert_csv_repeats_the_header_per_point(capsys):
    rc, out, _ = run_cli(capsys, "invert", "--pair", "exponential", "--x", "0.5,1,2",
                         "--n-max", "3", "--output", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 3 * 4
    for i, line in enumerate(lines):
        assert (line == "n,value,abs_error,digits") == (i % 4 == 0)
        if i % 4:
            assert line.split(",")[0] == str(i % 4)


def test_invert_single_order_json(capsys):
    rc, out, _ = run_cli(
        capsys,
        "invert", "--transform", "1/(z+1)", "--x", "1,2", "--n", "8",
        "--output", "json",
    )
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["reports"]) == 2
    assert len(doc["reports"][0]["entries"]) == 1
    assert doc["reports"][0]["entries"][0]["n"] == 8
    assert abs(float(doc["reports"][0]["entries"][0]["value"]) - 0.367879) < 1e-4


def test_invert_pair_and_transform_together_is_a_usage_error(capsys):
    rc, out, err = run_cli(capsys, "invert", "--pair", "step", "--transform", "1/z", "--x", "1",
                           "--n", "4")
    assert (rc, out) == (2, "")
    assert err == "error: give one of --pair / --transform, not both\n"


@pytest.mark.parametrize("flag", ["--n", "--n-max"])
def test_invert_order_beyond_max_names_requested_order(capsys, flag):
    rc, out, err = run_cli(capsys, "invert", "--transform", "1/z", "--x", "1", flag, "70")
    assert rc == 2
    assert "got 70" in err and out == ""


@pytest.mark.parametrize("source", [("--pair", "exponential"), ("--transform", "1/(z+1)")])
@pytest.mark.parametrize("n", [4, 16])
def test_single_order_equals_last_ladder_rung(capsys, source, n):
    def entries(flag):
        rc, out, _ = run_cli(capsys, "invert", *source, "--x", "0.4,1,3.5", flag, str(n),
                             "--output", "json")
        assert rc == 0
        return [r["entries"] for r in json.loads(out)["reports"]]

    single, ladder = entries("--n"), entries("--n-max")
    assert [e for e, in single] == [rungs[-1] for rungs in ladder]


def test_single_order_evaluates_only_its_abscissas(capsys, monkeypatch):
    import gsinv.cli as cli

    seen = []

    def counting(eval, label=""):  # the constructor of the F of --transform
        return TransformFn(lambda z: seen.append(z) or eval(z), label)

    monkeypatch.setattr(cli, "TransformFn", counting)
    rc, _, _ = run_cli(capsys, "invert", "--transform", "1/z", "--x", "1,2", "--n", "9")
    assert rc == 0
    assert len(seen) == 2 * 2 * 9  # 2n abscissas per point, no lower orders


def test_ladder_requires_n_max(capsys):
    rc, _, _ = run_cli(capsys, "ladder", "--pair", "constant", "--x", "1")
    assert rc == 2


def test_invert_unknown_pair(capsys):
    rc, _, err = run_cli(capsys, "invert", "--pair", "bogus", "--x", "1", "--n", "4")
    assert rc == 2


def test_invert_low_digits_warns(capsys):
    rc, out, err = run_cli(
        capsys,
        "invert", "--pair", "constant", "--x", "1", "--n-max", "10",
        "--digits", "20", "--output", "csv",
    )
    assert rc == 0
    assert "required_digits" in err


@pytest.mark.parametrize("order", [("--n", "16"), ("--n-max", "10")])
def test_invert_low_digits_prints_only_the_cli_warning(capsys, order):
    flag, n = order
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run_cli(capsys, "invert", "--pair", "exponential", "--x", "1",
                               flag, n, "--digits", "20")
    assert rc == 0 and out.startswith("x = 1.0 (digits=20)")
    need = {"16": 46, "10": 32}[n]
    assert err == f"warning: digits=20 below required_digits({n})={need}; cancellation will dominate\n"
    assert err == "warning: " + low_digits_note(20, int(n)) + "\n"  # the library's verdict
    assert caught == []


def test_transform_evaluates_the_kernel_of_the_corpus_in_effect(monkeypatch):
    import gsinv.cli as cli
    import gsinv.pairs

    traced = []

    def traced_transform_fn(eval, label=""):  # as a tracer patches the corpus constructor
        def wrapper(z):
            traced.append(z)
            return eval(z)

        return TransformFn(wrapper, label)

    evals = []  # the eval that F of --transform calls, once per abscissa

    def recording(eval, label=""):
        return TransformFn(lambda z: evals.append(eval) or eval(z), label)

    monkeypatch.setattr(cli, "TransformFn", recording)

    def run(*source):
        evals.clear()
        assert main(["invert", *source, "--x", "0.5,2", "--n", "5", "--out", os.devnull]) == 0

    def ran_the_step_kernel():
        step = get_pair("step").F.eval
        return len(evals) == 2 * 10 and all(e is step for e in evals)

    invert = ("--transform", "exp(-z)/z")
    run(*invert)
    assert ran_the_step_kernel()
    with monkeypatch.context() as patch:
        patch.setattr(gsinv.pairs, "TransformFn", traced_transform_fn)
        run("--pair", "step")  # builds the corpus of the patched constructor
        assert len(traced) == 2 * 10
    run(*invert)  # the corpus built again by the restored constructor
    assert ran_the_step_kernel() and len(traced) == 2 * 10
    with monkeypatch.context() as patch:
        patch.setattr(gsinv.pairs, "TransformFn", traced_transform_fn)
        run(*invert)
        assert ran_the_step_kernel() and len(traced) == 2 * 2 * 10
    run(*invert)
    assert ran_the_step_kernel() and len(traced) == 2 * 2 * 10


def test_transform_names_the_corpus_formulas(capsys):
    rc, out, err = run_cli(capsys, "invert", "--transform", "bogus", "--x", "1", "--n", "4")
    assert rc == 2 and out == ""
    assert err == ("error: unknown transform 'bogus'; built-ins: ['1/(1+z^2)', "
                   "'1/(z(1+exp(-z)))', '1/(z+1)', '1/z', '1/z^2', 'exp(-z)/z', 'sqrt(pi/z)']\n")


@pytest.mark.parametrize("name", [p.name for p in corpus()])
def test_transform_formula_gives_the_values_of_its_pair(capsys, name):
    def values(*source):
        rc, out, _ = run_cli(capsys, "invert", *source, "--x", "0.5,2", "--n-max", "8",
                             "--output", "json")
        assert rc == 0
        return [[e["value"] for e in r["entries"]] for r in json.loads(out)["reports"]]

    assert values("--transform", get_pair(name).formula) == values("--pair", name)


def test_square_wave_error_beyond_the_listed_jumps(capsys):
    # x = 81 is a jump past the 80 the pair lists: the target is still 1/2
    rc, out, _ = run_cli(capsys, "invert", "--pair", "square-wave", "--x", "81", "--n", "10",
                         "--output", "csv")
    assert rc == 0
    header, row = out.splitlines()
    assert header == "n,value,abs_error,digits"
    n, value, abs_error, _ = row.split(",")
    assert n == "10" and value.startswith("0.5000000238")
    assert abs_error.startswith("0.0000000238")


def test_corpus_manifest(capsys):
    rc, out, _ = run_cli(capsys, "corpus")
    assert rc == 0
    rows = {r["name"]: r for r in json.loads(out)["pairs"]}
    assert "square-wave" in rows
    assert rows["step"]["jumps"] == [{"location": "1", "left": "0", "right": "1"}]
    assert rows["sine"]["oscillatory_flag"] is True
    assert rows["ramp"]["formula"] == "1/z^2"
    assert list(rows["ramp"]) == ["name", "class", "formula", "oscillatory_flag", "jumps"]


def test_verify_single_suite(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--suite", "vandermonde")
    assert rc == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert doc["checks"][0]["check"] == "coefficient-identities"
    assert doc["checks"][0]["status"] == "pass"
    assert "metrics" in doc["checks"][0] and "grid" in doc["checks"][0]


def test_verify_unknown_suite(capsys, monkeypatch):
    import gsinv.verify as verify

    ran = []
    monkeypatch.setitem(verify.SUITES, "genfun", lambda: ran.append("genfun") or [])
    rc, out, err = run_cli(capsys, "verify", "--suite", "genfun", "--suite", "nope")
    assert rc == 2 and out == "" and ran == []  # rejected before any suite runs
    assert err.startswith("error: unknown suite 'nope'; choose from [")


def test_run_suites_expands_all_once_in_order(monkeypatch):
    import gsinv.verify as verify

    ran = []
    for name in verify.SUITES:
        monkeypatch.setitem(verify.SUITES, name, lambda name=name: ran.append(name) or [])
    for names in (["genfun", "all", "genfun"], ["genfun", "genfun", "all"]):
        ran.clear()
        verify.run_suites(names)
        assert ran == ["genfun"] + [n for n in verify.SUITES if n != "genfun"]
    for names in (None, "all", ["all"], ["all", "lambertw", "all"]):
        ran.clear()
        verify.run_suites(names)
        assert ran == list(verify.SUITES)


def test_verify_failed_check_exits_1(capsys, monkeypatch):
    import gsinv.verify as verify

    def broken():
        return [{"check": "synthetic", "status": "fail", "metrics": {}, "grid": {}}]

    monkeypatch.setitem(verify.SUITES, "vandermonde", broken)
    rc, out, _ = run_cli(capsys, "verify", "--suite", "vandermonde")
    assert rc == 1
    assert json.loads(out)["all_passed"] is False


def test_invert_oscillatory_flag_in_report(capsys):
    rc, out, err = run_cli(
        capsys,
        "invert", "--pair", "sine", "--x", "1", "--n", "6", "--output", "json",
    )
    assert rc == 0
    assert "oscillatory" in err
    doc = json.loads(out)
    assert doc["reports"][0]["flags"] == ["oscillatory"]


@pytest.mark.slow
def test_verify_all_suites(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--suite", "all")
    assert rc == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert len(doc["checks"]) >= 13
    # pinned byte for byte: regenerate the fixture only for an intended report change
    assert out == (FIXTURES / "verify_all.json").read_text()


@pytest.mark.slow
def test_verify_all_mixed_with_a_suite_equals_all(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--suite", "all", "--suite", "genfun",
                         "--suite", "all")
    assert rc == 0
    assert out == (FIXTURES / "verify_all.json").read_text()


@pytest.mark.slow
def test_warm_verify_rerun_builds_no_context(monkeypatch):
    import gsinv.verify as verify

    assert verify.run_suites("all")[1]
    built = []
    real = numerics.MPContext
    monkeypatch.setattr(numerics, "MPContext", lambda: built.append(1) or real())
    assert verify.run_suites("all")[1]
    assert built == []


def test_warm_corpus_rerun_keeps_the_report():
    import gsinv.verify as verify

    numerics._TABLES.cache_clear()
    cold = verify.run_suites("corpus")
    warm = verify.run_suites("corpus")
    assert cold == warm
    pinned = load_fixture("verify_all.json")["checks"]
    assert cold[0] == [c for c in pinned if c["check"] in {r["check"] for r in cold[0]}]


@pytest.mark.parametrize(
    "exc", [DomainError, QuadratureError, ProbeError, PrecisionError, TransformEvaluationError]
)
def test_verify_raising_check_is_a_failed_report(capsys, monkeypatch, exc):
    import gsinv.verify as verify

    def raising(*args):
        raise exc("synthetic failure")

    monkeypatch.setattr(verify, "decay_bound_probe", raising)
    rc, out, _ = run_cli(capsys, "verify", "--suite", "decay-bound", "--suite", "genfun")
    assert rc == 1
    decay, genfun = json.loads(out)["checks"]
    assert decay == {"check": "decay-bound", "status": "fail",
                     "metrics": {"error": f"{exc.__name__}: synthetic failure"}, "grid": {}}
    assert genfun["status"] == "pass"


def test_verify_deterministic_output(capsys):
    rc1, out1, _ = run_cli(capsys, "verify", "--suite", "genfun")
    rc2, out2, _ = run_cli(capsys, "verify", "--suite", "genfun")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_invert_deterministic_output(capsys):
    args = ("invert", "--pair", "exponential", "--x", "1", "--n-max", "6",
            "--output", "json")
    rc1, out1, _ = run_cli(capsys, *args)
    rc2, out2, _ = run_cli(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_weval(capsys):
    rc, out, _ = run_cli(capsys, "weval", "--z=-0.5,0.5", "--digits", "25")
    assert rc == 0
    doc = json.loads(out)
    assert float(doc["residual"].replace("e", "E").split("E")[0]) == pytest.approx(0, abs=1)
    assert doc["w"]


@pytest.mark.parametrize("z", ["nan", "inf"])
def test_weval_rejects_non_finite(capsys, z):
    rc, out, err = run_cli(capsys, "weval", f"--z={z}")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "finite" in err


@pytest.mark.parametrize(
    "exc", [QuadratureError, ProbeError, PrecisionError, TransformEvaluationError]
)
def test_library_errors_exit_2(capsys, monkeypatch, exc):
    # exit code 1 means only "a verification check failed"
    import gsinv.verify as verify

    def raising(names):
        raise exc("synthetic failure")

    monkeypatch.setattr(verify, "run_suites", raising)
    rc, out, err = run_cli(capsys, "verify", "--suite", "genfun")
    assert rc == 2
    assert out == ""
    assert err == "error: synthetic failure\n"


def test_weval_cut_real(capsys):
    rc, out, _ = run_cli(capsys, "weval", "--z", "-1.5")
    assert rc == 0
    doc = json.loads(out)
    assert "j" in doc["w"]  # boundary value is complex


def test_out_path(tmp_path, capsys):
    target = tmp_path / "coeffs.json"
    rc, out, _ = run_cli(capsys, "coeffs", "--n", "2", "--out", str(target))
    assert rc == 0
    assert out == ""
    assert json.loads(target.read_text())["n"] == 2


def _report_argv(output):
    return ("invert", "--pair", "step", "--x", "0.5,1,2.5", "--n", "8", "--output", output)


@pytest.mark.parametrize("old", ["longer", "shorter"])
@pytest.mark.parametrize("output", ["json", "csv", "text"])
def test_out_rewrites_an_existing_file_in_place(tmp_path, capsys, monkeypatch, output, old):
    rc, stdout, _ = run_cli(capsys, *_report_argv(output))
    assert rc == 0
    target = tmp_path / "out.txt"
    target.write_text("old\n" * len(stdout) if old == "longer" else "{}\n")
    inode = target.stat().st_ino
    flags = []
    real_open = os.open
    monkeypatch.setattr(os, "open", lambda path, flag, *rest: flags.append(flag)
                        or real_open(path, flag, *rest))
    assert run_cli(capsys, *_report_argv(output), "--out", str(target)) == (0, "", "")
    assert target.read_bytes() == stdout.encode()  # the old tail is gone
    assert target.stat().st_ino == inode  # the same file, not one renamed over it
    assert flags and not any(flag & os.O_TRUNC for flag in flags)  # never cut to zero


def test_out_to_devnull_exits_0(capsys):
    assert run_cli(capsys, *_report_argv("json"), "--out", os.devnull) == (0, "", "")


def test_out_to_a_fifo_writes_the_stdout_bytes_and_cuts_nothing(tmp_path, capsys):
    rc, stdout, _ = run_cli(capsys, *_report_argv("json"))
    assert rc == 0
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    result = run_cli(capsys, *_report_argv("json"), "--out", str(fifo))
    reader.join(timeout=5)
    if reader.is_alive():  # the command never opened the FIFO: release the reader
        os.close(os.open(fifo, os.O_WRONLY))
        reader.join()
    assert result == (0, "", "")
    assert got == [stdout.encode()]


def test_out_creates_a_new_file_with_the_mode_open_gives_it(tmp_path, capsys):
    target, reference = tmp_path / "new.json", tmp_path / "reference.json"
    umask = os.umask(0o027)
    try:
        rc, _, _ = run_cli(capsys, "coeffs", "--n", "2", "--out", str(target))
        open(reference, "w").close()
    finally:
        os.umask(umask)
    assert rc == 0
    mode = stat.S_IMODE(target.stat().st_mode)
    assert mode == 0o666 & ~0o027 == stat.S_IMODE(reference.stat().st_mode)


@pytest.mark.parametrize("source", [("--pair", "step"), ("--pair", "sine"),
                                    ("--transform", "1/(z+1)")], ids=" ".join)
@pytest.mark.parametrize("order", [("invert", "--n"), ("invert", "--n-max"),
                                   ("ladder", "--n-max")], ids=" ".join)
def test_each_x_is_checked_once(capsys, monkeypatch, source, order):
    import gsinv.inverter
    import gsinv.pairs

    checked = []
    real = numerics.check_point

    def counting(x, *args):
        checked.append(x)
        return real(x, *args)

    for module in (numerics, gsinv.inverter, gsinv.pairs):
        monkeypatch.setattr(module, "check_point", counting)
    command, flag = order
    rc, _, _ = run_cli(capsys, command, *source, "--x", "0.5,1,2.5", flag, "6")
    assert rc == 0
    assert checked == ["0.5", "1", "2.5"]


_BAD_X = {  # --x -> its error line
    "0": "evaluation point must be finite and > 0, got x = 0.0",
    "-1": "evaluation point must be finite and > 0, got x = -1.0",
    "inf": "evaluation point must be finite and > 0, got x = +inf",
    "nan": "evaluation point must be finite and > 0, got x = nan",
    "": "not a real number: ''",
    "x": "not a real number: 'x'",
}


@pytest.mark.parametrize("x", sorted(_BAD_X))
@pytest.mark.parametrize("order", [("invert", "--n"), ("invert", "--n-max"),
                                   ("ladder", "--n-max")], ids=" ".join)
def test_bad_x_exits_2_with_its_error_line(capsys, x, order):
    command, flag = order
    for points in (x, f"1,{x}"):
        rc, out, err = run_cli(capsys, command, "--pair", "step", "--x", points, flag, "4")
        assert (rc, out, err) == (2, "", f"error: {_BAD_X[x]}\n")


@pytest.mark.parametrize("flag", ["--n", "--n-max"])
def test_invert_order_zero_names_the_order(capsys, flag):
    rc, out, err = run_cli(capsys, "invert", "--pair", "exponential", "--x", "1", flag, "0")
    assert rc == 2
    assert out == ""
    assert err == "error: order must be an integer in [1, 64], got 0\n"


def test_invert_rejects_both_order_flags(capsys):
    rc, out, err = run_cli(capsys, "invert", "--pair", "exponential", "--x", "1",
                           "--n", "4", "--n-max", "3")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "--n-max" in err


def test_weval_rejects_extra_parts(capsys):
    rc, out, err = run_cli(capsys, "weval", "--z", "1,2,3")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "1,2,3" in err


@pytest.mark.parametrize("argv", [("coeffs", "--n", "3"), ("corpus",),
                                  ("verify", "--suite", "vandermonde")])
@pytest.mark.parametrize("bad", ["directory", "missing-parent"])
def test_unwritable_out_path_exits_2_with_one_error_line(tmp_path, capsys, argv, bad):
    out = tmp_path if bad == "directory" else tmp_path / "missing" / "x.json"
    rc, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert rc == 2
    assert stdout == ""
    code = errno.EISDIR if bad == "directory" else errno.ENOENT
    assert err == f"error: [Errno {code}] {os.strerror(code)}: {str(out)!r}\n"


@pytest.mark.parametrize("argv", [
    ("invert", "--pair", "constant", "--x", "1", "--n", "4"),
    ("ladder", "--pair", "constant", "--x", "1", "--n-max", "4"),
    ("weval", "--z", "-0.3678"),
])
def test_digits_over_the_cap_exit_2_before_any_context(capsys, monkeypatch, argv):
    built = []
    real = numerics.MPContext
    monkeypatch.setattr(numerics, "MPContext", lambda: built.append(1) or real())
    rc, out, err = run_cli(capsys, *argv, "--digits", str(MAX_DIGITS + 1))
    assert rc == 2
    assert out == "" and built == []
    assert err == f"error: --digits {MAX_DIGITS + 1} exceeds the cap MAX_DIGITS = {MAX_DIGITS}\n"


@pytest.mark.parametrize("digits", ["14", "0", "-3"])
@pytest.mark.parametrize("argv", [
    ("invert", "--pair", "constant", "--x", "1", "--n", "4"),
    ("ladder", "--pair", "constant", "--x", "1", "--n-max", "4"),
    ("weval", "--z", "-0.3678"),
])
def test_digits_under_the_floor_exit_2_before_any_context(capsys, monkeypatch, argv, digits):
    built = []
    real = numerics.MPContext
    monkeypatch.setattr(numerics, "MPContext", lambda: built.append(1) or real())
    rc, out, err = run_cli(capsys, *argv, "--digits", digits)
    assert rc == 2
    assert out == "" and built == []
    assert err == f"error: --digits {digits} is below the floor MIN_DIGITS = 15\n"


# argv drawn from a small grammar of every subcommand's flags: each flag
# (name, good values, bad values, chance in eighths that it is given)
# takes a good value seven times in eight; <file>, <dir> and <missing>
# stand for --out paths
_ORDERS = ([str(n) for n in range(1, 9)], ["0", "65"])
_DIGITS = (["15", "28", "40"], ["0", "-3", str(MAX_DIGITS + 1), "100000", "1.5", "abc", ""])
_OUT = ("--out", ["<file>"], ["<dir>", "<missing>"], 2)


def _invert_flags(single, ladder):
    return [("--pair", ["constant", "exponential", "sine"], ["bogus"], 6),
            ("--transform", ["1/z", "1/(z+1)"], ["bogus"], 2),
            ("--x", ["1", "0.5,2"], ["0", "-1", "-2.5", "inf", "nan", "", "x"], 7),
            ("--n", *_ORDERS, single), ("--n-max", *_ORDERS, ladder),
            ("--digits", ["auto", *_DIGITS[0]], _DIGITS[1], 4),
            ("--output", ["text", "json", "csv"], ["xml"], 4), _OUT]


_GRAMMAR = {
    "coeffs": [("--n", *_ORDERS, 7), ("--set", ["a", "c", "both"], ["d"], 4),
               ("--output", ["json", "csv"], ["xml"], 4), _OUT],
    "invert": _invert_flags(single=6, ladder=2),
    "ladder": _invert_flags(single=1, ladder=7),
    "corpus": [_OUT],
    "verify": [("--suite", ["vandermonde", "genfun"], ["nope", "all,genfun"], 7),
               ("--suite", ["vandermonde", "genfun"], [], 2), _OUT],
    "weval": [("--z", ["1", "-0.3678", "-0.5,0.5", "-1.5"], ["inf", "nan", "", "1,2,3", "w"], 7),
              ("--digits", *_DIGITS, 4), _OUT],
}


@st.composite
def _cli_argv(draw):
    command = draw(st.sampled_from(sorted(_GRAMMAR)))
    argv = [command]
    for flag, good, bad, eighths in _GRAMMAR[command]:
        if draw(st.integers(0, 7)) < eighths:
            values = good if not bad or draw(st.integers(0, 7)) else bad
            argv += [flag, draw(st.sampled_from(values))]
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-fuzz")


@given(_cli_argv())
def test_cli_fuzz_exits_0_1_or_2_without_traceback(fuzz_dir, argv):
    paths = {"<file>": fuzz_dir / "out.txt", "<dir>": fuzz_dir,
             "<missing>": fuzz_dir / "missing" / "out.txt"}
    argv = [str(paths.get(a, a)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = main(argv)
    assert rc in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv


_BACK_TO_BACK = [
    ("invert", "--pair", "exponential", "--x", "1,2.5", "--n", "8", "--digits", "40"),
    ("invert", "--pair", "exponential", "--x", "1,2.5", "--n", "8"),  # auto after 40
    ("coeffs", "--n", "3", "--bogus"),  # a usage error, then valid calls
    ("coeffs", "--n", "3"),
    ("ladder", "--pair", "step", "--x", "1"),  # --n-max missing
    ("ladder", "--pair", "step", "--x", "1", "--n-max", "5", "--output", "csv"),
    ("verify", "--suite", "vandermonde"),
    ("verify", "--suite", "vandermonde"),  # the appended --suite list starts empty again
    ("weval", "--z", "0.5,0.25", "--digits", "20"),
    ("weval", "--z", "0.5"),
    ("invert", "--transform", "1/(z+1)", "--x", "0.5", "--n-max", "4", "--output", "json"),
    ("invert", "--n", "4", "--x", "1"),  # no --pair or --transform
    ("corpus", "--help"),
    ("coeffs", "--n", "2", "--set", "c", "--output", "csv"),
]


def test_reused_parser_answers_each_call_like_a_first_call(capsys):
    import gsinv.cli as cli

    def first_call(argv):
        cli._parser.cache_clear()  # a fresh parser, as in a new process
        return run_cli(capsys, *argv)

    fresh = [first_call(argv) for argv in _BACK_TO_BACK]
    cli._parser.cache_clear()
    reused = [run_cli(capsys, *argv) for argv in _BACK_TO_BACK]
    assert cli._parser.cache_info().misses == 1
    assert [rc for rc, _, _ in fresh] == [0, 0, 2, 0, 2, 0, 0, 0, 0, 0, 0, 2, 0, 0]
    for argv, want, got in zip(_BACK_TO_BACK, fresh, reused):
        assert got == want, argv
