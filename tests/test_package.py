"""The package namespace: names resolved from their submodules on first use."""
import inspect
import pathlib
import subprocess
import sys

import pytest

import gsinv
import gsinv.inverter
from test_contract import CONTRACT, OUT_OF_SCOPE

SRC = pathlib.Path(gsinv.__file__).resolve().parents[1]

# every public name of the package, by the submodule that defines it
PUBLIC = {
    "coeffs": ["GaverStehfestCoeffs", "StehfestWeights", "coeffs_from_weights", "gaver_kernel",
               "gaver_stehfest_coeffs", "stehfest_weights", "vandermonde_check"],
    "errors": ["DomainError", "PrecisionError", "ProbeError", "QuadratureError",
               "TransformEvaluationError"],
    "inverter": ["InversionReport", "ReportEntry", "TransformFn", "equivalence_probe",
                 "expansion_probe", "gaver_approx", "invert_ladder", "stehfest_approx",
                 "stehfest_via_gaver"],
    "lambertw": ["BranchSeries", "XiAlpha", "branch_series", "branch_series_eval",
                 "in_region_a", "lambert_w0", "w_of_v", "wew_residual", "xi_alpha"],
    "numerics": ["PrecisionContext", "context_for_order", "guard_for_order", "integrate",
                 "required_digits"],
    "pairs": ["DiniEstimate", "TransformPair", "corpus", "dini_integral_estimate", "get_pair",
              "jordan_target", "laplace_identity_residual", "run_pair"],
    "qpoly": ["DecayFit", "JumpFormCheck", "PolyQ", "SeriesG", "SeriesH", "decay_bound_probe",
              "g_singular_remainder", "g_value", "genfun_identity_check", "hz_branch_check",
              "integral_representation_check", "qn_asymptotic", "qn_at_one_asymptotic",
              "qn_coeffs", "qn_eval", "qn_exact", "qn_jump_form_check", "series_g", "series_h"],
}


def fresh_modules(code):
    """The gsinv and mpmath modules a fresh interpreter holds after ``code``."""
    prog = (f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{code}\n"
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] in ('gsinv', 'mpmath'))))")
    done = subprocess.run([sys.executable, "-c", prog], capture_output=True, text=True,
                          stdin=subprocess.DEVNULL, check=True, timeout=120)
    return set(done.stdout.split())


def test_all_is_the_public_api_in_defining_order():
    assert gsinv.__all__ == [name for names in PUBLIC.values() for name in names]
    assert len(gsinv.__all__) == 62
    assert gsinv.__version__ == "0.1.0"


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_each_name_is_the_defining_modules_object(module):
    for name in PUBLIC[module]:
        obj = getattr(gsinv, name)
        defining = sys.modules[f"gsinv.{module}"]
        assert obj is getattr(defining, name)
        assert obj.__module__ == defining.__name__
        assert name not in vars(gsinv)  # read through, never copied here


def test_dir_lists_the_names_and_unknown_names_raise():
    listed = dir(gsinv)
    assert set(gsinv.__all__) <= set(listed)
    assert "__version__" in listed
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        gsinv.no_such_name  # noqa: B018
    assert not hasattr(gsinv, "mpf_tuples")  # public only in its submodule


def test_a_patch_in_the_defining_module_shows_through(monkeypatch):
    sentinel = object()
    monkeypatch.setattr(gsinv.inverter, "invert_ladder", sentinel)
    assert gsinv.invert_ladder is sentinel
    monkeypatch.undo()
    assert gsinv.invert_ladder is gsinv.inverter.invert_ladder


def test_exact_coefficients_do_not_load_mpmath():
    loaded = fresh_modules("import gsinv\nassert gsinv.gaver_stehfest_coeffs(8).n == 8")
    assert loaded == {"gsinv", "gsinv.coeffs", "gsinv.errors"}


def test_submodules_resolve_as_attributes():
    loaded = fresh_modules("import gsinv\nassert gsinv.series.__name__ == 'gsinv.series'")
    assert loaded == {"gsinv", "gsinv.series"}


def test_invert_loads_no_verification_layer(tmp_path):
    loaded = fresh_modules(
        "from gsinv.cli import main\n"
        f"assert main(['invert', '--pair', 'exponential', '--x', '1', '--n', '4', "
        f"'--out', {str(tmp_path / 'out.txt')!r}]) == 0")
    assert (tmp_path / "out.txt").read_text().startswith("x = 1.0")
    assert {"gsinv.cli", "gsinv.inverter", "mpmath"} <= loaded
    assert loaded.isdisjoint({"gsinv.verify", "gsinv.qpoly", "gsinv.series", "gsinv.lambertw"})


def test_coeffs_command_loads_no_mpmath(tmp_path):
    out = tmp_path / "coeffs.json"
    loaded = fresh_modules(
        f"from gsinv.cli import main\nassert main(['coeffs', '--n', '4', '--out', {str(out)!r}]) == 0")
    assert '"n": 4' in out.read_text()
    assert loaded == {"gsinv", "gsinv.cli", "gsinv.coeffs", "gsinv.errors"}


# parameter names that carry an order, a series length or a real point
DOMAIN_PARAMETERS = {"n", "k", "n_max", "N", "x", "z", "v", "u", "eps", "epsilon"}


def test_every_order_or_point_parameter_is_in_the_contract_table():
    for name in gsinv.__all__:
        obj = getattr(gsinv, name)
        if inspect.isclass(obj) or not callable(obj) or name in OUT_OF_SCOPE:
            continue
        params = DOMAIN_PARAMETERS.intersection(inspect.signature(obj).parameters)
        if params:
            assert name in CONTRACT, f"{name} takes {sorted(params)} but is not in CONTRACT"
            assert set(CONTRACT[name][1]) == params, name
