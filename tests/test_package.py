"""The package namespace: names resolved from their submodules on first use."""
import functools
import importlib
import inspect
import pathlib
import subprocess
import sys

import pytest

import gsinv
import gsinv.cli
import gsinv.inverter
import gsinv.lambertw
import gsinv.numerics
import gsinv.qpoly
import gsinv.verify
from test_contract import CONTRACT, DIAGNOSTICS, OUT_OF_SCOPE

SRC = pathlib.Path(gsinv.__file__).resolve().parents[1]

# every public name of the package, by the submodule that defines it
PUBLIC = {
    "coeffs": ["GaverStehfestCoeffs", "StehfestWeights", "coeffs_from_weights",
               "gaver_stehfest_coeffs", "stehfest_weights", "vandermonde_check"],
    "errors": ["DomainError", "PrecisionError", "ProbeError", "QuadratureError",
               "TransformEvaluationError"],
    "inverter": ["InversionReport", "ReportEntry", "TransformFn", "equivalence_probe",
                 "gaver_approx", "invert_ladder", "stehfest_approx", "stehfest_via_gaver"],
    "lambertw": ["branch_series", "in_region_a", "lambert_w0", "w_of_v", "wew_residual",
                 "xi_alpha"],
    "numerics": ["PrecisionContext", "context_for_order", "guard_for_order", "integrate",
                 "required_digits"],
    "pairs": ["TransformPair", "corpus", "get_pair", "jordan_target", "run_pair"],
    "qpoly": ["DecayFit", "JumpFormCheck", "decay_bound_probe",
              "genfun_identity_check", "integral_representation_check", "qn_at_one_asymptotic",
              "qn_coeffs", "qn_eval", "qn_exact", "qn_jump_form_check"],
}


# the packages fresh_modules reports: gsinv, and what a launch pays for, mpmath
# and dataclasses (which pulls in inspect, ast, dis and tokenize)
WATCHED = ("gsinv", "mpmath", "dataclasses", "inspect")


def fresh_modules(code):
    """The WATCHED modules a fresh interpreter holds after ``code``."""
    prog = (f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{code}\n"
            f"print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] in {WATCHED!r})))")
    done = subprocess.run([sys.executable, "-c", prog], capture_output=True, text=True,
                          stdin=subprocess.DEVNULL, check=True, timeout=120)
    return set(done.stdout.split())


def test_all_is_the_public_api_in_defining_order():
    assert gsinv.__all__ == [name for names in PUBLIC.values() for name in names]
    assert len(gsinv.__all__) == 45
    assert gsinv.__version__ == "0.1.0"


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_each_name_is_the_defining_modules_object(module):
    defining = sys.modules[f"gsinv.{module}"]
    for name in PUBLIC[module]:
        obj = getattr(gsinv, name)
        assert obj is getattr(defining, name)
        assert obj.__module__ == defining.__name__
        assert name not in vars(gsinv)  # read through, never copied here


@pytest.mark.parametrize("module", sorted(gsinv._SUBMODULES))
def test_no_submodule_declares_its_own_api(module):
    # gsinv._ORIGIN is the one declaration; a module list would be a second copy
    assert not hasattr(importlib.import_module(f"gsinv.{module}"), "__all__")


def test_module_only_diagnostics_show_in_their_modules_star_import():
    for name, module in DIAGNOSTICS.items():
        scope = {}
        exec(f"from {module.__name__} import *", scope)
        assert scope[name] is getattr(module, name)


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
    loaded = fresh_modules("import gsinv\nassert gsinv.gaver_stehfest_coeffs(8).n == 8\n"
                           "assert gsinv.stehfest_weights(8).n == 8")
    assert loaded == {"gsinv", "gsinv.coeffs", "gsinv.errors"}


def test_submodules_are_the_package_files():
    files = {path.stem for path in (SRC / "gsinv").glob("*.py")}
    assert gsinv._SUBMODULES == files - {"__init__"}


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


def test_kernel_polynomial_module_loads_no_inverter():
    # the integral representation is checked as an exact kernel identity,
    # so the q_n module needs nothing of the inverter
    loaded = fresh_modules("import gsinv.qpoly")
    assert "gsinv.qpoly" in loaded and "gsinv.inverter" not in loaded


def test_coeffs_command_loads_no_mpmath(tmp_path):
    out = tmp_path / "coeffs.json"
    loaded = fresh_modules(
        f"from gsinv.cli import main\nassert main(['coeffs', '--n', '4', '--out', {str(out)!r}]) == 0")
    assert '"n": 4' in out.read_text()
    assert loaded == {"gsinv", "gsinv.cli", "gsinv.coeffs", "gsinv.errors"}


# parameter names that carry an order, a series length or a real point
DOMAIN_PARAMETERS = {"n", "k", "n_max", "N", "x", "z", "v", "u", "eps", "epsilon"}


def test_every_order_or_point_parameter_is_in_the_contract_table():
    for name in [*gsinv.__all__, *DIAGNOSTICS]:
        obj = getattr(DIAGNOSTICS.get(name, gsinv), name)
        if inspect.isclass(obj) or not callable(obj) or name in OUT_OF_SCOPE:
            continue
        params = DOMAIN_PARAMETERS.intersection(inspect.signature(obj).parameters)
        if params:
            assert name in CONTRACT, f"{name} takes {sorted(params)} but is not in CONTRACT"
            assert set(CONTRACT[name][1]) == params, name


def reach(*roots):
    """The gsinv objects that code from ``roots`` reaches, by ``id``.

    A static closure.  A function reaches each name its code (nested code
    included) loads or imports, looked up in its module and in every
    gsinv module, and the defaults of its parameters.  An ``lru_cache``
    or a check wrapper stands for the function it wraps, an instance for
    its class, and a class for the functions it defines.
    """
    modules = [vars(m) for name, m in sorted(sys.modules.items()) if name.startswith("gsinv.")]
    todo = list(roots)
    seen = {}
    while todo:
        obj = todo.pop()
        if not (inspect.isfunction(obj) or inspect.isclass(obj) or hasattr(obj, "__wrapped__")):
            obj = type(obj)
        if not getattr(obj, "__module__", "").startswith("gsinv") or id(obj) in seen:
            continue
        seen[id(obj)] = obj
        if hasattr(obj, "__wrapped__"):
            todo.append(inspect.unwrap(obj))
        elif inspect.isclass(obj):
            for member in vars(obj).values():
                member = getattr(member, "__func__", getattr(member, "fget", member))
                if inspect.isfunction(member):
                    todo.append(member)
        elif inspect.isfunction(obj):
            todo += [v for v in (*(obj.__defaults__ or ()), *(obj.__kwdefaults__ or {}).values())
                     if callable(v)]
            codes = [obj.__code__]
            for code in codes:
                codes += [c for c in code.co_consts if inspect.iscode(c)]
                todo += [scope[name] for name in code.co_names
                         for scope in (obj.__globals__, *modules) if name in scope]
    return seen


@functools.lru_cache(maxsize=1)
def reached():
    """What ``cli.main``, the ``cli._cmd_*`` commands and the ``verify.check_*`` checks reach."""
    return reach(gsinv.cli.main,
                 *(fn for name, fn in vars(gsinv.cli).items() if name.startswith("_cmd_")),
                 *(fn for name, fn in vars(gsinv.verify).items() if name.startswith("check_")))


# each link the closure follows: (a root, an object only that link reaches from it)
LINKS = {
    "check wrapper": (gsinv.verify.check_qn_at_one_refined, gsinv.qpoly.qn_at_one_asymptotic),
    "lru_cache": (gsinv.cli._parser, gsinv.cli.build_parser),
    "nested code": (gsinv.lambertw.lambert_w0, gsinv.lambertw.branch_series),
    "parameter default": (gsinv.verify.check_lambertw_defining_identity,
                          gsinv.verify._cut_from_branch_point),
    "instance to class": (gsinv.numerics._TABLES, gsinv.numerics._BoundedCache),
    "class to method": (gsinv.numerics._BoundedCache, gsinv.numerics._BoundedCache.get),
}


@pytest.mark.parametrize("link", sorted(LINKS))
def test_reach_follows_each_link(link):
    root, target = LINKS[link]
    assert id(target) in reach(root)


def test_every_public_name_is_reached_by_the_cli_or_a_verify_check():
    # the errors are the CLI's exit-code contract, public without a caller
    missed = [name for name in gsinv.__all__
              if name not in PUBLIC["errors"] and id(getattr(gsinv, name)) not in reached()]
    assert missed == []


def test_no_module_only_diagnostic_is_reached():
    # one that a command or a check comes to reach goes back into gsinv.__all__
    hit = [name for name, module in DIAGNOSTICS.items()
           if id(getattr(module, name)) in reached()]
    assert hit == []
