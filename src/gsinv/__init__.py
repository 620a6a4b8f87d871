"""High-precision Gaver-Stehfest inversion of Laplace transforms.

The package has two halves: a production inverter (exact-rational
coefficients, precision policy, the accelerated approximants) and a
verification layer that reproduces the analytic apparatus behind the
method numerically: the Lambert W branch structure, the polynomial kernel
q_n(v) with its generating function and asymptotics, and the convergence
criteria for smooth, Dini-regular and bounded-variation originals.

Submodules are imported on first use (PEP 562): ``import gsinv`` loads
none of them, and ``gsinv.gaver_stehfest_coeffs`` loads only the exact
coefficient module: not mpmath, and not ``dataclasses`` (its records are
named tuples).  A public name is read from its defining module on every
access, never copied here, so a name patched in that module (a test's
monkeypatch, a tracer) shows through ``gsinv.<name>``.

The public names are those a CLI command or a ``verify`` check reaches,
plus the exception types behind the CLI's exit codes.  ``_ORIGIN`` below
is the one declaration of them: the submodules define no ``__all__``,
and ``_ORIGIN`` cannot be read off the submodules without importing
them.  Diagnostics that only the tests call (``qn_asymptotic``,
``laplace_identity_residual`` and the like) are imported from their
modules.
"""
import importlib

# public name -> the submodule that defines it
_ORIGIN = {
    name: module
    for module, names in {
        "coeffs": ("GaverStehfestCoeffs", "StehfestWeights", "coeffs_from_weights",
                   "gaver_stehfest_coeffs", "stehfest_weights", "vandermonde_check"),
        "errors": ("DomainError", "PrecisionError", "ProbeError", "QuadratureError",
                   "TransformEvaluationError"),
        "inverter": ("InversionReport", "ReportEntry", "TransformFn", "equivalence_probe",
                     "gaver_approx", "invert_ladder", "stehfest_approx", "stehfest_via_gaver"),
        "lambertw": ("branch_series", "in_region_a", "lambert_w0", "w_of_v", "wew_residual",
                     "xi_alpha"),
        "numerics": ("PrecisionContext", "context_for_order", "guard_for_order", "integrate",
                     "required_digits"),
        "pairs": ("TransformPair", "corpus", "get_pair", "jordan_target", "run_pair"),
        "qpoly": ("DecayFit", "JumpFormCheck", "decay_bound_probe",
                  "genfun_identity_check", "integral_representation_check",
                  "qn_at_one_asymptotic", "qn_coeffs", "qn_eval", "qn_exact",
                  "qn_jump_form_check"),
    }.items()
    for name in names
}
_SUBMODULES = frozenset(
    ("cli", "coeffs", "errors", "inverter", "lambertw", "mantissa", "numerics", "pairs",
     "qpoly", "series", "verify")
)

__all__ = list(_ORIGIN)
__version__ = "0.1.0"


def __getattr__(name):
    module = _ORIGIN.get(name)
    if module is not None:
        return getattr(importlib.import_module(f"{__name__}.{module}"), name)
    if name in _SUBMODULES:  # the import binds it here, as a plain import would
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
