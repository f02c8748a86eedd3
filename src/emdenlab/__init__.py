"""Numerical laboratory for the weighted Lane-Emden equation.

Critical exponents, stability-preserving transforms, radial shooting and
discretized stability spectra for

    -div(|x|^theta grad v) = |x|^l |v|^(p-1) v

and its Hardy-potential Schrodinger form.

Public names resolve lazily (PEP 562): ``import emdenlab`` loads no
module of the package, and a name loads only its home module on first
use.  The exponent algebra, the parameter-level transforms, the Hardy
minimum and a spectrum about v_infinity (one number for the potential,
closed form) load neither numpy nor scipy: their constant-coefficient
forms are counted on Python floats.  Grids, profiles and a potential
given on the nodes load numpy; the low spectrum of such a potential loads
``scipy.linalg``.  Shooting loads scipy's compiled LSODA extension from
its file and no scipy package, ``scipy.integrate`` included.
"""

import importlib

__version__ = "0.20.0"

#: Home module of every public name.
_HOMES = {
    "errors": ("EmdenlabError", "InvalidParameterError", "NumericalError"),
    "grids": ("RadialGrid", "RadialFunction"),
    "params": (
        "ProblemParams", "SchrodingerParams", "CriticalExponents", "Classification",
        "RegimeLabel", "f_eval", "gamma_of_p", "capital_gamma", "delta",
        "critical_exponents", "crossing_by_bisection", "classify_p", "hardy_constant",
    ),
    "transforms": (
        "TransformKind", "kelvin_params", "dual_params", "sigma_params",
        "sigma_inverse", "kelvin_apply", "dual_apply", "sigma_apply",
    ),
    "radial_ode": (
        "ShootingResult", "DecayClass", "Ordering", "v_infinity", "shoot", "rescale",
        "asymptotic_constant", "classify_decay", "residual", "sphere_constant_check",
    ),
    "stability": (
        "TestFunction", "FormAssembly", "SpectrumReport", "log_nodes", "potential",
        "assemble_forms", "radial_morse_index", "profile_spectrum", "q_value",
        "q_value_schrodinger", "hardy_rayleigh_min", "invariance_check", "stable_estimate_check",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
