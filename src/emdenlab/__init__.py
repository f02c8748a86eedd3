"""Numerical laboratory for the weighted Lane-Emden equation.

Critical exponents, stability-preserving transforms, radial shooting and
discretized stability spectra for

    -div(|x|^theta grad v) = |x|^l |v|^(p-1) v

and its Hardy-potential Schrodinger form.
"""

__version__ = "0.5.0"

from .errors import EmdenlabError, InvalidParameterError, NumericalError
from .grids import RadialFunction, RadialGrid
from .params import (
    Classification,
    CriticalExponents,
    DerivedIndices,
    ProblemParams,
    RegimeLabel,
    SchrodingerParams,
    capital_gamma,
    classify_p,
    critical_exponents,
    crossing_by_bisection,
    delta,
    derive,
    f_eval,
    gamma_of_p,
    hardy_constant,
)
from .radial_ode import (
    DecayClass,
    Ordering,
    ShootingResult,
    asymptotic_constant,
    classify_decay,
    rescale,
    residual,
    shoot,
    sphere_constant_check,
    v_infinity,
)
from .stability import (
    FormAssembly,
    SpectrumReport,
    TestFunction,
    assemble_forms,
    hardy_rayleigh_min,
    invariance_check,
    q_value,
    q_value_schrodinger,
    radial_morse_index,
    stable_estimate_check,
)
from .transforms import (
    TransformKind,
    TransformedParams,
    dual_apply,
    dual_params,
    kelvin_apply,
    kelvin_params,
    sigma_apply,
    sigma_apply_inverse,
    sigma_inverse,
    sigma_params,
)

__all__ = [
    "__version__",
    "EmdenlabError",
    "InvalidParameterError",
    "NumericalError",
    "RadialGrid",
    "RadialFunction",
    "ProblemParams",
    "SchrodingerParams",
    "DerivedIndices",
    "CriticalExponents",
    "Classification",
    "RegimeLabel",
    "derive",
    "f_eval",
    "gamma_of_p",
    "capital_gamma",
    "delta",
    "critical_exponents",
    "crossing_by_bisection",
    "classify_p",
    "hardy_constant",
    "TransformKind",
    "TransformedParams",
    "kelvin_params",
    "dual_params",
    "sigma_params",
    "sigma_inverse",
    "kelvin_apply",
    "dual_apply",
    "sigma_apply",
    "sigma_apply_inverse",
    "ShootingResult",
    "DecayClass",
    "Ordering",
    "v_infinity",
    "shoot",
    "rescale",
    "asymptotic_constant",
    "classify_decay",
    "residual",
    "sphere_constant_check",
    "TestFunction",
    "FormAssembly",
    "SpectrumReport",
    "assemble_forms",
    "radial_morse_index",
    "q_value",
    "q_value_schrodinger",
    "hardy_rayleigh_min",
    "invariance_check",
    "stable_estimate_check",
]
