"""Stability-preserving transforms of the weighted equation.

Three changes of variables map solutions of one weighted equation to
solutions of another while preserving the sign of the stability form:

* Kelvin: w(y) = |x|^(N-2+theta) v(x), y = x/|x|^2, which keeps theta and
  replaces l by beta = (N-2+theta)*(p-1) - (4+l-2*theta),
* dual: z(y) = v(x), y = x/|x|^2, which sends (theta, l) to
  (4-2N-theta, -2N-l) so that the effective indices satisfy
  N'_image + N' = 4 and tau_image + tau = -4,
* sigma: v(x) = |x|^sigma u(x), which removes the Hardy potential term of
  the Schrodinger form at the price of theta = -2*sigma,
  l = alpha - sigma*(p+1).

Parameter-level maps are exact affine arithmetic and return the image
``ProblemParams`` itself.  Function-level maps act on log-uniform radial
grids, where inversion r -> 1/r is a pure relabeling of grid points, so
no interpolation is ever involved.  Their power weights are formed in
logs (``RadialFunction.times_power``), so only an image out of the float
range raises.  Images are built with the input's own class: the maps carry
a test function (``stability.TestFunction``) as they carry a profile, which
``stability.invariance_check`` relies on, and this module loads no numpy.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING

from .params import ProblemParams, SchrodingerParams

if TYPE_CHECKING:
    from .grids import RadialFunction


class TransformKind(str, Enum):
    KELVIN = "kelvin"
    DUAL = "dual"
    SIGMA = "sigma"
    SIGMA_INVERSE = "sigma_inverse"


def kelvin_params(params: ProblemParams) -> ProblemParams:
    """Parameters of the Kelvin image equation.

    The image weight is beta = (N-2+theta)*(p-1) - (4+l-2*theta); the
    image tau is (N'-2)*(p-1) - (4+tau), which exceeds -2 exactly when p
    exceeds the Serrin exponent.
    """
    beta = (params.N - 2.0 + params.theta) * (params.p - 1.0) - (
        4.0 + params.l - 2.0 * params.theta
    )
    return ProblemParams(N=params.N, theta=params.theta, l=beta, p=params.p)


def dual_params(params: ProblemParams) -> ProblemParams:
    """Parameters of the dual image equation (an affine involution)."""
    return ProblemParams(
        N=params.N,
        theta=4.0 - 2.0 * params.N - params.theta,
        l=-2.0 * params.N - params.l,
        p=params.p,
    )


def sigma_params(schrodinger: SchrodingerParams) -> ProblemParams:
    """Weighted-equation parameters equivalent to a Hardy-potential problem."""
    s = schrodinger.sigma
    return ProblemParams(
        N=schrodinger.N,
        theta=-2.0 * s,
        l=schrodinger.alpha - s * (schrodinger.p + 1.0),
        p=schrodinger.p,
    )


def sigma_inverse(params: ProblemParams) -> SchrodingerParams:
    """Hardy-potential parameters equivalent to a weighted problem.

    Inverts sigma_params: sigma = -theta/2, alpha = l + sigma*(p+1) and
    ell = (N-2)*sigma - sigma^2 (so that sigma solves its quadratic).
    """
    s = -params.theta / 2.0
    return SchrodingerParams(
        N=params.N,
        alpha=params.l + s * (params.p + 1.0),
        ell=(params.N - 2.0) * s - s * s,
        p=params.p,
    )


def kelvin_apply(v: RadialFunction, params: ProblemParams) -> RadialFunction:
    """Kelvin image w(s) = s^-(N-2+theta) v(1/s) on the reflected grid.

    Pointwise-exact: the reflected log grid reuses the source nodes, so
    w at node 1/r is r^(N-2+theta) * v(r).  Grids are strictly positive
    by construction, so r = 0 never occurs.
    """
    values = v.times_power(params.N - 2.0 + params.theta)
    return type(v)(grid=v.grid.reflect(), values=values[::-1])


def dual_apply(v: RadialFunction) -> RadialFunction:
    """Dual image z(s) = v(1/s): same values on the reflected grid."""
    return type(v)(grid=v.grid.reflect(), values=v.values[::-1])


def sigma_apply(v: RadialFunction, params: ProblemParams) -> RadialFunction:
    """Hardy-side profile u = r^(-sigma) v on the same grid (sigma = -theta/2)."""
    return type(v)(grid=v.grid, values=v.times_power(params.theta / 2.0))

