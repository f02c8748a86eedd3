"""Log-spaced radial grids and grid functions.

All radial data in this package lives on strictly positive, log-uniform
grids.  Log spacing makes the inversion r -> 1/r map a grid onto another
grid of the same family (reversed), so the Kelvin and dual transforms
never interpolate.

numpy is imported inside the functions that touch arrays, so importing
this module (as ``stability`` does for the Hardy minimum and the spectrum
about v_infinity, which need no grid) loads none.  Grids and grid functions
are immutable: ``__init__`` checks and sets their slots once, and any later
assignment or deletion raises ``AttributeError``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import InvalidParameterError, NumericalError

if TYPE_CHECKING:
    import numpy as np

# Allowed spread of log-spacing increments (grid invariant).
LOG_SPACING_TOL = 1e-12


def _readonly(a, preserve_dtype=False) -> np.ndarray:
    import numpy as np

    if preserve_dtype and isinstance(a, np.ndarray) and np.issubdtype(a.dtype, np.floating):
        arr = a.copy()
    else:
        arr = np.array(a, dtype=float)
    arr.flags.writeable = False
    return arr


def _frozen(self, name, value=None):
    """``__setattr__`` and ``__delattr__`` of an immutable object."""
    raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")


class RadialGrid:
    """Strictly increasing, strictly positive, log-uniform radii."""

    __slots__ = ("points", "_logs")
    __setattr__ = __delattr__ = _frozen

    def __init__(self, points):
        import numpy as np

        pts = _readonly(points)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size < 2:
            raise InvalidParameterError("grid needs at least two points")
        if not np.all(np.isfinite(pts)) or pts[0] <= 0.0:
            raise InvalidParameterError("grid points must be finite and positive")
        logs = np.log(pts)
        steps = np.diff(logs)
        if np.any(steps <= 0.0):
            raise InvalidParameterError("grid points must be strictly increasing")
        if np.ptp(steps) > LOG_SPACING_TOL * max(1.0, steps[0]):
            raise InvalidParameterError("grid is not log-uniform")
        object.__setattr__(self, "_logs", _readonly(logs))

    @classmethod
    def logspaced(cls, r_min: float, r_max: float, n: int) -> "RadialGrid":
        import numpy as np

        if not (0.0 < r_min < r_max < np.inf):
            raise InvalidParameterError("need 0 < r_min < r_max < inf")
        if not (n >= 2 and hasattr(n, "__index__")):  # an int as range() takes it, not 8.5
            raise InvalidParameterError(f"grid needs an integer n of at least two points, got {n}")
        return cls(np.geomspace(r_min, r_max, n))

    @property
    def r_min(self) -> float:
        return float(self.points[0])

    @property
    def r_max(self) -> float:
        return float(self.points[-1])

    @property
    def n(self) -> int:
        return int(self.points.size)

    @property
    def log_points(self) -> np.ndarray:
        return self._logs

    def reflect(self) -> "RadialGrid":
        """Image of the grid under r -> 1/r (reversed to stay increasing)."""
        return RadialGrid(1.0 / self.points[::-1])

    def scaled(self, factor: float) -> "RadialGrid":
        if factor <= 0.0:
            raise InvalidParameterError("scale factor must be positive")
        return RadialGrid(self.points * factor)


class RadialFunction:
    """Values of a radial function on a :class:`RadialGrid`."""

    __slots__ = ("grid", "values")
    __setattr__ = __delattr__ = _frozen

    def __init__(self, grid: RadialGrid, values):
        import numpy as np

        # Extended-precision values are preserved; anything else becomes float64.
        vals = _readonly(values, preserve_dtype=True)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", vals)
        if vals.shape != grid.points.shape:
            raise InvalidParameterError("values and grid have different lengths")
        if not np.all(np.isfinite(vals)):
            raise InvalidParameterError("values must be finite")

    def times_power(self, power: float) -> np.ndarray:
        """values * r^power, formed in logs: only a product out of range raises."""
        import numpy as np

        # v = 0 gives 0; a power so large that power * log r overflows gives NaN there
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            logs = power * self.grid.log_points + np.log(np.abs(self.values))
            out = np.sign(self.values) * np.exp(logs)
        if not np.all(np.isfinite(out)):
            raise NumericalError(f"values * r^{power} leave the float range")
        return out

    def interp(self, r) -> np.ndarray:
        """Linear-in-log-r interpolation of the values.

        Rejects radii outside the grid range (beyond a relative slack of
        1e-12); transforms and potentials never extrapolate.
        """
        import numpy as np

        r = np.asarray(r, dtype=float)
        slack = 1e-12
        if np.any(r < self.grid.r_min * (1.0 - slack)) or np.any(
            r > self.grid.r_max * (1.0 + slack)
        ):
            raise InvalidParameterError("interpolation point outside grid range")
        return np.interp(np.log(r), self.grid.log_points, self.values)
