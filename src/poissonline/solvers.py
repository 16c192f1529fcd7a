"""Boundary-data solvers built on the extension kernels.

Each solver evaluates u(y, .) = integral kernel(y, ., source) * data(source)
for one of the three operators.  The transport and scaling problems reduce
to a single semi-infinite integral in the gap variable and reuse the
adaptive log-axis quadrature directly; the scaling problem is first moved
to the logarithmic coordinate X = log|xi| / (-2a), where its kernel is
exactly the transport kernel and the integration measure is uniform.  The
oscillator problem is solved datum-first: the Mehler heat flow of the
datum, a Gauss-Legendre sum over panels graded around x' = x, is
subordinated by one semi-infinite u-quadrature per panel rung, rather than
integrating a separately subordinated kernel at every x' node.

Data presets carry their own support and integrability information; the
solvers reject combinations whose integral does not converge instead of
returning garbage (InvalidDataError).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .kernels import (
    DegenerateCharacteristicError,
    _log_stable_half_density,
    _mehler_log,
)
from .numerics import (
    NODES_PER_PANEL,
    graded_breakpoints,
    hermite_function,
    leggauss,
    not_a_knot_spline,
    split_panels,
)
from .quadrature import (
    IntegrandEvaluationError,
    NonConvergenceError,
    QuadratureConfig,
    integrate_semi_infinite,
)

__all__ = [
    "InitialData",
    "InvalidDataError",
    "SolveResult",
    "SolveRequest",
    "SolutionGrid",
    "solve_dirac",
    "solve_euler",
    "solve_oscillator",
    "solve_grid",
]

_PROBLEMS = ("dirac", "euler", "oscillator")

# Which presets each problem can integrate.  The transport kernel has a
# power-law tail in the gap, so data growing faster than a bounded function
# is rejected; the oscillator kernel decays like a Gaussian but the panel
# quadrature needs a finite effective support.
_ALLOWED = {
    "dirac": {"gaussian", "bump", "exponential", "sampled"},
    "euler": {"gaussian", "bump", "exponential", "power", "sampled"},
    "oscillator": {"gaussian", "bump", "eigenfunction", "sampled"},
}


class InvalidDataError(ValueError):
    """The data preset cannot be integrated against the requested kernel."""


def _positive(value, name: str) -> float:
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a positive finite real, got {value!r}")
    return float(value)


def _finite(value, name: str) -> float:
    if not (isinstance(value, (int, float)) and math.isfinite(value)):
        raise ValueError(f"{name} must be a finite real, got {value!r}")
    return float(value)


class InitialData:
    """Boundary datum presets with known support and decay.

    kind            parameters            notes
    ----            ----------            -----
    gaussian        center, width         exp(-(x-c)^2 / (2 w^2)), peak 1
    bump            center, radius        smooth, compactly supported, peak 1
    exponential     rate (> 0)            exp(-rate x); decays only to the
                                          right, which is the direction the
                                          transport kernel integrates over
    power           exponent (> 0)        |x|^exponent; eigen-datum of the
                                          scaling operator, integrable there
                                          because it maps to a decaying
                                          exponential in the log coordinate
    eigenfunction   n                     phi_n for the oscillator frequency
                                          supplied at evaluation time
    sampled         grid, values          cubic interpolation through >= 4
                                          strictly increasing nodes, zero
                                          outside the sampled window

    Instances are callable: data(x, a=None), vectorized over x.  The
    eigenfunction preset needs the frequency a; the others ignore it.
    """

    def __init__(self, kind: str, params: tuple,
                 fn: Callable, support_fn: Callable, needs_a: bool = False):
        self.kind = kind
        self.params = params
        self._fn = fn
        self._support_fn = support_fn
        self.needs_a = needs_a

    @classmethod
    def gaussian(cls, center: float, width: float) -> "InitialData":
        center = _finite(center, "center")
        width = _positive(width, "width")

        def fn(x, a=None):
            t = (np.asarray(x, dtype=float) - center) / width
            with np.errstate(under="ignore"):
                return np.exp(-0.5 * t * t)

        # 10 sigma: the neglected mass is ~2e-22 of the peak
        return cls("gaussian", (center, width), fn,
                   lambda a=None: (center - 10.0 * width, center + 10.0 * width))

    @classmethod
    def bump(cls, center: float, radius: float) -> "InitialData":
        center = _finite(center, "center")
        radius = _positive(radius, "radius")

        def fn(x, a=None):
            t = (np.asarray(x, dtype=float) - center) / radius
            out = np.zeros_like(t)
            inside = np.abs(t) < 1.0
            ti = t[inside]
            with np.errstate(under="ignore"):
                out[inside] = np.exp(1.0 - 1.0 / (1.0 - ti * ti))
            return out

        return cls("bump", (center, radius), fn,
                   lambda a=None: (center - radius, center + radius))

    @classmethod
    def exponential(cls, rate: float) -> "InitialData":
        rate = _positive(rate, "rate")

        def fn(x, a=None):
            with np.errstate(under="ignore", over="ignore"):
                return np.exp(-rate * np.asarray(x, dtype=float))

        return cls("exponential", (rate,), fn, lambda a=None: None)

    @classmethod
    def power(cls, exponent: float) -> "InitialData":
        exponent = _positive(exponent, "exponent")

        def fn(x, a=None):
            with np.errstate(under="ignore", over="ignore"):
                return np.abs(np.asarray(x, dtype=float)) ** exponent

        return cls("power", (exponent,), fn, lambda a=None: None)

    @classmethod
    def eigenfunction(cls, n: int) -> "InitialData":
        if not (isinstance(n, int) and not isinstance(n, bool) and n >= 0):
            raise ValueError(f"n must be a nonnegative integer, got {n!r}")

        def fn(x, a=None):
            if a is None:
                raise ValueError("the eigenfunction preset needs the frequency a")
            return hermite_function(n, a, x)

        def support(a=None):
            if a is None:
                raise ValueError("the eigenfunction preset needs the frequency a")
            # classical turning point plus a deep Gaussian margin
            radius = math.sqrt((2 * n + 1) / a) + 12.0 / math.sqrt(a)
            return (-radius, radius)

        return cls("eigenfunction", (n,), fn, support, needs_a=True)

    @classmethod
    def sampled(cls, grid: Sequence[float], values: Sequence[float],
                interpolation: str = "cubic") -> "InitialData":
        if interpolation != "cubic":
            raise ValueError(f"unsupported interpolation {interpolation!r}")
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if grid.ndim != 1 or grid.size < 4:
            raise ValueError("sampled data needs at least 4 grid nodes")
        if values.shape != grid.shape:
            raise ValueError("grid and values must have matching shapes")
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(values))):
            raise ValueError("sampled data must be finite")
        if not np.all(np.diff(grid) > 0):
            raise ValueError("sampled grid must increase strictly")
        spline = not_a_knot_spline(grid, values)
        lo, hi = float(grid[0]), float(grid[-1])

        def fn(x, a=None):
            x = np.asarray(x, dtype=float)
            out = np.zeros_like(x)
            inside = (x >= lo) & (x <= hi)
            out[inside] = spline(x[inside])
            return out

        return cls("sampled", (lo, hi, grid.size), fn, lambda a=None: (lo, hi))

    def __call__(self, x, a: float | None = None):
        return self._fn(x, a=a)

    def effective_support(self, a: float | None = None):
        """(lo, hi) outside which the datum is negligible, or None."""
        return self._support_fn(a=a)

    def describe(self) -> str:
        params = ",".join(format(p, ".12g") if isinstance(p, float) else str(p)
                          for p in self.params)
        return f"{self.kind}:{params}" if params else self.kind

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"InitialData({self.describe()})"


class SolveResult(NamedTuple):
    value: float
    error_estimate: float
    converged: bool


def _check_data(problem: str, data: InitialData) -> None:
    if not isinstance(data, InitialData):
        raise InvalidDataError(f"data must be an InitialData, got {type(data)!r}")
    if data.kind not in _ALLOWED[problem]:
        raise InvalidDataError(
            f"preset {data.kind!r} is not integrable against the {problem} "
            f"kernel; allowed: {sorted(_ALLOWED[problem])}"
        )


def _signed_log(values: np.ndarray):
    """(sign, log|values|), log 0 = -inf.

    Called inside the quadrature, whose error state already ignores the
    division by zero of log 0; a caller outside it sets its own.
    """
    return np.sign(values), np.log(np.abs(values))


def _window_hints(lo: float, hi: float) -> tuple:
    """Interior quarter points of a window, for the quadrature peak scan."""
    if not (hi > lo):
        return ()
    return tuple(lo + f * (hi - lo) for f in (0.25, 0.5, 0.75))


def solve_dirac(data: InitialData, y: float, target: float,
                cfg: QuadratureConfig | None = None) -> SolveResult:
    """Transport-problem solution u(y, X) = integral_X^inf P * data.

    The integral runs over the gap s = X' - X in (0, inf), where the
    kernel is the one-sided stable-1/2 density; the adaptive log-axis
    quadrature resolves its y^2-narrow onset without special casing.
    """
    _check_data("dirac", data)
    y = _positive(y, "y")
    target = _finite(target, "target")
    if cfg is None:
        cfg = QuadratureConfig()

    def integrand(s):
        d = np.asarray(data(target + s), dtype=float)
        sign, logmag = _signed_log(d)
        return sign, logmag + _log_stable_half_density(y, s)

    hints = ()
    support = data.effective_support()
    if support is not None:
        hints = _window_hints(max(support[0] - target, 0.0), support[1] - target)
    res = integrate_semi_infinite(integrand, cfg, probe_hints=hints)
    return SolveResult(res.value, res.error_estimate, res.converged)


def solve_euler(data: InitialData, y: float, target: float, a: float,
                cfg: QuadratureConfig | None = None) -> SolveResult:
    """Scaling-problem solution at xi = target on its own sign branch.

    Substituting X = log|xi| / (-2a) turns the problem into the transport
    one: the solution is the transport integral of the datum evaluated
    along xi' = sign(xi) exp(-2a (X + s)).  Points with xi = 0 lie on the
    invariant line and raise DegenerateCharacteristicError.
    """
    _check_data("euler", data)
    y = _positive(y, "y")
    a = _positive(a, "a")
    target = _finite(target, "target")
    if target == 0.0:
        raise DegenerateCharacteristicError(
            "the scaling problem is undefined on the invariant line xi = 0"
        )
    if cfg is None:
        cfg = QuadratureConfig()
    X = math.log(abs(target)) / (-2.0 * a)
    branch = 1.0 if target > 0 else -1.0

    def integrand(s):
        xip = branch * np.exp(-2.0 * a * (X + s))
        d = np.asarray(data(xip, a=a), dtype=float)
        sign, logmag = _signed_log(d)
        return sign, logmag + _log_stable_half_density(y, s)

    hints = ()
    support = data.effective_support(a=a)
    if support is not None:
        # intersect the datum support with the branch segment 0 < |xi'| < |xi|,
        # then map to the gap coordinate s = log(|xi| / |xi'|) / (2a)
        if branch > 0:
            w_lo, w_hi = max(support[0], 0.0), min(support[1], abs(target))
        else:
            w_lo, w_hi = max(support[0], target), min(support[1], 0.0)
        hints = tuple(
            math.log(abs(target) / abs(q)) / (2.0 * a)
            for q in _window_hints(w_lo, w_hi) if q != 0.0
        )
    res = integrate_semi_infinite(integrand, cfg, probe_hints=hints)
    return SolveResult(res.value, res.error_estimate, res.converged)


_MAX_PANEL_DOUBLINGS = 6
# (u, x') samples evaluated at once by a heat-flow integrand: bounds the
# temporaries when deep panel rungs carry tens of thousands of x' nodes
_BLOCK_ELEMENTS = 1 << 16


def _heat_flow_integrand(y: float, target: float, a: float, xs: np.ndarray,
                         sign_wd, log_wd: np.ndarray):
    """u -> (sign, log) of P_y(u) * sum_j wd_j K(u, target, xs_j).

    P_y(u) = (y / (2 sqrt(pi))) u^{-3/2} exp(-y^2 / (4u)) is the
    subordination density and K the oscillator heat kernel; the weighted
    sum over the x' nodes is a signed log-sum-exp, one row of the
    (u x x') block per abscissa.
    """
    rows = max(1, _BLOCK_ELEMENTS // xs.size)

    def integrand(u):
        top = np.empty(u.shape)
        total = np.empty(u.shape)
        for i in range(0, u.size, rows):
            terms = _mehler_log(u[i:i + rows, None], target, xs, a)
            terms += log_wd
            peak = terms.max(axis=1)
            terms -= peak[:, None]
            np.exp(terms, out=terms)
            top[i:i + rows] = peak
            total[i:i + rows] = terms @ sign_wd
        logmag = top + np.log(np.abs(total))
        return np.sign(total), logmag + _log_stable_half_density(y, u)

    return integrand


def _subordinate(y: float, target: float, a: float, xs: np.ndarray,
                 wd: np.ndarray, cfg: QuadratureConfig):
    """(value, error, converged) of integral P_y(u) sum_j wd_j K(u, target, xs_j) du.

    The signed sum may cancel to nothing (an odd datum at its centre), so
    the u-quadrature converges against rel_tol times the magnitude
    integral M = integral P_y(u) sum_j |wd_j| K du rather than against
    rel_tol times |value|: the signed integrand is divided by M and
    integrated with abs_tol = rel_tol.  M only sets that scale; the value
    is exact in it.
    """
    if xs.size == 0:
        return 0.0, 0.0, True
    with np.errstate(divide="ignore"):
        sign_wd, log_wd = _signed_log(wd)
    mag = integrate_semi_infinite(
        _heat_flow_integrand(y, target, a, xs, np.ones_like(wd), log_wd), cfg)
    scale = mag.value
    if scale == 0.0 or not math.isfinite(scale):
        return scale, mag.error_estimate, mag.converged
    res = integrate_semi_infinite(
        _heat_flow_integrand(y, target, a, xs, sign_wd, log_wd - math.log(scale)),
        replace(cfg, abs_tol=cfg.rel_tol))
    return (scale * res.value, scale * res.error_estimate,
            res.converged and mag.converged)


def solve_oscillator(data: InitialData, y: float, target: float, a: float,
                     cfg: QuadratureConfig | None = None) -> SolveResult:
    """Oscillator-problem solution w(y, x) = integral P(y, x, x') data(x') dx'.

    Datum-first ordering: by Fubini,

        w(y, x) = (y / (2 sqrt(pi))) integral_0^inf u^{-3/2} exp(-y^2 / (4u))
                  [integral K(u, x, x') data(x') dx'] du,

    so the heat flow is applied to the datum first and subordinated once.
    The inner x' integral is a fixed 16-node Gauss-Legendre rule on panels
    graded around x' = x; for each panel rung the whole weighted sum is
    the integrand of one semi-infinite u-quadrature.  Every panel is split
    in two per rung until the ladder difference falls below the tolerance
    plus the u-quadrature error, and the error estimate is the sum of the
    two.
    """
    _check_data("oscillator", data)
    y = _positive(y, "y")
    a = _positive(a, "a")
    target = _finite(target, "target")
    if cfg is None:
        cfg = QuadratureConfig()
    support = data.effective_support(a=a)
    if support is None:
        raise InvalidDataError(
            f"preset {data.kind!r} has no finite effective support for the "
            "oscillator panel quadrature"
        )
    lo, hi = support
    base = graded_breakpoints(lo, hi, target, 0.5 * y)
    nodes, weights = leggauss(NODES_PER_PANEL)

    previous = None
    value = quad_err = 0.0
    converged = True
    ladder_diff = math.inf
    for rung in range(_MAX_PANEL_DOUBLINGS + 1):
        bps = split_panels(base, 2 ** rung)
        mid = 0.5 * (bps[1:] + bps[:-1])[:, None]
        half = 0.5 * (bps[1:] - bps[:-1])[:, None]
        xs = (mid + half * nodes).ravel()
        wd = (half * weights).ravel() * np.asarray(data(xs, a=a), dtype=float)
        keep = wd != 0.0
        value, quad_err, converged = _subordinate(y, target, a, xs[keep],
                                                  wd[keep], cfg)
        if previous is not None:
            ladder_diff = abs(value - previous)
            if ladder_diff <= max(cfg.abs_tol, cfg.rel_tol * abs(value)) + quad_err:
                return SolveResult(value, ladder_diff + quad_err, converged)
        previous = value
    return SolveResult(value, ladder_diff + quad_err, False)


@dataclass(frozen=True)
class SolveRequest:
    """A solver run over a rectangular (y, spatial) grid."""

    problem: str
    data: InitialData
    y_levels: tuple
    spatial_points: tuple
    a: float | None = None
    cfg: QuadratureConfig = QuadratureConfig()

    def __post_init__(self):
        if self.problem not in _PROBLEMS:
            raise ValueError(f"problem must be one of {_PROBLEMS}, got {self.problem!r}")
        _check_data(self.problem, self.data)
        ys = tuple(_positive(y, "y level") for y in self.y_levels)
        if not ys:
            raise ValueError("y_levels must not be empty")
        xs = tuple(_finite(x, "spatial point") for x in self.spatial_points)
        if not xs:
            raise ValueError("spatial_points must not be empty")
        if self.problem == "euler" and any(x == 0.0 for x in xs):
            raise ValueError("euler spatial points must avoid the invariant line 0")
        if self.problem in ("euler", "oscillator"):
            if self.a is None:
                raise ValueError(f"problem {self.problem!r} requires the parameter a")
            object.__setattr__(self, "a", _positive(self.a, "a"))
        object.__setattr__(self, "y_levels", ys)
        object.__setattr__(self, "spatial_points", xs)


@dataclass(eq=False)
class SolutionGrid:
    """Solver values over a grid, with per-cell error and convergence flags.

    `failures` holds, per cell, why its evaluation raised
    ("ExceptionType: message"), or "" for a cell that returned a result;
    it defaults to all "".
    """

    y_levels: tuple
    spatial_points: tuple
    values: np.ndarray
    error_estimates: np.ndarray
    converged: np.ndarray
    failures: np.ndarray | None = None

    def __post_init__(self):
        shape = (len(self.y_levels), len(self.spatial_points))
        if self.failures is None:
            self.failures = np.full(shape, "", dtype=object)
        for name in ("values", "error_estimates", "converged", "failures"):
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} must have shape {shape}")


def solve_grid(req: SolveRequest) -> SolutionGrid:
    """Run the requested solver over its grid, aggregating per-cell failures.

    A cell whose evaluation raises a numerical error (ValueError,
    ArithmeticError, IntegrandEvaluationError or NonConvergenceError) is
    recorded as (nan, inf, False), with the exception in `failures`,
    instead of aborting the remaining cells; request level inconsistencies
    are rejected by SolveRequest itself.
    """
    ny, nx = len(req.y_levels), len(req.spatial_points)
    values = np.empty((ny, nx))
    errors = np.empty((ny, nx))
    flags = np.empty((ny, nx), dtype=bool)
    failures = np.full((ny, nx), "", dtype=object)
    for i, y in enumerate(req.y_levels):
        for j, x in enumerate(req.spatial_points):
            try:
                if req.problem == "dirac":
                    r = solve_dirac(req.data, y, x, req.cfg)
                elif req.problem == "euler":
                    r = solve_euler(req.data, y, x, req.a, req.cfg)
                else:
                    r = solve_oscillator(req.data, y, x, req.a, req.cfg)
            except (ValueError, ArithmeticError, IntegrandEvaluationError,
                    NonConvergenceError) as exc:
                values[i, j] = math.nan
                errors[i, j] = math.inf
                flags[i, j] = False
                failures[i, j] = f"{type(exc).__name__}: {exc}"
                continue
            values[i, j] = r.value
            errors[i, j] = r.error_estimate
            flags[i, j] = r.converged
    return SolutionGrid(req.y_levels, req.spatial_points, values, errors, flags,
                        failures)
