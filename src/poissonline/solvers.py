"""Boundary-data solvers built on the extension kernels.

Each solver evaluates u(y, .) = integral kernel(y, ., source) * data(source)
for one of the three operators.  The transport and scaling problems reduce
to a single integral in the gap variable against the stable-1/2 density;
the scaling problem is first moved to the logarithmic coordinate
X = log|xi| / (-2a), where its kernel is exactly the transport kernel and
the integration measure is uniform.  A datum that is exactly zero
outside its support (bump, sampled) is integrated only over the gap
window where that support lies: a finite window (lo, hi) is mapped onto
(0, inf) by s = lo + (hi - lo) v / (1 + v) and handed to the adaptive
log-axis quadrature, so that each support edge, where a bump decays like
exp(-c / (s - lo)), becomes an end of the log axis and decays
double-exponentially there (the endpoint idea of Takahasi and Mori's
double-exponential formulas).  Every other datum is integrated over the
whole gap axis; a gaussian's 10-sigma support is not a cut, since its
tail beyond it is the whole of u at targets past it.  A scaling window
that reaches the invariant line xi' = 0 is open, and there the value
d0 = data(0) of a datum with a support is taken out of the quadrature
and its closed-form mass added back.  The
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
    finite_real,
    graded_breakpoints,
    hermite_function,
    leggauss,
    nonnegative_int,
    not_a_knot_spline,
    positive_real,
    split_panels,
)
from .quadrature import (
    IntegrandEvaluationError,
    NonConvergenceError,
    QuadratureConfig,
    integrate_semi_infinite,
)

__all__ = [
    "PROBLEMS",
    "Problem",
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


class Problem(NamedTuple):
    """What one boundary problem takes: whether it needs the frequency a,
    and the data presets that are integrable against its kernel."""

    needs_a: bool
    presets: frozenset


# The three boundary problems, by name.  The transport kernel has a
# power-law tail in the gap, so data growing faster than a bounded function
# is rejected; the oscillator kernel decays like a Gaussian but the panel
# quadrature needs a finite effective support.
PROBLEMS = {
    "dirac": Problem(False, frozenset(
        {"gaussian", "bump", "exponential", "sampled"})),
    "euler": Problem(True, frozenset(
        {"gaussian", "bump", "exponential", "power", "sampled"})),
    "oscillator": Problem(True, frozenset(
        {"gaussian", "bump", "eigenfunction", "sampled"})),
}

# Presets that vanish identically outside their effective support.  The
# gaussian's and the eigenfunction's supports are cuts beyond which the
# datum is small, not zero.
_COMPACT = {"bump", "sampled"}


class InvalidDataError(ValueError):
    """The data preset cannot be integrated against the requested kernel."""


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
    sampled         grid, values          not-a-knot cubic spline through >= 4
                                          strictly increasing nodes, zero
                                          outside the sampled window

    Instances are callable: data(x, a=None), vectorized over x.  The
    eigenfunction preset needs the frequency a; the others ignore it.
    """

    def __init__(self, kind: str, params: tuple,
                 fn: Callable, support_fn: Callable):
        self.kind = kind
        self.params = params
        self._fn = fn
        self._support_fn = support_fn

    @classmethod
    def gaussian(cls, center: float, width: float) -> "InitialData":
        center = finite_real(center, "center")
        width = positive_real(width, "width")

        def fn(x, a=None):
            t = (np.asarray(x, dtype=float) - center) / width
            with np.errstate(under="ignore"):
                return np.exp(-0.5 * t * t)

        # 10 sigma: the neglected mass is ~2e-22 of the peak
        return cls("gaussian", (center, width), fn,
                   lambda a=None: (center - 10.0 * width, center + 10.0 * width))

    @classmethod
    def bump(cls, center: float, radius: float) -> "InitialData":
        center = finite_real(center, "center")
        radius = positive_real(radius, "radius")

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
        rate = positive_real(rate, "rate")

        def fn(x, a=None):
            with np.errstate(under="ignore", over="ignore"):
                return np.exp(-rate * np.asarray(x, dtype=float))

        return cls("exponential", (rate,), fn, lambda a=None: None)

    @classmethod
    def power(cls, exponent: float) -> "InitialData":
        exponent = positive_real(exponent, "exponent")

        def fn(x, a=None):
            with np.errstate(under="ignore", over="ignore"):
                return np.abs(np.asarray(x, dtype=float)) ** exponent

        return cls("power", (exponent,), fn, lambda a=None: None)

    @classmethod
    def eigenfunction(cls, n: int) -> "InitialData":
        n = nonnegative_int(n, "n")

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

        return cls("eigenfunction", (n,), fn, support)

    @classmethod
    def sampled(cls, grid: Sequence[float], values: Sequence[float]) -> "InitialData":
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

    def exact_support(self, a: float | None = None):
        """(lo, hi) outside which the datum is exactly zero, or None."""
        return self._support_fn(a=a) if self.kind in _COMPACT else None

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
    presets = PROBLEMS[problem].presets
    if data.kind not in presets:
        raise InvalidDataError(
            f"preset {data.kind!r} is not integrable against the {problem} "
            f"kernel; allowed: {sorted(presets)}"
        )


def _signed_log(values: np.ndarray):
    """(sign, log|values|), log 0 = -inf.

    Called inside the quadrature, whose error state already ignores the
    division by zero of log 0; a caller outside it sets its own.
    """
    return np.sign(values), np.log(np.abs(values))


def _on_window(integrand, lo: float, hi: float):
    """The gap integrand over the window (lo, hi) as an integrand over v > 0.

    A finite window is mapped by s = lo + L v / (1 + v), L = hi - lo,
    computed as hi - L / (1 + v) for v >= 1 so that the upper edge keeps
    its precision, and log ds/dv = log L - 2 log(1 + v) joins the
    log-magnitude.  An open window (lo, inf) is shifted, s = lo + v, which
    for lo = 0 is the identity.  Either way each end of the window is an
    end of the quadrature's log axis.
    """
    if hi == math.inf:
        return integrand if lo == 0.0 else (lambda v: integrand(lo + v))
    width = hi - lo
    log_width = math.log(width)

    def mapped(v):
        t = 1.0 + v
        s = np.where(v < 1.0, lo + width * v / t, hi - width / t)
        sign, logmag = integrand(s)
        return sign, logmag + (log_width - 2.0 * np.log1p(v))

    return mapped


def _gap_integral(datum_at: Callable, y: float, lo: float, hi: float,
                  cfg: QuadratureConfig | None, d0: float = 0.0) -> SolveResult:
    """integral_lo^hi p_y(s) datum_at(s) ds, p_y the stable-1/2 density.

    An empty window, hi <= lo, gives (0, 0, converged) without sampling.
    With d0 != 0 (an open window, hi = inf, along which the datum tends to
    d0) the quadrature runs on datum_at(s) - d0, which decays as s grows
    where the datum alone would leave the density's slow s^{-3/2} tail,
    and the closed form d0 integral_lo^inf p_y = d0 erf(y / (2 sqrt(lo)))
    is added.  The two parts can cancel, so a converged result must also
    meet the tolerance against the returned value; where it does not, the
    quadrature is run once more with rel_tol scaled down by the
    cancellation factor, and a result that still misses it is reported
    unconverged.
    """
    if not hi > lo:
        return SolveResult(0.0, 0.0, True)
    if cfg is None:
        cfg = QuadratureConfig()

    def integrand(s):
        sign, logmag = _signed_log(np.asarray(datum_at(s), dtype=float) - d0)
        return sign, logmag + _log_stable_half_density(y, s)

    offset = d0 * (math.erf(y / (2.0 * math.sqrt(lo))) if lo > 0.0 else 1.0)
    mapped = _on_window(integrand, lo, hi)
    res = integrate_semi_infinite(mapped, cfg)
    value = res.value + offset
    tol = max(cfg.abs_tol, cfg.rel_tol * abs(value))
    if res.converged and res.error_estimate > tol:
        scaled = cfg.rel_tol * abs(value / res.value)
        if scaled > 0.0:
            res = integrate_semi_infinite(mapped, replace(cfg, rel_tol=scaled))
            value = res.value + offset
            tol = max(cfg.abs_tol, cfg.rel_tol * abs(value))
    return SolveResult(value, res.error_estimate,
                       res.converged and res.error_estimate <= tol)


def solve_dirac(data: InitialData, y: float, target: float,
                cfg: QuadratureConfig | None = None) -> SolveResult:
    """Transport-problem solution u(y, X) = integral_X^inf P * data.

    The integral runs over the gap s = X' - X, where the kernel is the
    one-sided stable-1/2 density.  A datum that is exactly zero outside
    its support (lo, hi) (`InitialData.exact_support`) is integrated only
    over its gap window, (max(lo - X, 0), hi - X); an empty window gives
    (0, 0, converged).  The window is mapped onto (0, inf) (`_on_window`),
    so that a support edge, where a bump decays like exp(-c / (s - lo)),
    is an end of the log axis and decays there double-exponentially, as
    the density's y^2-narrow onset at s = 0 already does.  Any other
    datum, the gaussian included, is integrated over (0, inf) as it is.
    """
    _check_data("dirac", data)
    y = positive_real(y, "y")
    target = finite_real(target, "target")
    lo, hi = 0.0, math.inf
    support = data.exact_support()
    if support is not None:
        lo, hi = max(support[0] - target, 0.0), support[1] - target
    return _gap_integral(lambda s: data(target + s), y, lo, hi, cfg)


def solve_euler(data: InitialData, y: float, target: float, a: float,
                cfg: QuadratureConfig | None = None) -> SolveResult:
    """Scaling-problem solution at xi = target on its own sign branch.

    Substituting X = log|xi| / (-2a) turns the problem into the transport
    one: the solution is the transport integral of the datum evaluated
    along xi' = sign(xi) exp(-2a (X + s)).  Of a datum that is exactly
    zero outside its support, only the support on the branch segment
    0 < |xi'| < |xi| is integrated, as the gap window
    s = log(|xi| / |xi'|) / (2a), mapped as in `solve_dirac`; any other
    datum is integrated over the whole segment, s in (0, inf).  A window
    that reaches the invariant line xi' = 0 is open, hi = inf, and there
    the datum tends to d0 = data(0): for a datum with a support (bump,
    sampled, gaussian) the quadrature integrates data - d0, and d0 times
    the closed-form mass of the window is added (`_gap_integral`).
    Points with xi = 0 lie on the invariant line and raise
    DegenerateCharacteristicError.
    """
    _check_data("euler", data)
    y = positive_real(y, "y")
    a = positive_real(a, "a")
    target = finite_real(target, "target")
    if target == 0.0:
        raise DegenerateCharacteristicError(
            "the scaling problem is undefined on the invariant line xi = 0"
        )
    r = abs(target)
    X = math.log(r) / (-2.0 * a)
    branch = 1.0 if target > 0 else -1.0
    lo, hi, d0 = 0.0, math.inf, 0.0
    support = data.exact_support(a=a)
    if support is not None:
        # the support's magnitudes |xi'| on xi's branch, within (0, |xi|)
        m_lo, m_hi = support if branch > 0 else (-support[1], -support[0])
        m_lo, m_hi = max(m_lo, 0.0), min(m_hi, r)
        if not m_hi > m_lo:
            return SolveResult(0.0, 0.0, True)
        lo = math.log(r / m_hi) / (2.0 * a)
        if m_lo > 0.0:
            hi = math.log(r / m_lo) / (2.0 * a)
    if hi == math.inf and data.effective_support(a=a) is not None:
        d0 = float(data(0.0, a=a))

    def datum_at(s):
        return data(branch * np.exp(-2.0 * a * (X + s)), a=a)

    return _gap_integral(datum_at, y, lo, hi, cfg, d0)


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
    y = positive_real(y, "y")
    a = positive_real(a, "a")
    target = finite_real(target, "target")
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
    """A solver run over a rectangular (y, spatial) grid.

    `a` is required for the problems that take it (`PROBLEMS`), euler and
    oscillator, and rejected for dirac.
    """

    problem: str
    data: InitialData
    y_levels: tuple
    spatial_points: tuple
    a: float | None = None
    cfg: QuadratureConfig = QuadratureConfig()

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ValueError(f"problem must be one of {tuple(PROBLEMS)}, "
                             f"got {self.problem!r}")
        _check_data(self.problem, self.data)
        ys = tuple(positive_real(y, "y level") for y in self.y_levels)
        if not ys:
            raise ValueError("y_levels must not be empty")
        xs = tuple(finite_real(x, "spatial point") for x in self.spatial_points)
        if not xs:
            raise ValueError("spatial_points must not be empty")
        if self.problem == "euler" and any(x == 0.0 for x in xs):
            raise ValueError("euler spatial points must avoid the invariant line 0")
        if PROBLEMS[self.problem].needs_a:
            if self.a is None:
                raise ValueError(f"problem {self.problem!r} requires the parameter a")
            object.__setattr__(self, "a", positive_real(self.a, "a"))
        elif self.a is not None:
            raise ValueError(f"problem {self.problem!r} takes no parameter a, "
                             f"got a={self.a!r}")
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
