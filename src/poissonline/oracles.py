"""Independent checks for the kernels and solvers.

Nothing here reuses the subordination quadrature path: spectral sums are
built from an orthonormal eigenfunction recurrence, PDE defects from
central differences, and the limit studies compare against closed forms.
Agreement between these routes and the kernel evaluations is what the
verification suites assert.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .kernels import (
    EvaluationPoint,
    OscillatorParam,
    dirac_kernel,
    euler_kernel,
    halfplane_poisson_kernel,
    mehler_heat_kernel,
    oscillator_poisson_kernel,
)
from .numerics import hermite_all, hermite_function
from .quadrature import QuadratureConfig

__all__ = [
    "SpectralConfig",
    "StencilConfig",
    "VerificationReport",
    "InsufficientOrderError",
    "InvalidStencilError",
    "hermite_function",
    "spectral_heat_kernel",
    "spectral_poisson_kernel",
    "heat_tail_bound",
    "poisson_tail_bound",
    "required_heat_order",
    "required_poisson_order",
    "pde_residual",
    "kernel_field",
    "eigen_solution_field",
    "residual_convergence_orders",
    "limit_a_to_zero_gap",
    "boundary_limit_gap",
    "make_report",
]

# Uniform sup bound for the unit-frequency eigenfunctions; the frequency-a
# family is bounded by _PHI_SUP * a**0.25.
_PHI_SUP = 0.816


class InsufficientOrderError(ValueError):
    """The configured truncation order cannot certify the requested tolerance."""


class InvalidStencilError(ValueError):
    """A finite-difference stencil would leave the kernel's domain."""


@dataclass(frozen=True)
class SpectralConfig:
    """Truncation order and frequency for the eigenfunction sums."""

    n_max: int
    a: float

    def __post_init__(self):
        if not (isinstance(self.n_max, int) and not isinstance(self.n_max, bool)
                and self.n_max >= 1):
            raise ValueError(f"n_max must be a positive integer, got {self.n_max!r}")
        if not (isinstance(self.a, (int, float)) and math.isfinite(self.a)
                and self.a > 0):
            raise ValueError(f"a must be a positive finite real, got {self.a!r}")
        object.__setattr__(self, "a", float(self.a))


@dataclass(frozen=True)
class StencilConfig:
    """Central-difference step sizes in the boundary and spatial directions."""

    h_y: float = 1e-3
    h_x: float = 1e-3

    def __post_init__(self):
        for name in ("h_y", "h_x"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be a positive finite real, got {v!r}")
            object.__setattr__(self, name, float(v))


@dataclass(frozen=True)
class VerificationReport:
    """One named check: a measured quantity against its tolerance."""

    check_name: str
    measured: float
    tolerance: float
    passed: bool
    context: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if self.passed != (self.measured <= self.tolerance):
            raise ValueError("passed must equal (measured <= tolerance)")


def make_report(check_name: str, measured: float, tolerance: float,
                **context) -> VerificationReport:
    measured = float(measured)
    tolerance = float(tolerance)
    return VerificationReport(check_name, measured, tolerance,
                              measured <= tolerance, dict(context))


# ---------------------------------------------------------------------------
# Eigenfunctions and spectral sums


def heat_tail_bound(t: float, sc: SpectralConfig) -> float:
    """Bound on the heat sum remainder beyond n_max (geometric tail)."""
    r = math.exp(-2.0 * sc.a * t)
    lead = math.exp(-(2 * sc.n_max + 3) * sc.a * t)
    return _PHI_SUP ** 2 * math.sqrt(sc.a) * lead / (1.0 - r)


def poisson_tail_bound(y: float, sc: SpectralConfig) -> float:
    """Bound on the Poisson sum remainder beyond n_max.

    Uses sum_{n>N} exp(-y sqrt((2n+1)a)) <= (s0/(a y) + 1/(a y^2)) e^{-y s0}
    with s0 = sqrt((2N+1)a), times the uniform eigenfunction bound squared.
    """
    s0 = math.sqrt((2 * sc.n_max + 1) * sc.a)
    weight = s0 / (sc.a * y) + 1.0 / (sc.a * y * y)
    return _PHI_SUP ** 2 * math.sqrt(sc.a) * weight * math.exp(-y * s0)


def required_poisson_order(y: float, a: float, tol: float) -> int:
    """Smallest n_max whose Poisson tail bound is below tol."""
    n = 1
    while poisson_tail_bound(y, SpectralConfig(n, a)) > tol:
        n *= 2
        if n > 4_000_000:
            raise InsufficientOrderError(
                f"no practical truncation certifies tol={tol} at y={y}, a={a}"
            )
    lo, hi = n // 2, n
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if poisson_tail_bound(y, SpectralConfig(mid, a)) > tol:
            lo = mid
        else:
            hi = mid
    return hi


def required_heat_order(t: float, a: float, tol: float) -> int:
    """Smallest n_max whose heat tail bound is below tol."""
    n = 1
    while heat_tail_bound(t, SpectralConfig(n, a)) > tol:
        n *= 2
        if n > 4_000_000:
            raise InsufficientOrderError(
                f"no practical truncation certifies tol={tol} at t={t}, a={a}"
            )
    lo, hi = n // 2, n
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if heat_tail_bound(t, SpectralConfig(mid, a)) > tol:
            lo = mid
        else:
            hi = mid
    return hi


class _MpTerms:
    """Entries 0, 1, ... of a multiple-precision sequence, built on demand.

    Every entry is computed once, at the sequence's own working precision,
    so it is the same number whichever call first needed it.  Subclasses
    define `_next(k)`, entry k from the entries before it.
    """

    __slots__ = ("dps", "values")

    def __init__(self, dps: int, values: list):
        self.dps = dps
        self.values = values

    def upto(self, n: int) -> list:
        """The entries, extended in place to hold at least 0..n."""
        if len(self.values) <= n:
            import mpmath as mp

            with mp.workdps(self.dps):
                for k in range(len(self.values), n + 1):
                    self.values.append(self._next(k))
        return self.values


class _RecurrenceCoefficients(_MpTerms):
    """(sqrt(2/(k+1)), sqrt(k/(k+1))) of the eigenfunction recurrence, by k."""

    __slots__ = ()

    def __init__(self, dps: int):
        super().__init__(dps, [])

    def _next(self, k: int):
        import mpmath as mp

        return mp.sqrt(mp.mpf(2) / (k + 1)), mp.sqrt(mp.mpf(k) / (k + 1))


class _EigenValues(_MpTerms):
    """psi_k(sqrt(a) x), k = 0, 1, ..., by the normalized recurrence."""

    __slots__ = ("z", "coefficients")

    def __init__(self, x: float, a: float, dps: int):
        import mpmath as mp

        with mp.workdps(dps):
            self.z = z = mp.sqrt(mp.mpf(a)) * mp.mpf(x)
            p0 = mp.pi ** mp.mpf("-0.25") * mp.e ** (-z * z / 2)
            super().__init__(dps, [p0, mp.sqrt(2) * z * p0])
        self.coefficients = _recurrence_coefficients(dps)

    def upto(self, n: int) -> list:
        self.coefficients.upto(n - 1)
        return super().upto(n)

    def _next(self, k: int):
        cma, cmb = self.coefficients.values[k - 1]
        return cma * self.z * self.values[k - 1] - cmb * self.values[k - 2]


class _HeatWeights(_MpTerms):
    """e^{-(2k+1)at}, k = 0, 1, ..., each the previous one times e^{-2at}."""

    __slots__ = ("ratio",)

    def __init__(self, a: float, t: float, dps: int):
        import mpmath as mp

        with mp.workdps(dps):
            am, tm = mp.mpf(a), mp.mpf(t)
            self.ratio = mp.e ** (-2 * am * tm)
            super().__init__(dps, [mp.e ** (-am * tm)])

    def _next(self, k: int):
        return self.values[k - 1] * self.ratio


# Sized to the heat oracle's working set: it sweeps 5 points and 3 times
# per frequency at one working precision.  A sum that needs more (another
# precision, a sixth point) rebuilds what was evicted, and a long-lived
# process never holds more than these many sequences.
_recurrence_coefficients = functools.lru_cache(maxsize=2)(_RecurrenceCoefficients)
_eigen_values = functools.lru_cache(maxsize=5)(_EigenValues)
_heat_weights = functools.lru_cache(maxsize=3)(_HeatWeights)


def _heat_sum_mp(t: float, x: float, xp: float, a: float, n_max: int) -> float:
    """Exact-arithmetic heat sum, safe against sign cancellation.

    Off the diagonal the terms e^{-(2n+1)at} phi_n(x) phi_n(x') alternate
    in sign and can cancel to far below machine epsilon times their
    magnitudes (e.g. to ~1e-18 from terms of size ~0.1), so the sum is
    carried out in mpmath from the exact binary values of the inputs,
    with the working precision doubled until the measured cancellation
    leaves at least 20 digits of headroom.  mpmath is imported here, on
    first use, so that importing the package does not load it.

    The eigenfunction values at each point, the weights of each (a, t)
    and the recurrence coefficients are kept per working precision in
    bounded caches and extended as far as a sum needs, so a sweep over
    many point pairs runs each recurrence once.
    """
    import mpmath as mp

    dps = 50
    while True:
        with mp.workdps(dps):
            weights = _heat_weights(a, t, dps).upto(n_max)
            p1 = _eigen_values(x, a, dps).upto(n_max)
            p2 = _eigen_values(xp, a, dps).upto(n_max)
            total = weights[0] * p1[0] * p2[0]
            gross = abs(total)
            for k in range(1, n_max + 1):
                term = weights[k] * p1[k] * p2[k]
                total += term
                gross += abs(term)
            root = mp.sqrt(mp.mpf(a))
            total *= root
            gross *= root
            if total != 0 and gross / abs(total) < mp.mpf(10) ** (dps - 20):
                return float(total)
            if total == 0:
                return 0.0
        dps *= 2
        if dps > 800:  # pragma: no cover - would need ~780 digits of cancellation
            raise InsufficientOrderError(
                "heat sum cancellation exceeds any practical working precision"
            )


def spectral_heat_kernel(t: float, x: float, xp: float, sc: SpectralConfig,
                         tol: float = 1e-12) -> float:
    """Heat kernel via the eigenfunction sum sum_n e^{-(2n+1)at} phi_n phi_n.

    Raises InsufficientOrderError when the truncation tail bound at
    sc.n_max exceeds tol, so a certified value is never silently wrong.
    The summation itself runs in exact arithmetic (see _heat_sum_mp), so
    the only error sources are the truncation tail, bounded by tol, and
    the final rounding to float.
    """
    if not (t > 0 and math.isfinite(t)):
        raise ValueError(f"t must be a positive finite real, got {t!r}")
    bound = heat_tail_bound(t, sc)
    if bound > tol:
        raise InsufficientOrderError(
            f"heat tail bound {bound:.3e} exceeds tol={tol:.3e} at n_max={sc.n_max}"
        )
    return _heat_sum_mp(t, float(x), float(xp), sc.a, sc.n_max)


def spectral_poisson_kernel(y: float, x: float, xp: float, sc: SpectralConfig,
                            tol: float = 1e-9) -> float:
    """Poisson kernel via sum_n e^{-y sqrt((2n+1)a)} phi_n(x) phi_n(x').

    The sqrt-exponent tail decays slowly for small y, so the truncation
    bound is checked at call time; InsufficientOrderError reports the
    order that would be needed.
    """
    if not (y > 0 and math.isfinite(y)):
        raise ValueError(f"y must be a positive finite real, got {y!r}")
    bound = poisson_tail_bound(y, sc)
    if bound > tol:
        needed = required_poisson_order(y, sc.a, tol)
        raise InsufficientOrderError(
            f"poisson tail bound {bound:.3e} exceeds tol={tol:.3e} at "
            f"n_max={sc.n_max}; n_max={needed} would certify it"
        )
    phi_x = hermite_all(sc.n_max, sc.a, x)
    phi_xp = phi_x if xp == x else hermite_all(sc.n_max, sc.a, xp)
    n = np.arange(sc.n_max + 1)
    with np.errstate(under="ignore"):
        weights = np.exp(-y * np.sqrt((2 * n + 1) * sc.a))
    return float(np.sum(weights * phi_x * phi_xp))


# ---------------------------------------------------------------------------
# Finite-difference PDE residuals

_OPERATORS = ("dirac", "euler", "oscillator")


def pde_residual(operator: str, fieldfn: Callable[[float, float], float],
                 y: float, x: float, st: StencilConfig | None = None,
                 a: float | None = None, tolerance: float = 1e-5,
                 check_name: str | None = None) -> VerificationReport:
    """Relative central-difference defect of (Op + d^2/dy^2) field = 0.

    Parameters
    ----------
    operator : {"dirac", "euler", "oscillator"}
        Spatial operator: d/dX, -2 a xi d/dxi, or d^2/dx^2 - a^2 x^2.
    fieldfn : callable
        The field (y, spatial) -> value whose defect is measured.
    y, x : float
        Evaluation point; the stencil must stay inside y > 0, and for the
        scaling operator inside one open half-line, else
        InvalidStencilError is raised.
    a : float, optional
        Required for the euler and oscillator operators.
    tolerance : float
        Threshold applied to the relative residual
        |defect| / (|field| + machine epsilon).
    """
    if operator not in _OPERATORS:
        raise ValueError(f"operator must be one of {_OPERATORS}, got {operator!r}")
    st = st or StencilConfig()
    if y - st.h_y <= 0.0:
        raise InvalidStencilError(
            f"stencil reaches y <= 0 (y={y}, h_y={st.h_y})"
        )
    if operator in ("euler", "oscillator") and a is None:
        raise ValueError(f"operator {operator!r} requires the parameter a")
    if operator == "euler" and (x == 0.0 or (x > 0) != (x - math.copysign(st.h_x, x) > 0)):
        raise InvalidStencilError(
            f"stencil crosses the invariant line xi = 0 (xi={x}, h_x={st.h_x})"
        )

    f0 = fieldfn(y, x)
    fyp = fieldfn(y + st.h_y, x)
    fym = fieldfn(y - st.h_y, x)
    d2y = (fyp - 2.0 * f0 + fym) / (st.h_y * st.h_y)

    fxp = fieldfn(y, x + st.h_x)
    fxm = fieldfn(y, x - st.h_x)
    if operator == "dirac":
        spatial = (fxp - fxm) / (2.0 * st.h_x)
    elif operator == "euler":
        spatial = -2.0 * a * x * (fxp - fxm) / (2.0 * st.h_x)
    else:
        d2x = (fxp - 2.0 * f0 + fxm) / (st.h_x * st.h_x)
        spatial = d2x - (a * a) * (x * x) * f0

    residual = abs(spatial + d2y) / (abs(f0) + np.finfo(float).eps)
    name = check_name or f"pde-residual-{operator}"
    return make_report(name, residual, tolerance,
                       operator=operator, y=y, x=x, h_y=st.h_y, h_x=st.h_x)


def kernel_field(operator: str, source: float, a: float | None = None,
                 cfg: QuadratureConfig | None = None,
                 prefactor_scale: float = 1.0) -> Callable[[float, float], float]:
    """The kernel itself as a field (y, target) -> value, source held fixed."""
    if operator == "dirac":
        return lambda y, x: dirac_kernel(EvaluationPoint(y, x, source)).value
    if operator == "euler":
        pa = OscillatorParam(a)
        return lambda y, x: euler_kernel(EvaluationPoint(y, x, source), pa).value
    if operator == "oscillator":
        pa = OscillatorParam(a)
        return lambda y, x: oscillator_poisson_kernel(
            EvaluationPoint(y, x, source), pa, cfg,
            prefactor_scale=prefactor_scale).value
    raise ValueError(f"operator must be one of {_OPERATORS}, got {operator!r}")


def eigen_solution_field(operator: str, *, rate: float | None = None,
                         exponent: float | None = None, n: int | None = None,
                         a: float | None = None) -> Callable[[float, float], float]:
    """Closed-form eigen-datum solutions of (Op + d^2/dy^2) u = 0.

    dirac       exp(-y sqrt(rate)) exp(-rate X)          (rate > 0)
    euler       exp(-y sqrt(2 a exponent)) |xi|^exponent (exponent > 0)
    oscillator  exp(-y sqrt((2n+1) a)) phi_n(x)

    Each decays in y with rate sqrt(eigenvalue), which is what the solvers
    must reproduce when fed the matching data preset.
    """
    if operator == "dirac":
        if rate is None or rate <= 0:
            raise ValueError("the dirac eigen-solution requires rate > 0")
        root = math.sqrt(rate)
        return lambda y, X: math.exp(-y * root - rate * X)
    if operator == "euler":
        if a is None or exponent is None or exponent <= 0:
            raise ValueError("the euler eigen-solution requires a and exponent > 0")
        root = math.sqrt(2.0 * a * exponent)
        return lambda y, xi: math.exp(-y * root) * abs(xi) ** exponent
    if operator == "oscillator":
        if a is None or n is None:
            raise ValueError("the oscillator eigen-solution requires a and n")
        root = math.sqrt((2 * n + 1) * a)
        return lambda y, x: math.exp(-y * root) * hermite_function(n, a, x)
    raise ValueError(f"operator must be one of {_OPERATORS}, got {operator!r}")


def residual_convergence_orders(operator: str,
                                fieldfn: Callable[[float, float], float],
                                y: float, x: float, h_values: Sequence[float],
                                a: float | None = None) -> list[float]:
    """Observed orders log2(r(h) / r(h/2)) along a halving sequence of h."""
    h_values = [float(h) for h in h_values]
    if len(h_values) < 2:
        raise ValueError("need at least two step sizes")
    for h0, h1 in zip(h_values[:-1], h_values[1:]):
        if abs(h0 / h1 - 2.0) > 1e-12:
            raise ValueError("h_values must halve at each step")
    residuals = [
        pde_residual(operator, fieldfn, y, x, StencilConfig(h, h), a=a,
                     tolerance=math.inf).measured
        for h in h_values
    ]
    return [math.log2(r0 / r1) for r0, r1 in zip(residuals[:-1], residuals[1:])]


# ---------------------------------------------------------------------------
# Limit studies


def limit_a_to_zero_gap(y: float, x: float, xp: float,
                        a_sequence: Sequence[float],
                        cfg: QuadratureConfig | None = None,
                        prefactor_scale: float = 1.0) -> VerificationReport:
    """Flat-limit study: oscillator kernel against the half-plane kernel.

    Evaluates the relative gap |P_a - P| / P along a decreasing sequence
    of frequencies.  Passes when the gaps decrease strictly and the final
    gap is at most 10 * a_final; `measured` is the final gap (inf when the
    sequence fails to decrease), `tolerance` the 10 * a_final bound, and
    the full gap list rides along in the context.
    """
    a_sequence = [float(a) for a in a_sequence]
    if not a_sequence:
        raise ValueError("a_sequence must not be empty")
    if any(a <= 0 or not math.isfinite(a) for a in a_sequence):
        raise ValueError("a_sequence entries must be positive finite reals")
    if any(a1 >= a0 for a0, a1 in zip(a_sequence[:-1], a_sequence[1:])):
        raise ValueError("a_sequence must decrease strictly")
    point = EvaluationPoint(y, x, xp)
    reference = halfplane_poisson_kernel(point).value
    gaps = []
    for a in a_sequence:
        kv = oscillator_poisson_kernel(point, OscillatorParam(a), cfg,
                                       prefactor_scale=prefactor_scale)
        gaps.append(abs(kv.value - reference) / reference)
    decreasing = all(g1 < g0 for g0, g1 in zip(gaps[:-1], gaps[1:]))
    measured = gaps[-1] if decreasing else math.inf
    return make_report("limit-a-to-zero", measured, 10.0 * a_sequence[-1],
                       gaps=tuple(gaps), a_sequence=tuple(a_sequence),
                       y=y, x=x, xp=xp, reference=reference)


def boundary_limit_gap(problem: str, data, y_sequence: Sequence[float],
                       spatial_points: Sequence[float], a: float | None = None,
                       cfg: QuadratureConfig | None = None) -> VerificationReport:
    """Boundary recovery study: sup |solution(y, .) - data| along y -> 0.

    Solves the requested problem at each y in the decreasing sequence and
    measures the sup norm of the defect over the given spatial points.
    Passes when the sup gaps are non-increasing; `measured` is the largest
    consecutive increment (<= 0 means monotone recovery) and the gap list
    is returned in the context.
    """
    from . import solvers  # local import; solvers layers on top of this module

    y_sequence = [float(y) for y in y_sequence]
    if not y_sequence:
        raise ValueError("y_sequence must not be empty")
    if any(y1 >= y0 for y0, y1 in zip(y_sequence[:-1], y_sequence[1:])):
        raise ValueError("y_sequence must decrease strictly")
    points = [float(x) for x in spatial_points]
    if not points:
        raise ValueError("spatial_points must not be empty")

    gaps = []
    for y in y_sequence:
        worst = 0.0
        for x in points:
            if problem == "dirac":
                solved = solvers.solve_dirac(data, y, x, cfg).value
                datum = float(data(x))
            elif problem == "euler":
                solved = solvers.solve_euler(data, y, x, a, cfg).value
                datum = float(data(x, a=a))
            elif problem == "oscillator":
                solved = solvers.solve_oscillator(data, y, x, a, cfg).value
                datum = float(data(x, a=a))
            else:
                raise ValueError(f"unknown problem {problem!r}")
            worst = max(worst, abs(solved - datum))
        gaps.append(worst)
    increments = [g1 - g0 for g0, g1 in zip(gaps[:-1], gaps[1:])]
    measured = max(increments) if increments else 0.0
    return make_report(f"boundary-limit-{problem}", measured, 0.0,
                       gaps=tuple(gaps), y_sequence=tuple(y_sequence))
