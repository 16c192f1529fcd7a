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
import operator
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Mapping, Sequence

import numpy as np

from .kernels import (
    EvaluationPoint,
    OscillatorParam,
    dirac_kernel,
    euler_kernel,
    halfplane_poisson_kernel,
    oscillator_poisson_kernel,
)
from . import solvers
from .numerics import hermite_all, hermite_function, nonnegative_int, positive_real
from .quadrature import NonConvergenceError, QuadratureConfig
from .solvers import PROBLEMS, SolveRequest

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
        if nonnegative_int(self.n_max, "n_max") == 0:
            raise ValueError("n_max must be a positive integer, got 0")
        object.__setattr__(self, "a", positive_real(self.a, "a"))


@dataclass(frozen=True)
class StencilConfig:
    """Central-difference step sizes in the boundary and spatial directions."""

    h_y: float = 1e-3
    h_x: float = 1e-3

    def __post_init__(self):
        for name in ("h_y", "h_x"):
            object.__setattr__(self, name, positive_real(getattr(self, name), name))


@dataclass(frozen=True)
class VerificationReport:
    """One named check: a measured quantity against its tolerance."""

    check_name: str
    measured: float
    tolerance: float
    context: Mapping = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.measured <= self.tolerance


def make_report(check_name: str, measured: float, tolerance: float,
                **context) -> VerificationReport:
    return VerificationReport(check_name, float(measured), float(tolerance),
                              dict(context))


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


def _required_order(tail_bound: Callable[[int], float], tol: float,
                    where: str) -> int:
    """Smallest n_max with tail_bound(n_max) <= tol: doubling, then bisection."""
    n = 1
    while tail_bound(n) > tol:
        n *= 2
        if n > 4_000_000:
            raise InsufficientOrderError(
                f"no practical truncation certifies tol={tol} at {where}")
    lo, hi = n // 2, n
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if tail_bound(mid) > tol:
            lo = mid
        else:
            hi = mid
    return hi


def required_poisson_order(y: float, a: float, tol: float) -> int:
    """Smallest n_max whose Poisson tail bound is below tol."""
    return _required_order(lambda n: poisson_tail_bound(y, SpectralConfig(n, a)),
                           tol, f"y={y}, a={a}")


def required_heat_order(t: float, a: float, tol: float) -> int:
    """Smallest n_max whose heat tail bound is below tol."""
    return _required_order(lambda n: heat_tail_bound(t, SpectralConfig(n, a)),
                           tol, f"t={t}, a={a}")


# pi^{-1/2} to 60 digits.  It scales the exact eigen-sum once, so its
# rounding is a relative 1e-60 on the result at every working precision.
_INV_SQRT_PI = "0.564189583547756286948079451560772585844050629328998856844086"


def _scale(dps: int) -> int:
    """Fixed-point bits at `dps` working digits: twice the digits' bits."""
    return 2 * math.ceil(dps * math.log2(10))


def _decimal_context(dps: int):
    """A decimal context with every digit of the fixed point, and ten more."""
    import decimal

    return decimal.Context(prec=math.ceil(_scale(dps) * math.log10(2)) + 10)


def _fixed(value, scale: int) -> int:
    """floor(value * 2**scale) of an exact rational: a float or a Decimal."""
    num, den = value.as_integer_ratio()
    return (num << scale) // den


class _FixedTerms:
    """Entries 0, 1, ... of a fixed-point sequence, built on demand.

    Entry k is a Python int, the value times 2**scale rounded down, with
    scale = _scale(dps).  Every entry is computed once, at the sequence's
    own working precision, so it is the same number whichever call first
    needed it.  Subclasses define `_next(k)`, entry k from the entries
    before it.
    """

    __slots__ = ("scale", "values")

    def __init__(self, dps: int, values: list):
        self.scale = _scale(dps)
        self.values = values

    def upto(self, n: int) -> list:
        """The entries, extended in place to hold at least 0..n."""
        for k in range(len(self.values), n + 1):
            self.values.append(self._next(k))
        return self.values


class _RecurrenceCoefficients(_FixedTerms):
    """(sqrt(2/(k+1)), sqrt(k/(k+1))) of the eigenfunction recurrence, by k."""

    __slots__ = ()

    def __init__(self, dps: int):
        super().__init__(dps, [])

    def _next(self, k: int):
        two_scale = 2 * self.scale
        return (math.isqrt((2 << two_scale) // (k + 1)),
                math.isqrt((k << two_scale) // (k + 1)))


class _EigenValues(_FixedTerms):
    """h_k(z), z = sqrt(a) x, k = 0, 1, ..., where psi_k(z) = pi^{-1/4}
    e^{-z^2/2} h_k(z) are the normalized eigenfunctions.

    h_0 = 1, h_1 = sqrt(2) z and h_{k+1} = sqrt(2/(k+1)) z h_k -
    sqrt(k/(k+1)) h_{k-1}: the recurrence of `numerics.hermite_all` with
    the Gaussian factor left out, so that no entry is smaller than the
    fixed point can hold merely because the point is far out.  The factor
    is kept as `gauss`, e^{-z^2/2} as a Decimal, and `z` is z as a float.
    """

    __slots__ = ("z_fixed", "z", "gauss", "coefficients")

    def __init__(self, x: float, a: float, dps: int):
        import decimal

        ctx = _decimal_context(dps)
        da, dx = decimal.Decimal(a), decimal.Decimal(x)
        z = ctx.multiply(ctx.sqrt(da), dx)
        self.z = float(z)
        self.gauss = ctx.exp(ctx.divide(ctx.multiply(ctx.multiply(da, dx), dx), -2))
        super().__init__(dps, [1 << _scale(dps)])
        self.z_fixed = _fixed(z, self.scale)
        self.coefficients = _recurrence_coefficients(dps)

    def upto(self, n: int) -> list:
        self.coefficients.upto(n - 1)
        return super().upto(n)

    def _next(self, k: int):
        # at k = 1 the second coefficient is 0, so values[-1] drops out
        values, scale = self.values, self.scale
        cma, cmb = self.coefficients.values[k - 1]
        return (((cma * self.z_fixed * values[k - 1]) >> (2 * scale))
                - ((cmb * values[k - 2]) >> scale))


class _HeatWeights(_FixedTerms):
    """e^{-2kat}, k = 0, 1, ..., each the previous one times e^{-2at}.

    The weight of term k is e^{-(2k+1)at}; its common factor e^{-at} is
    kept, times sqrt(a) pi^{-1/2}, as the Decimal `prefactor`.
    """

    __slots__ = ("ratio", "prefactor")

    def __init__(self, a: float, t: float, dps: int):
        import decimal

        ctx = _decimal_context(dps)
        da = decimal.Decimal(a)
        at = ctx.multiply(da, decimal.Decimal(t))
        super().__init__(dps, [1 << _scale(dps)])
        self.ratio = _fixed(ctx.exp(ctx.multiply(-2, at)), self.scale)
        self.prefactor = ctx.multiply(
            ctx.multiply(ctx.sqrt(da), ctx.create_decimal(_INV_SQRT_PI)),
            ctx.exp(ctx.minus(at)))

    def _next(self, k: int):
        return (self.values[k - 1] * self.ratio) >> self.scale


# Sized to the heat oracle's working set: it sweeps 5 points and 3 times
# per frequency at one working precision.  A sum that needs more (another
# precision, a sixth point) rebuilds what was evicted, and a long-lived
# process never holds more than these many sequences.
_recurrence_coefficients = functools.lru_cache(maxsize=2)(_RecurrenceCoefficients)
_eigen_values = functools.lru_cache(maxsize=5)(_EigenValues)
_heat_weights = functools.lru_cache(maxsize=3)(_HeatWeights)

_LOG2_10 = math.log2(10)


def _heat_sum_mp(t: float, x: float, xp: float, a: float, n_max: int) -> float:
    """Multiple-precision heat sum, safe against sign cancellation.

    Off the diagonal the terms e^{-(2n+1)at} phi_n(x) phi_n(x') alternate
    in sign and can cancel to far below machine epsilon times their
    magnitudes (e.g. to ~1e-18 from terms of size ~0.1).  So the sum runs
    in Python integers: the weights e^{-2kat} and the values h_k at both
    points (see _EigenValues) are fixed-point numbers with unit
    u = 2**-scale, their products and the running sum are exact, and the
    common factor sqrt(a) pi^{-1/2} e^{-at} e^{-(z^2 + z'^2)/2} is applied
    once, to the exact total, in one correctly rounded division.  The
    seeds come from `decimal` (exp, sqrt) and `math.isqrt` (the recurrence
    coefficients); `decimal` is imported on first use, so importing the
    package does not load it.

    The working precision starts at dps = 50 digits, with scale twice
    their bits, and doubles until both tests leave 20 digits of headroom:

    - cancellation: the sum of |terms| is below 10^(dps - 20) |total|;
    - rounding: a bound on the total's error is below 10^-20 |total|.
      Weight k is off by at most (2k + 1) u.  The forward recurrence is
      stable, so h_k is off by at most 64 (k + 1)^{5/4} (|z| + 2) u times
      the amplitude of h around k, for which |h_k| stands in.  The bound
      is (2n + 1) u sum |h_k h'_k| + 64 (n + 1)^{5/4} (|z| + |z'| + 4) u
      sum |terms|.

    A sum that the bound puts below half the least subnormal is 0.0.

    The eigenfunction values at each point, the weights of each (a, t)
    and the recurrence coefficients are kept per working precision in
    bounded caches and extended as far as a sum needs, so a sweep over
    many point pairs runs each recurrence once.
    """
    dps = 50
    while True:
        weights = _heat_weights(a, t, dps)
        e1, e2 = _eigen_values(x, a, dps), _eigen_values(xp, a, dps)
        products = list(map(operator.mul, islice(e1.upto(n_max), n_max + 1),
                            e2.upto(n_max)))
        terms = list(map(operator.mul, weights.upto(n_max), products))
        total = sum(terms)
        if total == 0:
            return 0.0
        gross = sum(map(abs, terms))
        scale = weights.scale
        # both parts of the rounding bound in units of the total, 2**-(3 scale)
        rounding = ((2 * n_max + 1) * sum(map(abs, products))
                    + math.ceil(64 * (n_max + 1) ** 1.25
                                * (abs(e1.z) + abs(e2.z) + 4)) * (gross >> scale))
        ctx = _decimal_context(dps)
        factor = ctx.multiply(ctx.multiply(weights.prefactor, e1.gauss), e2.gauss)
        if (gross < abs(total) * 10 ** (dps - 20)
                and rounding * 10 ** 20 <= abs(total)):
            num, den = factor.as_integer_ratio()
            return total * num / (den << (3 * scale))
        if ((factor.adjusted() + 1) * _LOG2_10 + (gross + rounding).bit_length()
                - 3 * scale < -1076):
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
    t = positive_real(t, "t")
    bound = heat_tail_bound(t, sc)
    if bound > tol:
        raise InsufficientOrderError(
            f"heat tail bound {bound:.3e} exceeds tol={tol:.3e} at n_max={sc.n_max}"
        )
    return _heat_sum_mp(t, float(x), float(xp), sc.a, sc.n_max)


# (a, x) -> phi_0..phi_m at x, most recently used last.  Sized to the
# Poisson check's working set, its 3 points at one frequency.
_EIGEN_TABLES: OrderedDict = OrderedDict()
_EIGEN_TABLES_MAXSIZE = 4


def _eigen_table(n_max: int, a: float, x: float) -> np.ndarray:
    """phi_0..phi_n_max at x, sliced from the cached table of (a, x).

    The table is rebuilt, at n_max, only when it holds fewer entries.
    Entry k of `hermite_all` depends only on the entries before it, so a
    slice is bit-identical to a table built at n_max.
    """
    key = (a, x)
    table = _EIGEN_TABLES.get(key)
    if table is None or table.shape[0] <= n_max:
        table = _EIGEN_TABLES[key] = hermite_all(n_max, a, x)
    _EIGEN_TABLES.move_to_end(key)
    if len(_EIGEN_TABLES) > _EIGEN_TABLES_MAXSIZE:
        _EIGEN_TABLES.popitem(last=False)
    return table[:n_max + 1]


def spectral_poisson_kernel(y: float, x: float, xp: float, sc: SpectralConfig,
                            tol: float = 1e-9) -> float:
    """Poisson kernel via sum_n e^{-y sqrt((2n+1)a)} phi_n(x) phi_n(x').

    The sqrt-exponent tail decays slowly for small y, so the truncation
    bound is checked at call time; InsufficientOrderError reports the
    order that would be needed.  The eigenfunction values at each point
    come from a small cache (see _eigen_table): a caller that runs its sums
    from the highest order down builds each point's table once.
    """
    y = positive_real(y, "y")
    bound = poisson_tail_bound(y, sc)
    if bound > tol:
        needed = required_poisson_order(y, sc.a, tol)
        raise InsufficientOrderError(
            f"poisson tail bound {bound:.3e} exceeds tol={tol:.3e} at "
            f"n_max={sc.n_max}; n_max={needed} would certify it"
        )
    phi_x = _eigen_table(sc.n_max, sc.a, x)
    phi_xp = phi_x if xp == x else _eigen_table(sc.n_max, sc.a, xp)
    n = np.arange(sc.n_max + 1)
    with np.errstate(under="ignore"):
        weights = np.exp(-y * np.sqrt((2 * n + 1) * sc.a))
    return float(np.sum(weights * phi_x * phi_xp))


# ---------------------------------------------------------------------------
# Finite-difference PDE residuals


def pde_residual(operator: str, fieldfn: Callable[[float, float], float],
                 y: float, x: float, st: StencilConfig | None = None,
                 a: float | None = None, tolerance: float = 1e-5) -> VerificationReport:
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
    if operator not in PROBLEMS:
        raise ValueError(f"operator must be one of {tuple(PROBLEMS)}, "
                         f"got {operator!r}")
    st = st or StencilConfig()
    if y - st.h_y <= 0.0:
        raise InvalidStencilError(
            f"stencil reaches y <= 0 (y={y}, h_y={st.h_y})"
        )
    if PROBLEMS[operator].needs_a and a is None:
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
    return make_report(f"pde-residual-{operator}", residual, tolerance,
                       operator=operator, y=y, x=x, h_y=st.h_y, h_x=st.h_x)


def kernel_field(operator: str, source: float, a: float | None = None,
                 cfg: QuadratureConfig | None = None
                 ) -> Callable[[float, float], float]:
    """The kernel itself as a field (y, target) -> value, source held fixed."""
    if operator == "dirac":
        return lambda y, x: dirac_kernel(EvaluationPoint(y, x, source)).value
    if operator == "euler":
        pa = OscillatorParam(a)
        return lambda y, x: euler_kernel(EvaluationPoint(y, x, source), pa).value
    if operator == "oscillator":
        pa = OscillatorParam(a)
        return lambda y, x: oscillator_poisson_kernel(
            EvaluationPoint(y, x, source), pa, cfg).value
    raise ValueError(f"operator must be one of {tuple(PROBLEMS)}, got {operator!r}")


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
    raise ValueError(f"operator must be one of {tuple(PROBLEMS)}, got {operator!r}")


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
    the full gap list rides along in the context.  `prefactor_scale`
    multiplies every kernel value P_a: any value but 1.0 is a fault the
    study must catch (sqrt(2) is the gate's negative control).
    """
    prefactor_scale = positive_real(prefactor_scale, "prefactor_scale")
    a_sequence = [positive_real(a, "a_sequence entry") for a in a_sequence]
    if not a_sequence:
        raise ValueError("a_sequence must not be empty")
    if any(a1 >= a0 for a0, a1 in zip(a_sequence[:-1], a_sequence[1:])):
        raise ValueError("a_sequence must decrease strictly")
    point = EvaluationPoint(y, x, xp)
    reference = halfplane_poisson_kernel(point).value
    gaps = []
    for a in a_sequence:
        kv = oscillator_poisson_kernel(point, OscillatorParam(a), cfg)
        gaps.append(abs(prefactor_scale * kv.value - reference) / reference)
    decreasing = all(g1 < g0 for g0, g1 in zip(gaps[:-1], gaps[1:]))
    measured = gaps[-1] if decreasing else math.inf
    return make_report("limit-a-to-zero", measured, 10.0 * a_sequence[-1],
                       gaps=tuple(gaps), a_sequence=tuple(a_sequence),
                       y=y, x=x, xp=xp, reference=reference)


def boundary_limit_gap(problem: str, data, y_sequence: Sequence[float],
                       spatial_points: Sequence[float], a: float | None = None,
                       cfg: QuadratureConfig | None = None) -> VerificationReport:
    """Boundary recovery study: sup |solution(y, .) - data| along y -> 0.

    Solves the requested problem over (y_sequence x spatial_points) with
    one `solvers.solve_grid` call, whose `SolveRequest` validates the
    inputs, and measures at each y the sup norm of the defect over the
    points.  A cell that fails to evaluate raises NonConvergenceError
    naming the failures, since its NaN would read as a zero defect.
    Passes when the sup gaps are non-increasing; `measured` is the largest
    consecutive increment (<= 0 means monotone recovery) and the gap list
    is returned in the context.
    """
    req = SolveRequest(problem=problem, data=data,
                       y_levels=tuple(y_sequence),
                       spatial_points=tuple(spatial_points), a=a,
                       cfg=cfg or QuadratureConfig())
    ys = req.y_levels
    if any(y1 >= y0 for y0, y1 in zip(ys[:-1], ys[1:])):
        raise ValueError("y_sequence must decrease strictly")
    grid = solvers.solve_grid(req)
    failed = grid.failures[grid.failures != ""].tolist()
    if failed:
        raise NonConvergenceError(
            f"{len(failed)} cell(s) of the {problem} boundary study failed: "
            + "; ".join(failed))
    datum = [float(data(x, a=req.a)) for x in req.spatial_points]
    gaps = [max(abs(v - d) for v, d in zip(row, datum))
            for row in grid.values.tolist()]
    increments = [g1 - g0 for g0, g1 in zip(gaps[:-1], gaps[1:])]
    measured = max(increments) if increments else 0.0
    return make_report(f"boundary-limit-{problem}", measured, 0.0,
                       gaps=tuple(gaps), y_sequence=ys)
