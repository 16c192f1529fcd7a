"""Closed-form boundary-extension kernels on the real line.

Each kernel P(y, ., .) solves an elliptic boundary problem

    (Op + d^2/dy^2) P = 0  on the half-space y > 0,
    P(0+, ., .) -> identity on the boundary data,

for one of three operators Op acting in the spatial variable:

* transport  d/dX          -> `dirac_kernel`
* scaling    -2 a xi d/dxi -> `euler_kernel`
* oscillator d^2/dx^2 - a^2 x^2 -> `oscillator_poisson_kernel`, and
  `oscillator_poisson_kernel_batch` for many (target, source) pairs

`mehler_heat_kernel` is the heat kernel of the oscillator, used both as a
subordination ingredient and as an independent cross-check target, and
`halfplane_poisson_kernel` is the classical Cauchy kernel that all the
oscillator kernels approach as a -> 0.

Every kernel is evaluated in the log domain wherever a direct product
could overflow or underflow, so that extreme arguments degrade gracefully
to 0.0 or inf instead of producing NaN.  `dirac_kernel` uses its direct
form where the prefactor is a normal float and the exponent is moderate:
that form is exactly covariant under dyadic rescaling, the summed
log-domain exponent is not.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .numerics import finite_real, positive_real
from .quadrature import QuadratureConfig, integrate_semi_infinite_batch

__all__ = [
    "EvaluationPoint",
    "OscillatorParam",
    "KernelValue",
    "DegenerateCharacteristicError",
    "dirac_kernel",
    "euler_kernel",
    "mehler_heat_kernel",
    "oscillator_poisson_kernel",
    "oscillator_poisson_kernel_batch",
    "halfplane_poisson_kernel",
]

_LOG2 = math.log(2.0)
_LOG_2PI = math.log(2.0 * math.pi)
_SQRT_PI = math.sqrt(math.pi)
_TWO_SQRT_PI = 2.0 * _SQRT_PI
_MIN_NORMAL = sys.float_info.min


class DegenerateCharacteristicError(ValueError):
    """The scaling kernel was evaluated on the invariant line xi = 0."""


@dataclass(frozen=True)
class EvaluationPoint:
    """A single kernel argument (boundary distance, target, source)."""

    y: float
    target: float
    source: float

    def __post_init__(self):
        object.__setattr__(self, "y", positive_real(self.y, "y"))
        object.__setattr__(self, "target", finite_real(self.target, "target"))
        object.__setattr__(self, "source", finite_real(self.source, "source"))


@dataclass(frozen=True)
class OscillatorParam:
    """Frequency parameter a > 0 shared by the scaling and oscillator kernels."""

    a: float

    def __post_init__(self):
        object.__setattr__(self, "a", positive_real(self.a, "a"))


@dataclass(frozen=True, slots=True)
class KernelValue:
    """Kernel evaluation with its numerical error estimate.

    Closed-form kernels report error_estimate 0.0.  Kernels obtained by
    quadrature forward the quadrature error estimate and set `converged`
    to False instead of silently returning a degraded value.  Slotted, so
    that callers who keep many values hold no per-instance dict.
    """

    value: float
    error_estimate: float = 0.0
    converged: bool = True


def _exp(logv: float) -> float:
    try:
        return math.exp(logv)
    except OverflowError:
        return math.inf


def _split(a: float) -> tuple[float, float]:
    """Veltkamp split of a into two halves of at most 26 bits each."""
    t = 134217729.0 * a
    hi = t - (t - a)
    return hi, a - hi


def _two_prod(a: float, b: float) -> tuple[float, float]:
    """Dekker's product: p + e == a * b exactly, p = fl(a * b)."""
    p = a * b
    a1, a2 = _split(a)
    b1, b2 = _split(b)
    return p, ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2


def _exp_neg_gap_ratio(y: float, s: float, q: float) -> float:
    """exp(-y^2 / (4 s)) given q = fl(fl(y * y) / (4 s)).

    exp turns the absolute rounding error of q into a relative error of
    the result, q ulp-sized pieces of it.  For q >= 1 the exact residual
    y^2 / (4 s) - q is recovered with error-free products on y and 4s
    rescaled by the same power of two (so nothing overflows and the
    scaling P(c y, X, X + c^2 s) = c^{-2} P(y, X, X + s) stays exact)
    and applied to first order.
    """
    if q < 1.0:
        return math.exp(-q)
    k = math.frexp(y)[1]
    yn = math.ldexp(y, -k)
    dn = math.ldexp(4.0 * s, -2 * k)
    hi, lo = _two_prod(yn, yn)
    p, e = _two_prod(q, dn)
    q_lo = ((hi - p) - e + lo) / dn
    return math.exp(-q) * (1.0 - q_lo)


def _log_stable_half_density(y: float, s):
    """log of (y / (2 sqrt(pi))) s^{-3/2} exp(-y^2 / (4 s)) for s > 0."""
    return (math.log(y) - _LOG2 - 0.5 * math.log(math.pi)
            - 1.5 * np.log(s) - (y * y) / (4.0 * s))


def dirac_kernel(p: EvaluationPoint) -> KernelValue:
    """Extension kernel of the transport operator d/dX.

    Supported on source > target, where it equals the one-sided
    stable-1/2 density in the gap s = source - target:

        P(y, X, X') = (y / (2 sqrt(pi))) s^{-3/2} exp(-y^2 / (4 s)).

    Off the support the value is 0.  The kernel has unit mass in the
    source variable for every y, and obeys the exact scaling
    P(c y, X, X + c^2 s) = c^{-2} P(y, X, X + s).

    Where y^2 / (4s) < 708 (exp(-708) is still normal) and the prefactor is a normal float the value
    is the product of the prefactor, built from correctly rounded
    operations only, and exp(-y^2 / (4s)) with the rounding error of the
    exponent compensated; a dyadic c then scales every intermediate
    exactly, so the scaling holds to the last bit.  Elsewhere the
    log-domain form is used.  Where y^2 is subnormal it keeps too few bits
    for either form, so the value is c^2 P(c y, X, X + c^2 s), with the
    dyadic c that puts c^2 s in [0.5, 2); nothing is scaled where
    y^2 / (4s) < 2^-60 is too small for its bits to matter.
    """
    s = p.source - p.target
    # off the support, and where 4 s overflows: there P <= 0.24 / s is
    # below the normal range
    if not 0.0 < 4.0 * s < math.inf:
        return KernelValue(0.0, 0.0)
    y = p.y
    k = 0
    if y * y < _MIN_NORMAL and y / math.sqrt(s) >= 2.0 ** -29:
        k = -(math.frexp(s)[1] // 2)
        y, s = math.ldexp(y, k), math.ldexp(s, 2 * k)
    q = y * y / (4.0 * s)
    if q < 708.0:
        denominator = _TWO_SQRT_PI * s * math.sqrt(s)
        prefactor = y / denominator if denominator else math.inf
        if _MIN_NORMAL <= prefactor < math.inf:
            value = prefactor * _exp_neg_gap_ratio(y, s, q)
            if k:
                try:
                    value = math.ldexp(value, 2 * k)
                except OverflowError:
                    value = math.inf
            return KernelValue(value, 0.0)
    return KernelValue(_exp(float(_log_stable_half_density(y, s)) + 2 * k * _LOG2),
                       0.0)


def euler_kernel(p: EvaluationPoint, a: OscillatorParam) -> KernelValue:
    """Extension kernel of the scaling operator -2 a xi d/dxi.

    Supported on the same-sign branch 0 < |source| < |target|:

        P(y, xi, xi') = sqrt(a / (2 pi)) (y / |xi'|) L^{-3/2}
                        exp(-a y^2 / (2 L)),       L = log(|xi / xi'|),

    and 0 elsewhere.  On the invariant line xi = 0 (or xi' = 0) the
    operator degenerates and evaluation raises
    DegenerateCharacteristicError.  The kernel is the image of
    `dirac_kernel` under X = log|xi| / (-2a):

        euler = dirac(y, X(xi), X(xi')) / (2 a |xi'|).
    """
    xi, xip = p.target, p.source
    if xi == 0.0 or xip == 0.0:
        raise DegenerateCharacteristicError(
            "the scaling kernel is undefined on the invariant line xi = 0"
        )
    if (xi > 0.0) != (xip > 0.0):
        return KernelValue(0.0, 0.0)
    r, rp = abs(xi), abs(xip)
    if rp >= r:
        return KernelValue(0.0, 0.0)
    aa = a.a
    ratio = (r - rp) / rp
    log_ratio = math.log1p(ratio) if ratio < math.inf else math.log(r) - math.log(rp)
    logv = (0.5 * (math.log(aa) - _LOG_2PI) + math.log(p.y) - math.log(rp)
            - 1.5 * math.log(log_ratio) - aa * p.y * p.y / (2.0 * log_ratio))
    return KernelValue(_exp(logv), 0.0)


def _mehler_log(t, x, xp, a):
    """log of the oscillator heat kernel; vectorized, stable for all 2at.

    Uses the grouping

        log K = 0.5 (log a - log 2pi) - 0.5 log sinh(s)
                - (a/2) (x - x')^2 coth(s) - a x x' tanh(s/2),   s = 2 a t,

    which avoids the cancellation between the coth and 1/sinh terms when
    s is small, and evaluates sinh/coth/tanh through expm1 so that both
    s -> 0 and s -> inf are handled without overflow.
    """
    return _mehler_log_terms(t, a, 0.5 * (np.log(a) - _LOG_2PI),
                             _spread(a, x, xp), a * x * xp)


def _spread(a: float, x: float, xp: float) -> float:
    """(a/2) (x - x')^2.  The Mehler exponent spread coth(s) + a x x' tanh(s/2)
    exceeds spread / 2 (a x x' >= -spread / 2, coth(s) - tanh(s/2) / 2 > 1/2),
    so where the spread is +inf the heat kernel, and every kernel subordinated
    from it, is 0.0, while the terms of `_mehler_log` would meet as inf - inf.
    """
    return 0.5 * a * (x - xp) * (x - xp)


def _mehler_log_terms(t, a, log_norm, spread, product):
    """`_mehler_log` from its t-free terms: log_norm = 0.5 (log a - log 2pi),
    spread = (a/2) (x - x')^2 and product = a x x'."""
    s = 2.0 * a * t
    two_s = 2.0 * s
    # expm1 stays finite up to 709, where 1 + 2 / expm1 already rounds to 1
    coth = 1.0 + 2.0 / np.expm1(np.minimum(two_s, 709.0))
    log_sinh = s + np.log(-np.expm1(-two_s)) - _LOG2      # 1 - exp(-2s)
    tanh_half = np.tanh(0.5 * s)
    return log_norm - 0.5 * log_sinh - spread * coth - product * tanh_half


def mehler_heat_kernel(t: float, x: float, xp: float,
                       a: OscillatorParam) -> KernelValue:
    """Heat kernel of the oscillator d^2/dx^2 - a^2 x^2 at time t > 0.

        K(t, x, x') = sqrt(a / (2 pi sinh(2at)))
                      exp(-(a/2)(x^2 + x'^2) coth(2at) + a x x' / sinh(2at))

    evaluated in the log domain.  As a -> 0 it approaches the Gaussian
    heat kernel (4 pi t)^{-1/2} exp(-(x - x')^2 / (4t)).  Where the spread
    (a/2)(x - x')^2 overflows the value is exactly 0.0 (see `_spread`).
    """
    t = positive_real(t, "t")
    x = finite_real(x, "x")
    xp = finite_real(xp, "xp")
    if _spread(a.a, x, xp) == math.inf:
        return KernelValue(0.0, 0.0)
    return KernelValue(_exp(float(_mehler_log(t, x, xp, a.a))), 0.0)


# (target, source) pairs integrated in lockstep by one quadrature call:
# bounds the (pairs x samples) temporaries of each integrand call
_BATCH_PAIRS = 64


def oscillator_poisson_kernel(p: EvaluationPoint, a: OscillatorParam,
                              cfg: QuadratureConfig | None = None,
                              prefactor_scale: float = 1.0) -> KernelValue:
    """Extension kernel of the oscillator, by subordination of its heat flow.

        P(y, x, x') = (y / (2 sqrt(pi))) *
                      integral_0^inf u^{-3/2} exp(-y^2 / (4u)) K(u, x, x') du

    with K the oscillator heat kernel.  The u-integral is evaluated by the
    semi-infinite quadrature; its error estimate and convergence flag are
    forwarded (scaled) in the returned KernelValue.  This is the batch of
    one of `oscillator_poisson_kernel_batch`.

    `prefactor_scale` multiplies the subordination prefactor.  1.0 is the
    mathematically consistent normalization; any other value deliberately
    breaks it and exists only as a fault-injection knob for the
    verification suites (sqrt(2) is the conventional negative control).
    """
    return oscillator_poisson_kernel_batch(p.y, (p.target,), (p.source,), a,
                                           cfg, prefactor_scale)[0]


def oscillator_poisson_kernel_batch(y: float, targets, sources,
                                    a: OscillatorParam,
                                    cfg: QuadratureConfig | None = None,
                                    prefactor_scale: float = 1.0
                                    ) -> list[KernelValue]:
    """`oscillator_poisson_kernel` at (targets[i], sources[i]) pairs sharing (y, a).

    The pairs' u-integrals run in lockstep, up to _BATCH_PAIRS of them
    per `integrate_semi_infinite_batch` call, so that they share each
    integrand evaluation.  Every pair keeps its own quadrature centre,
    tail cuts, convergence test, error estimate and flag: nothing is
    pooled, and each value is the one the single-pair call returns.
    Returns one KernelValue per pair, in order; an empty batch gives [].
    A pair whose Mehler spread (a/2)(x - x')^2 overflows is exactly 0.0
    (see `_spread`) and is not integrated.  Mismatched lengths, or a target
    or source that is not a finite real number, raise ValueError.
    """
    y = positive_real(y, "y")
    xs = [finite_real(v, "target") for v in targets]
    xps = [finite_real(v, "source") for v in sources]
    if len(xs) != len(xps):
        raise ValueError(f"got {len(xs)} targets but {len(xps)} sources")
    scale = positive_real(prefactor_scale, "prefactor_scale")
    aa = a.a
    q = 0.25 * y * y
    log_norm = 0.5 * (np.log(aa) - _LOG_2PI)
    c = scale * y / (2.0 * _SQRT_PI)
    spreads = [_spread(aa, x, xp) for x, xp in zip(xs, xps)]
    values = [KernelValue(0.0, 0.0) if v == math.inf else None for v in spreads]
    live = [i for i, v in enumerate(values) if v is None]
    for start in range(0, len(live), _BATCH_PAIRS):
        chunk = live[start:start + _BATCH_PAIRS]
        spread = [spreads[i] for i in chunk]
        product = [aa * xs[i] * xps[i] for i in chunk]
        if len(chunk) == 1:     # one pair: its terms broadcast over any rows
            spread, product = spread[0], product[0]
        else:
            spread, product = np.array(spread)[:, None], np.array(product)[:, None]

        def integrand(u, rows, spread=spread, product=product):
            if not isinstance(spread, float):
                spread, product = spread[rows], product[rows]
            return (np.ones_like(u), -1.5 * np.log(u) - q / u
                    + _mehler_log_terms(u, aa, log_norm, spread, product))

        for i, res in zip(chunk, integrate_semi_infinite_batch(
                integrand, len(chunk), cfg)):
            values[i] = KernelValue(c * res.value, c * res.error_estimate,
                                    res.converged)
    return values


def halfplane_poisson_kernel(p: EvaluationPoint) -> KernelValue:
    """Classical half-plane Poisson kernel (1/pi) y / (y^2 + (x - x')^2).

    This is the a -> 0 limit of `oscillator_poisson_kernel` at fixed
    (y, x, x').  Where y^2 + (x - x')^2 is not a normal float, or pi times
    it overflows, the value is taken as (y / h) / h / pi, h = hypot(y, x - x').
    """
    dx = p.target - p.source
    square = p.y * p.y + dx * dx
    if square >= _MIN_NORMAL and math.pi * square < math.inf:
        return KernelValue(p.y / (math.pi * square), 0.0)
    h = math.hypot(p.y, dx)
    return KernelValue(p.y / h / h / math.pi, 0.0)
