"""Adaptive quadrature for semi-infinite integrals with steep endpoint decay.

The integrals handled here share one shape,

    I = integral_0^inf f(u) du,

where |f(u)| falls faster than any power of u as u -> 0+ (typically through
a factor exp(-c/u)) and decays at least like an integrable power as
u -> inf, exponentially in the intended applications.  Integrands are
supplied in (sign, log-magnitude) form so that factors such as
u**-1.5 * exp(-c/u) never overflow or underflow before they are combined.

The method rewrites the integral on the logarithmic axis u = u* exp(w),
where u* maximizes the transformed magnitude |f(u)| * u.  Both endpoint
behaviours then decay double-exponentially in w, and the trapezoid rule
with step halving converges at a spectral rate while reusing every sample.
Tails of the trapezoid sum are cut once the samples stay `decay_cutoff`
natural-log units below the running maximum.

The state is held in numpy arrays.  Each refinement level is two arrays in
k order, sign and log F at w = h * k for k_lo..k_hi.  Halving the step
draws only the new odd samples, in one integrand call, and interleaves them
with the previous level; the level sum is one reduction over the arrays.
Tails grow outward in blocks, both tails in one integrand call per block.
The peak u* comes from a coarse log-spaced scan followed by two bracket
rounds of nine points each; it sets where the grid sits and where the
tails are cut, not the converged value, so it is located only to about a
hundredth of a log unit.

All routines are deterministic: identical inputs produce bit-identical
results, and no global state is touched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

__all__ = [
    "LogIntegrand",
    "QuadratureConfig",
    "QuadratureResult",
    "IntegrandEvaluationError",
    "NonConvergenceError",
    "integrate_semi_infinite",
    "subordination_base_residual",
    "subordination_derived_residual",
]

#: An integrand in log form: maps an array of abscissae u > 0 to a pair
#: (sign, log_magnitude) of arrays of the same shape.  sign is -1, 0 or +1;
#: log_magnitude may be -inf where the integrand vanishes.
LogIntegrand = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]

_SQRT_PI = math.sqrt(math.pi)

# Peak scan window in log(u); widened on demand, hard-capped so that u stays
# comfortably inside double range.
_SCAN_LO = math.log(1e-8)
_SCAN_HI = math.log(1e8)
_SCAN_LIMIT = 140.0
_SCAN_STEP = 0.3
_BRACKET_POINTS = 9       # interior points scored per bracket round
_BRACKET_ROUNDS = 2
_BRACKET_WIDTH = 1e-3     # a bracket this narrow needs no further round

_BASE_STEP = 0.5          # trapezoid step at refinement depth 0
_MIN_TAIL_SPAN = 2.0      # never cut a tail before |w| reaches this span
_TAIL_RUN = 3             # consecutive sub-cutoff samples that end a tail
_TAIL_BLOCK = 16          # samples drawn per tail and integrand call
_MAX_POINTS = 2_000_000   # safety valve against runaway refinement
_LOG_U_CAP = 700.0        # |log u| cap so exp(log u) stays finite and nonzero

_BRACKET_FRACTIONS = np.arange(1, _BRACKET_POINTS + 1) / (_BRACKET_POINTS + 1)
_BLOCK_K = np.arange(_TAIL_BLOCK)
_NO_RUN = np.zeros(_TAIL_RUN - 1, dtype=bool)


class IntegrandEvaluationError(RuntimeError):
    """The integrand returned NaN, +inf, or a non-finite sign."""

    def __init__(self, abscissa: float):
        self.abscissa = float(abscissa)
        super().__init__(
            f"non-finite integrand sample at u={self.abscissa!r}"
        )


class NonConvergenceError(RuntimeError):
    """Raised by callers that cannot proceed with an unconverged integral."""


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and limits for `integrate_semi_infinite`.

    rel_tol, abs_tol
        Convergence is declared once the change between successive
        refinement levels is at most max(abs_tol, rel_tol * |value|).
    max_refinement_depth
        Number of step halvings attempted beyond the base grid.
    decay_cutoff
        Tail truncation threshold in natural-log units below the running
        maximum of the transformed integrand.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-300
    max_refinement_depth: int = 20
    decay_cutoff: float = 45.0

    def __post_init__(self):
        if not (isinstance(self.rel_tol, float) and 0.0 < self.rel_tol < 1.0):
            raise ValueError(f"rel_tol must lie in (0, 1), got {self.rel_tol!r}")
        if not (isinstance(self.abs_tol, float) and 0.0 < self.abs_tol < 1.0):
            raise ValueError(f"abs_tol must lie in (0, 1), got {self.abs_tol!r}")
        if not (isinstance(self.max_refinement_depth, int)
                and 0 < self.max_refinement_depth <= 60):
            raise ValueError(
                "max_refinement_depth must be a positive integer <= 60, "
                f"got {self.max_refinement_depth!r}"
            )
        if not (isinstance(self.decay_cutoff, float) and self.decay_cutoff > 0.0):
            raise ValueError(
                f"decay_cutoff must be a positive float, got {self.decay_cutoff!r}"
            )


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of one semi-infinite quadrature.

    When `converged` is true the reported `error_estimate` satisfies
    error_estimate <= max(abs_tol, rel_tol * |value|) for the config used.
    """

    value: float
    error_estimate: float
    evaluations: int
    converged: bool


def _probe(integrand: LogIntegrand, u: np.ndarray, counter: list) -> tuple:
    """Evaluate the integrand, validate samples, count evaluations.

    The fast path checks two reductions: the largest log-magnitude (a NaN
    propagates into it) and the largest |sign|.  Only when one of them
    fails is the per-sample mask built, to name the offending abscissa.
    """
    sign, logmag = integrand(u)
    sign = np.asarray(sign, dtype=float)
    logmag = np.asarray(logmag, dtype=float)
    if sign.shape != u.shape:
        sign = np.broadcast_to(sign, u.shape)
    if logmag.shape != u.shape:
        logmag = np.broadcast_to(logmag, u.shape)
    counter[0] += u.size
    if not (logmag.max() < math.inf and np.abs(sign).max() <= 1.0):
        bad = np.isnan(logmag) | np.isposinf(logmag) | ~np.isfinite(sign)
        if np.any(bad):
            raise IntegrandEvaluationError(float(u[int(np.argmax(bad))]))
    return sign, logmag


def _find_split(integrand: LogIntegrand, counter: list, hints=()):
    """Locate the maximizer of |f(u)| * u on a log axis.

    Coarse log-spaced scan, widened while the maximum sits on an edge,
    followed by at most _BRACKET_ROUNDS vectorized rounds that each score
    _BRACKET_POINTS points across the bracket around the best point.
    `hints` are extra abscissae always included in the scan, so that a
    support window narrower than the scan step is never stepped over.
    Returns None when the integrand is identically zero over the widest
    scan window.
    """
    log_hints = np.array(sorted(
        math.log(h) for h in hints
        if isinstance(h, (int, float)) and math.isfinite(h) and h > 0.0
        and -_SCAN_LIMIT <= math.log(h) <= _SCAN_LIMIT
    ))

    def scores(t):
        u = np.exp(t)
        sign, logmag = _probe(integrand, u, counter)
        return np.where(sign == 0.0, -np.inf, logmag) + t

    t_lo, t_hi = _SCAN_LO, _SCAN_HI
    widened = False
    while True:
        n = max(int((t_hi - t_lo) / _SCAN_STEP) + 1, 9)
        t = np.linspace(t_lo, t_hi, n)
        if log_hints.size:
            # sorted and deduplicated as np.unique would, which would load
            # numpy.ma on its first call
            t = np.sort(np.concatenate([t, log_hints]))
            t = t[np.concatenate([[True], t[1:] != t[:-1]])]
            n = t.size
        sc = scores(t)
        if np.all(np.isneginf(sc)):
            if widened:
                return None
            t_lo, t_hi = -_SCAN_LIMIT, _SCAN_LIMIT
            widened = True
            continue
        i = int(np.argmax(sc))
        if i == 0 and t_lo > -_SCAN_LIMIT:
            t_lo = max(-_SCAN_LIMIT, t_lo - 20.0)
            continue
        if i == n - 1 and t_hi < _SCAN_LIMIT:
            t_hi = min(_SCAN_LIMIT, t_hi + 20.0)
            continue
        break

    # Bracket rounds: score _BRACKET_POINTS interior points of the bracket
    # and re-centre it on the best point seen, at one grid step either side.
    # The best point never leaves the bracket, so a support window whose
    # neighbours both sample as -inf is not lost.
    lo = t[max(i - 1, 0)]
    hi = t[min(i + 1, n - 1)]
    best, best_score = t[i], sc[i]
    for _round in range(_BRACKET_ROUNDS):
        if hi - lo <= _BRACKET_WIDTH:
            break
        grid = lo + (hi - lo) * _BRACKET_FRACTIONS
        sc = scores(grid)
        j = int(np.argmax(sc))
        if sc[j] > best_score:
            best, best_score = grid[j], sc[j]
        step = (hi - lo) / (_BRACKET_POINTS + 1)
        lo, hi = max(lo, best - step), min(hi, best + step)
    return math.exp(best)


class _Sampler:
    """Draws transformed samples F(w) = f(u* e^w) * u* e^w as arrays.

    Returns (sign, log F) for an array of w and keeps `peak`, the running
    maximum of log F over every sample drawn, against which tails are cut.
    """

    def __init__(self, integrand: LogIntegrand, u_star: float, counter: list):
        self.integrand = integrand
        self.log_u_star = math.log(u_star)
        self.counter = counter
        self.peak = -math.inf

    def __call__(self, w: np.ndarray) -> tuple:
        log_u = self.log_u_star + w
        sign, logmag = _probe(self.integrand, np.exp(log_u), self.counter)
        logf = np.where(sign == 0.0, -np.inf, logmag + log_u)
        self.peak = max(self.peak, float(logf.max()))
        return sign, logf


def _grow_tails(sample: _Sampler, h: float, sign: np.ndarray, logf: np.ndarray,
                k_lo: int, k_hi: int, directions, cutoff: float) -> tuple:
    """Extend the level held over k_lo..k_hi outward at spacing h.

    `directions` names the tails to grow: +1 beyond k_hi, -1 below k_lo.
    Each round draws the next _TAIL_BLOCK samples of every open tail in
    one integrand call.  A tail ends at the first index that closes a run
    of _TAIL_RUN samples below peak - cutoff at |w| >= _MIN_TAIL_SPAN, or
    where |log u| would pass _LOG_U_CAP.  Returns the extended
    (sign, log F, k_lo, k_hi).
    """
    k_span = math.ceil(_MIN_TAIL_SPAN / h)    # exact: h is a power of two
    # per direction: next |k|, flags of the last _TAIL_RUN - 1 samples,
    # and the sign and log F blocks drawn so far, in outward order
    tails = {d: [k_hi + 1 if d > 0 else 1 - k_lo, _NO_RUN, [], []]
             for d in directions}
    open_dirs = list(directions)
    while open_dirs:
        blocks = []
        for d in open_dirs:
            w = (d * h) * (tails[d][0] + _BLOCK_K)
            if abs(w[-1] + sample.log_u_star) > _LOG_U_CAP:
                w = w[np.abs(w + sample.log_u_star) <= _LOG_U_CAP]
            if w.size:
                blocks.append((d, w))
        if not blocks:
            break
        new_sign, new_logf = sample(np.concatenate([w for _, w in blocks]))
        below = new_logf < sample.peak - cutoff
        open_dirs = []
        pos = 0
        for d, w in blocks:
            tail = tails[d]
            part = slice(pos, pos + w.size)
            pos += w.size
            flags = np.concatenate([tail[1], below[part]])
            # closed[j]: sample j ends a run of _TAIL_RUN sub-cutoff samples
            closed = flags[_TAIL_RUN - 1:].copy()
            for lag in range(1, _TAIL_RUN):
                closed &= flags[_TAIL_RUN - 1 - lag:flags.size - lag]
            closed[:max(k_span - tail[0], 0)] = False
            j = int(np.argmax(closed))
            m = j + 1 if closed[j] else w.size
            tail[2].append(new_sign[part][:m])
            tail[3].append(new_logf[part][:m])
            if m == _TAIL_BLOCK and not closed[j]:
                open_dirs.append(d)
                tail[0] += _TAIL_BLOCK
                tail[1] = flags[_TAIL_BLOCK:]
    for d, (_, _, signs, logfs) in tails.items():
        if not signs:       # the tail already ends at the |log u| cap
            continue
        s_out, g_out = np.concatenate(signs), np.concatenate(logfs)
        if d > 0:
            sign, logf = np.concatenate([sign, s_out]), np.concatenate([logf, g_out])
            k_hi += s_out.size
        else:
            sign = np.concatenate([s_out[::-1], sign])
            logf = np.concatenate([g_out[::-1], logf])
            k_lo -= s_out.size
    return sign, logf, k_lo, k_hi


def _level_sum(sign: np.ndarray, logf: np.ndarray, h: float) -> float:
    m = float(logf.max())
    if m == -math.inf:
        return 0.0
    with np.errstate(under="ignore"):
        total = float(np.sum(sign * np.exp(logf - m)))
    if total == 0.0:
        return 0.0
    log_mag = m + math.log(h) + math.log(abs(total))
    if log_mag >= 709.0:
        return math.copysign(math.inf, total)
    return math.copysign(math.exp(log_mag), total)


def integrate_semi_infinite(integrand: LogIntegrand,
                            cfg: QuadratureConfig | None = None,
                            probe_hints=()) -> QuadratureResult:
    """Integrate f over (0, inf) from its (sign, log-magnitude) samples.

    Parameters
    ----------
    integrand : LogIntegrand
        Vectorized callable u -> (sign, log_magnitude).  Must be finite
        apart from log_magnitude == -inf where f vanishes; a NaN or +inf
        sample raises IntegrandEvaluationError with the offending abscissa.
    cfg : QuadratureConfig, optional
        Tolerances and refinement limits.
    probe_hints : iterable of float, optional
        Abscissae known to lie inside the integrand's support, e.g. from a
        datum's support interval.  Without them, a support window narrower
        than the peak-scan resolution could be missed entirely.

    Returns
    -------
    QuadratureResult
        `value` with `error_estimate` taken from the last step halving,
        the total number of integrand evaluations, and a convergence flag.
        A result is never silently degraded: if the tolerance was not met
        within the refinement budget, `converged` is False.
    """
    if cfg is None:
        cfg = QuadratureConfig()
    counter = [0]
    u_star = _find_split(integrand, counter, probe_hints)
    if u_star is None:
        return QuadratureResult(0.0, 0.0, counter[0], True)

    cutoff = cfg.decay_cutoff
    sample = _Sampler(integrand, u_star, counter)
    h = _BASE_STEP
    # The level is held in k order, k_lo..k_hi, with w = h * k.  It starts
    # empty (k_lo = 0, k_hi = -1), so that the upper tail starts at the
    # centre sample k = 0.
    sign, logf, k_lo, k_hi = _grow_tails(sample, h, np.empty(0), np.empty(0),
                                         0, -1, (+1, -1), cutoff)

    value = _level_sum(sign, logf, h)
    err = math.inf
    converged = False
    for _depth in range(cfg.max_refinement_depth):
        h *= 0.5
        k_lo *= 2
        k_hi *= 2
        s_odd, g_odd = sample(h * np.arange(k_lo + 1, k_hi, 2))
        fine_sign = np.empty(k_hi - k_lo + 1)
        fine_logf = np.empty(k_hi - k_lo + 1)
        fine_sign[0::2], fine_sign[1::2] = sign, s_odd
        fine_logf[0::2], fine_logf[1::2] = logf, g_odd
        sign, logf = fine_sign, fine_logf
        # The finer grid can reveal that a tail was cut while still warm;
        # push it further out at the current spacing when that happens.
        # Each tail's last _TAIL_RUN samples stop at w = 0.
        threshold = sample.peak - cutoff
        hot = []
        if logf[logf.size - min(_TAIL_RUN, k_hi + 1):].max() >= threshold:
            hot.append(+1)
        if logf[:min(_TAIL_RUN, 1 - k_lo)].max() >= threshold:
            hot.append(-1)
        if hot:
            sign, logf, k_lo, k_hi = _grow_tails(sample, h, sign, logf,
                                                 k_lo, k_hi, hot, cutoff)
        new_value = _level_sum(sign, logf, h)
        err = abs(new_value - value)
        value = new_value
        if math.isfinite(value) and err <= max(cfg.abs_tol, cfg.rel_tol * abs(value)):
            converged = True
            break
        if (k_hi - k_lo) > _MAX_POINTS:
            break
    if not math.isfinite(value):
        converged = False
    return QuadratureResult(value, err, counter[0], converged)


def _require_positive(value: float, name: str) -> float:
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a positive finite real, got {value!r}")
    return float(value)


def subordination_base_residual(t: float, lam: float,
                                cfg: QuadratureConfig | None = None) -> float:
    """Relative defect of the half-integer-kernel Laplace identity.

    Checks  exp(-t*lam)/t  against

        (1/sqrt(pi)) * integral_0^inf exp(-u t^2) u^{-1/2} exp(-lam^2/(4u)) du

    and returns |lhs - rhs| / lhs.  Both t and lam must be positive.
    """
    t = _require_positive(t, "t")
    lam = _require_positive(lam, "lam")
    if cfg is None:
        cfg = QuadratureConfig()
    t2 = t * t
    q = 0.25 * lam * lam

    def integrand(u):
        return np.ones_like(u), -t2 * u - 0.5 * np.log(u) - q / u

    res = integrate_semi_infinite(integrand, cfg)
    if not res.converged:
        raise NonConvergenceError(
            f"subordination base integral did not converge at t={t}, lam={lam}"
        )
    lhs = math.exp(-t * lam) / t
    rhs = res.value / _SQRT_PI
    return abs(lhs - rhs) / lhs


def subordination_derived_residual(t: float, lam: float,
                                   cfg: QuadratureConfig | None = None) -> float:
    """Relative defect of the lam-differentiated subordination identity.

    Checks  exp(-t*lam)  against

        (1/(2 sqrt(pi))) * integral_0^inf exp(-u t^2) u^{-3/2} lam
                                         exp(-lam^2/(4u)) du

    and returns |lhs - rhs| / lhs.  This is the form that transfers a heat
    semigroup into the corresponding Poisson semigroup; note that the right
    side carries no 1/t factor.
    """
    t = _require_positive(t, "t")
    lam = _require_positive(lam, "lam")
    if cfg is None:
        cfg = QuadratureConfig()
    t2 = t * t
    q = 0.25 * lam * lam
    log_lam = math.log(lam)

    def integrand(u):
        return np.ones_like(u), -t2 * u - 1.5 * np.log(u) - q / u + log_lam

    res = integrate_semi_infinite(integrand, cfg)
    if not res.converged:
        raise NonConvergenceError(
            f"subordination derived integral did not converge at t={t}, lam={lam}"
        )
    lhs = math.exp(-t * lam)
    rhs = res.value / (2.0 * _SQRT_PI)
    return abs(lhs - rhs) / lhs
