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

`integrate_semi_infinite_batch` integrates k such integrands in lockstep,
in the manner of `scipy.integrate.quad_vec`: each integrand call takes
abscissae for many components at once, one line of a 2-D array per
component (or per tail of one).  Unlike quad_vec, nothing is pooled.  Each
component keeps its own centre u*, running peak, tail cuts and
convergence test, is frozen at the first level where it converges, and
gets exactly the result it would get alone.  `integrate_semi_infinite` is
the one-component case of the same code.

The state is held in numpy arrays.  Each refinement level is two arrays,
one row per component still refining, sign and log F at w = h * k in k
order.  Halving the step draws only the new odd samples of every row, in
one integrand call, and interleaves them with the previous level; the
level sums are one reduction over the arrays.  Tails grow outward in
blocks, every open tail in one integrand call per block.  The peak u*
comes from a coarse log-spaced scan followed by two bracket rounds of nine
points each; it sets where the grid sits and where the tails are cut, not
the converged value, so it is located only to about a hundredth of a log
unit.

All routines are deterministic: identical inputs produce bit-identical
results, and no global state is touched.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Tuple

import numpy as np

from .numerics import nonnegative_int, positive_real

__all__ = [
    "LogIntegrand",
    "BatchIntegrand",
    "QuadratureConfig",
    "QuadratureResult",
    "IntegrandEvaluationError",
    "NonConvergenceError",
    "integrate_semi_infinite",
    "integrate_semi_infinite_batch",
    "subordination_base_residual",
    "subordination_derived_residual",
]

#: An integrand in log form: maps an array of abscissae u > 0 to a pair
#: (sign, log_magnitude) of arrays of the same shape.  sign is -1, 0 or +1;
#: log_magnitude may be -inf where the integrand vanishes.
LogIntegrand = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]

#: The same for k components at once: maps abscissae u of shape
#: (len(rows), n), row j holding abscissae of component rows[j], and the
#: integer array `rows` to (sign, log_magnitude) arrays of u's shape.
BatchIntegrand = Callable[[np.ndarray, np.ndarray],
                          Tuple[np.ndarray, np.ndarray]]

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
_BLOCK_K = np.arange(float(_TAIL_BLOCK))


class IntegrandEvaluationError(RuntimeError):
    """The integrand returned NaN, +inf, or a non-finite sign."""

    def __init__(self, abscissa: float):
        self.abscissa = float(abscissa)
        super().__init__(
            f"non-finite integrand sample at u={self.abscissa!r}"
        )

    def __reduce__(self):
        return type(self), (self.abscissa,)


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


def _probe(integrand: BatchIntegrand, u: np.ndarray, rows: np.ndarray) -> tuple:
    """Evaluate the integrand on u of shape (len(rows), n) and validate it.

    An output with as many entries as u is taken in u's order; a smaller
    one is broadcast.  The fast path checks two reductions: the largest
    log-magnitude (a NaN propagates into it) and the largest |sign|.  Only
    when one of them fails is the per-sample mask built, to name the
    offending abscissa.
    """
    sign, logmag = integrand(u, rows)
    sign = np.asarray(sign, dtype=float)
    logmag = np.asarray(logmag, dtype=float)
    if sign.shape != u.shape:
        sign = (sign.reshape(u.shape) if sign.size == u.size
                else np.broadcast_to(sign, u.shape))
    if logmag.shape != u.shape:
        logmag = (logmag.reshape(u.shape) if logmag.size == u.size
                  else np.broadcast_to(logmag, u.shape))
    if not (logmag.max() < math.inf and np.abs(sign).max() <= 1.0):
        bad = np.isnan(logmag) | np.isposinf(logmag) | ~np.isfinite(sign)
        if np.any(bad):
            raise IntegrandEvaluationError(float(u.flat[int(np.argmax(bad))]))
    return sign, logmag


def _scores(integrand: BatchIntegrand, t: np.ndarray, rows: list,
            counts: list) -> np.ndarray:
    """log(|f(u)| u) at u = e^t for the components `rows`.

    t is one grid of shape (n,) shared by every row, or (len(rows), n).
    """
    u = np.exp(t, out=np.empty((len(rows), t.shape[-1])))
    sign, logmag = _probe(integrand, u, np.array(rows))
    for row in rows:
        counts[row] += u.shape[1]
    scores = logmag + t
    scores[sign == 0.0] = -np.inf
    return scores


@functools.lru_cache(maxsize=16)
def _scan_grid(t_lo: float, t_hi: float) -> np.ndarray:
    """The peak-scan grid over [t_lo, t_hi] in log u, shared read-only."""
    grid = np.linspace(t_lo, t_hi, max(int((t_hi - t_lo) / _SCAN_STEP) + 1, 9))
    grid.flags.writeable = False
    return grid


def _find_centres(integrand: BatchIntegrand, k: int, counts: list) -> list:
    """log u* per component, u* the maximizer of |f(u)| * u on a log axis.

    Coarse log-spaced scan, widened while a component's maximum sits on an
    edge, followed by at most _BRACKET_ROUNDS vectorized rounds that each
    score _BRACKET_POINTS points across the bracket around its best point.
    Components that need the same scan window share one integrand call,
    and every bracket round is one call.  The entry is None for a
    component that is identically zero over the widest scan window.
    """
    lo, hi, best, top = ([None] * k for _ in range(4))
    # scan window (t_lo, t_hi, widened) -> components still to scan on it
    pending = {(_SCAN_LO, _SCAN_HI, False): list(range(k))}
    while pending:
        (t_lo, t_hi, widened), rows = pending.popitem()
        t = _scan_grid(t_lo, t_hi)
        n = t.size
        sc = _scores(integrand, t, rows, counts)
        for j, (row, i) in enumerate(zip(rows, sc.argmax(axis=1).tolist())):
            peak = float(sc[j, i])
            if peak == -math.inf:
                key = None if widened else (-_SCAN_LIMIT, _SCAN_LIMIT, True)
            elif i == 0 and t_lo > -_SCAN_LIMIT:
                key = (max(-_SCAN_LIMIT, t_lo - 20.0), t_hi, widened)
            elif i == n - 1 and t_hi < _SCAN_LIMIT:
                key = (t_lo, min(_SCAN_LIMIT, t_hi + 20.0), widened)
            else:
                lo[row], hi[row] = float(t[max(i - 1, 0)]), float(t[min(i + 1, n - 1)])
                best[row], top[row] = float(t[i]), peak
                continue
            if key is not None:
                pending.setdefault(key, []).append(row)

    # Bracket rounds: score _BRACKET_POINTS interior points of the bracket
    # and re-centre it on the best point seen, at one grid step either side.
    # The best point never leaves the bracket, so a support window whose
    # neighbours both sample as -inf is not lost.
    rows = [i for i in range(k) if best[i] is not None]
    for _round in range(_BRACKET_ROUNDS):
        rows = [i for i in rows if hi[i] - lo[i] > _BRACKET_WIDTH]
        if not rows:
            break
        left = np.array([lo[i] for i in rows])
        span = np.array([hi[i] - lo[i] for i in rows])
        grid = left[:, None] + span[:, None] * _BRACKET_FRACTIONS
        sc = _scores(integrand, grid, rows, counts)
        for j, (i, at) in enumerate(zip(rows, sc.argmax(axis=1).tolist())):
            if sc[j, at] > top[i]:
                best[i], top[i] = float(grid[j, at]), float(sc[j, at])
            step = (hi[i] - lo[i]) / (_BRACKET_POINTS + 1)
            lo[i], hi[i] = max(lo[i], best[i] - step), min(hi[i], best[i] + step)
    return best


class _Lines(NamedTuple):
    """The lines of one integrand call: the level row each line serves,
    its component, the components as an array, and their centres log u*
    as a column."""

    rows: list
    comp: list
    comp_array: np.ndarray
    centres: np.ndarray

    def subset(self, keep: list) -> "_Lines":
        return _Lines([self.rows[j] for j in keep], [self.comp[j] for j in keep],
                      self.comp_array[keep], self.centres[keep])


class _Trapezoid:
    """Trapezoid levels of the components still refining, in lockstep.

    Row i holds component comp[i] as transformed samples
    F(w) = f(u* e^w) * u* e^w at w = h * k about that component's own
    centre, log u* = centre[i], in (sign, log F) arrays.  The rows share
    one k range, k0 .. k0 + width - 1; row i's own samples span
    lo[i] .. hi[i] and the rest of the row is padding (sign 0, log F
    -inf).  A single row has no padding.  `peak[i]` is row i's running
    maximum of log F over every sample drawn for it, against which its
    tails are cut; `counts`, indexed by component, counts those samples.
    """

    def __init__(self, integrand: BatchIntegrand, comp: list, centre: list,
                 counts: list):
        m = len(comp)
        self.integrand, self.counts = integrand, counts
        self.comp, self.centre = comp, centre
        self.every_row = self.lines(range(m))
        self.peak = [-math.inf] * m
        self.k0 = 0
        self.lo, self.hi = [0] * m, [-1] * m
        self.sign = np.empty((m, 0))
        self.logf = np.empty((m, 0))

    def lines(self, rows) -> _Lines:
        comp = [self.comp[i] for i in rows]
        return _Lines(list(rows), comp, np.array(comp),
                      np.array([self.centre[i] for i in rows])[:, None])

    def keep(self, rows: list) -> None:
        """Drop every row not listed in `rows`."""
        self.sign, self.logf = self.sign[rows], self.logf[rows]
        for name in ("comp", "centre", "peak", "lo", "hi"):
            values = getattr(self, name)
            setattr(self, name, [values[i] for i in rows])
        self.every_row = self.lines(range(len(rows)))

    def _draw(self, lines: _Lines, w: np.ndarray, valid=None) -> tuple:
        """(sign, log F) at offsets w, one line of w per entry of `lines`.

        Where `valid` is False the offset is padding: it is drawn at w = 0,
        not counted, and comes back as log F = -inf.  Updates the peaks
        and the sample counts.
        """
        log_u = lines.centres + w
        sign, logmag = _probe(self.integrand, np.exp(log_u), lines.comp_array)
        logf = logmag + log_u
        logf[sign == 0.0] = -np.inf
        if valid is None:
            drawn = [log_u.shape[1]] * len(lines.rows)
        else:
            logf[~valid] = -np.inf
            drawn = valid.sum(axis=1).tolist()
        peak, counts = self.peak, self.counts
        for i, c, n, top in zip(lines.rows, lines.comp, drawn,
                                logf.max(axis=1).tolist()):
            counts[c] += n
            if top > peak[i]:
                peak[i] = top
        return sign, logf

    def grow(self, h: float, tails: list, cutoff: float) -> None:
        """Extend the listed tails outward at spacing h.

        `tails` holds (row, direction) pairs: direction +1 extends the row
        beyond hi, -1 below lo.  Each round draws the next _TAIL_BLOCK
        samples of every open tail in one integrand call, one tail to a
        line of u.  A tail ends at the first index at |w| >= _MIN_TAIL_SPAN
        that closes a run of _TAIL_RUN samples below its row's
        peak - cutoff, or where |log u| would pass _LOG_U_CAP.
        """
        k_span = math.ceil(_MIN_TAIL_SPAN / h)    # exact: h is a power of two
        lines = self.lines([i for i, _ in tails])
        step = np.array([d * h for _, d in tails])[:, None]
        reach = max(abs(self.centre[i]) for i in lines.rows)
        # per tail: next |k|, the length of the run of sub-cutoff samples
        # that ends it so far, and the (sign, log F) blocks kept, outward
        nxt = [self.hi[i] + 1 if d > 0 else 1 - self.lo[i] for i, d in tails]
        run = [0] * len(tails)
        kept = [[] for _ in tails]
        live = list(range(len(tails)))
        while live:
            start = np.array([nxt[t] for t in live], dtype=float)
            w = step * np.add.outer(start, _BLOCK_K)
            valid = None
            widths = [_TAIL_BLOCK] * len(live)
            if h * (max(nxt[t] for t in live) + _TAIL_BLOCK) + reach > _LOG_U_CAP:
                valid = np.abs(w + lines.centres) <= _LOG_U_CAP
                if not valid.any():
                    break
                w = np.where(valid, w, 0.0)
                widths = valid.sum(axis=1).tolist()
            sign, logf = self._draw(lines, w, valid)
            still = []
            for j, (t, i, samples, width) in enumerate(zip(
                    live, lines.rows, logf.tolist(), widths)):
                # the tail ends at the first sample at index >= k_span that
                # closes a run of _TAIL_RUN samples below peak - cutoff
                threshold = self.peak[i] - cutoff
                first = k_span - nxt[t]
                count, take, closed = run[t], width, False
                for q in range(width):
                    if not samples[q] < threshold:
                        count = 0
                        continue
                    count += 1
                    if count >= _TAIL_RUN and q >= first:
                        take, closed = q + 1, True
                        break
                if take:
                    kept[t].append((sign[j, :take], logf[j, :take]))
                if take == _TAIL_BLOCK and not closed:
                    nxt[t] += _TAIL_BLOCK
                    run[t] = count
                    still.append(j)
            if len(still) < len(live):
                lines, step = lines.subset(still), step[still]
            live = [live[j] for j in still]

        lo, hi = self.lo[:], self.hi[:]
        for (i, d), blocks in zip(tails, kept):
            n = sum(s.size for s, _ in blocks)
            if d > 0:
                hi[i] += n
            else:
                lo[i] -= n
        width = self.logf.shape[1]
        k_lo, k_hi = min(self.k0, min(lo)), max(self.k0 + width - 1, max(hi))
        if k_lo < self.k0 or k_hi >= self.k0 + width:
            shape = (len(lo), k_hi - k_lo + 1)
            if min(lo) == max(lo) and min(hi) == max(hi):   # no padding
                sign, logf = np.empty(shape), np.empty(shape)
            else:
                sign, logf = np.zeros(shape), np.full(shape, -np.inf)
            if width:
                off = self.k0 - k_lo
                sign[:, off:off + width] = self.sign
                logf[:, off:off + width] = self.logf
            self.sign, self.logf = sign, logf
        for (i, d), blocks in zip(tails, kept):
            if not blocks:      # the tail already ends at the |log u| cap
                continue
            if len(blocks) == 1:
                (s, g), = blocks
            else:
                s = np.concatenate([b[0] for b in blocks])
                g = np.concatenate([b[1] for b in blocks])
            if d > 0:
                at = slice(self.hi[i] + 1 - k_lo, hi[i] + 1 - k_lo)
            else:
                at = slice(lo[i] - k_lo, self.lo[i] - k_lo)
                s, g = s[::-1], g[::-1]
            self.sign[i, at], self.logf[i, at] = s, g
        self.lo, self.hi, self.k0 = lo, hi, k_lo

    def halve(self, h: float) -> None:
        """Refine every row to step h, half the previous one.

        Only the new odd samples are drawn, in one integrand call, and
        interleaved with the previous level.
        """
        m, n = self.logf.shape[0], self.logf.shape[1] - 1
        self.k0 *= 2
        self.lo = [2 * k for k in self.lo]
        self.hi = [2 * k for k in self.hi]
        k = np.arange(self.k0 + 1.0, self.k0 + 2 * n, 2.0)
        w = h * k
        valid = None
        if max(self.lo) > self.k0 or min(self.hi) < self.k0 + 2 * n:
            valid = ((k > np.array(self.lo)[:, None])
                     & (k < np.array(self.hi)[:, None]))
            w = np.where(valid, w, 0.0)
        s_odd, g_odd = self._draw(self.every_row, w, valid)
        sign = np.empty((m, 2 * n + 1))
        logf = np.empty((m, 2 * n + 1))
        sign[:, 0::2], sign[:, 1::2] = self.sign, s_odd
        logf[:, 0::2], logf[:, 1::2] = self.logf, g_odd
        self.sign, self.logf = sign, logf

    def hot_tails(self, cutoff: float) -> list:
        """(row, direction) of every tail still at or above peak - cutoff.

        The finer grid can reveal that a tail was cut while still warm.
        Each tail's last _TAIL_RUN samples stop at w = 0.
        """
        hot = []
        for i, (lo, hi, peak) in enumerate(zip(self.lo, self.hi, self.peak)):
            row = self.logf[i]
            end, first = hi - self.k0 + 1, lo - self.k0
            if max(row[end - min(_TAIL_RUN, hi + 1):end].tolist()) >= peak - cutoff:
                hot.append((i, +1))
            if max(row[first:first + min(_TAIL_RUN, 1 - lo)].tolist()) >= peak - cutoff:
                hot.append((i, -1))
        return hot

    def level_sums(self, h: float) -> list:
        """The trapezoid sum of every row at step h."""
        top = self.logf.max(axis=1)
        tops = top.tolist()
        if -math.inf in tops:       # a row with no nonzero sample sums to 0
            top[top == -np.inf] = 0.0
        terms = self.sign * np.exp(self.logf - top[:, None])
        totals = terms.sum(axis=1).tolist()
        last = self.k0 + self.logf.shape[1] - 1
        log_h = math.log(h)
        sums = []
        for i, (m, lo, hi) in enumerate(zip(tops, self.lo, self.hi)):
            if m == -math.inf:
                sums.append(0.0)
                continue
            total = totals[i]
            if lo > self.k0 or hi < last:
                # a padded row is summed over its own samples alone, which
                # the pairwise summation groups as it would the row alone
                total = float(terms[i, lo - self.k0:hi - self.k0 + 1].sum())
            if total == 0.0:
                sums.append(0.0)
                continue
            log_mag = m + log_h + math.log(abs(total))
            if log_mag >= 709.0:
                sums.append(math.copysign(math.inf, total))
            else:
                sums.append(math.copysign(math.exp(log_mag), total))
        return sums


def _refine(trap: _Trapezoid, cfg: QuadratureConfig, results: list) -> None:
    """Halve the step of every row until it converges; fill `results`.

    A row is frozen at the first level where the change from the previous
    level is within max(abs_tol, rel_tol * |value|) and drops out of the
    integrand calls; so is a row whose grid outgrows _MAX_POINTS, as
    unconverged.  Rows left after max_refinement_depth halvings are
    reported unconverged.
    """
    cutoff = cfg.decay_cutoff
    h = _BASE_STEP
    trap.grow(h, [(i, d) for i in range(len(trap.comp)) for d in (+1, -1)], cutoff)
    values = trap.level_sums(h)
    errors = [math.inf] * len(values)
    for _depth in range(cfg.max_refinement_depth):
        h *= 0.5
        trap.halve(h)
        hot = trap.hot_tails(cutoff)
        if hot:
            trap.grow(h, hot, cutoff)
        rest = []
        for i, (row, old, value, lo, hi) in enumerate(zip(
                trap.comp, values, trap.level_sums(h), trap.lo, trap.hi)):
            err = abs(value - old)
            converged = (math.isfinite(value)
                         and err <= max(cfg.abs_tol, cfg.rel_tol * abs(value)))
            if converged or hi - lo > _MAX_POINTS:
                results[row] = QuadratureResult(value, err, trap.counts[row],
                                                converged)
            else:
                rest.append((i, value, err))
        if not rest:
            return
        if len(rest) < len(values):
            trap.keep([i for i, _, _ in rest])
        values = [value for _, value, _ in rest]
        errors = [err for _, _, err in rest]
    for row, value, err in zip(trap.comp, values, errors):
        results[row] = QuadratureResult(value, err, trap.counts[row], False)


def integrate_semi_infinite_batch(integrand: BatchIntegrand, k: int,
                                  cfg: QuadratureConfig | None = None) -> list:
    """Integrate k integrands over (0, inf) in lockstep, one result each.

    Parameters
    ----------
    integrand : BatchIntegrand
        Callable (u, rows) -> (sign, log_magnitude).  u has shape
        (len(rows), n) and row j holds abscissae of component rows[j], an
        index in range(k); a component may fill more than one row.  The
        contract on values is that of `integrate_semi_infinite`; a NaN or
        +inf sample of any component raises IntegrandEvaluationError.  It
        is called under np.errstate(under="ignore", divide="ignore",
        over="ignore"), so it may underflow, take log 0 and overflow
        without setting its own state or warning; an overflow that
        reaches a sample as +inf still raises.
    k : int
        Number of components.
    cfg : QuadratureConfig, optional
        Tolerances and refinement limits, shared by every component.

    Returns
    -------
    list of QuadratureResult
        One per component, in order, each the result
        `integrate_semi_infinite` gives for that component alone: every
        component has its own centre, peak, tail cuts and convergence
        test, and is frozen at the first level where it converges.  The
        components share each integrand call, so k of them cost as many
        calls as the slowest one.  `evaluations` counts a component's own
        samples; padding that fills out a row of u is drawn at the
        component's centre and not counted.
    """
    if cfg is None:
        cfg = QuadratureConfig()
    if nonnegative_int(k, "k") == 0:
        return []
    counts = [0] * k
    results = [None] * k
    # one error state for the whole quadrature: samples underflow in
    # exp(log F - peak), integrands take log 0 = -inf where f vanishes, and
    # their terms may overflow: the Mehler 2at at a = 1e300 gives a log
    # magnitude of -inf, a zero sample, and a +inf sample still raises
    with np.errstate(under="ignore", divide="ignore", over="ignore"):
        best = _find_centres(integrand, k, counts)
        comp = []
        for row, b in enumerate(best):
            if b is None:
                results[row] = QuadratureResult(0.0, 0.0, counts[row], True)
            else:
                comp.append(row)
        if comp:
            # the centre is u* = exp(best), and log u* is taken back from it
            centre = [math.log(math.exp(best[row])) for row in comp]
            _refine(_Trapezoid(integrand, comp, centre, counts), cfg, results)
    return results


def integrate_semi_infinite(integrand: LogIntegrand,
                            cfg: QuadratureConfig | None = None) -> QuadratureResult:
    """Integrate f over (0, inf) from its (sign, log-magnitude) samples.

    Parameters
    ----------
    integrand : LogIntegrand
        Vectorized callable u -> (sign, log_magnitude).  Must be finite
        apart from log_magnitude == -inf where f vanishes; a NaN or +inf
        sample raises IntegrandEvaluationError with the offending abscissa.
        The peak scan steps 0.3 in log u and can step over a support
        narrower than that: map such a support onto all of (0, inf)
        first, as the solvers do with a datum's gap window.
    cfg : QuadratureConfig, optional
        Tolerances and refinement limits.

    Returns
    -------
    QuadratureResult
        `value` with `error_estimate` taken from the last step halving,
        the total number of integrand evaluations, and a convergence flag.
        A result is never silently degraded: if the tolerance was not met
        within the refinement budget, `converged` is False.

    This is the one-component case of `integrate_semi_infinite_batch`.
    """
    def one_component(u, rows):
        return integrand(u.ravel())

    return integrate_semi_infinite_batch(one_component, 1, cfg)[0]


def _subordination_residual(form: str, t: float, lam: float,
                            cfg: QuadratureConfig | None, power: float,
                            log_const: float, lhs: float, norm: float) -> float:
    """|lhs - rhs| / lhs, rhs = (1/norm) integral_0^inf
    exp(-u t^2 - power log u - lam^2 / (4u) + log_const) du.

    Raises NonConvergenceError when the integral does not converge.
    """
    t2 = t * t
    q = 0.25 * lam * lam

    def integrand(u):
        return np.ones_like(u), -t2 * u - power * np.log(u) - q / u + log_const

    res = integrate_semi_infinite(integrand, cfg)
    if not res.converged:
        raise NonConvergenceError(
            f"subordination {form} integral did not converge at t={t}, lam={lam}"
        )
    rhs = res.value / norm
    return abs(lhs - rhs) / lhs


def subordination_base_residual(t: float, lam: float,
                                cfg: QuadratureConfig | None = None) -> float:
    """Relative defect of the half-integer-kernel Laplace identity.

    Checks  exp(-t*lam)/t  against

        (1/sqrt(pi)) * integral_0^inf exp(-u t^2) u^{-1/2} exp(-lam^2/(4u)) du

    and returns |lhs - rhs| / lhs.  Both t and lam must be positive.
    """
    t, lam = positive_real(t, "t"), positive_real(lam, "lam")
    return _subordination_residual("base", t, lam, cfg, 0.5, 0.0,
                                   math.exp(-t * lam) / t, _SQRT_PI)


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
    t, lam = positive_real(t, "t"), positive_real(lam, "lam")
    return _subordination_residual("derived", t, lam, cfg, 1.5, math.log(lam),
                                   math.exp(-t * lam), 2.0 * _SQRT_PI)
