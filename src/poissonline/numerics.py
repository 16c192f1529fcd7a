"""Small numerical building blocks shared by the solvers and the checks.

* Gauss-Legendre panels graded geometrically around a kernel peak
  (`graded_breakpoints`, `split_panels`, `leggauss`, `NODES_PER_PANEL`).
* The Gauss-Kronrod 7/15 pair, a panel rule with its own error estimate
  (`gauss_kronrod15`).
* Orthonormal oscillator eigenfunctions by their normalized three-term
  recurrence (`hermite_all`, `hermite_function`).
* A not-a-knot cubic interpolating spline in plain numpy
  (`not_a_knot_spline`).

None of these depend on the kernels, the quadrature or the verification
layer, so every other module may import them.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "NODES_PER_PANEL",
    "gauss_kronrod15",
    "graded_breakpoints",
    "hermite_all",
    "hermite_function",
    "leggauss",
    "not_a_knot_spline",
    "split_panels",
]

#: Gauss-Legendre nodes per panel of the x' integrals.
NODES_PER_PANEL = 16

_QUARTER_LOG_PI = 0.25 * math.log(math.pi)

# QUADPACK qk15 (Piessens et al., 1983): the non-negative Kronrod nodes in
# decreasing order, their Kronrod weights, and the Gauss weights of the
# odd-index nodes 0.949..., 0.741..., 0.405..., 0.
_GK15_NODES = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_GK15_KRONROD = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_GK15_GAUSS = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


@lru_cache(maxsize=None)
def leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


@lru_cache(maxsize=None)
def gauss_kronrod15():
    """The Gauss-Kronrod 7/15 rule on [-1, 1]: (nodes, kronrod, gauss).

    `nodes` holds the 15 Kronrod nodes in decreasing order and `kronrod`
    their weights, exact for polynomials up to degree 22; `gauss` holds
    the weights of the embedded 7-point Gauss rule on the odd-index nodes
    `nodes[1::2]`, exact up to degree 13.  The difference between the two
    sums on a panel estimates the error of the coarser one.  The arrays
    are shared and read-only.
    """
    nodes = np.array(_GK15_NODES + tuple(-x for x in _GK15_NODES[-2::-1]))
    kronrod = np.array(_GK15_KRONROD + _GK15_KRONROD[-2::-1])
    gauss = np.array(_GK15_GAUSS + _GK15_GAUSS[-2::-1])
    for arr in (nodes, kronrod, gauss):
        arr.flags.writeable = False
    return nodes, kronrod, gauss


def graded_breakpoints(lo: float, hi: float, center: float,
                       scale: float) -> np.ndarray:
    """Panel boundaries clustered geometrically around `center`.

    Panels roughly double in width away from the center so that a kernel
    feature of width ~scale near the center is resolved with O(log) panels
    regardless of how small the scale is.
    """
    if scale <= 0 or not math.isfinite(scale):
        scale = (hi - lo) / 8.0
    pts = {lo, hi}
    if lo < center < hi:
        pts.add(center)
    d = scale
    span = hi - lo
    while True:
        left, right = center - d, center + d
        if lo < left < hi:
            pts.add(left)
        if lo < right < hi:
            pts.add(right)
        if left <= lo and right >= hi:
            break
        d *= 2.0
        if d > 8.0 * (span + abs(center - lo) + abs(center - hi) + scale):
            break
    return np.array(sorted(pts))


def split_panels(breakpoints: np.ndarray, parts: int) -> np.ndarray:
    """Split every panel between consecutive breakpoints into `parts`."""
    if parts == 1:
        return breakpoints
    out = []
    for p0, p1 in zip(breakpoints[:-1], breakpoints[1:]):
        step = (p1 - p0) / parts
        out.extend(p0 + i * step for i in range(parts))
    out.append(breakpoints[-1])
    return np.array(out)


def hermite_all(n_max: int, a: float, x):
    """Orthonormal oscillator eigenfunctions phi_0..phi_n_max at x.

    Uses the normalized three-term recurrence with the Gaussian weight
    folded in (in z = sqrt(a) x):

        psi_0 = pi^{-1/4} exp(-z^2/2)
        psi_{k+1} = sqrt(2/(k+1)) z psi_k - sqrt(k/(k+1)) psi_{k-1}

    so no raw polynomial value is ever formed; all iterates stay bounded
    by ~0.8 and the recurrence is safe far beyond n = 500.  The returned
    array has shape (n_max + 1,) + shape(x) and carries the a**0.25
    rescaling of phi_n(x) = a^{1/4} psi_n(sqrt(a) x).
    """
    z = math.sqrt(a) * np.asarray(x, dtype=float)
    out = np.empty((n_max + 1,) + z.shape)
    with np.errstate(under="ignore"):
        psi_prev = np.exp(-0.5 * z * z - _QUARTER_LOG_PI)
        out[0] = psi_prev
        if n_max >= 1:
            psi = math.sqrt(2.0) * z * psi_prev
            out[1] = psi
            for k in range(1, n_max):
                psi, psi_prev = (math.sqrt(2.0 / (k + 1)) * z * psi
                                 - math.sqrt(k / (k + 1.0)) * psi_prev), psi
                out[k + 1] = psi
    return a ** 0.25 * out


def hermite_function(n: int, a: float, x):
    """L2-normalized eigenfunction phi_n of -d^2/dx^2 + a^2 x^2.

    phi_n has eigenvalue (2n + 1) a and unit L2 norm; phi_0(0) = (a/pi)^{1/4}.
    Accepts scalar or array x and returns a matching float or array.
    """
    if not (isinstance(n, int) and not isinstance(n, bool) and n >= 0):
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    if not (isinstance(a, (int, float)) and math.isfinite(a) and a > 0):
        raise ValueError(f"a must be a positive finite real, got {a!r}")
    values = hermite_all(n, float(a), x)[n]
    if np.ndim(x) == 0:
        return float(values)
    return values


def not_a_knot_spline(grid: np.ndarray, values: np.ndarray):
    """Cubic interpolant through (grid, values) with not-a-knot ends.

    `grid` must hold at least 4 strictly increasing nodes.  The second
    derivatives m_i at the nodes solve the usual continuity equations

        h_{i-1} m_{i-1} + 2 (h_{i-1} + h_i) m_i + h_i m_{i+1}
            = 6 (d_i - d_{i-1}),        d_i = (v_{i+1} - v_i) / h_i,

    for i = 1..n-2, closed by a continuous third derivative at the second
    and the second-to-last node.  Those two conditions eliminate m_0 and
    m_{n-1}, which leaves a diagonally dominant tridiagonal system in
    m_1..m_{n-2}, solved by Thomas elimination.  Returns a vectorized
    evaluator for points inside [grid[0], grid[-1]]; the end pieces
    extend past the ends.
    """
    x = np.asarray(grid, dtype=float)
    v = np.asarray(values, dtype=float)
    h = np.diff(x)
    d = np.diff(v) / h
    n = x.size
    k = n - 2                                   # unknowns m_1..m_{n-2}
    lower = h[:-1].copy()                       # coefficient of m_{i-1}
    diag = 2.0 * (h[:-1] + h[1:])
    upper = h[1:].copy()                        # coefficient of m_{i+1}
    rhs = 6.0 * (d[1:] - d[:-1])
    # m_0 = ((h0 + h1) m_1 - h0 m_2) / h1
    diag[0] += h[0] * (h[0] + h[1]) / h[1]
    upper[0] -= h[0] * h[0] / h[1]
    # m_{n-1} = ((h_{n-3} + h_{n-2}) m_{n-2} - h_{n-2} m_{n-3}) / h_{n-3}
    diag[-1] += h[-1] * (h[-2] + h[-1]) / h[-2]
    lower[-1] -= h[-1] * h[-1] / h[-2]

    diag = diag.tolist()
    upper = upper.tolist()
    lower = lower.tolist()
    rhs = rhs.tolist()
    for i in range(1, k):
        f = lower[i] / diag[i - 1]
        diag[i] -= f * upper[i - 1]
        rhs[i] -= f * rhs[i - 1]
    inner = [0.0] * k
    inner[-1] = rhs[-1] / diag[-1]
    for i in range(k - 2, -1, -1):
        inner[i] = (rhs[i] - upper[i] * inner[i + 1]) / diag[i]

    m = np.empty(n)
    m[1:-1] = inner
    m[0] = ((h[0] + h[1]) * m[1] - h[0] * m[2]) / h[1]
    m[-1] = ((h[-2] + h[-1]) * m[-2] - h[-1] * m[-3]) / h[-2]

    # local power form on [x_i, x_{i+1}]: v_i + b t + c t^2 + e t^3
    b = d - h * (2.0 * m[:-1] + m[1:]) / 6.0
    c = 0.5 * m[:-1]
    e = (m[1:] - m[:-1]) / (6.0 * h)
    v0 = v[:-1]
    knots = x[1:-1]

    def evaluate(pts):
        pts = np.asarray(pts, dtype=float)
        i = np.searchsorted(knots, pts, side="right")
        t = pts - x[i]
        return v0[i] + t * (b[i] + t * (c[i] + t * e[i]))

    return evaluate
