"""Named verification suites: every check the CLI can run.

Each check function takes the quadrature config plus the fault-injection
scale and returns VerificationReports; a suite is a fixed ordered tuple of
checks.  The `all` suite is the acceptance gate: it covers the
subordination identities, both spectral oracle equivalences, the flat
(a -> 0) limit with its deliberately miscalibrated control, closed-form
eigen-solutions, finite-difference residual orders, conservation and
semigroup invariants, and boundary recovery.

`prefactor_scale` feeds straight into the oscillator kernel's
normalization.  Any value other than 1.0 corrupts the kernel on purpose;
the suites are expected to catch it (that is what the knob is for).
"""

from __future__ import annotations

import math
import os
import pickle
import threading
from dataclasses import replace
from itertools import product
from typing import Callable, NoReturn, Sequence

import numpy as np

from .kernels import (
    EvaluationPoint,
    OscillatorParam,
    dirac_kernel,
    euler_kernel,
    oscillator_poisson_kernel,
    oscillator_poisson_kernel_batch,
    mehler_heat_kernel,
)
from .oracles import (
    SpectralConfig,
    VerificationReport,
    boundary_limit_gap,
    eigen_solution_field,
    kernel_field,
    limit_a_to_zero_gap,
    make_report,
    required_heat_order,
    required_poisson_order,
    residual_convergence_orders,
    spectral_heat_kernel,
    spectral_poisson_kernel,
)
from .numerics import (
    NODES_PER_PANEL,
    gauss_kronrod15,
    graded_breakpoints,
    hermite_all,
    hermite_function,
    leggauss,
    positive_real,
    split_panels,
)
from .quadrature import (
    QuadratureConfig,
    integrate_semi_infinite,
    subordination_base_residual,
    subordination_derived_residual,
)
from .solvers import (
    InitialData,
    solve_dirac,
    solve_euler,
    solve_oscillator,
)

__all__ = [
    "REFERENCE_OSCILLATOR_POISSON_ORIGIN",
    "SUITES",
    "run_suite",
    "suite_names",
]

# Oscillator extension kernel at y=1, x=x'=0, a=1.  Pinned by the spectral
# eigen-sum (1/sqrt(pi)) sum_m e^{-sqrt(4m+1)} binom(2m,m)/4^m evaluated in
# exact arithmetic to 0.2595532719943307576670937; the quadrature and the
# float spectral sum both land within 7e-16 of this double.
REFERENCE_OSCILLATOR_POISSON_ORIGIN = 0.25955327199433076

_SQRT2 = math.sqrt(2.0)
_GRAM_PANELS = 32          # Gauss-Legendre panels of the Gram check
_CK_RUNGS = 4              # panel splittings of the oscillator semigroup oracle


def _fmt(v: float) -> str:
    return format(v, "g")


# ---------------------------------------------------------------------------
# identities


def check_subordination(cfg: QuadratureConfig,
                        scale: float) -> list[VerificationReport]:
    """Both subordination identities on the 5x5 (t, lambda) grid."""
    grid = (0.1, 0.5, 1.0, 2.0, 5.0)
    reports = []
    for t, lam in product(grid, grid):
        tag = f"(t={_fmt(t)},lam={_fmt(lam)})"
        reports.append(make_report(
            f"subordination-base{tag}",
            subordination_base_residual(t, lam, cfg), 1e-10, t=t, lam=lam))
        reports.append(make_report(
            f"subordination-derived{tag}",
            subordination_derived_residual(t, lam, cfg), 1e-10, t=t, lam=lam))
    return reports


def check_flat_limit(cfg: QuadratureConfig,
                     scale: float) -> list[VerificationReport]:
    """a -> 0 limit toward the half-plane kernel, plus the sqrt(2) control.

    The control multiplies the prefactor by a further sqrt(2); its gaps
    must then converge to sqrt(2) - 1 instead of 0, which pins down that
    the implemented constant, and not a rescaling of it, has the correct
    flat limit.
    """
    seq = (1e-1, 1e-2, 1e-3)
    reports = [limit_a_to_zero_gap(1.0, 0.3, -0.2, seq, cfg,
                                   prefactor_scale=scale)]
    control = limit_a_to_zero_gap(1.0, 0.3, -0.2, seq, cfg,
                                  prefactor_scale=scale * _SQRT2)
    final_gap = control.context["gaps"][-1]
    reports.append(make_report(
        "limit-sqrt2-control", abs(final_gap - (_SQRT2 - 1.0)), 2e-2,
        gaps=control.context["gaps"]))
    return reports


# ---------------------------------------------------------------------------
# spectral


def check_heat_oracle(cfg: QuadratureConfig,
                      scale: float) -> list[VerificationReport]:
    """Closed-form heat kernel against the eigen-sum on the full grid."""
    pts = (-2.0, -0.5, 0.0, 1.0, 2.0)
    reports = []
    for a in (0.5, 1.0, 2.0):
        pa = OscillatorParam(a)
        for t in (0.1, 0.5, 1.0):
            worst = 0.0
            for x, xp in product(pts, pts):
                m = mehler_heat_kernel(t, x, xp, pa).value
                tol = 0.25 * 1e-10 * abs(m)
                n = required_heat_order(t, a, tol)
                s = spectral_heat_kernel(t, x, xp, SpectralConfig(n, a), tol=tol)
                worst = max(worst, abs(m - s) / abs(s))
            reports.append(make_report(
                f"heat-oracle(a={_fmt(a)},t={_fmt(t)})", worst, 1e-10,
                a=a, t=t, points=pts))
    return reports


def check_poisson_oracle(cfg: QuadratureConfig,
                         scale: float) -> list[VerificationReport]:
    """Subordination quadrature against the Poisson eigen-sum, plus the
    frozen reference value at the origin.

    The 6 point pairs of each (a, y) are one kernel batch.  At each a the
    eigen-sums then run from the highest order down, so that each point's
    eigenfunction table is built once, at the largest order it needs.
    """
    pts = (-1.0, 0.0, 0.7)
    pairs = [(x, xp) for i, x in enumerate(pts) for xp in pts[i:]]
    targets, sources = zip(*pairs)
    heights = (0.5, 1.0, 2.0)
    reports = []
    for a in (0.5, 1.0, 2.0):
        pa = OscillatorParam(a)
        sums = []
        for y in heights:
            kvs = oscillator_poisson_kernel_batch(y, targets, sources, pa, cfg,
                                                  prefactor_scale=scale)
            for (x, xp), kv in zip(pairs, kvs):
                tol = 1e-9 * abs(kv.value)
                sums.append((required_poisson_order(y, a, tol), y, x, xp,
                             kv.value, tol))
        worst = dict.fromkeys(heights, 0.0)
        for n, y, x, xp, value, tol in sorted(sums, key=lambda s: -s[0]):
            s = spectral_poisson_kernel(y, x, xp, SpectralConfig(n, a), tol=tol)
            worst[y] = max(worst[y], abs(value - s) / abs(s))
        for y in heights:
            reports.append(make_report(
                f"poisson-oracle(a={_fmt(a)},y={_fmt(y)})", worst[y], 1e-8,
                a=a, y=y, points=pts))
    kv = oscillator_poisson_kernel(EvaluationPoint(1.0, 0.0, 0.0),
                                   OscillatorParam(1.0), cfg,
                                   prefactor_scale=scale)
    ref = REFERENCE_OSCILLATOR_POISSON_ORIGIN
    reports.append(make_report(
        "poisson-frozen-origin", abs(kv.value - ref) / ref, 1e-8,
        reference=ref, value=kv.value))
    return reports


def check_orthonormality(cfg: QuadratureConfig,
                         scale: float) -> list[VerificationReport]:
    """Gram matrix of phi_0..phi_15 equals the identity under quadrature.

    The Gram integrals run over [-half_width, half_width] split into
    _GRAM_PANELS equal Gauss-Legendre panels of NODES_PER_PANEL nodes.
    """
    reports = []
    n_max = 15
    nodes, weights = leggauss(NODES_PER_PANEL)
    for a in (1.0, 2.0):
        half_width = math.sqrt((2 * n_max + 1) / a) + 12.0 / math.sqrt(a)
        edges = np.linspace(-half_width, half_width, _GRAM_PANELS + 1)
        mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
        half = 0.5 * np.diff(edges)[:, None]
        x = (mid + half * nodes).ravel()
        w = (half * weights).ravel()
        phi = hermite_all(n_max, a, x)            # (16, 32 * 16)
        gram = (phi * w) @ phi.T
        dev = float(np.max(np.abs(gram - np.eye(n_max + 1))))
        reports.append(make_report(
            f"hermite-orthonormality(a={_fmt(a)})", dev, 1e-10, a=a))
    return reports


# ---------------------------------------------------------------------------
# residuals


def check_eigen_solutions(cfg: QuadratureConfig,
                          scale: float) -> list[VerificationReport]:
    """Solvers against closed-form eigen-datum solutions, 27 triples."""
    reports = []
    for rate, (y, X) in product((0.5, 1.0, 2.0),
                                ((0.5, -1.0), (1.0, 0.0), (2.0, 1.0))):
        got = solve_dirac(InitialData.exponential(rate), y, X, cfg).value
        ref = math.exp(-y * math.sqrt(rate) - rate * X)
        reports.append(make_report(
            f"eigen-dirac(rate={_fmt(rate)},y={_fmt(y)},X={_fmt(X)})",
            abs(got - ref) / abs(ref), 1e-8, value=got, reference=ref))
    for beta, (a, y, xi) in product((0.5, 1.0, 2.0),
                                    ((0.5, 0.5, 0.8), (1.0, 1.0, 1.5),
                                     (2.0, 2.0, -0.6))):
        got = solve_euler(InitialData.power(beta), y, xi, a, cfg).value
        ref = math.exp(-y * math.sqrt(2.0 * a * beta)) * abs(xi) ** beta
        reports.append(make_report(
            f"eigen-euler(beta={_fmt(beta)},a={_fmt(a)},y={_fmt(y)},"
            f"xi={_fmt(xi)})",
            abs(got - ref) / abs(ref), 1e-8, value=got, reference=ref))
    for n, a, y, x in ((0, 0.5, 1.0, 0.4), (0, 1.0, 0.5, -0.7),
                       (0, 2.0, 2.0, 0.0), (1, 0.5, 1.0, 0.4),
                       (1, 1.0, 0.5, -0.7), (1, 2.0, 2.0, 0.8),
                       (3, 0.5, 1.0, 0.4), (3, 1.0, 0.5, -0.7),
                       (3, 2.0, 1.0, 0.3)):
        got = solve_oscillator(InitialData.eigenfunction(n), y, x, a, cfg).value
        ref = math.exp(-y * math.sqrt((2 * n + 1) * a)) * hermite_function(n, a, x)
        reports.append(make_report(
            f"eigen-oscillator(n={n},a={_fmt(a)},y={_fmt(y)},x={_fmt(x)})",
            abs(got - ref) / abs(ref), 1e-8, value=got, reference=ref))
    return reports


def check_residual_orders(cfg: QuadratureConfig,
                          scale: float) -> list[VerificationReport]:
    """Second-order convergence of the PDE stencil on kernels and solutions."""
    h_values = (1e-2, 5e-3, 2.5e-3)
    # quadrature noise enters the second difference divided by h^2, so the
    # oscillator kernel field needs a much tighter tolerance than the
    # 2.5e-3 stencil alone would suggest
    tight = replace(cfg, rel_tol=1e-13)
    cases = [
        ("dirac-kernel", "dirac", kernel_field("dirac", source=2.0),
         1.0, 0.5, None),
        ("euler-kernel", "euler", kernel_field("euler", source=0.25, a=1.0),
         1.0, 1.5, 1.0),
        ("oscillator-kernel", "oscillator",
         kernel_field("oscillator", source=0.3, a=1.0, cfg=tight),
         1.0, -0.4, 1.0),
        ("dirac-eigen", "dirac", eigen_solution_field("dirac", rate=1.0),
         1.0, 0.2, None),
        ("euler-eigen", "euler",
         eigen_solution_field("euler", exponent=1.0, a=1.0), 1.0, 1.2, 1.0),
        ("oscillator-eigen", "oscillator",
         eigen_solution_field("oscillator", n=2, a=1.0), 1.0, 0.5, 1.0),
    ]
    reports = []
    for label, op, field, y, x, a in cases:
        orders = residual_convergence_orders(op, field, y, x, h_values, a=a)
        dev = max(abs(o - 2.0) for o in orders)
        reports.append(make_report(
            f"residual-order({label})", dev, 0.2,
            orders=tuple(orders), y=y, x=x))
    return reports


# ---------------------------------------------------------------------------
# invariants


def _dirac_log_kernel(y: float, s):
    """log of the transport kernel at gap s > 0, vectorized over s.

    The stable-1/2 density of `dirac_kernel`, written out here in arrays,
    as `_euler_log_kernel` is, so that the checks share no helper with
    the kernel module.
    """
    return (math.log(y) - math.log(2.0) - 0.5 * math.log(math.pi)
            - 1.5 * np.log(s) - (y * y) / (4.0 * s))


def _euler_log_kernel(y: float, r, rp, a: float):
    """log of the scaling kernel on a branch, vectorized over 0 < rp < r.

    The closed form of `euler_kernel`, written out here in arrays so that
    the Chapman-Kolmogorov integrand costs one numpy pass per probe.
    """
    log_ratio = np.log1p((r - rp) / rp)
    return (0.5 * (math.log(a) - math.log(2.0 * math.pi)) + math.log(y)
            - np.log(rp) - 1.5 * np.log(log_ratio) - a * y * y / (2.0 * log_ratio))


def _dirac_mass(y: float, cfg: QuadratureConfig) -> float:
    def integrand(s):
        return np.ones_like(s), _dirac_log_kernel(y, s)

    res = integrate_semi_infinite(integrand, cfg)
    return res.value if res.converged else math.inf


def _euler_log_coordinate(xi: float, a: float) -> float:
    return math.log(abs(xi)) / (-2.0 * a)


def _dirac_ck_gap(y1: float, y2: float, X: float, Xp: float,
                  cfg: QuadratureConfig) -> float:
    """Relative Chapman-Kolmogorov defect of the transport kernel."""
    S = Xp - X

    def integrand(s):
        out = np.full_like(s, -np.inf)
        sign = np.zeros_like(s)
        inside = s < S
        si = s[inside]
        out[inside] = (_dirac_log_kernel(y1, si)
                       + _dirac_log_kernel(y2, S - si))
        sign[inside] = 1.0
        return sign, out

    conv = integrate_semi_infinite(integrand, cfg).value
    direct = dirac_kernel(EvaluationPoint(y1 + y2, X, Xp)).value
    return abs(conv - direct) / direct


def _euler_ck_gap(a: float, y1: float, y2: float, xi: float, xip: float,
                  cfg: QuadratureConfig) -> float:
    """Relative Chapman-Kolmogorov defect of the scaling kernel.

    The intermediate integral runs over the branch segment between xi'
    and xi, parametrized as zeta = sign(xi) |xi| e^{-2as} with the measure
    d zeta = 2 a |zeta| ds.
    """
    pa = OscillatorParam(a)
    r, rp = abs(xi), abs(xip)
    S = math.log(r / rp) / (2.0 * a)

    def integrand(s):
        z = r * np.exp(-2.0 * a * s)                    # |zeta|
        inside = (s < S) & (z > rp) & (z < r)
        z = np.where(inside, z, 0.5 * (r + rp))          # any point of the branch
        logmag = (_euler_log_kernel(y1, r, z, a) + _euler_log_kernel(y2, z, rp, a)
                  + np.log(2.0 * a * z))
        return inside.astype(float), np.where(inside, logmag, -np.inf)

    conv = integrate_semi_infinite(integrand, cfg).value
    direct = euler_kernel(EvaluationPoint(y1 + y2, xi, xip), pa).value
    return abs(conv - direct) / direct


def _oscillator_ck_gap(a: float, y1: float, y2: float, x: float, xp: float,
                       cfg: QuadratureConfig, scale: float) -> float:
    """Relative Chapman-Kolmogorov defect of the oscillator kernel.

    The z-integral uses Gauss-Kronrod 7/15 panels graded around both
    kernel peaks (z = x and z = x').  The K15 sum is the value; it is
    taken at the first rung where it differs from the embedded G7 sum by
    at most the accumulated kernel error, else every panel is split in
    two, for at most _CK_RUNGS rungs.  Each rung takes its factors from
    two batched kernel calls, P(y1, x, z_i) and P(y2, z_i, x') over the
    rung's nodes z_i; every batched value is the one the single-pair
    kernel returns.
    """
    pa = OscillatorParam(a)
    reach = max(abs(x), abs(xp)) + 7.0 / math.sqrt(a)
    # sorted and deduplicated as np.unique would, which imports numpy.ma
    bps = np.sort(np.concatenate([
        graded_breakpoints(-reach, reach, x, 0.5 * y1),
        graded_breakpoints(-reach, reach, xp, 0.5 * y2),
    ]))
    bps = bps[np.append(True, bps[1:] != bps[:-1])]
    nodes, kronrod, gauss = gauss_kronrod15()

    for rung in range(_CK_RUNGS):
        grid = split_panels(bps, 2 ** rung)
        half = 0.5 * np.diff(grid)
        zs = (0.5 * (grid[1:] + grid[:-1])[:, None]
              + half[:, None] * nodes).ravel().tolist()
        k1 = oscillator_poisson_kernel_batch(y1, [x] * len(zs), zs, pa, cfg,
                                             prefactor_scale=scale)
        k2 = oscillator_poisson_kernel_batch(y2, zs, [xp] * len(zs), pa, cfg,
                                             prefactor_scale=scale)
        f, f_err = np.array([(kv.value, kv.error_estimate) for kv in k1]).T
        g, g_err = np.array([(kv.value, kv.error_estimate) for kv in k2]).T
        shape = (half.size, nodes.size)
        fg = (f * g).reshape(shape)
        value = float(half @ (fg @ kronrod))
        coarse = float(half @ (fg[:, 1::2] @ gauss))
        kerr = float(half @ ((np.abs(f) * g_err + np.abs(g) * f_err).reshape(shape)
                             @ kronrod))
        if abs(value - coarse) <= 1e-9 + kerr:
            break
    direct = oscillator_poisson_kernel(EvaluationPoint(y1 + y2, x, xp), pa,
                                       cfg, prefactor_scale=scale).value
    return abs(value - direct) / direct


def check_conservation(cfg: QuadratureConfig,
                       scale: float) -> list[VerificationReport]:
    """Mass, conjugation, symmetry, and the three semigroup identities."""
    reports = []
    for y in (0.3, 1.0, 3.0):
        reports.append(make_report(
            f"dirac-mass(y={_fmt(y)})", abs(_dirac_mass(y, cfg) - 1.0),
            1e-10, y=y))

    pairs = ((1.0, 0.3), (2.0, 0.5), (-1.0, -0.3), (0.7, 0.1), (-2.0, -1.2))
    for a in (0.5, 1.0, 2.0):
        pa = OscillatorParam(a)
        for y in (0.5, 1.0, 2.0):
            worst = 0.0
            for xi, xip in pairs:
                lhs = euler_kernel(EvaluationPoint(y, xi, xip), pa).value
                X = _euler_log_coordinate(xi, a)
                Xp = _euler_log_coordinate(xip, a)
                rhs = (dirac_kernel(EvaluationPoint(y, X, Xp)).value
                       / (2.0 * a * abs(xip)))
                worst = max(worst, abs(lhs - rhs) / rhs)
            reports.append(make_report(
                f"conjugation(a={_fmt(a)},y={_fmt(y)})", worst, 1e-10,
                a=a, y=y))

    for a in (0.5, 1.0, 2.0):
        pa = OscillatorParam(a)
        for y, x, xp in ((1.0, 0.5, -0.3), (0.5, 1.0, 0.2), (2.0, -1.0, 0.7)):
            k1, k2 = oscillator_poisson_kernel_batch(y, (x, xp), (xp, x), pa,
                                                     cfg, prefactor_scale=scale)
            reports.append(make_report(
                f"oscillator-symmetry(a={_fmt(a)},y={_fmt(y)},x={_fmt(x)},"
                f"xp={_fmt(xp)})",
                abs(k1.value - k2.value),
                k1.error_estimate + k2.error_estimate,
                a=a, y=y, x=x, xp=xp))

    for y1, y2, X, Xp in ((0.5, 0.5, 0.0, 1.0), (1.0, 0.7, 0.0, 3.0),
                          (0.6, 1.1, -1.0, 0.5)):
        reports.append(make_report(
            f"semigroup-dirac(y1={_fmt(y1)},y2={_fmt(y2)},X={_fmt(X)},"
            f"Xp={_fmt(Xp)})",
            _dirac_ck_gap(y1, y2, X, Xp, cfg), 1e-6))
    for a, y1, y2, xi, xip in ((1.0, 0.5, 0.5, 1.5, 0.4),
                               (0.5, 1.0, 0.7, -2.0, -0.5)):
        reports.append(make_report(
            f"semigroup-euler(a={_fmt(a)},y1={_fmt(y1)},y2={_fmt(y2)},"
            f"xi={_fmt(xi)},xip={_fmt(xip)})",
            _euler_ck_gap(a, y1, y2, xi, xip, cfg), 1e-6))
    for a, y1, y2, x, xp in ((1.0, 0.5, 0.5, 0.3, -0.2),
                             (1.0, 1.0, 0.6, 0.0, 0.8)):
        reports.append(make_report(
            f"semigroup-oscillator(a={_fmt(a)},y1={_fmt(y1)},y2={_fmt(y2)},"
            f"x={_fmt(x)},xp={_fmt(xp)})",
            _oscillator_ck_gap(a, y1, y2, x, xp, cfg, scale), 1e-6))
    return reports


def check_boundary_recovery(cfg: QuadratureConfig,
                            scale: float) -> list[VerificationReport]:
    """Solutions approach their data as y -> 0, and the oscillator
    eigen-datum gap matches its closed form."""
    y_seq = (0.2, 0.1, 0.05)
    reports = [
        boundary_limit_gap("dirac", InitialData.gaussian(0.0, 1.0), y_seq,
                           (-1.0, -0.5, 0.0, 0.5, 1.0), cfg=cfg),
        boundary_limit_gap("euler", InitialData.gaussian(1.5, 0.4), y_seq,
                           (0.9, 1.3, 1.7, 2.2), a=1.0, cfg=cfg),
        boundary_limit_gap("oscillator", InitialData.gaussian(0.0, 1.0),
                           y_seq, (-0.8, 0.0, 0.6), a=1.0, cfg=cfg),
    ]

    # ground-state datum: w(y,x) = e^{-y sqrt(a)} phi_0(x) exactly, so the
    # sup over any point set of |w - phi_0| is (1 - e^{-y sqrt(a)}) times
    # the sup of |phi_0| over the same points
    a, y = 1.0, 0.1
    data = InitialData.eigenfunction(0)
    points = (-0.5, 0.0, 0.5)
    gap = max(abs(solve_oscillator(data, y, x, a, cfg).value
                  - hermite_function(0, a, x)) for x in points)
    predicted = ((1.0 - math.exp(-y * math.sqrt(a)))
                 * max(abs(hermite_function(0, a, x)) for x in points))
    reports.append(make_report(
        "boundary-eigen-gap-oscillator", abs(gap - predicted), 1e-8,
        gap=gap, predicted=predicted, y=y, a=a))
    return reports


# ---------------------------------------------------------------------------
# registry

_CheckFn = Callable[[QuadratureConfig, float], "list[VerificationReport]"]

SUITES: dict[str, tuple[_CheckFn, ...]] = {
    "identities": (check_subordination, check_flat_limit),
    "spectral": (check_heat_oracle, check_poisson_oracle, check_orthonormality),
    "residuals": (check_eigen_solutions, check_residual_orders),
    "invariants": (check_conservation, check_boundary_recovery),
}


def suite_names() -> tuple:
    return tuple(SUITES) + ("all",)


def run_suite(name: str, cfg: QuadratureConfig | None = None,
              prefactor_scale: float = 1.0,
              tolerance_override: float | None = None
              ) -> list[VerificationReport]:
    """Run one named suite (or `all`) and return its reports in order.

    `tolerance_override` replaces every check's tolerance after the fact;
    it exists so the exit-code contract can be exercised against a bar
    that nothing can clear (or everything can).  An unknown suite and a
    `prefactor_scale` or `tolerance_override` that is not a positive
    finite real raise ValueError before any check runs.

    The checks share no state.  With more than one usable CPU, fork
    available and no other thread running, they run in forked workers,
    as many as there are CPUs (at most one per check).  The later checks
    of the registry are the expensive ones, so they are taken first.  The
    reports come back in registry order, as from an in-process run; so
    does the exception of the first check that raised, once every worker
    has been reaped.
    """
    if cfg is None:
        cfg = QuadratureConfig()
    prefactor_scale = positive_real(prefactor_scale, "prefactor_scale")
    if tolerance_override is not None:
        tolerance_override = positive_real(tolerance_override,
                                           "tolerance_override")
    if name == "all":
        checks: Sequence[_CheckFn] = [c for s in SUITES.values() for c in s]
    elif name in SUITES:
        checks = SUITES[name]
    else:
        raise ValueError(f"unknown suite {name!r}; choose from {suite_names()}")
    reports: list[VerificationReport] = []
    for check_reports in _run_checks(checks, cfg, prefactor_scale):
        reports.extend(check_reports)
    if tolerance_override is not None:
        reports = [make_report(r.check_name, r.measured, tolerance_override,
                               **r.context) for r in reports]
    return reports


def _run_checks(checks: Sequence[_CheckFn], cfg: QuadratureConfig,
                prefactor_scale: float) -> list:
    """Each check's reports, in the order of `checks`.

    Forked workers take check indices, last first, one byte at a time
    from a shared pipe, and each pickles its {index: reports or
    exception} back through a pipe of its own once the first is empty.
    A fork, not a spawn: a spawned worker imports numpy and the package
    again (~0.2 s, half the gate); nor the stdlib process pool, whose
    import and start-up took ~35 ms of a ~290 ms gate on a 2-vCPU Xeon.  A fork taken
    while another thread holds a lock can deadlock the child, so other
    threads keep the checks in-process.
    """
    workers = min(len(checks), len(os.sched_getaffinity(0))
                  if hasattr(os, "sched_getaffinity") else 1)
    if workers <= 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [check(cfg, prefactor_scale) for check in checks]
    tasks, feed = os.pipe()
    os.write(feed, bytes(reversed(range(len(checks)))))  # < 256 checks
    os.close(feed)
    children = []                           # (pid, its outcome pipe)
    outcomes = {}
    try:
        for _ in range(workers):
            outcome_r, outcome_w = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _work(checks, cfg, prefactor_scale, tasks, outcome_w)
            except OSError:
                os.close(outcome_r)
                raise
            finally:
                os.close(outcome_w)
            children.append((pid, os.fdopen(outcome_r, "rb")))
        for pid, outcome in children:
            try:
                outcomes.update(pickle.load(outcome))
            except EOFError:
                raise RuntimeError(f"verify worker {pid} ended without "
                                   "sending its reports") from None
    except BaseException:
        import signal
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(tasks)
        for pid, outcome in children:
            outcome.close()
            os.waitpid(pid, 0)
    reports = [outcomes[i] for i in range(len(checks))]
    for r in reports:
        if isinstance(r, BaseException):
            raise r
    return reports


def _work(checks: Sequence[_CheckFn], cfg: QuadratureConfig,
          prefactor_scale: float, tasks: int, outcome: int) -> NoReturn:
    """A forked worker of `_run_checks`; it never returns."""
    status = 1
    try:
        done = {}
        while index := os.read(tasks, 1):
            try:
                done[index[0]] = checks[index[0]](cfg, prefactor_scale)
            except Exception as exc:
                done[index[0]] = exc
        with os.fdopen(outcome, "wb") as f:
            pickle.dump(done, f)
        status = 0
    finally:
        os._exit(status)
