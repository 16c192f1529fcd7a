"""Solution operators against closed forms and an independent integrator."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import poissonline.solvers as solvers
from poissonline.kernels import (
    DegenerateCharacteristicError,
    EvaluationPoint,
    OscillatorParam,
    dirac_kernel,
    oscillator_poisson_kernel,
)
from poissonline.oracles import hermite_function
from poissonline.quadrature import (
    IntegrandEvaluationError,
    NonConvergenceError,
    QuadratureConfig,
)
from poissonline.solvers import (
    InitialData,
    InvalidDataError,
    SolveRequest,
    solve_dirac,
    solve_euler,
    solve_grid,
    solve_oscillator,
)


class TestInitialDataPresets:
    def test_gaussian_shape(self):
        d = InitialData.gaussian(1.0, 0.5)
        assert float(d(1.0)) == 1.0
        assert float(d(2.0)) == pytest.approx(math.exp(-2.0), rel=1e-15)

    def test_bump_support(self):
        d = InitialData.bump(0.0, 1.0)
        assert float(d(0.0)) == 1.0
        assert float(d(1.0)) == 0.0
        assert float(d(-1.5)) == 0.0

    def test_eigenfunction_needs_frequency(self):
        d = InitialData.eigenfunction(2)
        with pytest.raises(ValueError):
            d(0.0)
        assert float(d(0.3, a=1.5)) == hermite_function(2, 1.5, 0.3)

    def test_sampled_interpolates_and_vanishes_outside(self):
        grid = np.linspace(-2.0, 2.0, 41)
        d = InitialData.sampled(grid, np.cos(grid))
        assert float(d(0.37)) == pytest.approx(math.cos(0.37), abs=1e-6)
        assert float(d(2.5)) == 0.0
        assert float(d(-9.0)) == 0.0

    def test_describe(self):
        assert InitialData.gaussian(0.0, 1.0).describe() == "gaussian:0,1"
        assert InitialData.eigenfunction(3).describe() == "eigenfunction:3"

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            InitialData.gaussian(0.0, 0.0)
        with pytest.raises(ValueError):
            InitialData.bump(0.0, -1.0)
        with pytest.raises(ValueError):
            InitialData.exponential(0.0)
        with pytest.raises(ValueError):
            InitialData.power(-0.5)
        with pytest.raises(ValueError):
            InitialData.eigenfunction(-1)

    def test_sampled_validation(self):
        with pytest.raises(ValueError):
            InitialData.sampled([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            InitialData.sampled([0.0, 1.0, 1.0, 2.0], [1.0] * 4)
        with pytest.raises(ValueError):
            InitialData.sampled([0.0, 1.0, 2.0, 3.0], [1.0, math.nan, 1.0, 1.0])


class TestCompatibility:
    @pytest.mark.parametrize("problem,data", [
        ("dirac", InitialData.power(1.0)),
        ("dirac", InitialData.eigenfunction(0)),
        ("euler", InitialData.eigenfunction(0)),
        ("oscillator", InitialData.exponential(1.0)),
        ("oscillator", InitialData.power(1.0)),
    ])
    def test_incompatible_pairs_rejected(self, problem, data):
        with pytest.raises(InvalidDataError):
            SolveRequest(problem=problem, data=data, y_levels=(1.0,),
                         spatial_points=(1.0,), a=1.0)


class TestDiracSolve:
    def test_exponential_eigen_datum(self):
        # data e^{-cX} solves to e^{-y sqrt(c)} e^{-cX}
        for c, y, X in ((0.5, 1.0, -1.0), (1.0, 1.0, 0.0), (2.0, 0.5, 1.0)):
            res = solve_dirac(InitialData.exponential(c), y, X)
            expected = math.exp(-y * math.sqrt(c) - c * X)
            assert res.converged
            assert res.value == pytest.approx(expected, rel=1e-12)

    def test_matches_generic_quadrature(self):
        data = InitialData.gaussian(2.0, 0.7)
        y, X = 0.8, 0.3
        res = solve_dirac(data, y, X)
        ref, ref_err = quad(
            lambda xp: dirac_kernel(EvaluationPoint(y, X, xp)).value * float(data(xp)),
            X, X + 12.0, epsabs=1e-14, epsrel=1e-12)
        assert res.value == pytest.approx(ref, rel=1e-10)

    def test_datum_left_of_target_gives_zero(self):
        res = solve_dirac(InitialData.bump(-5.0, 0.5), 1.0, 0.0)
        assert res.value == 0.0
        assert res.converged

    def test_narrow_bump_not_missed(self):
        data = InitialData.bump(5.0, 0.05)
        res = solve_dirac(data, 1.0, 0.0)
        ref, _ = quad(
            lambda xp: dirac_kernel(EvaluationPoint(1.0, 0.0, xp)).value * float(data(xp)),
            4.95, 5.05, epsabs=1e-300, epsrel=1e-12)
        assert ref > 1e-4  # the window genuinely contributes
        assert res.value == pytest.approx(ref, rel=1e-10)

    def test_max_principle(self):
        data = InitialData.gaussian(0.0, 1.0)  # sup = 1
        for y in (0.1, 1.0, 4.0):
            for X in (-2.0, 0.0, 2.0):
                assert solve_dirac(data, y, X).value <= 1.0 + 1e-12

    def test_boundary_recovery_direction(self):
        data = InitialData.gaussian(0.0, 1.0)
        gaps = [abs(solve_dirac(data, y, 0.0).value - 1.0)
                for y in (0.2, 0.1, 0.05)]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_input_validation(self):
        data = InitialData.gaussian(0.0, 1.0)
        with pytest.raises(ValueError):
            solve_dirac(data, 0.0, 0.0)
        with pytest.raises(ValueError):
            solve_dirac(data, 1.0, math.inf)


class TestEulerSolve:
    def test_power_eigen_datum(self):
        # |xi|^beta solves to e^{-y sqrt(2 a beta)} |xi|^beta
        for beta, a, y, xi in ((0.5, 1.0, 1.0, 1.0), (1.0, 0.5, 0.7, 2.0),
                               (2.0, 2.0, 0.4, -0.6)):
            res = solve_euler(InitialData.power(beta), y, xi, a)
            expected = math.exp(-y * math.sqrt(2.0 * a * beta)) * abs(xi) ** beta
            assert res.converged
            assert res.value == pytest.approx(expected, rel=1e-12)

    def test_reflection_equivariance(self):
        # mirrored datum on the mirrored branch gives the same value
        y, a = 0.9, 1.2
        plus = solve_euler(InitialData.gaussian(1.0, 0.4), y, 1.6, a)
        minus = solve_euler(InitialData.gaussian(-1.0, 0.4), y, -1.6, a)
        assert minus.value == pytest.approx(plus.value, rel=1e-12)

    def test_degenerate_target_raises(self):
        with pytest.raises(DegenerateCharacteristicError):
            solve_euler(InitialData.gaussian(0.0, 1.0), 1.0, 0.0, 1.0)

    def test_datum_on_other_branch_gives_zero(self):
        res = solve_euler(InitialData.bump(-2.0, 0.5), 1.0, 3.0, 1.0)
        assert res.value == 0.0

    def test_narrow_bump_on_branch(self):
        # support [0.95, 1.05], well inside (0, |xi|): a narrow gap window
        data = InitialData.bump(1.0, 0.05)
        y, xi, a = 0.6, 4.0, 0.8
        res = solve_euler(data, y, xi, a)
        from poissonline.kernels import OscillatorParam, euler_kernel

        ref, _ = quad(
            lambda xp: euler_kernel(EvaluationPoint(y, xi, xp),
                                    OscillatorParam(a)).value * float(data(xp)),
            0.95, 1.05, epsabs=1e-300, epsrel=1e-12)
        assert ref > 0.0
        assert res.value == pytest.approx(ref, rel=1e-9)


def _counted(data):
    """`data` with a counter of the abscissae it is evaluated at."""
    drawn = [0]

    def fn(x, a=None):
        drawn[0] += np.size(x)
        return data(x, a=a)

    return InitialData(data.kind, data.params, fn, data.effective_support), drawn


def _gap_reference(datum_at, y, edges):
    """scipy quad of p_y(s) datum_at(s) over the gap pieces between `edges`,
    p_y the stable-1/2 density (the transport kernel at gap s)."""
    def f(s):
        return dirac_kernel(EvaluationPoint(y, 0.0, s)).value * float(datum_at(s))

    return sum(quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
               for lo, hi in zip(edges[:-1], edges[1:]))


def _euler_gap_edges(grid, xi, a):
    """Gap images s = log(|xi| / |k|) / (2a) of the knots k on xi's branch
    inside |k| < |xi|, ascending, closed by inf (the invariant line)."""
    branch = math.copysign(1.0, xi)
    inner = [abs(k) for k in grid if 0.0 < branch * k < abs(xi)]
    return sorted(math.log(abs(xi) / m) / (2.0 * a) for m in inner) + [math.inf]


# a Gaussian profile cut off with a jump at both ends of its window
_EDGE_GRID = np.linspace(-3.0, 3.0, 201)
_EDGE_DATA = InitialData.sampled(_EDGE_GRID, np.exp(-_EDGE_GRID ** 2))


class TestGapWindow:
    """dirac and euler integrate only the datum's gap window, with its edges
    at the ends of the quadrature's log axis."""

    def test_bump_pinned_case(self):
        # two trapezoid levels once agreed by accident here, 6.3e-7 off
        data = InitialData.bump(-0.3766729089988119, 1.375588289225457)
        y, X = 0.43353348510220935, -3.191744872736312
        res = solve_dirac(data, y, X)
        lo, hi = data.effective_support()
        ref = _gap_reference(lambda s: data(X + s), y, [lo - X, hi - X])
        assert res.converged
        assert res.value == pytest.approx(ref, rel=1e-9)

    # over the whole gap axis the edge-jump solves drew 2.5-3.1M datum
    # samples, as the O(h) trapezoid ran into the grid-size valve
    def test_edge_jump_dirac(self):
        y, X = 0.8, -1.0
        edges = [0.0] + [float(k - X) for k in _EDGE_GRID if k > X]
        counted, drawn = _counted(_EDGE_DATA)
        res = solve_dirac(counted, y, X)
        ref = _gap_reference(lambda s: _EDGE_DATA(X + s), y, edges)
        assert res.converged
        assert drawn[0] <= 20_000
        assert res.value == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("xi,a", [(4.0, 1.0), (-5.0, 0.7)])
    def test_edge_jump_euler(self, xi, a):
        y = 0.8
        counted, drawn = _counted(_EDGE_DATA)
        res = solve_euler(counted, y, xi, a)
        ref = _gap_reference(
            lambda s: _EDGE_DATA(xi * math.exp(-2.0 * a * s)), y,
            _euler_gap_edges(_EDGE_GRID, xi, a))
        assert res.converged
        assert drawn[0] <= 20_000
        assert res.value == pytest.approx(ref, rel=1e-8)

    # A gaussian is small, not zero, beyond its 10-sigma effective support,
    # so it is integrated over the whole gap axis and its far tail is
    # resolved to relative accuracy.  The references integrate the datum
    # divided by its value at the target, g(x) / g(target).
    @pytest.mark.parametrize("sigmas", [8.0, 9.0, 10.0, 11.0])
    def test_gaussian_far_tail_dirac(self, sigmas):
        y, X = 1.0, sigmas
        res = solve_dirac(InitialData.gaussian(0.0, 1.0), y, X)
        scaled = _gap_reference(lambda s: math.exp(-X * s - 0.5 * s * s), y,
                                [0.0, math.inf])
        assert res.converged
        assert res.value == pytest.approx(math.exp(-0.5 * X * X) * scaled,
                                          rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("sigmas", [8.0, 9.0, 10.0, 11.0])
    def test_gaussian_far_tail_euler(self, sigmas):
        center, width, y, a = 2.0, 0.15, 0.3, 0.8
        xi = center - sigmas * width

        def scaled_datum(s):
            t = (xi * math.exp(-2.0 * a * s) - center) / width
            return math.exp(0.5 * (sigmas * sigmas - t * t))

        res = solve_euler(InitialData.gaussian(center, width), y, xi, a)
        scaled = _gap_reference(scaled_datum, y, [0.0, math.inf])
        assert res.converged
        assert res.value == pytest.approx(
            math.exp(-0.5 * sigmas * sigmas) * scaled, rel=1e-10, abs=0.0)

    @pytest.mark.xfail(strict=True, reason=(
        "a spline's interior knots make two trapezoid levels agree closer "
        "than either is to the value; the one-level stopping rule then "
        "reports convergence 7e-10 off"))
    def test_spline_knots_do_not_converge_falsely(self):
        grid = np.linspace(-2.993681839946668, 0.5105605332999388, 201)
        values = 0.3 + sum(
            amp * np.exp(-0.5 * ((grid - c) / w) ** 2) for c, w, amp in (
                (-0.46523068462437056, 0.5745146655245432, 0.8905413911078446),
                (0.16513845342345235, 0.3367079796402642, -0.9491082780130784),
                (-1.0964413113794715, 1.4269789953342127, -0.23759152462357513)))
        data = InitialData.sampled(grid, values)
        y, xi, a = 0.13557162404420706, -2.7798582475032716, 0.8057846915861185
        res = solve_euler(data, y, xi, a)
        ref = _gap_reference(lambda s: data(xi * math.exp(-2.0 * a * s)), y,
                             [0.0] + _euler_gap_edges(grid, xi, a))
        # an unconverged result is honest; a converged one must be accurate
        assert not res.converged or res.value == pytest.approx(ref, rel=1e-10)

    def test_invariant_line_subtraction_cancels(self):
        # the window reaches xi' = 0, where the datum's value d0 is taken out
        # of the quadrature and its mass added back; the two parts cancel
        data = InitialData.gaussian(-0.6012226372386915, 0.6867767761493276)
        y, xi, a = (0.05014145464054803, -2.596980838351332,
                    0.39310307554033747)
        ref = _gap_reference(lambda s: data(xi * math.exp(-2.0 * a * s)), y,
                             [0.0, y * y, 1.0, math.inf])
        res = solve_euler(data, y, xi, a)
        assert res.converged
        assert res.value == pytest.approx(ref, rel=1e-10)

    def test_cancellation_keeps_the_convergence_contract(self):
        # at rel_tol 1e-7 the first quadrature meets its own tolerance but
        # not rel_tol * |value| after the ~14x cancellation, so it is rerun
        cfg = QuadratureConfig(rel_tol=1e-7)
        data = InitialData.gaussian(-0.6012226372386915, 0.6867767761493276)
        res = solve_euler(data, 0.05014145464054803, -2.596980838351332,
                          0.39310307554033747, cfg)
        assert res.converged
        assert res.error_estimate <= cfg.rel_tol * abs(res.value)

    @pytest.mark.parametrize("solve,data", [
        (lambda d: solve_dirac(d, 0.4, -0.2), InitialData.bump(0.5, 0.8)),
        (lambda d: solve_euler(d, 0.5, 1.8, 1.0), InitialData.bump(1.4, 0.3)),
    ], ids=["dirac", "euler"])
    def test_bump_solve_cost(self, solve, data):
        # over the whole gap axis these draw 2716 and 1319 datum samples
        counted, drawn = _counted(data)
        assert solve(counted).converged
        assert drawn[0] <= 400


_SAMPLED_GRID = np.linspace(-2.5, 2.5, 201)


class TestOscillatorSolve:
    def test_eigenfunction_data(self):
        for n, a, y, x in ((0, 1.0, 0.5, 0.0), (1, 1.0, 1.0, 0.5),
                           (2, 0.5, 0.8, -0.3)):
            res = solve_oscillator(InitialData.eigenfunction(n), y, x, a)
            expected = (math.exp(-y * math.sqrt((2 * n + 1) * a))
                        * hermite_function(n, a, x))
            assert res.converged
            assert res.value == pytest.approx(expected, rel=1e-10, abs=1e-13)

    def test_odd_datum_vanishes_at_origin(self):
        # the signed heat flow cancels to rounding noise here, so the
        # u-quadrature must converge against the magnitude of the datum
        res = solve_oscillator(InitialData.eigenfunction(1), 0.7, 0.0, 1.0)
        assert res.converged
        assert abs(res.value) <= max(res.error_estimate, 1e-12)

    @pytest.mark.parametrize("data,knots", [
        (InitialData.gaussian(0.3, 0.8), None),
        (InitialData.bump(0.2, 1.1), None),
        (InitialData.sampled(_SAMPLED_GRID, np.exp(-_SAMPLED_GRID ** 2)
                             * np.cos(2.0 * _SAMPLED_GRID)), _SAMPLED_GRID),
    ], ids=["gaussian", "bump", "sampled201"])
    def test_datum_against_quad(self, data, knots):
        # kernel-first reference: scipy's adaptive rule over pointwise
        # subordination kernels, independent of the datum-first solver; a
        # spline's reference is split at its interior knots, where it kinks
        from poissonline.kernels import OscillatorParam, oscillator_poisson_kernel

        y, x, a = 0.9, -0.4, 1.5
        lo, hi = data.effective_support()
        res = solve_oscillator(data, y, x, a)
        ref, _ = quad(
            lambda xp: oscillator_poisson_kernel(
                EvaluationPoint(y, x, xp), OscillatorParam(a)).value * float(data(xp)),
            lo, hi, epsabs=1e-13, epsrel=1e-10, limit=1000,
            points=None if knots is None else knots[1:-1])
        assert res.converged
        assert res.value == pytest.approx(ref, rel=1e-8)

    def test_error_estimate_covers_truth(self):
        data = InitialData.eigenfunction(0)
        y, x, a = 0.5, 0.0, 1.0
        res = solve_oscillator(data, y, x, a)
        truth = math.exp(-y) * hermite_function(0, a, x)
        assert abs(res.value - truth) <= 10.0 * res.error_estimate + 1e-15


class TestLinearity:
    def test_solver_is_linear_in_the_datum(self):
        grid = np.linspace(-3.0, 3.0, 61)
        vals = np.exp(-grid ** 2)
        base = InitialData.sampled(grid, vals)
        scaled = InitialData.sampled(grid, 2.5 * vals)
        u1 = solve_dirac(base, 0.8, -1.0).value
        u2 = solve_dirac(scaled, 0.8, -1.0).value
        assert u2 == pytest.approx(2.5 * u1, rel=1e-12)

    def test_oscillator_solver_is_linear_in_the_datum(self):
        y, x, a = 0.6, 0.3, 1.2
        g1, g2 = InitialData.gaussian(-0.5, 0.4), InitialData.gaussian(0.8, 0.7)
        grid = np.linspace(-6.0, 6.0, 241)
        mixed = InitialData.sampled(grid, 2.5 * g1(grid) - 1.5 * g2(grid))
        parts = InitialData.sampled(grid, g1(grid)), InitialData.sampled(grid, g2(grid))
        u1, u2 = (solve_oscillator(d, y, x, a) for d in parts)
        um = solve_oscillator(mixed, y, x, a)
        assert u1.converged and u2.converged and um.converged
        assert um.value == pytest.approx(2.5 * u1.value - 1.5 * u2.value,
                                         rel=1e-10, abs=um.error_estimate)


class TestSolveGrid:
    def test_matches_pointwise_solves(self):
        req = SolveRequest(problem="dirac",
                           data=InitialData.exponential(1.0),
                           y_levels=(1.0, 2.0),
                           spatial_points=(0.0, 0.5))
        grid = solve_grid(req)
        assert grid.values.shape == (2, 2)
        for i, y in enumerate(req.y_levels):
            for j, x in enumerate(req.spatial_points):
                assert grid.values[i, j] == solve_dirac(req.data, y, x).value
        assert grid.converged.all()

    def test_request_validation(self):
        data = InitialData.gaussian(0.0, 1.0)
        with pytest.raises(ValueError):
            SolveRequest(problem="heat", data=data, y_levels=(1.0,),
                         spatial_points=(0.0,))
        with pytest.raises(ValueError):
            SolveRequest(problem="dirac", data=data, y_levels=(),
                         spatial_points=(0.0,))
        with pytest.raises(ValueError):
            SolveRequest(problem="dirac", data=data, y_levels=(-1.0,),
                         spatial_points=(0.0,))
        with pytest.raises(ValueError):
            SolveRequest(problem="euler", data=data, y_levels=(1.0,),
                         spatial_points=(0.0, 1.0), a=1.0)
        with pytest.raises(ValueError):
            SolveRequest(problem="oscillator",
                         data=InitialData.gaussian(0.0, 1.0),
                         y_levels=(1.0,), spatial_points=(0.0,))  # no a
        with pytest.raises(ValueError, match="takes no parameter a"):
            SolveRequest(problem="dirac", data=data, y_levels=(1.0,),
                         spatial_points=(0.0,), a=1.0)

    def test_failed_cell_is_flagged_not_fatal(self, monkeypatch):
        real = solvers.solve_dirac
        faults = {0.5: ArithmeticError("synthetic cell failure"),
                  1.5: IntegrandEvaluationError(0.25),
                  2.0: NonConvergenceError("synthetic non-convergence")}

        def flaky(data, y, target, cfg=None):
            if target in faults:
                raise faults[target]
            return real(data, y, target, cfg)

        monkeypatch.setattr(solvers, "solve_dirac", flaky)
        req = SolveRequest(problem="dirac",
                           data=InitialData.exponential(1.0),
                           y_levels=(1.0,),
                           spatial_points=(0.0, 0.5, 1.0, 1.5, 2.0))
        grid = solvers.solve_grid(req)
        for j in (1, 3, 4):
            assert math.isnan(grid.values[0, j])
            assert math.isinf(grid.error_estimates[0, j])
            assert not grid.converged[0, j]
        assert grid.failures[0, 1] == "ArithmeticError: synthetic cell failure"
        assert grid.failures[0, 3] == (
            "IntegrandEvaluationError: non-finite integrand sample at u=0.25")
        assert grid.failures[0, 4] == (
            "NonConvergenceError: synthetic non-convergence")
        assert grid.converged[0, 0] and grid.converged[0, 2]
        assert grid.failures[0, 0] == grid.failures[0, 2] == ""


_RAISING_CASES = {
    "oscillator-kernel": lambda: oscillator_poisson_kernel(
        EvaluationPoint(0.7, 0.4, -1.1), OscillatorParam(1.3)),
    "dirac-bump": lambda: solve_dirac(InitialData.bump(0.5, 0.8), 0.4, -0.2),
    "dirac-gaussian": lambda: solve_dirac(InitialData.gaussian(0.3, 0.6), 0.9, 0.1),
    "euler-bump": lambda: solve_euler(InitialData.bump(1.4, 0.3), 0.5, 1.8, 1.0),
    "euler-gaussian": lambda: solve_euler(InitialData.gaussian(1.5, 0.4), 0.3, 2.2, 0.7),
    "oscillator-gaussian": lambda: solve_oscillator(
        InitialData.gaussian(0.0, 1.0), 0.5, 0.3, 1.0),
    # zero datum weights outside the bump: log 0 before the u-quadrature
    "oscillator-bump": lambda: solve_oscillator(
        InitialData.bump(0.2, 0.5), 0.4, -0.1, 1.0),
}


@pytest.mark.parametrize("case", sorted(_RAISING_CASES))
def test_same_result_under_a_raising_numpy_error_state(case):
    # the quadrature sets its own numpy error state; a caller that turns
    # every floating-point warning into an error gets the same result
    expected = _RAISING_CASES[case]()
    with np.errstate(all="raise"):
        got = _RAISING_CASES[case]()
    assert ((got.value, got.error_estimate, got.converged)
            == (expected.value, expected.error_estimate, expected.converged))
