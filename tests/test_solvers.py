"""Solution operators against closed forms and an independent integrator."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import poissonline.solvers as solvers
from poissonline.kernels import DegenerateCharacteristicError, EvaluationPoint, dirac_kernel
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
        with pytest.raises(ValueError):
            InitialData.sampled(np.arange(4.0), np.ones(4), interpolation="pchip")


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
        # support [0.95, 1.05], well inside (0, |xi|); found via hints
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

    @pytest.mark.parametrize("data", [
        InitialData.gaussian(0.3, 0.8),
        InitialData.bump(0.2, 1.1),
        InitialData.sampled(np.linspace(-2.5, 2.5, 201),
                            np.exp(-np.linspace(-2.5, 2.5, 201) ** 2)
                            * np.cos(2.0 * np.linspace(-2.5, 2.5, 201))),
    ], ids=["gaussian", "bump", "sampled201"])
    def test_datum_against_quad(self, data):
        # kernel-first reference: scipy's adaptive rule over pointwise
        # subordination kernels, independent of the datum-first solver
        from poissonline.kernels import OscillatorParam, oscillator_poisson_kernel

        y, x, a = 0.9, -0.4, 1.5
        lo, hi = data.effective_support()
        res = solve_oscillator(data, y, x, a)
        ref, _ = quad(
            lambda xp: oscillator_poisson_kernel(
                EvaluationPoint(y, x, xp), OscillatorParam(a)).value * float(data(xp)),
            lo, hi, epsabs=1e-13, epsrel=1e-10, limit=200)
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
        # a cubic spline is only C^2, so the default 1e-10 tolerance needs
        # very deep refinement; 1e-8 keeps this sub-second without losing
        # the point of the check
        cfg = QuadratureConfig(rel_tol=1e-8)
        grid = np.linspace(-3.0, 3.0, 61)
        vals = np.exp(-grid ** 2)
        base = InitialData.sampled(grid, vals)
        scaled = InitialData.sampled(grid, 2.5 * vals)
        u1 = solve_dirac(base, 0.8, -1.0, cfg).value
        u2 = solve_dirac(scaled, 0.8, -1.0, cfg).value
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
