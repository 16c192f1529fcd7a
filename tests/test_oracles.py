"""Spectral, stencil, and limit oracles against closed forms."""

import math
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poissonline.kernels import (
    EvaluationPoint,
    OscillatorParam,
    mehler_heat_kernel,
    oscillator_poisson_kernel,
)
import poissonline.oracles as oracles
import poissonline.solvers as solvers
from poissonline.oracles import (
    InsufficientOrderError,
    InvalidStencilError,
    SpectralConfig,
    StencilConfig,
    VerificationReport,
    boundary_limit_gap,
    eigen_solution_field,
    heat_tail_bound,
    hermite_function,
    kernel_field,
    limit_a_to_zero_gap,
    make_report,
    pde_residual,
    poisson_tail_bound,
    required_heat_order,
    required_poisson_order,
    residual_convergence_orders,
    spectral_heat_kernel,
    spectral_poisson_kernel,
)
from poissonline.quadrature import NonConvergenceError, QuadratureConfig
from poissonline.solvers import InitialData
from poissonline.suites import check_heat_oracle, check_poisson_oracle

PI_QUARTER = math.pi ** -0.25


class TestHermiteFunctions:
    def test_ground_state_at_origin(self):
        assert hermite_function(0, 1.0, 0.0) == pytest.approx(PI_QUARTER,
                                                              rel=1e-15)
        assert hermite_function(0, 4.0, 0.0) == pytest.approx(
            math.sqrt(2.0) * PI_QUARTER, rel=1e-15)

    def test_odd_states_vanish_at_origin(self):
        for n in (1, 3, 5, 11):
            assert hermite_function(n, 1.0, 0.0) == 0.0

    def test_vectorized_matches_scalar(self):
        x = np.array([-1.5, 0.0, 0.3, 2.0])
        vec = hermite_function(4, 2.0, x)
        assert vec.shape == x.shape
        for xi, vi in zip(x, vec):
            assert hermite_function(4, 2.0, float(xi)) == vi

    @pytest.mark.parametrize("n,a", [(0, 1.0), (7, 0.5), (60, 2.0), (500, 1.0)])
    def test_uniform_bound(self, n, a):
        # |phi_n| <= 0.816 a^{1/4} everywhere, and no overflow up to n=500
        x = np.linspace(-80.0, 80.0, 4001)
        values = hermite_function(n, a, x)
        assert np.all(np.isfinite(values))
        assert np.max(np.abs(values)) <= 0.816 * a ** 0.25

    def test_orthonormality(self):
        a, n_top = 1.3, 18
        half = math.sqrt((2 * n_top + 1) / a) + 12.0 / math.sqrt(a)
        nodes, weights = np.polynomial.legendre.leggauss(500)
        x = half * nodes
        w = half * weights
        phi = np.array([hermite_function(n, a, x) for n in range(n_top + 1)])
        gram = (phi * w) @ phi.T
        assert np.max(np.abs(gram - np.eye(n_top + 1))) < 1e-12

    def test_input_validation(self):
        with pytest.raises(ValueError):
            hermite_function(-1, 1.0, 0.0)
        with pytest.raises(ValueError):
            hermite_function(2, 0.0, 0.0)
        with pytest.raises(ValueError):
            hermite_function(True, 1.0, 0.0)


class TestSpectralHeat:
    def test_matches_mehler_at_generic_point(self):
        t, x, xp, a = 0.5, 0.4, -0.9, 1.0
        n = required_heat_order(t, a, 1e-14)
        ours = spectral_heat_kernel(t, x, xp, SpectralConfig(n, a))
        ref = mehler_heat_kernel(t, x, xp, OscillatorParam(a)).value
        assert ours == pytest.approx(ref, rel=1e-12)

    def test_survives_catastrophic_cancellation(self):
        # at (t, x, x') = (0.1, -2, 2), a = 2 the alternating terms are
        # ~0.1 while the sum is ~2e-18; a float64 sum loses every digit
        t, x, xp, a = 0.1, -2.0, 2.0, 2.0
        frozen = 2.1970875739990829e-18
        n = required_heat_order(t, a, 1e-12 * frozen)
        ours = spectral_heat_kernel(t, x, xp, SpectralConfig(n, a),
                                    tol=1e-12 * frozen)
        assert ours == pytest.approx(frozen, rel=1e-12)
        ref = mehler_heat_kernel(t, x, xp, OscillatorParam(a)).value
        assert ours == pytest.approx(ref, rel=1e-10)

    def test_refuses_uncertified_truncation(self):
        with pytest.raises(InsufficientOrderError):
            spectral_heat_kernel(0.05, 0.0, 0.0, SpectralConfig(3, 2.0))

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            spectral_heat_kernel(0.0, 0.0, 0.0, SpectralConfig(50, 1.0))


_HEAT_CACHES = (oracles._eigen_values, oracles._heat_weights,
                oracles._recurrence_coefficients)


def _clear_heat_caches():
    for cache in _HEAT_CACHES:
        cache.cache_clear()


def _direct_heat_sum(t, x, xp, a, n_max, dps):
    """The truncated heat eigen-sum, written out at a fixed precision."""
    import mpmath as mp

    with mp.workdps(dps):
        am, tm = mp.mpf(a), mp.mpf(t)
        z1, z2 = mp.sqrt(am) * mp.mpf(x), mp.sqrt(am) * mp.mpf(xp)
        c = mp.pi ** mp.mpf("-0.25")
        p1, p2 = c * mp.exp(-z1 * z1 / 2), c * mp.exp(-z2 * z2 / 2)
        q1 = q2 = total = mp.mpf(0)
        for k in range(n_max + 1):
            total += mp.exp(-(2 * k + 1) * am * tm) * p1 * p2
            cma, cmb = mp.sqrt(mp.mpf(2) / (k + 1)), mp.sqrt(mp.mpf(k) / (k + 1))
            p1, q1 = cma * z1 * p1 - cmb * q1, p1
            p2, q2 = cma * z2 * p2 - cmb * q2, p2
        return total * mp.sqrt(am)


class TestHeatSumCaches:
    # (t, x, x', a, n_max): shared points and times, orders that grow and
    # shrink, and a pair that needs the 100-digit pass
    CASES = [(0.1, -2.0, 2.0, 2.0, 420), (0.5, -2.0, 1.0, 2.0, 60),
             (0.1, 1.0, -0.5, 2.0, 200), (0.1, 1.0, 1.0, 2.0, 30),
             (0.5, 0.0, -2.0, 0.5, 150), (1.0, -0.5, 0.0, 0.5, 90),
             (0.05, -2.0, 2.0, 1.0, 1061), (0.5, -2.0, 2.0, 1.0, 40)]

    def test_bit_identical_cold_and_warm_in_any_order(self):
        cold = []
        for case in self.CASES:
            _clear_heat_caches()
            cold.append(oracles._heat_sum_mp(*case))
        rng = random.Random(11)
        for _ in range(3):
            _clear_heat_caches()
            order = list(range(len(self.CASES)))
            rng.shuffle(order)
            for i in order + order[::-1]:
                assert oracles._heat_sum_mp(*self.CASES[i]) == cold[i]

    @pytest.mark.parametrize("x,frozen", [(2.0, 2.1283428115369014e-35),
                                          (2.5, 5.8682224147007845e-55)])
    def test_cancelling_sum_against_a_200_digit_reference(self, x, frozen):
        # the terms cancel by 35 and 55 digits, so 50 digits leave too
        # little headroom and the sum is redone at 100; the 50-digit
        # sequences of the same points are cached by then, and a cache that
        # handed them to the 100-digit pass would miss both values
        t, a = 0.05, 1.0
        tol = 0.25 * 1e-10 * mehler_heat_kernel(t, -x, x, OscillatorParam(a)).value
        n = required_heat_order(t, a, tol)
        _clear_heat_caches()
        ours = spectral_heat_kernel(t, -x, x, SpectralConfig(n, a), tol=tol)
        assert ours == float(_direct_heat_sum(t, -x, x, a, n, 200))
        assert ours == frozen
        assert oracles._recurrence_coefficients.cache_info().misses == 2

    def test_caches_stay_within_their_bound(self):
        _clear_heat_caches()
        for i in range(1000):
            x = -3.0 + 0.006 * i
            oracles._heat_sum_mp(0.5 + 0.001 * i, x, -x, 1.0 + 0.002 * i, 12)
        for cache in _HEAT_CACHES:
            info = cache.cache_info()
            assert info.maxsize is not None
            assert info.currsize <= info.maxsize

    def test_gate_check_builds_one_recurrence_per_point(self):
        # 3 frequencies x 5 points, where each of the 225 sums used to
        # build both of its recurrences
        _clear_heat_caches()
        reports = check_heat_oracle(QuadratureConfig(), 1.0)
        assert len(reports) == 9 and all(r.passed for r in reports)
        assert oracles._eigen_values.cache_info().misses == 15
        assert oracles._heat_weights.cache_info().misses == 9


@settings(max_examples=30, deadline=None)
@given(t=st.floats(0.05, 2.0), a=st.floats(0.3, 3.0), x=st.floats(-3.0, 3.0),
       xp=st.floats(-3.0, 3.0), mirror=st.booleans())
def test_heat_sum_within_one_ulp_of_a_200_digit_sum(t, a, x, xp, mirror):
    # x' = -x gives the off-diagonal pairs whose terms cancel by up to ~80
    # digits, where the fixed point has to double its precision
    if mirror:
        xp = -x
    n = required_heat_order(t, a, 1e-12)
    ours = spectral_heat_kernel(t, x, xp, SpectralConfig(n, a), tol=1e-12)
    ref = float(_direct_heat_sum(t, x, xp, a, n, 200))
    assert abs(ours - ref) <= math.ulp(ref)


class TestSpectralPoisson:
    def test_matches_quadrature_kernel(self):
        y, x, xp, a = 1.0, 0.7, -0.3, 1.0
        n = required_poisson_order(y, a, 1e-12)
        spectral = spectral_poisson_kernel(y, x, xp, SpectralConfig(n, a),
                                           tol=1e-12)
        quad = oscillator_poisson_kernel(EvaluationPoint(y, x, xp),
                                         OscillatorParam(a)).value
        assert quad == pytest.approx(spectral, rel=1e-9)

    def test_refuses_uncertified_truncation(self):
        with pytest.raises(InsufficientOrderError, match="would certify"):
            spectral_poisson_kernel(1.0, 0.0, 0.0, SpectralConfig(4, 1.0))

    def test_rejects_nonpositive_height(self):
        with pytest.raises(ValueError):
            spectral_poisson_kernel(-1.0, 0.0, 0.0, SpectralConfig(50, 1.0))

    def test_gate_check_builds_one_eigen_table_per_point(self, monkeypatch):
        # cost guard: 3 frequencies x 3 points; each of the 54 sums used to
        # build a table for each of its points, 81 in all
        built = []
        real = oracles.hermite_all

        def counting(n_max, a, x):
            built.append((a, x))
            return real(n_max, a, x)

        monkeypatch.setattr(oracles, "hermite_all", counting)
        oracles._EIGEN_TABLES.clear()
        reports = check_poisson_oracle(QuadratureConfig(), 1.0)
        assert len(reports) == 10 and all(r.passed for r in reports)
        assert sorted(built) == sorted(set(built)) and len(built) == 9

    def test_sliced_tables_are_bit_identical(self):
        # a sum sliced from a larger cached table equals one built fresh
        sc = SpectralConfig(required_poisson_order(1.0, 1.0, 1e-9), 1.0)
        oracles._EIGEN_TABLES.clear()
        fresh = spectral_poisson_kernel(1.0, 0.3, -0.4, sc)
        spectral_poisson_kernel(0.2, 0.3, -0.4,
                                SpectralConfig(required_poisson_order(0.2, 1.0, 1e-9), 1.0))
        assert spectral_poisson_kernel(1.0, 0.3, -0.4, sc) == fresh


class TestRequiredOrders:
    @pytest.mark.parametrize("fn,bound,arg", [
        (required_poisson_order, poisson_tail_bound, 0.5),
        (required_heat_order, heat_tail_bound, 0.5),
    ])
    def test_minimality(self, fn, bound, arg):
        a, tol = 1.0, 1e-10
        n = fn(arg, a, tol)
        assert bound(arg, SpectralConfig(n, a)) <= tol
        if n > 1:
            assert bound(arg, SpectralConfig(n - 1, a)) > tol

    def test_monotone_in_tolerance(self):
        loose = required_poisson_order(1.0, 1.0, 1e-6)
        tight = required_poisson_order(1.0, 1.0, 1e-13)
        assert tight >= loose


class TestPdeResidual:
    def test_dirac_kernel_field(self):
        field = kernel_field("dirac", source=2.0)
        report = pde_residual("dirac", field, 1.0, 0.0)
        assert report.passed
        assert report.measured <= 1e-5

    def test_oscillator_eigen_field(self):
        field = eigen_solution_field("oscillator", n=2, a=1.0)
        report = pde_residual("oscillator", field, 1.0, 0.5, a=1.0)
        assert report.passed

    def test_stencil_must_stay_in_halfplane(self):
        field = eigen_solution_field("dirac", rate=1.0)
        with pytest.raises(InvalidStencilError):
            pde_residual("dirac", field, 5e-4, 0.0)

    def test_stencil_must_not_cross_invariant_line(self):
        field = eigen_solution_field("euler", exponent=1.0, a=1.0)
        with pytest.raises(InvalidStencilError):
            pde_residual("euler", field, 1.0, 5e-4, a=1.0)

    def test_operator_and_parameter_validation(self):
        field = eigen_solution_field("dirac", rate=1.0)
        with pytest.raises(ValueError):
            pde_residual("heat", field, 1.0, 0.0)
        with pytest.raises(ValueError):
            pde_residual("euler", field, 1.0, 1.0)  # missing a

    def test_stencil_config_validation(self):
        with pytest.raises(ValueError):
            StencilConfig(h_y=0.0)
        with pytest.raises(ValueError):
            StencilConfig(h_x=-1e-3)


class TestConvergenceOrders:
    def test_second_order_on_dirac_kernel(self):
        field = kernel_field("dirac", source=2.0)
        orders = residual_convergence_orders("dirac", field, 1.0, 0.5,
                                             (2e-2, 1e-2))
        assert len(orders) == 1
        assert orders[0] == pytest.approx(2.0, abs=0.2)

    def test_rejects_non_halving_steps(self):
        field = kernel_field("dirac", source=2.0)
        with pytest.raises(ValueError):
            residual_convergence_orders("dirac", field, 1.0, 0.5,
                                        (1e-2, 3e-3))
        with pytest.raises(ValueError):
            residual_convergence_orders("dirac", field, 1.0, 0.5, (1e-2,))


class TestEigenFieldValidation:
    def test_missing_parameters(self):
        with pytest.raises(ValueError):
            eigen_solution_field("dirac")
        with pytest.raises(ValueError):
            eigen_solution_field("euler", exponent=1.0)
        with pytest.raises(ValueError):
            eigen_solution_field("oscillator", n=1)
        with pytest.raises(ValueError):
            eigen_solution_field("heat", rate=1.0)

    def test_kernel_field_validation(self):
        with pytest.raises(ValueError):
            kernel_field("heat", source=0.0)


class TestLimitStudies:
    def test_a_to_zero_converges_to_halfplane(self):
        report = limit_a_to_zero_gap(1.0, 0.3, -0.2, (1e-1, 1e-2, 1e-3))
        assert report.passed
        gaps = report.context["gaps"]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[-1] <= 1e-2

    def test_a_to_zero_validation(self):
        with pytest.raises(ValueError):
            limit_a_to_zero_gap(1.0, 0.0, 0.0, ())
        with pytest.raises(ValueError):
            limit_a_to_zero_gap(1.0, 0.0, 0.0, (1e-2, 1e-1))

    def test_boundary_gap_validation(self):
        data = InitialData.gaussian(0.0, 1.0)
        with pytest.raises(ValueError):
            boundary_limit_gap("dirac", data, (), (0.0,))
        with pytest.raises(ValueError):
            boundary_limit_gap("dirac", data, (0.05, 0.1), (0.0,))
        with pytest.raises(ValueError):
            boundary_limit_gap("dirac", data, (0.1, 0.05), ())
        with pytest.raises(ValueError):
            boundary_limit_gap("heat", data, (0.1, 0.05), (0.0,))

    def test_boundary_gap_raises_on_a_failed_cell(self, monkeypatch):
        # solve_grid stores a failed cell as NaN, and a NaN defect would
        # drop out of the sup: unraised, it would read as a perfect gap
        real = solvers.solve_dirac

        def flaky(data, y, target, cfg=None):
            if target == 0.5:
                raise ArithmeticError("synthetic cell failure")
            return real(data, y, target, cfg)

        monkeypatch.setattr(solvers, "solve_dirac", flaky)
        with pytest.raises(NonConvergenceError,
                           match="ArithmeticError: synthetic cell failure"):
            boundary_limit_gap("dirac", InitialData.gaussian(0.0, 1.0),
                               (0.2, 0.1), (0.0, 0.5))


class TestReports:
    def test_make_report_sets_passed(self):
        good = make_report("demo", 1e-12, 1e-10, detail=3)
        assert good.passed
        assert good.context["detail"] == 3
        bad = make_report("demo", 1e-8, 1e-10)
        assert not bad.passed

    def test_report_consistency_enforced(self):
        with pytest.raises(ValueError):
            VerificationReport("demo", 2.0, 1.0, True, {})

    def test_spectral_config_validation(self):
        with pytest.raises(ValueError):
            SpectralConfig(0, 1.0)
        with pytest.raises(ValueError):
            SpectralConfig(10, -1.0)


def test_import_does_not_load_mpmath(package_env):
    # no runtime module needs mpmath, and the gate's sort-and-dedupe keeps
    # numpy.ma (which np.unique imports) out of a verify run; pinned to one
    # CPU, the gate runs its checks in this interpreter, so their imports
    # show in sys.modules
    code = ("import contextlib, io, os, sys, poissonline, poissonline.cli\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "print('mpmath' in sys.modules)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = poissonline.cli.main(['verify', '--suite', 'all'])\n"
            "print(code, 'mpmath' in sys.modules, 'numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=package_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "0", "False", "False"]
