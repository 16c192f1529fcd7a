"""Closed-form kernels: frozen values, invariances, independent oracles."""

import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poissonline.kernels import (
    DegenerateCharacteristicError,
    EvaluationPoint,
    KernelValue,
    OscillatorParam,
    dirac_kernel,
    euler_kernel,
    halfplane_poisson_kernel,
    mehler_heat_kernel,
    oscillator_poisson_kernel,
    oscillator_poisson_kernel_batch,
)
from poissonline.quadrature import QuadratureConfig, integrate_semi_infinite

finite = st.floats(allow_nan=False, allow_infinity=False)


class TestEvaluationPoint:
    def test_rejects_nonpositive_y(self):
        with pytest.raises(ValueError):
            EvaluationPoint(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            EvaluationPoint(-1.0, 0.0, 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            EvaluationPoint(math.nan, 0.0, 0.0)
        with pytest.raises(ValueError):
            EvaluationPoint(1.0, math.inf, 0.0)

    def test_rejects_bool(self):
        with pytest.raises(ValueError):
            EvaluationPoint(True, 0.0, 0.0)


class TestDirac:
    def test_frozen_value(self):
        kv = dirac_kernel(EvaluationPoint(1.0, 0.0, 1.0))
        assert kv.value == pytest.approx(0.21969564473386122, rel=1e-15)
        assert kv.error_estimate == 0.0
        assert kv.converged

    def test_vanishes_off_support(self):
        assert dirac_kernel(EvaluationPoint(1.0, 0.0, 0.0)).value == 0.0
        assert dirac_kernel(EvaluationPoint(1.0, 0.0, -2.0)).value == 0.0

    @settings(max_examples=100, deadline=None)
    @given(y=st.floats(0.05, 20.0), s=st.floats(1e-3, 50.0))
    @example(y=1.5954809019811445, s=0.001)
    def test_matches_levy_density(self, y, s):
        # the gap density is the one-sided stable-1/2 law: the Levy density
        # sqrt(c / 2pi) s^{-3/2} exp(-c / 2s) with scale c = y^2/2, here in
        # 40-digit arithmetic; scipy.stats.levy.pdf rounds its exponent and
        # is off by up to 1.4e-13 where y^2/(4s) is in the hundreds
        ours = dirac_kernel(EvaluationPoint(y, 0.0, s)).value
        with mpmath.workdps(40):
            c, gap = mpmath.mpf(y) ** 2 / 2, mpmath.mpf(s)
            ref = float(mpmath.sqrt(c / (2 * mpmath.pi)) * gap ** mpmath.mpf(-1.5)
                        * mpmath.exp(-c / (2 * gap)))
        assert ours == pytest.approx(ref, rel=1e-13, abs=1e-300)

    @settings(max_examples=60, deadline=None)
    @given(y=st.floats(0.1, 10.0), s=st.floats(1e-2, 20.0),
           k=st.integers(-3, 3))
    @example(y=6.0, s=0.125, k=2)
    def test_parabolic_scaling(self, y, s, k):
        # P(c y, X, X + c^2 s) = c^{-2} P(y, X, X + s) with dyadic c; the
        # direct form scales exactly, and where the log-domain form takes
        # over the values are far below the absolute tolerance
        c = 2.0 ** k
        lhs = dirac_kernel(EvaluationPoint(c * y, 0.0, c * c * s)).value
        rhs = dirac_kernel(EvaluationPoint(y, 0.0, s)).value / (c * c)
        assert lhs == pytest.approx(rhs, rel=5e-15, abs=1e-300)

    @pytest.mark.parametrize("y", [0.3, 1.0, 3.0])
    def test_unit_mass(self, y):
        def integrand(s):
            kv = np.array([dirac_kernel(EvaluationPoint(y, 0.0, si)).value
                           for si in np.atleast_1d(s)])
            with np.errstate(divide="ignore"):
                return np.sign(kv), np.log(np.abs(kv))

        res = integrate_semi_infinite(integrand)
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-10)


class TestEuler:
    def test_frozen_value(self):
        kv = euler_kernel(EvaluationPoint(1.0, 2.0, 1.0), OscillatorParam(1.0))
        assert kv.value == pytest.approx(0.3360428246662678, rel=1e-15)

    def test_degenerate_on_invariant_line(self):
        with pytest.raises(DegenerateCharacteristicError):
            euler_kernel(EvaluationPoint(1.0, 0.0, 1.0), OscillatorParam(1.0))
        with pytest.raises(DegenerateCharacteristicError):
            euler_kernel(EvaluationPoint(1.0, 1.0, 0.0), OscillatorParam(1.0))

    def test_vanishes_across_branches_and_outward(self):
        a = OscillatorParam(1.0)
        assert euler_kernel(EvaluationPoint(1.0, 2.0, -1.0), a).value == 0.0
        assert euler_kernel(EvaluationPoint(1.0, 1.0, 2.0), a).value == 0.0
        assert euler_kernel(EvaluationPoint(1.0, 1.0, 1.0), a).value == 0.0

    @settings(max_examples=100, deadline=None)
    @given(y=st.floats(0.1, 5.0), a=st.floats(0.1, 5.0),
           r=st.floats(0.05, 20.0), frac=st.floats(0.01, 0.99),
           sign=st.sampled_from([-1.0, 1.0]))
    def test_conjugate_to_dirac(self, y, a, r, frac, sign):
        # euler = dirac after X = log|xi| / (-2a), divided by the
        # change-of-variables factor 2 a |xi'|
        xi, xip = sign * r, sign * r * frac
        ours = euler_kernel(EvaluationPoint(y, xi, xip),
                            OscillatorParam(a)).value
        X = math.log(abs(xi)) / (-2.0 * a)
        Xp = math.log(abs(xip)) / (-2.0 * a)
        ref = dirac_kernel(EvaluationPoint(y, X, Xp)).value / (2.0 * a * abs(xip))
        assert ours == pytest.approx(ref, rel=1e-10, abs=1e-300)

    def test_mirror_symmetry(self):
        a = OscillatorParam(0.7)
        plus = euler_kernel(EvaluationPoint(0.9, 3.0, 1.2), a).value
        minus = euler_kernel(EvaluationPoint(0.9, -3.0, -1.2), a).value
        assert plus == minus


class TestMehler:
    def test_frozen_value(self):
        kv = mehler_heat_kernel(0.5, 0.0, 0.0, OscillatorParam(1.0))
        assert kv.value == pytest.approx(0.3680051987075608, rel=1e-14)

    def test_requires_positive_time(self):
        with pytest.raises(ValueError):
            mehler_heat_kernel(0.0, 0.0, 0.0, OscillatorParam(1.0))

    def test_argument_symmetry_is_exact(self):
        a = OscillatorParam(1.3)
        assert (mehler_heat_kernel(0.4, 0.8, -0.3, a).value
                == mehler_heat_kernel(0.4, -0.3, 0.8, a).value)

    def test_flat_frequency_limit_is_gaussian(self):
        t, x, xp = 0.7, 0.3, -0.4
        K = mehler_heat_kernel(t, x, xp, OscillatorParam(1e-6)).value
        G = math.exp(-(x - xp) ** 2 / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
        assert K == pytest.approx(G, rel=1e-9)

    @settings(max_examples=80, deadline=None)
    @given(t=st.floats(1e-6, 50.0), x=st.floats(-8.0, 8.0),
           xp=st.floats(-8.0, 8.0), a=st.floats(0.05, 10.0))
    def test_positive_and_finite(self, t, x, xp, a):
        v = mehler_heat_kernel(t, x, xp, OscillatorParam(a)).value
        assert v >= 0.0
        assert math.isfinite(v)

    def test_long_time_ground_state_decay(self):
        # K(t,0,0) ~ sqrt(a/pi) e^{-a t} for large t
        a, t = 1.0, 30.0
        K = mehler_heat_kernel(t, 0.0, 0.0, OscillatorParam(a)).value
        assert K == pytest.approx(math.sqrt(a / math.pi) * math.exp(-a * t),
                                  rel=1e-12)


class TestOscillatorPoisson:
    def test_frozen_origin_value(self):
        kv = oscillator_poisson_kernel(EvaluationPoint(1.0, 0.0, 0.0),
                                       OscillatorParam(1.0))
        assert kv.converged
        assert kv.value == pytest.approx(0.25955327199433076, rel=1e-10)
        assert kv.error_estimate <= 1e-10 * kv.value

    def test_argument_symmetry_within_error(self):
        a = OscillatorParam(2.0)
        k1 = oscillator_poisson_kernel(EvaluationPoint(0.8, 1.1, -0.4), a)
        k2 = oscillator_poisson_kernel(EvaluationPoint(0.8, -0.4, 1.1), a)
        assert abs(k1.value - k2.value) <= k1.error_estimate + k2.error_estimate

    def test_prefactor_scale_is_exactly_linear(self):
        p = EvaluationPoint(1.0, 0.3, -0.2)
        a = OscillatorParam(1.0)
        base = oscillator_poisson_kernel(p, a).value
        scaled = oscillator_poisson_kernel(p, a, prefactor_scale=math.sqrt(2.0)).value
        assert scaled == pytest.approx(math.sqrt(2.0) * base, rel=1e-15)

    def test_prefactor_scale_validation(self):
        p = EvaluationPoint(1.0, 0.0, 0.0)
        a = OscillatorParam(1.0)
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                oscillator_poisson_kernel(p, a, prefactor_scale=bad)

    @pytest.mark.parametrize("y,x,xp,a", [
        (0.5, 0.0, 0.0, 1.0),
        (1.0, 1.0, -1.0, 0.5),
        (2.0, 0.7, 0.3, 2.0),
    ])
    def test_positive_and_converged(self, y, x, xp, a):
        kv = oscillator_poisson_kernel(EvaluationPoint(y, x, xp),
                                       OscillatorParam(a))
        assert kv.converged
        assert kv.value > 0.0


def _pairs(a):
    reach = 3.0 / math.sqrt(a)
    side = st.floats(-reach, reach)
    return st.lists(st.tuples(side, side), min_size=1, max_size=40)


class TestOscillatorPoissonBatch:
    @settings(max_examples=30, deadline=None)
    @given(y=st.floats(0.05, 5.0), a=st.floats(0.05, 4.0), data=st.data())
    def test_each_pair_matches_its_scalar_call(self, y, a, data):
        pairs = data.draw(_pairs(a))
        pa = OscillatorParam(a)
        batch = oscillator_poisson_kernel_batch(
            y, [x for x, _ in pairs], [xp for _, xp in pairs], pa)
        assert len(batch) == len(pairs)
        for (x, xp), kv in zip(pairs, batch):
            one = oscillator_poisson_kernel(EvaluationPoint(y, x, xp), pa)
            assert (abs(kv.value - one.value)
                    <= kv.error_estimate + one.error_estimate + 1e-13 * abs(one.value))
            assert kv.converged == one.converged

    @settings(max_examples=30, deadline=None)
    @given(y=st.floats(0.05, 5.0), a=st.floats(0.05, 4.0), data=st.data())
    def test_symmetric_against_the_swapped_batch(self, y, a, data):
        # P(y, x, x') = P(y, x', x).  The estimates do not cover rounding
        # (they are 0.0 when two levels agree to the bit), and the swapped
        # integrand rounds a x x' in the other order, hence the 1e-13.
        pairs = data.draw(_pairs(a))
        pa = OscillatorParam(a)
        targets, sources = [x for x, _ in pairs], [xp for _, xp in pairs]
        forward = oscillator_poisson_kernel_batch(y, targets, sources, pa)
        swapped = oscillator_poisson_kernel_batch(y, sources, targets, pa)
        for k1, k2 in zip(forward, swapped):
            assert (abs(k1.value - k2.value)
                    <= k1.error_estimate + k2.error_estimate + 1e-13 * abs(k1.value))

    def test_every_pair_keeps_its_own_estimate_and_flag(self):
        # a tight budget leaves the far pairs unconverged and the near ones
        # converged; 70 pairs span two quadrature batches of at most 64
        cfg = QuadratureConfig(rel_tol=1e-14, max_refinement_depth=2)
        pa = OscillatorParam(1.0)
        sources = [0.5 * (i % 17) - 4.0 for i in range(70)]
        batch = oscillator_poisson_kernel_batch(0.3, [0.1] * 70, sources, pa, cfg)
        flags = [kv.converged for kv in batch]
        assert 0 < sum(flags) < len(flags)
        assert len({kv.error_estimate for kv in batch}) > 1
        for xp, kv in zip(sources, batch):
            one = oscillator_poisson_kernel(EvaluationPoint(0.3, 0.1, xp), pa, cfg)
            assert (kv.value, kv.error_estimate, kv.converged) == (
                one.value, one.error_estimate, one.converged)

    def test_empty_batch(self):
        assert oscillator_poisson_kernel_batch(1.0, [], [], OscillatorParam(1.0)) == []

    @pytest.mark.parametrize("targets, sources", [
        ([0.0, 1.0], [0.0]),
        ([0.0, math.nan], [0.0, 1.0]),
        ([0.0], [math.inf]),
        ([True], [0.0]),
        ([0.0, 1.0], [0.0, False]),
    ])
    def test_invalid_pairs_raise(self, targets, sources):
        with pytest.raises(ValueError):
            oscillator_poisson_kernel_batch(1.0, targets, sources,
                                            OscillatorParam(1.0))

    def test_scale_applies_to_every_pair(self):
        pa = OscillatorParam(1.0)
        base = oscillator_poisson_kernel_batch(1.0, [0.3, 0.0], [-0.2, 0.8], pa)
        scaled = oscillator_poisson_kernel_batch(1.0, [0.3, 0.0], [-0.2, 0.8], pa,
                                                 prefactor_scale=math.sqrt(2.0))
        for b, s in zip(base, scaled):
            assert s.value == pytest.approx(math.sqrt(2.0) * b.value, rel=1e-15)


class TestHalfplane:
    def test_on_diagonal(self):
        kv = halfplane_poisson_kernel(EvaluationPoint(1.0, 0.0, 0.0))
        assert kv.value == pytest.approx(1.0 / math.pi, rel=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(y=st.floats(0.05, 10.0), x=st.floats(-20.0, 20.0),
           xp=st.floats(-20.0, 20.0))
    def test_formula(self, y, x, xp):
        kv = halfplane_poisson_kernel(EvaluationPoint(y, x, xp))
        expected = y / (math.pi * (y * y + (x - xp) ** 2))
        assert kv.value == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("y", [0.2, 1.0, 5.0])
    def test_unit_mass(self, y):
        from scipy.integrate import quad

        total, _ = quad(
            lambda xp: halfplane_poisson_kernel(EvaluationPoint(y, 0.0, xp)).value,
            -math.inf, math.inf)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_kernel_value_defaults():
    kv = KernelValue(2.5)
    assert kv.error_estimate == 0.0
    assert kv.converged


def _mp_dirac(y, s):
    with mpmath.workdps(40):
        y, s = mpmath.mpf(y), mpmath.mpf(s)
        return y / (2 * mpmath.sqrt(mpmath.pi)) * s ** -1.5 * mpmath.exp(-y * y / (4 * s))


class TestExtremeArguments:
    """The closed forms return 0.0 or inf, never NaN, and raise nothing at
    extreme arguments; values are checked against 40-digit mpmath."""

    @pytest.mark.parametrize("t, x, xp, a", [
        (1.0, 1e5, -1e5, 1e300),
        (1.0, 1e200, -1e200, 1.0),
    ])
    def test_mehler_is_zero_where_the_spread_overflows(self, t, x, xp, a):
        # log K <= log of its prefactor - spread / 2, far below log(5e-324)
        with mpmath.workdps(40):
            spread = mpmath.mpf(a) / 2 * (mpmath.mpf(x) - mpmath.mpf(xp)) ** 2
            assert spread / 2 > 10 ** 300
        assert mehler_heat_kernel(t, x, xp, OscillatorParam(a)) == KernelValue(0.0)

    def test_dirac_with_an_underflowing_denominator(self):
        # s sqrt(s) underflows to 0 at s = 1e-300
        kv = dirac_kernel(EvaluationPoint(1e-160, 0.0, 1e-300))
        ref = float(_mp_dirac(1e-160, 1e-300))
        assert ref == pytest.approx(2.8209e289, rel=1e-4)
        assert kv.value == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_dirac_with_a_subnormal_square(self):
        # y^2 = 1e-320 keeps 10 bits; the dyadic rescaling keeps them all
        y, s = 1e-160, 2.5e-323
        kv = dirac_kernel(EvaluationPoint(y, 0.0, s))
        ref = float(_mp_dirac(y, s))
        assert ref == pytest.approx(2.5714e279, rel=1e-4)
        assert kv.value == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_dirac_just_below_the_overflow_threshold(self):
        # s^{3/2} underflows, so the log form runs; log P = 709.1 is past
        # 709 but below log(DBL_MAX) = 709.78, so P is finite
        kv = dirac_kernel(EvaluationPoint(1e-176, 0.0, 1e-323))
        ref = float(_mp_dirac(1e-176, 1e-323))
        assert ref == pytest.approx(9.0818e307, rel=1e-4)
        assert kv.value == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_dirac_just_past_the_overflow_threshold_is_inf(self):
        # log P = 709.793, just past log(DBL_MAX)
        kv = dirac_kernel(EvaluationPoint(2e-176, 0.0, 1e-323))
        assert _mp_dirac(2e-176, 1e-323) > sys.float_info.max
        assert kv.value == math.inf

    def test_oscillator_at_huge_a_is_zero_without_warnings(self):
        # 2at overflows to inf inside the quadrature: a zero sample, no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kv = oscillator_poisson_kernel(EvaluationPoint(1.0, 0.0, 0.0),
                                           OscillatorParam(1e300))
        assert kv.value == 0.0

    @pytest.mark.parametrize("y, target, source", [
        (1.4e154, -8.5e307, 8.5e307),   # y * y and 4 s overflow: inf / inf
        (1.4e154, -1.7e308, 1.7e308),   # s itself overflows
    ])
    def test_dirac_is_zero_where_4s_overflows(self, y, target, source):
        # there P <= 0.24 / s is below the normal range
        kv = dirac_kernel(EvaluationPoint(y, target, source))
        assert kv == KernelValue(0.0)
        with mpmath.workdps(40):
            s = mpmath.mpf(source) - mpmath.mpf(target)
            assert _mp_dirac(y, s) < sys.float_info.min
        assert 4.0 * (source - target) == math.inf

    @pytest.mark.parametrize("y, dx", [
        (1e-200, 0.0),      # y^2 underflows to 0
        (1e-160, 0.0),      # y^2 is subnormal
        (1.3e154, 0.0),     # pi (y^2 + dx^2) overflows
        (1e200, 1e200),     # y^2 + dx^2 overflows
    ])
    def test_halfplane_off_the_normal_range(self, y, dx):
        kv = halfplane_poisson_kernel(EvaluationPoint(y, dx, 0.0))
        with mpmath.workdps(40):
            y_, dx_ = mpmath.mpf(y), mpmath.mpf(dx)
            ref = float(y_ / (mpmath.pi * (y_ * y_ + dx_ * dx_)))
        assert kv.value == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_euler_with_a_subnormal_source(self):
        # (|xi| - |xi'|) / |xi'| overflows, log |xi / xi'| = 712.4 does not
        y, xi, xip, a = 120.0, 0.5, 1e-310, 1.0
        kv = euler_kernel(EvaluationPoint(y, xi, xip), OscillatorParam(a))
        with mpmath.workdps(40):
            L = mpmath.log(mpmath.mpf(xi) / mpmath.mpf(xip))
            ref = float(mpmath.sqrt(a / (2 * mpmath.pi)) * (y / mpmath.mpf(xip))
                        * L ** -1.5 * mpmath.exp(-a * y * y / (2 * L)))
        assert math.isfinite(ref) and ref > 1e300
        assert kv.value == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_oscillator_pairs_whose_spread_overflows_are_zero(self):
        pa = OscillatorParam(1e300)
        kv = oscillator_poisson_kernel(EvaluationPoint(1.0, 1e5, -1e5), pa)
        assert kv == KernelValue(0.0)
        # in a batch, the other pairs keep their solo results
        one = OscillatorParam(1.0)
        row = oscillator_poisson_kernel_batch(1.0, [0.3, 1e200, 0.0],
                                              [-0.2, -1e200, 0.8], one)
        assert row[1] == KernelValue(0.0)
        for kv, (x, xp) in zip(row[::2], [(0.3, -0.2), (0.0, 0.8)]):
            assert kv == oscillator_poisson_kernel(EvaluationPoint(1.0, x, xp), one)
