"""Helpers of the verification suites against the public kernels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poissonline.kernels import EvaluationPoint, OscillatorParam, euler_kernel
import poissonline.suites as suites
from poissonline.quadrature import QuadratureConfig
from poissonline.suites import _euler_log_kernel, _oscillator_ck_gap, run_suite


@settings(max_examples=50, deadline=None)
@given(a=st.floats(0.1, 4.0), y=st.floats(0.05, 5.0),
       r=st.floats(0.1, 10.0), fractions=st.lists(st.floats(0.01, 0.99),
                                                   min_size=1, max_size=16))
def test_array_euler_closed_form_matches_public_kernel(a, y, r, fractions):
    # the Chapman-Kolmogorov check integrates this array form; sample by
    # sample it must agree with euler_kernel, which it is checked against
    rp = r * np.array(fractions)
    got = np.exp(_euler_log_kernel(y, r, rp, a))
    ref = [euler_kernel(EvaluationPoint(y, r, float(s)), OscillatorParam(a)).value
           for s in rp]
    for g, e in zip(got, ref):
        assert math.isclose(g, e, rel_tol=1e-12, abs_tol=1e-300)


def test_sqrt2_prefactor_fails_both_oscillator_semigroup_records():
    # negative control of the batched Chapman-Kolmogorov oracle: scaling
    # the kernel by s turns the convolution into s^2 P and the direct
    # kernel into s P, so each gap reads s - 1
    reports = [r for r in run_suite("invariants", prefactor_scale=math.sqrt(2.0))
               if r.check_name.startswith("semigroup-oscillator(")]
    assert len(reports) == 2
    for r in reports:
        assert not r.passed
        assert r.measured == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-6)


@pytest.mark.parametrize("case", [(1.0, 0.5, 0.5, 0.3, -0.2),
                                  (1.0, 1.0, 0.6, 0.0, 0.8)])
def test_gate_oscillator_semigroup_gaps_stop_at_the_first_rung(case, monkeypatch):
    # cost guard: on both gate cases the K15 and G7 sums of the first rung
    # agree within the kernel error, so each batch covers that rung's
    # 18 panels x 15 nodes once; a second rung would add 1080 evaluations
    batch = suites.oscillator_poisson_kernel_batch
    pairs = []

    def counting(y, targets, sources, *args, **kwargs):
        pairs.append(len(targets))
        return batch(y, targets, sources, *args, **kwargs)

    monkeypatch.setattr(suites, "oscillator_poisson_kernel_batch", counting)
    gap = _oscillator_ck_gap(*case, QuadratureConfig(), 1.0)
    assert pairs == [270, 270]
    assert gap <= 1e-12
