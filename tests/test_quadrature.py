"""Double-exponential quadrature on (0, inf): closed forms and contracts."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import kv

from poissonline import quadrature
from poissonline.quadrature import (
    IntegrandEvaluationError,
    QuadratureConfig,
    integrate_semi_infinite,
    integrate_semi_infinite_batch,
    subordination_base_residual,
    subordination_derived_residual,
)

SQRT_PI = math.sqrt(math.pi)


def exp_decay(u):
    return np.ones_like(u), -u


def gamma_half(u):
    # u^{-1/2} e^{-u}, integral Gamma(1/2) = sqrt(pi)
    return np.ones_like(u), -0.5 * np.log(u) - u


def signed(u):
    # (u - 2) e^{-u}, integral Gamma(2) - 2 Gamma(1) = -1
    with np.errstate(divide="ignore"):
        return np.sign(u - 2.0), np.log(np.abs(u - 2.0)) - u


def bump(u):
    # C-inf bump of radius 2 at u = 6: zero outside (4, 8)
    z = (u - 6.0) / 2.0
    inside = np.abs(z) < 1.0
    zc = np.where(inside, z, 0.0)
    logmag = np.where(inside, 1.0 - 1.0 / (1.0 - zc * zc), -np.inf)
    return np.where(inside, 1.0, 0.0), logmag


# integral of e^{1 - 1/(1-z^2)} over (-1, 1), and of `bump`
BUMP_INTEGRAL = 1.2069003224378763
BUMP_MASS = 2.0 * BUMP_INTEGRAL


def test_exponential_integral():
    res = integrate_semi_infinite(exp_decay)
    assert res.converged
    assert res.value == pytest.approx(1.0, rel=1e-12)


def test_gamma_half_integral():
    res = integrate_semi_infinite(gamma_half)
    assert res.converged
    assert res.value == pytest.approx(SQRT_PI, rel=1e-12)


def test_sign_changing_integrand():
    res = integrate_semi_infinite(signed)
    assert res.converged
    assert res.value == pytest.approx(-1.0, rel=1e-12)


def test_identically_zero_integrand():
    def zero(u):
        return np.zeros_like(u), np.full_like(u, -np.inf)

    res = integrate_semi_infinite(zero)
    assert res.value == 0.0
    assert res.error_estimate == 0.0
    assert res.converged


def test_error_estimate_honours_tolerance():
    for rel_tol in (1e-6, 1e-10, 1e-12):
        cfg = QuadratureConfig(rel_tol=rel_tol)
        res = integrate_semi_infinite(gamma_half, cfg)
        assert res.converged
        assert res.error_estimate <= max(cfg.abs_tol, rel_tol * abs(res.value))


def test_deterministic_replay():
    a = integrate_semi_infinite(gamma_half)
    b = integrate_semi_infinite(gamma_half)
    assert a.value == b.value
    assert a.error_estimate == b.error_estimate
    assert a.evaluations == b.evaluations


def test_non_finite_sample_is_reported_with_abscissa():
    def bad(u):
        return np.ones_like(u), np.where(u > 3.0, np.nan, -u)

    with pytest.raises(IntegrandEvaluationError, match="u="):
        integrate_semi_infinite(bad)


def test_overflowing_sample_is_reported_without_a_warning():
    # the quadrature ignores numpy overflow, but an overflow that reaches a
    # sample as +inf still raises
    def bad(u):
        return np.ones_like(u), np.where(u > 3.0, u * 1e308 * 10.0, -u)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrandEvaluationError, match="u="):
            integrate_semi_infinite(bad)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=1.5)


@settings(max_examples=30, deadline=None)
@given(t=st.floats(0.2, 4.0), lam=st.floats(0.2, 4.0))
def test_base_subordination_identity(t, lam):
    assert subordination_base_residual(t, lam) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(t=st.floats(0.2, 4.0), lam=st.floats(0.2, 4.0))
def test_derived_subordination_identity(t, lam):
    assert subordination_derived_residual(t, lam) <= 1e-10


def test_subordination_rejects_nonpositive_arguments():
    with pytest.raises(ValueError):
        subordination_base_residual(0.0, 1.0)
    with pytest.raises(ValueError):
        subordination_derived_residual(1.0, -2.0)


@settings(max_examples=60, deadline=None)
@given(nu=st.floats(-2.5, 2.5, allow_subnormal=False),  # kv(5e-324, x) is nan
       log10_peak=st.floats(-6.0, 6.0),
       sharpness=st.floats(0.05, 40.0))
def test_bessel_k_closed_form(nu, log10_peak, sharpness):
    # integral_0^inf u^{nu-1} e^{-bu-c/u} du = 2 (c/b)^{nu/2} K_nu(2 sqrt(bc)),
    # with b, c chosen so that 2 sqrt(bc) = sharpness and u f(u) peaks at
    # u* = (nu + sqrt(nu^2 + 4bc)) / (2b) = 10**log10_peak
    u_star = 10.0 ** log10_peak
    b = (nu + math.hypot(nu, sharpness)) / (2.0 * u_star)
    c = sharpness * sharpness / (4.0 * b)
    ref = 2.0 * (c / b) ** (0.5 * nu) * kv(nu, sharpness)

    def integrand(u):
        return np.ones_like(u), (nu - 1.0) * np.log(u) - b * u - c / u

    res = integrate_semi_infinite(integrand)
    assert res.converged
    assert abs(res.value - ref) <= res.error_estimate + 1e-12 * abs(ref)


class _Recorder:
    """Wraps an integrand and keeps a copy of every abscissa array."""

    def __init__(self, integrand):
        self.integrand = integrand
        self.calls = []

    def __call__(self, u):
        self.calls.append(np.array(u, copy=True))
        return self.integrand(u)


def _poisoned(integrand, abscissa):
    def poisoned(u):
        sign, logmag = integrand(u)
        return sign, np.where(u == abscissa, np.nan, logmag)
    return poisoned


def _first_seen_in(calls, index):
    """An abscissa of calls[index] that no earlier call sampled."""
    earlier = np.concatenate(calls[:index])
    fresh = calls[index][~np.isin(calls[index], earlier)]
    assert fresh.size
    return float(fresh[fresh.size // 2])


def test_nan_first_drawn_in_a_refinement_level_is_reported():
    clean = _Recorder(gamma_half)
    integrate_semi_infinite(clean)
    # the last call draws the odd samples of the finest level
    target = _first_seen_in(clean.calls, len(clean.calls) - 1)
    with pytest.raises(IntegrandEvaluationError) as exc:
        integrate_semi_infinite(_poisoned(gamma_half, target))
    assert exc.value.abscissa == target


def test_nan_first_drawn_in_a_tail_block_is_reported():
    clean = _Recorder(gamma_half)
    integrate_semi_infinite(clean)
    scan = clean.calls[0]
    # the outermost sample of the upper tail, which the scan never drew
    later = np.concatenate(clean.calls[1:])
    target = float(later[~np.isin(later, scan)].max())
    with pytest.raises(IntegrandEvaluationError) as exc:
        integrate_semi_infinite(_poisoned(gamma_half, target))
    assert exc.value.abscissa == target


@pytest.mark.parametrize("integrand", [gamma_half, signed, bump])
def test_evaluations_count_every_abscissa(integrand):
    rec = _Recorder(integrand)
    res = integrate_semi_infinite(rec)
    assert res.evaluations == sum(u.size for u in rec.calls)


def test_tail_found_warm_after_halving_is_extended():
    # u e^{-u} is cut at w = log(u / u*) = 5 on the base grid (step 0.5,
    # u* = 1).  Two bumps of weight A sit at w = 4.75, which only the first
    # halving samples, and at w = 5.25, beyond that cut: it is integrated
    # only if the warm tail is pushed further out.
    amp, half_width = 0.2, 0.2
    centers = (4.75, 5.25)

    def integrand(u):
        t = np.log(u)
        mag = np.exp(-u)
        for c in centers:
            z = (t - c) / half_width
            inside = np.abs(z) < 1.0
            zc = np.where(inside, z, 0.0)
            mag = mag + np.where(inside, amp * np.exp(1.0 - 1.0 / (1.0 - zc * zc)), 0.0) / u
        with np.errstate(divide="ignore"):
            return np.where(mag > 0.0, 1.0, 0.0), np.log(mag)

    res = integrate_semi_infinite(integrand)
    assert res.converged
    exact = 1.0 + len(centers) * amp * half_width * BUMP_INTEGRAL
    assert res.value == pytest.approx(exact, rel=1e-9)


def test_tail_at_the_log_u_cap_is_not_extended_past_it(monkeypatch):
    # u f(u) ~ u^{-1e-4} never falls _DECAY_CUTOFF below its peak, so the
    # upper tail runs into the |log u| cap and is still warm after every
    # halving; the result is reported, unconverged, instead of raising
    def slow(u):
        return np.ones_like(u), -1.0001 * np.log1p(u)

    monkeypatch.setattr(quadrature, "_MAX_REFINEMENT_DEPTH", 3)
    res = integrate_semi_infinite(slow)
    assert math.isfinite(res.value)
    assert not res.converged


# -- k components in lockstep -------------------------------------------------

_ONE_ROW = {"exp_decay": exp_decay, "gamma_half": gamma_half, "signed": signed,
            "bump": bump}


def _rows_of(integrands):
    """A batched integrand whose component j is integrands[j]."""
    def batch(u, rows):
        out = [integrands[r](line) for r, line in zip(rows.tolist(), u)]
        sign = [np.broadcast_to(s, line.shape) for (s, _), line in zip(out, u)]
        logmag = [np.broadcast_to(g, line.shape) for (_, g), line in zip(out, u)]
        return np.array(sign), np.array(logmag)
    return batch


def test_batch_of_copies_costs_the_integrand_calls_of_one():
    # the components share every integrand call: a per-component loop
    # would make 64 times as many
    shapes = []

    def batch(u, rows):
        shapes.append(u.shape)
        return np.ones_like(u), -0.5 * np.log(u) - u

    (one,) = integrate_semi_infinite_batch(batch, 1)
    calls_for_one = len(shapes)
    shapes.clear()
    many = integrate_semi_infinite_batch(batch, 64)
    assert len(shapes) == calls_for_one
    assert min(rows for rows, _ in shapes) >= 64     # every call serves all 64
    assert many == [one] * 64


def test_each_component_is_its_own_scalar_integral():
    # different centres, tails, supports and a vanishing component; each
    # result is exactly what the component gives alone
    def zero(u):
        return np.zeros_like(u), np.full_like(u, -np.inf)

    names = ["gamma_half", "bump", "signed", "exp_decay"]
    integrands = [_ONE_ROW[n] for n in names] + [zero]
    batch = integrate_semi_infinite_batch(_rows_of(integrands), len(integrands))
    for integrand, res in zip(integrands, batch):
        assert res == integrate_semi_infinite(integrand)
    assert batch[1].value == pytest.approx(BUMP_MASS, rel=1e-12)
    assert batch[-1] == batch[-1].__class__(0.0, 0.0, batch[-1].evaluations, True)


def test_components_converge_and_stop_on_their_own(monkeypatch):
    # the tolerance is met at different depths: the slow component keeps
    # refining while the fast one is frozen, and only the slow one may
    # miss a small refinement budget
    monkeypatch.setattr(quadrature, "_MAX_REFINEMENT_DEPTH", 2)
    cfg = QuadratureConfig(rel_tol=1e-12)
    integrands = [exp_decay, _ONE_ROW["bump"]]
    batch = integrate_semi_infinite_batch(_rows_of(integrands), 2, cfg)
    alone = [integrate_semi_infinite(f, cfg) for f in integrands]
    assert batch == alone
    assert batch[0].evaluations != batch[1].evaluations


def test_batch_of_none_and_invalid_k():
    assert integrate_semi_infinite_batch(_rows_of([]), 0) == []
    for k in (-1, 1.0, True):
        with pytest.raises(ValueError):
            integrate_semi_infinite_batch(_rows_of([exp_decay]), k)


def test_non_finite_sample_in_one_component_is_reported():
    def bad(u):
        return np.ones_like(u), np.where(u > 3.0, np.nan, -u)

    with pytest.raises(IntegrandEvaluationError, match="u="):
        integrate_semi_infinite_batch(_rows_of([exp_decay, bad]), 2)
