"""Shared numerical helpers: the numpy spline against scipy's, and the
Gauss-Kronrod 7/15 rule."""

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from poissonline.numerics import gauss_kronrod15, leggauss, not_a_knot_spline
from poissonline.solvers import InitialData

SIZES = [4, 5, 6, 7, 10, 33, 201, 1001]


def _grid(kind: str, n: int, rng) -> np.ndarray:
    if kind == "uniform":
        return np.linspace(-2.0, 3.0, n)
    # random spacings between 0.05 and 1, so no two nodes nearly coincide
    return -4.0 + np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, n - 1))])


@pytest.mark.parametrize("kind", ["uniform", "random"])
@pytest.mark.parametrize("n", SIZES)
def test_matches_scipy_not_a_knot(kind, n):
    rng = np.random.default_rng(1000 * n + len(kind))
    grid = _grid(kind, n, rng)
    values = rng.normal(size=n)
    pts = np.concatenate([grid, rng.uniform(grid[0], grid[-1], 4000)])
    ref = CubicSpline(grid, values)(pts)
    ours = not_a_knot_spline(grid, values)(pts)
    assert np.max(np.abs(ours - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_reproduces_cubics_exactly():
    # not-a-knot ends make the interpolant exact for any cubic
    grid = np.array([-1.0, -0.2, 0.1, 0.9, 1.7, 2.0])
    cubic = lambda x: 0.5 - x + 2.0 * x ** 2 - 0.75 * x ** 3
    pts = np.linspace(-1.0, 2.0, 301)
    spline = not_a_knot_spline(grid, cubic(grid))
    np.testing.assert_allclose(spline(pts), cubic(pts), rtol=0, atol=1e-13)


def test_sampled_preset_matches_scipy_inside_and_vanishes_outside():
    grid = np.linspace(-5.0, 5.0, 1001)
    values = np.exp(-grid ** 2) * (1.0 + 0.3 * np.sin(5.0 * grid))
    data = InitialData.sampled(grid, values)
    inside = np.linspace(-5.0, 5.0, 7919)
    ref = CubicSpline(grid, values)(inside)
    assert np.max(np.abs(data(inside) - ref)) <= 1e-13
    assert np.all(data(np.array([-5.001, 5.001, -40.0, 40.0])) == 0.0)


def _monomial_errors(nodes, weights, degrees):
    return [abs(float(weights @ nodes ** d) - (2.0 / (d + 1) if d % 2 == 0 else 0.0))
            for d in degrees]


def test_kronrod_exact_to_degree_22_and_gauss_to_13():
    nodes, kronrod, gauss = gauss_kronrod15()
    assert max(_monomial_errors(nodes, kronrod, range(23))) < 1e-15
    assert max(_monomial_errors(nodes[1::2], gauss, range(14))) < 1e-15
    # and no further: the next even degree is off
    assert _monomial_errors(nodes, kronrod, [24])[0] > 1e-9
    assert _monomial_errors(nodes[1::2], gauss, [14])[0] > 1e-5


def test_kronrod_nodes_are_symmetric_and_embed_the_gauss_rule():
    nodes, kronrod, gauss = gauss_kronrod15()
    assert nodes.shape == kronrod.shape == (15,) and gauss.shape == (7,)
    assert np.all(np.diff(nodes) < 0)
    assert np.array_equal(nodes, -nodes[::-1])
    assert np.array_equal(kronrod, kronrod[::-1])
    assert np.array_equal(gauss, gauss[::-1])
    # the odd-index Kronrod nodes carry the 7-point Gauss-Legendre rule
    g_nodes, g_weights = leggauss(7)
    np.testing.assert_allclose(nodes[1::2], g_nodes[::-1], rtol=0, atol=1e-15)
    np.testing.assert_allclose(gauss, g_weights[::-1], rtol=0, atol=1e-15)
    assert not nodes.flags.writeable and not kronrod.flags.writeable
