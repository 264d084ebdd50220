"""The normal c.d.f. and the chi-square quantile against independent oracles.

The reference values come from scipy and from direct numerical integration,
so both sides of every identity are computed independently of the
implementation under test.
"""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from unicube.alternatives import _phi
from unicube.special import chisq_quantile


class TestNormalCdf:
    """The normal-copula sampler's Phi, scipy's ndtr."""

    def test_symmetry_at_zero(self):
        assert _phi(0.0) == 0.5

    def test_symmetry_pairs(self):
        for x in (0.1, 0.7, 1.3, 2.9, 5.0):
            assert abs(_phi(x) + _phi(-x) - 1.0) < 1e-14

    def test_value_by_density_integration(self):
        # Oracle: quadrature of the normal density.
        target, _ = integrate.quad(
            lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi), -12, 1.959963985)
        assert abs(_phi(1.959963985) - target) < 1e-9
        assert abs(_phi(1.959963985) - 0.975) < 1e-9

    def test_against_scipy_grid(self):
        xs = np.linspace(-8, 8, 1001)
        ours = np.array([_phi(x) for x in xs])
        assert np.max(np.abs(ours - stats.norm.cdf(xs))) < 1e-12

    def test_strictly_increasing_and_extremes(self):
        # Strict where increments are representable; tails only non-decreasing
        # (adjacent values differ by less than double spacing beyond |x| ~ 6).
        xs = np.linspace(-6, 6, 1001)
        vals = [_phi(x) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        tails = [_phi(x) for x in np.linspace(-8, 8, 1001)]
        assert all(b >= a for a, b in zip(tails, tails[1:]))
        assert abs(_phi(-8.0) - 0.0) < 1e-15
        assert abs(_phi(8.0) - 1.0) < 1e-15


class TestChisqQuantile:
    def test_one_dof_is_squared_normal_quantile(self):
        for u in np.linspace(0.01, 0.99, 50):
            expected = stats.norm.ppf((1.0 + u) / 2.0) ** 2
            assert abs(chisq_quantile(u, 1) - expected) < 1e-8

    @pytest.mark.parametrize("f", [1, 3, 63])
    def test_endpoints(self, f):
        # The s rule passes 1 - p for p = 1 and p = 0 straight through.
        assert chisq_quantile(0.0, f) == 0.0
        assert chisq_quantile(1.0, f) == math.inf
        assert list(chisq_quantile(np.array([0.0, 1.0]), f)) == [0.0, math.inf]

    def test_median_two_dof(self):
        assert abs(chisq_quantile(0.5, 2) - 2.0 * math.log(2.0)) < 1e-9

    def test_095_three_dof_by_bracketing_oracle(self):
        # Oracle: bisection of the c.d.f., independent of the quantile path.
        lo, hi = 0.0, 50.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if stats.chi2.cdf(mid, 3) < 0.95:
                lo = mid
            else:
                hi = mid
        x = chisq_quantile(0.95, 3)
        assert abs(stats.chi2.cdf(x, 3) - 0.95) < 1e-9
        assert abs(x - 0.5 * (lo + hi)) < 1e-8

    @pytest.mark.parametrize("f", [1, 2, 5, 63, 1023])
    def test_round_trip(self, f):
        for u in np.arange(0.01, 1.0, 0.01):
            assert abs(stats.chi2.cdf(chisq_quantile(u, f), f) - u) < 1e-8

    @pytest.mark.parametrize("f", [1, 3, 10, 63])
    def test_against_scipy(self, f):
        for u in (0.001, 0.01, 0.25, 0.5, 0.9, 0.95, 0.999):
            ours = chisq_quantile(u, f)
            ref = stats.chi2.ppf(u, f)
            assert abs(ours - ref) < 1e-9 * max(1.0, ref)
