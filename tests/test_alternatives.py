"""Alternative samplers against their joint c.d.f. oracles."""

import hashlib

import numpy as np
import pytest
from scipy import stats

from unicube import AlternativeSpec, RandomStream
from unicube.alternatives import copula_cdf, parse_alternative, sample_alternative

KS_CRIT_1PCT = 1.628  # asymptotic Kolmogorov 1% point, scaled by sqrt(n)


def draw(spec, n, seed=123):
    return sample_alternative(RandomStream(seed), spec, n).data


class TestSpecValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(family="amh", theta=1.0),
        dict(family="amh", theta=-1.5),
        dict(family="fgm", theta=1.2),
        dict(family="clayton", theta=0.0),
        dict(family="clayton", theta=-1.5),
        dict(family="plackett", theta=0.0),
        dict(family="plackett", theta=-2.0),
        dict(family="beta-iid", alpha=0.0, beta=1.0),
        dict(family="normal-copula", rho=1.0, p=3),
        dict(family="normal-copula", rho=-0.6, p=3),
        dict(family="uniform", theta=3.0),
        dict(family="clayton", theta=2.0, rho=0.3),
        dict(family="clayton", theta=float("inf")),
        dict(family="clayton", theta=float("nan")),
        dict(family="beta-iid", alpha=float("inf"), beta=1.0),
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            AlternativeSpec(**kwargs)

    def test_bivariate_families_need_p2(self):
        with pytest.raises(ValueError):
            AlternativeSpec(family="clayton", theta=2.0, p=3)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            AlternativeSpec(family="gumbel", theta=2.0)


class TestParse:
    def test_examples(self):
        spec = parse_alternative("clayton:theta=2")
        assert spec.family == "clayton" and spec.theta == 2.0
        spec = parse_alternative("beta:alpha=0.5,beta=3")
        assert spec.family == "beta-iid"
        assert spec.alpha == 0.5 and spec.beta == 3.0
        spec = parse_alternative("normal-copula:rho=0.3,p=6")
        assert spec.rho == 0.3 and spec.p == 6
        assert parse_alternative("uniform:p=3").p == 3

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_alternative("clayton:theta")
        with pytest.raises(ValueError):
            parse_alternative("clayton:scale=2")
        with pytest.raises(ValueError):
            parse_alternative("clayton:theta=2,theta=3")
        with pytest.raises(ValueError):
            parse_alternative("nope:theta=1")


class TestCopulaCdf:
    @pytest.mark.parametrize("spec", [
        AlternativeSpec("amh", theta=0.9),
        AlternativeSpec("fgm", theta=1.0),
        AlternativeSpec("clayton", theta=2.0),
        AlternativeSpec("plackett", theta=5.0),
    ])
    def test_uniform_margins(self, spec):
        for x in (0.13, 0.5, 0.86):
            assert copula_cdf(spec, x, 1.0) == pytest.approx(x, abs=1e-12)
            assert copula_cdf(spec, 1.0, x) == pytest.approx(x, abs=1e-12)

    def test_amh_value(self):
        spec = AlternativeSpec("amh", theta=0.9)
        assert copula_cdf(spec, 0.5, 0.5) == pytest.approx(0.25 / (1 - 0.9 * 0.25),
                                                           abs=1e-15)

    def test_clayton_value(self):
        spec = AlternativeSpec("clayton", theta=2.0)
        assert copula_cdf(spec, 0.5, 0.5) == pytest.approx(7.0 ** -0.5, abs=1e-15)

    def test_plackett_continuous_at_independence(self):
        for th in (1.0 + 1e-6, 1.0 - 1e-6):
            spec = AlternativeSpec("plackett", theta=th)
            assert copula_cdf(spec, 0.3, 0.7) == pytest.approx(0.21, abs=1e-6)
        exact = AlternativeSpec("plackett", theta=1.0)
        assert copula_cdf(exact, 0.3, 0.7) == pytest.approx(0.21, abs=1e-9)

    def test_non_bivariate_unsupported(self):
        with pytest.raises(ValueError):
            copula_cdf(AlternativeSpec("beta-iid", alpha=1.0, beta=1.0), 0.5, 0.5)


class TestSamplers:
    def test_deterministic(self):
        spec = AlternativeSpec("plackett", theta=5.0)
        a = draw(spec, 100, seed=9)
        b = draw(spec, 100, seed=9)
        assert np.array_equal(a, b)

    def test_fgm_theta_zero_is_independent(self):
        data = draw(AlternativeSpec("fgm", theta=0.0), 100_000)
        tau, _ = stats.kendalltau(data[:, 0], data[:, 1])
        n = data.shape[0]
        se = np.sqrt(2.0 * (2 * n + 5) / (9.0 * n * (n - 1)))
        assert abs(tau) < 3.0 * se

    def test_beta11_is_uniform(self):
        data = draw(AlternativeSpec("beta-iid", alpha=1.0, beta=1.0), 100_000)
        for j in range(2):
            d = stats.kstest(data[:, j], "uniform").statistic
            assert d < KS_CRIT_1PCT / np.sqrt(data.shape[0])

    def test_clayton_joint_cdf_point(self):
        data = draw(AlternativeSpec("clayton", theta=2.0), 1_000_000)
        c = float(np.mean((data[:, 0] <= 0.5) & (data[:, 1] <= 0.5)))
        target = 7.0 ** -0.5
        se = np.sqrt(target * (1 - target) / data.shape[0])
        assert abs(c - target) < 3.0 * se

    @pytest.mark.parametrize("seed,spec", [
        (301, AlternativeSpec("amh", theta=0.9)),
        (302, AlternativeSpec("amh", theta=-0.7)),
        (303, AlternativeSpec("fgm", theta=1.0)),
        (304, AlternativeSpec("clayton", theta=2.0)),
        (305, AlternativeSpec("clayton", theta=-0.5)),
        (306, AlternativeSpec("plackett", theta=5.0)),
        (307, AlternativeSpec("plackett", theta=0.25)),
    ])
    def test_joint_cdf_grid(self, seed, spec):
        # Empirical joint c.d.f. against the closed form on a 5x5 grid.
        data = draw(spec, 1_000_000, seed=seed)
        n = data.shape[0]
        grid = (0.1, 0.3, 0.5, 0.7, 0.9)
        for u in grid:
            left = data[:, 0] <= u
            for v in grid:
                emp = float(np.mean(left & (data[:, 1] <= v)))
                c = copula_cdf(spec, u, v)
                band = 3.0 * np.sqrt(max(c * (1 - c), 1e-12) / n)
                assert abs(emp - c) < band, (spec.family, u, v, emp, c)

    @pytest.mark.parametrize("seed,spec", [
        (401, AlternativeSpec("amh", theta=0.9)),
        (402, AlternativeSpec("fgm", theta=-1.0)),
        (403, AlternativeSpec("clayton", theta=2.0)),
        (404, AlternativeSpec("plackett", theta=5.0)),
        (405, AlternativeSpec("normal-copula", rho=0.4, p=3)),
    ])
    def test_copula_margins_uniform(self, seed, spec):
        data = draw(spec, 100_000, seed=seed)
        for j in range(data.shape[1]):
            d = stats.kstest(data[:, j], "uniform").statistic
            assert d < KS_CRIT_1PCT / np.sqrt(data.shape[0]), (spec.family, j)

    def test_normal_copula_rho_zero_independent(self):
        data = draw(AlternativeSpec("normal-copula", rho=0.0, p=2), 100_000)
        r = np.corrcoef(data[:, 0], data[:, 1])[0, 1]
        assert abs(r) < 3.0 / np.sqrt(data.shape[0])
        d = stats.kstest(data[:, 0], "uniform").statistic
        assert d < KS_CRIT_1PCT / np.sqrt(data.shape[0])

    def test_normal_copula_kendall_tau(self):
        # For a normal copula, tau = (2/pi) arcsin(rho).
        data = draw(AlternativeSpec("normal-copula", rho=0.5, p=2), 50_000)
        tau, _ = stats.kendalltau(data[:, 0], data[:, 1])
        assert tau == pytest.approx(2.0 / np.pi * np.arcsin(0.5), abs=0.01)

    def test_uniform_family(self):
        data = draw(AlternativeSpec("uniform", p=3), 1000)
        assert data.shape == (1000, 3)

    def test_clayton_frechet_lower_bound(self):
        data = draw(AlternativeSpec("clayton", theta=-1.0), 1000)
        np.testing.assert_allclose(data[:, 1], 1.0 - data[:, 0], atol=1e-12)

    # sha256 of sample_alternative(RandomStream(5), spec, 50).data, one spec per
    # family: a change in the last bit of any draw shows here, where the power
    # CSV pins, which print powers to 4 decimals, cannot see it.
    @pytest.mark.parametrize("spec, digest", [
        (AlternativeSpec("uniform", p=3),
         "c80e04795aedc69bce4762d0fca40689a41bb06d770145ae70a2c4c2fb2b90da"),
        (AlternativeSpec("amh", theta=0.9),
         "3a423b7bdfb34f0022fcd0173da4787eb01036fbb7c7e7799442bac9e850eea7"),
        (AlternativeSpec("fgm", theta=1.0),
         "089672366efc5e18196e40012885f41479a465016441fe04c71239abb1f41a07"),
        (AlternativeSpec("clayton", theta=2.0),
         "7e5f788127c32622f95087d0a16b871dba1c9185022b6fca3f34a7db5fa2de4d"),
        (AlternativeSpec("plackett", theta=5.0),
         "239ef24879274f9db9fcc201685dce5172598c4908af9ae4dd9aa747383cb51a"),
        (AlternativeSpec("beta-iid", alpha=0.5, beta=3.0),
         "56b4b94d661c8175ce187c131299e66adfb3723c55c2b9957aa227d8b3e940e0"),
        (AlternativeSpec("normal-copula", rho=0.3, p=6),
         "ad2b509aea36c811a4dda3112e6979afee484b9beab356300b197350f3ec9480"),
    ])
    def test_sample_bits_pinned(self, spec, digest):
        data = draw(spec, 50, seed=5)
        assert data.dtype == np.float64 and data.flags.c_contiguous
        assert hashlib.sha256(data.tobytes()).hexdigest() == digest
