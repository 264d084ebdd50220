"""Gaussian tent simulation, sheet assembly, and limiting-norm tables."""

import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import product

import numpy as np
import pytest
from scipy import integrate

import unicube.brownian
from unicube import (AsymptoticNormTable, KLConfig, RandomStream, asymptotic_norm_draws,
                     enumerate_subsets, ramp_values, simulate_sheet, truncated_sheet_covariance)
from unicube.brownian import (_BLOCK_ELEMENTS, asymptotic_cdf, default_nu_max, simulate_tent,
                              truncated_tent_kernel, truncation_tail_mean, weight_classes)


class TestSimulateTent:
    def test_boundary_exactly_zero(self):
        cfg = KLConfig(nu_max=20, grid_m=9)
        for mask in (0b1, 0b11):
            tent = simulate_tent(RandomStream(5), mask, cfg)
            k = tent.ndim
            for axis in range(k):
                assert np.all(np.take(tent, 0, axis=axis) == 0.0)
                assert np.all(np.take(tent, -1, axis=axis) == 0.0)

    def test_deterministic(self):
        cfg = KLConfig(nu_max=32, grid_m=17)
        a = simulate_tent(RandomStream(9, 4), 0b11, cfg)
        b = simulate_tent(RandomStream(9, 4), 0b11, cfg)
        assert np.array_equal(a, b)

    def test_pointwise_variance_1d(self):
        # Var T(t) = t - t^2 up to truncation loss at nu_max.
        cfg = KLConfig(nu_max=200, grid_m=5)
        draws = 10_000
        root = RandomStream(31)
        vals = np.array([simulate_tent(root.child(r), 0b1, cfg) for r in range(draws)])
        idx = 2  # lattice point t = 0.5
        t = 0.5
        target = truncated_tent_kernel(t, t, 200)
        emp = vals[:, idx].var(ddof=1)
        se = emp * np.sqrt(2.0 / (draws - 1))
        assert abs(emp - target) < 3.0 * se
        assert abs(target - (t - t * t)) < 1e-3  # truncation loss is tiny

    def test_pointwise_covariance_1d(self):
        # Kernel value min(s,t) - s t = 0.0625 at (0.25, 0.75).
        cfg = KLConfig(nu_max=200, grid_m=5)
        draws = 20_000
        root = RandomStream(77)
        vals = np.array([simulate_tent(root.child(r), 0b1, cfg) for r in range(draws)])
        prods = vals[:, 1] * vals[:, 3]
        emp = prods.mean()
        se = prods.std(ddof=1) / np.sqrt(draws)
        trunc = truncated_tent_kernel(0.25, 0.75, 200)
        assert abs(emp - trunc) < 3.0 * se
        assert abs(0.0625 - trunc) < 1e-3

    def test_variance_2d_product_kernel(self):
        cfg = KLConfig(nu_max=48, grid_m=5)
        draws = 10_000
        root = RandomStream(13)
        vals = np.array([simulate_tent(root.child(r), 0b11, cfg)[1, 3]
                         for r in range(draws)])
        s, t = 0.25, 0.75
        target = (truncated_tent_kernel(s, s, 48) * truncated_tent_kernel(t, t, 48))
        emp = vals.var(ddof=1)
        se = emp * np.sqrt(2.0 / (draws - 1))
        assert abs(emp - target) < 3.0 * se

    def test_rejects_empty_mask(self):
        with pytest.raises(ValueError):
            simulate_tent(RandomStream(1), 0)


class TestSimulateSheet:
    def test_zero_on_lower_boundary(self):
        cfg = KLConfig(nu_max=16, grid_m=7)
        sheet = simulate_sheet(RandomStream(3), 3, cfg)
        for axis in range(3):
            assert np.all(np.take(sheet, 0, axis=axis) == 0.0)

    def test_variance_at_one_1d(self):
        cfg = KLConfig(nu_max=64, grid_m=3)
        draws = 10_000
        root = RandomStream(21)
        end = np.array([simulate_sheet(root.child(r), 1, cfg)[-1] for r in range(draws)])
        emp = end.var(ddof=1)
        se = emp * np.sqrt(2.0 / (draws - 1))
        # W(1) is the ramp corner normal alone: variance exactly 1.
        assert abs(emp - 1.0) < 3.0 * se

    def test_covariance_2d_example(self):
        # Kernel 0.25 * 0.5 = 0.125 at s=(0.5,0.5), t=(0.25,0.75).
        cfg = KLConfig(nu_max=64, grid_m=5)
        draws = 20_000
        root = RandomStream(22)
        s_idx, t_idx = (2, 2), (1, 3)
        prods = np.empty(draws)
        for r in range(draws):
            sheet = simulate_sheet(root.child(r), 2, cfg)
            prods[r] = sheet[s_idx] * sheet[t_idx]
        emp = prods.mean()
        se = prods.std(ddof=1) / np.sqrt(draws)
        trunc = truncated_sheet_covariance((0.5, 0.5), (0.25, 0.75), cfg)
        assert abs(emp - trunc) < 3.0 * se
        assert abs(emp - 0.125) < 3.0 * se + abs(0.125 - trunc)

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            simulate_sheet(RandomStream(1), 5)

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_is_corner_plus_tents_ramp_sum(self, p):
        # The corner normal's ramp first, then each tent's in subset order.
        cfg = KLConfig(grid_m=5)
        stream = RandomStream(40 + p)
        expected = ramp_values(0, stream.child(0).generator().standard_normal(), 5, p)
        for index, mask in enumerate(enumerate_subsets(p, p), start=1):
            expected += ramp_values(mask, simulate_tent(stream.child(index), mask, cfg), 5, p)
        assert np.array_equal(simulate_sheet(stream, p, cfg), expected)

    def test_result_is_read_only(self):
        sheet = simulate_sheet(RandomStream(3), 2, KLConfig(grid_m=5))
        assert not sheet.flags.writeable
        with pytest.raises(ValueError):
            sheet[1, 1] = 0.0


class TestTruncatedCovariance:
    def test_kernel_converges_to_exact(self):
        assert truncated_tent_kernel(0.3, 0.7, 50_000) == pytest.approx(
            0.3 - 0.21, abs=1e-6)

    def test_sheet_covariance_approaches_product_min(self):
        cfg = KLConfig(nu_max=2000)
        s, t = (0.4, 0.8), (0.6, 0.5)
        exact = np.prod(np.minimum(s, t))
        assert truncated_sheet_covariance(s, t, cfg) == pytest.approx(exact, abs=1e-3)


class TestNormDraws:
    @pytest.mark.parametrize("k,draws", [(1, 100_000), (2, 30_000), (3, 10_000),
                                         (4, 10_000), (5, 10_000)])
    def test_mean_matches_six_power(self, k, draws):
        table = asymptotic_norm_draws(RandomStream(100 + k), k, draws=draws)
        mean = table.draws.mean()
        se = table.draws.std(ddof=1) / np.sqrt(draws)
        assert abs(mean - 6.0 ** (-k)) < 3.0 * se

    def test_rejects_empty_series(self):
        with pytest.raises(ValueError, match="nu_max"):
            asymptotic_norm_draws(RandomStream(5), 1, nu_max=0, draws=10)

    def test_nonnegative_and_sorted(self):
        table = asymptotic_norm_draws(RandomStream(5), 2, draws=5000)
        assert np.all(table.draws >= 0.0)
        assert np.all(np.diff(table.draws) >= 0.0)

    def test_deterministic(self):
        a = asymptotic_norm_draws(RandomStream(6), 1, draws=10_000)
        b = asymptotic_norm_draws(RandomStream(6), 1, draws=10_000)
        assert a == b

    def test_tail_compensation_identity(self):
        # The configured shift must equal the exact tail mean.
        for k in (1, 2, 3, 4):
            nu = default_nu_max(k)
            partial = sum(1.0 / (v * v * np.pi ** 2) for v in range(1, nu + 1))
            assert truncation_tail_mean(k, nu) == pytest.approx(
                6.0 ** (-k) - partial ** k, abs=1e-12)

    def test_compensation_toggle(self, monkeypatch):
        on = asymptotic_norm_draws(RandomStream(8), 1, nu_max=50, draws=100)
        monkeypatch.setattr(unicube.brownian, "truncation_tail_mean", lambda k, nu: 0.0)
        off = asymptotic_norm_draws(RandomStream(8), 1, nu_max=50, draws=100)
        gap = truncation_tail_mean(1, 50)
        np.testing.assert_allclose(np.sort(on.draws), np.sort(off.draws) + gap,
                                   atol=1e-15)

    def test_distinct_substreams_uncorrelated(self):
        draws = 10_000
        root = RandomStream(9)
        a = asymptotic_norm_draws(root.child(1), 1, draws=draws).draws
        b = asymptotic_norm_draws(root.child(2), 2, draws=draws).draws
        # Sorting destroyed pairing; regenerate unsorted via distinct seeds of
        # the per-draw sequence by comparing equal-index order statistics is
        # meaningless, so correlate fresh unsorted streams instead.
        rng_a = np.random.default_rng(1)
        perm = rng_a.permutation(draws)
        r = np.corrcoef(a[perm], b)[0, 1]
        assert abs(r) < 3.0 / np.sqrt(draws)

    def test_q95_consistent_across_truncation_levels(self):
        # Two truncation levels of the same series must give the same 95th
        # percentile within 2e-3. Shares the leading-term normals between the
        # levels so the comparison isolates the truncation effect.
        draws, nu_lo, nu_hi = 150_000, 200, 10_000
        w_hi, _ = weight_classes(1, nu_hi)
        lo_comp = truncation_tail_mean(1, nu_lo)
        hi_comp = truncation_tail_mean(1, nu_hi)
        root = RandomStream(4242)
        block = 2_000
        lo_vals = np.empty(draws)
        hi_vals = np.empty(draws)
        for i, start in enumerate(range(0, draws, block)):
            stop = min(start + block, draws)
            z2 = root.child(i).generator().standard_normal((stop - start, nu_hi)) ** 2
            lo_vals[start:stop] = z2[:, :nu_lo] @ w_hi[:nu_lo] + lo_comp
            hi_vals[start:stop] = z2 @ w_hi + hi_comp
        q_lo = np.quantile(lo_vals, 0.95)
        q_hi = np.quantile(hi_vals, 0.95)
        assert abs(q_lo - q_hi) < 2e-3


class TestWeightClasses:
    @pytest.mark.parametrize("k,classes", [(1, 200), (2, 1263), (3, 1130), (4, 504),
                                           (5, 1120), (6, 2226)])
    def test_class_counts_at_default_truncation(self, k, classes):
        nu = default_nu_max(k)
        weights, counts = weight_classes(k, nu)
        assert weights.shape == counts.shape == (classes,)
        assert int(counts.sum()) == nu ** k

    def test_matches_brute_force_grouping(self):
        k, nu = 3, 6
        tally = Counter(int(np.prod(v)) for v in product(range(1, nu + 1), repeat=k))
        singles = sorted(key for key, m in tally.items() if m == 1)
        shared = sorted(key for key, m in tally.items() if m > 1)
        keys = np.array(singles + shared, dtype=np.float64)
        weights, counts = weight_classes(k, nu)
        assert counts.tolist() == [tally[int(key)] for key in keys]
        np.testing.assert_allclose(weights, 1.0 / (keys ** 2 * np.pi ** (2 * k)),
                                   rtol=1e-15)

    def test_products_beyond_int64_refused(self):
        with pytest.raises(ValueError, match="64-bit"):
            weight_classes(18, 12)

    def test_k1_table_is_the_plain_normal_series(self):
        # Every k=1 class is a single term: the table must be bit-equal to
        # the pairwise row sums of squared normals times the term weights, on
        # the same stream.
        nu, draws = 200, 3000
        stream = RandomStream(71)
        assert draws <= _BLOCK_ELEMENTS // nu  # one block, child stream 0
        z = stream.child(0).generator().standard_normal((draws, nu))
        weights = 1.0 / np.arange(1, nu + 1, dtype=np.float64) ** 2 / np.pi ** 2
        expected = np.sort(np.add.reduce((z * z) * weights, axis=1)
                           + truncation_tail_mean(1, nu))
        table = asymptotic_norm_draws(stream, 1, draws=draws)
        assert table.draws.tobytes() == expected.tobytes()

    def test_blocks_drawn_through_the_scratch_keep_their_bits(self, monkeypatch):
        # Three blocks of at most 700 draws, each combined a few rows at a
        # time: bit-equal to one normal call and then one chi-square call per
        # block, and one pairwise sum per row.
        k, draws, stream = 2, 2000, RandomStream(72)
        weights, counts = weight_classes(k, default_nu_max(k))
        singles = int(np.count_nonzero(counts == 1))
        monkeypatch.setattr(unicube.brownian, "_BLOCK_ELEMENTS", 700 * weights.size)
        monkeypatch.setattr(unicube.brownian, "_SCRATCH_ELEMENTS", 1 << 15)
        parts = []
        for block, start in enumerate(range(0, draws, 700)):
            rows = min(700, draws - start)
            gen = stream.child(block).generator()
            terms = np.empty((rows, weights.size))
            terms[:, :singles] = gen.standard_normal((rows, singles)) ** 2
            terms[:, singles:] = gen.chisquare(counts[singles:],
                                               size=(rows, weights.size - singles))
            parts.append(np.add.reduce(terms * weights, axis=1)
                         + truncation_tail_mean(k, default_nu_max(k)))
        expected = np.sort(np.concatenate(parts))
        table = asymptotic_norm_draws(stream, k, draws=draws)
        assert table.draws.tobytes() == expected.tobytes()

    # Rows are combined through two 1 MB scratches, and a block's squared
    # normals (6,641 x 36 at k=2) are its only block-sized array. Holding a
    # whole (draws, classes) block peaked at 20.4 MiB for 2,000 draws and
    # 66.6 MiB for 100,000.
    @pytest.mark.parametrize("draws,mib", [(2000, 4), (100_000, 8)])
    def test_peak_within_the_scratch_bound(self, draws, mib):
        tracemalloc.start()
        try:
            asymptotic_norm_draws(RandomStream(5), 2, draws=draws)
            assert tracemalloc.get_traced_memory()[1] < mib * 2**20
        finally:
            tracemalloc.stop()

    def test_table_bits_do_not_depend_on_blas_threads(self):
        """The same table under one and two BLAS threads, in fresh processes.

        A BLAS product splits its sums by thread, which moved k=2 bits at
        this seed. On a one-CPU machine both runs take one thread, so the
        test passes without exercising the split.
        """
        code = ("import hashlib; from unicube import RandomStream, asymptotic_norm_draws; "
                "t = asymptotic_norm_draws(RandomStream(2).child(2), 2, draws=20_000); "
                "print(hashlib.sha256(t.draws.tobytes()).hexdigest())")
        src = os.path.dirname(os.path.dirname(unicube.__file__))
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                 text=True, check=True)
            digests.append(run.stdout.strip())
        assert digests[0] == digests[1]


def _imhof_cdf(x: float, weights: np.ndarray, counts: np.ndarray) -> float:
    """P(sum_c weights_c * chi2(counts_c) <= x) by Imhof's (1961) inversion of
    the characteristic function."""
    def integrand(u):
        theta = 0.5 * np.sum(counts * np.arctan(weights * u)) - 0.5 * x * u
        log_rho = 0.25 * np.sum(counts * np.log1p((weights * u) ** 2))
        return np.sin(theta) / (u * np.exp(log_rho))

    value, _ = integrate.quad(integrand, 0.0, np.inf, limit=1000)
    return 0.5 - value / np.pi


class TestImhofOracle:
    def test_oracle_reproduces_cramer_von_mises_point(self):
        # The k=1 law is the Cramer-von Mises limit; its 95% point is 0.46136.
        weights, counts = weight_classes(1, 200)
        shift = truncation_tail_mean(1, 200)
        assert _imhof_cdf(0.46136 - shift, weights, counts) == pytest.approx(0.95, abs=1e-4)

    @pytest.mark.parametrize("k,draws", [(1, 50_000), (2, 20_000)])
    def test_table_cdf_within_dkw_band(self, k, draws):
        nu = default_nu_max(k)
        weights, counts = weight_classes(k, nu)
        shift = truncation_tail_mean(k, nu)
        table = asymptotic_norm_draws(RandomStream(61).child(k), k, draws=draws)
        grid = np.quantile(table.draws, np.linspace(0.01, 0.99, 25))
        exact = np.array([_imhof_cdf(x - shift, weights, counts) for x in grid])
        empirical = np.searchsorted(table.draws, grid, side="right") / draws
        dkw = np.sqrt(np.log(2.0 / 1e-3) / (2.0 * draws))
        assert np.max(np.abs(empirical - exact)) <= dkw


class TestAsymptoticCdf:
    def test_edges_and_median(self):
        draws = np.sort(np.random.default_rng(0).random(999))
        table = AsymptoticNormTable(k=1, draws=draws, nu_max=10, seed=0)
        assert asymptotic_cdf(table, draws[0] - 1.0) == 0.0
        assert asymptotic_cdf(table, draws[-1] + 1.0) == 1.0
        med = float(np.median(draws))
        assert abs(asymptotic_cdf(table, med) - 0.5) <= 1.0 / 999
