"""Tent statistics: pair factors, squared norms, pointwise evaluation.

Oracles: numerical integration of the defining integrals (scipy quad and
midpoint Riemann sums over the evaluation formula), plus closed-form values
worked out from the pair-factor definition.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

import unicube.inference
from unicube import RandomStream, Sample, enumerate_subsets, tent_norm, uniform_sample
from unicube import tents
from unicube.tents import _norms_for_masks, all_tent_norms, null_norm_mean, pair_factor, tent_eval


def bridge_cross_integral(u, v):
    """Independent oracle: integral over [0,1] of (1{u<=t}-t)(1{v<=t}-t)."""
    val, _ = integrate.quad(
        lambda t: (float(u <= t) - t) * (float(v <= t) - t), 0.0, 1.0,
        points=sorted({u, v}))
    return val


def riemann_norm(sample: Sample, mask: int, m: int = 200) -> float:
    """Midpoint Riemann sum of tent_eval^2 over the face of the mask."""
    members = [j for j in range(sample.p) if mask >> j & 1]
    k = len(members)
    mids = (np.arange(m) + 0.5) / m
    # Per-observation factor matrices along each face axis.
    factor = [
        (sample.data[:, [j]] <= mids[None, :]).astype(float) - mids[None, :]
        for j in members
    ]
    if k == 1:
        grid = factor[0].sum(axis=0)
    elif k == 2:
        grid = np.einsum("ia,ib->ab", factor[0], factor[1])
    elif k == 3:
        grid = np.einsum("ia,ib,ic->abc", factor[0], factor[1], factor[2])
    else:
        raise NotImplementedError("oracle covers cardinality <= 3")
    grid /= np.sqrt(sample.n)
    return float(np.mean(grid ** 2))


class TestPairFactor:
    # Frozen values, each cross-checked by quadrature below:
    # f(0,0) = 1/3, f(.5,.5) = 1/12, f(0,1) = -1/6.
    @pytest.mark.parametrize("u,v,expected", [
        (0.0, 0.0, 1.0 / 3.0),
        (0.5, 0.5, 1.0 / 12.0),
        (0.0, 1.0, -1.0 / 6.0),
    ])
    def test_frozen_values(self, u, v, expected):
        assert pair_factor(u, v) == pytest.approx(expected, abs=1e-15)
        assert bridge_cross_integral(u, v) == pytest.approx(expected, abs=1e-12)

    def test_matches_integral_on_random_pairs(self):
        rng = np.random.default_rng(42)
        for u, v in rng.random((25, 2)):
            assert pair_factor(u, v) == pytest.approx(
                bridge_cross_integral(u, v), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for u, v in rng.random((50, 2)):
            assert pair_factor(u, v) == pair_factor(v, u)

    def test_scalar_moments_match_quadrature(self):
        # E f(U,U) = 1/6 and E f(U,V) = 0; these power the null-mean identity.
        diag, _ = integrate.quad(lambda u: pair_factor(u, u), 0, 1)
        assert diag == pytest.approx(1.0 / 6.0, abs=1e-10)
        cross, _ = integrate.dblquad(pair_factor, 0, 1, 0, 1)
        assert cross == pytest.approx(0.0, abs=1e-8)


class TestTentNorm:
    def test_single_point_half(self):
        # Equals f(.5,.5) = 1/12; Riemann oracle on a 10^4 point grid agrees.
        s = Sample([[0.5]])
        assert tent_norm(s, 1) == pytest.approx(1.0 / 12.0, abs=1e-15)
        assert riemann_norm(s, 1, m=10_000) == pytest.approx(1.0 / 12.0, rel=1e-4)

    def test_two_extreme_points(self):
        # (1/2)[f(0,0) + f(1,1) + 2 f(0,1)] = 1/6.
        s = Sample([[0.0], [1.0]])
        assert tent_norm(s, 1) == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_product_structure_two_dims(self):
        s = Sample([[0.5, 0.5]])
        assert tent_norm(s, 0b11) == pytest.approx((1.0 / 12.0) ** 2, abs=1e-15)

    def test_riemann_oracle_p2(self):
        s = uniform_sample(RandomStream(11), 10, 2)
        for mask in enumerate_subsets(2, 2):
            assert tent_norm(s, mask) == pytest.approx(
                riemann_norm(s, mask, m=200), rel=2e-2)

    def test_rejects_empty_mask(self):
        with pytest.raises(ValueError):
            tent_norm(Sample([[0.5]]), 0)

    def test_nonnegative(self):
        for seed in range(5):
            s = uniform_sample(RandomStream(seed), 17, 3)
            for mask in enumerate_subsets(3, 3):
                assert tent_norm(s, mask) >= 0.0

    def test_duplicate_rows_legal(self):
        s = Sample(np.full((4, 2), 0.25))
        assert tent_norm(s, 0b11) > 0.0


class TestAllTentNorms:
    def test_matches_per_subset_calls_exactly(self):
        s = uniform_sample(RandomStream(3), 20, 3)
        norms = all_tent_norms(s, 3)
        for mask in enumerate_subsets(3, 3):
            assert norms[mask] == tent_norm(s, mask)

    def test_keys_and_marginals(self):
        s = uniform_sample(RandomStream(4), 15, 4)
        norms = all_tent_norms(s, 1)
        assert list(norms) == enumerate_subsets(4, 1)
        for j in range(4):
            column = Sample(s.data[:, [j]])
            assert norms[1 << j] == pytest.approx(tent_norm(column, 1), abs=1e-15)

    def test_full_family_sum_identity(self):
        # Per pair, sum over nonempty subsets of factor products equals
        # prod_j (1 + a_j) - 1; summing pairs carries it to the norms.
        s = uniform_sample(RandomStream(5), 12, 3)
        norms = all_tent_norms(s, 3)
        total = sum(norms[m] for m in list(norms))
        n = s.n
        expected = 0.0
        for a in range(n):
            for b in range(n):
                prod = 1.0
                for j in range(3):
                    prod *= 1.0 + pair_factor(s.data[a, j], s.data[b, j])
                expected += prod - 1.0
        assert total == pytest.approx(expected / n, abs=1e-12)

    def test_row_permutation_invariance(self):
        s = uniform_sample(RandomStream(6), 25, 2)
        shuffled = Sample(s.data[np.random.default_rng(0).permutation(25)])
        a = all_tent_norms(s, 2)
        b = all_tent_norms(shuffled, 2)
        for mask in list(a):
            assert a[mask] == b[mask]

    def test_column_relabeling_moves_masks(self):
        s = uniform_sample(RandomStream(8), 18, 3)
        swapped = Sample(s.data[:, [1, 0, 2]])
        a = all_tent_norms(s, 3)
        b = all_tent_norms(swapped, 3)
        remap = {0b001: 0b010, 0b010: 0b001, 0b100: 0b100,
                 0b011: 0b011, 0b101: 0b110, 0b110: 0b101, 0b111: 0b111}
        for mask, target in remap.items():
            assert a[mask] == pytest.approx(b[target], rel=1e-12)


def _block_rows(n):
    """Rows per block of the kernel at sample size n."""
    return tents._BLOCK_BYTES // (8 * min(tents._PAIR_TILE, n * (n + 1) // 2))


class TestRowBlocks:
    # Batches of whole blocks plus extra rows: ending inside, at and past a
    # block boundary. n=50 fills 512-pair tiles; n=20 has one tile of 210
    # pairs, so its blocks hold more rows. At p=10 a batched call computes
    # its pair factors in slabs of one or a few coordinates, and a one-row
    # call in one slab of all ten.
    @pytest.mark.parametrize("n,p", [pytest.param(20, 4, id="20"), pytest.param(50, 4, id="50"),
                                     pytest.param(20, 10, id="20-p10"),
                                     pytest.param(50, 10, id="50-p10")])
    @pytest.mark.parametrize("blocks,extra", [(0, 31), (0, 32), (0, 33), (0, 70),
                                              (1, -1), (1, 0), (1, 1), (2, 6)])
    def test_rows_equal_their_one_row_calls(self, n, p, blocks, extra):
        b = blocks * _block_rows(n) + extra
        batch = np.random.default_rng(b).random((b, n, p))
        masks = enumerate_subsets(p, 4)
        whole = _norms_for_masks(batch, masks)
        singles = np.array([_norms_for_masks(item[None], masks)[0] for item in batch])
        assert singles.view(np.uint64).tolist() == whole.view(np.uint64).tolist()


class TestSingleSample:
    # A batch of fewer rows than a block is scored several full tiles per
    # step. Pair counts k*512 - 1 (n=90), k*512 + 1 (n=1022) and k*512
    # (n=1023); n=256 and n=300 have more pairs than one index chunk of 64
    # tiles; n=1 has one pair; "grid" is a one-decimal grid, with ties in
    # every coordinate. Rows 0, 63, 64 and 299 of the 300 lie in the first
    # and the second row block of a batched call and at its end.
    @pytest.mark.parametrize("n,p", [(1, 3), (90, 3), (256, 3), (300, 3), (1022, 1),
                                     (1023, 1), ("grid", 4)])
    def test_single_equals_its_row_in_a_batch(self, n, p):
        rng = np.random.default_rng(7)
        batch = (np.round(rng.random((300, 50, p)), 1) if n == "grid"
                 else rng.random((300, n, p)))
        masks = enumerate_subsets(p, p)
        whole = _norms_for_masks(batch.copy(), masks)
        for row in (0, 63, 64, 299):
            single = _norms_for_masks(batch[row:row + 1].copy(), masks)[0]
            pair = _norms_for_masks(batch[[row, (row + 1) % 300]], masks)
            for got in (pair[0], whole[row]):
                assert got.view(np.uint64).tolist() == single.view(np.uint64).tolist()
            assert pair[1].view(np.uint64).tolist() == whole[(row + 1) % 300].view(
                np.uint64).tolist()


def _walk_case(case):
    """Batch and masks of a walk pin. A (B, n, p, h) case scores the full
    family to h; "sparse" six p=9 masks in no order, not closed under taking
    off the lowest bit; "shuffled" the full p=9 family in a shuffled order."""
    if case == "sparse":
        return np.random.default_rng(5).random((4, 25, 9)), [0x1FF, 0xA5, 0x100, 0x3, 0x150, 0xC0]
    if case == "shuffled":
        masks = enumerate_subsets(9, 9)
        np.random.default_rng(9).shuffle(masks)
        return np.random.default_rng(9).random((3, 30, 9)), masks
    b, n, p, h = case
    return np.random.default_rng(n * p + h).random((b, n, p)), enumerate_subsets(p, h)


class TestSubsetWalk:
    # sha256 of the kernel's output as little-endian float64, for walks 14,
    # 10 and 2 deep, a sparse mask list and a shuffled family. Every digest
    # was computed with the recursive walk (one call per subset) that the
    # ascending loop replaced, so they pin that the loop moved no bit.
    @pytest.mark.parametrize("case,digest", [
        ((3, 20, 14, 14), "ed32c3f6c4b19ca295179622d241166d83d04ebbdda986d4d0e1e8d5828426e7"),
        ((2, 40, 10, 10), "bca628b5ccdc3de867bb7a45daf667440f1e8062dfe0df68c7dbfd24b6f898dd"),
        ((5, 30, 20, 2), "6c36b8e69476b4440b46ce0160d6a757f199034211b558d8c9b05ed31447e2a8"),
        ("sparse", "f2732c83ba1cb339c6854d1932173805dea3cd3e6868f0c8f17732b1777f2f53"),
        ("shuffled", "fa7bb96565774eadf06cdf2a632242d90fc8aaae41bb7ee855affbb60a30ec3d"),
    ])
    def test_deep_walks_pinned(self, case, digest):
        out = _norms_for_masks(*_walk_case(case))
        assert hashlib.sha256(out.astype("<f8").tobytes()).hexdigest() == digest

    # n=50 has 1,275 pairs, two full tiles and one of 251 pairs; 300 rows
    # are five row blocks, each scored one tile at a time, and a single
    # sample fills its block with both full tiles, then takes the partial
    # one. The walk makes one call per step, not one per subset (192 and 960
    # calls for these 63 subsets).
    @pytest.mark.parametrize("b,calls", [(1, 2), (300, 15)])
    def test_one_call_per_step(self, monkeypatch, b, calls):
        made = []
        product = tents._subset_product
        monkeypatch.setattr(tents, "_subset_product",
                            lambda *args: made.append(args) or product(*args))
        _norms_for_masks(np.random.default_rng(0).random((b, 50, 6)), enumerate_subsets(6, 6))
        assert len(made) == calls

    def test_repeated_mask_refused(self):
        # One column per mask: a repeated mask left its earlier columns as
        # np.empty had them (about +-6e306 at this input).
        with pytest.raises(ValueError, match="mask 0x3 is requested more than once"):
            _norms_for_masks(np.random.default_rng(0).random((2, 30, 3)), [3, 1, 3])


class TestOutArgument:
    def test_out_equals_default(self):
        batch, masks = _walk_case((5, 30, 6, 6))
        matrix = np.full((7, len(masks)), np.nan)
        returned = _norms_for_masks(batch, masks, out=matrix[1:6])
        assert returned.base is matrix
        assert np.isnan(matrix[[0, 6]]).all()
        default = _norms_for_masks(batch, masks)
        assert returned.view(np.uint64).tolist() == default.view(np.uint64).tolist()

    @pytest.mark.parametrize("out", [np.empty((4, 63)), np.empty((5, 62)), np.empty((63, 5)),
                                     np.empty((5, 63), dtype=np.float32)])
    def test_wrong_out_refused_before_work(self, monkeypatch, out):
        made = []
        monkeypatch.setattr(tents, "_pair_factors", lambda *args: made.append(args))
        with pytest.raises(ValueError, match=r"out must be a float64 array of shape \(5, 63\)"):
            _norms_for_masks(*_walk_case((5, 30, 6, 6)), out=out)
        assert made == []


def _kernel_peak(shape, h):
    batch = np.random.default_rng(0).random(shape)
    masks = enumerate_subsets(shape[2], h)
    tracemalloc.start()
    try:
        _norms_for_masks(batch, masks)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestKernelMemory:
    # The kernel holds one row block's factors over one tile and at most h
    # products at a time; keeping every subset product over all n(n+1)/2 pairs
    # would need about 470 MB and 440 MB for these batches.
    @pytest.mark.parametrize("shape,h", [((256, 200, 3), 3), ((256, 50, 10), 3)])
    def test_peak_bounded(self, shape, h):
        assert _kernel_peak(shape, h) < 20 * 2**20

    @pytest.mark.parametrize("n,p,h", [(200, 3, 3), (50, 10, 3), (50, 6, 6)])
    def test_peak_does_not_grow_with_the_batch(self, n, p, h):
        assert _kernel_peak((256, n, p), h) < 2 * _kernel_peak((_block_rows(n), n, p), h)

    # The factors, products and sums of every step go into work arrays made
    # once per call, and the factors are computed one coordinate at a time:
    # with whole-gather temporaries these calls peaked at 14.0 and 8.3 MiB.
    @pytest.mark.parametrize("shape,h,mib", [((256, 50, 10), 3, 9), ((256, 50, 6), 6, 6)])
    def test_work_arrays_allocated_once(self, shape, h, mib):
        assert _kernel_peak(shape, h) < mib * 2**20

    def test_wide_family_sums_written_in_place(self):
        # 16,383 subsets of 64 rows: the sums and the result take 8 MiB each.
        # Stacking a list of per-subset sums and dividing into a copy took
        # the peak to 32.5 MiB.
        assert _kernel_peak((64, 20, 14), 14) < 28 * 2**20

    def test_pair_indices_do_not_grow_with_n(self):
        # 4.5 million pairs: an n x n mask and full index arrays took the
        # peak to 106.5 MiB.
        sample = uniform_sample(RandomStream(3), 3000, 2)
        tracemalloc.start()
        try:
            all_tent_norms(sample, 2)
            assert tracemalloc.get_traced_memory()[1] < 4 * 2**20
        finally:
            tracemalloc.stop()


def _lexsorted(sample):
    """Reference order: one lexsort of an (n, p) sample, first column primary."""
    return sample[np.lexsort(sample.T[::-1])]


def _signed_zeros():
    batch = np.round(np.random.default_rng(4).random((6, 30, 3)), 1)
    batch[:, ::3, 0] = 0.0
    batch[:, 1::3, 0] = -0.0
    return batch


class TestCanonicalRows:
    # Batches of (B, n, p): ties in the first coordinate only or in every
    # coordinate, duplicated rows, and 0.0 beside -0.0, which compare equal
    # but differ in their bits, so only a stable sort keeps their order.
    @pytest.mark.parametrize("batch", [
        np.random.default_rng(0).random((7, 40, 4)),
        np.round(np.random.default_rng(1).random((7, 40, 4)), 1),
        np.concatenate([np.round(np.random.default_rng(2).random((7, 40, 1)), 1),
                        np.random.default_rng(3).random((7, 40, 2))], axis=2),
        np.random.default_rng(5).random((5, 10, 3))[:, [0, 3, 3, 7, 0, 1, 3, 9, 7, 0]],
        _signed_zeros(),
        np.random.default_rng(6).random((9, 1, 3)),
        np.round(np.random.default_rng(7).random((9, 30, 1)), 1),
    ], ids=["random", "grid", "first-ties", "duplicates", "signed-zeros", "n1", "p1"])
    def test_order_equals_one_lexsort_per_sample(self, batch):
        coords = np.ascontiguousarray(batch.transpose(2, 0, 1))
        tents._canonical_rows(coords)
        expected = np.stack([_lexsorted(item) for item in batch])
        assert coords.transpose(1, 2, 0).view(np.int64).tolist() == expected.view(np.int64).tolist()


class TestInPlaceRule:
    """The kernel sorts a batch whose (p, B, n) transpose is writable and
    C-contiguous where it lies, and copies every other batch first."""

    def _sorted_arrays(self, monkeypatch):
        seen = []
        canonical = tents._canonical_rows
        monkeypatch.setattr(tents, "_canonical_rows",
                            lambda coords: seen.append(coords) or canonical(coords))
        return seen

    def test_work_unit_samples_sorted_without_a_copy(self, monkeypatch):
        seen = self._sorted_arrays(monkeypatch)
        batches = []
        kernel = unicube.inference._norms_for_masks
        monkeypatch.setattr(unicube.inference, "_norms_for_masks",
                            lambda batch, *args, **kwargs:
                            batches.append(batch) or kernel(batch, *args, **kwargs))
        unicube.inference.null_statistic_matrix(RandomStream(2), 20, 3,
                                                enumerate_subsets(3, 3), 300)
        assert [batch.shape for batch in batches] == [(256, 20, 3), (44, 20, 3)]
        assert len(seen) == 2
        for batch, coords in zip(batches, seen):
            assert coords.base is batch.base
            assert (np.diff(coords[0], axis=1) >= 0).all()

    @pytest.mark.parametrize("make", [
        lambda data: Sample(data).data[None],
        lambda data: data[None].copy(),
        lambda data: data[None, :, ::-1],
    ], ids=["sample", "c-contiguous", "strided"])
    def test_other_batches_come_back_unchanged(self, monkeypatch, make):
        seen = self._sorted_arrays(monkeypatch)
        batch = make(np.random.default_rng(8).random((30, 4)))
        before = batch.copy()
        _norms_for_masks(batch, enumerate_subsets(4, 2))
        assert not np.shares_memory(seen[0], batch)
        assert batch.view(np.int64).tolist() == before.view(np.int64).tolist()

    # A C-contiguous batch at p = 1, and the (B, n, p) view of a (p, B, n)
    # array, as a work unit draws its samples.
    @pytest.mark.parametrize("make", [
        lambda rng: rng.random((3, 30, 1)),
        lambda rng: rng.random((4, 3, 30)).transpose(1, 2, 0),
    ], ids=["p1", "coordinate-major"])
    def test_qualifying_batch_sorted_in_place(self, make):
        batch = make(np.random.default_rng(9))
        masks = enumerate_subsets(batch.shape[2], 1)
        expected = _norms_for_masks(batch.copy(), masks)
        out = _norms_for_masks(batch, masks)
        assert np.array_equal(batch, np.stack([_lexsorted(item) for item in batch]))
        assert out.view(np.int64).tolist() == expected.view(np.int64).tolist()


class TestPairTiles:
    # n=256 and n=300 have more pairs than one batch of index arrays holds.
    @pytest.mark.parametrize("n", [1, 2, 3, 31, 32, 33, 256, 300])
    def test_tiles_cut_the_row_major_pairs(self, n):
        tiles = list(tents._pair_tiles(n))
        ia, ib = np.triu_indices(n)
        assert [ta.size for ta, _, _ in tiles] == [
            min(tents._PAIR_TILE, ia.size - lo) for lo in range(0, ia.size, tents._PAIR_TILE)]
        assert np.concatenate([ta for ta, _, _ in tiles]).tolist() == ia.tolist()
        assert np.concatenate([tb for _, tb, _ in tiles]).tolist() == ib.tolist()
        weights = np.concatenate([weight for _, _, weight in tiles])
        assert weights.tolist() == np.where(ia == ib, 1.0, 2.0).tolist()

    @pytest.mark.parametrize("tiles", [2, 3, 21, 64])
    @pytest.mark.parametrize("n", [1, 31, 90, 256, 300, 1023])
    def test_steps_group_full_tiles(self, n, tiles):
        # Consecutive groups of `tiles` full tiles, then the partial tile alone.
        steps = list(tents._pair_tiles(n, tiles))
        ia, ib = np.triu_indices(n)
        full, rest = divmod(ia.size, tents._PAIR_TILE)
        assert [ta.size for ta, _, _ in steps] == [
            min(tiles, full - k) * tents._PAIR_TILE for k in range(0, full, tiles)
        ] + ([rest] if rest else [])
        assert np.concatenate([ta for ta, _, _ in steps]).tolist() == ia.tolist()
        assert np.concatenate([tb for _, tb, _ in steps]).tolist() == ib.tolist()


class TestTentEval:
    def test_vanishes_on_face_boundary(self):
        s = uniform_sample(RandomStream(10), 7, 3)
        for mask in enumerate_subsets(3, 3):
            j = (mask & -mask).bit_length() - 1
            for edge in (0.0, 1.0):
                t = np.full(3, 0.37)
                t[j] = edge
                assert tent_eval(s, mask, t) == 0.0

    def test_single_observation_value(self):
        s = Sample([[0.3]])
        assert tent_eval(s, 1, [0.5]) == pytest.approx(0.5, abs=1e-15)

    def test_squared_integral_matches_norm(self):
        s = uniform_sample(RandomStream(12), 10, 2)
        for mask in enumerate_subsets(2, 2):
            members = [j for j in range(2) if mask >> j & 1]
            m = 200
            mids = (np.arange(m) + 0.5) / m
            if len(members) == 1:
                pts = np.full((m, 2), 0.5)
                pts[:, members[0]] = mids
                vals = np.array([tent_eval(s, mask, t) for t in pts])
            else:
                aa, bb = np.meshgrid(mids, mids, indexing="ij")
                vals = np.array([
                    tent_eval(s, mask, (a, b)) for a, b in zip(aa.ravel(), bb.ravel())])
            assert float(np.mean(vals ** 2)) == pytest.approx(
                tent_norm(s, mask), rel=2e-2)


class TestNullMean:
    def test_constant(self):
        assert null_norm_mean(0b1) == pytest.approx(1 / 6)
        assert null_norm_mean(0b111) == pytest.approx(1 / 216)
