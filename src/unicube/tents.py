"""Tent components of the empirical process on the unit cube and their
squared L2 norms, one per coordinate subset.

For a subset H the tent statistic of a sample U is

    (1/n) * sum_{a,b=1..n} prod_{j in H} f(U[a,j], U[b,j])

with the pair factor f(u, v) = (u^2 + v^2)/2 - max(u, v) + 1/3, which is the
integral over [0,1] of (1{u<=t} - t)(1{v<=t} - t). The double sum is computed
over pairs a <= b only (off-diagonal terms doubled), in fixed tiles of pairs,
and a batch of samples is scored in blocks of rows, so that one block's
products over one step stay cache-sized: one tile, or several full tiles
when the batch has fewer rows than a block. Within a step one loop builds the
products in ascending mask order, which is depth first, each from the
product of the subset minus its lowest bit, so a whole family of subsets
costs barely more than a single one and only one product per cardinality is
held at a time. The samples are read coordinate-major, from a (p, batch, n)
array that a work unit draws into and the kernel sorts in place, so a unit
holds them once. The work arrays (the block's pair factors, one product per
depth, the first two of which are the pair factors' scratch, and the
block's sums) are allocated once per call and every step writes into them,
and the pair indices are built a fixed number of pairs at a time from O(n)
row bounds. So the pairwise arrays are bounded by one full block of pairs
and the indices by a constant, not by the batch, n^2 or the number of
subsets. Only the samples and the (batch, subsets) result, which the caller
may supply, grow with the batch, and the result and the block's sums with
the number of subsets.
"""

from __future__ import annotations

import numpy as np

from .core import Sample, enumerate_subsets, mask_cardinality

#: Pairs per tile of the kernel. Fixed, so that a row's sums, and hence its
#: bits, do not depend on the batch it is scored in. With the row block
#: below it bounds the pairwise arrays, whatever the batch size.
_PAIR_TILE = 512
#: Bytes of one (rows, pairs) product: the kernel takes as many rows per
#: block as fit, 64 at a full tile and more when n is small enough that the
#: single tile is short, and a batch of fewer rows takes as many full tiles
#: per step as fit. Each (row, tile) is reduced on its own, so this moves no bit.
#: Half this size makes each numpy call so short that two scoring threads
#: spend their time handing the interpreter lock to each other. Pair factors
#: are computed in slabs of as many coordinates as fit in this size: one at
#: a full block, so that each operand stays in L2, and all p for a small
#: sample's single tiles, so that its call makes no more numpy calls than one slab.
_BLOCK_BYTES = 8 * 64 * _PAIR_TILE


def pair_factor(u: float, v: float) -> float:
    """Per-coordinate pair factor (u^2 + v^2)/2 - max(u, v) + 1/3."""
    return (u * u + v * v) / 2.0 - max(u, v) + 1.0 / 3.0


def _pair_factors(block: np.ndarray, ta: np.ndarray, tb: np.ndarray,
                  out: np.ndarray, scratch: np.ndarray) -> None:
    """Pair factor f(u, v) of the pairs (ta, tb) of a (p, rows, n) block, into
    ``out`` of shape (p, rows, pairs).

    The coordinates go in slabs of as many as fit in ``_BLOCK_BYTES``, each
    gathered and combined in place through the first two rows of
    ``scratch``, in the operation order of :func:`pair_factor`, so each value
    has its bits (halving by ``*= 0.5`` rounds exactly as ``/ 2.0`` does).
    """
    p, rows, pairs = out.shape
    step = max(1, _BLOCK_BYTES // (8 * rows * pairs))
    # Every index is in range; "clip" spares the copy of ``out`` that numpy
    # makes under the default "raise".
    for lo in range(0, p, step):
        u = out[lo:lo + step]
        v = scratch[0, :u.size].reshape(u.shape)
        top = scratch[1, :u.size].reshape(u.shape)
        block[lo:lo + step].take(ta, axis=2, out=u, mode="clip")
        block[lo:lo + step].take(tb, axis=2, out=v, mode="clip")
        np.maximum(u, v, out=top)
        u *= u
        v *= v
        u += v
        u *= 0.5
        u -= top
        u += 1.0 / 3.0


def _subset_product(walk: list[tuple[int, int, int | None]], weight: np.ndarray,
                    factors: np.ndarray, sums: np.ndarray, levels: list[np.ndarray]) -> None:
    """One (row block, tiles) step: for each ``(depth, j, column)`` of ``walk``,
    product(H | 1<<j) = product(H) * factor(j) into ``levels[depth]``, with H
    the last subset of ``depth`` elements (the pair weight at depth 0). A
    requested mask writes the sum of its product per row and tile into
    ``sums[column]``."""
    for depth, j, column in walk:
        np.multiply(levels[depth - 1] if depth else weight, factors[j], out=levels[depth])
        if column is not None:
            levels[depth].sum(axis=-1, out=sums[column])


def _canonical_rows(coords: np.ndarray) -> None:
    """Sort the rows of each sample of a C-contiguous (p, B, n) array in
    place, lexicographically with the first coordinate primary.

    The statistics are symmetric in the observations but floating-point
    accumulation is not, so a canonical row order makes them bitwise
    invariant under row permutations. One stable argsort of the first
    coordinate orders every sample, and only a sample with a tie there is
    then lexsorted. Both sorts are stable and lexsort's primary key is the
    first coordinate, so each sample gets the order of one lexsort of its
    rows as drawn, even among rows that compare equal (0.0 and -0.0).
    """
    first = coords[0]
    coords[:] = coords[:, np.arange(coords.shape[1])[:, None],
                       first.argsort(axis=1, kind="stable")]
    for i in np.flatnonzero((first[:, 1:] <= first[:, :-1]).any(axis=1)):
        item = coords[:, i]
        item[:] = item[:, np.lexsort(item[::-1])]


def _pair_tiles(n: int, tiles: int = 1):
    """The pairs a <= b of n rows in row-major order, as ``(a, b, weight)`` per
    step of up to ``tiles`` full tiles of ``_PAIR_TILE`` pairs, the partial
    last tile alone; the weight is 1 on the diagonal and 2 off it.

    With starts[a] the index of row a's first pair and ends[a] the index
    just past its last, pair k lies in row a, the number of row ends at or
    before k, and is (a, k - ends[a] + n), and row a holds
    min(ends[a], hi) - max(starts[a], lo) of the pairs [lo, hi). The indices
    are built from these O(n) row bounds for a whole number of steps,
    at most ``_BLOCK_BYTES // 8`` pairs (64 tiles), at a time, so they take a
    fixed size however large n is.
    """
    lengths = np.arange(n, 0, -1)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    pairs = int(ends[-1])
    full = pairs - pairs % _PAIR_TILE
    step = tiles * _PAIR_TILE
    chunk = _BLOCK_BYTES // 8 // step * step
    for lo in range(0, pairs, chunk):
        hi = min(lo + chunk, pairs)
        first, last = np.searchsorted(ends, (lo, hi - 1), side="right")
        ta = np.repeat(np.arange(first, last + 1), np.minimum(ends[first:last + 1], hi)
                       - np.maximum(starts[first:last + 1], lo))
        tb = np.arange(lo, hi) - ends[ta] + n
        weight = np.where(ta == tb, 1.0, 2.0)
        cuts = [*range(0, min(hi, full) - lo, step), min(hi, full) - lo, hi - lo]
        for start, stop in zip(cuts, cuts[1:]):
            if stop > start:
                yield ta[start:stop], tb[start:stop], weight[start:stop]


def _norms_for_masks(batch: np.ndarray, masks: list[int],
                     out: np.ndarray | None = None) -> np.ndarray:
    """Squared norms for a (B, n, p) batch, one column per mask: (B, len(masks)).

    Each sample's rows are sorted in the batch's (p, B, n) transpose, in place
    when that is writable and C-contiguous (a work unit's view of its
    samples, or any C-contiguous batch at p = 1); any other batch is copied
    first and comes back unchanged.

    The norms are accumulated in ``out``, a float64 (B, len(masks)) array
    such as a row slice of the caller's statistics matrix, through its
    transposed view, and ``out`` is returned; by default it is allocated.

    Pairs a <= b are taken in tiles of ``_PAIR_TILE``, and the batch in
    blocks of rows whose products fit in ``_BLOCK_BYTES``; a batch of fewer
    rows than a block takes as many full tiles per step as then fit, and
    the partial last tile alone. The pair weight (1 on the diagonal, 2 off
    it, so exact) is the product of the empty subset and every product is
    C-contiguous, so each (row, tile) is reduced by the same per-row sum,
    added into its row in tile order, whatever the batch size. Each (block,
    tiles) step is one loop over the masks and their lowest-bit ancestors in
    ascending order, into work arrays allocated once per call, sized for the
    largest step and viewed C-contiguous at each step's shape.
    """
    columns = {}
    for col, mask in enumerate(masks):
        if columns.setdefault(mask, col) != col:
            raise ValueError(f"mask {mask:#x} is requested more than once")
    b, n, p = batch.shape
    if out is None:
        out = np.empty((b, len(masks)))
    elif out.shape != (b, len(masks)) or out.dtype != np.float64:
        raise ValueError(f"out must be a float64 array of shape {(b, len(masks))}, "
                         f"not {out.dtype} {out.shape}")
    # Coordinate-major and C-contiguous, so that each gather reads along a
    # contiguous row of n values.
    coords = batch.transpose(2, 0, 1)
    if not (coords.flags.c_contiguous and coords.flags.writeable):
        coords = coords.copy()
    _canonical_rows(coords)
    need = {0}
    for mask in masks:
        while mask not in need:
            need.add(mask)
            mask &= mask - 1
    # Ascending order is depth first: a mask's parent (it without its lowest
    # bit) is smaller, and every mask between the two has more bits.
    walk = [(mask_cardinality(mask) - 1, (mask & -mask).bit_length() - 1, columns.get(mask))
            for mask in sorted(need)[1:]]
    pairs = n * (n + 1) // 2
    tile = min(_PAIR_TILE, pairs)
    rows = min(b, _BLOCK_BYTES // (8 * tile))
    # A batch of fewer rows than a block fills it with more full tiles.
    tiles = max(1, min(_BLOCK_BYTES // (8 * rows * tile), pairs // _PAIR_TILE))
    factors = np.empty(p * rows * tiles * tile)
    # Row d holds a step's products of d + 1 coordinates, and rows 0 and 1
    # are first the pair factors' scratch, which is as wide as any product.
    work = np.empty((max(2, max(map(mask_cardinality, masks))),
                     min(factors.size, _BLOCK_BYTES // 8)))
    sums = np.empty(len(masks) * rows * tiles)
    acc = out.T
    acc.fill(0.0)
    for ta, tb, weight in _pair_tiles(n, tiles):
        # (tiles of this step, pairs per tile): a partial tile is a step alone.
        weight = weight.reshape(-1, min(tile, ta.size))
        for start in range(0, b, rows):
            shape = (min(rows, b - start), *weight.shape)
            size = shape[0] * ta.size
            block_factors = factors[:p * size].reshape(p, shape[0], ta.size)
            _pair_factors(coords[:, start:start + shape[0]], ta, tb, block_factors, work)
            step_sums = sums[:len(masks) * shape[0] * shape[1]].reshape(len(masks), *shape[:2])
            _subset_product(walk, weight, block_factors.reshape(p, *shape), step_sums,
                            [level[:size].reshape(shape) for level in work])
            for tile_sums in step_sums.transpose(2, 0, 1):
                acc[:, start:start + shape[0]] += tile_sums
    acc /= n
    return out


def _check_mask(sample: Sample, mask: int) -> None:
    if mask == 0:
        raise ValueError("subset must be nonempty")
    if mask >> sample.p:
        raise ValueError(f"mask {mask:#x} names coordinates beyond p={sample.p}")


def tent_norm(sample: Sample, mask: int) -> float:
    """Squared L2 norm of the tent statistic for one nonempty subset."""
    _check_mask(sample, mask)
    return float(_norms_for_masks(sample.data[None, :, :], [mask])[0, 0])


def all_tent_norms(sample: Sample, h: int) -> dict[int, float]:
    """Squared norms for every nonempty subset of cardinality <= h, by mask.

    Identical output to calling :func:`tent_norm` per subset, at a fraction
    of the cost.
    """
    masks = enumerate_subsets(sample.p, h)
    values = _norms_for_masks(sample.data[None, :, :], masks)[0]
    return dict(zip(masks, values.tolist()))


def tent_eval(sample: Sample, mask: int, t) -> float:
    """Tent component of the empirical process at point t:

        (1/sqrt(n)) * sum_i prod_{j in H} (1{U[i,j] <= t_j} - t_j)
    """
    _check_mask(sample, mask)
    t = np.asarray(t, dtype=np.float64).reshape(-1)
    if t.shape[0] != sample.p:
        raise ValueError(f"point has {t.shape[0]} coordinates, expected {sample.p}")
    data = sample.data
    prod = None
    m = mask
    while m:
        low = m & -m
        j = low.bit_length() - 1
        col = (data[:, j] <= t[j]).astype(np.float64) - t[j]
        prod = col if prod is None else prod * col
        m ^= low
    return float(prod.sum() / np.sqrt(sample.n))


def null_norm_mean(mask: int) -> float:
    """Expected squared norm under uniformity: 6^(-#H), independent of n."""
    return 6.0 ** (-mask_cardinality(mask))
