"""Tent components of the empirical process on the unit cube and their
squared L2 norms, one per coordinate subset.

For a subset H the tent statistic of a sample U is

    (1/n) * sum_{a,b=1..n} prod_{j in H} f(U[a,j], U[b,j])

with the pair factor f(u, v) = (u^2 + v^2)/2 - max(u, v) + 1/3, which is the
integral over [0,1] of (1{u<=t} - t)(1{v<=t} - t). The double sum is computed
over pairs a <= b only (off-diagonal terms doubled), in fixed tiles of pairs,
and a batch of samples is scored in blocks of rows, so that one block's
products over one tile stay cache-sized. Within a tile the per-subset
products are built depth first from the product of the subset minus its
lowest bit, so a whole family of subsets costs barely more than a single one
and only one product per cardinality is held at a time: the pairwise arrays
are bounded by one row block times one tile, not by the batch, n^2 or the
number of subsets; only the (batch, subsets) sums grow with them.
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
#: single tile is short. Rows are reduced one by one, so this moves no bit.
#: Half this size makes each numpy call so short that two scoring threads
#: spend their time handing the interpreter lock to each other.
_BLOCK_BYTES = 8 * 64 * _PAIR_TILE


def pair_factor(u: float, v: float) -> float:
    """Per-coordinate pair factor (u^2 + v^2)/2 - max(u, v) + 1/3."""
    return (u * u + v * v) / 2.0 - max(u, v) + 1.0 / 3.0


def _pair_factors(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pair factor f(u, v) elementwise, for gathered coordinate arrays."""
    return (u * u + v * v) / 2.0 - np.maximum(u, v) + 1.0 / 3.0


def _subset_product(mask: int, prod: np.ndarray, factors: np.ndarray,
                    children: dict[int, list[tuple[int, int]]], columns: dict[int, int],
                    sums: list) -> None:
    """Depth-first walk from ``mask``, whose product over the tile is ``prod``.

    product(H | 1<<j) = product(H) * factor(j) for each child listed in
    ``children`` (j below the lowest bit of H): the lowest-bit recurrence read
    from the top, so only one product per cardinality is alive at a time. A
    requested mask stores the per-row sum of its product in ``sums[column]``.
    """
    col = columns.get(mask)
    if col is not None:
        sums[col] = prod.sum(axis=-1)
    for j, child in children[mask]:
        _subset_product(child, prod * factors[j], factors, children, columns, sums)


def _canonical_rows(points: np.ndarray) -> np.ndarray:
    """Rows sorted lexicographically (first column primary).

    The statistics are symmetric in the observations but floating-point
    accumulation is not, so a canonical row order makes them bitwise
    invariant under row permutations.
    """
    order = np.lexsort(points.T[::-1])
    return points[order]


def _norms_for_masks(batch: np.ndarray, masks: list[int]) -> np.ndarray:
    """Squared norms for a (B, n, p) batch, one column per mask: (B, len(masks)).

    Pairs a <= b are taken in tiles of ``_PAIR_TILE``, and the batch in
    blocks of rows whose products fit in ``_BLOCK_BYTES``. The pair weight (1
    on the diagonal, 2 off it, so exact) is the product of the empty subset
    and every product is C-contiguous, so each row is reduced by the same
    per-row sums, added tile by tile in tile order, whatever the batch size.
    """
    b, n, p = batch.shape
    coords = np.ascontiguousarray(
        np.stack([_canonical_rows(item) for item in batch]).transpose(2, 0, 1))
    columns = {mask: col for col, mask in enumerate(masks)}
    need = {0}
    for mask in masks:
        while mask not in need:
            need.add(mask)
            mask &= mask - 1
    # The children of H are H | 1<<j for every j below its lowest bit (any
    # j < p for the empty set, whose product is the pair weight).
    children = {mask: [(j, mask | 1 << j)
                       for j in range((mask & -mask).bit_length() - 1 if mask else p)
                       if mask | 1 << j in need] for mask in need}
    ia, ib = np.triu_indices(n)
    tiles = []
    for lo in range(0, ia.size, _PAIR_TILE):
        ta, tb = ia[lo:lo + _PAIR_TILE], ib[lo:lo + _PAIR_TILE]
        tiles.append((ta, tb, np.where(ta == tb, 1.0, 2.0)))
    rows = _BLOCK_BYTES // (8 * min(_PAIR_TILE, ia.size))
    acc = np.zeros((len(masks), b))
    sums: list = [None] * len(masks)
    for start in range(0, b, rows):
        block = coords[:, start:start + rows]
        for ta, tb, weight in tiles:
            factors = _pair_factors(block.take(ta, axis=2), block.take(tb, axis=2))
            _subset_product(0, weight, factors, children, columns, sums)
            acc[:, start:start + rows] += sums
    return acc.T / n


def tent_norm(sample: Sample, mask: int) -> float:
    """Squared L2 norm of the tent statistic for one nonempty subset."""
    if mask == 0:
        raise ValueError("subset must be nonempty")
    if mask >> sample.p:
        raise ValueError(f"mask {mask:#x} names coordinates beyond p={sample.p}")
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
    if mask == 0:
        raise ValueError("subset must be nonempty")
    if mask >> sample.p:
        raise ValueError(f"mask {mask:#x} names coordinates beyond p={sample.p}")
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
