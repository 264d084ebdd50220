"""Simulation of Gaussian tent processes by truncated sine-series expansion,
assembly of the Brownian sheet from independent ramps, and simulated tables
of the limiting squared-norm distribution.

A Gaussian tent on a k-dimensional face has covariance
prod_j (min(s_j,t_j) - s_j t_j); its series expansion is

    T(t) = sum over multi-indices v in {1..nu_max}^k of
           Z_v / (v_1 ... v_k * pi^k) * prod_j sqrt(2) sin(v_j pi t_j)

with i.i.d. standard normal Z_v, and the squared L2 norm is the weighted
chi-square sum  sum_v Z_v^2 / ((v_1 ... v_k)^2 pi^(2k)).  Truncating at
nu_max leaves a deterministic gap in the mean, which is added back to every
norm draw by default (the tail variance is negligible at the default
truncation levels).

Norm tables draw the series by weight class, not term by term: all
multi-indices with the same integer product v_1 ... v_k share one weight, and
the sum of Z_v^2 over a class of multiplicity m is exactly chi-square with m
degrees of freedom. One variate per class gives the same law with far fewer
draws (2226 classes instead of 12^6 terms at k=6). Classes of multiplicity
one come first and draw a squared standard normal, the others one
chi-square(m) each; at k=1 every class is a single term, so those tables
match the term-by-term series bit for bit. Each draw is one pairwise
``np.add.reduce`` over its row of variates times weights, a few rows at a
time, so no (draws, classes) array is built and no BLAS call is made: a
draw's bits depend on its own variates only, not on the BLAS build or thread
count. :data:`TABLE_SCHEME` names this layout in cache files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import RandomStream, _frozen, enumerate_subsets, mask_cardinality, mask_members
from .decompose import RampComponent, grid_coords, reconstruct

#: Variates (one per weight class and draw) per derived sub-stream when
#: generating norm tables. The block layout depends only on the table
#: configuration, so results are independent of execution order and thread
#: count.
_BLOCK_ELEMENTS = 1 << 23
#: Size of the scratch (1 MB) of C-contiguous rows, one per draw, that are
#: combined with the weights and summed a few at a time; a second scratch
#: of the same size takes their gamma variates. The draw order, and so every
#: variate, is that of one normal call and then one gamma call per block.
_SCRATCH_ELEMENTS = 1 << 17

#: Version of the norm-table layout, recorded in table cache files so that
#: tables drawn by an older layout are never mixed with new ones. Scheme 2
#: summed the same variates by a BLAS product, whose bits moved with the
#: BLAS thread count.
TABLE_SCHEME = 3


def default_nu_max(k: int) -> int:
    """Default series truncation per cardinality, keeping nu_max^k moderate."""
    if k <= 1:
        return 200
    if k == 2:
        return 64
    if k == 3:
        return 24
    return 12


@dataclass(frozen=True)
class KLConfig:
    """Series truncation and evaluation-lattice size for simulation.

    ``nu_max`` of None means the per-cardinality default.
    """

    nu_max: int | None = None
    grid_m: int = 33

    def resolve_nu_max(self, k: int) -> int:
        nu = self.nu_max if self.nu_max is not None else default_nu_max(k)
        if nu < 1:
            raise ValueError("nu_max must be >= 1")
        return nu


@dataclass(frozen=True)
class AsymptoticNormTable:
    """Sorted simulated draws of the limiting squared norm for one cardinality."""

    k: int
    draws: np.ndarray
    nu_max: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "draws", _frozen(self.draws))

    def __eq__(self, other) -> bool:
        if not isinstance(other, AsymptoticNormTable):
            return NotImplemented
        return (self.k == other.k and self.nu_max == other.nu_max
                and self.seed == other.seed
                and np.array_equal(self.draws, other.draws))


def truncation_tail_mean(k: int, nu_max: int) -> float:
    """Mean of the neglected series tail: 6^(-k) minus the truncated mean."""
    partial = float(np.sum(1.0 / (np.arange(1, nu_max + 1, dtype=np.float64) ** 2
                                  * np.pi ** 2)))
    return 6.0 ** (-k) - partial ** k


def _sine_basis(nu_max: int, t: np.ndarray) -> np.ndarray:
    """Orthonormal sine basis values sqrt(2) sin(v pi t), shape (nu_max, len(t))."""
    v = np.arange(1, nu_max + 1, dtype=np.float64)
    basis = np.sqrt(2.0) * np.sin(np.outer(v, np.pi * t))
    # sin(v*pi) only rounds to ~1e-14 in floats; the basis is exactly 0 there.
    basis[:, t <= 0.0] = 0.0
    basis[:, t >= 1.0] = 0.0
    return basis


def simulate_tent(stream: RandomStream, mask: int, cfg: KLConfig = KLConfig()) -> np.ndarray:
    """One draw of a Gaussian tent on the face of ``mask``, on the lattice.

    Returns an array with one axis of extent grid_m per coordinate in the
    mask. Values at lattice points with a face coordinate of 0 or 1 are
    exactly zero because every sine factor vanishes there.
    """
    k = mask_cardinality(mask)
    if k == 0:
        raise ValueError("subset must be nonempty")
    nu_max = cfg.resolve_nu_max(k)
    basis = _sine_basis(nu_max, grid_coords(cfg.grid_m))
    v = np.arange(1, nu_max + 1, dtype=np.float64)
    z = stream.generator().standard_normal((nu_max,) * k)
    coeff = z / (np.pi ** k)
    for axis in range(k):
        shape = tuple(nu_max if a == axis else 1 for a in range(k))
        coeff = coeff / v.reshape(shape)
    out = coeff
    for _ in range(k):
        out = np.tensordot(out, basis, axes=(0, 0))
    return out


def simulate_sheet(stream: RandomStream, p: int, cfg: KLConfig = KLConfig()) -> np.ndarray:
    """One draw of the Brownian sheet on the lattice over [0,1]^p.

    Built as the reconstruction of its 2^p independent ramp components: a
    single standard normal for the empty subset (scaled by the product of
    all coordinates) and one Gaussian tent per nonempty subset. Covariance
    of the result is prod_j min(s_j, t_j). The returned array is read-only.
    """
    if not 1 <= p <= 4:
        raise ValueError("sheet simulation is limited to p <= 4 (grid memory)")
    components = [RampComponent(0, stream.child(0).generator().standard_normal())]
    for index, mask in enumerate(enumerate_subsets(p, p), start=1):
        components.append(RampComponent(mask, simulate_tent(stream.child(index), mask, cfg)))
    return reconstruct(components, cfg.grid_m).values


def weight_classes(k: int, nu_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Weight classes of the series truncated at nu_max: one class per distinct
    integer product v_1...v_k over {1..nu_max}^k.

    Returns the class weights 1/((v_1...v_k)^2 pi^(2k)) and multiplicities
    (how many multi-indices share the product; they sum to nu_max^k).
    Classes of multiplicity one come first, then the others; each group is in
    ascending product order.
    """
    if nu_max ** k > np.iinfo(np.int64).max:
        raise ValueError(f"nu_max={nu_max} at cardinality {k}: series products "
                         "exceed the 64-bit integer range; lower nu_max")
    base = np.arange(1, nu_max + 1, dtype=np.int64)
    keys, counts = base, np.ones(nu_max, dtype=np.int64)
    for _ in range(k - 1):
        keys, inverse = np.unique(np.multiply.outer(keys, base).reshape(-1),
                                  return_inverse=True)
        merged = np.zeros(keys.shape[0], dtype=np.int64)
        np.add.at(merged, inverse, np.repeat(counts, nu_max))
        counts = merged
    order = np.argsort(counts > 1, kind="stable")
    weights = 1.0 / keys[order].astype(np.float64) ** 2 / np.pi ** (2 * k)
    return weights, counts[order]


def asymptotic_norm_draws(
    stream: RandomStream,
    k: int,
    nu_max: int | None = None,
    draws: int = 100_000,
) -> AsymptoticNormTable:
    """Simulate ``draws`` values of the limiting squared tent norm.

    Each draw is the truncated weighted chi-square sum, drawn with one
    variate per weight class (:func:`weight_classes`), plus the
    deterministic tail mean :func:`truncation_tail_mean`.
    """
    if k < 1:
        raise ValueError("cardinality must be >= 1")
    if draws < 1:
        raise ValueError("need at least one draw")
    nu = KLConfig(nu_max=nu_max).resolve_nu_max(k)
    weights, counts = weight_classes(k, nu)
    singles = int(np.count_nonzero(counts == 1))
    half = counts[singles:] / 2.0
    out = np.empty(draws)
    n_classes = weights.shape[0]
    block_draws = max(1, _BLOCK_ELEMENTS // n_classes)
    chunk = max(1, _SCRATCH_ELEMENTS // n_classes)
    terms = np.empty((min(chunk, draws), n_classes))
    # A chi-square(m) variate is twice a gamma(m/2) one. Each block draws all
    # its normals, then all its gammas, so with shared classes its squared
    # normals are held until its gammas come; at k=1 there are none.
    if half.size:
        gammas = np.empty((terms.shape[0], half.size))
        squares = np.empty((min(block_draws, draws), singles))
    for block, start in enumerate(range(0, draws, block_draws)):
        rows = min(start + block_draws, draws) - start
        gen = stream.child(block).generator()
        if half.size:
            np.square(gen.standard_normal(out=squares[:rows]), out=squares[:rows])
        for lo in range(0, rows, chunk):
            size = min(chunk, rows - lo)
            part = terms[:size]
            if half.size:
                part[:, :singles] = squares[lo:lo + size]
                np.multiply(gen.standard_gamma(half, out=gammas[:size]), 2.0,
                            out=part[:, singles:])
            else:
                np.square(gen.standard_normal(out=part), out=part)
            np.multiply(part, weights, out=part)
            np.add.reduce(part, axis=1, out=out[start + lo:start + lo + size])
    out += truncation_tail_mean(k, nu)
    out.sort()
    return AsymptoticNormTable(k=k, draws=out, nu_max=nu, seed=stream.seed)


def asymptotic_cdf(table: AsymptoticNormTable, x):
    """Empirical c.d.f. of the table draws: fraction of draws <= x, elementwise."""
    m = table.draws.shape[0]
    if m == 0:
        raise ValueError("table is empty")
    return np.searchsorted(table.draws, x, side="right") / m


def truncated_tent_kernel(s: float, t: float, nu_max: int) -> float:
    """Covariance of the truncated tent series at scalar points (s, t):
    the first nu_max terms of the series for min(s,t) - s*t."""
    v = np.arange(1, nu_max + 1, dtype=np.float64)
    return float(np.sum(2.0 * np.sin(v * np.pi * s) * np.sin(v * np.pi * t)
                        / (v * v * np.pi * np.pi)))


def truncated_sheet_covariance(s, t, cfg: KLConfig = KLConfig()) -> float:
    """Exact covariance of the truncated sheet construction at points (s, t).

    Sums, over every coordinate subset, the product of the outside
    coordinates of both points times the truncated tent kernel of the inside
    coordinates; the difference from prod_j min(s_j, t_j) is the deterministic
    truncation bias of :func:`simulate_sheet`.
    """
    s = np.asarray(s, dtype=np.float64).reshape(-1)
    t = np.asarray(t, dtype=np.float64).reshape(-1)
    if s.shape != t.shape:
        raise ValueError("points must share a dimension")
    p = s.shape[0]
    total = float(np.prod(s) * np.prod(t))
    for mask in enumerate_subsets(p, p):
        members = mask_members(mask)
        nu = cfg.resolve_nu_max(len(members))
        term = 1.0
        for j in range(p):
            if j in members:
                term *= truncated_tent_kernel(s[j], t[j], nu)
            else:
                term *= s[j] * t[j]
        total += term
    return total
