"""Domain types shared by every module: samples on the unit cube, coordinate
subset masks, and seedable random streams.

A subset of the coordinate axes is encoded as a plain integer bit mask:
bit ``j`` set means coordinate ``j`` (0-based) belongs to the subset. The
empty mask ``0`` is legal only where explicitly stated.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

#: Hard cap on the dimension; full subset enumeration is 2^p - 1 masks.
MAX_DIMENSION = 20

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One round of the splitmix64 mixing function (64-bit)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class RandomStream:
    """A deterministic random stream identified by (seed, stream_id).

    Equal (seed, stream_id) pairs always produce identical output; distinct
    stream ids give streams that are independent for Monte Carlo purposes.
    Parallel work units must each own their own stream, obtained with
    :meth:`child`.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        """Fresh numpy generator positioned at the start of this stream."""
        ss = np.random.SeedSequence([self.seed & _MASK64, self.stream_id & _MASK64])
        return np.random.default_rng(ss)

    def child(self, index: int) -> "RandomStream":
        """Derive the ``index``-th sub-stream (same seed, mixed stream id)."""
        if index < 0:
            raise ValueError("child index must be >= 0")
        mixed = _splitmix64(_splitmix64(self.stream_id & _MASK64) ^ (index + 1))
        return RandomStream(self.seed, mixed)


def _frozen(values) -> np.ndarray:
    """A C-contiguous, read-only float64 copy of ``values``."""
    arr = np.array(values, dtype=np.float64, order="C")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False, repr=False)
class Sample:
    """An n x p matrix of observations, every entry inside [0, 1].

    Rows are observations, columns are coordinates. The data array is
    validated on construction and frozen afterwards; the first entry outside
    [0, 1] (NaN and infinities included) is refused with its 1-based row.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2:
            raise ValueError(f"sample must be a 2-d array, got ndim={arr.ndim}")
        n, p = arr.shape
        if n < 1:
            raise ValueError("sample needs at least one observation")
        _check_family(p, 1)
        if not (arr.min() >= 0.0 and arr.max() <= 1.0):  # NaN fails both comparisons
            bad = np.flatnonzero(~((arr >= 0.0) & (arr <= 1.0)))[0]
            raise ValueError(f"row {bad // p + 1}: value {arr.item(bad)!r} outside [0, 1]")
        object.__setattr__(self, "data", _frozen(arr))

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def p(self) -> int:
        return self.data.shape[1]

    def __repr__(self) -> str:
        return f"Sample(n={self.n}, p={self.p})"


def mask_cardinality(mask: int) -> int:
    """Number of coordinates in the subset."""
    return mask.bit_count()


def mask_members(mask: int) -> tuple[int, ...]:
    """0-based coordinate indices in the subset, ascending."""
    out = []
    j = 0
    while mask:
        if mask & 1:
            out.append(j)
        mask >>= 1
        j += 1
    return tuple(out)


def mask_label(mask: int) -> str:
    """Human-readable label, 1-based coordinates, e.g. ``{1,3}``."""
    return "{" + ",".join(str(j + 1) for j in mask_members(mask)) + "}"


def _check_family(p: int, h: int) -> None:
    """Refuse a dimension outside [1, MAX_DIMENSION] or a max cardinality
    outside [1, p]: the one check of every subset family."""
    if not 1 <= p <= MAX_DIMENSION:
        raise ValueError(f"dimension must be in [1, {MAX_DIMENSION}], got {p}")
    if not 1 <= h <= p:
        raise ValueError(f"max cardinality must be in [1, {p}], got {h}")


def enumerate_subsets(p: int, h: int) -> list[int]:
    """All nonempty coordinate subsets of {1..p} with cardinality <= h.

    Ordered by increasing cardinality, then increasing bit-pattern value.
    The length is sum_{k=1..h} C(p, k).
    """
    _check_family(p, h)
    masks: list[int] = []
    for k in range(1, h + 1):
        tier = sorted(sum(1 << j for j in c) for c in combinations(range(p), k))
        masks.extend(tier)
    return masks


def subset_count(p: int, h: int) -> int:
    """len(enumerate_subsets(p, h)) without building the list."""
    _check_family(p, h)
    return sum(comb(p, k) for k in range(1, h + 1))


def uniform_sample(stream: RandomStream, n: int, p: int) -> Sample:
    """n i.i.d. Uniform[0,1) rows in dimension p, deterministic per stream."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_family(p, 1)
    return Sample(stream.generator().random((n, p)))
