"""Exact decomposition of a grid function vanishing on the lower boundary
into ramp components, one per coordinate subset.

A function g on [0,1]^p with g = 0 wherever some coordinate is 0 splits
uniquely as g = sum over subsets H of R_H, where R_H(t) is the product of the
coordinates outside H times a "tent" T_H(t_H): a function on the face
{t : t_j = 1 for j not in H} that vanishes whenever a coordinate in H is
0 or 1. The construction is by sweeping cardinalities upward: the tent of H
is the restriction of the current residual to the face of H, and the whole
cardinality tier is subtracted before moving on.

Everything here works on a regular lattice with both endpoints included;
this module is a validation and diagnostic surface, so clarity wins over
speed throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from math import comb

import numpy as np

from .core import _frozen, enumerate_subsets, mask_members

_BOUNDARY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Values of a function on the lattice {0, 1/(m-1), ..., 1}^p.

    The value must vanish (within 1e-12) at every lattice point that has a
    zero coordinate.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = _frozen(self.values)
        if arr.ndim < 1:
            raise ValueError("grid must have at least one axis")
        m = arr.shape[0]
        if m < 2 or any(s != m for s in arr.shape):
            raise ValueError(f"grid must be (m,)*p with m >= 2, got shape {arr.shape}")
        for axis in range(arr.ndim):
            face = np.take(arr, 0, axis=axis)
            if np.max(np.abs(face)) > _BOUNDARY_TOL:
                raise ValueError(
                    f"function does not vanish on the lower boundary (axis {axis})"
                )
        object.__setattr__(self, "values", arr)

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.ndim


@dataclass(frozen=True, eq=False)
class RampComponent:
    """One component of the decomposition: a subset mask and its tent values.

    ``tent`` is a read-only copy with one axis of extent m per coordinate in
    the mask (0-d for the empty mask). The implied full-grid ramp is the tent
    times the product of the coordinates outside the mask; see :func:`ramp_values`.
    """

    mask: int
    tent: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "tent", _frozen(self.tent))


def grid_coords(m: int) -> np.ndarray:
    """Lattice coordinates {0, 1/(m-1), ..., 1}."""
    return np.linspace(0.0, 1.0, m)


def ramp_values(mask: int, tent: np.ndarray, m: int, p: int) -> np.ndarray:
    """Full-grid values of the ramp extension of a tent.

    R_H(t) = (prod of t_j for j outside H) * T_H(t_H).
    """
    members = mask_members(mask)
    shape = tuple(m if j in members else 1 for j in range(p))
    out = np.asarray(tent, dtype=np.float64).reshape(shape)
    out = np.broadcast_to(out, (m,) * p).copy()
    t = grid_coords(m)
    for j in range(p):
        if j not in members:
            axis_shape = tuple(m if k == j else 1 for k in range(p))
            out *= t.reshape(axis_shape)
    return out


def decompose(g) -> list[RampComponent]:
    """Split a grid function into its 2^p ramp components.

    Components come by increasing cardinality, then bit pattern: the empty
    mask first (tier 0, whose face is the corner). The sweep takes the tents
    of one tier from the same residual before subtracting any of them.
    """
    if not isinstance(g, GridFunction):
        g = GridFunction(g)
    p, m = g.p, g.m
    residual = g.values.copy()
    components = []
    for _, masks in groupby([0] + enumerate_subsets(p, p), key=int.bit_count):
        tier = []
        for mask in masks:
            index = tuple(slice(None) if mask >> j & 1 else m - 1 for j in range(p))
            tier.append(RampComponent(mask, residual[index]))
        for component in tier:
            residual -= ramp_values(component.mask, component.tent, m, p)
        components.extend(tier)
    return components


def reconstruct(components: list[RampComponent], m: int) -> GridFunction:
    """Pointwise sum of the ramps of a full set of components.

    The components must cover every subset of {1..p} exactly once, where p is
    the number of coordinates named across all masks.
    """
    union = 0
    for component in components:
        union |= component.mask
    p = union.bit_count()
    if p == 0:
        raise ValueError("components name no coordinates")
    seen = [c.mask for c in components]
    if len(seen) != len(set(seen)):
        raise ValueError("duplicate subset among components")
    if sorted(seen) != sorted(range(1 << p)):
        raise ValueError(f"components must cover all {1 << p} subsets exactly once")
    return GridFunction(sum(ramp_values(c.mask, c.tent, m, p) for c in components))


def tent_bound_constant(p: int) -> int:
    """Bound constant K_p: sup of any tent is at most K_p times sup of g.

    K_p = prod_{j=0..p-1} (1 + C(p, j)).
    """
    out = 1
    for j in range(p):
        out *= 1 + comb(p, j)
    return out
