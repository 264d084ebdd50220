"""Standard normal c.d.f./quantile and chi-square c.d.f./quantile on
scipy.special.

Each function takes a scalar or an array: a scalar gives a float, an array
gives an array of the same shape. Arguments outside the domain raise
``ValueError`` rather than returning nan or an infinite endpoint.
"""

from __future__ import annotations

import numpy as np
from scipy.special import chdtr, chdtri, ndtr, ndtri


def _result(x, value):
    return float(value) if np.ndim(x) == 0 else value


def _check_dof(f: int) -> None:
    if f < 1:
        raise ValueError("degrees of freedom must be >= 1")


def _check_probability(u) -> np.ndarray:
    arr = np.asarray(u, dtype=np.float64)
    bad = ~((arr > 0.0) & (arr < 1.0))
    if bad.any():
        raise ValueError(f"probability must be in (0, 1), got {arr[bad].flat[0]}")
    return arr


def normal_cdf(x):
    """Standard normal c.d.f. Phi(x) for finite x."""
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("argument must be finite")
    return _result(x, ndtr(arr))


def normal_quantile(u):
    """Inverse of the standard normal c.d.f., 0 < u < 1."""
    return _result(u, ndtri(_check_probability(u)))


def chisq_cdf(x, f: int):
    """Chi-square c.d.f. with f degrees of freedom, x >= 0."""
    _check_dof(f)
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(arr >= 0.0):
        raise ValueError("argument must be >= 0")
    return _result(x, chdtr(f, arr))


def chisq_quantile(u, f: int):
    """Inverse chi-square c.d.f. with f degrees of freedom, 0 < u < 1,
    evaluated as the upper-tail inverse at 1 - u."""
    u_arr = _check_probability(u)
    _check_dof(f)
    return _result(u, chdtri(f, 1.0 - u_arr))
