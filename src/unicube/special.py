"""Standard normal c.d.f. and chi-square quantile on scipy.special.

Each function takes a scalar or an array: a scalar gives a float, an array
gives an array of the same shape. Arguments outside the domain raise
``ValueError`` rather than returning nan or an infinite endpoint.
"""

from __future__ import annotations

import numpy as np
from scipy.special import chdtri, ndtr


def _result(x, value):
    return float(value) if np.ndim(x) == 0 else value


def normal_cdf(x):
    """Standard normal c.d.f. Phi(x) for finite x."""
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("argument must be finite")
    return _result(x, ndtr(arr))


def chisq_quantile(u, f: int):
    """Inverse chi-square c.d.f. with f degrees of freedom, 0 < u < 1,
    evaluated as the upper-tail inverse at 1 - u."""
    u_arr = np.asarray(u, dtype=np.float64)
    bad = ~((u_arr > 0.0) & (u_arr < 1.0))
    if bad.any():
        raise ValueError(f"probability must be in (0, 1), got {u_arr[bad].flat[0]}")
    if f < 1:
        raise ValueError("degrees of freedom must be >= 1")
    return _result(u, chdtri(f, 1.0 - u_arr))
