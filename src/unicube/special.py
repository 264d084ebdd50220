"""Chi-square quantile on scipy.special.

The s rule's one special function. Its callers own the domain: ``_decide``
passes values in [0, 1], whose endpoints chdtri maps to 0 and inf, and
``_check_alpha`` screens the threshold's alpha. It stays a module because
perfbench's tracer wraps ``special.chisq_quantile`` by name.
"""

from __future__ import annotations

from scipy.special import chdtri


def chisq_quantile(u, f: int):
    """Inverse chi-square c.d.f. with f degrees of freedom, 0 <= u <= 1 (u = 0
    gives 0 and u = 1 gives inf), evaluated as the upper-tail inverse at 1 - u:
    a float for a scalar u, an array of the same shape for an array."""
    return chdtri(f, 1.0 - u)
