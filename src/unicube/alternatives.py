"""Samplers for the alternative distributions used in the power studies:
bivariate copulas (AMH, FGM, Clayton, Plackett), i.i.d. Beta margins, and the
equicorrelated normal copula in any dimension.

Bivariate copulas are sampled by conditional inversion: draw (u, w) uniform
and solve dC(u, v)/du = w for v, in closed form where one exists and by
bisection for AMH. ``copula_cdf`` gives the joint c.d.f. used as the testing
oracle for the samplers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv, ndtr

from .core import RandomStream, Sample, _check_family

FAMILIES = ("uniform", "amh", "fgm", "clayton", "plackett", "beta-iid", "normal-copula")

_BIVARIATE = ("amh", "fgm", "clayton", "plackett")

# The standard normal c.d.f.; its one input, normals times a Cholesky factor,
# is always finite. The module-level name is what perfbench's tracer wraps.
_phi = ndtr


@dataclass(frozen=True)
class AlternativeSpec:
    """A named alternative distribution on [0,1]^p with its parameter."""

    family: str
    p: int = 2
    theta: float | None = None
    alpha: float | None = None
    beta: float | None = None
    rho: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}; supported: {', '.join(FAMILIES)}")
        _check_family(self.p, 1)
        if self.family in _BIVARIATE:
            if self.p != 2:
                raise ValueError(f"{self.family} copula requires p=2")
            if self.theta is None:
                raise ValueError(f"{self.family} needs theta")
            th = self.theta
            if self.family == "amh" and not -1.0 <= th < 1.0:
                raise ValueError(f"amh needs theta in [-1, 1), got {th}")
            if self.family == "fgm" and not -1.0 <= th <= 1.0:
                raise ValueError(f"fgm needs theta in [-1, 1], got {th}")
            if self.family == "clayton" and (th < -1.0 or th == 0.0):
                raise ValueError(f"clayton needs theta in [-1, inf) \\ {{0}}, got {th}")
            if self.family == "plackett" and not th > 0.0:
                raise ValueError(f"plackett needs theta > 0, got {th}")
        elif self.family == "beta-iid":
            if self.alpha is None or self.beta is None:
                raise ValueError("beta-iid needs alpha and beta")
            if self.alpha <= 0.0 or self.beta <= 0.0:
                raise ValueError("beta-iid needs alpha > 0 and beta > 0")
        elif self.family == "normal-copula":
            if self.rho is None:
                raise ValueError("normal-copula needs rho")
            if self.p < 2:
                raise ValueError("normal-copula needs p >= 2")
            low = -1.0 / (self.p - 1)
            if not low < self.rho < 1.0:
                raise ValueError(
                    f"normal-copula needs rho in ({low:.4g}, 1) for p={self.p}, got {self.rho}")


def parse_alternative(text: str) -> AlternativeSpec:
    """Parse a CLI spec string like ``clayton:theta=2``,
    ``beta:alpha=0.5,beta=3`` or ``normal-copula:rho=0.3,p=6``."""
    family, _, rest = text.partition(":")
    family = family.strip()
    if family == "beta":
        family = "beta-iid"
    kwargs: dict[str, float | int] = {}
    if rest.strip():
        for item in rest.split(","):
            key, _, value = item.partition("=")
            key = key.strip()
            if not value:
                raise ValueError(f"malformed parameter {item!r} in {text!r}")
            if key == "p":
                kwargs[key] = int(value)
            elif key in ("theta", "alpha", "beta", "rho"):
                kwargs[key] = float(value)
            else:
                raise ValueError(f"unknown parameter {key!r} in {text!r}")
    return AlternativeSpec(family=family, **kwargs)


def copula_cdf(spec: AlternativeSpec, u: float, v: float) -> float:
    """Joint c.d.f. C(u, v) of a bivariate copula family."""
    if spec.family not in _BIVARIATE:
        raise ValueError(f"copula_cdf supports {_BIVARIATE}, not {spec.family!r}")
    if not (0.0 <= u <= 1.0 and 0.0 <= v <= 1.0):
        raise ValueError("(u, v) must lie in the unit square")
    th = spec.theta
    if spec.family == "amh":
        return u * v / (1.0 - th * (1.0 - u) * (1.0 - v))
    if spec.family == "fgm":
        return u * v + th * u * v * (1.0 - u) * (1.0 - v)
    if spec.family == "clayton":
        if u == 0.0 or v == 0.0:
            return 0.0
        return max(u ** (-th) + v ** (-th) - 1.0, 0.0) ** (-1.0 / th)
    # Plackett, standard parameterization; independence at theta = 1.
    if abs(th - 1.0) < 1e-12:
        return u * v
    a = 1.0 + (th - 1.0) * (u + v)
    return (a - np.sqrt(a * a - 4.0 * u * v * th * (th - 1.0))) / (2.0 * (th - 1.0))


def _clayton_conditional_inverse(u, w, th):
    if th == -1.0:
        # Lower Frechet bound: all mass on the antidiagonal v = 1 - u.
        return 1.0 - u
    with np.errstate(over="ignore"):
        return ((w ** (-th / (1.0 + th)) - 1.0) * u ** (-th) + 1.0) ** (-1.0 / th)


def _fgm_conditional_inverse(u, w, th):
    # Smaller root of a v^2 - (1+a) v + w = 0 in the cancellation-free form;
    # reduces to v = w when a = 0.
    a = th * (1.0 - 2.0 * u)
    return 2.0 * w / (1.0 + a + np.sqrt((1.0 + a) ** 2 - 4.0 * a * w))


def _plackett_conditional_inverse(u, w, th):
    if abs(th - 1.0) < 1e-12:
        return w.copy()
    a = w * (1.0 - w)
    b = th + a * (th - 1.0) ** 2
    c = 2.0 * a * (u * th * th + 1.0 - u) + th * (1.0 - 2.0 * a)
    d = np.sqrt(th) * np.sqrt(th + 4.0 * a * u * (1.0 - u) * (1.0 - th) ** 2)
    return (c - (1.0 - 2.0 * w) * d) / (2.0 * b)


def _amh_conditional(u, v, th):
    """dC/du for the AMH copula: v (1 - th (1 - v)) / (1 - th (1-u)(1-v))^2."""
    den = 1.0 - th * (1.0 - u) * (1.0 - v)
    return v * (1.0 - th * (1.0 - v)) / (den * den)


def _amh_conditional_inverse(u, w, th, tol=1e-12, max_iter=200):
    lo = np.zeros_like(u)
    hi = np.ones_like(u)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        below = _amh_conditional(u, mid, th) < w
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        if np.max(hi - lo) < tol:
            break
    return 0.5 * (lo + hi)


def sample_alternative(stream: RandomStream, spec: AlternativeSpec, n: int) -> Sample:
    """n i.i.d. draws from the alternative, deterministic per stream."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = stream.generator()
    fam = spec.family

    if fam == "uniform":
        return Sample(rng.random((n, spec.p)))

    if fam in _BIVARIATE:
        u = rng.random(n)
        w = rng.random(n)
        th = spec.theta
        if fam == "fgm":
            v = _fgm_conditional_inverse(u, w, th)
        elif fam == "clayton":
            v = _clayton_conditional_inverse(u, w, th)
        elif fam == "plackett":
            v = _plackett_conditional_inverse(u, w, th)
        else:
            v = _amh_conditional_inverse(u, w, th)
        return Sample(np.column_stack([u, np.clip(v, 0.0, 1.0)]))

    if fam == "beta-iid":
        u = rng.random((n, spec.p))
        return Sample(betaincinv(spec.alpha, spec.beta, u))

    # Equicorrelated normal copula.
    cov = np.full((spec.p, spec.p), spec.rho)
    np.fill_diagonal(cov, 1.0)
    chol = np.linalg.cholesky(cov)
    z = rng.standard_normal((n, spec.p)) @ chol.T
    return Sample(_phi(z))
