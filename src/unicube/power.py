"""Monte Carlo power estimation for the uniformity tests, with canned
experiment grids that emit machine-readable CSV tables.

Three named grids are available: ``copulas`` (four bivariate copula
alternatives at three sample sizes), ``beta`` (i.i.d. Beta margins), and
``partial`` (six-dimensional equicorrelated normal copula swept over the
subset-cardinality cutoff). Published power figures for these grids, from
the study this package reproduces, are attached to each emitted row as
static ``paper:`` reference values; they are never recomputed here.
"""

from __future__ import annotations

import csv
import io
from dataclasses import astuple, dataclass, fields

import numpy as np

from .alternatives import _PARAMETERS, AlternativeSpec, sample_alternative
from .core import RandomStream, enumerate_subsets, subset_count
from .inference import (NullReference, _check_alpha, _check_budget, _check_modes, _decide,
                        _statistic_matrix, build_null_reference, phat)


@dataclass(frozen=True)
class PowerExperiment:
    """One power estimation cell: an alternative plus test configuration."""

    alternative: AlternativeSpec
    n: int
    trials: int
    alpha: float = 0.05
    modes: tuple[str, ...] = ("m", "s")
    h: int | None = None
    R: int = 499
    seed: int = 1

    def __post_init__(self):
        if self.trials < 0:
            raise ValueError("trials must be >= 0")
        _check_alpha(self.alpha)
        if self.n < 1:
            raise ValueError("n must be >= 1")
        _check_modes(self.modes, hint="power studies use m and s")
        if self.R < 1:
            raise ValueError("R must be >= 1")
        p = self.alternative.p
        if self.h is None:
            object.__setattr__(self, "h", p)
        _check_budget(f"a power cell of {self.trials} trials", self.trials,
                      subset_count(p, self.h), "--trials or h")


@dataclass(frozen=True)
class PowerEstimate:
    """Rejection fraction of one mode with its binomial standard error."""

    mode: str
    power: float
    se: float
    rejections: int
    trials: int


def estimate_power(
    experiment: PowerExperiment,
    reference: NullReference | None = None,
    threads: int = 1,
) -> dict[str, PowerEstimate]:
    """Rejection fraction per mode over independent draws of the alternative.

    The null reference is built once (from sub-stream 0 of the experiment
    seed) and shared by every trial; trial t draws its sample from
    sub-stream 1 + t. The trials are scored like null replicates, in work
    units, into one (trials, #subsets) matrix, whose statistics one ``phat`` call
    overwrites with their p-values; each mode decides the whole cell in one
    ``_decide`` call on them. A trial's decision is that of ``run_tests`` on the
    same sample, so estimates are deterministic for any thread count or unit size.
    """
    root = RandomStream(experiment.seed)
    spec, n, p = experiment.alternative, experiment.n, experiment.alternative.p
    if reference is None:
        reference = build_null_reference(root.child(0), n, p, experiment.h, experiment.R,
                                         threads=threads)
    if (reference.n, reference.p, reference.h, reference.R) != (
            n, p, experiment.h, experiment.R):
        raise ValueError("supplied reference does not match the experiment configuration")

    trials = experiment.trials
    masks = enumerate_subsets(p, experiment.h)
    cell = _statistic_matrix(lambda t: sample_alternative(root.child(1 + t), spec, n).data,
                             trials, (n, p), masks, threads)
    phat(reference, masks, cell)
    out = {}
    for mode in experiment.modes:
        k = int(_decide(mode, cell, experiment.alpha)[2].sum())
        pi = k / trials if trials else float("nan")
        se = float(np.sqrt(pi * (1.0 - pi) / trials)) if trials else float("nan")
        out[mode] = PowerEstimate(mode=mode, power=pi, se=se, rejections=k, trials=trials)
    return out


# ---------------------------------------------------------------------------
# Published reference values attached to the canned grids. Keys follow the
# row layout of the published tables; the competitor columns are reported
# as-is and never computed.
# ---------------------------------------------------------------------------

_COMPETITORS = ("M2_S", "M2_L", "M2_T", "C_N", "BCV", "MST", "Q1", "Q2", "Q3")

# (family, theta) -> n -> (M2_S, M2_L, M2_T, C_N, BCV, MST, Q1, Q2, Q3, m, s)
TABLE_COPULAS: dict[tuple[str, float], dict[int, tuple[str, ...]]] = {
    ("amh", 0.9): {
        10: ("0.376", "0.038", "0.062", "0.056", "0.056", "0.066", "0.065", "0.121", "0.127", "0.137", "0.144"),
        25: ("0.328", "0.118", "0.054", "0.068", "0.062", "0.112", "0.066", "0.170", "0.164", "0.359", "0.339"),
        50: ("0.504", "0.166", "0.060", "0.078", "0.072", "0.154", "0.063", "0.233", "0.204", "0.695", "0.648"),
    },
    ("fgm", 1.0): {
        10: ("0.672", "0.046", "0.096", "0.060", "0.044", "0.044", "0.055", "0.090", "0.094", "0.093", "0.086"),
        25: ("0.590", "0.076", "0.060", "0.072", "0.040", "0.052", "0.052", "0.104", "0.115", "0.238", "0.250"),
        50: ("0.390", "0.072", "0.050", "0.062", "0.040", "0.094", "0.049", "0.126", "0.127", "0.459", "0.431"),
    },
    ("clayton", 2.0): {
        10: ("0.384", "0.016", "0.078", "0.088", "0.078", "0.164", "0.097", "0.257", "0.237", "0.372", "0.319"),
        25: ("0.638", "0.472", "0.076", "0.074", "0.136", "0.592", "0.101", "0.427", "0.370", "0.888", "0.849"),
        50: ("0.984", "0.850", "0.060", "0.090", "0.194", "0.894", "0.098", "0.640", "0.566", "0.998", "0.998"),
    },
    ("plackett", 5.0): {
        10: ("0.572", "0.026", "0.064", "0.078", "0.051", "0.082", "0.078", "0.162", "0.153", "0.185", "0.171"),
        25: ("0.414", "0.170", "0.046", "0.072", "0.078", "0.152", "0.076", "0.234", "0.210", "0.536", "0.513"),
        50: ("0.632", "0.356", "0.038", "0.086", "0.082", "0.270", "0.071", "0.349", "0.295", "0.860", "0.839"),
    },
}

# (alpha, beta) -> (M2_S, M2_L, M2_T, C_N, BCV, MST, Q1, Q2, Q3, m, s).
# The published grid does not state its sample size, so these values are
# attached for context only and computed rows are flagged non-comparable.
TABLE_BETA: dict[tuple[float, float], tuple[str, ...]] = {
    (0.5, 0.5): ("0.140", "0.356", "0.472", "0.268", "0.998", "0.106", "0.997", "0.999", "0.999", "0.444", "0.683"),
    (0.5, 1.0): ("0.330", "0.242", "0.182", "1.000", "0.976", "0.254", "0.184", "0.415", "0.386", "0.998", "1.000"),
    (0.5, 2.0): ("0.950", "0.698", "0.090", "1.000", "1.000", "0.998", "0.998", "0.951", "0.991", "1.000", "1.000"),
    (0.5, 3.0): ("0.996", "0.776", "0.086", "1.000", "1.000", "1.000", "1.000", "1.000", "1.000", "1.000", "1.000"),
    (1.0, 1.0): ("0.056", "0.054", "0.044", "0.056", "0.056", "0.030", "0.048", "0.042", "0.074", "0.048", "0.048"),
    (1.0, 2.0): ("0.124", "0.254", "0.018", "1.000", "0.066", "0.856", "0.971", "0.495", "0.965", "1.000", "1.000"),
    (1.0, 3.0): ("0.374", "0.456", "0.070", "1.000", "0.426", "1.000", "1.000", "0.221", "1.000", "1.000", "1.000"),
    (2.0, 2.0): ("0.262", "0.222", "0.070", "0.030", "0.992", "0.880", "1.000", "0.949", "1.000", "0.108", "0.207"),
    (2.0, 3.0): ("0.172", "0.314", "0.096", "0.806", "0.998", "0.998", "1.000", "1.000", "1.000", "0.977", "0.994"),
    (3.0, 3.0): ("0.166", "0.426", "0.150", "0.030", "1.000", "1.000", "1.000", "0.544", "1.000", "0.720", "0.935"),
}

# rho -> ((C_N, Q1, Q2, Q3), {h: (m, s)}); normal copula, p=6, n=50.
TABLE_PARTIAL: dict[float, tuple[tuple[str, ...], dict[int, tuple[str, str]]]] = {
    0.05: (("0.052", "0.043", "0.055", "0.077"),
           {1: ("0.041", "0.050"), 2: ("0.065", "0.098"), 3: ("0.023", "0.147"),
            4: ("0.000", "0.193"), 5: ("0.000", "0.220"), 6: ("0.000", "0.228")}),
    0.10: (("0.051", "0.050", "0.107", "0.113"),
           {1: ("0.037", "0.053"), 2: ("0.113", "0.236"), 3: ("0.042", "0.238"),
            4: ("0.000", "0.286"), 5: ("0.000", "0.306"), 6: ("0.000", "0.308")}),
    0.15: (("0.056", "0.060", "0.220", "0.191"),
           {1: ("0.034", "0.056"), 2: ("0.193", "0.477"), 3: ("0.079", "0.417"),
            4: ("0.000", "0.420"), 5: ("0.000", "0.426"), 6: ("0.000", "0.429")}),
    0.20: (("0.058", "0.072", "0.366", "0.314"),
           {1: ("0.036", "0.057"), 2: ("0.327", "0.706"), 3: ("0.150", "0.603"),
            4: ("0.000", "0.601"), 5: ("0.000", "0.590"), 6: ("0.000", "0.588")}),
    0.30: (("0.060", "0.091", "0.720", "0.683"),
           {1: ("0.034", "0.056"), 2: ("0.684", "0.965"), 3: ("0.414", "0.906"),
            4: ("0.000", "0.881"), 5: ("0.000", "0.861"), 6: ("0.000", "0.857")}),
    0.40: (("0.065", "0.116", "0.929", "0.954"),
           {1: ("0.030", "0.063"), 2: ("0.911", "1.000"), 3: ("0.744", "0.988"),
            4: ("0.000", "0.974"), 5: ("0.000", "0.968"), 6: ("0.000", "0.968")}),
}

TABLE_IDS = ("copulas", "beta", "partial")


@dataclass
class ResultRow:
    """One CSV row of a power run."""

    table: str
    alternative: str
    param: str
    n: int
    h: int | str
    mode: str
    power: str
    se: str
    trials: int
    R: int
    seed: int
    paper_ref_value: str


CSV_HEADER = tuple(field.name for field in fields(ResultRow))


def _param_string(spec: AlternativeSpec) -> str:
    return ";".join(f"{name}={getattr(spec, name):g}" for name in _PARAMETERS[spec.family])


def _grid_cells(table: str, rho: float | None):
    """Cells of a canned grid in row order: ``(spec, n, h, published (m, s),
    published competitor rows)``, each competitor row an ``(h label, names,
    values)`` triple."""
    if table == "copulas":
        for (family, theta), by_n in TABLE_COPULAS.items():
            spec = AlternativeSpec(family=family, p=2, theta=theta)
            for n, values in by_n.items():
                yield spec, n, 2, values[9:], [(2, _COMPETITORS, values[:9])]
    elif table == "beta":
        for (a, b), values in TABLE_BETA.items():
            spec = AlternativeSpec(family="beta-iid", p=2, alpha=a, beta=b)
            # Published sample size unknown: computed powers are not comparable.
            yield (spec, 50, 2, ("NA-comparability",) * 2,
                   [(2, _COMPETITORS + ("m-test", "s-test"), values)])
    else:
        # Partial grid: p=6, n=50, h = 1..6 per correlation level.
        for level in [rho] if rho is not None else sorted(TABLE_PARTIAL):
            if level not in TABLE_PARTIAL:
                raise ValueError(
                    f"rho={level} has no published reference; known: {sorted(TABLE_PARTIAL)}")
            competitors, by_h = TABLE_PARTIAL[level]
            spec = AlternativeSpec(family="normal-copula", p=6, rho=level)
            for h, paper in by_h.items():
                yield spec, 50, h, paper, [
                    ("", ("C_N", "Q1", "Q2", "Q3"), competitors)] if h == 6 else []


def _rows(table, cells, trials, R, alpha, seed, modes, threads) -> list[ResultRow]:
    """Computed rows, then published rows, of each cell (dry run when
    trials == 0). Cells with the same (n, p, h) share one null reference,
    built from sub-stream 0 of the seed as ``estimate_power`` would."""
    references: dict[tuple[int, int, int], NullReference] = {}
    rows: list[ResultRow] = []
    for spec, n, h, paper, published in cells:
        experiment = PowerExperiment(alternative=spec, n=n, trials=trials, alpha=alpha,
                                     modes=modes, h=h, R=R, seed=seed)
        estimates: dict[str, PowerEstimate] = {}
        if trials > 0:
            key = (n, spec.p, experiment.h)
            if key not in references:
                references[key] = build_null_reference(RandomStream(seed).child(0), *key, R,
                                                       threads=threads)
            estimates = estimate_power(experiment, references[key], threads)
        paper_by_mode = dict(zip(("m", "s"), paper))
        cell = dict(table=table, alternative=spec.family, param=_param_string(spec), n=n,
                    trials=trials, R=R, seed=seed)
        for mode in modes:
            est = estimates.get(mode)
            rows.append(ResultRow(h=experiment.h, mode=mode,
                                  power=f"{est.power:.4f}" if est else "",
                                  se=f"{est.se:.4f}" if est else "",
                                  paper_ref_value=paper_by_mode.get(mode, ""), **cell))
        for label, names, values in published:
            rows.extend(ResultRow(h=label, mode=f"paper:{name}", power="", se="",
                                  paper_ref_value=value, **cell)
                        for name, value in zip(names, values))
    return rows


def run_single(
    spec: AlternativeSpec,
    n: int,
    h: int | None = None,
    trials: int = 500,
    R: int = 499,
    alpha: float = 0.05,
    seed: int = 1,
    modes: tuple[str, ...] = ("m", "s"),
    threads: int = 1,
) -> list[ResultRow]:
    """Rows for one ad-hoc experiment cell outside the canned grids."""
    return _rows("custom", [(spec, n, h, (), [])], trials, R, alpha, seed, modes, threads)


def run_table(
    table: str,
    trials: int = 500,
    R: int = 499,
    alpha: float = 0.05,
    seed: int = 1,
    rho: float | None = None,
    modes: tuple[str, ...] = ("m", "s"),
    threads: int = 1,
) -> list[ResultRow]:
    """Run one canned grid and return its rows (computed plus references).

    ``trials=0`` is a dry run that emits only the static reference values.
    For the ``partial`` grid, ``rho`` restricts the run to one correlation
    level (default sweeps all published levels).
    """
    if table not in TABLE_IDS:
        raise ValueError(f"unknown table {table!r}; supported: {', '.join(TABLE_IDS)}")
    return _rows(table, _grid_cells(table, rho), trials, R, alpha, seed, modes, threads)


def rows_to_csv(rows: list[ResultRow]) -> str:
    """Render rows as CSV with the fixed header, deterministically."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow(astuple(row))
    return buf.getvalue()
