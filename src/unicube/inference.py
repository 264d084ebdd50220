"""Decision procedures for testing uniformity on the unit cube.

Two finite-sample rules calibrated by Monte Carlo against a shared null
reference (both consume the same per-subset p-value estimates):

* min-p rule ("m"): reject when the smallest per-subset p-value falls below
  1 - (1 - alpha)^(1/#subsets);
* sum rule ("s"): map each p-value through the one-degree chi-square quantile
  of its complement, sum, and reject above the chi-square quantile with
  #subsets degrees of freedom.

The asymptotic variants ("m-as", "s-as") use simulated tables of the limiting
norm distribution instead of a finite-n null reference and always run the
full subset family. Null references and tables are cached in a text file that
holds each float64 as 16 hex digits of its little-endian bytes, a bit-exact
round trip.
"""

from __future__ import annotations

import binascii
import json
import math
import os
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .brownian import (TABLE_SCHEME, AsymptoticNormTable, asymptotic_cdf,
                       asymptotic_norm_draws)
from .core import RandomStream, Sample, _frozen, enumerate_subsets, mask_label, subset_count
from .special import chisq_quantile
from .tents import _norms_for_masks, all_tent_norms

CACHE_MAGIC = "unicube-null v2"

FINITE_MODES = ("m", "s")
ASYMPTOTIC_MODES = ("m-as", "s-as")

#: Samples per work unit of ``_statistic_matrix``, for null replicates and
#: power trials alike. Each sample owns its own sub-stream, and the kernel
#: reduces each row on its own over a fixed pair tile, so neither the grouping
#: nor the thread count changes a bit of the output.
_REPLICATE_BATCH = 256

#: Largest statistic matrix (R or trials x #subsets float64 values, in bytes)
#: that ``build_null_reference`` or a power cell will allocate.
_REFERENCE_BUDGET = 1 << 30


@dataclass(frozen=True)
class NullReference:
    """Sorted null statistics per subset: the R-value rows of one read-only block."""

    n: int
    p: int
    h: int
    R: int
    seed: int
    norms: dict[int, np.ndarray]

    def __post_init__(self):
        if any(np.shape(vec) != (self.R,) for vec in self.norms.values()):
            raise ValueError(f"each null vector must hold R={self.R} values")
        block = _frozen(list(self.norms.values()))
        object.__setattr__(self, "norms", dict(zip(self.norms, block)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, NullReference):
            return NotImplemented
        return (
            (self.n, self.p, self.h, self.R, self.seed)
            == (other.n, other.p, other.h, other.R, other.seed)
            and list(self.norms) == list(other.norms)
            and all(np.array_equal(self.norms[m], other.norms[m]) for m in self.norms)
        )


@dataclass(frozen=True)
class TestReport:
    """Per-subset statistics and p-values plus the aggregate decision."""

    mode: str
    statistics: dict[int, float]
    p_values: dict[int, float]
    aggregate: float
    threshold: float
    alpha: float
    reject: bool
    n: int
    p: int
    h: int
    R: int
    seed: int

    @property
    def decision(self) -> str:
        return "reject" if self.reject else "not-reject"


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")


def _check_modes(modes, allowed=FINITE_MODES, hint: str = "use 'm' or 's'") -> None:
    """Refuse an empty ``modes``, a mode outside ``allowed`` (saying ``hint``)
    and a mode given more than once: the one check of every list of modes."""
    if not modes:
        raise ValueError("modes is empty; give at least one of 'm' and 's'")
    for mode in modes:
        if mode not in allowed:
            raise ValueError(f"unsupported mode {mode!r}; {hint}")
        if modes.count(mode) > 1:
            raise ValueError(f"mode {mode!r} is given more than once")


def _check_budget(what: str, rows: int, count: int, lower: str) -> None:
    """Refuse a (rows, count) float64 statistics matrix over the budget."""
    size = rows * count * 8
    if size > _REFERENCE_BUDGET:
        raise ValueError(f"{what} x {count} subsets needs {size / 2**20:,.0f} MiB, over the "
                         f"{_REFERENCE_BUDGET / 2**20:,.0f} MiB budget; lower {lower}")


def _statistic_matrix(draw, count: int, shape: tuple[int, int], masks: list[int],
                      threads: int) -> np.ndarray:
    """Statistics of the (n, p) = ``shape`` samples ``draw(i)`` for i in
    ``range(count)``, one row each, one column per mask: (count, len(masks)).

    Samples are scored in work units of ``_REPLICATE_BATCH`` by ``threads``
    workers, at most one per unit and per CPU: the calling thread and a pool
    of the others, so that one worker starts no thread. Each worker takes
    unit starts from one shared iterator until it runs out. A unit draws its
    samples into one (p, unit, n) array, the only copy of them it holds,
    through its (unit, n, p) view, and the kernel writes their statistics
    straight into the unit's rows of the result. After a unit fails no
    worker takes another, and the first error is raised once all have
    stopped. Each row depends on its sample alone, so neither the units nor
    the thread count change a bit of the result.
    """
    out = np.empty((count, len(masks)))
    starts = range(0, count, _REPLICATE_BATCH)
    units = iter(starts)
    lock = threading.Lock()
    errors: list[BaseException] = []

    def score() -> None:
        while True:
            with lock:
                start = None if errors else next(units, None)
            if start is None:
                return
            stop = min(start + _REPLICATE_BATCH, count)
            try:
                batch = np.empty((shape[1], stop - start, shape[0])).transpose(1, 2, 0)
                for i in range(start, stop):
                    batch[i - start] = draw(i)
                _norms_for_masks(batch, masks, out=out[start:stop])
            except BaseException as err:
                with lock:
                    errors.append(err)

    workers = min(threads, len(starts), os.cpu_count() or 1)
    with ThreadPoolExecutor(workers - 1) if workers > 1 else nullcontext() as pool:
        for _ in range(workers - 1):
            pool.submit(score)
        score()
    if errors:
        raise errors[0]
    return out


def null_statistic_matrix(
    stream: RandomStream,
    n: int,
    p: int,
    masks: list[int],
    replicates: int,
    threads: int = 1,
) -> np.ndarray:
    """Null statistics for ``replicates`` uniform samples, one row each.

    Replicate r draws its sample from ``stream.child(r)``, so the result is
    deterministic for any thread count or execution order.
    """
    return _statistic_matrix(lambda r: stream.child(r).generator().random((n, p)),
                             replicates, (n, p), masks, threads)


def build_null_reference(
    stream: RandomStream, n: int, p: int, h: int, R: int, threads: int = 1
) -> NullReference:
    """Simulate R uniform samples and sort their statistics per subset in place,
    so that the build holds two copies of the R x #subsets values at its peak."""
    if R < 1:
        raise ValueError("R must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_budget(f"a null reference of R={R}", R, subset_count(p, h), "R or h")
    masks = enumerate_subsets(p, h)
    matrix = null_statistic_matrix(stream, n, p, masks, R, threads=threads)
    matrix.sort(axis=0)
    norms = dict(zip(masks, matrix.T))
    return NullReference(n=n, p=p, h=h, R=R, seed=stream.seed, norms=norms)


def phat(reference: NullReference, masks: list[int], block: np.ndarray) -> np.ndarray:
    """Monte Carlo p-values (#{null > x} + 1) / (R + 1), ties not counted, written
    over a (rows, len(masks)) float64 block of statistics x, column i of ``masks[i]``."""
    if getattr(block, "dtype", None) != np.float64 or np.shape(block)[1:] != (len(masks),):
        raise ValueError(f"statistics must be a 2-d float64 block of {len(masks)} columns")
    missing = [mask for mask in masks if mask not in reference.norms]
    if missing:
        raise ValueError(f"subset {missing[0]:#x} not present in the reference")
    for i, mask in enumerate(masks):
        block[:, i] = reference.norms[mask].searchsorted(block[:, i], side="right")
    np.subtract(reference.R + 1, block, out=block)
    block /= reference.R + 1
    return block


def _table_pvalues(tables: dict[int, AsymptoticNormTable], masks: list[int],
                   block: np.ndarray) -> np.ndarray:
    """Limiting-law p-values written over a block, as by ``phat``: one minus the
    empirical c.d.f. of the table of M draws of the column's cardinality, floored
    at 1/(M+1), as ``phat`` is at 1/(R+1), so that the s-as sum is finite."""
    sizes = np.array([mask.bit_count() for mask in masks])
    for k in np.unique(sizes).tolist():
        columns, floor = sizes == k, 1.0 / (tables[k].draws.shape[0] + 1)
        block[:, columns] = np.maximum(1.0 - asymptotic_cdf(tables[k], block[:, columns]), floor)
    return block


def _minp_threshold(alpha: float, family_size: int) -> float:
    """Per-subset cutoff 1 - (1-alpha)^(1/#subsets), exact for one subset."""
    if family_size == 1:
        return alpha
    return 1.0 - (1.0 - alpha) ** (1.0 / family_size)


def _decide(mode: str, block: np.ndarray, alpha: float):
    """Aggregates, threshold and decisions of the m or s rule (finite or
    asymptotic) on a block of per-subset p-value families, one per row.

    Returns an array of aggregates, the threshold shared by every row and an
    array of decisions; a single sample is a one-row block. The s rule maps
    every 1 - p through the one-degree chi-square quantile (1 - p = 0 maps to
    0, and 1 - p = 1 to inf), once per distinct value of the block (a Monte
    Carlo p-value takes at most R + 1 values), sums each row with
    ``math.fsum`` and compares the sums with the quantile of 1 - alpha, taken
    by the same function so that a single-subset family ties with the m rule
    at p == alpha. The quantile is elementwise, so a row decides the same bits
    in any block. The s rule reads the block in slices of ``_REPLICATE_BATCH``
    rows, so its work arrays are of one slice's size, whatever the block's.
    """
    family_size = block.shape[1]
    if mode.startswith("m"):
        aggregate = block.min(axis=1)
        threshold = _minp_threshold(alpha, family_size)
        reject = aggregate < threshold
    else:
        slices = [slice(start, start + _REPLICATE_BATCH)
                  for start in range(0, block.shape[0], _REPLICATE_BATCH)]
        distinct = np.empty(0)
        for rows in slices:
            distinct = np.union1d(distinct, 1.0 - block[rows])
        q = chisq_quantile(distinct, 1)
        aggregate = np.array([math.fsum(row) for rows in slices
                              for row in q[np.searchsorted(distinct, 1.0 - block[rows])]])
        threshold = float(chisq_quantile(1.0 - alpha, family_size))
        reject = aggregate > threshold
    return aggregate, threshold, reject


def _reports(sample: Sample, h: int, pvalues, modes, alpha: float, R: int,
             seed: int) -> dict[str, TestReport]:
    """One report per mode of ``modes``: the statistics of ``sample`` up to
    cardinality h, scored once, their p-values ``pvalues(masks, block)`` as a
    one-row block and each mode's decision on that block, as a power cell decides."""
    stats = all_tent_norms(sample, h)
    block = pvalues(list(stats), np.array([list(stats.values())]))
    pvals = dict(zip(stats, block[0].tolist()))
    reports: dict[str, TestReport] = {}
    for mode in modes:
        aggregate, threshold, reject = _decide(mode, block, alpha)
        reports[mode] = TestReport(mode=mode, statistics=stats, p_values=pvals,
                                   aggregate=float(aggregate[0]), threshold=threshold,
                                   alpha=alpha, reject=bool(reject[0]), n=sample.n,
                                   p=sample.p, h=h, R=R, seed=seed)
    return reports


def run_tests(
    sample: Sample,
    reference: NullReference,
    alpha: float,
    modes: tuple[str, ...] = ("m", "s"),
) -> dict[str, TestReport]:
    """Run the requested finite-sample rules on one sample, p-values by ``phat``.

    The per-subset statistics and p-values are computed once and shared by
    all requested modes, whose reports come in the order m, s.
    """
    _check_alpha(alpha)
    _check_modes(modes)
    if sample.n != reference.n or sample.p != reference.p:
        raise ValueError(
            f"reference built for (n={reference.n}, p={reference.p}) cannot score "
            f"a sample with (n={sample.n}, p={sample.p})")
    return _reports(sample, reference.h, partial(phat, reference),
                    [m for m in FINITE_MODES if m in modes], alpha, reference.R,
                    reference.seed)


def build_asymptotic_tables(
    stream: RandomStream,
    p: int,
    nu_max: int | None = None,
    draws: int = 100_000,
) -> dict[int, AsymptoticNormTable]:
    """Simulated limiting-norm tables for every cardinality 1..p.

    Cardinality k uses ``stream.child(k)``; one call covers everything the
    asymptotic tests need.
    """
    return {k: asymptotic_norm_draws(stream.child(k), k, nu_max=nu_max, draws=draws)
            for k in range(1, p + 1)}


def asymptotic_test(
    sample: Sample,
    tables: dict[int, AsymptoticNormTable],
    alpha: float,
    mode: str = "m-as",
) -> TestReport:
    """Large-sample rule using the simulated limiting-norm tables.

    Always runs the full family of 2^p - 1 subsets, p-values by ``_table_pvalues``.
    ``tables[k]`` must be the table of cardinality k, for each k in 1..p.
    """
    _check_modes((mode,), ASYMPTOTIC_MODES, "use 'm-as' or 's-as'")
    _check_alpha(alpha)
    p = sample.p
    bad = [k for k in range(1, p + 1) if k not in tables or tables[k].k != k]
    if bad:
        raise ValueError(f"limiting-norm tables missing or filed under another cardinality "
                         f"at keys {bad}; key k must hold the table of cardinality k")
    return _reports(sample, p, partial(_table_pvalues, tables), (mode,), alpha,
                    tables[1].draws.shape[0], tables[1].seed)[mode]


# ---------------------------------------------------------------------------
# Cache files. One format shared by null references and limiting-norm tables:
# a magic line, a configuration line, a masks line, then one line of hex
# digits holding the sorted vectors, one per mask, as little-endian float64
# (a bit-exact round trip; layout in README). Files are written to a
# temporary name and renamed into place, so a concurrent reader sees the old
# file or the complete new one.
# ---------------------------------------------------------------------------

def reference_filename(n: int, p: int, h: int, R: int, seed: int) -> str:
    return f"null_n{n}_p{p}_h{h}_R{R}_s{seed}.v2.txt"


def table_filename(k: int, nu_max: int, draws: int, seed: int) -> str:
    return f"asym_k{k}_nu{nu_max}_M{draws}_s{seed}_scheme{TABLE_SCHEME}.v2.txt"


def _format_cache(config: dict[str, int], vectors: dict[int, np.ndarray]) -> bytes:
    line = " ".join(f"{key}={value}" for key, value in config.items())
    masks = ",".join(f"{mask:x}" for mask in vectors)
    values = np.array(list(vectors.values()), dtype="<f8")
    return (f"{CACHE_MAGIC}\n{line}\nmasks={masks}\n".encode("utf-8")
            + binascii.hexlify(values.tobytes()) + b"\n")


def _header_line(data: bytes, start: int, where: str, what: str) -> tuple[str, int]:
    """The line of ``data`` that begins at ``start``, and the start of the next."""
    end = data.find(b"\n", start)
    if end < 0:
        raise ValueError(f"{where}: missing {what} line")
    return data[start:end].decode("utf-8", "replace"), end + 1


def _parse_cache(data: bytes, where: str) -> tuple[dict[str, int], dict[int, np.ndarray]]:
    """Configuration and vectors from a cache file's bytes."""
    magic, start = _header_line(data, 0, where, "magic")
    if magic == "unicube-null v1":
        raise ValueError(f"{where}: a cache file of an earlier unicube ({magic}); delete it "
                         f"and rebuild it with `unicube null` or a cold `unicube test`")
    if magic != CACHE_MAGIC:
        raise ValueError(f"{where}: not a cache file (bad magic line)")
    line, start = _header_line(data, start, where, "configuration")
    config: dict[str, int] = {}
    for token in line.split():
        key, _, value = token.partition("=")
        try:
            config[key] = int(value)
        except ValueError:
            raise ValueError(f"{where}: malformed configuration token {token!r}") from None
    for key in ("n", "p", "h", "R", "seed"):
        if key not in config:
            raise ValueError(f"{where}: configuration line lacks {key}=")
        if key in ("n", "p", "R") and config[key] < 1:
            raise ValueError(f"{where}: {key}={config[key]}; {key} must be >= 1")
    line, start = _header_line(data, start, where, "masks")
    key, _, body = line.partition("=")
    try:
        masks = [int(token, 16) for token in body.split(",")]
    except ValueError:
        key = None
    if key != "masks":
        raise ValueError(f"{where}: malformed masks line {line[:60]!r}")
    S, R = len(masks), config["R"]
    block = memoryview(data)[start:-1]
    if len(block) != 16 * S * R or not data.endswith(b"\n"):
        raise ValueError(f"{where}: value line has {len(data) - start} bytes, expected "
                         f"16 hex digits x {S} subsets x R={R} and a newline")
    try:
        values = np.frombuffer(binascii.unhexlify(block), "<f8").reshape(S, R)
    except binascii.Error:
        at = re.search(rb"[^0-9a-fA-F]", block).start()
        token = bytes(block[at - at % 16:at - at % 16 + 16]).decode("utf-8", "replace")
        raise ValueError(f"{where}: subset {masks[at // (16 * R)]:#x}: value "
                         f"{at % (16 * R) // 16} is not 16 hex digits: {token!r}") from None
    for bad, problem in ((~np.isfinite(values), "has a non-finite value"),
                         (values[:, 1:] < values[:, :-1], "is not sorted ascending")):
        rows = bad.any(axis=1)
        if rows.any():
            raise ValueError(f"{where}: subset {masks[int(rows.argmax())]:#x} {problem}")
    return config, dict(zip(masks, values))


def _write_atomic(path, data: bytes) -> None:
    """Write ``data`` to a temporary file next to ``path``, then rename it
    over ``path``. On failure the temporary file is removed and any existing
    ``path`` is left as it was."""
    tmp = f"{os.fspath(path)}.{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_reference(reference: NullReference, path) -> None:
    _write_atomic(path, _format_cache(dict(n=reference.n, p=reference.p, h=reference.h,
                                           R=reference.R, seed=reference.seed), reference.norms))


def load_reference(path) -> NullReference:
    config, vectors = _parse_cache(Path(path).read_bytes(), str(path))
    try:
        family = enumerate_subsets(config["p"], config["h"])
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    if list(vectors) != family:
        raise ValueError(f"{path}: masks line does not match the (p, h) enumeration")
    return NullReference(n=config["n"], p=config["p"], h=config["h"],
                         R=config["R"], seed=config["seed"], norms=vectors)


def save_table(table: AsymptoticNormTable, path) -> None:
    """Write a limiting-norm table in the shared cache format.

    The ``n`` slot of the configuration line holds the truncation bound, and
    the single vector uses the lowest mask of cardinality k. The
    ``scheme`` token records the stream layout of the draws (see
    :data:`unicube.brownian.TABLE_SCHEME`).
    """
    _write_atomic(path, _format_cache(
        dict(n=table.nu_max, p=table.k, h=table.k, R=table.draws.shape[0], seed=table.seed,
             scheme=TABLE_SCHEME), {(1 << table.k) - 1: table.draws}))


def load_table(path) -> AsymptoticNormTable:
    """Read a limiting-norm table; tables of another stream layout are refused."""
    config, vectors = _parse_cache(Path(path).read_bytes(), str(path))
    scheme = config.get("scheme")
    if scheme != TABLE_SCHEME:
        found = "no scheme token" if scheme is None else f"scheme={scheme}"
        raise ValueError(f"{path}: table has {found}; this version reads and draws "
                         f"scheme={TABLE_SCHEME} tables")
    k = config["p"]
    mask = (1 << k) - 1
    if list(vectors) != [mask]:
        raise ValueError(f"{path}: expected the single mask {mask:#x}")
    return AsymptoticNormTable(k=k, draws=vectors[mask], nu_max=config["n"],
                               seed=config["seed"])


# ---------------------------------------------------------------------------
# Report rendering (deterministic byte-for-byte).
# ---------------------------------------------------------------------------

def render_report(report: TestReport) -> str:
    lines = [
        f"mode={report.mode} n={report.n} p={report.p} h={report.h} "
        f"R={report.R} seed={report.seed} alpha={report.alpha:g}",
        f"{'subset':<12} {'statistic':>22} {'p-value':>12}",
    ]
    for mask, stat in report.statistics.items():
        lines.append(f"{mask_label(mask):<12} {stat:>22.15g} {report.p_values[mask]:>12.6g}")
    kind = "min-p" if report.mode.startswith("m") else "sum"
    lines.append(
        f"{kind}={report.aggregate:.15g} threshold={report.threshold:.15g} "
        f"decision: {report.decision}")
    return "\n".join(lines) + "\n"


def report_json(report: TestReport) -> str:
    payload = {
        "mode": report.mode,
        "n": report.n,
        "p": report.p,
        "h": report.h,
        "R": report.R,
        "seed": report.seed,
        "alpha": report.alpha,
        "subsets": [
            {
                "mask": f"{mask:#x}",
                "subset": mask_label(mask),
                "statistic": stat,
                "p_value": report.p_values[mask],
            }
            for mask, stat in report.statistics.items()
        ],
        "aggregate": report.aggregate,
        "threshold": report.threshold,
        "decision": report.decision,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
