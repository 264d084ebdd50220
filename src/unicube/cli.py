"""Command-line interface.

Commands: ``test`` scores a CSV data file, ``null`` precomputes a null
reference cache, ``power`` runs power studies, ``diagnose`` exercises the
decomposition and simulation machinery. Exit codes for ``test``: 0 the
sample is not rejected, 1 it is rejected, 2 any error (running out of memory
and internal errors included). Reruns with identical flags and inputs
produce identical primary outputs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__
from .alternatives import parse_alternative
from .brownian import (KLConfig, asymptotic_norm_draws, simulate_sheet,
                       truncated_sheet_covariance, truncation_tail_mean)
from .core import RandomStream, Sample, subset_count
from .decompose import GridFunction, decompose, reconstruct
from .inference import (ASYMPTOTIC_MODES, _check_alpha, _minp_threshold,
                        asymptotic_test, build_null_reference, load_reference, load_table,
                        reference_filename, render_report, report_json, run_tests,
                        save_reference, save_table, table_filename)
from .power import TABLE_IDS, _grid_cells, rows_to_csv, run_single, run_table

CACHE_ENV = "UNICUBE_CACHE"


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _read_sample(path: str, skip_header: bool) -> Sample:
    rows: list[list[float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            if skip_header and lineno == 0:
                continue
            text = line.strip()
            if not text:
                continue
            row_index = len(rows) + 1
            try:
                values = [float(tok) for tok in text.replace(",", " ").split()]
            except ValueError:
                raise ValueError(f"row {row_index}: cannot parse {text!r}")
            if not values:
                continue
            for v in values:
                if math.isnan(v) or not 0.0 <= v <= 1.0:
                    raise ValueError(f"row {row_index}: value {v!r} outside [0, 1]")
            if rows and len(values) != len(rows[0]):
                raise ValueError(
                    f"row {row_index}: {len(values)} columns, expected {len(rows[0])}")
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return Sample(np.array(rows))


def _cached(cache, name, load, build, save, named):
    """Load ``name`` from the ``cache`` directory, or build it (and save it
    there when a directory is set). A loaded object whose own file name,
    ``named(found)``, is not ``name`` is refused."""
    path = os.path.join(cache, name) if cache else None
    if path and os.path.exists(path):
        found = load(path)
        if named(found) != name:
            raise ValueError(f"{path}: holds the configuration of {named(found)}, which "
                             f"does not match the requested {name}")
        return found
    built = build()
    if path:
        os.makedirs(cache, exist_ok=True)
        save(built, path)
    return built


def _warn_m_rule(modes, R, alpha, shapes) -> None:
    """Say on stderr when the m (or m-as, with R = M) rule cannot reject: 1/(R+1)
    is not below the per-subset cutoff of the largest (p, h) family in ``shapes``."""
    subsets = max(subset_count(p, h) for p, h in shapes)
    cutoff = _minp_threshold(alpha, subsets)
    mode, count, flag = ("m-as", "M", "--asym-draws") if "m-as" in modes else ("m", "R", "--R")
    if mode in modes and 1.0 / (R + 1) >= cutoff:
        print(f"warning: the {mode} rule cannot reject: 1/({count}+1)={1.0 / (R + 1):.3g} is "
              f"not below its per-subset cutoff {cutoff:.3g} for {subsets} subsets; "
              f"use {flag} >= {math.floor(1.0 / cutoff)}", file=sys.stderr)


def _refuse_unused(target: str, options) -> None:
    """Refuse each (flag, value, applies) option given a value that ``target``
    would ignore."""
    for flag, value, applies in options:
        if value is not None and not applies:
            raise ValueError(f"{flag} does not apply to {target}")


def cmd_test(args) -> int:
    asymptotic = args.mode in ASYMPTOTIC_MODES
    _refuse_unused(f"--mode {args.mode}", [
        ("--h", args.h, not asymptotic), ("--R", args.R, not asymptotic),
        ("--threads", args.threads, not asymptotic),
        ("--asym-draws", args.asym_draws, asymptotic), ("--nu-max", args.nu_max, asymptotic)])
    _check_alpha(args.alpha)
    sample = _read_sample(args.input, args.header)
    h = args.h if args.h is not None else sample.p
    modes = ("m", "s") if args.mode == "both" else (args.mode,)
    cache, seed = args.null_cache, args.seed
    R = 999 if args.R is None else args.R

    if asymptotic:
        tables = {}
        stream = RandomStream(seed)
        draws = 100_000 if args.asym_draws is None else args.asym_draws
        for k in range(1, sample.p + 1):
            nu = KLConfig(nu_max=args.nu_max).resolve_nu_max(k)
            tables[k] = _cached(
                cache, table_filename(k, nu, draws, seed), load_table,
                lambda: asymptotic_norm_draws(stream.child(k), k, nu_max=nu, draws=draws),
                save_table, lambda t: table_filename(t.k, t.nu_max, t.draws.shape[0], t.seed))
        reports = [asymptotic_test(sample, tables, args.alpha, mode=m) for m in modes]
    else:
        reference = _cached(
            cache, reference_filename(sample.n, sample.p, h, R, seed), load_reference,
            lambda: build_null_reference(RandomStream(seed), sample.n, sample.p, h, R,
                                         threads=args.threads or 1), save_reference,
            lambda r: reference_filename(r.n, r.p, r.h, r.R, r.seed))
        reports = list(run_tests(sample, reference, args.alpha, modes=modes).values())

    for report in reports:
        sys.stdout.write(render_report(report))
    if args.json:
        with open(args.json, "w", encoding="utf-8", newline="\n") as fh:
            for report in reports:
                fh.write(report_json(report) + "\n")
    _warn_m_rule(modes, draws if asymptotic else R, args.alpha, [(sample.p, h)])
    return 1 if any(r.reject for r in reports) else 0


def cmd_null(args) -> int:
    reference = build_null_reference(RandomStream(args.seed), args.n, args.p,
                                     args.h, args.R, threads=args.threads)
    if args.out:
        path = args.out
    else:
        cache = args.cache_dir or "."
        os.makedirs(cache, exist_ok=True)
        path = os.path.join(cache, reference_filename(args.n, args.p, args.h,
                                                      args.R, args.seed))
    save_reference(reference, path)
    print(path)
    return 0


def cmd_power(args) -> int:
    modes = tuple(args.modes.split(","))
    _refuse_unused(f"--table {args.table}" if args.table else "--alternative", [
        ("--n", args.n, not args.table), ("--h", args.h, not args.table),
        ("--rho", args.rho, args.table == "partial")])
    if args.table:
        rows = run_table(args.table, trials=args.trials, R=args.R, alpha=args.alpha,
                         seed=args.seed, rho=args.rho, modes=modes,
                         threads=args.threads)
        shapes = [(spec.p, h) for spec, _, h, *_ in _grid_cells(args.table, args.rho)]
    else:
        spec = parse_alternative(args.alternative)
        rows = run_single(spec, n=50 if args.n is None else args.n, h=args.h,
                          trials=args.trials, R=args.R, alpha=args.alpha,
                          seed=args.seed, modes=modes, threads=args.threads)
        shapes = [(spec.p, spec.p if args.h is None else args.h)]
    text = rows_to_csv(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.trials > 0:
        _warn_m_rule(modes, args.R, args.alpha, shapes)
    return 0


def _check(name: str, ok: bool, detail: str, failures: list[str]) -> None:
    status = "pass" if ok else "FAIL"
    print(f"[{status}] {name}: {detail}")
    if not ok:
        failures.append(name)


def cmd_diagnose(args) -> int:
    if not 1 <= args.p <= 4:
        raise ValueError(f"p must be in [1, 4] for grid diagnostics, got {args.p}")
    if not 3 <= args.grid_m <= 33:
        raise ValueError(f"grid-m must be in [3, 33], got {args.grid_m}")
    for flag, value, least in (("--functions", args.functions, 1), ("--pairs", args.pairs, 1),
                               ("--sheets", args.sheets, 2), ("--draws", args.draws, 2)):
        if value < least:
            raise ValueError(f"{flag} must be >= {least}, got {value}")
    root = RandomStream(args.seed)
    failures: list[str] = []

    # Decomposition round trip on random grid functions.
    rng = root.child(0).generator()
    worst = 0.0
    for _ in range(args.functions):
        values = rng.uniform(-1.0, 1.0, size=(args.grid_m,) * args.p)
        for axis in range(args.p):
            index = [slice(None)] * args.p
            index[axis] = 0
            values[tuple(index)] = 0.0
        g = GridFunction(values)
        rebuilt = reconstruct(decompose(g), args.grid_m)
        worst = max(worst, float(np.max(np.abs(rebuilt.values - g.values))))
    _check("decompose-roundtrip", worst <= 1e-12,
           f"max reconstruction error {worst:.3e} over {args.functions} functions "
           f"(p={args.p}, m={args.grid_m})", failures)

    # Sheet covariance at random lattice pairs.
    cfg = KLConfig(nu_max=args.truncation, grid_m=args.grid_m)
    pair_rng = root.child(1).generator()
    t_axis = np.linspace(0.0, 1.0, args.grid_m)
    pairs = []
    for _ in range(args.pairs):
        si = pair_rng.integers(1, args.grid_m, size=args.p)
        ti = pair_rng.integers(1, args.grid_m, size=args.p)
        pairs.append((tuple(si), tuple(ti)))
    draws = np.empty((args.sheets, len(pairs), 2))
    sheet_stream = root.child(2)
    for r in range(args.sheets):
        sheet = simulate_sheet(sheet_stream.child(r), args.p, cfg)
        for q, (si, ti) in enumerate(pairs):
            draws[r, q, 0] = sheet[si]
            draws[r, q, 1] = sheet[ti]
    ok = True
    worst_excess = -np.inf
    for q, (si, ti) in enumerate(pairs):
        s = t_axis[list(si)]
        t = t_axis[list(ti)]
        prods = draws[:, q, 0] * draws[:, q, 1]
        emp = float(prods.mean())
        se = float(prods.std(ddof=1) / np.sqrt(args.sheets))
        target = float(np.prod(np.minimum(s, t)))
        bias = target - truncated_sheet_covariance(s, t, cfg)
        excess = abs(emp - target) - (3.0 * se + abs(bias))
        worst_excess = max(worst_excess, excess)
        ok = ok and excess <= 0.0
    nu_used = cfg.nu_max if cfg.nu_max is not None else "default"
    _check("sheet-covariance", ok,
           f"{len(pairs)} pairs, {args.sheets} sheets, nu_max={nu_used}, "
           f"worst |error| minus allowance {worst_excess:.3e}", failures)

    # Mean of the simulated limiting-norm law.
    ok = True
    details = []
    for k in (1, 2, 3):
        table = asymptotic_norm_draws(root.child(3 + k), k, nu_max=args.truncation,
                                      draws=args.draws)
        mean = float(table.draws.mean())
        se = float(table.draws.std(ddof=1) / np.sqrt(args.draws))
        err = abs(mean - 6.0 ** (-k))
        ok = ok and err <= 3.0 * se
        details.append(f"k={k} mean {mean:.6f} vs {6.0 ** (-k):.6f} (3se {3 * se:.2e})")
    _check("norm-mean", ok, "; ".join(details), failures)

    if args.truncation is not None:
        print(f"note: tail mean left out by truncation at {args.truncation}: "
              + ", ".join(f"k={k}: {truncation_tail_mean(k, args.truncation):.3e}"
                          for k in (1, 2, 3)))
    return 0 if not failures else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unicube",
        description="Uniformity tests on the unit hypercube with Monte Carlo calibration.")
    parser.add_argument("--version", action="version", version=f"unicube {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("test", help="test a CSV sample for uniformity")
    t.add_argument("input", help="CSV file, one observation per row, values in [0,1]")
    t.add_argument("--header", action="store_true", help="skip the first line")
    t.add_argument("--mode", default="both",
                   choices=["m", "s", "both", "m-as", "s-as"],
                   help="decision rule(s) to run (default both finite-sample rules)")
    t.add_argument("--h", type=int, default=None,
                   help="max subset cardinality (default: full family; m, s and both only)")
    t.add_argument("--R", type=int, default=None,
                   help="null replicates for the Monte Carlo reference (default 999; "
                        "m, s and both only)")
    t.add_argument("--alpha", type=float, default=0.05, help="significance level")
    t.add_argument("--seed", type=int, default=1, help="seed for the null reference")
    t.add_argument("--null-cache", default=os.environ.get(CACHE_ENV), metavar="DIR",
                   help=f"cache directory (default: ${CACHE_ENV})")
    t.add_argument("--json", default=None, metavar="FILE",
                   help="also write reports as JSON lines")
    t.add_argument("--threads", type=int, default=None,
                   help="threads for building the reference (default 1; m, s and both only)")
    t.add_argument("--nu-max", type=int, default=None,
                   help="series truncation (m-as and s-as only)")
    t.add_argument("--asym-draws", type=int, default=None,
                   help="table size (default 100000; m-as and s-as only)")
    t.set_defaults(func=cmd_test)

    n = sub.add_parser("null", help="precompute a null reference cache file")
    n.add_argument("--n", type=int, required=True, help="sample size")
    n.add_argument("--p", type=int, required=True, help="dimension")
    n.add_argument("--h", type=int, required=True, help="max subset cardinality")
    n.add_argument("--R", type=int, required=True, help="number of null replicates")
    n.add_argument("--seed", type=int, default=1)
    n.add_argument("--cache-dir", default=os.environ.get(CACHE_ENV), metavar="DIR",
                   help=f"target directory (default: ${CACHE_ENV} or .)")
    n.add_argument("--out", default=None, metavar="FILE",
                   help="explicit output path (overrides --cache-dir)")
    n.add_argument("--threads", type=int, default=1)
    n.set_defaults(func=cmd_null)

    w = sub.add_parser("power", help="estimate power against alternatives")
    group = w.add_mutually_exclusive_group(required=True)
    group.add_argument("--table", choices=list(TABLE_IDS),
                       help="run a canned experiment grid")
    group.add_argument("--alternative", metavar="SPEC",
                       help="single alternative, e.g. clayton:theta=2 or "
                            "normal-copula:rho=0.3,p=6")
    w.add_argument("--n", type=int, default=None,
                   help="sample size for --alternative (default 50)")
    w.add_argument("--h", type=int, default=None,
                   help="max subset cardinality for --alternative")
    w.add_argument("--trials", type=int, default=500,
                   help="test repetitions per cell (0 = emit references only)")
    w.add_argument("--R", type=int, default=499)
    w.add_argument("--alpha", type=float, default=0.05)
    w.add_argument("--seed", type=int, default=1)
    w.add_argument("--rho", type=float, default=None,
                   help="restrict --table partial to one correlation level")
    w.add_argument("--modes", default="m,s", help="comma-separated subset of m,s")
    w.add_argument("--out", default=None, metavar="FILE", help="write CSV here")
    w.add_argument("--threads", type=int, default=1)
    w.set_defaults(func=cmd_power)

    d = sub.add_parser("diagnose", help="self-checks of the simulation machinery")
    d.add_argument("--p", type=int, default=2, help="dimension (max 4)")
    d.add_argument("--grid-m", type=int, default=9, help="lattice points per axis (max 33)")
    d.add_argument("--truncation", type=int, default=None,
                   help="series truncation override")
    d.add_argument("--seed", type=int, default=1)
    d.add_argument("--functions", type=int, default=20,
                   help="random grid functions for the round-trip check")
    d.add_argument("--sheets", type=int, default=4000,
                   help="sheet draws for the covariance check")
    d.add_argument("--pairs", type=int, default=5,
                   help="lattice point pairs for the covariance check")
    d.add_argument("--draws", type=int, default=20_000,
                   help="draws for the norm-mean check")
    d.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        threads = getattr(args, "threads", None)
        if threads is not None and threads < 1:
            raise ValueError(f"--threads must be >= 1, got {threads}")
        return args.func(args)
    except (ValueError, OSError) as exc:
        return _fail(str(exc))
    except MemoryError as exc:
        detail = " ".join(str(exc).split())
        return _fail(f"out of memory: {detail}" if detail else "out of memory")
    except Exception as exc:  # exit 1 from ``test`` must mean a reject only
        return _fail(" ".join(f"{type(exc).__name__}: {exc}".split()))


if __name__ == "__main__":
    sys.exit(main())
