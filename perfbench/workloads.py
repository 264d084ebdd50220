"""The three workloads: inputs made from the benchmark seed with plain
numpy/scipy, the CLI calls each one makes, and the correctness gates.

Every workload is a script run in one of three modes:

* ``timed``: the measured run. Cold calls are a fixed list. Warm calls run
  in slices between the cold calls, so that every metric samples the whole
  run; each slice lasts ``seconds / slices`` and at least ``WARM_MIN /
  slices`` calls.
* ``peak``: one call of each kind (the memory pass).
* ``trace``: a fixed list of calls, so that span counts repeat exactly.

Each script returns the wall times it measured: ``cold``, ``cold2`` and
``warm`` feed the end-to-end metrics of the same names (see NOTES.md).
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import statistics
import time

import numpy as np
from scipy.special import ndtr

from unicube.inference import (load_reference, load_table, reference_filename,
                               save_reference)

from harness import Bench, Op, mtime, read_text

#: Warm calls per timed run, at least: the tail is the highest percentile
#: with ten samples beyond it, so 60 calls give p83.
WARM_MIN = 60
#: Null-mean gate: per-subset mean of the R null statistics within this many
#: standard errors of 6^-|H|.
Z_MEAN = 6.0
#: Power gate: estimated s-power within this many binomial standard errors
#: (at 200 trials) of the published value.
Z_POWER = 5.0
#: Rejection-fraction gates need this many decisions; fewer are not judged.
GATE_MIN = 16

_DECISION = re.compile(r"^(min-p|sum)=\S+ threshold=\S+ decision: (\S+)$", re.M)

# Spans (see spans.WRAPPED) that each workload must fire in a traced run.
_BUILD = ("core.RandomStream.generator", "tents._norms_for_masks", "tents._canonical_rows",
          "tents._pair_factors", "tents._subset_product", "inference.null_statistic_matrix",
          "inference.build_null_reference")
_WRITE = ("inference._format_cache", "inference.save_reference")
_WARM_TEST = ("cli._read_sample", "inference.load_reference", "inference._parse_cache",
              "tents.all_tent_norms", "inference.run_tests", "inference.phat",
              "special.chisq_quantile", "inference.render_report")


def _seeds(rng: np.random.Generator, k: int) -> list[int]:
    return [int(s) for s in rng.integers(1, 2**31 - 1, size=k)]


def _csv(directory: str, name: str, data: np.ndarray) -> str:
    path = os.path.join(directory, name)
    np.savetxt(path, data, delimiter=",", fmt="%.17g")
    return path


def _copula(rng: np.random.Generator, n: int, p: int, rho: float) -> np.ndarray:
    """Equicorrelated normal copula sample, drawn with numpy/scipy only."""
    cov = np.full((p, p), rho)
    np.fill_diagonal(cov, 1.0)
    z = rng.standard_normal((n, p)) @ np.linalg.cholesky(cov).T
    return ndtr(z)


def _s_rejects(text: str) -> bool:
    return dict(_DECISION.findall(text)).get("sum") == "reject"


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _stamps(cache: str) -> dict[str, int | None]:
    return {name: mtime(os.path.join(cache, name)) for name in os.listdir(cache)}


class _Warm:
    """Warm calls of one workload, run in slices between its cold calls.

    ``step(i, slice_index)`` makes the i-th warm call and returns its op.
    ``record`` gates every report against the first one for the same input
    and keeps the s-test decision of the first one.
    """

    def __init__(self, bench: Bench, mode: str, seconds: float, slices: int,
                 fixed: int, step):
        self.bench, self.mode, self.step = bench, mode, step
        self.seconds = seconds / slices
        self.minimum = -(-WARM_MIN // slices)
        self.quota = [fixed // slices + (k < fixed % slices) for k in range(slices)]
        self.slice_index = 0
        self.calls = 0
        self.last: Op | None = None
        self.first: dict = {}
        self.rejects: dict = {}

    def run_slice(self) -> None:
        quota = self.quota[self.slice_index]
        start = time.perf_counter()
        n = 0
        while (n < quota if self.mode != "timed"
               else n < self.minimum or time.perf_counter() - start < self.seconds):
            if time.monotonic() > self.bench.budget_end - 10.0 or n >= 20 * self.minimum:
                break
            self.last = self.step(self.calls, self.slice_index)
            self.calls += 1
            n += 1
        self.slice_index += 1

    def record(self, op: Op, key, payload, rejects: bool) -> None:
        first = self.first.setdefault(key, payload)
        self.bench.check(op, payload == first,
                         "report differs from the first report for the same input and seed")
        self.rejects.setdefault(key, rejects)

    def check_rejections(self, label: str, keys, low: float | None, high: float | None):
        """Gate on the s-test rejection fraction over the inputs ``keys``."""
        flags = [self.rejects[k] for k in keys if k in self.rejects]
        if self.last is None or len(flags) < GATE_MIN:
            return
        share = sum(flags) / len(flags)
        if low is not None:
            self.bench.check(self.last, share >= low,
                             f"s-test rejects only {share:.2f} of {label}")
        if high is not None:
            self.bench.check(self.last, share <= high,
                             f"s-test rejects {share:.2f} of {label}")

    def check_cache(self, stamps: dict[str, int | None], cache: str) -> None:
        """Gate: warm calls hit the cache, so no cached file was rewritten."""
        if self.last is not None:
            self.bench.check(self.last, _stamps(cache).items() >= stamps.items(),
                             "a warm test call rewrote a cached file")


def _check_reference(bench: Bench, op: Op, path: str, shape, seed: int) -> None:
    """Null means near 6^-|H|, and a bit-exact save/load round trip."""
    n, p, h, R = shape
    ref = load_reference(path)
    bench.check(op, (ref.n, ref.p, ref.h, ref.R, ref.seed) == (n, p, h, R, seed),
                "cache configuration line does not match the request")
    for mask, vec in ref.norms.items():
        se = float(vec.std(ddof=1)) / math.sqrt(R)
        target = 6.0 ** -mask.bit_count()
        if not bench.check(op, abs(float(vec.mean()) - target) <= Z_MEAN * se,
                           f"null mean of subset {mask:#x} is {vec.mean():.6g}, "
                           f"expected {target:.6g} +- {Z_MEAN:g} se ({se:.3g})"):
            break
    copy = os.path.join(bench.workdir, "roundtrip.txt")
    save_reference(ref, copy)
    bench.check(op, read_text(copy) == read_text(path),
                "saving the loaded reference does not reproduce the file")
    again = load_reference(copy)
    bench.check(op, list(again.norms) == list(ref.norms) and all(
        _bits_equal(again.norms[m], ref.norms[m]) for m in ref.norms),
        "reloading a saved reference is not bit-exact")


# ---------------------------------------------------------------------------
# calibrate: `unicube null` over three shapes at --threads 1 and 2, and
# `unicube test` calls that read the wide-family reference just written.
# ---------------------------------------------------------------------------

#: (n, p, h, R): wide family, pair-heavy, many-subset partial family.
SHAPES = ((50, 6, 6, 999), (200, 3, 3, 499), (50, 10, 3, 499))


class Calibrate:
    rounds = {"timed": 2, "peak": 1, "trace": 1}
    files = 16
    threaded = True
    spans = _BUILD + _WRITE + _WARM_TEST

    def __init__(self, seed: int, inputs_dir: str):
        rng = np.random.default_rng([seed, 1])
        self.seeds = _seeds(rng, 2)
        # Warm calls use the wide-family shape only: a mix of shapes would
        # put the median on the edge between two clusters of call times.
        self.samples = [_csv(inputs_dir, f"cal-{i}.csv", rng.random((50, 6)))
                        for i in range(self.files)]

    def run(self, bench: Bench, mode: str, seconds: float) -> dict[str, list[float]]:
        times: dict[str, list[float]] = {"cold": [], "cold2": [], "warm": []}
        rounds = self.rounds[mode]
        dirs = [{t: bench.fresh_dir(f"null-t{t}") for t in (1, 2)} for _ in range(rounds)]
        cache = dirs[0][1]
        _, _, h, R = SHAPES[0]

        def step(i, _slice):
            path = self.samples[i % len(self.samples)]
            op = bench.run("test-warm", ["test", path, "--h", h, "--R", R,
                                         "--seed", self.seeds[0], "--null-cache", cache],
                           deadline=10)
            if op.ok:
                times["warm"].append(op.wall)
                warm.record(op, path, op.out, _s_rejects(op.out))
            return op

        warm = _Warm(bench, mode, seconds, 2 * rounds,
                     1 if mode == "peak" else len(self.samples), step)
        stamps: dict = {}
        for r in range(rounds):
            for threads, key in ((1, "cold"), (2, "cold2")):
                times[key].append(self._null_pass(bench, dirs[r], threads, self.seeds[r]))
                stamps = stamps or _stamps(cache)
                warm.run_slice()
        warm.check_cache(stamps, cache)
        warm.check_rejections("uniform files", self.samples, None, 0.5)
        return times

    @staticmethod
    def _null_pass(bench: Bench, dirs: dict[int, str], threads: int, seed: int) -> float:
        """`unicube null` over the shapes; returns the summed wall time."""
        total = 0.0
        for shape in SHAPES:
            n, p, h, R = shape
            path = os.path.join(dirs[threads], reference_filename(n, p, h, R, seed))
            op = bench.run("null", ["null", "--n", n, "--p", p, "--h", h, "--R", R,
                                    "--seed", seed, "--threads", threads, "--out", path],
                           deadline=60)
            if op.ok and threads == 1:
                _check_reference(bench, op, path, shape, seed)
            elif op.ok:
                twin = os.path.join(dirs[1], os.path.basename(path))
                bench.check(op, read_text(path) == read_text(twin),
                            "--threads 2 reference differs from --threads 1")
            total += op.wall or 0.0
        return total

    @staticmethod
    def figures(times, metrics) -> dict:
        return {"null_s": metrics["cold_s"], "null_t2_s": metrics["cold2_s"],
                "null_s_rounds": times["cold"], "null_t2_s_rounds": times["cold2"],
                "calibrated_test_warm_ms_p50": metrics["warm_ms_p50"]}


# ---------------------------------------------------------------------------
# test-session: `unicube test` on n=50 CSV files, cold then warm, and the
# asymptotic modes on p=5 files.
# ---------------------------------------------------------------------------

class TestSession:
    cold = {"timed": 4, "peak": 1, "trace": 2}
    # Per kind (uniform, copula). The s rule rejects about 16% of uniform
    # n=50, p=6 samples at alpha 0.05, so the level gate needs many files.
    files = 32
    asym_draws = 2000
    threaded = False
    spans = _BUILD + _WRITE + _WARM_TEST + (
        "inference.report_json", "inference.asymptotic_test", "inference.save_table",
        "inference.load_table", "brownian.asymptotic_norm_draws", "brownian.asymptotic_cdf")

    def __init__(self, seed: int, inputs_dir: str):
        rng = np.random.default_rng([seed, 2])
        self.seeds = _seeds(rng, 4)
        self.asym_seed = _seeds(rng, 1)[0]
        self.s_reject: dict[str, float] = {}
        self.uniform = [_csv(inputs_dir, f"ts-u{i}.csv", rng.random((50, 6)))
                        for i in range(self.files)]
        self.copula = [_csv(inputs_dir, f"ts-c{i}.csv", _copula(rng, 50, 6, 0.4))
                       for i in range(self.files)]
        self.asym = [_csv(inputs_dir, f"ts-a{i}.csv",
                          rng.random((50, 5)) if i % 2 == 0 else _copula(rng, 50, 5, 0.4))
                     for i in range(4)]

    def run(self, bench: Bench, mode: str, seconds: float) -> dict[str, list[float]]:
        times: dict[str, list[float]] = {"cold": [], "cold2": [], "warm": [],
                                         "asym_warm": []}
        cache = bench.fresh_dir("ts-cache")
        report = os.path.join(bench.workdir, "report.json")
        files = [f for pair in zip(self.uniform, self.copula) for f in pair]
        colds = self.cold[mode]

        def call(kind, path, seed, extra, deadline):
            if os.path.exists(report):
                os.remove(report)
            op = bench.run(kind, ["test", path, "--seed", seed, "--null-cache", cache,
                                  "--json", report] + extra, deadline)
            if op.ok:
                text = read_text(report)
                decisions = [json.loads(line) for line in text.splitlines()]
                warm.record(op, (path, seed, tuple(extra)), (op.out, text),
                            any(r["mode"] == "s" and r["decision"] == "reject"
                                for r in decisions))
            return op

        # Slice k reads the reference of the k-th cold call, starting with
        # the file of that call, and walks its own share of the files.
        share = len(files) // colds
        starts: dict[int, int] = {}

        def step(i, slice_index):
            n = i - starts.setdefault(slice_index, i)
            op = call("test-warm", files[(slice_index * share + n) % len(files)],
                      self.seeds[slice_index], [], 10)
            if op.ok:
                times["warm"].append(op.wall)
            return op

        warm = _Warm(bench, mode, seconds, colds, 1 if mode == "peak" else 16 * colds, step)
        stamps: dict = {}
        for k in range(colds):
            op = call("test-cold", files[k * share], self.seeds[k], [], deadline=60)
            if op.ok:
                times["cold"].append(op.wall)
                name = reference_filename(50, 6, 6, 999, self.seeds[k])
                bench.check(op, os.path.exists(os.path.join(cache, name)),
                            "cold call wrote no reference")
            stamps.update(_stamps(cache))
            warm.run_slice()
            if k == max(0, colds // 2 - 1):
                self._asym_cold(bench, call, cache, times)
                stamps.update(_stamps(cache))

        asym = ["--asym-draws", self.asym_draws]
        modes = ("m-as", "s-as")
        for i in range({"timed": 40, "peak": 1, "trace": 12}[mode]):
            path = self.asym[(i // 2) % len(self.asym)]
            op = call("asym-warm", path, self.asym_seed, ["--mode", modes[i % 2]] + asym, 10)
            if op.ok:
                times["asym_warm"].append(op.wall)
        warm.check_cache(stamps, cache)
        keys = [(f, s, ()) for s in self.seeds for f in files]
        uniform = set(self.uniform)
        warm.check_rejections("uniform files (alpha 0.05)",
                              [k for k in keys if k[0] in uniform], None, 0.5)
        warm.check_rejections("rho=0.4 copula files",
                              [k for k in keys if k[0] not in uniform], 0.6, None)
        if mode != "peak":
            self.s_reject = {kind: statistics.mean(
                [warm.rejects[k] for k in keys if k in warm.rejects and (k[0] in uniform) == is_u]
                or [math.nan]) for kind, is_u in (("uniform", True), ("copula", False))}
        return times

    def _asym_cold(self, bench: Bench, call, cache: str, times) -> None:
        """One cold m-as call: draws and saves five limiting-norm tables."""
        op = call("asym-cold", self.asym[0], self.asym_seed,
                  ["--mode", "m-as", "--asym-draws", self.asym_draws], deadline=120)
        if not op.ok:
            return
        times["cold2"].append(op.wall)
        tables = sorted(f for f in os.listdir(cache) if f.startswith("asym_"))
        bench.check(op, len(tables) == 5, f"expected 5 limiting-norm tables, found {len(tables)}")
        for name in tables:
            table = load_table(os.path.join(cache, name))
            draws = table.draws
            se = float(draws.std(ddof=1)) / math.sqrt(draws.shape[0])
            target = 6.0 ** -table.k
            if not bench.check(op, abs(float(draws.mean()) - target) <= Z_MEAN * se,
                               f"table k={table.k} mean {draws.mean():.6g}, expected "
                               f"{target:.6g} +- {Z_MEAN:g} se ({se:.3g})"):
                break

    def figures(self, times, metrics) -> dict:
        return {"test_cold_s": metrics["cold_s"], "test_cold_samples_s": times["cold"],
                "test_warm_ms_p50": metrics["warm_ms_p50"],
                "test_warm_ms_tail": metrics["warm_ms_tail"],
                "asym_cold_s": metrics["cold2_s"],
                "asym_warm_ms_p50": 1000.0 * statistics.median(times["asym_warm"])
                if times["asym_warm"] else math.nan,
                "s_reject_share": self.s_reject}


# ---------------------------------------------------------------------------
# power-cell: one cell of the published partial grid, and the same per-trial
# path through the CLI: `unicube test` on samples of the same alternative.
# ---------------------------------------------------------------------------

class PowerCell:
    rounds = {"timed": 4, "peak": 1, "trace": 1}
    trials = 200
    published_s = 0.857  # normal copula rho=0.3, p=6, n=50, h=6
    files = 24
    threaded = False
    spans = _BUILD + _WRITE + _WARM_TEST + (
        "alternatives.sample_alternative", "alternatives._phi", "power.estimate_power",
        "power.rows_to_csv")

    def __init__(self, seed: int, inputs_dir: str):
        rng = np.random.default_rng([seed, 3])
        self.seeds = _seeds(rng, self.rounds["timed"])
        self.test_seeds = _seeds(rng, self.rounds["timed"])
        self.samples = [_csv(inputs_dir, f"pc-{i}.csv", _copula(rng, 50, 6, 0.3))
                        for i in range(self.files)]

    def run(self, bench: Bench, mode: str, seconds: float) -> dict[str, list[float]]:
        times: dict[str, list[float]] = {"cold": [], "cold2": [], "warm": []}
        cache = bench.fresh_dir("pc-cache")
        rounds = self.rounds[mode]

        def test(kind, path, seed, deadline):
            op = bench.run(kind, ["test", path, "--R", 499, "--seed", seed,
                                  "--null-cache", cache], deadline=deadline)
            if op.ok:
                warm.record(op, (path, seed), op.out, _s_rejects(op.out))
            return op

        def step(i, slice_index):
            # Slice k reads the reference of the k-th cold test call.
            op = test("test-warm", self.samples[i % len(self.samples)],
                      self.test_seeds[slice_index], 10)
            if op.ok:
                times["warm"].append(op.wall)
            return op

        warm = _Warm(bench, mode, seconds, rounds, 1 if mode == "peak" else 32, step)
        stamps: dict = {}
        for r in range(rounds):
            op = bench.run("power", ["power", "--alternative", "normal-copula:rho=0.3,p=6",
                                     "--n", 50, "--trials", self.trials, "--R", 499,
                                     "--modes", "m,s", "--threads", 1,
                                     "--seed", self.seeds[r]], deadline=90)
            if op.ok:
                times["cold"].append(op.wall)
                self._check_power(bench, op)
            op = test("test-cold", self.samples[r], self.test_seeds[r], 60)
            if op.ok:
                times["cold2"].append(op.wall)
            stamps.update(_stamps(cache))
            warm.run_slice()
        warm.check_cache(stamps, cache)
        warm.check_rejections("rho=0.3 samples",
                              [(f, s) for s in self.test_seeds for f in self.samples],
                              0.5, None)
        return times

    def _check_power(self, bench: Bench, op: Op) -> None:
        rows = {row["mode"]: row for row in csv.DictReader(io.StringIO(op.out))}
        if not bench.check(op, {"m", "s"} <= set(rows), "power table lacks m or s rows"):
            return
        bench.check(op, rows["m"]["power"] == "0.0000",
                    f"m power {rows['m']['power']}, expected 0.0000 (R=499 cannot reach "
                    "the 63-subset min-p cutoff)")
        se = math.sqrt(self.published_s * (1.0 - self.published_s) / self.trials)
        s_power = float(rows["s"]["power"])
        bench.check(op, abs(s_power - self.published_s) <= Z_POWER * se,
                    f"s power {s_power:.3f}, published {self.published_s} "
                    f"+- {Z_POWER:g} se ({se:.3f})")

    def figures(self, times, metrics) -> dict:
        return {"power_trials_per_s": self.trials / metrics["cold_s"],
                "power_s_rounds": times["cold"],
                "trial_test_cold_s": metrics["cold2_s"],
                "trial_test_warm_ms_p50": metrics["warm_ms_p50"]}


WORKLOADS = {"calibrate": Calibrate, "test-session": TestSession, "power-cell": PowerCell}
