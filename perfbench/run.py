#!/usr/bin/env python3
"""Benchmark of the unicube command line, run from the repository root:

    python3 perfbench/run.py --workload calibrate --seed 1 --seconds 3 --trace 0

One client drives ``unicube.cli.main([...])`` in-process, closed loop. The
workloads (calibrate, test-session, power-cell) are described in
perfbench/NOTES.md. ``--trace 0`` prints the end-to-end metrics; ``--trace
1`` runs a fixed list of calls twice, untraced and then with spans around
every layer, and prints the per-layer metrics. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Lines before it
start with "# " and record the environment and the named figures.
Spans and a copy of the result go to .perfbench_out/ in the repository root.
"""

from __future__ import annotations

import os

# Parallelism comes only from --threads: numpy's BLAS calls stay single-threaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
MB = 1024.0 * 1024.0

#: Median SpeedProbe time on the reference host (2 vCPUs, Python 3.11,
#: numpy 2.4). Timed runs report their timings at this host speed.
PROBE_REF_S = 0.040

#: Fresh interpreters timed for setup_s; the first one is discarded because
#: it may compile the package's bytecode.
SETUP_IMPORTS = 4
_IMPORT = ("import time; t = time.perf_counter(); import unicube.cli; "
           "print(time.perf_counter() - t)")


def _setup_times() -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(SETUP_IMPORTS):
        done = subprocess.run([sys.executable, "-c", _IMPORT], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.strip()))
    return times[1:]


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _environment(args) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"git_sha": _git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "nproc": len(os.sched_getaffinity(0)), "seed": args.seed,
            "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def _tail(values: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples beyond it, and the
    sample at it (nearest rank)."""
    n = len(values)
    if n <= 10:
        return 0, math.nan
    q = (100 * (n - 10)) // n
    return q, sorted(values)[max(0, math.ceil(q * n / 100) - 1)]


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ms_p50", "_ms_tail")):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if "bytes" in name:
        return "bytes"
    if name.endswith(("_ratio", "efficiency")):
        return "ratio"
    return "count"


def _timed(workload, bench, args) -> tuple[dict, dict]:
    from harness import SpeedProbe

    setup = _setup_times()
    probe = bench.probe = SpeedProbe()
    times = workload.run(bench, "timed", args.seconds)
    bench.probe = None
    bench.peak = True
    workload.run(bench, "peak", args.seconds)
    bench.peak = False
    q, tail = _tail(times["warm"])
    raw = {
        "setup_s": _median(setup),
        "cold_s": _median(times["cold"]),
        "cold2_s": _median(times["cold2"]),
        "warm_ms_p50": 1000.0 * _median(times["warm"]),
        "warm_ms_tail": 1000.0 * tail,
    }
    # The host's speed drifts by 20-40% over minutes; timings are reported
    # at the reference speed, scaled by this run's median probe time.
    scale = PROBE_REF_S / _median(probe.times)
    metrics = {
        "setup_s": raw["setup_s"] * scale,
        "ok_ratio": (bench.attempted - bench.failed) / bench.attempted,
        "peak_mb": bench.peak_bytes / MB,
        **{name: raw[name] * scale for name in raw if name != "setup_s"},
    }
    figures = {"raw": raw, "probe_s": _median(probe.times), "probes": len(probe.times),
               "fail_ratio": bench.failed / bench.attempted,
               "warm_tail_percentile": q, "warm_samples": len(times["warm"]),
               "setup_samples_s": setup,
               **workload.figures(times, raw)}
    return metrics, figures


def _traced(workload, bench, args) -> tuple[dict, dict]:
    import spans

    plain = workload.run(bench, "trace", args.seconds)
    untraced = bench.busy
    tracer = spans.Tracer()
    tracer.install()
    bench.tracer = tracer
    try:
        workload.run(bench, "trace", args.seconds)
    finally:
        bench.tracer = None
        tracer.uninstall()
    traced = bench.busy - untraced
    metrics = spans.layer_metrics(tracer)
    metrics["trace.overhead_s"] = traced - untraced
    metrics["inference.thread_efficiency"] = (
        _median(plain["cold"]) / (2.0 * _median(plain["cold2"]))
        if workload.threaded else 0.0)
    gaps = sorted((set(workload.spans) - tracer.fired()) | set(tracer.missing))
    for name in gaps:
        bench.failures.append(f"span {name} never fired")
        print(f"error: span {name} never fired: renamed, moved or re-imported?",
              file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}.jsonl")
    figures = {"untraced_busy_s": untraced, "traced_busy_s": traced,
               "overhead_share": (traced - untraced) / untraced,
               "unattributed_share": metrics["trace.unattributed_s"] / traced,
               "spans_missing": gaps}
    return metrics, figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["calibrate", "test-session", "power-cell"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="minimum length of the warm phase of a timed run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "unicube" / "__init__.py").is_file():
        print(f"error: no unicube package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The memory-pass worker starts while this process is still small (see
    # harness.py); traced runs make no memory pass.
    worker = None if args.trace else subprocess.Popen(
        [sys.executable, str(HERE / "harness.py")], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        sys.path[:0] = [str(ROOT / "src"), str(HERE)]
        from harness import Bench
        from workloads import WORKLOADS

        inputs = os.path.join(workdir, "inputs")
        os.mkdir(inputs)
        workload = WORKLOADS[args.workload](args.seed, inputs)
        bench = Bench(workdir, worker)
        run = _traced if args.trace else _timed
        metrics, figures = run(workload, bench, args)
    finally:
        if worker:
            worker.stdin.close()
            try:
                worker.wait(timeout=30)
            except subprocess.TimeoutExpired:
                worker.kill()
                worker.wait()
        shutil.rmtree(workdir, ignore_errors=True)

    env = _environment(args)
    correct = not bench.failures
    result = {"correct": correct, "attempted": bench.attempted, "failed": bench.failed,
              "metrics": {name: {"value": value, "unit": _unit(name)}
                          for name, value in metrics.items()}}
    print("# env " + json.dumps(env))
    print("# figures " + json.dumps(figures))
    for failure in bench.failures:
        print("# FAILED " + failure)
    with open(OUT / f"result-{args.workload}-trace{args.trace}-seed{args.seed}.json",
              "w", encoding="utf-8") as fh:
        json.dump({"env": env, "figures": figures, "failures": bench.failures,
                   **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
