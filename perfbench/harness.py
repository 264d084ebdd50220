"""One client, closed loop: in-process ``unicube.cli.main`` calls with a
wall-clock deadline each, failure accounting and optional memory or span
recording around every call.

Run as a script (``python3 harness.py``, with the package on PYTHONPATH) it
is the memory-pass worker: it reads one JSON request per line, {"kind",
"argv", "deadline"}, makes that call and answers one JSON line {"rc", "out",
"reasons", "maxrss_kb"}, after a first line {"base_kb"} sent once the package
is imported. The peak memory of the pass is the growth of the worker's peak
resident memory over that base. ``tracemalloc`` is not used, because it
slows the pure-Python special functions about sevenfold, which puts a power
cell far past any usable deadline. On Linux a child's peak resident memory
starts at the size of the process that started it, so the benchmark starts
the worker before it imports numpy itself.
"""

from __future__ import annotations

import io
import json
import math
import os
import resource
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

from unicube import cli

#: Every operation of a run must start before this many seconds have passed,
#: so that a run ends well inside its 180 s limit even if ops hang.
RUN_BUDGET_S = 150.0


class OpDeadline(Exception):
    """Raised in the main thread when an operation overruns its deadline."""


def _on_alarm(signum, frame):
    raise OpDeadline()


class SpeedProbe:
    """A fixed piece of work, independent of unicube, timed between calls to
    follow the speed of the host: a pure-Python float loop, numpy products
    and weighted sums on kernel-sized arrays, and float parsing (about 40 ms
    on the reference host). Timed runs divide their timings by the median
    probe time, see run.py."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.factors = rng.random((128, 1275, 6))
        self.weights = np.where(rng.random(1275) < 0.04, 1.0, 2.0)
        self.text = " ".join("%.17g" % v for v in rng.random(15000))
        self.times: list[float] = []

    def __call__(self) -> float:
        start = time.perf_counter()
        total = 0.0
        for i in range(1, 60000):
            total += math.log(i) * 0.5 - math.sqrt(i) / (i + 1.0)
        prod = self.factors[..., 0]
        for j in range(1, 6):
            prod = prod * self.factors[..., j]
            total += float((prod @ self.weights).sum())
        total += sum(float(tok) for tok in self.text.split())
        self.times.append(time.perf_counter() - start)
        return total


@dataclass
class Op:
    kind: str
    argv: list[str]
    rc: int | None = None
    wall: float | None = None
    out: str = ""
    ok: bool = True
    reasons: list[str] = field(default_factory=list)


class Bench:
    """Runs operations and counts the attempted and the failed ones.

    ``peak`` switches on the memory pass: each op runs in ``worker``, a
    running ``harness.py`` process, and the growth of its peak resident
    memory is kept. ``tracer`` (a spans.Tracer) opens a root span per op.
    ``probe`` (a SpeedProbe) runs before a call when half a second has
    passed since it last ran.
    """

    def __init__(self, workdir: str | None, worker: subprocess.Popen | None = None,
                 budget_s: float = RUN_BUDGET_S):
        self.workdir = workdir
        self.worker = worker
        if worker:
            self.worker_base_kb = json.loads(worker.stdout.readline())["base_kb"]
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.peak = False
        self.peak_bytes = 0
        self.busy = 0.0  # summed wall time of the ops that completed
        self.tracer = None
        self.budget_end = time.monotonic() + budget_s
        self.probe = None
        self._probed = 0.0
        signal.signal(signal.SIGALRM, _on_alarm)

    def fresh_dir(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix + "-", dir=self.workdir)

    def run(self, kind: str, argv: list, deadline: float) -> Op:
        """One CLI call; failed on an exception, exit code 2 or deadline."""
        op = Op(kind, [str(a) for a in argv])
        self.attempted += 1
        left = self.budget_end - time.monotonic()
        if left < 1.0:
            self.fail(op, "run budget spent, op not started")
            return op
        if self.peak:
            self._run_in_worker(op, min(deadline, left))
            return op
        if self.probe and time.monotonic() - self._probed > 0.5:
            self.probe()
            self._probed = time.monotonic()
        out, err = io.StringIO(), io.StringIO()
        if self.tracer:
            self.tracer.begin_op(self.attempted, kind)
        signal.setitimer(signal.ITIMER_REAL, min(deadline, left))
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                op.rc = cli.main(op.argv)
            op.wall = time.perf_counter() - start
            self.busy += op.wall
        except OpDeadline:
            self.fail(op, f"over its {min(deadline, left):.0f} s deadline")
        except Exception as exc:  # the workload goes on; the op counts as failed
            self.fail(op, f"raised {type(exc).__name__}: {exc}")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if self.tracer:
                self.tracer.end_op()
        op.out = out.getvalue()
        if op.rc == 2:
            self.fail(op, "exit 2: " + err.getvalue().strip())
        return op

    def _run_in_worker(self, op: Op, limit: float) -> None:
        request = {"kind": op.kind, "argv": op.argv, "deadline": limit}
        self.worker.stdin.write(json.dumps(request) + "\n")
        self.worker.stdin.flush()
        line = self.worker.stdout.readline()
        if not line:
            self.fail(op, "memory-pass worker exited")
            return
        reply = json.loads(line)
        op.rc, op.out = reply["rc"], reply["out"]
        for reason in reply["reasons"]:
            self.fail(op, reason + " (memory pass)")
        self.peak_bytes = max(self.peak_bytes,
                              1024 * (reply["maxrss_kb"] - self.worker_base_kb))

    def check(self, op: Op, ok: bool, reason: str) -> bool:
        """A correctness gate on ``op``; a failed gate fails the op."""
        if not ok:
            self.fail(op, reason)
        return ok

    def fail(self, op: Op, reason: str) -> None:
        op.reasons.append(reason)
        if op.ok:
            op.ok = False
            self.failed += 1
        self.failures.append(f"{op.kind} {' '.join(op.argv)}: {reason}")


def read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def mtime(path: str) -> int | None:
    try:
        return os.stat(path).st_mtime_ns
    except FileNotFoundError:
        return None


def _serve() -> None:
    """Memory-pass worker loop (see the module docstring)."""
    reply = sys.stdout

    def maxrss_kb() -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    bench = Bench(None, budget_s=math.inf)
    print(json.dumps({"base_kb": maxrss_kb()}), file=reply, flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        op = bench.run(request["kind"], request["argv"], request["deadline"])
        print(json.dumps({"rc": op.rc, "out": op.out, "reasons": op.reasons,
                          "maxrss_kb": maxrss_kb()}), file=reply, flush=True)


if __name__ == "__main__":
    _serve()
