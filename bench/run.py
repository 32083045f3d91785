#!/usr/bin/env python3
"""Benchmark of the extmod command line, one workload per run.

    python3 bench/run.py --workload paper_check --seed 1 --seconds 25 --trace 0

Runs the seeded job list of one workload (see ``workloads.py``) in this
process through ``extmod.cli.main``, checks every job's output, and prints
one JSON object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first runs the
same job list untraced in a child process, then runs it again with every
layer wrapped (see ``tracing.py``) and reports the per-layer metrics, with
the tracing overhead as traced minus untraced ``wall_s``.  The spans are
written to ``.bench_out/`` in the checkout.

The package is imported from ``src/`` next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import WORKLOADS, make_jobs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 170


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="nominal run length; sizes the job list")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # a child started by --trace 0 to time one set-up: import and job list
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _jobs(args, work: Path):
    return make_jobs(args.workload, args.seed, args.seconds, str(work / "job"))


def _reference_kernel() -> int:
    """Gauss-Jordan elimination of a fixed 24x24 matrix over F5, in plain Python."""
    p, n = 5, 24
    x = 12345
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            x = (1103515245 * x + 12345) % 2**31
            row.append((x >> 16) % p)
        rows.append(row)
    rank = 0
    for c in range(n):
        pivot = next((i for i in range(rank, n) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        top = rows[rank]
        for i in range(n):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], top)]
        rank += 1
    return rank


class HostClock:
    """Converts measured seconds to reference seconds.

    The speed of the shared host drifts by up to a third within minutes, and
    CPU time drifts with wall time, so raw times of identical work spread
    too widely to compare commits.  A fixed reference kernel runs between
    jobs; a job's time is its measured seconds times ``REFERENCE_S`` over
    the mean kernel time on either side of it.  The kernel is the
    benchmark's own code, so a change to the program moves the reported time
    exactly as much as it moves the measured time.
    """

    REFERENCE_S = 0.0013  # kernel time at the baseline host's median speed
    REPS = 15

    def __init__(self) -> None:
        self.probes = [self.probe()]

    def probe(self) -> float:
        """Median time of one kernel run, out of ``REPS``."""
        times = []
        for _ in range(self.REPS):
            start = time.perf_counter()
            _reference_kernel()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def factor(self) -> float:
        """Probe now; the factor for the interval since the previous probe."""
        now = self.probe()
        factor = self.REFERENCE_S / ((self.probes[-1] + now) / 2)
        self.probes.append(now)
        return factor


def _measure_setup(args) -> float:
    """Process start to first job in fresh interpreters, in reference seconds.

    Start-up is too short to bracket one at a time, so the median start-up
    is scaled by the median kernel time measured between them.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    clock = HostClock()
    times, probes = [], []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=CHILD_TIMEOUT_S)
        times.append(float(proc.stdout.split()[-1]) - start)
        probes.append(clock.probe())
    return statistics.median(times) * clock.REFERENCE_S / statistics.median(probes)


def _run_jobs(jobs, cli, tracer=None) -> tuple[list[float], int]:
    """Time each job's CLI calls and check its output.

    Returns the job times in reference seconds and the number of failed jobs.
    """
    times: list[float] = []
    raw_total = 0.0
    failed = 0
    gc.collect()
    clock = HostClock()
    for i, job in enumerate(jobs):
        outs: list[str] = []
        problem = None
        if tracer is not None:
            tracer.job = i
        start = time.perf_counter()
        try:
            for argv in job.calls:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(list(argv))
                if code != 0:
                    problem = f"exit {code}: {err.getvalue().strip()}"
                    break
                outs.append(out.getvalue())
        except Exception:  # a crash is a failed job, not a failed benchmark
            problem = traceback.format_exc(limit=3)
        raw = time.perf_counter() - start
        gc.collect()
        factor = clock.factor()
        raw_total += raw
        times.append(raw * factor)
        if tracer is not None:
            tracer.end_job(factor)
        if problem is None:
            try:
                problem = job.check(outs)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problem = f"unreadable output: {exc!r}"
        if problem is not None:
            failed += 1
            print(f"job {i} ({job.kind}) failed: {problem}", file=sys.stderr)
    print(f"{len(jobs)} jobs: {raw_total:.3f} s measured, {sum(times):.3f} "
          f"reference s, median kernel time {statistics.median(clock.probes):.6f} s",
          file=sys.stderr)
    return times, failed


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _summarize(times: list[float], failed: int, setup_s: float) -> dict:
    ordered = sorted(times)
    # the highest percentile with ten jobs beyond it
    tail_index = len(ordered) - 11
    print(f"job_tail_s is p{100 * (tail_index + 1) / len(times):.1f} of "
          f"{len(times)} jobs", file=sys.stderr)
    return {
        "wall_s": _metric(sum(times), "s"),
        "job_p50_s": _metric(statistics.median(times), "s"),
        "job_tail_s": _metric(ordered[tail_index], "s"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": _metric((len(times) - failed) / len(times), "ratio"),
    }


def _end_to_end(args, cli, work: Path) -> tuple[dict, int, int]:
    setup = _measure_setup(args)
    times, failed = _run_jobs(_jobs(args, work), cli)
    return _summarize(times, failed, setup), len(times), failed


def _per_layer(args, cli, work: Path) -> tuple[dict, int, int]:
    from tracing import Tracer

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    untraced = json.loads(proc.stdout.strip().splitlines()[-1])
    jobs = _jobs(args, work)
    with Tracer() as tracer:
        times, failed = _run_jobs(jobs, cli, tracer)
    values = tracer.metrics()
    wall = sum(times)
    values["trace.wall_s"] = wall
    values["trace.overhead_s"] = wall - untraced["metrics"]["wall_s"]["value"]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{args.workload}.gz")
    metrics = {name: _metric(value, _unit(name)) for name, value in values.items()}
    return (metrics, untraced["attempted"] + len(times),
            untraced["failed"] + failed)


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (SRC / "extmod" / "cli.py").is_file():
        print(f"error: no extmod package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import extmod.cli as cli

    if args.setup_probe:
        _jobs(args, ROOT / ".bench_work")
        print(time.monotonic())
        return 0
    work = ROOT / ".bench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        run = _per_layer if args.trace else _end_to_end
        metrics, attempted, failed = run(args, cli, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            work.parent.rmdir()
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
