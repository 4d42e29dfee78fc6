"""The workload process: one fresh interpreter, one client, no threads.

    python3 perfbench/worker.py PLAN.json [--setup-only]

Set-up imports `maghom` from the plan's source directory and loads (and,
for modules, validates) every input once, then prints `ready` and the
`time.monotonic()` reading (a clock shared by all processes) on stdout.
With --setup-only it exits there.  Otherwise it reads one command per line
from stdin: `traced` or `untraced` runs one pass over the job list as a
closed loop -- each job is `maghom.cli.main(argv)` with its stdout bytes
captured, and the next job starts only when it returns -- and prints the
pass as one JSON line; anything else ends the process after a last line
with its peak resident memory.

Before the first job of a pass and after every job the worker times the
calibration loop (no package code), so each job run carries the host
speed measured on both sides of it.

A traced pass wraps the layer functions (see spans.py) for its duration.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import spans


def import_maghom(src):
    """Import the package from `src` only, never from an installed copy."""
    sys.path.insert(0, str(src))
    import maghom
    import maghom.cli

    if Path(maghom.__file__).resolve().parent != (Path(src) / "maghom").resolve():
        raise ImportError(f"maghom imported from {maghom.__file__}, not from {src}")
    return maghom


# Calibration loops timed at each job boundary; their mean is one sample.
CALIB_REPS = 2


def calibrate():
    """Seconds for a fixed pure-Python loop over ints and Fractions.

    It runs no package code, so a change in it between runs is host drift.
    The collector is off while it runs, so the size of the package's heap
    cannot reach it.
    """
    gc.disable()
    try:
        t0 = perf_counter()
        acc = 0
        total = Fraction(0)
        for i in range(1, 12001):
            acc = (acc * 31 + i) % 1000003
            total += Fraction(i % 7, i % 5 + 1)
        return perf_counter() - t0
    finally:
        gc.enable()


def calib_sample():
    return sum(calibrate() for _ in range(CALIB_REPS)) / CALIB_REPS


def run_job(main, argv):
    """(exit code, stdout bytes, seconds) of one `maghom.cli.main(argv)` call."""
    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8", write_through=True)
    saved = sys.stdout
    sys.stdout = out
    t0 = perf_counter()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed job, not a failed benchmark
        print(f"job {argv} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        code = -1
    finally:
        seconds = perf_counter() - t0
        sys.stdout = saved
    out.flush()
    return code, buf.getvalue(), seconds


def load_all(inputs):
    from maghom.distmod import validate_module
    from maghom.io import load_input

    for path in inputs:
        kind, space, extra = load_input(path)
        if kind == "module":
            problems = validate_module(space, extra)
            if problems:
                raise ValueError(f"{path}: invalid module: {problems[0]}")


def run_pass(main, jobs, traced):
    gc.collect()
    calib = [calib_sample()]
    rec = spans.Recorder() if traced else None
    undo = spans.install(rec)[0] if traced else None
    results = []
    other = 0.0
    try:
        for job in jobs:
            covered = rec.top_s if traced else 0.0
            code, stdout, seconds = run_job(main, job["argv"])
            if traced:
                other += seconds - (rec.top_s - covered)
            calib.append(calib_sample())
            results.append(
                {
                    "name": job["name"],
                    "exit": code,
                    "sha256": hashlib.sha256(stdout).hexdigest(),
                    "seconds": seconds,
                    "calib_s": (calib[-2] + calib[-1]) / 2,
                    "agree": b'"status": "all bidegrees agree"' in stdout,
                }
            )
    finally:
        if traced:
            undo()
    record = {
        "traced": traced,
        "wall_s": sum(r["seconds"] for r in results),
        "calib_s": sorted(calib)[len(calib) // 2],
        "jobs": results,
    }
    if traced:
        record.update(
            self_s=dict(rec.self_s),
            calls=dict(rec.calls),
            counts=dict(rec.counts),
            other_s=other,
        )
    return record


def main(argv):
    plan = json.loads(Path(argv[0]).read_text())
    proto = sys.stdout
    import_maghom(plan["src"])
    load_all(plan["inputs"])
    proto.write(f"ready {time.monotonic()}\n")
    proto.flush()
    if "--setup-only" in argv[1:]:
        return 0
    from maghom.cli import main as cli_main

    while (command := sys.stdin.readline().strip()) in ("traced", "untraced"):
        record = run_pass(cli_main, plan["jobs"], command == "traced")
        proto.write(json.dumps(record) + "\n")
        proto.flush()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    proto.write(json.dumps({"peak_rss_mb": peak_mb}) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
