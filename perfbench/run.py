"""Benchmark of whole `maghom` CLI jobs, end to end and layer by layer.

    python3 perfbench/run.py --workload {chain-z,algebra-frac,ring-field,all}
                             --seed N --seconds S --trace {0,1} [--gen-seed K]

Run from anywhere inside a checkout; the package is imported from its
`src/`.  For each workload the script writes the seeded inputs under
`.perfbench_work/`, times set-up in fresh worker processes, then runs the
job list in one fresh worker process for --seconds and checks every job's
exit code and stdout digest against `reference.json`.

--trace 0 reports the end-to-end metrics from untraced passes; --trace 1
alternates traced and untraced passes and reports the per-layer metrics.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Exit status is 0 when the benchmark ran (the result says whether
outputs were correct) and nonzero when it could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Set-up is short and its spread is dominated by process start-up, so it is
# timed in fresh processes -- this many before the worker starts, the worker
# itself, and one after every pass -- and the median is reported.
SETUP_PROBES_FIRST = 2
# A worker gets this long beyond --seconds to finish its last pass.
WORKER_GRACE_S = 120
# Seconds the worker's calibration loop takes on an unloaded host (Intel
# Xeon, 2 vCPUs, CPython 3): `wall_s` is the pass time at that speed.
REF_CALIB_S = 0.022

# (metric, unit, span, source): source "self" is the span's self time per
# pass, "calls" its call count per pass, "count" the counter of that name.
PER_LAYER = (
    ("io.load_s", "s", "io.load", "self"),
    ("distmod.validate_s", "s", "distmod.validate", "self"),
    ("space.grades_s", "s", "space.grades", "self"),
    ("chain.enumerate_s", "s", "chain.enumerate", "self"),
    ("chain.tuples", "count", "chain.enumerate", "count"),
    ("chain.assemble_s", "s", "chain.assemble", "self"),
    ("chain.nnz", "count", "chain.assemble", "count"),
    ("linalg.check_s", "s", "linalg.check", "self"),
    ("linalg.snf_s", "s", "linalg.snf", "self"),
    ("linalg.snf_calls", "count", "linalg.snf", "calls"),
    ("linalg.snf_nnz", "count", "linalg.snf", "count"),
    ("linalg.snf_max_cols", "count", "linalg.snf", "count"),
    ("linalg.torsion_factors", "count", "linalg.snf", "count"),
    ("linalg.rank_s", "s", "linalg.rank", "self"),
    ("linalg.rank_calls", "count", "linalg.rank", "calls"),
    ("linalg.rank_nnz", "count", "linalg.rank", "count"),
    ("linalg.solve_s", "s", "linalg.solve", "self"),
    ("linalg.solve_calls", "count", "linalg.solve", "calls"),
    ("linalg.solve_cells", "count", "linalg.solve", "count"),
    ("linalg.kernel_s", "s", "linalg.kernel", "self"),
    ("linalg.span_s", "s", "linalg.span", "self"),
    ("resolution.build_s", "s", "resolution.build", "self"),
    ("resolution.basis", "count", "resolution.build", "count"),
    ("resolution.terms_s", "s", "resolution.terms", "self"),
    ("resolution.tor_s", "s", "resolution.tor", "self"),
    ("resolution.ext_s", "s", "resolution.ext", "self"),
    ("ring.table_s", "s", "ring.table", "self"),
    ("ring.classes_s", "s", "ring.classes", "self"),
    ("ring.cup_s", "s", "ring.cup", "self"),
    ("ring.cup_calls", "count", "ring.cup", "calls"),
    ("cli.emit_s", "s", "cli.emit", "self"),
    ("cli.other_s", "s", None, "other"),
    ("trace.overhead", "ratio", None, "overhead"),
    ("host.calib_s", "s", None, "calib"),
)


class BenchmarkError(Exception):
    """The benchmark could not run (as opposed to: the program answered wrongly)."""


class Worker:
    """A workload process; passes are requested one at a time over stdin.

    A timer kills the process if it outlives `timeout` seconds, so a hung
    job cannot hang the benchmark.
    """

    def __init__(self, plan_path, timeout, setup_only=False):
        cmd = [sys.executable, str(HERE / "worker.py"), str(plan_path)]
        if setup_only:
            cmd.append("--setup-only")
        t0 = time.monotonic()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        self.timer = threading.Timer(timeout, self.proc.kill)
        self.timer.start()
        try:
            ready = self._line()
            if not ready.startswith("ready "):
                raise BenchmarkError(f"worker did not set up: {ready!r}")
        except BaseException:
            self._stop(kill=True)
            raise
        self.setup_s = float(ready.split()[1]) - t0

    def _line(self):
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            raise BenchmarkError(f"worker ended early with exit code {self.proc.returncode}")
        return line

    def run_pass(self, traced):
        self.proc.stdin.write("traced\n" if traced else "untraced\n")
        self.proc.stdin.flush()
        return json.loads(self._line())

    def finish(self):
        """Ends the process; returns its last line (peak memory) parsed."""
        self.proc.stdin.write("exit\n")
        self.proc.stdin.flush()
        return json.loads(self._line())

    def __enter__(self):
        return self

    def _stop(self, kill):
        self.timer.cancel()
        if kill and self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()

    def __exit__(self, exc_type, exc, tb):
        self._stop(kill=exc_type is not None)
        if exc_type is None and self.proc.returncode != 0:
            raise BenchmarkError(f"worker failed with exit code {self.proc.returncode}")


def setup_probe(plan_path):
    with Worker(plan_path, WORKER_GRACE_S, setup_only=True) as w:
        return w.setup_s


def code_digest():
    """Digest of the package sources: count records are kept per code version."""
    h = hashlib.sha256()
    for path in sorted((SRC / "maghom").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_jobs(wl, passes, reference, gen_offset, shown):
    """Count failed job runs; prints each with its argv and reason."""
    expected = {}
    for job in wl.jobs:
        entry = reference["jobs"][job.name] if gen_offset == 0 else None
        if entry is None:
            # no recorded answer for regenerated instances: every pass must
            # reproduce the first one
            first = next(r for r in passes[0]["jobs"] if r["name"] == job.name)
            expected[job.name] = (0, first["sha256"])
        else:
            expected[job.name] = (entry["exit"], entry["sha256"])
    crosschecks = {job.name for job in wl.jobs if job.args[0] == "crosscheck"}
    failed = 0
    for k, p in enumerate(passes):
        for r in p["jobs"]:
            code, digest = expected[r["name"]]
            reasons = []
            if r["exit"] != code:
                reasons.append(f"exit {r['exit']} != {code}")
            if r["sha256"] != digest:
                reasons.append(f"stdout sha256 {r['sha256'][:16]} != {digest[:16]}")
            if r["name"] in crosschecks and not r["agree"]:
                reasons.append("crosscheck does not report 'all bidegrees agree'")
            if reasons:
                failed += 1
                kind = "traced" if p["traced"] else "untraced"
                print(f"FAIL pass {k} ({kind}) {r['name']}: maghom {shown[r['name']]}: " + "; ".join(reasons))
    return failed


def ref_pass_s(passes, jobs):
    """`wall_s`: seconds for one pass, each job run scaled to the reference host speed.

    On a shared host, neighbours slow every process by up to about 2x, in
    phases from under a second to minutes long -- often as long as a whole
    run.  The worker times a fixed calibration loop (no package code) on
    both sides of every job; a run's time times REF_CALIB_S over their mean
    is its time at the reference speed.  Each job contributes the median of
    its scaled runs in `passes`.
    """
    return sum(
        median(REF_CALIB_S * r["seconds"] / r["calib_s"] for p in passes for r in p["jobs"] if r["name"] == job.name)
        for job in jobs
    )


def counts_repeat(traced, record_path):
    """True if every traced pass, and any earlier run of the same code, agree."""
    snapshots = [{"calls": p["calls"], "counts": p["counts"]} for p in traced]
    ok = all(s == snapshots[0] for s in snapshots)
    if not ok:
        print("ERROR count metrics differ between traced passes of one run")
    if record_path.is_file():
        earlier = json.loads(record_path.read_text())
        if earlier != snapshots[0]:
            print(f"ERROR count metrics differ from an earlier run of the same code ({record_path.name})")
            ok = False
    else:
        record_path.parent.mkdir(parents=True, exist_ok=True)
        record_path.write_text(json.dumps(snapshots[0], sort_keys=True))
    return ok


def layer_metrics(wl, passes, missing_spans):
    """Per-layer metrics; dark spans are listed and left out, never shown as 0 s."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    calls = traced[0]["calls"]
    dark = sorted(
        span
        for span in {s for _, _, s, _ in PER_LAYER if s}
        if not calls.get(span) and (span in wl.predicted or span in missing_spans)
    )
    metrics = {}
    for name, unit, span, source in PER_LAYER:
        if span in dark:
            continue
        if source == "self":
            value = median([p["self_s"].get(span, 0.0) for p in traced])
        elif source == "calls":
            value = calls.get(span, 0)
        elif source == "count":
            value = traced[0]["counts"].get(name, 0)
        elif source == "other":
            value = median([p["other_s"] for p in traced])
        elif source == "overhead":
            value = ref_pass_s(traced, wl.jobs) / ref_pass_s(untraced, wl.jobs) - 1
        else:
            value = median([p["calib_s"] for p in passes])
        metrics[name] = {"value": value, "unit": unit}
    return metrics, dark


def run_workload(wl, args, reference, missing_spans):
    from workloads import label_tag, write_inputs

    work = WORK / f"{wl.name}-s{args.seed}-g{args.gen_seed}"
    paths, summaries = write_inputs(wl, args.seed, args.gen_seed, work)
    print(f"== workload {wl.name}: {wl.why}")
    print(f"   seed {args.seed}: point labels prefixed {label_tag(args.seed)!r}; gen-seed offset {args.gen_seed}")
    for inst in wl.instances:
        s = summaries[inst.key]
        print(
            f"   input {inst.key} = {inst.recipe}: points {s['points']}, INF pairs {s['inf_pairs']}, "
            f"fractional pairs {s['frac_pairs']}"
        )
    jobs, shown = [], {}
    for job in wl.jobs:
        argv = job.argv(paths[job.instance])
        shown[job.name] = " ".join(job.argv(f"{job.instance}.json"))
        basis = summaries[job.instance]["basis"][job.name]
        print(f"   job {job.name}: maghom {shown[job.name]}  (chain basis n<=nmax+1, l<=lmax: {basis})")
        jobs.append({"name": job.name, "argv": argv})
    plan = {
        "src": str(SRC),
        "inputs": [str(p) for p in paths.values()],
        "jobs": jobs,
    }
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan))

    # Set-up probes run before the worker and after every pass, so they
    # sample the host across the whole run.
    setup = [setup_probe(plan_path) for _ in range(SETUP_PROBES_FIRST)]
    order = [True, False] if args.trace else [False]
    passes = []
    with Worker(plan_path, args.seconds + WORKER_GRACE_S) as w:
        setup.append(w.setup_s)
        start = time.monotonic()
        while True:
            began = time.monotonic()
            passes.append(w.run_pass(order[len(passes) % len(order)]))
            setup.append(setup_probe(plan_path))
            now = time.monotonic()
            # start another pass only if it should end within --seconds
            if len(passes) >= len(order) and now + (now - began) - start > args.seconds:
                break
        peak_rss_mb = w.finish()["peak_rss_mb"]
    (work / "result.json").write_text(json.dumps({"setup_s": setup, "peak_rss_mb": peak_rss_mb, "passes": passes}))

    attempted = sum(len(p["jobs"]) for p in passes)
    failed = check_jobs(wl, passes, reference, args.gen_seed, shown)
    correct = failed == 0
    untraced = [p for p in passes if not p["traced"]]
    for job in wl.jobs:
        runs = [r for p in untraced for r in p["jobs"] if r["name"] == job.name]
        times = [r["seconds"] for r in runs]
        scaled = median(REF_CALIB_S * r["seconds"] / r["calib_s"] for r in runs)
        digest = next(r["sha256"] for r in passes[0]["jobs"] if r["name"] == job.name)
        print(f"   {job.name}: untraced s min {min(times):.4f} median {median(times):.4f}, "
              f"at reference speed {scaled:.4f}; stdout sha256 {digest}")
    walls = [p["wall_s"] for p in untraced]
    print(f"   untraced passes: {len(walls)}, wall s: " + ", ".join(f"{w:.4f}" for w in walls))
    print(f"   median untraced pass as measured = {median(walls):.6g} s")
    print(f"   diagnostic host.calib_s = {median([p['calib_s'] for p in passes]):.6f} s (per pass: "
          + ", ".join(f"{p['calib_s']:.6f}" for p in passes) + ")")
    print(f"   fail_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted} job runs)")

    if args.trace:
        traced = [p for p in passes if p["traced"]]
        if failed == 0:
            # every pass matched one expected digest, so tracing changed no byte
            print(f"   traced stdout equals untraced ({len(traced)} traced, {len(walls)} untraced passes)")
        record = WORK / "counts" / f"{wl.name}-g{args.gen_seed}-{code_digest()}.json"
        correct = counts_repeat(traced, record) and correct
        metrics, dark = layer_metrics(wl, passes, missing_spans)
        if dark:
            print("   dark layers (no calls recorded; not reported): " + ", ".join(dark))
    else:
        metrics = {
            "wall_s": {"value": ref_pass_s(untraced, wl.jobs), "unit": "s"},
            "setup_s": {"value": median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        print("   set-up s: " + ", ".join(f"{s:.4f}" for s in setup))
    for name, m in metrics.items():
        print(f"   metric {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0, help="picks the point labels of every input")
    p.add_argument("--seconds", type=float, default=40.0, help="measured time per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--gen-seed",
        type=int,
        default=0,
        help="added to every pinned generator seed; 0 gives the pinned instances",
    )
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "maghom" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'maghom'}", file=sys.stderr)
        return 2
    import spans
    import worker
    from workloads import NOT_MEASURED, build_workloads

    worker.import_maghom(SRC)
    workloads = build_workloads()
    names = list(workloads) if args.workload == "all" else [args.workload]
    if any(n not in workloads for n in names):
        print(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(workloads)} or all",
              file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())
    missing = [t for t in spans.TARGETS if spans.resolve(t) is None]
    for t in missing:
        print(f"dark span target: {t.span} -> {t.module}.{t.attr} no longer exists")
    for module, why in NOT_MEASURED.items():
        print(f"not measured: maghom.{module} ({why})")

    try:
        results = {n: run_workload(workloads[n], args, reference, {t.span for t in missing}) for n in names}
    except BenchmarkError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        print(f"== summary ({'per-layer' if args.trace else 'end-to-end'} metrics)")
        final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for n, r in results.items():
            final["correct"] = final["correct"] and r["correct"]
            final["attempted"] += r["attempted"]
            final["failed"] += r["failed"]
            for name, m in r["metrics"].items():
                print(f"   {n:<13} {name:<24} {m['value']:>14.6g} {m['unit']}")
                final["metrics"][f"{n}/{name}"] = m
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
