"""Write reference.json: the expected exit code and stdout sha256 of every job.

    python3 perfbench/record.py

Run once, on a commit whose answers are trusted, for the pinned instances
(gen-seed offset 0).  Each job runs on the inputs of run seeds 0, 1 and 2
and must print the same bytes on all of them, since a run seed changes only
the point labels.
"""

from __future__ import annotations

import hashlib
import json
import sys

from run import HERE, SRC, WORK
from worker import import_maghom, run_job
from workloads import build_workloads, write_inputs

SEEDS = 3


def main():
    import_maghom(SRC)
    from maghom.cli import main as cli_main

    jobs = {}
    for wl in build_workloads().values():
        results = {job.name: set() for job in wl.jobs}
        for seed in range(SEEDS):
            paths, _ = write_inputs(wl, seed, 0, WORK / "record" / wl.name)
            for job in wl.jobs:
                code, stdout, seconds = run_job(cli_main, job.argv(paths[job.instance]))
                results[job.name].add((code, hashlib.sha256(stdout).hexdigest()))
                print(f"{wl.name} seed {seed} {job.name}: exit {code}, {seconds:.2f} s", flush=True)
        for job in wl.jobs:
            if len(results[job.name]) != 1:
                sys.exit(f"{job.name}: output depends on the run seed: {results[job.name]}")
            code, digest = results[job.name].pop()
            jobs[job.name] = {"args": job.argv("{input}"), "exit": code, "sha256": digest}
    (HERE / "reference.json").write_text(json.dumps({"jobs": jobs}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
