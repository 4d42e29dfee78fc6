"""The benchmark's workloads: pinned instances, seeded labels, CLI jobs.

Instances come from `maghom.gen` with pinned seeds.  `gen_offset` adds to
every pinned seed (same point count, arc probability, grid, nmax, lmax), so
a result can be re-checked on instances not used while writing a change.

The run seed renames every point: labels get a seed-derived prefix while
point order, distances and module data stay as generated.  Inputs differ
from seed to seed, but every seed does the same work and prints the same
bytes -- the package orders bases by point index, never by label -- so the
spread between runs on different seeds measures the host, and one recorded
digest per job checks every run.  (Reordering the points instead changes
the elimination order, and with it the cost of single jobs by tens of
percent.)
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass
from fractions import Fraction

# Modules no workload measures, with the reason.
NOT_MEASURED = {
    "algebra": "no compute path of mh/tor/ext/crosscheck/ring calls it",
    "quiver": "no compute path of mh/tor/ext/crosscheck/ring calls it",
    "gen": "used only to generate the benchmark's inputs",
    "instances": "used only to generate the benchmark's inputs",
}


@dataclass(frozen=True)
class Instance:
    key: str
    recipe: str  # human-readable generator call with its pinned seed
    build: object  # gen_offset -> ("digraph" | "space" | "module", object)


@dataclass(frozen=True)
class Job:
    name: str
    instance: str
    args: tuple  # argv with "{input}" in place of the input path
    nmax: int
    lmax: str

    def argv(self, path):
        return [str(path) if a == "{input}" else a for a in self.args] + [
            "--nmax",
            str(self.nmax),
            "--lmax",
            self.lmax,
        ]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    instances: tuple
    jobs: tuple
    predicted: frozenset  # spans that must record calls on this workload


def _digraph(n, seed, p):
    from maghom.gen import random_digraph

    return lambda off: ("digraph", random_digraph(n, seed + off, p))


def _space(n, seed, grid=None):
    from maghom.gen import random_space

    def build(off):
        if grid is None:
            return "space", random_space(n, seed + off)
        return "space", random_space(n, seed + off, grid=grid)

    return build


def _cycle(n):
    from maghom.instances import directed_cycle

    return lambda off: ("digraph", directed_cycle(n))


def _module_over_digraph(n, graph_seed, p, module_seed):
    from maghom.gen import random_digraph, random_module
    from maghom.space import digraph_to_space

    def build(off):
        space = digraph_to_space(random_digraph(n, graph_seed + off, p))
        return "module", random_module(space, module_seed + off)

    return build


def _sparse_grid():
    from maghom.space import INF

    return (Fraction(1, 2), Fraction(3, 2)) + (INF,) * 7


ALL_SPANS = frozenset({"io.load", "space.grades", "chain.enumerate", "chain.assemble", "cli.emit"})


def build_workloads():
    """Workload name -> Workload.  Imports `maghom`, so call after path setup."""
    chain_z = Workload(
        name="chain-z",
        why="mh over Z: integer SNF of large boundary matrices; no resolution, no ring",
        instances=(
            Instance("dg12", "random_digraph(12, 1, 0.25)", _digraph(12, 1, 0.25)),
            Instance("dg10", "random_digraph(10, 7, 0.25)", _digraph(10, 7, 0.25)),
            Instance("dg8", "random_digraph(8, 1, 0.35)", _digraph(8, 1, 0.35)),
            Instance("cyc8", "directed_cycle(8)", _cycle(8)),
        ),
        jobs=(
            Job("mh:dg12", "dg12", ("mh", "{input}"), 4, "5"),
            Job("mh:dg10", "dg10", ("mh", "{input}"), 5, "5"),
            Job("mh:dg8", "dg8", ("mh", "{input}"), 4, "6"),
            Job("mh:cyc8", "cyc8", ("mh", "{input}"), 6, "8"),
        ),
        predicted=ALL_SPANS | {"linalg.check", "linalg.snf", "linalg.rank"},
    )
    algebra_frac = Workload(
        name="algebra-frac",
        why="tor/ext/crosscheck on fractional and infinite distances: Fraction enumeration and Tor/Ext assembly",
        instances=(
            Instance("sp8", "random_space(8, 5)", _space(8, 5)),
            Instance("sp7", "random_space(7, 11)", _space(7, 11)),
            Instance(
                "sp10",
                "random_space(10, 3, grid=(1/2, 3/2, inf x7))",
                _space(10, 3, _sparse_grid()),
            ),
            Instance(
                "mod6",
                "random_module(digraph_to_space(random_digraph(6, 9, 0.4)), 9)",
                _module_over_digraph(6, 9, 0.4, 9),
            ),
        ),
        jobs=(
            Job("tor:sp8", "sp8", ("tor", "{input}"), 3, "3"),
            Job("ext-q:sp7", "sp7", ("ext", "{input}", "--field", "Q"), 4, "3"),
            Job("ext-f2:sp10", "sp10", ("ext", "{input}", "--field", "Fp:2"), 3, "3"),
            Job("crosscheck:mod6", "mod6", ("crosscheck", "{input}", "--format", "json"), 4, "5"),
        ),
        predicted=ALL_SPANS
        | {
            "distmod.validate",
            "linalg.check",
            "linalg.snf",
            "linalg.rank",
            "resolution.build",
            "resolution.terms",
            "resolution.tor",
            "resolution.ext",
        },
    )
    ring_field = Workload(
        name="ring-field",
        why="ring over Q and F_2: dense field solves, kernels and cup products, no integer SNF",
        instances=(
            Instance("dg7", "random_digraph(7, 3, 0.35)", _digraph(7, 3, 0.35)),
            Instance("sp6", "random_space(6, 11)", _space(6, 11)),
        ),
        jobs=(
            Job("ring-f2:dg7", "dg7", ("ring", "{input}", "--field", "Fp:2"), 3, "4"),
            Job("ring-q:sp6", "sp6", ("ring", "{input}", "--field", "Q"), 3, "5/2"),
            Job("ring-q:dg7", "dg7", ("ring", "{input}", "--field", "Q"), 2, "4"),
        ),
        predicted=ALL_SPANS
        | {"linalg.solve", "linalg.kernel", "linalg.span", "ring.table", "ring.classes", "ring.cup"},
    )
    return {w.name: w for w in (chain_z, algebra_frac, ring_field)}


def label_tag(seed: int) -> str:
    return "".join(random.Random(seed).choices(string.ascii_lowercase, k=4))


def instance_json(kind, obj, seed):
    """Input file contents with every point label prefixed by the seed's tag.

    Point order, distances and module data are unchanged.
    """
    from maghom.io import dump_digraph, dump_module, dump_space

    tag = label_tag(seed)

    def space(data):
        return {"points": [tag + p for p in data["points"]], "dist": data["dist"]}

    if kind == "digraph":
        data = dump_digraph(obj)
        return {
            "vertices": [tag + v for v in data["vertices"]],
            "arcs": [[tag + u, tag + v] for u, v in data["arcs"]],
        }
    if kind == "space":
        return space(dump_space(obj))
    data = dump_module(obj)
    renamed = {}
    for key, per_grade in data["actions"].items():
        x, _, y = key.partition("->")
        renamed[f"{tag}{x}->{tag}{y}"] = per_grade
    return {
        "space": space(data["space"]),
        "components": {tag + p: comp for p, comp in data["components"].items()},
        "actions": renamed,
    }


def summarize(kind, obj, jobs):
    """Input size: points, INF pairs, fractional pairs, chain basis size per job."""
    from maghom.chain import tuples_up_to_grade
    from maghom.space import INF, digraph_to_space, parse_dist

    if kind == "digraph":
        space = digraph_to_space(obj)
    elif kind == "module":
        space = obj.space
    else:
        space = obj
    n = len(space)
    off = [space.d(i, j) for i in range(n) for j in range(n) if i != j]
    inf_pairs = sum(1 for d in off if d is INF)
    frac_pairs = sum(1 for d in off if d is not INF and d.denominator != 1)
    basis = {
        job.name: sum(
            len(tuples_up_to_grade(space, k, parse_dist(job.lmax))) for k in range(job.nmax + 2)
        )
        for job in jobs
    }
    return {"points": n, "inf_pairs": inf_pairs, "frac_pairs": frac_pairs, "basis": basis}


def write_inputs(workload: Workload, seed: int, gen_offset: int, directory):
    """Write every input file; returns (paths by instance, summaries by instance)."""
    directory.mkdir(parents=True, exist_ok=True)
    paths, summaries = {}, {}
    for inst in workload.instances:
        kind, obj = inst.build(gen_offset)
        path = directory / f"{inst.key}.json"
        path.write_text(json.dumps(instance_json(kind, obj, seed), sort_keys=True))
        paths[inst.key] = path
        jobs = [j for j in workload.jobs if j.instance == inst.key]
        summaries[inst.key] = summarize(kind, obj, jobs)
    return paths, summaries
