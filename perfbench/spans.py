"""Per-layer spans recorded from outside the package.

Each traced layer boundary is a public function (or method) of a `maghom`
module.  `install` replaces that function object everywhere it is bound --
the defining module, every module that did `from .linalg import snf`, and
the package namespace -- with a wrapper that times the call, so calls made
through any of those names are seen; the `undo` it returns puts the
originals back.

A span's self time is its duration minus the durations of the spans that
ran inside it; summed over all spans plus the uncovered remainder, self
times add up to the traced wall time exactly.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter


def _nnz_of_complex(rec, args, result):
    rec.add("chain.nnz", sum(m.nnz() for m in result.maps))


def _count_tuples(rec, args, result):
    rec.add("chain.tuples", len(result))


def _count_snf(rec, args, result):
    matrix = args[0]
    rec.add("linalg.snf_nnz", matrix.nnz())
    rec.maximum("linalg.snf_max_cols", matrix.cols)
    rec.add("linalg.torsion_factors", sum(1 for d in result if d > 1))


def _count_rank(rec, args, result):
    rec.add("linalg.rank_nnz", args[0].nnz())


def _count_solve(rec, args, result):
    columns, target = args[0], args[1]
    rec.add("linalg.solve_cells", len(target) * len(columns))


def _count_resolution(rec, args, result):
    rec.add("resolution.basis", sum(len(b) for b in result.basis))


@dataclass(frozen=True)
class Target:
    """One wrapped callable: `attr` may be `Class.method`."""

    span: str
    module: str
    attr: str
    count: object = None


# Several targets may share a span name; the benchmark reports each span's
# self time as the metric `<span>_s`.
TARGETS = (
    Target("io.load", "maghom.io", "load_input"),
    Target("distmod.validate", "maghom.distmod", "validate_module"),
    Target("space.grades", "maghom.space", "attainable_grades"),
    Target("chain.enumerate", "maghom.chain", "enumerate_tuples", _count_tuples),
    Target("chain.enumerate", "maghom.chain", "tuples_up_to_grade", _count_tuples),
    Target("chain.assemble", "maghom.chain", "magnitude_complex", _nnz_of_complex),
    Target("chain.assemble", "maghom.chain", "magnitude_complex_with_coefficients", _nnz_of_complex),
    Target("chain.assemble", "maghom.chain", "magnitude_cochain_complex", _nnz_of_complex),
    Target("linalg.check", "maghom.linalg", "homology_at"),
    Target("linalg.snf", "maghom.linalg", "snf", _count_snf),
    Target("linalg.rank", "maghom.linalg", "rank_over_field", _count_rank),
    Target("linalg.solve", "maghom.linalg", "solve_in_span", _count_solve),
    Target("linalg.kernel", "maghom.linalg", "kernel_basis_over_field"),
    Target("linalg.span", "maghom.linalg", "FieldColumnSpan.add"),
    Target("resolution.build", "maghom.resolution", "bar_resolution", _count_resolution),
    Target("resolution.terms", "maghom.resolution", "BarResolution.gen_boundary_terms"),
    Target("resolution.tor", "maghom.resolution", "tor_bidegree"),
    Target("resolution.ext", "maghom.resolution", "ext_bidegree"),
    Target("ring.table", "maghom.ring", "ring_table"),
    Target("ring.classes", "maghom.ring", "cohomology_classes"),
    Target("ring.cup", "maghom.ring", "cup"),
    Target("cli.emit", "maghom.cli", "emit"),
)


class Recorder:
    """In-memory span totals for one traced pass.

    `self_s[span]` is summed self time, `calls[span]` the number of spans,
    `counts[name]` the counters, `edges[(parent, child)]` how often a span
    ran directly inside another, and `top_s` the summed duration of spans
    with no parent.
    """

    def __init__(self):
        self.self_s = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.edges = Counter()
        self.top_s = 0.0
        self._stack = []  # [span name, child seconds] per open span

    def add(self, name, value):
        self.counts[name] += value

    def maximum(self, name, value):
        self.counts[name] = max(self.counts[name], value)

    def wrap(self, span, fn, count=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [span, 0.0]
            rec._stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - t0
                rec._stack.pop()
                rec.self_s[span] += duration - frame[1]
                rec.calls[span] += 1
                if rec._stack:
                    parent = rec._stack[-1]
                    parent[1] += duration
                    rec.edges[(parent[0], span)] += 1
                else:
                    rec.top_s += duration
            if count is not None:
                count(rec, args, result)
            return result

        return traced


def resolve(target: Target):
    """(owner, name, function) for a target, or None if it no longer exists."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, name, None)
    return None if fn is None else (owner, name, fn)


def install(rec: Recorder, targets=TARGETS, package="maghom"):
    """Wrap every binding of every resolvable target.

    Returns (undo, missing): call `undo()` to restore the originals;
    `missing` lists the targets whose function no longer exists.
    """
    replaced = []
    missing = []
    for target in targets:
        found = resolve(target)
        if found is None:
            missing.append(target)
            continue
        owner, name, fn = found
        wrapper = rec.wrap(target.span, fn, target.count)
        if isinstance(owner, type):
            # a method: rebinding it on its class reaches every caller
            replaced.append((owner, name, fn))
            setattr(owner, name, wrapper)
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    replaced.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def undo():
        for owner, attr, fn in reversed(replaced):
            setattr(owner, attr, fn)

    return undo, missing
