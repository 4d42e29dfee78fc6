"""Command-line surface: validation, homology tables, crosschecks, reports.

Every command reads one JSON input (digraph, space, or module; the kind is
inferred from the keys), scans exactly the attainable grades up to --lmax,
and emits a deterministic report as json, csv, or an aligned text table.
Validation failures exit nonzero with a machine-readable error object;
`crosscheck` exits nonzero when the two pipelines disagree anywhere.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import io as mio
from .chain import magnitude_complex, magnitude_complex_with_coefficients
from .distmod import coinvariants, invariants, trivial_module, validate_module
from .errors import InvalidField, InvalidInput, MagnitudeError, UnsupportedFormat
from .gen import random_space
from .linalg import QQ, PrimeField
from .quiver import quiver_relations
from .resolution import bar_resolution, ext_bidegree, tor_bidegree
from .ring import ring_table
from .space import INF, attainable_grades, format_dist, parse_dist


@dataclass
class JobSpec:
    """One parsed invocation: bounds, field, output format."""

    n_max: int
    l_max: Fraction
    field: object  # None for integers, else a field object
    output_format: str

    def __post_init__(self):
        if self.n_max < 0 or self.l_max < 0:
            raise MagnitudeError("nmax and lmax must be nonnegative")
        if self.l_max is INF:
            raise InvalidInput("lmax must be finite")


INTEGERS = "Z"
FORMATS = ("json", "csv", "table")


def parse_field_flag(text: str):
    """Z (integers), Q (rationals), or Fp:P (prime field)."""
    t = text.strip()
    if t == "Z":
        return INTEGERS
    if t == "Q":
        return QQ
    if t.startswith("Fp:"):
        try:
            p = int(t[3:])
        except ValueError:
            raise InvalidField(f"bad prime in field spec {text!r}") from None
        return PrimeField(p)
    raise InvalidField(f"field must be Z, Q, or Fp:P, got {text!r}")


def field_name(fld) -> str:
    if fld is None or fld is INTEGERS:
        return "Z"
    if isinstance(fld, PrimeField):
        return f"Fp:{fld.p}"
    return "Q"


# ---------------------------------------------------------------------------
# report emission


def emit(report: dict, fmt: str) -> bytes:
    """Deterministic bytes for a report in json, csv, or table form."""
    if fmt == "json":
        return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()
    _check_format(fmt)
    columns = report.get("columns", [])
    rows = report.get("rows", [])
    cells = [[str(row.get(c, "")) for c in columns] for row in rows]
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(r) for r in cells]
        return ("\n".join(lines) + "\n").encode()
    widths = [
        max([len(c)] + [len(r[i]) for r in cells]) for i, c in enumerate(columns)
    ]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip()]
    lines += ["  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip() for r in cells]
    return ("\n".join(lines) + "\n").encode()


def _check_format(fmt: str):
    if fmt not in FORMATS:
        raise UnsupportedFormat(f"format must be json, csv, or table, got {fmt!r}")


def _torsion_str(torsion) -> str:
    return ";".join(str(t) for t in torsion) if torsion else ""


# ---------------------------------------------------------------------------
# subcommand bodies


def _grades(space, l_max):
    return [g for g in attainable_grades(space, l_max)]


def cmd_validate(space, module, job):
    if module is not None:
        problems = validate_module(space, module)
        if problems:
            return 1, {
                "kind": "validate",
                "status": "invalid",
                "columns": ["violation", "witness", "detail"],
                "rows": [
                    {"violation": v.kind, "witness": str(v.witness), "detail": v.detail}
                    for v in problems
                ],
            }
    # spaces are fully validated at load time
    return 0, {
        "kind": "validate",
        "status": "ok",
        "columns": ["status"],
        "rows": [{"status": "ok"}],
    }


def _chain_rows(space, module, n_max, l_max, fld):
    rows = []
    for g in _grades(space, l_max):
        if module is None:
            cx = magnitude_complex(space, g, n_max)
        else:
            cx = magnitude_complex_with_coefficients(space, module, g, n_max)
        for n in range(n_max + 1):
            if fld is None:
                h = cx.homology(n)
                rows.append(
                    {
                        "n": n,
                        "l": format_dist(g),
                        "betti": h.betti,
                        "torsion": _torsion_str(h.torsion),
                    }
                )
            else:
                rows.append(
                    {
                        "n": n,
                        "l": format_dist(g),
                        "dim": cx.homology_dim_over(n, fld),
                    }
                )
    return rows


def cmd_mh(space, module, job):
    fld = None if job.field is INTEGERS else job.field
    rows = _chain_rows(space, module, job.n_max, job.l_max, fld)
    columns = ["n", "l", "betti", "torsion"] if fld is None else ["n", "l", "dim"]
    return 0, {
        "kind": "mh",
        "field": field_name(fld),
        "columns": columns,
        "rows": rows,
    }


def cmd_tor(space, module, job):
    if job.field not in (None, INTEGERS):
        raise InvalidField("tor reports integral betti and torsion; use --field Z")
    mod = module if module is not None else trivial_module(space, 0, 1)
    res = bar_resolution(space, "left", job.n_max + 1, job.l_max)
    rows = []
    for g in _grades(space, job.l_max):
        for n in range(job.n_max + 1):
            h = tor_bidegree(space, mod, n, g, resolution=res)
            rows.append(
                {
                    "n": n,
                    "l": format_dist(g),
                    "betti": h.betti,
                    "torsion": _torsion_str(h.torsion),
                }
            )
    return 0, {
        "kind": "tor",
        "field": "Z",
        "columns": ["n", "l", "betti", "torsion"],
        "rows": rows,
    }


def cmd_ext(space, module, job):
    if job.field is INTEGERS:
        raise InvalidField("ext is computed over a field; use --field Q or Fp:P")
    fld = job.field if job.field is not None else QQ
    mod = module if module is not None else trivial_module(space, 0, 1)
    res = bar_resolution(space, "right", job.n_max + 1, job.l_max)
    rows = []
    for g in _grades(space, job.l_max):
        for n in range(job.n_max + 1):
            d = ext_bidegree(space, mod, n, g, fld, resolution=res)
            rows.append({"n": n, "l": format_dist(g), "dim": d})
    return 0, {
        "kind": "ext",
        "field": field_name(fld),
        "columns": ["n", "l", "dim"],
        "rows": rows,
    }


def cmd_crosscheck(space, module, job):
    mod = module if module is not None else trivial_module(space, 0, 1)
    res = bar_resolution(space, "left", job.n_max + 1, job.l_max)
    rows = []
    mismatches = 0
    for g in _grades(space, job.l_max):
        if module is None:
            cx = magnitude_complex(space, g, job.n_max)
        else:
            cx = magnitude_complex_with_coefficients(space, mod, g, job.n_max)
        for n in range(job.n_max + 1):
            chain_h = cx.homology(n)
            tor_h = tor_bidegree(space, mod, n, g, resolution=res)
            match = (chain_h.betti, chain_h.torsion) == (tor_h.betti, tor_h.torsion)
            mismatches += 0 if match else 1
            rows.append(
                {
                    "n": n,
                    "l": format_dist(g),
                    "chain_betti": chain_h.betti,
                    "chain_torsion": _torsion_str(chain_h.torsion),
                    "tor_betti": tor_h.betti,
                    "tor_torsion": _torsion_str(tor_h.torsion),
                    "match": "yes" if match else "NO",
                }
            )
    status = "all bidegrees agree" if mismatches == 0 else f"{mismatches} mismatches"
    report = {
        "kind": "crosscheck",
        "status": status,
        "columns": [
            "n",
            "l",
            "chain_betti",
            "chain_torsion",
            "tor_betti",
            "tor_torsion",
            "match",
        ],
        "rows": rows,
    }
    return (0 if mismatches == 0 else 1), report


def cmd_ring(space, module, job):
    if job.field is INTEGERS:
        raise InvalidField("ring products are computed over a field; use --field Q or Fp:P")
    fld = job.field if job.field is not None else QQ
    table = ring_table(space, job.n_max, job.l_max, fld)
    data = mio.ring_table_json(table)
    rows = [
        {
            "lhs": "{},{},{}".format(*p["lhs"]),
            "rhs": "{},{},{}".format(*p["rhs"]),
            "result": ";".join(f"{c}*{k}" for c, k in p["result"]) or "0",
        }
        for p in data["products"]
    ]
    return 0, {
        "kind": "ring",
        "field": field_name(fld),
        "classes": data["classes"],
        "products": data["products"],
        "columns": ["lhs", "rhs", "result"],
        "rows": rows,
    }


def cmd_relations(space, module, job, graph=None):
    if graph is None:
        raise MagnitudeError("relations needs a digraph input")
    rel = quiver_relations(graph)
    data = mio.relations_report(rel)
    rows = [{"kind": "R1", "paths": " = ".join("-".join(p) for p in pair)} for pair in data["R1"]]
    rows += [{"kind": "R2", "paths": "-".join(p)} for p in data["R2"]]
    return 0, {
        "kind": "relations",
        "R1": data["R1"],
        "R2": data["R2"],
        "columns": ["kind", "paths"],
        "rows": rows,
    }


def cmd_inv(space, module, job):
    if module is None:
        raise MagnitudeError("inv needs a module input")
    problems = validate_module(space, module)
    if problems:
        raise MagnitudeError(f"module invalid: {problems[0]}")
    rows = [
        {"grade": format_dist(b.grade), "rank": b.rank} for b in invariants(module)
    ]
    return 0, {"kind": "inv", "columns": ["grade", "rank"], "rows": rows}


def cmd_coinv(space, module, job):
    if module is None:
        raise MagnitudeError("coinv needs a module input")
    problems = validate_module(space, module)
    if problems:
        raise MagnitudeError(f"module invalid: {problems[0]}")
    rows = [
        {
            "grade": format_dist(b.grade),
            "betti": b.betti,
            "torsion": _torsion_str(b.torsion),
        }
        for b in coinvariants(module)
    ]
    return 0, {"kind": "coinv", "columns": ["grade", "betti", "torsion"], "rows": rows}


COMMANDS = {
    "validate": cmd_validate,
    "mh": cmd_mh,
    "tor": cmd_tor,
    "ext": cmd_ext,
    "crosscheck": cmd_crosscheck,
    "ring": cmd_ring,
    "relations": cmd_relations,
    "inv": cmd_inv,
    "coinv": cmd_coinv,
}


class _Parser(argparse.ArgumentParser):
    """Argument errors raise InvalidInput, so they reach the JSON error object."""

    def error(self, message):
        raise InvalidInput(message)


def build_parser():
    parser = _Parser(
        prog="maghom",
        description="Magnitude homology of finite quasimetric spaces and digraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("input", help="JSON file: digraph, space, or module")
        p.add_argument("--nmax", type=int, default=3)
        p.add_argument("--lmax", type=parse_dist, default=Fraction(3))
        p.add_argument("--field", type=parse_field_flag, default=None, help="Z, Q, or Fp:P")
        p.add_argument("--format", dest="fmt", default="table", help="json, csv, or table")
        p.add_argument("--coefficients", default=None, help="module JSON for coefficients")

    for name in COMMANDS:
        common(sub.add_parser(name))
    gen = sub.add_parser("gen", help="emit a seeded random space")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--points", type=int, default=4)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "gen":
            space = random_space(args.points, args.seed)
            sys.stdout.write(json.dumps(mio.dump_space(space), sort_keys=True, indent=2) + "\n")
            return 0
        _check_format(args.fmt)
        kind, space, extra = mio.load_input(args.input)
        graph = extra if kind == "digraph" else None
        module = extra if kind == "module" else None
        if args.coefficients:
            _, _, module = mio.load_input(args.coefficients)
            if module is None:
                raise MagnitudeError("--coefficients file does not hold a module")
            if module.space != space:
                raise MagnitudeError("coefficients module lives over a different space")
        if module is not None:
            problems = validate_module(space, module)
            if problems and args.command != "validate":
                raise MagnitudeError(f"module invalid: {problems[0]}")
        job = JobSpec(
            n_max=args.nmax,
            l_max=args.lmax,
            field=args.field,
            output_format=args.fmt,
        )
        handler = COMMANDS[args.command]
        if args.command == "relations":
            code, report = handler(space, module, job, graph=graph)
        else:
            code, report = handler(space, module, job)
        sys.stdout.buffer.write(emit(report, job.output_format))
        return code
    except MagnitudeError as err:
        error = {"error": type(err).__name__, "detail": str(err)}
        sys.stdout.write(json.dumps(error, sort_keys=True) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
