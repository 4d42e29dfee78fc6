"""Command-line surface: validation, homology tables, crosschecks, reports.

Every command reads one JSON input (digraph, space, or module; the kind is
inferred from the keys), scans the attainable grades up to --lmax (with a
module, every grade up to --lmax that its component grades shift them to),
and emits a deterministic report as json, csv, or an aligned text table.
A module names its space, so coefficients come from passing the module
itself.  `--field Z` is the integers, the default of every command but
`ext` and `ring`, which default to Q.
Validation failures exit nonzero with a machine-readable error object;
`crosscheck` exits nonzero when the two pipelines disagree anywhere.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
from fractions import Fraction

from . import io as mio
from .chain import magnitude_complex, magnitude_complex_with_coefficients
from .distmod import coinvariants, invariants, trivial_module, validate_module
from .errors import InvalidField, InvalidInput, MagnitudeError, UnsupportedFormat
from .gen import random_space
from .linalg import QQ, PrimeField
from .quiver import _relations
from .resolution import bar_resolution, ext_bidegree, tor_bidegree
from .ring import ring_table
from .space import INF, attainable_grades, format_dist, parse_dist


FORMATS = ("json", "csv", "table")

# Generation-0 collector threshold while a command runs (CPython's default
# is 700).  Wall seconds and collections per pass of each benchmark workload,
# its jobs run in one process (seed 0, CPython 3.11, 2 vCPUs), by threshold:
#   threshold     chain-z         algebra-frac    ring-field
#   700           0.125 s, 253    0.136 s, 218    0.053 s, 43
#   10_000        0.126 s, 9      0.127 s, 11     0.042 s, 1
#   30_000        0.110 s, 2      0.125 s, 2      0.039 s, 0
#   100_000       0.107 s, 0      0.118 s, 0      0.039 s, 0
#   1_000_000     0.103 s, 0      0.117 s, 0      0.038 s, 0
# 100_000 is the smallest value within noise of the best on all three; peak
# RSS is flat across the table.
GC_GEN0_THRESHOLD = 100_000


def parse_field_flag(text: str):
    """None for Z (the integers), QQ for Q, a PrimeField for Fp:P."""
    t = text.strip()
    if t == "Z":
        return None
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
    if fld is None:
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
        lines = [",".join(map(_csv_cell, r)) for r in [columns] + cells]
        return ("\n".join(lines) + "\n").encode()
    widths = [
        max([len(c)] + [len(r[i]) for r in cells]) for i, c in enumerate(columns)
    ]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip()]
    lines += ["  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip() for r in cells]
    return ("\n".join(lines) + "\n").encode()


def _csv_cell(text: str) -> str:
    """A csv cell: quoted, its quotes doubled, when it holds a comma, a quote
    or a line break (RFC 4180); any other cell as it is."""
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _check_format(fmt: str):
    if fmt not in FORMATS:
        raise UnsupportedFormat(f"format must be json, csv, or table, got {fmt!r}")


def _cells(h) -> dict:
    """The betti and torsion cells of a report row, from anything with both."""
    return {"betti": h.betti, "torsion": ";".join(str(t) for t in h.torsion)}


# ---------------------------------------------------------------------------
# subcommand bodies


def _shifts(module, sign=1):
    """Offsets l - g from a tuple grade g to the grades l it reaches through
    the module: its component grades h (mh and tor meet M in grade l - g),
    or their negatives (ext meets M in grade g - l); None without a module."""
    return None if module is None else [sign * h for h in module.grades()]


def _tuple_cap(l_max, shifts):
    """Deepest tuple grade a scan up to l_max touches: a negative offset
    reaches tuples above l_max."""
    return l_max - min([0] + (shifts or []))


def _grades(space, l_max, shifts):
    """Grades to scan: g + s <= l_max over attainable tuple grades g and the
    module offsets s; without a module, the attainable grades."""
    if shifts is None:
        return attainable_grades(space, l_max)
    tuple_grades = attainable_grades(space, _tuple_cap(l_max, shifts))
    return sorted({g + s for g in tuple_grades for s in shifts if g + s <= l_max})


def _resolved(space, module, n_max, l_max, side):
    """The module (trivial of rank 1 at grade 0 when none is given), a bar
    resolution on `side` deep enough for the scan, and the grades to scan:
    Tor meets M in grade l - g, Ext in grade g - l."""
    mod = module if module is not None else trivial_module(space, 0, 1)
    shifts = _shifts(module, 1 if side == "left" else -1)
    res = bar_resolution(space, side, n_max + 1, _tuple_cap(l_max, shifts))
    return mod, res, _grades(space, l_max, shifts)


def cmd_validate(args, space, module, graph):
    # spaces are fully validated at load time; main leaves a module to this check
    problems = [] if module is None else validate_module(space, module)
    if problems:
        return 1, {
            "kind": "validate",
            "status": "invalid",
            "columns": ["violation", "witness", "detail"],
            "rows": [
                {"violation": v.kind, "witness": v.witness_text(), "detail": v.detail}
                for v in problems
            ],
        }
    return 0, {
        "kind": "validate",
        "status": "ok",
        "columns": ["status"],
        "rows": [{"status": "ok"}],
    }


def _chain_rows(space, module, n_max, l_max, fld):
    rows = []
    for g in _grades(space, l_max, _shifts(module)):
        if module is None:
            cx = magnitude_complex(space, g, n_max)
        else:
            cx = magnitude_complex_with_coefficients(space, module, g, n_max)
        for n in range(n_max + 1):
            if fld is None:
                rows.append({"n": n, "l": format_dist(g), **_cells(cx.homology(n))})
            else:
                rows.append({"n": n, "l": format_dist(g), "dim": cx.homology_dim_over(n, fld)})
    return rows


def _tor_rows(space, module, n_max, l_max):
    mod, res, grades = _resolved(space, module, n_max, l_max, "left")
    rows = []
    for g in grades:
        for n in range(n_max + 1):
            h = tor_bidegree(space, mod, n, g, resolution=res)
            rows.append({"n": n, "l": format_dist(g), **_cells(h)})
    return rows


def cmd_mh(args, space, module, graph):
    rows = _chain_rows(space, module, args.nmax, args.lmax, args.field)
    columns = ["n", "l", "betti", "torsion"] if args.field is None else ["n", "l", "dim"]
    return 0, {
        "kind": "mh",
        "field": field_name(args.field),
        "columns": columns,
        "rows": rows,
    }


def cmd_tor(args, space, module, graph):
    if args.field is not None:
        raise InvalidField("tor reports integral betti and torsion; use --field Z")
    rows = _tor_rows(space, module, args.nmax, args.lmax)
    return 0, {
        "kind": "tor",
        "field": "Z",
        "columns": ["n", "l", "betti", "torsion"],
        "rows": rows,
    }


def cmd_ext(args, space, module, graph):
    if args.field is None:
        raise InvalidField("ext is computed over a field; use --field Q or Fp:P")
    mod, res, grades = _resolved(space, module, args.nmax, args.lmax, "right")
    rows = []
    for g in grades:
        for n in range(args.nmax + 1):
            d = ext_bidegree(space, mod, n, g, args.field, resolution=res)
            rows.append({"n": n, "l": format_dist(g), "dim": d})
    return 0, {
        "kind": "ext",
        "field": field_name(args.field),
        "columns": ["n", "l", "dim"],
        "rows": rows,
    }


def cmd_crosscheck(args, space, module, graph):
    if args.field is not None:
        raise InvalidField("crosscheck compares integral betti and torsion; use --field Z")
    chain_rows = _chain_rows(space, module, args.nmax, args.lmax, None)
    rows = []
    mismatches = 0
    for chain, tor in zip(chain_rows, _tor_rows(space, module, args.nmax, args.lmax), strict=True):
        assert (chain["n"], chain["l"]) == (tor["n"], tor["l"])
        match = (chain["betti"], chain["torsion"]) == (tor["betti"], tor["torsion"])
        mismatches += 0 if match else 1
        rows.append(
            {
                "n": chain["n"],
                "l": chain["l"],
                "chain_betti": chain["betti"],
                "chain_torsion": chain["torsion"],
                "tor_betti": tor["betti"],
                "tor_torsion": tor["torsion"],
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


def _no_module(module, command):
    if module is not None:
        raise InvalidInput(f"{command} takes no module; pass the space or digraph alone")


def cmd_ring(args, space, module, graph):
    _no_module(module, "ring")
    if args.field is None:
        raise InvalidField("ring products are computed over a field; use --field Q or Fp:P")
    table = ring_table(space, args.nmax, args.lmax, args.field)
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
        "field": field_name(args.field),
        "classes": data["classes"],
        "products": data["products"],
        "columns": ["lhs", "rhs", "result"],
        "rows": rows,
    }


def cmd_relations(args, space, module, graph):
    _no_module(module, "relations")
    if graph is None:
        raise InvalidInput("relations needs a digraph input")
    rel = _relations(graph, space)
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


def cmd_inv(args, space, module, graph):
    if module is None:
        raise InvalidInput("inv needs a module input")
    rows = [{"grade": format_dist(b.grade), "rank": b.rank} for b in invariants(module)]
    return 0, {"kind": "inv", "columns": ["grade", "rank"], "rows": rows}


def cmd_coinv(args, space, module, graph):
    if module is None:
        raise InvalidInput("coinv needs a module input")
    rows = [{"grade": format_dist(b.grade), **_cells(b)} for b in coinvariants(module)]
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


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
        prog="maghom",
        description="Magnitude homology of finite quasimetric spaces and digraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("input", help="JSON file: digraph, space, or module")
        p.add_argument("--nmax", type=int, default=3)
        p.add_argument("--lmax", type=parse_dist, default=Fraction(3))
        default = QQ if name in ("ext", "ring") else None
        p.add_argument("--field", type=parse_field_flag, default=default, help="Z, Q, or Fp:P")
        p.add_argument("--format", dest="fmt", default="table", help="json, csv, or table")

    gen = sub.add_parser("gen", help="emit a seeded random space")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--points", type=int, default=4)
    return parser


def main(argv=None) -> int:
    """Run one command; its exit code.  Errors print a JSON error object.

    Once the arguments are parsed, loading, validation, the command and its
    report run with the collector's generation-0 threshold raised to
    GC_GEN0_THRESHOLD, and the caller's thresholds come back on every exit.
    The collector stays enabled.  This is safe because reference counting
    frees what a command allocates: its only cyclic garbage is the 33
    objects the standard library's JSON encoder leaves per json report, so
    the young collections it skips would have found next to nothing.  Any
    cyclic garbage waits at most one threshold's worth of allocations for a
    collection.
    """
    parser = build_parser()
    saved = gc.get_threshold()
    try:
        args = parser.parse_args(argv)
        gc.set_threshold(GC_GEN0_THRESHOLD, *saved[1:])
        if args.command == "gen":
            if args.points < 0:
                raise InvalidInput("--points must be nonnegative")
            space = random_space(args.points, args.seed)
            sys.stdout.write(json.dumps(mio.dump_space(space), sort_keys=True, indent=2) + "\n")
            return 0
        _check_format(args.fmt)
        kind, space, extra = mio.load_input(args.input)
        graph = extra if kind == "digraph" else None
        module = extra if kind == "module" else None
        # validate reports a module's violations itself
        if module is not None and args.command != "validate":
            problems = validate_module(space, module)
            if problems:
                raise InvalidInput(f"module invalid: {problems[0]}")
        if args.nmax < 0:
            raise InvalidInput("nmax must be nonnegative")
        if args.lmax < 0:
            raise InvalidInput("lmax must be nonnegative")
        if args.lmax is INF:
            raise InvalidInput("lmax must be finite")
        code, report = COMMANDS[args.command](args, space, module, graph)
        sys.stdout.buffer.write(emit(report, args.fmt))
        return code
    except MagnitudeError as err:
        error = {"error": type(err).__name__, "detail": str(err)}
        sys.stdout.write(json.dumps(error, sort_keys=True) + "\n")
        return 1
    finally:
        gc.set_threshold(*saved)


if __name__ == "__main__":
    sys.exit(main())
