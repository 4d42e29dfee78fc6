"""JSON file schemas: digraphs, spaces, distance modules, reports.

Grades and distances travel as exact strings ("3/2", "2", "inf"); floats
never appear.  Key order in emitted JSON is sorted, so identical inputs
produce identical bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

from .distmod import DistanceModule
from .errors import InvalidInput, MagnitudeError
from .space import (
    Digraph,
    QuasimetricSpace,
    digraph_to_space,
    format_dist,
    parse_dist,
    validate_space,
)


def load_digraph(data) -> Digraph:
    return Digraph(data["vertices"], [tuple(arc) for arc in data["arcs"]])


def dump_digraph(graph: Digraph) -> dict:
    return {
        "vertices": list(graph.vertices),
        "arcs": [list(a) for a in sorted(graph.arcs)],
    }


def load_space(data) -> QuasimetricSpace:
    return validate_space(data["points"], data["dist"])


def dump_space(space: QuasimetricSpace) -> dict:
    return {
        "points": list(space.points),
        "dist": [[format_dist(d) for d in row] for row in space.dist],
    }


def load_module(data, base_dir: Path | None = None) -> tuple[QuasimetricSpace, DistanceModule]:
    """Module file: embedded or referenced space, components, actions.

    components: {point: [[grade, rank], ...]}
    actions: {"x->y": {grade: [[int, ...] rows]}}
    """
    ref = data["space"]
    if isinstance(ref, str):
        path = Path(ref)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        name, ref = ref, _read_json(path)
        if sniff_kind(ref) == "module":
            raise InvalidInput(f"referenced file {name!r} does not hold a space or digraph")
    space = load_space(ref) if "points" in ref else digraph_to_space(load_digraph(ref))
    components = {}
    for label, pairs in data.get("components", {}).items():
        i = space.idx(label)
        components[i] = {parse_dist(g): int(r) for g, r in pairs}
    for i in range(len(space)):
        components.setdefault(i, {})
    actions = {}
    for key, per_grade in data.get("actions", {}).items():
        x, _, y = key.partition("->")
        pair = (space.idx(x.strip()), space.idx(y.strip()))
        actions[pair] = {
            parse_dist(g): tuple(tuple(int(v) for v in row) for row in mat)
            for g, mat in per_grade.items()
        }
    return space, DistanceModule(space, components, actions)


def dump_module(module: DistanceModule) -> dict:
    space = module.space
    return {
        "space": dump_space(space),
        "components": {
            space.points[i]: [[format_dist(g), r] for g, r in sorted(comp.items())]
            for i, comp in enumerate(module.components)
            if comp
        },
        "actions": {
            f"{space.points[i]}->{space.points[j]}": {
                format_dist(g): [list(row) for row in mat]
                for g, mat in sorted(per_grade.items())
            }
            for (i, j), per_grade in sorted(module.actions.items())
        },
    }


def sniff_kind(data) -> str:
    if "vertices" in data:
        return "digraph"
    if "components" in data or "actions" in data:
        return "module"
    if "points" in data and "dist" in data:
        return "space"
    raise MagnitudeError("cannot determine input kind from JSON keys")


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except OSError as err:
        raise InvalidInput(f"cannot read {path}: {err.strerror}") from None
    except ValueError as err:  # bad JSON or bad text encoding
        raise InvalidInput(f"{path} is not valid JSON: {err}") from None


def load_input(path):
    """(kind, space, extra): extra is the digraph, the module, or None.

    A file that cannot be read, parsed, or shaped into its kind raises
    InvalidInput; axiom violations keep their own MagnitudeError types.
    """
    path = Path(path)
    data = _read_json(path)
    try:
        kind = sniff_kind(data)
        if kind == "digraph":
            graph = load_digraph(data)
            return "digraph", digraph_to_space(graph), graph
        if kind == "space":
            return "space", load_space(data), None
        space, module = load_module(data, base_dir=path.parent)
        return "module", space, module
    except MagnitudeError:
        raise
    except (KeyError, TypeError, ValueError) as err:
        raise InvalidInput(f"{path} is malformed: {type(err).__name__}: {err}") from None


def relations_report(relations) -> dict:
    return {
        "R1": [[list(a), list(b)] for a, b in relations.r1],
        "R2": [list(p) for p in relations.r2],
    }


def ring_table_json(table) -> dict:
    classes = {
        f"{n},{format_dist(g)}": cs.dim() for (n, g), cs in sorted(table.classes.items())
    }
    products = [
        {
            "lhs": [p["lhs"][0], format_dist(p["lhs"][1]), p["lhs"][2]],
            "rhs": [p["rhs"][0], format_dist(p["rhs"][1]), p["rhs"][2]],
            "result": [[str(c), k] for c, k in p["result"]],
        }
        for p in table.products
    ]
    return {"classes": classes, "products": products}
