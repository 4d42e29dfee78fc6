"""JSON file schemas: digraphs, spaces, distance modules, reports.

Grades and distances travel as exact strings ("3/2", "2", "inf") or JSON
integers; a float or a boolean is refused, and so is a string where a list
is expected.  Point and vertex names, arc ends included, are strings.  Key
order in emitted JSON is sorted, so identical inputs produce identical
bytes.
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
    arcs = _list(data["arcs"], "arcs")
    for arc in arcs:
        if not isinstance(arc, list) or len(arc) != 2:
            raise InvalidInput(f"each arc must be a [tail, head] list, not {arc!r}")
        _labels(arc, "arc ends")
    return Digraph(_labels(data["vertices"], "vertices"), [tuple(arc) for arc in arcs])


def dump_digraph(graph: Digraph) -> dict:
    return {
        "vertices": list(graph.vertices),
        "arcs": [list(a) for a in sorted(graph.arcs)],
    }


def load_space(data) -> QuasimetricSpace:
    rows = [_list(row, "each dist row") for row in _list(data["dist"], "dist")]
    return validate_space(_labels(data["points"], "points"), rows)


def dump_space(space: QuasimetricSpace) -> dict:
    return {
        "points": list(space.points),
        "dist": [[format_dist(d) for d in row] for row in space.dist],
    }


def load_module(data, base_dir: Path | None = None) -> tuple[QuasimetricSpace, DistanceModule]:
    """Module file: embedded or referenced space, components, actions.

    components: {point: [[grade, rank], ...]}
    actions: {"x->y": {grade: [[int, ...] rows]}}
    Ranks and entries must be JSON integers; DistanceModule checks them.
    """
    if "space" not in data:
        raise InvalidInput('a module file needs a "space" key: a space, a digraph or a path to one')
    ref = data["space"]
    if isinstance(ref, str):
        path = Path(ref)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        name, ref = ref, _read_json(path)
        if sniff_kind(ref, path) == "module":
            raise InvalidInput(f"referenced file {name!r} does not hold a space or digraph")
    elif not isinstance(ref, dict):
        raise InvalidInput(f'"space" must be a path or a JSON object, not {ref!r}')
    space = load_space(ref) if "points" in ref else digraph_to_space(load_digraph(ref))
    components = {
        space.idx(label): _by_grade(pairs, f"point {label!r}")
        for label, pairs in _object(data.get("components", {}), "components").items()
    }
    actions = {}
    for key, per_grade in _object(data.get("actions", {}), "actions").items():
        x, _, y = key.partition("->")
        x, y = x.strip(), y.strip()
        pair = (space.idx(x), space.idx(y))
        if pair in actions:
            raise InvalidInput(f"action {x!r}->{y!r} is given twice")
        where = f"action {x!r}->{y!r}"
        actions[pair] = _by_grade(list(_object(per_grade, where).items()), where)
    return space, DistanceModule(space, components, actions)


def _list(value, where) -> list:
    """A JSON list, or InvalidInput naming where one was expected."""
    if not isinstance(value, list):
        raise InvalidInput(f"{where} must be a JSON list, not {value!r}")
    return value


def _labels(value, where) -> list:
    """A JSON list of strings: point and vertex names, which module files
    name as JSON keys; InvalidInput naming where otherwise."""
    for label in _list(value, where):
        if not isinstance(label, str):
            raise InvalidInput(f"{where} must be strings, not {label!r}")
    return value


def _object(value, where) -> dict:
    """A JSON object, or InvalidInput naming where one was expected."""
    if not isinstance(value, dict):
        raise InvalidInput(f"{where} must be a JSON object")
    return value


def _by_grade(pairs, where) -> dict:
    """{grade: value} of a list of (grade literal, value) pairs; two literals
    of one grade, such as "0" and "0/1", are an error, not an overwrite.  Only
    a component list can be of another shape: it holds [grade, rank] pairs."""
    if not isinstance(pairs, list):
        raise InvalidInput(f"{where} must be a list of [grade, rank] pairs, not {pairs!r}")
    out = {}
    for pair in pairs:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise InvalidInput(f"{where} must hold [grade, rank] pairs, not {pair!r}")
        g, value = pair
        grade = parse_dist(g)
        if grade in out:
            raise InvalidInput(f"{where} gives grade {format_dist(grade)} twice")
        out[grade] = value
    return out


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


def sniff_kind(data, path) -> str:
    """The kind of the JSON value read from `path`, from its keys."""
    if not isinstance(data, dict):
        raise InvalidInput(f"the top-level JSON of {path} must be an object")
    if "vertices" in data:
        return "digraph"
    if "components" in data or "actions" in data:
        return "module"
    if "points" in data and "dist" in data:
        return "space"
    raise InvalidInput("cannot determine input kind from JSON keys")


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
        kind = sniff_kind(data, path)
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
    # every product's factors are classes of the table: each grade is formatted once
    label = {g: format_dist(g) for _, g in table.classes}
    classes = {f"{n},{label[g]}": cs.dim() for (n, g), cs in sorted(table.classes.items())}
    products = [
        {
            "lhs": [p["lhs"][0], label[p["lhs"][1]], p["lhs"][2]],
            "rhs": [p["rhs"][0], label[p["rhs"][1]], p["rhs"][2]],
            "result": [[str(c), k] for c, k in p["result"]],
        }
        for p in table.products
    ]
    return {"classes": classes, "products": products}
