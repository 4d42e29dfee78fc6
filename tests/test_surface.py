"""Every package function is reached by the command line or has a reason.

A fixed matrix of `cli.main` invocations runs under `sys.setprofile`; every
module-level function and method of `maghom` that none of them calls must
have a row in `UNREACHED`, and every row must name such a function.  A row's
reason starts with one of four tags:

- ``api``: exported from `maghom` and named in README or a demo;
- ``check``: an axiom, exactness, reference or second-route check; the
  reason names the test in `tests/` that reads it, which must exist;
- ``inputs``: test and demo inputs, `gen`, `instances` and what they call;
- ``bench``: read by `perfbench`, which names it.

Dunder methods are exempt.  To add a function that no command calls, add
its row here with its reason; to put a row's function on a command path,
delete the row.  Run with ``-s`` to see the rows' line total.
"""

import ast
import importlib
import inspect
import json
import re
import sys
from contextlib import redirect_stdout
from io import BytesIO, TextIOWrapper
from pathlib import Path

import pytest

import maghom
from maghom import cli
from maghom import io as mio
from maghom.gen import random_space

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(maghom.__file__).parent

UNREACHED = {
    # algebra: the paper's central object, read by its axiom checks and demo 03
    "algebra.DistanceAlgebra.e": "check: idempotents, test_idempotents_orthogonal_and_complete",
    "algebra.DistanceAlgebra.grade": "check: the grading is additive, test_grading_is_additive",
    "algebra.DistanceAlgebra.mul_pairs": "check: associativity, test_associativity_on_all_basis_triples",
    "algebra.DistanceAlgebra.pair_of_labels": "api: demo 03 names basis pairs by their labels",
    "algebra.DistanceAlgebra.unit": "check: the unit laws, test_unit_laws",
    "algebra.algebra_multiply": "api: the algebra product, in README and demo 03",
    "algebra.radical_power_is_zero": "check: the positive ideal is nilpotent, test_criterion_9_nilpotency",
    "chain.BasedComplex.verify": "check: d d = 0 on every route's complex, test_criterion_1_complex_validity",
    # dense readers of the definitions, for the tests' reference builders
    "distmod.DistanceModule.action_matrix": "check: the oracles read it, test_coefficient_boundaries_match_reference",
    "distmod.DistanceModule.total_rank": "check: the grade-0 quotient's ranks, test_quotient_dims",
    "distmod._zeros": "check: action_matrix's zero map, test_coefficient_boundaries_match_reference",
    "distmod.direct_sum": "inputs: gen.random_module sums its pieces",
    "distmod.hom_from_trivial": "check: invariants as Hom, test_criterion_7_invariants_as_hom",
    "distmod.representable_module": "inputs: gen.random_module's pieces",
    "distmod.shift_module": "inputs: gen.random_module shifts its pieces",
    "gen._scale_actions": "inputs: random_module's torsion pieces",
    "gen._truncate_above": "inputs: random_module's grade cap",
    "gen.digraphs_up_to_iso": "inputs: every small digraph, for the axiom tests",
    "gen.random_digraph": "inputs: random digraphs for the tests and the benchmark",
    "gen.random_module": "inputs: random modules for the tests and the benchmark",
    "instances.c3": "inputs: a named space",
    "instances.diamond_digraph": "inputs: a named digraph",
    "instances.directed_cycle": "inputs: a named digraph",
    "instances.k2": "inputs: a named space",
    "instances.k2_digraph": "inputs: a named digraph",
    "instances.standard_suite": "inputs: the named spaces",
    "instances.standard_suite_digraphs": "inputs: the named digraphs",
    "instances.tournaments3": "inputs: the named tournaments",
    "instances.x2": "inputs: a named space",
    "instances.x2_digraph": "inputs: a named digraph",
    "io.dump_digraph": "bench: writes the digraph instances",
    "io.dump_module": "bench: writes the module instances",
    "linalg.FieldColumnSpan.contains": "check: test_cocycle_times_coboundary_is_coboundary",
    "linalg.HomologySummary.is_zero": "check: exactness, test_criterion_10_resolution_exactness",
    "linalg.SparseMatrix.add_at": "check: the oracles write through it, test_coefficient_boundaries_match_reference",
    "linalg.SparseMatrix.from_dense": "bench: the span tests build a matrix",
    "linalg.SparseMatrix.nnz": "bench: the nnz counters",
    # the bound-quiver presentation and the representation check
    "quiver.PresentationReport.ok": "check: test_criterion_8_bound_quiver_presentation",
    "quiver._relation_span_at": "check: test_criterion_8_bound_quiver_presentation",
    "quiver.check_bound_quiver_presentation": "check: test_criterion_8_bound_quiver_presentation",
    "quiver.check_representation_relations": "check: test_representation_from_distance_module_passes",
    "resolution.BarResolution.basis": "bench: the resolution.basis counter",
    "resolution._exactness_module": "check: exactness, test_criterion_10_resolution_exactness",
    "resolution.resolution_homology": "check: exactness, test_criterion_10_resolution_exactness",
    # the second route to the cup product, and the cochain-level checks
    "ring.Cochain.is_zero": "check: products of cocycles are cocycles, test_product_of_cocycles_is_cocycle",
    "ring.Cochain.value": "check: a cochain's coordinates, test_classes_are_cocycles_and_independent",
    "ring._assert_cocycle": "check: yoneda_product's factors, test_criterion_5_yoneda_equals_cup",
    "ring.coboundary_of": "check: classes are cocycles, test_classes_are_cocycles_and_independent",
    "ring.cochain_vector": "check: classes are independent, test_classes_are_cocycles_and_independent",
    "ring.lift_square_commutes": "check: a lift is a chain map, test_lift_chain_map_identity",
    "ring.unit_cochain": "check: the unit class, test_cup_unit_two_sided",
    "ring.yoneda_lift": "check: the Yoneda product, test_criterion_5_yoneda_equals_cup",
    "ring.yoneda_product": "check: the Yoneda product, test_criterion_5_yoneda_equals_cup",
    "space.QuasimetricSpace.between_idx": "check: test_betweenness_table_matches_the_definition",
    "space.QuasimetricSpace.finite_pairs": "check: _exactness_module reads it, test_criterion_10_resolution_exactness",
    "space.between": "api: betweenness by label, in README and demo 01",
    "space.opposite_space": "check: X^op gives the same homology, test_chain_of_the_opposite_space_matches",
}


def package_functions():
    """{qualified name (module.qualname): code object} of every module-level
    function and method defined in the package, dunders left out."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"maghom.{path.stem}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # imported from elsewhere
            members = vars(obj).items() if inspect.isclass(obj) else [(None, obj)]
            for attr, member in members:
                if attr and attr.startswith("__") and attr.endswith("__"):
                    continue
                if isinstance(member, property):
                    member = member.fget
                elif isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    qualified = ".".join(filter(None, (path.stem, name, attr)))
                    found[qualified] = inspect.unwrap(member).__code__
    return found


def _write(directory, name, data):
    path = directory / name
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return str(path)


def invocations(directory):
    """(argv, expected exit code) of the fixed matrix, its input files
    written into `directory`."""
    space = _write(directory, "sp.json", mio.dump_space(random_space(4, 3)))
    digraph = _write(
        directory, "dg.json", {"vertices": ["a", "b", "c"], "arcs": [["a", "b"], ["b", "a"], ["b", "c"]]}
    )
    # a module naming its space by a path relative to itself
    module = _write(
        directory, "mod.json", {"space": "sp.json", "components": {"p0": [["0", 1]], "p1": [["1/2", 2]]}}
    )
    # over a -> b, inv and coinv must take a gcd of the action's entries
    arc = {"points": ["a", "b"], "dist": [["0", "1"], ["inf", "0"]]}
    gcd = _write(
        directory,
        "gcd.json",
        {"space": arc, "components": {"a": [["0", 2]], "b": [["1", 1]]}, "actions": {"a->b": {"0": [[2, 3]]}}},
    )
    # over a -> b -> c the composite a -> c must be the product of the two
    # arcs; a stored a -> a map is checked against the identity
    chain3 = {"points": ["a", "b", "c"], "dist": [["0", "1", "2"], ["inf", "0", "1"], ["inf", "inf", "0"]]}
    invalid = _write(
        directory,
        "bad.json",
        {
            "space": chain3,
            "components": {"a": [["0", 1]], "b": [["1", 1]], "c": [["2", 1]]},
            "actions": {
                "a->a": {"0": [[1]]},
                "a->b": {"0": [[1]]},
                "b->c": {"1": [[1]]},
                "a->c": {"0": [[2]]},
            },
        },
    )
    bounds = ["--nmax", "2", "--lmax", "2"]
    ok_on = {
        space: {"validate", "mh", "tor", "ext", "crosscheck", "ring"},
        digraph: {"validate", "mh", "tor", "ext", "crosscheck", "ring", "relations"},
        module: {"validate", "mh", "tor", "ext", "crosscheck", "inv", "coinv"},
        gcd: {"validate", "mh", "tor", "ext", "crosscheck", "inv", "coinv"},
        invalid: set(),
    }
    calls = [
        ([command, path, *bounds], 0 if command in ok else 1)
        for path, ok in ok_on.items()
        for command in cli.COMMANDS
    ]
    calls += [
        (["mh", space, *bounds, "--field", "Q", "--format", "csv"], 0),
        (["mh", space, *bounds, "--field", "Fp:2", "--format", "json"], 0),
        (["ring", space, *bounds, "--field", "Q", "--format", "json"], 0),
        (["ring", digraph, *bounds, "--field", "Fp:2", "--format", "csv"], 0),
        (["gen", "--seed", "3", "--points", "4"], 0),
    ]
    triangle = {"points": ["a", "b", "c"], "dist": [["0", "1", "5"], ["1", "0", "1"], ["5", "1", "0"]]}
    errors = [
        ["mh", _write(directory, "five.json", "5")],
        ["mh", _write(directory, "vertices.json", '"vertices"')],
        ["mh", _write(directory, "notjson.json", "{")],
        ["mh", str(directory / "missing.json")],
        ["mh", _write(directory, "shape.json", {"points": ["a"], "comp0nents": {}})],
        ["mh", _write(directory, "booldist.json", {"points": ["a", "b"], "dist": [["0", True], ["1", "0"]]})],
        ["mh", _write(directory, "triangle.json", triangle)],
        ["validate", _write(directory, "numspace.json", {"space": 5, "components": {}})],
        ["relations", _write(directory, "intlabels.json", {"vertices": [1, "1"], "arcs": []})],
        ["mh", space, "--lmax", "inf"],
        ["mh", space, "--nmax", "-1"],
        ["mh", space, "--format", "xml"],
        ["mh", space, "--field", "R"],
        ["ext", space, "--field", "Z"],
        ["tor", space, "--field", "Q"],
        ["crosscheck", space, "--field", "Q"],
        ["ring", space, "--field", "Z"],
        ["mh", space, "--coefficients", module],
        ["gen", "--points", "-1"],
        [],
    ]
    return calls + [(argv, 1) for argv in errors]


def run_matrix(directory):
    """Run every invocation under a profiler: the set of code objects called,
    and the (argv, expected, got, stdout) of each run whose exit code was
    not the expected one or whose error exit printed no error object."""
    calls = invocations(directory)
    reached, wrong = set(), []

    def record(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    for argv, expected in calls:
        out = TextIOWrapper(BytesIO(), encoding="utf-8")
        sys.setprofile(record)
        try:
            with redirect_stdout(out):
                code = cli.main(argv)
        finally:
            sys.setprofile(None)
        out.flush()
        text = out.buffer.getvalue().decode()
        # an invalid module's validate and a failed crosscheck exit 1 with a report
        report = argv[:1] in (["validate"], ["crosscheck"])
        if code != expected or (code and not report and not text.startswith('{"detail"')):
            wrong.append((argv, expected, code, text))
    return reached, wrong


@pytest.fixture(scope="module")
def matrix(tmp_path_factory):
    cli.build_parser.cache_clear()  # a parser cached by another test hides build_parser
    return run_matrix(tmp_path_factory.mktemp("surface"))


def test_the_matrix_exits_as_expected(matrix):
    _, wrong = matrix
    assert wrong == []


def test_every_unreached_function_has_a_row(matrix):
    reached, _ = matrix
    functions = package_functions()
    unreached = {name for name, code in functions.items() if code not in reached}
    assert sorted(unreached - UNREACHED.keys()) == [], "reached by no command, and no row"
    assert sorted(UNREACHED.keys() - unreached) == [], "rows whose function is reached or gone"
    lines = sum(len(inspect.getsourcelines(functions[name])[0]) for name in UNREACHED)
    print(f"{len(UNREACHED)} rows of {len(functions)} functions, {lines} lines")


def test_every_reason_names_what_it_claims():
    tests = {
        node.name
        for path in (ROOT / "tests").glob("test_*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
    }
    docs = "".join(p.read_text() for p in [ROOT / "README.md", *(ROOT / "demos").glob("*.py")])
    bench = "".join(p.read_text() for p in (ROOT / "perfbench").glob("*.py"))
    inputs = "".join((SRC / f"{stem}.py").read_text() for stem in ("gen", "instances"))
    for name, reason in UNREACHED.items():
        tag, _, why = reason.partition(": ")
        word = re.compile(rf"\b{re.escape(name.rsplit('.', 1)[1])}\b")
        if tag == "api":
            assert name.split(".")[1] in maghom.__all__ and word.search(docs), name
        elif tag == "check":
            named = re.findall(r"\btest_\w+", why)
            assert named and set(named) <= tests, name
        elif tag == "inputs":
            assert name.split(".")[0] in ("gen", "instances") or word.search(inputs), name
        else:
            assert tag == "bench" and word.search(bench), name
