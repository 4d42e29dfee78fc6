import csv
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import maghom
from maghom import io as mio
from maghom.chain import magnitude_complex_with_coefficients
from maghom.cli import FORMATS, build_parser, emit, main, parse_field_flag
from maghom.distmod import validate_module
from maghom.errors import InvalidField, UnsupportedFormat
from maghom.instances import directed_cycle, k2_digraph
from maghom.linalg import QQ, PrimeField


@pytest.fixture()
def k2_file(tmp_path):
    p = tmp_path / "k2.json"
    p.write_text(json.dumps(mio.dump_digraph(k2_digraph())))
    return str(p)


@pytest.fixture()
def c3_file(tmp_path):
    p = tmp_path / "c3.json"
    p.write_text(json.dumps(mio.dump_digraph(directed_cycle(3))))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_field_flag():
    assert parse_field_flag("Z") is None
    assert parse_field_flag("Q") == QQ
    assert parse_field_flag("Fp:5") == PrimeField(5)
    with pytest.raises(InvalidField):
        parse_field_flag("R")
    with pytest.raises(InvalidField):
        parse_field_flag("Fp:4")


def test_ext_rejects_integral_field(capsys, k2_file):
    code, out = run(capsys, "ext", k2_file, "--field", "Z")
    assert code == 1
    assert json.loads(out)["error"] == "InvalidField"


def test_mh_table_k2(capsys, k2_file):
    code, out = run(capsys, "mh", k2_file, "--nmax", "3", "--lmax", "3", "--format", "json")
    assert code == 0
    report = json.loads(out)
    got = {(r["n"], r["l"]): r["betti"] for r in report["rows"]}
    for n in range(4):
        for l in range(4):
            expected = 2 if n == l else 0
            assert got[(n, str(l))] == expected


def test_crosscheck_c3_agrees(capsys, c3_file):
    code, out = run(capsys, "crosscheck", c3_file, "--nmax", "2", "--lmax", "3", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "all bidegrees agree"
    assert all(r["match"] == "yes" for r in report["rows"])


def test_validate_rejects_triangle_violation(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(
        json.dumps(
            {
                "points": ["x", "y", "z"],
                "dist": [["0", "1", "3"], ["1", "0", "1"], ["3", "1", "0"]],
            }
        )
    )
    code, out = run(capsys, "validate", str(p))
    assert code != 0
    err = json.loads(out)
    assert err["error"] == "TriangleViolation"
    assert "(x, y, z)" in err["detail"]


def test_validate_ok_space(capsys, tmp_path):
    p = tmp_path / "ok.json"
    p.write_text(json.dumps({"points": ["x", "y"], "dist": [["0", "1"], ["1", "0"]]}))
    code, out = run(capsys, "validate", str(p), "--format", "json")
    assert code == 0 and json.loads(out)["status"] == "ok"


def test_validate_module_reports_witness(capsys, tmp_path):
    space = {"points": ["a", "b"], "dist": [["0", "1"], ["inf", "0"]]}
    module = {
        "space": space,
        "components": {"a": [["0", 1]], "b": [["1", 1]]},
        "actions": {"a->b": {"0": [[1, 1]]}},
    }
    p = tmp_path / "mod.json"
    p.write_text(json.dumps(module))
    code, out = run(capsys, "validate", str(p), "--format", "json")
    assert code == 1
    report = json.loads(out)
    assert report["rows"][0]["violation"] == "ShapeMismatch"


# a 1x2 action where a 1x1 one belongs, at the fractional grade 3/2
BAD_ACTION = {
    "space": {"points": ["a", "b"], "dist": [["0", "1/2"], ["inf", "0"]]},
    "components": {"a": [["3/2", 1]], "b": [["2", 1]]},
    "actions": {"a->b": {"3/2": [[1, 1]]}},
}


def test_csv_reads_back_as_the_report(capsys, tmp_path, k2_file):
    # ring's lhs/rhs cells and validate's witness cells hold commas
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(BAD_ACTION))
    for argv in (["ring", k2_file, "--nmax", "2", "--lmax", "2"], ["validate", str(bad)]):
        report = json.loads(run(capsys, *argv, "--format", "json")[1])
        _, out = run(capsys, *argv, "--format", "csv")
        columns = report["columns"]
        expected = [columns] + [[str(row[c]) for c in columns] for row in report["rows"]]
        assert list(csv.reader(io.StringIO(out))) == expected
        assert any("," in cell for row in expected for cell in row)


def test_witness_grades_are_exact_strings(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(BAD_ACTION))
    outs = [run(capsys, "validate", str(p), "--format", fmt)[1] for fmt in FORMATS]
    outs += [run(capsys, cmd, str(p), "--format", "json")[1] for cmd in ("mh", "tor", "ext")]
    assert all("Fraction(" not in out for out in outs)
    assert json.loads(outs[0])["rows"][0]["witness"] == "(a, b, 3/2)"
    assert json.loads(outs[-1])["detail"].startswith("module invalid: ShapeMismatch(a, b, 3/2): ")


def test_inv_coinv_on_module_file(capsys, tmp_path):
    space = {"points": ["a", "b"], "dist": [["0", "1"], ["inf", "0"]]}
    module = {
        "space": space,
        "components": {"a": [["0", 1]], "b": [["1", 1]]},
        "actions": {"a->b": {"0": [[2]]}},
    }
    p = tmp_path / "mod.json"
    p.write_text(json.dumps(module))
    code, out = run(capsys, "inv", str(p), "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"] == [{"grade": "1", "rank": 1}]
    code, out = run(capsys, "coinv", str(p), "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"] == [
        {"grade": "0", "betti": 1, "torsion": ""},
        {"grade": "1", "betti": 0, "torsion": "2"},
    ]


# a -> b at distance 1, b -> a at infinity, rank 1 at a in grade 0 and at b
# in grade 1: each all-zero matrix sits where no zero map belongs, so it is
# reported as its nonzero twin is
ZERO_TWINS = [
    ("a->b", "0", [[0, 0], [0]], [[1, 0], [0]], "ShapeMismatch"),
    ("b->a", "1", [[0]], [[5]], "ShapeMismatch"),
    ("a->a", "0", [[0]], [[2]], "IdentityViolation"),
]


@pytest.mark.parametrize("pair, grade, zero, nonzero, kind", ZERO_TWINS)
def test_zero_matrices_are_validated_like_nonzero_ones(
    capsys, tmp_path, pair, grade, zero, nonzero, kind
):
    for mat in (zero, nonzero):
        data = {
            "space": {"points": ["a", "b"], "dist": [["0", "1"], ["inf", "0"]]},
            "components": {"a": [["0", 1]], "b": [["1", 1]]},
            "actions": {pair: {grade: mat}},
        }
        space, module = mio.load_module(data)
        assert [v.kind for v in validate_module(space, module)] == [kind]
        p = tmp_path / "mod.json"
        p.write_text(json.dumps(data))
        code, out = run(capsys, "validate", str(p), "--format", "json")
        assert code == 1 and json.loads(out)["rows"][0]["violation"] == kind
        assert run(capsys, "coinv", str(p))[0] == 1
    # the zero map where it belongs is no action at all
    data["actions"] = {"a->b": {"0": [[0]]}}
    space, module = mio.load_module(data)
    assert module.actions == {} and validate_module(space, module) == []


def test_module_file_with_space_reference(capsys, tmp_path):
    (tmp_path / "sp.json").write_text(
        json.dumps({"points": ["a", "b"], "dist": [["0", "1"], ["inf", "0"]]})
    )
    module = {
        "space": "sp.json",
        "components": {"a": [["0", 1]], "b": [["1", 1]]},
        "actions": {"a->b": {"0": [[1]]}},
    }
    p = tmp_path / "mod.json"
    p.write_text(json.dumps(module))
    code, out = run(capsys, "inv", str(p), "--format", "json")
    assert code == 0


def test_tor_and_ext_tables(capsys, k2_file):
    code, out = run(capsys, "tor", k2_file, "--nmax", "2", "--lmax", "2", "--format", "json")
    assert code == 0
    rows = {(r["n"], r["l"]): r["betti"] for r in json.loads(out)["rows"]}
    assert rows[(1, "1")] == 2 and rows[(2, "2")] == 2
    code, out = run(capsys, "ext", k2_file, "--nmax", "2", "--lmax", "2", "--field", "Fp:2", "--format", "json")
    assert code == 0
    rows = {(r["n"], r["l"]): r["dim"] for r in json.loads(out)["rows"]}
    assert rows[(1, "1")] == 2 and rows[(0, "1")] == 0
    code, _ = run(capsys, "tor", k2_file, "--field", "Q")
    assert code == 1


@pytest.mark.parametrize("seed", [3, 7])
def test_field_homology_equals_field_ext(capsys, tmp_path, seed):
    # over a field, dim MH_{n,l} = dim Ext^{n,l}(S, S) by duality: the chain
    # complex's field ranks against the right bar resolution's module complex
    code, out = run(capsys, "gen", "--seed", str(seed))
    assert code == 0
    path = tmp_path / "sp.json"
    path.write_text(out)
    bounds = ("--nmax", "3", "--lmax", "3", "--format", "csv")
    tables = {}
    for fld in ("Q", "Fp:2"):
        code, tables[fld] = run(capsys, "mh", str(path), *bounds, "--field", fld)
        assert code == 0
        code, ext = run(capsys, "ext", str(path), *bounds, "--field", fld)
        assert code == 0
        assert tables[fld] == ext, fld
    code, out = run(capsys, "mh", str(path), *bounds)
    assert code == 0
    betti = [(r["n"], r["l"], r["betti"]) for r in csv.DictReader(io.StringIO(out))]
    dims = [(r["n"], r["l"], r["dim"]) for r in csv.DictReader(io.StringIO(tables["Q"]))]
    assert betti == dims
    assert any(d != "0" for _, _, d in dims)


def test_mh_with_coefficients(capsys, tmp_path, c3_file):
    module = {
        "space": "c3.json",
        "components": {"a": [["0", 1]], "b": [["1", 1]], "c": [["2", 1]]},
        "actions": {
            "a->b": {"0": [[1]]},
            "b->c": {"1": [[1]]},
            "a->c": {"0": [[1]]},
        },
    }
    p = Path(c3_file).parent / "mod.json"
    p.write_text(json.dumps(module))
    code, out = run(capsys, "mh", str(p), "--nmax", "2", "--lmax", "2", "--format", "json")
    assert code == 0
    _, space, mod = mio.load_input(str(p))
    assert validate_module(space, mod) == []
    expected = {}
    for g in range(3):
        cx = magnitude_complex_with_coefficients(space, mod, g, 2)
        expected.update({(n, str(g)): cx.homology(n).betti for n in range(3)})
    assert _rows(out, "betti") == expected
    assert any(expected.values())


ONE_ARC = {"points": ["a", "b"], "dist": [["0", "1"], ["inf", "0"]]}


def _rows(out, value):
    return {(r["n"], r["l"]): r[value] for r in json.loads(out)["rows"]}


def test_module_grades_are_scanned(capsys, tmp_path):
    # components at grade 1/2 only: no tuple has that grade, yet H_0 lives there
    module = {
        "space": ONE_ARC,
        "components": {"a": [["1/2", 1]], "b": [["1/2", 1]]},
        "actions": {},
    }
    p = tmp_path / "mod.json"
    p.write_text(json.dumps(module))
    code, out = run(capsys, "coinv", str(p), "--format", "json")
    assert json.loads(out)["rows"] == [{"grade": "1/2", "betti": 2, "torsion": ""}]
    for cmd in ("mh", "tor"):
        code, out = run(capsys, cmd, str(p), "--nmax", "1", "--lmax", "2", "--format", "json")
        assert code == 0
        assert _rows(out, "betti") == {(0, "1/2"): 2, (1, "1/2"): 0, (0, "3/2"): 0, (1, "3/2"): 1}
    code, out = run(capsys, "crosscheck", str(p), "--nmax", "1", "--lmax", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["status"] == "all bidegrees agree"


def test_ext_scans_module_grades(capsys, tmp_path):
    # Ext at grade l meets M in grade |a| - l: the 1/2 components shift the
    # tuple grades 0 and 1 down to -1/2 and 1/2
    from maghom.distmod import validate_module
    from maghom.resolution import ext_bidegree

    (tmp_path / "sp.json").write_text(json.dumps(ONE_ARC))
    module = {
        "space": "sp.json",
        "components": {"a": [["1/2", 1]], "b": [["1/2", 1]]},
        "actions": {},
    }
    p = tmp_path / "mod.json"
    p.write_text(json.dumps(module))
    _, space, mod = mio.load_input(str(p))
    assert validate_module(space, mod) == []
    expected = [(0, "-1/2", 2), (1, "-1/2", 0), (0, "1/2", 0), (1, "1/2", 1)]
    for n, l, dim in expected:
        assert ext_bidegree(space, mod, n, l, QQ) == dim
    code, out = run(capsys, "ext", str(p), "--field", "Q", "--nmax", "1", "--lmax", "2", "--format", "json")
    assert code == 0, out
    assert [(r["n"], r["l"], r["dim"]) for r in json.loads(out)["rows"]] == expected


def test_negative_module_grades_are_scanned(capsys, tmp_path):
    # M(a) in grade -1 maps onto M(b) in grade 0: H_0 is M(a) at grade -1
    (tmp_path / "sp.json").write_text(json.dumps(ONE_ARC))
    module = {
        "space": "sp.json",
        "components": {"a": [["-1", 1]], "b": [["0", 1]]},
        "actions": {"a->b": {"-1": [[1]]}},
    }
    p = tmp_path / "mod.json"
    p.write_text(json.dumps(module))
    code, out = run(capsys, "coinv", str(p), "--format", "json")
    assert json.loads(out)["rows"] == [{"grade": "-1", "betti": 1, "torsion": ""}]
    expected = {(n, l): 0 for n in (0, 1) for l in ("-1", "0", "1")}
    expected[(0, "-1")] = 1
    # lmax 1 scans grade 1, whose tuples reach grade 2 against M(a) in grade -1
    for cmd in ("mh", "tor"):
        code, out = run(capsys, cmd, str(p), "--nmax", "1", "--lmax", "1", "--format", "json")
        assert code == 0, out
        assert _rows(out, "betti") == expected
    code, out = run(capsys, "crosscheck", str(p), "--nmax", "1", "--lmax", "1", "--format", "json")
    assert code == 0, out
    assert json.loads(out)["status"] == "all bidegrees agree"


def test_relations_report(capsys, c3_file):
    code, out = run(capsys, "relations", c3_file, "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["R1"] == []
    assert [["a", "b", "c", "a"], ["b", "c", "a", "b"], ["c", "a", "b", "c"]] == report["R2"]


def test_ring_and_relations_reject_a_module(capsys, tmp_path, c3_file):
    from maghom.distmod import trivial_module

    _, space, _ = mio.load_input(c3_file)
    mod = tmp_path / "mod.json"
    mod.write_text(json.dumps(mio.dump_module(trivial_module(space, 0, 1))))
    for argv in (
        ("ring", str(mod), "--field", "Q"),
        ("relations", str(mod)),
    ):
        code, out = run(capsys, *argv, "--format", "json")
        assert code == 1, argv
        assert json.loads(out)["error"] == "InvalidInput", argv


def test_ring_table_json_schema(capsys, k2_file):
    code, out = run(capsys, "ring", k2_file, "--nmax", "2", "--lmax", "2", "--field", "Q", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["classes"] == {"0,0": 2, "1,1": 2, "2,2": 2}
    for p in report["products"]:
        assert set(p) == {"lhs", "rhs", "result"}


def test_gen_deterministic(capsys):
    code1, out1 = run(capsys, "gen", "--seed", "9", "--points", "4")
    code2, out2 = run(capsys, "gen", "--seed", "9", "--points", "4")
    assert code1 == code2 == 0 and out1 == out2
    data = json.loads(out1)
    assert len(data["points"]) == 4


def test_gen_negative_points_is_invalid_input(capsys):
    code, out = run(capsys, "gen", "--points", "-3")
    assert code == 1
    assert json.loads(out) == {
        "error": "InvalidInput",
        "detail": "--points must be nonnegative",
    }
    code, out = run(capsys, "gen", "--points", "0")
    assert code == 0 and json.loads(out)["points"] == []


def test_emit_determinism_and_formats(capsys, c3_file):
    outs = []
    for _ in range(2):
        code, out = run(capsys, "mh", c3_file, "--nmax", "2", "--lmax", "2", "--format", "csv")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert outs[0].splitlines()[0] == "n,l,betti,torsion"


def test_crosscheck_exits_nonzero_on_mismatch(capsys, c3_file, monkeypatch):
    import maghom.cli as cli_mod
    from maghom.linalg import HomologySummary

    def broken(space, module, n, grade, resolution=None):
        return HomologySummary(n=n, grade=grade, betti=99, torsion=())

    monkeypatch.setattr(cli_mod, "tor_bidegree", broken)
    code, out = run(capsys, "crosscheck", c3_file, "--nmax", "1", "--lmax", "1", "--format", "json")
    assert code == 1
    report = json.loads(out)
    assert "mismatch" in report["status"]
    assert any(r["match"] == "NO" for r in report["rows"])


def test_emit_rejects_unknown_format():
    with pytest.raises(UnsupportedFormat):
        emit({"columns": [], "rows": []}, "yaml")


def test_grades_are_exact_strings(capsys, tmp_path):
    p = tmp_path / "half.json"
    p.write_text(
        json.dumps(
            {"points": ["a", "b"], "dist": [["0", "1/2"], ["1/2", "0"]]}
        )
    )
    code, out = run(capsys, "mh", str(p), "--nmax", "1", "--lmax", "3/2", "--format", "json")
    assert code == 0
    grades = {r["l"] for r in json.loads(out)["rows"]}
    assert grades == {"0", "1/2", "1", "3/2"}


def _error(code, out):
    assert code == 1
    return json.loads(out)


def test_truncated_json_is_a_structured_error(capsys, tmp_path):
    p = tmp_path / "cut.json"
    p.write_text('{"points": ["a", "b"], "dist": [["0", "1"]')
    err = _error(*run(capsys, "mh", str(p)))
    assert err["error"] == "InvalidInput" and "not valid JSON" in err["detail"]


def test_bad_distance_literal_is_a_structured_error(capsys, tmp_path):
    p = tmp_path / "lit.json"
    for literal in ("x", "1/0"):
        p.write_text(json.dumps({"points": ["a", "b"], "dist": [["0", literal], ["1", "0"]]}))
        err = _error(*run(capsys, "mh", str(p)))
        assert err == {"error": "InvalidInput", "detail": f"bad distance literal {literal!r}"}
    # a JSON true once read as 1, a float as the fraction it rounds to, and
    # module grades 0.5 and false as 1/2 and 0
    refused = "bad distance literal {!r}: give an integer or a string"
    for literal in (True, 0.1):
        p.write_text(json.dumps({"points": ["a", "b"], "dist": [["0", literal], ["1", "0"]]}))
        err = _error(*run(capsys, "mh", str(p)))
        assert err == {"error": "InvalidInput", "detail": refused.format(literal)}
    space = {"points": ["a", "b"], "dist": [["0", "1"], ["1", "0"]]}
    for grade in (0.5, False):
        p.write_text(json.dumps({"space": space, "components": {"a": [[grade, 1]]}}))
        err = _error(*run(capsys, "validate", str(p)))
        assert err == {"error": "InvalidInput", "detail": refused.format(grade)}


def test_wrongly_typed_input_is_a_structured_error(capsys, tmp_path):
    p = tmp_path / "typed.json"
    p.write_text(json.dumps({"points": 5, "dist": 3}))
    assert _error(*run(capsys, "mh", str(p)))["error"] == "InvalidInput"
    # strings once read as lists of their characters, and a space file that
    # a "components" key makes a module file with no space
    dist = [["0", "1"], ["1", "0"]]
    cases = [
        ({"points": "ab", "dist": dist}, "points must be a JSON list, not 'ab'"),
        ({"points": ["a", "b"], "dist": ["01", "10"]}, "each dist row must be a JSON list, not '01'"),
        ({"vertices": "ab", "arcs": []}, "vertices must be a JSON list, not 'ab'"),
        ({"vertices": ["a", "b"], "arcs": "ab"}, "arcs must be a JSON list, not 'ab'"),
        ({"vertices": ["a", "b"], "arcs": ["ab"]}, "each arc must be a [tail, head] list, not 'ab'"),
        (
            {"vertices": ["a", "b", "c"], "arcs": [["a", "b", "c"]]},
            "each arc must be a [tail, head] list, not ['a', 'b', 'c']",
        ),
        (
            {"points": ["a", "b"], "dist": dist, "components": {}},
            'a module file needs a "space" key: a space, a digraph or a path to one',
        ),
        ({"space": 5, "components": {}}, '"space" must be a path or a JSON object, not 5'),
        ({"space": ["a"], "components": {}}, "\"space\" must be a path or a JSON object, not ['a']"),
        # names that no module file's JSON keys could refer to
        ({"points": [0, 1], "dist": dist}, "points must be strings, not 0"),
        ({"vertices": [1, "1"], "arcs": []}, "vertices must be strings, not 1"),
        ({"vertices": ["a", "b"], "arcs": [[["a"], "b"]]}, "arc ends must be strings, not ['a']"),
    ]
    for data, detail in cases:
        p.write_text(json.dumps(data))
        assert _error(*run(capsys, "mh", str(p))) == {"error": "InvalidInput", "detail": detail}
    p.write_text(json.dumps({"vertices": ["a", "b"], "arcs": ["ab"]}))
    err = _error(*run(capsys, "relations", str(p)))
    assert err["detail"] == "each arc must be a [tail, head] list, not 'ab'"
    p.write_text(json.dumps({"vertices": [1, "1"], "arcs": []}))
    err = _error(*run(capsys, "relations", str(p)))
    assert err == {"error": "InvalidInput", "detail": "vertices must be strings, not 1"}


def test_unknown_format_is_rejected_before_computing(capsys, k2_file, monkeypatch):
    import maghom.cli as cli_mod

    def never(*args, **kwargs):
        raise AssertionError("handler ran before the format was checked")

    monkeypatch.setitem(cli_mod.COMMANDS, "mh", never)
    err = _error(*run(capsys, "mh", k2_file, "--format", "xml"))
    assert err["error"] == "UnsupportedFormat"


def test_unknown_field_is_a_structured_error(capsys, k2_file):
    assert _error(*run(capsys, "mh", k2_file, "--field", "R"))["error"] == "InvalidField"
    # a 401-digit modulus is rejected by size, with no float square root to overflow
    assert _error(*run(capsys, "ext", k2_file, "--field", f"Fp:{10**400 + 1}"))["error"] == "InvalidField"


def test_seed_is_only_a_gen_flag(capsys, k2_file):
    assert _error(*run(capsys, "mh", k2_file, "--seed", "3"))["error"] == "InvalidInput"


def test_argument_errors_are_structured_errors(capsys, k2_file):
    for argv in (
        ["mh", k2_file, "--lmax", "x"],
        ["mh", k2_file, "--nmax", "abc"],
        ["gen", "--format", "csv"],
        ["nosuch"],
    ):
        assert _error(*run(capsys, *argv))["error"] == "InvalidInput"


def test_negative_bounds_are_invalid_input(capsys, k2_file):
    for flag in ("nmax", "lmax"):
        code, out = run(capsys, "mh", k2_file, f"--{flag}", "-1")
        assert code == 1
        assert json.loads(out) == {"error": "InvalidInput", "detail": f"{flag} must be nonnegative"}


@pytest.mark.parametrize(
    "command, error, detail",
    [
        # a module names its space: it is the input, not a flag's value
        ("mh sp --coefficients mod", "InvalidInput", "unrecognized arguments: --coefficients mod.json"),
        ("mh bad", "InvalidInput", "module invalid: ShapeMismatch"),
        ("inv k2", "InvalidInput", "inv needs a module input"),
        ("coinv sp", "InvalidInput", "coinv needs a module input"),
        ("relations sp", "InvalidInput", "relations needs a digraph input"),
    ],
)
def test_wrong_input_kinds_are_named_errors(capsys, tmp_path, command, error, detail):
    files = {
        "k2": mio.dump_digraph(k2_digraph()),
        "sp": ONE_ARC,
        "mod": {"space": "sp.json", "components": {"a": [["0", 1]]}},
        "bad": {
            "space": ONE_ARC,
            "components": {"a": [["0", 1]], "b": [["1", 1]]},
            "actions": {"a->b": {"0": [[1, 1]]}},
        },
    }
    for name, data in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    argv = [str(tmp_path / f"{a}.json") if a in files else a for a in command.split()]
    err = _error(*run(capsys, *argv))
    assert set(err) == {"error", "detail"}
    assert err["error"] == error and err["detail"].replace(f"{tmp_path}{os.sep}", "").startswith(detail)


def test_a_module_is_validated_once(capsys, tmp_path, monkeypatch):
    import maghom.cli as cli

    calls = []

    def counting(space, module):
        calls.append(module)
        return validate_module(space, module)

    monkeypatch.setattr(cli, "validate_module", counting)
    p = tmp_path / "mod.json"
    p.write_text(json.dumps({"space": ONE_ARC, "components": {"a": [["0", 1]]}}))
    for command in ("validate", "mh", "tor", "inv"):
        calls.clear()
        code, _ = run(capsys, command, str(p), "--nmax", "1", "--lmax", "1")
        assert (code, len(calls)) == (0, 1), command


def test_infinite_lmax_is_rejected_before_computing(capsys, c3_file):
    # a cycle has attainable grades without bound
    err = _error(*run(capsys, "mh", c3_file, "--lmax", "inf"))
    assert err == {"error": "InvalidInput", "detail": "lmax must be finite"}


def test_module_file_referencing_itself_is_a_structured_error(capsys, tmp_path):
    p = tmp_path / "self.json"
    p.write_text(json.dumps({"space": "self.json", "components": {"a": [["0", 1]]}}))
    err = _error(*run(capsys, "inv", str(p)))
    assert err == {
        "error": "InvalidInput",
        "detail": "referenced file 'self.json' does not hold a space or digraph",
    }


def test_unknown_input_shape_is_invalid_input(capsys, tmp_path):
    p = tmp_path / "shape.json"
    p.write_text(json.dumps({"points": ["a"], "comp0nents": {"a": [["0", 1]]}}))
    err = _error(*run(capsys, "validate", str(p)))
    assert err == {"error": "InvalidInput", "detail": "cannot determine input kind from JSON keys"}
    # a top-level value that is not an object has no keys: a number, a
    # string that a substring test would read as a digraph, a list, and a
    # module's referenced space
    (tmp_path / "five.json").write_text("5")
    files = {}
    for name, value in [("number", 5), ("string", "vertices"), ("list", [1, 2])]:
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(value))
    files["referenced"] = tmp_path / "module.json"
    files["referenced"].write_text(json.dumps({"space": "five.json", "components": {}}))
    for name, path in files.items():
        held = tmp_path / "five.json" if name == "referenced" else path
        err = _error(*run(capsys, "mh", str(path)))
        assert err == {
            "error": "InvalidInput",
            "detail": f"the top-level JSON of {held} must be an object",
        }, name


def test_negative_module_rank_is_invalid_input(capsys, tmp_path):
    space = {"points": ["a", "b"], "dist": [["0", "1"], ["inf", "0"]]}
    p = tmp_path / "neg.json"
    p.write_text(json.dumps({"space": space, "components": {"a": [["0", -1]]}}))
    err = _error(*run(capsys, "mh", str(p)))
    assert err == {"error": "InvalidInput", "detail": "negative rank at point 'a'"}


@pytest.mark.parametrize("command", ["validate", "coinv"])
@pytest.mark.parametrize(
    "components, actions, where",
    [
        ({"a": [["0", 2.7]]}, {}, "rank at point 'a'"),
        ({"a": [["0", True]]}, {}, "rank at point 'a'"),
        ({"a": [["0", "1"]]}, {}, "rank at point 'a'"),
        ({"a": [["0", 1]], "b": [["1", 1]]}, {"a->b": {"0": [[1.5]]}}, "action entry 'a'->'b'"),
        ({"a": [["0", 1]], "b": [["1", 1]]}, {"a->b": {"0": [[False]]}}, "action entry 'a'->'b'"),
        ({"a": [["0", 1]], "b": [["1", 1]]}, {"a->b": {"0": [["1"]]}}, "action entry 'a'->'b'"),
    ],
)
def test_non_integer_module_values_are_invalid_input(
    capsys, tmp_path, command, components, actions, where
):
    # each was truncated to an int before: 2.7 to rank 2, 1.5 to the entry 1
    space = {"points": ["a", "b"], "dist": [["0", "1"], ["inf", "0"]]}
    p = tmp_path / "mod.json"
    p.write_text(json.dumps({"space": space, "components": components, "actions": actions}))
    err = _error(*run(capsys, command, str(p)))
    assert err["error"] == "InvalidInput"
    assert err["detail"].startswith(f"{where} must be an integer")


@pytest.mark.parametrize("command", ["validate", "coinv"])
@pytest.mark.parametrize(
    "components, actions, detail",
    [
        ({"a": [["0", 1], ["0", 2]]}, {}, "point 'a' gives grade 0 twice"),
        ({"a": [["0", 1], ["0/1", 2]]}, {}, "point 'a' gives grade 0 twice"),
        (
            {"a": [["0", 1]], "b": [["1", 1]]},
            {"a->b": {"0": [[1]]}, "a -> b": {"0": [[2]]}},
            "action 'a'->'b' is given twice",
        ),
        (
            {"a": [["0", 1]], "b": [["1", 1]]},
            {"a->b": {"0": [[1]], "0/1": [[2]]}},
            "action 'a'->'b' gives grade 0 twice",
        ),
    ],
    ids=["grade-twice", "grade-spellings", "pair-spellings", "action-grade-spellings"],
)
def test_duplicate_module_keys_are_invalid_input(
    capsys, tmp_path, command, components, actions, detail
):
    # each kept only the last value before, so the result hung on key order
    space = {"points": ["a", "b"], "dist": [["0", "1"], ["inf", "0"]]}
    p = tmp_path / "mod.json"
    p.write_text(json.dumps({"space": space, "components": components, "actions": actions}))
    err = _error(*run(capsys, command, str(p)))
    assert err == {"error": "InvalidInput", "detail": detail}


@pytest.mark.parametrize(
    "fields, detail",
    [
        ({"actions": [1]}, "actions must be a JSON object"),
        ({"components": [1]}, "components must be a JSON object"),
        (
            {"components": {"a": [["0", 1]], "b": [["1", 1]]}, "actions": {"a->b": [[1]]}},
            "action 'a'->'b' must be a JSON object",
        ),
    ],
    ids=["actions-list", "components-list", "action-grades-list"],
)
def test_module_lists_in_place_of_objects_are_invalid_input(capsys, tmp_path, fields, detail):
    # each ended in an AttributeError traceback before
    space = {"points": ["a", "b"], "dist": [["0", "1"], ["inf", "0"]]}
    p = tmp_path / "mod.json"
    p.write_text(json.dumps({"space": space, **fields}))
    err = _error(*run(capsys, "validate", str(p)))
    assert err == {"error": "InvalidInput", "detail": detail}


@pytest.mark.parametrize(
    "fields, detail",
    [
        (
            {"actions": {"a->b": {"0": "xy"}}},
            "action 'a'->'b' at grade 0 must be a list of rows of integers, not 'xy'",
        ),
        (
            {"actions": {"a->b": {"0": 5}}},
            "action 'a'->'b' at grade 0 must be a list of rows of integers, not 5",
        ),
        (
            {"actions": {"a->b": {"0": [5, 6]}}},
            "action 'a'->'b' at grade 0 must be a list of rows of integers, not [5, 6]",
        ),
        ({"components": {"a": 7}}, "point 'a' must be a list of [grade, rank] pairs, not 7"),
        ({"components": {"a": [["0"]]}}, "point 'a' must hold [grade, rank] pairs, not ['0']"),
    ],
    ids=["string-matrix", "number-matrix", "number-rows", "number-components", "short-pair"],
)
def test_misshapen_module_values_are_invalid_input(capsys, tmp_path, fields, detail):
    # a string matrix was read as rows of characters, and the others ended
    # in a bare TypeError or ValueError text
    space = {"points": ["a", "b"], "dist": [["0", "1"], ["inf", "0"]]}
    module = {"space": space, "components": {"a": [["0", 1]], "b": [["1", 1]]}, **fields}
    p = tmp_path / "mod.json"
    p.write_text(json.dumps(module))
    err = _error(*run(capsys, "validate", str(p)))
    assert err == {"error": "InvalidInput", "detail": detail}


def test_mutated_inputs_never_raise(capsysbinary, tmp_path):
    # seeded truncations and one-character edits of small valid files: every
    # run exits 0, or 1 with the structured error (or validate's own report)
    module = {
        "space": {"points": ["a", "b"], "dist": [["0", "1"], ["inf", "0"]]},
        "components": {"a": [["0", 1]], "b": [["1", 1]]},
        "actions": {"a->b": {"0": [[2]]}},
    }
    space = {
        "points": ["x", "y", "z"],
        "dist": [["0", "1", "5/2"], ["1/2", "0", "3/2"], ["1/2", "3/2", "0"]],
    }
    seeds = [json.dumps(mio.dump_digraph(directed_cycle(3))), json.dumps(space), json.dumps(module)]
    alphabet = '0123456789/-.,:[]{}"ab e\\'
    rng = random.Random(3)
    p = tmp_path / "in.json"
    for _ in range(300):
        text = rng.choice(seeds)
        i = rng.randrange(len(text))
        edit = rng.randrange(4)
        if edit == 0:
            text = text[:i]
        elif edit == 1:
            text = text[:i] + text[i + 1 :]
        else:
            # replace or insert one character
            text = text[:i] + rng.choice(alphabet) + text[i + (edit == 2) :]
        p.write_text(text)
        for cmd, flags in (("validate", []), ("mh", ["--nmax", "2", "--lmax", "2"])):
            code = main([cmd, str(p), *flags, "--format", "json"])
            out = json.loads(capsysbinary.readouterr().out)
            if code != 0:
                assert code == 1, text
                report = cmd == "validate" and out.get("status") == "invalid"
                assert report or set(out) == {"error", "detail"}, text


def test_infinite_grades_and_ragged_actions_are_rejected(capsys, tmp_path):
    # a component at grade inf, and an action matrix whose rows differ in
    # length: each module-reading command exits 1 with a report, no traceback
    space = {"points": ["a", "b"], "dist": [["0", "1"], ["inf", "0"]]}
    infinite = {"space": space, "components": {"a": [["inf", 1]], "b": [["0", 1]]}, "actions": {}}
    ragged = {
        "space": space,
        "components": {"a": [["0", 2]], "b": [["1", 2]]},
        "actions": {"a->b": {"0": [[1, 0], [1]]}},
    }
    for name, module in (("infinite", infinite), ("ragged", ragged)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(module))
        for cmd in ("validate", "mh", "tor", "ext", "crosscheck", "inv", "coinv"):
            code, out = run(capsys, cmd, str(p), "--nmax", "1", "--lmax", "1", "--format", "json")
            assert code == 1, (name, cmd)
            report = json.loads(out)
            if cmd == "validate" and name == "ragged":
                assert report["status"] == "invalid"
                assert [r["violation"] for r in report["rows"]] == ["ShapeMismatch"]
            else:
                assert set(report) == {"error", "detail"}, (name, cmd)


def test_crosscheck_is_integral_only(capsys, c3_file):
    for field in ("Q", "Fp:2"):
        err = _error(*run(capsys, "crosscheck", c3_file, "--field", field))
        assert err["error"] == "InvalidField"
    code, _ = run(capsys, "crosscheck", c3_file, "--nmax", "1", "--lmax", "1", "--field", "Z")
    assert code == 0


def test_one_parser_serves_failing_and_good_calls(capsys, k2_file):
    # the parser is built once per process; a call that fails in parsing or
    # in its checks must leave nothing behind for the next call
    calls = [
        ("mh", k2_file, "--field", "R"),
        ("mh", k2_file, "--nmax", "-1"),
        ("ring", k2_file, "--nmax", "2", "--lmax", "2", "--field", "Q", "--format", "json"),
        ("mh", k2_file, "--bogus"),
        ("mh", k2_file, "--nmax", "2", "--lmax", "2"),
    ]
    together = [run(capsys, *argv) for argv in calls]
    env = dict(os.environ, PYTHONPATH=str(Path(maghom.__file__).parents[1]))
    fresh = []
    for argv in calls:
        proc = subprocess.run(
            [sys.executable, "-m", "maghom.cli", *argv], capture_output=True, text=True, env=env
        )
        fresh.append((proc.returncode, proc.stdout))
    assert together == fresh
    assert [code for code, _ in together] == [1, 1, 0, 1, 0]
    assert build_parser() is build_parser()


def test_commands_leave_no_cyclic_garbage(capsys, c3_file):
    # with the collector off, only reference counting frees: a resolution or
    # complex left behind by a command or a query sits in a reference cycle
    import gc

    from maghom.chain import BasedComplex
    from maghom.distmod import trivial_module
    from maghom.resolution import (
        BarResolution,
        bar_resolution,
        ext_bidegree,
        resolution_homology,
        tor_bidegree,
    )
    from maghom.ring import cohomology_classes, cup, yoneda_product

    module = {
        "space": "c3.json",
        "components": {"a": [["0", 1]], "b": [["1", 1]], "c": [["2", 1]]},
        "actions": {"a->b": {"0": [[1]]}, "b->c": {"1": [[1]]}, "a->c": {"0": [[1]]}},
    }
    mod_file = Path(c3_file).parent / "mod.json"
    mod_file.write_text(json.dumps(module))
    bounds = ("--nmax", "2", "--lmax", "3")
    calls = [
        ("tor", c3_file, *bounds),
        ("tor", str(mod_file), *bounds),
        ("ext", str(mod_file), *bounds, "--field", "Fp:2"),
        ("crosscheck", str(mod_file), *bounds),
        ("mh", str(mod_file), *bounds),
        ("ring", c3_file, *bounds, "--field", "Q"),
    ]
    kinds = (BarResolution, BasedComplex)
    gc.collect()
    before = [o for o in gc.get_objects() if isinstance(o, kinds)]
    gc.disable()
    try:
        assert [run(capsys, *argv)[0] for argv in calls] == [0] * len(calls)
        _, space, _ = mio.load_input(c3_file)
        trivial = trivial_module(space, 0, 1)
        for g in range(3):
            assert not tor_bidegree(space, trivial, 1, g).torsion
            assert ext_bidegree(space, trivial, 1, g, QQ) >= 0
            res = bar_resolution(space, "left", 3, 3)
            assert not tor_bidegree(space, trivial, 1, g, resolution=res).torsion
            res = bar_resolution(space, "right", 3, 3)
            assert ext_bidegree(space, trivial, 1, g, QQ, resolution=res) >= 0
        # the exactness check and the Yoneda product on a given resolution
        assert resolution_homology(bar_resolution(space, "right", 3, 3), 1, 2).betti == 0
        res = bar_resolution(space, "left", 3, 3)
        assert resolution_homology(res, 1, 2).betti == 0
        psi, phi = cohomology_classes(space, 1, 1, QQ).representatives[:2]
        assert yoneda_product(psi, phi, res).coeffs == cup(psi, phi).coeffs
        del res
        kept = [o for o in gc.get_objects() if isinstance(o, kinds)]
        assert [o for o in kept if not any(o is b for b in before)] == []
    finally:
        gc.enable()
