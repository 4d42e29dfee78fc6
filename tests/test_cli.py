import json
from pathlib import Path

import pytest

from maghom import io as mio
from maghom.cli import emit, main, parse_field_flag
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
    assert parse_field_flag("Z") == "Z"
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
    code, out = run(
        capsys, "mh", c3_file, "--coefficients", str(p), "--nmax", "2", "--lmax", "2", "--format", "json"
    )
    assert code == 0


def test_relations_report(capsys, c3_file):
    code, out = run(capsys, "relations", c3_file, "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["R1"] == []
    assert [["a", "b", "c", "a"], ["b", "c", "a", "b"], ["c", "a", "b", "c"]] == report["R2"]


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


def test_wrongly_typed_input_is_a_structured_error(capsys, tmp_path):
    p = tmp_path / "typed.json"
    p.write_text(json.dumps({"points": 5, "dist": 3}))
    assert _error(*run(capsys, "mh", str(p)))["error"] == "InvalidInput"


def test_unknown_format_is_rejected_before_computing(capsys, k2_file, monkeypatch):
    import maghom.cli as cli_mod

    def never(*args, **kwargs):
        raise AssertionError("handler ran before the format was checked")

    monkeypatch.setitem(cli_mod.COMMANDS, "mh", never)
    err = _error(*run(capsys, "mh", k2_file, "--format", "xml"))
    assert err["error"] == "UnsupportedFormat"


def test_unknown_field_is_a_structured_error(capsys, k2_file):
    assert _error(*run(capsys, "mh", k2_file, "--field", "R"))["error"] == "InvalidField"


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
