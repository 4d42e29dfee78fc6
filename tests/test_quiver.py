from fractions import Fraction

import pytest

from maghom.distmod import DistanceModule, representable_module, trivial_module
from maghom.errors import DimensionMismatch
from maghom.instances import diamond_digraph, directed_cycle, x2_digraph
from maghom.quiver import (
    check_bound_quiver_presentation,
    check_representation_relations,
    is_shortest,
    paths_of_length,
    quiver_relations,
)
from maghom.space import digraph_to_space

from oracles import all_paths_up_to


def test_paths_of_length_matches_oracle():
    g = diamond_digraph()
    oracle = all_paths_up_to(g.vertices, sorted(g.arcs), 3)
    for length in range(4):
        assert paths_of_length(g, length) == sorted(
            p for p in oracle if len(p) == length + 1
        )


def test_relations_diamond():
    rel = quiver_relations(diamond_digraph())
    assert rel.r1 == ((("a", "b", "d"), ("a", "c", "d")),)
    assert rel.r2 == ()


def test_relations_c3():
    rel = quiver_relations(directed_cycle(3))
    assert rel.r1 == ()
    assert rel.r2 == (
        ("a", "b", "c", "a"),
        ("b", "c", "a", "b"),
        ("c", "a", "b", "c"),
    )


def test_relations_single_arc():
    rel = quiver_relations(x2_digraph())
    assert rel.r1 == () and rel.r2 == ()


def test_relation_structure_properties(suite_digraphs):
    for _, g in suite_digraphs:
        space = digraph_to_space(g)
        rel = quiver_relations(g)
        for a, b in rel.r1:
            assert a != b and len(a) == len(b)
            assert (a[0], a[-1]) == (b[0], b[-1])
            assert is_shortest(space, a) and is_shortest(space, b)
        for p in rel.r2:
            assert not is_shortest(space, p)
            assert is_shortest(space, p[:-1]) and is_shortest(space, p[1:])


def test_presentation_c3():
    report = check_bound_quiver_presentation(directed_cycle(3), 4)
    assert report.dims == ((0, 3, 3), (1, 3, 3), (2, 3, 3), (3, 0, 0), (4, 0, 0))
    assert report.relations_inside_square
    assert report.admissible_exponent == 3
    assert report.ok()


def test_presentation_diamond():
    report = check_bound_quiver_presentation(diamond_digraph(), 3)
    dims = dict((g, (q, p)) for g, q, p in report.dims)
    assert dims[0] == (4, 4)
    assert dims[2] == (1, 1)  # the two length-2 paths are identified


def test_presentation_grade_zero_counts_vertices(suite_digraphs):
    for _, g in suite_digraphs:
        report = check_bound_quiver_presentation(g, 2)
        assert report.dims[0] == (0, len(g.vertices), len(g.vertices))


def test_presentation_full_suite(suite_digraphs):
    for _, g in suite_digraphs:
        assert check_bound_quiver_presentation(g, 4).ok()


def test_representation_from_distance_module_passes():
    g = directed_cycle(3)
    rep = representable_module(digraph_to_space(g), "a")
    assert check_representation_relations(g, rep) == []


def test_trivial_representation_passes(suite_digraphs):
    for _, g in suite_digraphs[:5]:
        space = digraph_to_space(g)
        assert check_representation_relations(g, trivial_module(space, 0, 1)) == []


def test_representation_violation_detected():
    g = diamond_digraph()
    space = digraph_to_space(g)
    comps = {i: {Fraction(d): 1}
             for i, d in ((space.idx("a"), 0), (space.idx("b"), 1), (space.idx("c"), 1), (space.idx("d"), 2))}
    a, b, c, d = (space.idx(v) for v in "abcd")
    # route through b carries 1, route through c carries 2: R1 must fail
    actions = {
        (a, b): {Fraction(0): ((1,),)},
        (b, d): {Fraction(1): ((1,),)},
        (a, c): {Fraction(0): ((1,),)},
        (c, d): {Fraction(1): ((2,),)},
    }
    rep = DistanceModule(space, comps, actions)
    violations = check_representation_relations(g, rep)
    assert violations
    assert violations[0].relation == (("a", "b", "d"), ("a", "c", "d"))


@pytest.mark.parametrize("arc_map, shape", [(((1, 7),), "1x2"), (((1,), (5,)), "2x1")])
def test_misshapen_arc_map_is_reported_before_composing(arc_map, shape):
    g = diamond_digraph()
    space = digraph_to_space(g)
    a, b, c, d = (space.idx(v) for v in "abcd")
    comps = {a: {Fraction(0): 1}, b: {Fraction(1): 1}, c: {Fraction(1): 1}, d: {Fraction(2): 1}}
    actions = {(a, b): {Fraction(0): arc_map}, (b, d): {Fraction(1): ((1,),)}}
    violations = check_representation_relations(g, DistanceModule(space, comps, actions))
    assert [(v.relation, v.grade) for v in violations] == [((("a", "b"),), 0)]
    assert violations[0].detail == f"arc map a->b at grade 0 is {shape}, expected 1x1"


def test_r2_violation_detected():
    g = directed_cycle(3)
    space = digraph_to_space(g)
    # rank 1 everywhere in matching grades, all arc maps identity: the
    # closed walk a->b->c->a composes to a nonzero map, violating R2
    comps = {
        space.idx("a"): {Fraction(0): 1, Fraction(3): 1},
        space.idx("b"): {Fraction(1): 1},
        space.idx("c"): {Fraction(2): 1},
    }
    a, b, c = (space.idx(v) for v in "abc")
    actions = {
        (a, b): {Fraction(0): ((1,),)},
        (b, c): {Fraction(1): ((1,),)},
        (c, a): {Fraction(2): ((1,),)},
    }
    rep = DistanceModule(space, comps, actions)
    violations = check_representation_relations(g, rep)
    assert any(v.detail.startswith("R2") for v in violations)


def test_presentation_mismatch_raises_on_corrupted_relations(monkeypatch):
    import maghom.quiver as quiver_mod

    real = quiver_mod._relations

    def missing_r2(graph, space):
        rel = real(graph, space)
        return type(rel)(r1=rel.r1, r2=())

    monkeypatch.setattr(quiver_mod, "_relations", missing_r2)
    with pytest.raises(DimensionMismatch):
        quiver_mod.check_bound_quiver_presentation(directed_cycle(3), 3)


def test_each_check_builds_the_space_once(monkeypatch):
    import maghom.quiver as quiver_mod

    builds = []

    def counting(graph):
        builds.append(graph)
        return digraph_to_space(graph)

    monkeypatch.setattr(quiver_mod, "digraph_to_space", counting)
    g = directed_cycle(3)
    assert check_bound_quiver_presentation(g, 3).ok()
    assert len(builds) == 1
    builds.clear()
    assert check_representation_relations(g, representable_module(digraph_to_space(g), "a")) == []
    assert len(builds) == 1
