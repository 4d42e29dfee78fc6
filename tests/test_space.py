import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maghom.algebra import DistanceAlgebra

from maghom.errors import (
    NonzeroDiagonal,
    TriangleViolation,
    UnknownPoint,
    ZeroOffDiagonal,
)
from maghom.gen import digraphs_up_to_iso, random_digraph, random_space
from maghom.instances import c3, directed_cycle, k2, x2, x2_digraph
from maghom.space import (
    INF,
    Digraph,
    attainable_grades,
    between,
    digraph_to_space,
    format_dist,
    opposite_space,
    parse_dist,
    validate_space,
)

from oracles import bfs_distances, reference_triangle_violation


def test_validate_one_point():
    s = validate_space(["a"], [[0]])
    assert len(s) == 1 and s.d(0, 0) == 0


def test_validate_k2():
    s = validate_space(["x", "y"], [["0", "1"], ["1", "0"]])
    assert s.d_of("x", "y") == 1 and s.d_of("y", "x") == 1


def test_validate_triangle_violation_names_witness():
    with pytest.raises(TriangleViolation) as err:
        validate_space(
            ["x", "y", "z"],
            [[0, 1, 3], [1, 0, 1], [3, 1, 0]],
        )
    assert "(x, y, z)" in str(err.value)


def test_validate_diagonal_and_zero_errors():
    with pytest.raises(NonzeroDiagonal):
        validate_space(["a", "b"], [[1, 1], [1, 0]])
    with pytest.raises(ZeroOffDiagonal):
        validate_space(["a", "b"], [[0, 0], [1, 0]])


def test_parse_and_format_dist():
    assert parse_dist("3/2") == Fraction(3, 2)
    assert parse_dist("inf") is INF
    assert format_dist(Fraction(3, 2)) == "3/2"
    assert format_dist(Fraction(4, 2)) == "2"
    assert format_dist(INF) == "inf"


def test_inf_arithmetic():
    assert INF + Fraction(1) is INF
    assert Fraction(1) + INF is INF
    assert Fraction(5) < INF
    assert not (INF < INF)
    assert INF == INF and INF != Fraction(2)


def test_digraph_to_space_single_arc():
    s = digraph_to_space(x2_digraph())
    oracle = bfs_distances(["a", "b"], [("a", "b")])
    assert s.d_of("a", "b") == oracle[("a", "b")] == 1
    assert s.d_of("b", "a") is INF and ("b", "a") not in oracle


def test_digraph_to_space_cycle_matches_bfs():
    g = directed_cycle(3)
    s = digraph_to_space(g)
    oracle = bfs_distances(g.vertices, sorted(g.arcs))
    for u in g.vertices:
        for v in g.vertices:
            expected = oracle.get((u, v), INF)
            assert s.d_of(u, v) == expected
    assert s.d_of("a", "b") == 1 and s.d_of("a", "c") == 2 and s.d_of("b", "a") == 2


def test_digraph_to_space_unreachable():
    s = digraph_to_space(Digraph(["a", "b"], []))
    assert s.d_of("a", "b") is INF and s.d_of("b", "a") is INF


def test_digraph_rejects_loops_and_unknown():
    with pytest.raises(Exception):
        Digraph(["a"], [("a", "a")])
    with pytest.raises(UnknownPoint):
        Digraph(["a"], [("a", "b")])


def test_between_k2():
    s = k2()
    assert between(s, "x", "x", "y")
    assert not between(s, "x", "y", "x")


def test_between_c3_from_bfs():
    s = c3()
    assert between(s, "a", "b", "c")
    with pytest.raises(UnknownPoint):
        between(s, "a", "b", "nope")


def test_between_false_on_infinite():
    s = x2()
    assert not between(s, "b", "a", "b")


def test_opposite_space():
    assert opposite_space(k2()) == k2()
    op = opposite_space(x2())
    assert op.d_of("b", "a") == 1 and op.d_of("a", "b") is INF
    assert opposite_space(opposite_space(c3())) == c3()


def test_opposite_reverses_betweenness():
    for seed in range(10):
        s = random_space(4, seed)
        op = opposite_space(s)
        pts = s.points
        for x in pts:
            for y in pts:
                for z in pts:
                    assert between(s, x, y, z) == between(op, z, y, x)


def test_random_spaces_satisfy_axioms_post_hoc():
    for seed in range(25):
        s = random_space(4, seed)
        n = len(s)
        for i in range(n):
            assert s.d(i, i) == 0
            for j in range(n):
                if i != j:
                    assert s.d(i, j) != 0
                for k in range(n):
                    assert s.d(i, j) + s.d(j, k) >= s.d(i, k)


def test_every_small_digraph_yields_valid_space():
    graphs = digraphs_up_to_iso(3)
    assert len(graphs) == 1 + 3 + 16
    for g in graphs:
        digraph_to_space(g)  # validate_space runs inside


def test_attainable_grades_k2():
    assert attainable_grades(k2(), 3) == [0, 1, 2, 3]


def test_attainable_grades_follow_walks():
    s = x2()
    assert attainable_grades(s, 5) == [0, 1]
    rng = random.Random(3)
    grid = attainable_grades(random_space(4, rng.randrange(100)), 2)
    assert grid[0] == 0 and all(g <= 2 for g in grid)


def test_an_infinite_grade_cap_is_refused():
    # a directed cycle walks to every multiple of its length: uncapped, the
    # grade scan never ends
    from maghom.errors import InvalidInput
    from maghom.linalg import QQ
    from maghom.ring import ring_table

    for l_max in ("inf", INF):
        with pytest.raises(InvalidInput, match="l_max must be finite"):
            attainable_grades(c3(), l_max)
        with pytest.raises(InvalidInput, match="l_max must be finite"):
            ring_table(c3(), 2, l_max, QQ)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 6),
    seed=st.integers(0, 2**32),
    digraph=st.booleans(),
)
def test_betweenness_table_matches_the_definition(n, seed, digraph):
    # half-unit and infinite distances, or a digraph's unreachable pairs;
    # every triple, b = a and b = c included, against the Fraction distances
    if digraph:
        space = digraph_to_space(random_digraph(n, seed, 0.35))
    else:
        space = random_space(n, seed, grid=(Fraction(1, 2), Fraction(1), Fraction(3, 2), INF, INF))
    alg = DistanceAlgebra(space)
    pts = space.points
    for a, c in product(range(n), repeat=2):
        expected = set()
        for b in range(n):
            ab, bc, ac = space.d(a, b), space.d(b, c), space.d(a, c)
            is_between = INF not in (ab, bc, ac) and ab + bc == ac
            if is_between:
                expected.add(b)
            assert space.between_idx(a, b, c) == is_between
            assert between(space, pts[a], pts[b], pts[c]) == is_between
            if ab is not INF and bc is not INF:
                assert alg.mul_pairs((a, b), (b, c)) == ((a, c) if is_between else None)
        assert space.middles[a][c] == expected
        if space.d(a, c) is not INF:
            assert {a, c} <= expected


TRIANGLE_VALUES = [Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(7, 3), None]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 5),
    data=st.data(),
    closed=st.booleans(),
)
def test_triangle_check_matches_the_fraction_oracle(n, data, closed):
    # fractional and infinite (None) distances; a raw matrix mostly violates
    # the axiom, its shortest-path closure never does
    dist = [
        [Fraction(0) if i == j else data.draw(st.sampled_from(TRIANGLE_VALUES)) for j in range(n)]
        for i in range(n)
    ]
    if closed:
        for j in range(n):
            for i in range(n):
                for k in range(n):
                    if dist[i][j] is not None and dist[j][k] is not None:
                        via = dist[i][j] + dist[j][k]
                        if dist[i][k] is None or via < dist[i][k]:
                            dist[i][k] = via
    points = [f"p{i}" for i in range(n)]
    matrix = [["inf" if d is None else str(d) for d in row] for row in dist]
    expected = reference_triangle_violation(points, dist)
    if expected is None:
        space = validate_space(points, matrix)
        assert [[None if d is INF else d for d in row] for row in space.dist] == dist
    else:
        with pytest.raises(TriangleViolation) as err:
            validate_space(points, matrix)
        assert type(err.value) is type(expected) and str(err.value) == str(expected)
