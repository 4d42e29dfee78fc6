import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maghom.chain import (
    _walks,
    enumerate_tuples,
    magnitude_cochain_complex,
    magnitude_complex,
    magnitude_complex_with_coefficients,
    tuple_grade,
    tuples_up_to_grade,
)
from maghom.distmod import (
    DistanceModule,
    direct_sum,
    representable_module,
    shift_module,
    trivial_module,
)
from maghom.errors import InvalidField, UnvalidatedModule
from maghom.gen import random_digraph, random_module, random_space
from maghom.instances import c3, k2, x2
from maghom.linalg import QQ, PrimeField
from maghom.space import (
    INF,
    attainable_grades,
    digraph_to_space,
    opposite_space,
    validate_space,
)

from oracles import (
    dense_rows,
    exhaustive_grades,
    exhaustive_tuples,
    exhaustive_tuples_up_to,
    reference_coefficient_boundary,
    walk_count_euler_characteristic,
)


def test_enumerate_k2_alternating():
    s = k2()
    got = enumerate_tuples(s, 2, 2)
    assert got == exhaustive_tuples(s, 2, 2) == [(0, 1, 0), (1, 0, 1)]


def test_enumerate_grade_zero_singletons():
    for s in (k2(), c3(), x2()):
        assert enumerate_tuples(s, 0, 0) == [(i,) for i in range(len(s))]
        assert enumerate_tuples(s, 1, 0) == []


def test_enumerate_c3():
    s = c3()
    got = enumerate_tuples(s, 2, 2)
    assert got == exhaustive_tuples(s, 2, 2)
    labels = [tuple(s.points[i] for i in t) for t in got]
    assert labels == [("a", "b", "c"), ("b", "c", "a"), ("c", "a", "b")]


def test_enumerate_matches_oracle_on_random_spaces():
    for seed in range(8):
        s = random_space(3, seed)
        for n in range(4):
            for num in (1, 2, 3, 4):
                g = Fraction(num, 2)
                assert enumerate_tuples(s, n, g) == exhaustive_tuples(s, n, g)


def test_negative_degrees_are_empty():
    s = c3()
    assert enumerate_tuples(s, -1, 0) == []
    assert enumerate_tuples(s, -2, 1, normalized=False) == []
    assert tuples_up_to_grade(s, -1, 1) == []


def test_short_circuit_above_grade_over_min_step():
    s = k2()
    assert enumerate_tuples(s, 4, 2) == []


def test_walks_stop_at_the_first_empty_level():
    # k2 has no normalized 3-point walk under grade 1, so every longer walk
    # ends there: a length of 10**9 returns at once
    s = k2()
    assert _walks(s, 10**9, 1, True) == []
    assert _walks(s, 1, 1, True) == [((0, 1), 1), ((1, 0), 1)]


def test_walk_steps_are_read_once_per_space(tmp_path, monkeypatch):
    # mh at a large --nmax walks every degree of every grade; each walk must
    # reuse the space's steps and least step instead of rebuilding them
    import json
    from collections import Counter

    from maghom import io as mio
    from maghom.cli import main
    from maghom.instances import directed_cycle
    from maghom.space import QuasimetricSpace

    calls = Counter()
    steps = QuasimetricSpace.steps

    def counted(self, distinct):
        calls[id(self), distinct] += 1
        return steps(self, distinct)

    monkeypatch.setattr(QuasimetricSpace, "steps", counted)
    path = tmp_path / "c8.json"
    path.write_text(json.dumps(mio.dump_digraph(directed_cycle(8))))
    assert main(["mh", str(path), "--nmax", "5000", "--lmax", "3"]) == 0
    assert calls and max(calls.values()) == 1


def test_an_empty_degree_is_not_the_last():
    # grade 4 has no 2-point tuple but has 3-point ones, so no degree loop
    # may stop at its first empty degree
    s = validate_space(["a", "b"], [[0, 2], [2, 0]])
    assert enumerate_tuples(s, 1, 4) == []
    assert enumerate_tuples(s, 2, 4) == [(0, 1, 0), (1, 0, 1)]
    assert magnitude_complex(s, 4, 2).homology(2).betti == 2


def test_magnitude_complex_k2():
    cx = magnitude_complex(k2(), 2, 2)
    assert [cx.dim(n) for n in range(4)] == [0, 0, 2, 0]
    assert all(m.is_zero() for m in cx.maps)
    assert cx.verify()


def test_magnitude_complex_grade_zero():
    for s in (k2(), c3()):
        cx = magnitude_complex(s, 0, 2)
        assert cx.dim(0) == len(s) and cx.dim(1) == 0
        h = cx.homology(0)
        assert h.betti == len(s) and not h.torsion


def test_c3_face_includes_between_deletion():
    s = c3()
    cx = magnitude_complex(s, 2, 2)
    d2 = cx.boundary(2)
    col = cx.bases[2].index((0, 1, 2))
    row = cx.bases[1].index((0, 2))
    assert d2[(row, col)] == -1


def test_boundary_squares_to_zero_random():
    for seed in range(6):
        s = random_space(4, seed)
        for g in (Fraction(1), Fraction(3, 2), Fraction(2)):
            assert magnitude_complex(s, g, 4).verify()


def test_face_preserves_grade_and_normalization():
    s = c3()
    for n in (2, 3):
        for t in enumerate_tuples(s, n, 3):
            for i in range(1, n):
                if s.between_idx(t[i - 1], t[i], t[i + 1]):
                    face = t[:i] + t[i + 1 :]
                    assert tuple_grade(s, face) == tuple_grade(s, t)
                    assert all(a != b for a, b in zip(face, face[1:]))


def test_determinism():
    a = magnitude_complex(c3(), 3, 3)
    b = magnitude_complex(c3(), 3, 3)
    assert a.bases == b.bases
    assert all(x == y for x, y in zip(a.maps, b.maps))


def test_trivial_coefficients_match_plain_complex():
    s = c3()
    triv = trivial_module(s, 0, 1)
    for g in (1, 2, 3):
        plain = magnitude_complex(s, g, 3)
        with_coeffs = magnitude_complex_with_coefficients(s, triv, g, 3)
        assert [len(b) for b in plain.bases] == [len(b) for b in with_coeffs.bases]
        for n, (t_plain, t_pair) in enumerate(zip(plain.bases, with_coeffs.bases)):
            assert [(t, 0) for t in t_plain] == t_pair
        for mp, mc in zip(plain.maps, with_coeffs.maps):
            assert mp == mc


def test_coefficients_representable_x2():
    s = x2()
    rep = representable_module(s, "a")
    cx = magnitude_complex_with_coefficients(s, rep, 1, 2)
    # n=0: only the generator over b (component of M(b) in grade 1)
    assert cx.bases[0] == [((1,), 0)]
    # n=1: the generator m_a (x) (a, b)
    assert cx.bases[1] == [((0, 1), 0)]
    d1 = cx.boundary(1)
    assert dense_rows(d1) == [[1]]
    h0 = cx.homology(0)
    assert h0.betti == 0 and not h0.torsion


def test_coefficients_complex_verifies():
    s = c3()
    rep = representable_module(s, "a")
    for g in (1, 2, 3):
        assert magnitude_complex_with_coefficients(s, rep, g, 3).verify()


def test_coefficient_boundaries_match_reference():
    cases = []
    for seed in range(12):
        space = digraph_to_space(random_digraph(3 + seed % 3, seed, 0.5))
        module = random_module(space, seed)
        cases.append((space, direct_sum(module, module) if seed % 2 else module))
    # half-unit and infinite distances, modules shifted off the integers
    for seed in (5, 19, 28):
        space = random_space(4, seed)
        rep = shift_module(representable_module(space, space.points[seed % 4]), Fraction(-1, 2))
        cases.append((space, direct_sum(rep, trivial_module(space, Fraction(1, 2), 2))))
    nonzero = 0
    for space, module in cases:
        hs = module.grades()
        for g in sorted({g + h for g in attainable_grades(space, 3) for h in hs}):
            cx = magnitude_complex_with_coefficients(space, module, g, 2)
            for n in range(1, 4):
                src, tgt = cx.basis(n), cx.basis(n - 1)
                want = reference_coefficient_boundary(space, module, g, n, src, tgt)
                got = cx.boundary(n)
                assert list(got.entries.items()) == list(want.entries.items()), (module, g, n)
                nonzero += got.nnz()
    assert nonzero


def test_coefficients_require_validated_module():
    s = x2()
    raw = DistanceModule(s, {0: {Fraction(0): 1}, 1: {}}, {})
    with pytest.raises(UnvalidatedModule):
        magnitude_complex_with_coefficients(s, raw, 1, 2)


def test_cochain_is_transpose():
    s = c3()
    chain = magnitude_complex(s, 2, 3)
    cochain = magnitude_cochain_complex(s, 2, 3, QQ)
    for n in range(4):
        assert cochain.coboundary(n) == chain.boundary(n + 1).transpose()
    assert cochain.verify()


def test_cochain_k2_grade_one():
    cx = magnitude_cochain_complex(k2(), 1, 2, QQ)
    assert cx.dim(1) == 2
    assert cx.coboundary(1).is_zero()


def test_cochain_c3_dual_face():
    s = c3()
    cx = magnitude_cochain_complex(s, 2, 2, QQ)
    row = cx.bases[2].index((0, 1, 2))
    col = cx.bases[1].index((0, 2))
    assert cx.coboundary(1)[(row, col)] == -1


def test_coboundaries_are_reduced_transposed_boundaries():
    # random_space(4, 37) has half-unit distances and unreachable pairs
    for s in (c3(), x2(), random_space(4, 37)):
        for grade in (1, Fraction(3, 2), 2, 3):
            chain = magnitude_complex(s, grade, 2)
            # the cochain complex is the integer one whatever the field
            for fld in (PrimeField(2), PrimeField(3), QQ):
                cochain = magnitude_cochain_complex(s, grade, 2, fld)
                assert cochain.maps == chain.maps
                for n in range(5):
                    expected = chain.boundary(n + 1).transpose()
                    assert cochain.coboundary(n) == expected, (grade, fld, n)


def test_cochain_rejects_non_field():
    with pytest.raises(InvalidField):
        magnitude_cochain_complex(k2(), 1, 2, "Z")


def test_field_ranks_are_taken_once_per_degree(monkeypatch):
    import maghom.chain as chain

    rank = chain.rank_over_field
    calls = []

    def counted(matrix, fld):
        calls.append(fld)
        return rank(matrix, fld)

    monkeypatch.setattr(chain, "rank_over_field", counted)
    cx = magnitude_complex(c3(), 2, 3)
    for fld in (QQ, PrimeField(2)):
        dims = [cx.homology_dim_over(n, fld) for n in range(cx.n_max + 1)]
        assert dims == [
            cx.dim(n) - rank(cx.boundary(n), fld) - rank(cx.boundary(n + 1), fld)
            for n in range(cx.n_max + 1)
        ]
        assert calls.count(fld) == cx.n_max + 2


def test_euler_characteristic_per_grade():
    for seed in range(4):
        s = random_space(3, seed)
        for g in (Fraction(1), Fraction(2)):
            cx = magnitude_complex(s, g, 4)
            top = cx.n_max + 1
            if cx.dim(top):
                continue  # truncation cut generators: Euler sum not closed
            chi_dims = sum((-1) ** n * cx.dim(n) for n in range(top + 1))
            chi_betti = sum(
                (-1) ** n * cx.homology_dim_over(n, QQ) for n in range(cx.n_max + 1)
            )
            assert chi_dims == chi_betti


FRACTIONAL_GRID = (Fraction(1, 2), Fraction(1), Fraction(3, 2), INF, INF)


def _small_spaces():
    """4-point spaces with half-unit and infinite distances."""
    spaces = [random_space(4, s) for s in range(5)]
    spaces += [random_space(4, s, grid=FRACTIONAL_GRID) for s in (1, 6, 7)]
    spaces += [random_space(4, 37), c3(), k2(), x2()]
    assert any(d is None for sp in spaces for row in sp.scaled for d in row)
    assert any(d % 2 for sp in spaces for row in sp.scaled for d in row if d is not None)
    return spaces


def test_chain_of_the_opposite_space_matches():
    # X^op's complexes hold X's tuples reversed, so their boundaries are not
    # X's; over Z the homology must still agree, torsion included
    compared = 0
    for space in _small_spaces():
        op = opposite_space(space)
        for g in attainable_grades(space, 3):
            cx, cx_op = magnitude_complex(space, g, 4), magnitude_complex(op, g, 4)
            for n in range(cx.n_max + 1):
                h, h_op = cx.homology(n), cx_op.homology(n)
                assert (h.betti, h.torsion) == (h_op.betti, h_op.torsion), (space, n, g)
                compared += 1
    assert compared > 200


def test_walk_count_euler_characteristic():
    # chi at each grade from a walk count that builds no tuple, against the
    # alternating sum of the chain route's Betti numbers through every
    # degree that has generators at that grade
    nonzero = 0
    for space in _small_spaces() + [random_space(5, s) for s in range(4)]:
        n = len(space)
        least = min(space.d(i, j) for i in range(n) for j in range(n) if i != j)
        for g in attainable_grades(space, 4):
            top = int(g / least)
            cx = magnitude_complex(space, g, top)
            assert cx.dim(top + 1) == 0
            chi = sum((-1) ** k * cx.homology(k).betti for k in range(top + 1))
            assert walk_count_euler_characteristic(space, g) == chi, (space, g)
            nonzero += chi != 0
    assert nonzero > 100


def test_tuples_up_to_grade_consistency():
    s = c3()
    for n in range(3):
        pairs = tuples_up_to_grade(s, n, 3)
        for t, g in pairs:
            assert tuple_grade(s, t) == g
        for g in (0, 1, 2, 3):
            assert [t for t, gg in pairs if gg == g] == enumerate_tuples(s, n, g)


def test_field_tagged_cochain_boundaries_compose_to_zero():
    # a field-tagged complex keeps the integer boundaries, which compose to zero
    for s in (c3(), k2()):
        for g in (1, 2, 3):
            assert magnitude_cochain_complex(s, g, 3, PrimeField(2)).verify()
            assert magnitude_cochain_complex(s, g, 3, PrimeField(3)).verify()


def test_enumerate_unnormalized_matches_oracle():
    s = c3()
    for n in range(3):
        for g in (0, 1, 2):
            got = enumerate_tuples(s, n, g, normalized=False)
            assert got == exhaustive_tuples(s, n, g, normalized=False)


# --- differential tests against the itertools.product oracles -------------

GRID = (Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(5, 4), Fraction(3, 2), INF)


@st.composite
def spaces(draw, max_points=4):
    """Quasimetric spaces with fractional and infinite distances: grid
    entries closed under min-plus, so the triangle inequality holds."""
    n = draw(st.integers(0, max_points))
    dist = [
        [Fraction(0) if i == j else draw(st.sampled_from(GRID)) for j in range(n)]
        for i in range(n)
    ]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    return validate_space([f"p{i}" for i in range(n)], dist)


def _lattice_denominator(space):
    n = len(space)
    finite = [space.d(i, j) for i in range(n) for j in range(n) if space.d(i, j) is not INF]
    return lcm(1, *(d.denominator for d in finite))


@st.composite
def grades(draw, space, top=2):
    """Grades in [-1/D, top], on the space's 1/D lattice or (for m > 1) mostly off it."""
    m = draw(st.sampled_from((1, 1, 2, 5)))
    den = _lattice_denominator(space) * m
    return Fraction(draw(st.integers(-1, top * den)), den)


def _check_against_oracles(space, n, grade):
    for normalized in (True, False):
        got = enumerate_tuples(space, n, grade, normalized=normalized)
        assert got == exhaustive_tuples(space, n, grade, normalized=normalized)
        pairs = tuples_up_to_grade(space, n, grade, normalized=normalized)
        assert pairs == exhaustive_tuples_up_to(space, n, grade, normalized=normalized)
        assert all(type(g) is Fraction for _, g in pairs)
    found = attainable_grades(space, grade)
    assert found == exhaustive_grades(space, grade)
    assert all(type(g) is Fraction for g in found)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(space=spaces(), n=st.integers(0, 3), data=st.data())
def test_enumeration_matches_product_oracle(space, n, data):
    _check_against_oracles(space, n, data.draw(grades(space)))


def test_enumeration_on_degenerate_spaces():
    empty = validate_space([], [])
    point = validate_space(["p"], [[0]])
    unreachable = validate_space(
        ["a", "b", "c"], [["0", "inf", "inf"], ["inf", "0", "inf"], ["inf", "inf", "0"]]
    )
    for space in (empty, point, unreachable):
        for n in range(4):
            for grade in (Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(1), Fraction(2)):
                _check_against_oracles(space, n, grade)
    assert attainable_grades(empty, 2) == attainable_grades(unreachable, 2) == [0]
    assert tuples_up_to_grade(point, 2, 1, normalized=False) == [((0, 0, 0), 0)]
