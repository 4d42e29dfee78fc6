from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maghom.chain import magnitude_complex, magnitude_complex_with_coefficients
from maghom.distmod import direct_sum, representable_module, shift_module, trivial_module
from maghom.errors import ResolutionTooShort, SpaceMismatch, UnvalidatedModule
from maghom.gen import random_digraph, random_module, random_space
from maghom.instances import c3, k2, x2
from maghom.linalg import QQ, PrimeField
from maghom.resolution import (
    _components,
    _module_matrix,
    bar_resolution,
    ext_bidegree,
    resolution_homology,
    tor_bidegree,
)
from maghom.space import INF, attainable_grades, digraph_to_space

from oracles import (
    exhaustive_tuples_up_to,
    full_scan_ext_space,
    full_scan_tor_space,
    positional_bar_boundary,
    reference_gen_boundary_terms,
    reference_module_matrix,
    walk_grade,
)


def test_right_degree_zero_basis_x2():
    res = bar_resolution(x2(), "right", 2, 1)
    labels = [tuple(res.space.points[i] for i in t) for t in res.basis[0]]
    assert sorted(labels) == [("a", "a"), ("a", "b"), ("b", "b")]
    # augmentation = grade-0 projection: cokernel of d_1 keeps exactly (x, x)
    h0 = resolution_homology(res, 0, 0)
    assert h0.betti == 2 and not h0.torsion
    h0_pos = resolution_homology(res, 0, 1)
    assert h0_pos.is_zero()


def _walk_list_cases():
    from maghom.gen import random_space

    # random_space(4, 37) has half-unit distances and unreachable pairs
    for space in (c3(), x2(), random_space(4, 37)):
        for side in ("left", "right"):
            yield space, bar_resolution(space, side, 2, Fraction(5, 2))


def test_walk_lists_match_exhaustive_oracle():
    for space, res in _walk_list_cases():
        assert len(res.gen_index) == len(res.gens) == len(res.basis) == res.n_max + 1
        for n in range(res.n_max + 1):
            for tuples, arity in ((res.gens, n), (res.basis, n + 1)):
                expected = exhaustive_tuples_up_to(space, arity, res.l_max, normalized=False)
                got = [(t, walk_grade(space, t)) for t in tuples[n]]
                assert got == expected, (res.side, n, arity)
            assert res.gen_index[n] == {t: k for k, t in enumerate(res.gens[n])}


def test_grade_lookups_match_full_scans():
    for space, res in _walk_list_cases():
        # top degree first, so the lookups walk the top length before any
        # read of the full basis does
        for n in reversed(range(res.n_max + 1)):
            full = exhaustive_tuples_up_to(space, n + 1, res.l_max, normalized=False)
            grades = [h for _, h in full]
            assert res.degree_grades(n) == sorted(set(grades))
            for g in res.degree_grades(n) + [Fraction(1, 3), Fraction(-1), INF]:
                expected = [k for k, h in enumerate(grades) if h == g]
                assert res.basis_at_grade(n, g) == expected, (n, g)
                assert res.complex_at(g).basis(n) == [full[k][0] for k in expected], (n, g)
            assert res.basis_at_grade(n, Fraction(1, 3)) == []


def test_edge_grades_match_fraction_oracles():
    # D = 2 with unreachable pairs; grades inf, -1 and 1/3 lie off the
    # tuple lattice, and modules shifted by thirds bring 1/3 and 4/3 back
    # onto it
    from maghom.gen import random_space

    space = random_space(4, 37)
    assert space.denom == 2
    x = space.points[0]
    modules = (
        trivial_module(space, 0, 1),
        shift_module(representable_module(space, x), Fraction(1, 3)),
        direct_sum(trivial_module(space, Fraction(-1, 3), 1), trivial_module(space, 1, 2)),
    )
    left = bar_resolution(space, "left", 3, 3)
    right = bar_resolution(space, "right", 3, 3)
    grades = (INF, Fraction(-1), Fraction(1, 3), Fraction(4, 3), Fraction(3, 2))
    assert _components(left, modules[1], 1, Fraction(4, 3))
    assert _components(right, modules[2], 0, Fraction(1, 3))
    for module in modules:
        for g in grades:
            for k in range(4):
                tor = [(gi, j) for gi, _, j in _components(left, module, k, g)]
                ext = [(gi, j) for gi, _, j in _components(right, module, k, g)]
                if g is INF:
                    assert tor == ext == []
                else:
                    assert tor == full_scan_tor_space(left, module, k, g), (module, g, k)
                    assert ext == full_scan_ext_space(right, module, k, g), (module, g, k)
            if g is INF:
                # no tuple has an infinite grade: zero on a default resolution,
                # and past any finite truncation
                for n in range(3):
                    assert tor_bidegree(space, module, n, g).is_zero()
                    assert ext_bidegree(space, module, n, g, QQ) == 0
                with pytest.raises(ResolutionTooShort):
                    tor_bidegree(space, module, 0, g, resolution=left)
                with pytest.raises(ResolutionTooShort):
                    ext_bidegree(space, module, 0, g, QQ, resolution=right)
                continue
            chain = magnitude_complex_with_coefficients(space, module, g, 2)
            dual = _coefficient_cochain_dims(space, module, g, 2, QQ)
            for n in range(3):
                tor = tor_bidegree(space, module, n, g, resolution=left)
                want = chain.homology(n)
                assert (tor.betti, tor.torsion) == (want.betti, want.torsion), (module, g, n)
                assert ext_bidegree(space, module, n, g, QQ, resolution=right) == dual[n]


def test_grade_lookups_return_fresh_lists():
    res = bar_resolution(c3(), "left", 2, 2)
    before = [res.basis_at_grade(n, g) for n in range(3) for g in res.degree_grades(n)]
    for n in range(3):
        for g in res.degree_grades(n):
            res.basis_at_grade(n, g).append(-1)
            res.degree_grades(n).clear()
            res.basis_at_grade(n, Fraction(1, 3)).append(-1)
    assert [res.basis_at_grade(n, g) for n in range(3) for g in res.degree_grades(n)] == before
    assert res.basis_at_grade(1, Fraction(1, 3)) == []


def test_degrees_outside_the_resolution_are_rejected():
    space = c3()
    module = trivial_module(space, 0, 1)
    left = bar_resolution(space, "left", 2, 2)
    right = bar_resolution(space, "right", 2, 2)
    for n in (-1, 3):
        with pytest.raises(ResolutionTooShort):
            left.basis_at_grade(n, 0)
        with pytest.raises(ResolutionTooShort):
            left.degree_grades(n)
    for n in (0, 3):
        with pytest.raises(ResolutionTooShort):
            left.boundary(n)
    # homological degree n reads resolution degrees n and n + 1
    for n in (-1, 2):
        with pytest.raises(ResolutionTooShort):
            tor_bidegree(space, module, n, 0, resolution=left)
        with pytest.raises(ResolutionTooShort):
            ext_bidegree(space, module, n, 0, QQ, resolution=right)
    with pytest.raises(ResolutionTooShort):
        tor_bidegree(space, module, -1, 0)


def test_bad_degrees_are_refused_before_any_walk(monkeypatch):
    import maghom.resolution as resolution

    def no_walks(*args):
        raise AssertionError("walked a resolution")

    space = c3()
    module = trivial_module(space, 0, 1)
    monkeypatch.setattr(resolution, "_walks", no_walks)
    for side in ("left", "right"):
        with pytest.raises(ValueError, match="n_max"):
            bar_resolution(space, side, -1, 1)
    with pytest.raises(ResolutionTooShort, match="negative"):
        tor_bidegree(space, module, -1, 0)
    with pytest.raises(ResolutionTooShort, match="negative"):
        ext_bidegree(space, module, -2, 1, QQ)


def test_each_arity_is_enumerated_once(monkeypatch):
    import maghom.resolution as resolution

    arities = []
    walks = resolution._walks

    def counted(space, n, cap, normalized):
        arities.append(n)
        return walks(space, n, cap, normalized)

    monkeypatch.setattr(resolution, "_walks", counted)
    space = c3()
    module = trivial_module(space, 0, 1)
    scans = {
        "left": lambda res, n, g: tor_bidegree(space, module, n, g, resolution=res),
        "right": lambda res, n, g: ext_bidegree(space, module, n, g, QQ, resolution=res),
    }
    for side, scan in scans.items():
        arities.clear()
        res = bar_resolution(space, side, 3, 2)
        # the generators, lengths 0..n_max, are walked at construction
        assert arities == [0, 1, 2, 3]
        # a scan over every degree and grade reads only the generators
        for g in range(3):
            for n in range(res.n_max):
                scan(res, n, g)
        assert arities == [0, 1, 2, 3]
        # the top length is walked on the first read of the full basis, once
        top = res.basis[3]
        assert arities == [0, 1, 2, 3, 4]
        assert res.basis[3] is top
        assert res.complex_at(2).basis(3) and res.degree_grades(3) and res.basis_at_grade(3, 2)
        res.boundary(3)
        assert arities == [0, 1, 2, 3, 4]
        # the degree-n basis and the degree-(n+1) generators are one list
        for n in range(res.n_max):
            assert res.basis[n] is res.gens[n + 1]


def test_boundaries_square_to_zero(suite):
    for _, space in suite[:6]:
        for side in ("left", "right"):
            res = bar_resolution(space, side, 3, 3)
            for n in range(2, 4):
                assert res.boundary(n - 1).matmul(res.boundary(n)).is_zero()


def test_tuple_differential_matches_positional_deletions():
    # the differential is read off the generator terms; the oracle deletes
    # tuple positions directly.  19 and 37 have unreachable pairs, 37 also
    # half-unit distances
    from maghom.gen import random_space

    for space in (c3(), x2(), random_space(3, 19), random_space(4, 37)):
        for side in ("left", "right"):
            res = bar_resolution(space, side, 3, 3)
            for n in range(1, 4):
                mat = res.boundary(n)
                assert (mat.rows, mat.cols) == (len(res.basis[n - 1]), len(res.basis[n]))
                assert mat.entries == positional_bar_boundary(res, n), (side, n)


def _runs(a):
    """(start, length) of each maximal run of equal points in a."""
    out, p = [], 0
    for i in range(1, len(a) + 1):
        if i == len(a) or a[i] != a[p]:
            out.append((p, i - p))
            p = i
    return out


def _decoded(res, a, code):
    """(sign, pair, target) of one int term of generator a: the pair, None
    for a coefficient-1 term, is a's first two points on the left and its
    last two on the right."""
    pair = (a[:2] if res.side == "left" else a[-2:]) if code & 1 else None
    return -1 if code & 2 else 1, pair, code >> 2


def _check_gen_terms(res):
    """gen_boundary_terms equals the definition's oracle at every degree,
    as target -> {pair: sign} maps, and no term list repeats a target or
    holds a one-point pair.  Returns the (place, length) of every run of
    equal points the generators hold, place "start", "end" or "inside"."""
    met = set()
    for n in range(1, res.n_max + 1):
        want = reference_gen_boundary_terms(res, n)
        for a, codes, ref in zip(res.gens[n], res.gen_boundary_terms(n), want):
            terms = [_decoded(res, a, c) for c in codes]
            got = {ti: {pair: sign} for sign, pair, ti in terms}
            assert len(got) == len(terms), (res.side, a)
            assert all(pair is None or pair[0] != pair[1] for _, pair, _ in terms), (res.side, a)
            assert got == ref, (res.side, a)
            for p, length in _runs(a):
                if p == 0:
                    met.add(("start", length))
                if p + length == len(a):
                    met.add(("end", length))
                if 0 < p < len(a) - length:
                    met.add(("inside", length))
    return met


@st.composite
def small_resolutions(draw):
    """A bar resolution of degree 1..4, either side, over a random digraph
    or a space with half-unit and infinite distances, of 1..4 points."""
    points, seed = draw(st.integers(1, 4)), draw(st.integers(0, 99))
    if draw(st.booleans()):
        space = digraph_to_space(random_digraph(points, seed))
    else:
        space = random_space(points, seed)
    side = draw(st.sampled_from(("left", "right")))
    return bar_resolution(space, side, draw(st.integers(1, 4)), Fraction(draw(st.integers(0, 6)), 2))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(res=small_resolutions())
def test_gen_boundary_terms_match_reference(res):
    _check_gen_terms(res)


def test_gen_boundary_terms_meet_every_run_place():
    # random_space(4, 37) has half-unit and infinite distances; degree 5
    # holds runs of 1..4 equal points at either end and inside
    met = set()
    for side in ("left", "right"):
        met |= _check_gen_terms(bar_resolution(random_space(4, 37), side, 5, 1))
    assert met >= {(place, length) for place in ("start", "end", "inside") for length in range(1, 5)}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(res=small_resolutions(), rnd=st.randoms(use_true_random=False))
def test_term_lists_built_in_parts_equal_one_build(res, rnd):
    # the same resolution again, built in one call per degree
    whole = bar_resolution(res.space, res.side, res.n_max, res.l_max)
    for n in range(1, res.n_max + 1):
        count = len(res.gens[n])
        part = rnd.sample(range(count), rnd.randint(0, count))
        built = res.gen_boundary_terms(n, part)
        assert [k for k in range(count) if built[k] is not None] == sorted(part)
        rest = [k for k in range(count) if built[k] is None]
        assert res.gen_boundary_terms(n, rest) == whole.gen_boundary_terms(n)
        assert None not in built
    _check_gen_terms(res)


def test_module_scan_builds_only_the_term_lists_it_reads():
    # the benchmark's crosscheck job on mod6: tor over n <= 4 and every
    # grade up to 5 that the module's components shift the tuple grades to
    from maghom.cli import JobSpec, _resolved

    space = digraph_to_space(random_digraph(6, 9, 0.4))
    job = JobSpec(4, Fraction(5), None, "json")
    module, res, grades = _resolved(space, random_module(space, 9), job, "left")
    read = {k: set() for k in range(1, res.n_max + 1)}
    for g in grades:
        for n in range(res.n_max):
            tor_bidegree(space, module, n, g, resolution=res)
        for k in read:
            read[k] |= {gi for gi, _, _ in _components(res, module, k, g)}
    for k in read:
        assert {i for i, t in enumerate(res.gen_boundary_terms(k, ())) if t is not None} == read[k]
    assert sum(map(len, read.values())) == 5796
    assert sum(len(res.gens[k]) for k in read) == 13547


def test_one_arc_generators_keep_few_terms():
    # on a -> b every generator is (a,)*k + (b,)*m: two runs and one pair
    # at most, however long the runs
    for side in ("left", "right"):
        res = bar_resolution(x2(), side, 29, 1)
        for n in range(1, 30):
            assert max(map(len, res.gen_boundary_terms(n))) <= 3, (side, n)


def test_one_bidegree_lists_each_degree_once(monkeypatch):
    import maghom.resolution as resolution

    degrees = []
    components = resolution._components

    def counted(res, module, k, grade):
        degrees.append(k)
        return components(res, module, k, grade)

    monkeypatch.setattr(resolution, "_components", counted)
    space = c3()
    module = trivial_module(space, 0, 1)
    tor_bidegree(space, module, 1, 2, resolution=bar_resolution(space, "left", 3, 2))
    assert sorted(degrees) == [0, 1, 2]
    degrees.clear()
    ext_bidegree(space, module, 1, 2, QQ, resolution=bar_resolution(space, "right", 3, 2))
    assert sorted(degrees) == [0, 1, 2]


def test_differential_preserves_grade():
    res = bar_resolution(c3(), "left", 3, 3)
    for n in (1, 2, 3):
        mat = res.boundary(n)
        for (r, c), _ in mat.entries.items():
            assert walk_grade(res.space, res.basis[n - 1][r]) == walk_grade(res.space, res.basis[n][c])


def test_grade_blocks_cover_full_matrix():
    from maghom.gen import random_space

    # random_space(4, 37) has half-unit distances and unreachable pairs
    for space in (c3(), random_space(4, 37)):
        for side in ("left", "right"):
            res = bar_resolution(space, side, 3, 2)
            for n in range(1, 4):
                full = res.boundary(n)
                total = 0
                for g in res.degree_grades(n):
                    cx = res.complex_at(g)
                    cols, rows = res.basis_at_grade(n, g), res.basis_at_grade(n - 1, g)
                    assert cx.basis(n) == [res.basis[n][c] for c in cols]
                    assert cx.basis(n - 1) == [res.basis[n - 1][r] for r in rows]
                    # the block is the full matrix restricted to the grade's rows and columns
                    expected = {
                        (i, j): full[(r, c)]
                        for i, r in enumerate(rows)
                        for j, c in enumerate(cols)
                        if full[(r, c)]
                    }
                    block = cx.boundary(n)
                    assert (block.rows, block.cols) == (len(rows), len(cols))
                    assert block.entries == expected, (side, n, g)
                    total += block.nnz()
                assert total == full.nnz()
    # one complex per grade, whatever form the grade is given in
    assert res.complex_at(1) is res.complex_at("1") is res.complex_at(Fraction(1))


def test_free_decomposition_dimension_count():
    # graded dims of degree-n piece == sum over (n+1)-tuples of shifted rows
    space = x2()
    res = bar_resolution(space, "left", 2, 2)
    n_pts = len(space)
    for n in range(3):
        for g in res.degree_grades(n):
            direct = len(res.basis_at_grade(n, g))
            total = 0
            for a in res.gens[n]:
                shift = walk_grade(space, a)
                head = a[0]
                # left row at head: dim in grade (g - shift) = reachable y at that distance
                total += sum(
                    1
                    for y in range(n_pts)
                    if space.d(y, head) is not INF and space.d(y, head) == g - shift
                )
            assert direct == total, (n, g)


def test_exactness_middle_degrees_c3():
    res = bar_resolution(c3(), "left", 4, 2)
    for g in (0, 1, 2):
        for n in (1, 2, 3):
            assert resolution_homology(res, n, g).is_zero()


def test_exactness_right_side_k2():
    res = bar_resolution(k2(), "right", 4, 3)
    for g in (0, 1, 2, 3):
        h0 = resolution_homology(res, 0, g)
        if g == 0:
            assert h0.betti == 2 and not h0.torsion
        else:
            assert h0.is_zero()
        for n in (1, 2, 3):
            assert resolution_homology(res, n, g).is_zero()


def test_tor_k2_examples():
    s = k2()
    triv = trivial_module(s, 0, 1)
    res = bar_resolution(s, "left", 4, 3)
    assert tor_bidegree(s, triv, 0, 0, resolution=res).betti == 2
    for n in (1, 2, 3):
        h = tor_bidegree(s, triv, n, n, resolution=res)
        assert h.betti == 2 and not h.torsion


def test_tor_x2_single_pair():
    s = x2()
    h = tor_bidegree(s, trivial_module(s, 0, 1), 1, 1)
    assert h.betti == 1 and not h.torsion


def test_tor_matches_chain_for_trivial_coefficients(suite):
    for _, space in suite[:4]:
        triv = trivial_module(space, 0, 1)
        res = bar_resolution(space, "left", 3, 2)
        for g in (0, 1, 2):
            cx = magnitude_complex(space, g, 2)
            for n in (0, 1, 2):
                chain_h = cx.homology(n)
                tor_h = tor_bidegree(space, triv, n, g, resolution=res)
                assert (chain_h.betti, chain_h.torsion) == (tor_h.betti, tor_h.torsion)


def test_tor_matches_chain_with_module_coefficients():
    for name, space in (("X2", x2()), ("C3", c3())):
        for seed in (1, 2, 3):
            mod = random_module(space, seed)
            res = bar_resolution(space, "left", 3, 3)
            for g in (0, 1, 2, 3):
                cx = magnitude_complex_with_coefficients(space, mod, g, 2)
                for n in (0, 1, 2):
                    chain_h = cx.homology(n)
                    tor_h = tor_bidegree(space, mod, n, g, resolution=res)
                    assert (chain_h.betti, chain_h.torsion) == (
                        tor_h.betti,
                        tor_h.torsion,
                    ), (name, seed, n, g)


def test_ext_k2_examples():
    s = k2()
    triv = trivial_module(s, 0, 1)
    res = bar_resolution(s, "right", 4, 3)
    assert ext_bidegree(s, triv, 0, 0, QQ, resolution=res) == 2
    for n in (1, 2, 3):
        assert ext_bidegree(s, triv, n, n, QQ, resolution=res) == 2


def test_ext_x2_over_f2():
    s = x2()
    assert ext_bidegree(s, trivial_module(s, 0, 1), 1, 1, PrimeField(2)) == 1


def test_ext_matches_cochain_dims():
    from maghom.chain import magnitude_cochain_complex

    for space in (x2(), c3()):
        triv = trivial_module(space, 0, 1)
        for fld in (QQ, PrimeField(2)):
            res = bar_resolution(space, "right", 3, 3)
            for g in (0, 1, 2, 3):
                cochain = magnitude_cochain_complex(space, g, 2, fld)
                for n in (0, 1, 2):
                    assert cochain.homology_dim_over(n, fld) == ext_bidegree(
                        space, triv, n, g, fld, resolution=res
                    )


def test_resolution_too_short_errors():
    s = k2()
    triv = trivial_module(s, 0, 1)
    res = bar_resolution(s, "left", 2, 1)
    with pytest.raises(ResolutionTooShort):
        tor_bidegree(s, triv, 2, 1, resolution=res)
    with pytest.raises(ResolutionTooShort):
        tor_bidegree(s, triv, 0, 5, resolution=res)
    with pytest.raises(ResolutionTooShort):
        ext_bidegree(s, triv, 0, 0, QQ, resolution=res)  # wrong side
    with pytest.raises(ResolutionTooShort):
        resolution_homology(res, 2, 0)


def test_shared_resolution_matches_a_fresh_one_per_query():
    space = c3()
    fields = (QQ, PrimeField(2))
    for module in (random_module(space, 2), shift_module(random_module(space, 3), Fraction(-1))):
        left = bar_resolution(space, "left", 3, 7)
        right = bar_resolution(space, "right", 3, 7)
        for g in range(-1, 4):
            for n in range(3):
                fresh = bar_resolution(space, "left", 3, 7)
                assert tor_bidegree(space, module, n, g, resolution=left) == tor_bidegree(
                    space, module, n, g, resolution=fresh
                ), (n, g)
                for fld in fields:
                    fresh = bar_resolution(space, "right", 3, 7)
                    assert ext_bidegree(space, module, n, g, fld, resolution=right) == ext_bidegree(
                        space, module, n, g, fld, resolution=fresh
                    ), (n, g, fld)


def test_modules_alternating_on_one_resolution_keep_their_own_values():
    space = c3()
    modules = (trivial_module(space, 0, 1), trivial_module(space, 0, 2))

    def values(module, n, left, right):
        return (
            tor_bidegree(space, module, n, 1, resolution=left),
            ext_bidegree(space, module, n, 1, QQ, resolution=right),
        )

    def fresh(module, n):
        left, right = bar_resolution(space, "left", 3, 1), bar_resolution(space, "right", 3, 1)
        return values(module, n, left, right)

    expected = [[fresh(module, n) for n in range(3)] for module in modules]
    assert expected[0] != expected[1]
    left = bar_resolution(space, "left", 3, 1)
    right = bar_resolution(space, "right", 3, 1)
    for n in (0, 1, 2, 1, 0):
        for module, want in zip(modules, expected):
            assert values(module, n, left, right) == want[n], n


def test_checks_run_when_the_module_complex_is_reused():
    space = c3()
    module = trivial_module(space, 0, 1)
    queries = {
        "left": lambda s, n, res: tor_bidegree(s, module, n, 1, resolution=res),
        "right": lambda s, n, res: ext_bidegree(s, module, n, 1, QQ, resolution=res),
    }
    for side, query in queries.items():
        res = bar_resolution(space, side, 3, 1)
        query(space, 1, res)
        # each query below would hit the complex cached for (module, grade 1)
        for n in (3, -1):
            with pytest.raises(ResolutionTooShort):
                query(space, n, res)
        with pytest.raises(UnvalidatedModule, match="different space"):
            query(k2(), 1, res)
        module.validated = False
        with pytest.raises(UnvalidatedModule, match="validate_module"):
            query(space, 1, res)
        module.validated = True
        query(space, 1, res)


def test_module_or_resolution_over_another_space_is_rejected():
    from maghom.gen import random_space

    space = random_space(3, 1)
    triv = trivial_module(space, 0, 1)
    assert tor_bidegree(space, triv, 1, 1).betti == 1
    # C3's resolution read 3 here, C3's module a number of its own
    with pytest.raises(SpaceMismatch):
        tor_bidegree(space, triv, 1, 1, resolution=bar_resolution(c3(), "left", 2, 1))
    with pytest.raises(SpaceMismatch):
        ext_bidegree(space, triv, 1, 1, QQ, resolution=bar_resolution(c3(), "right", 2, 1))
    with pytest.raises(UnvalidatedModule, match="different space"):
        tor_bidegree(space, trivial_module(c3(), 0, 1), 1, 1)
    with pytest.raises(UnvalidatedModule, match="different space"):
        ext_bidegree(space, trivial_module(c3(), 0, 1), 1, 1, QQ)
    # an equal space built apart is the same space
    twin = random_space(3, 1)
    res = bar_resolution(twin, "left", 2, 1)
    assert tor_bidegree(space, trivial_module(twin, 0, 1), 1, 1, resolution=res).betti == 1


def test_sides_have_mirrored_sizes():
    left = bar_resolution(c3(), "left", 3, 2)
    right = bar_resolution(c3(), "right", 3, 2)
    for n in range(4):
        assert len(left.basis[n]) == len(right.basis[n])


def test_crosscheck_on_fractional_grades():
    # grades in steps of 1/2: the whole pipeline is grade-exact, not integral
    from maghom.gen import random_space
    from maghom.space import attainable_grades

    for seed in (0, 5, 9):
        space = random_space(3, seed)
        triv = trivial_module(space, 0, 1)
        res = bar_resolution(space, "left", 3, 2)
        for g in attainable_grades(space, 2):
            cx = magnitude_complex(space, g, 2)
            for n in range(3):
                chain_h = cx.homology(n)
                tor_h = tor_bidegree(space, triv, n, g, resolution=res)
                assert (chain_h.betti, chain_h.torsion) == (tor_h.betti, tor_h.torsion)


def test_infinite_truncation_is_rejected():
    from maghom.errors import InvalidInput

    for side in ("left", "right"):
        for l_max in ("inf", INF):
            with pytest.raises(InvalidInput, match="l_max must be finite"):
                bar_resolution(c3(), side, 3, l_max)


def test_tor_of_the_opposite_space_matches():
    # X^op's left resolution walks X's tuples reversed, so its matrices are
    # not X's; Tor of the trivial module must still agree, torsion included
    from maghom.gen import random_space
    from maghom.space import attainable_grades, opposite_space

    grid = (Fraction(1, 2), Fraction(1), Fraction(3, 2), INF, INF)
    spaces = [random_space(4, s) for s in range(5)]
    spaces += [random_space(4, s, grid=grid) for s in (1, 6, 7)] + [random_space(4, 37)]
    assert any(d is None for sp in spaces for row in sp.scaled for d in row)
    compared = 0
    for space in spaces:
        op = opposite_space(space)
        res = bar_resolution(space, "left", 3, 2)
        res_op = bar_resolution(op, "left", 3, 2)
        triv, triv_op = trivial_module(space, 0, 1), trivial_module(op, 0, 1)
        for g in attainable_grades(space, 2):
            for n in range(3):
                h = tor_bidegree(space, triv, n, g, resolution=res)
                h_op = tor_bidegree(op, triv_op, n, g, resolution=res_op)
                assert (h.betti, h.torsion) == (h_op.betti, h_op.torsion), (space, n, g)
                compared += 1
    assert compared > 100


def test_one_point_space_pipelines():
    from maghom.space import validate_space

    space = validate_space(["p"], [[0]])
    triv = trivial_module(space, 0, 1)
    left = bar_resolution(space, "left", 3, 0)
    right = bar_resolution(space, "right", 3, 0)
    assert tor_bidegree(space, triv, 0, 0, resolution=left).betti == 1
    for n in (1, 2):
        assert tor_bidegree(space, triv, n, 0, resolution=left).is_zero()
        assert ext_bidegree(space, triv, n, 0, QQ, resolution=right) == 0
    assert ext_bidegree(space, triv, 0, 0, QQ, resolution=right) == 1
    for n in (0, 1, 2):
        h = resolution_homology(left, n, 0)
        assert (h.betti, h.torsion) == ((1, ()) if n == 0 else (0, ()))


def _coefficient_cochain_dims(space, module, grade, n_max, fld):
    """Independent oracle: the dual complex with module coefficients.

    Degree-n entries are pairs (tuple, j) with j a basis vector of the
    component of M at the tuple's last point in grade (|tuple| - grade).
    The coboundary duals interior betweenness deletions and appends one
    extra point through the module action.
    """
    from maghom.chain import tuples_up_to_grade, tuple_grade
    from maghom.linalg import SparseMatrix, rank_over_field, PrimeField

    bases = []
    for n in range(n_max + 2):
        basis = []
        for t, g in tuples_up_to_grade(space, n, 10**6, normalized=True):
            r = module.rank_at(t[-1], g - grade)
            basis.extend((t, j) for j in range(r))
        bases.append(basis)
    index = [{lab: k for k, lab in enumerate(b)} for b in bases]
    deltas = []
    for n in range(n_max + 1):
        mat = SparseMatrix(len(bases[n + 1]), len(bases[n]))
        for row, (t, j) in enumerate(bases[n + 1]):
            m = n + 1
            for i in range(1, m):
                if space.between_idx(t[i - 1], t[i], t[i + 1]):
                    face = t[:i] + t[i + 1 :]
                    key = (face, j)
                    if key in index[n]:
                        mat.add_at(row, index[n][key], -1 if i % 2 else 1)
            head = t[:-1]
            g_head = tuple_grade(space, head)
            action = module.action_matrix(head[-1], t[-1], g_head - grade)
            if j < len(action):
                for c, v in enumerate(action[j]):
                    if v:
                        key = (head, c)
                        if key in index[n]:
                            mat.add_at(row, index[n][key], (-1 if m % 2 else 1) * v)
        if isinstance(fld, PrimeField):
            mat = mat.reduce_mod(fld.p)
        deltas.append(mat)
    for a, b in zip(deltas, deltas[1:]):
        product = b.matmul(a)
        if isinstance(fld, PrimeField):
            product = product.reduce_mod(fld.p)
        assert product.is_zero()
    dims = []
    for n in range(n_max + 1):
        down = deltas[n - 1] if n >= 1 else SparseMatrix(len(bases[0]), 0)
        dims.append(len(bases[n]) - rank_over_field(deltas[n], fld) - rank_over_field(down, fld))
    return dims


def test_ext_with_module_coefficients_matches_dual_complex():
    from maghom.gen import random_module, random_space
    from maghom.space import attainable_grades

    cases = []
    for name, space in (("X2", x2()), ("C3", c3())):
        grades = attainable_grades(space, 2) + [-1, -2, -3]
        cases += [((name, seed), space, random_module(space, seed), grades) for seed in (0, 4, 8)]
    # half-unit distances and unreachable pairs; modules off the space's
    # lattice, queried at every grade g - h they meet
    space = random_space(4, 37)
    for i, module in enumerate(_graded_modules(space)):
        hs = module.grades()
        grades = {g - h for g in attainable_grades(space, 3) for h in hs}
        cases.append((("R37", i), space, module, sorted(g for g in grades if g + max(hs) <= 6)))
    for case, space, module, grades in cases:
        res = bar_resolution(space, "right", 3, 6)
        for fld in (QQ, PrimeField(2), PrimeField(3)):
            for g in grades:
                oracle = _coefficient_cochain_dims(space, module, g, 2, fld)
                got = [
                    ext_bidegree(space, module, n, g, fld, resolution=res)
                    for n in range(3)
                ]
                assert got == oracle, (case, g, fld)


def test_degree_zero_matches_module_functors():
    # coinvariants are Tor_0; invariants ranks are Ext^0 over the rationals
    from maghom.distmod import coinvariants, invariants
    from maghom.gen import random_digraph, random_module, random_space

    for name, space in (("X2", x2()), ("C3", c3()), ("K2", k2())):
        for seed in (1, 6):
            module = random_module(space, seed)
            left = bar_resolution(space, "left", 1, 4)
            right = bar_resolution(space, "right", 1, 4)
            co = {b.grade: (b.betti, b.torsion) for b in coinvariants(module)}
            inv = {b.grade: b.rank for b in invariants(module)}
            grades = set(module.grades()) | set(co) | set(inv)
            for g in sorted(grades):
                if g > 4:
                    continue
                t = tor_bidegree(space, module, 0, g, resolution=left)
                assert (t.betti, t.torsion) == co.get(g, (0, ())), (name, seed, g)
                # invariants in grade g sit at internal grade -g of the dual side
                e = ext_bidegree(space, module, 0, -g, QQ, resolution=right)
                assert e == inv.get(g, 0), (name, seed, g)


def test_default_resolution_sizing_accounts_for_module_grades():
    # Ext at negative internal grade touches tuple grades below the query
    # grade; the default-built resolution must still cover them
    from maghom.distmod import invariants, shift_module, trivial_module as tm

    space = x2()
    module = shift_module(tm(space, 0, 1), 3)
    inv = {b.grade: b.rank for b in invariants(module)}
    assert inv == {3: 2}
    assert ext_bidegree(space, module, 0, -3, QQ) == 2
    assert tor_bidegree(space, module, 0, 3).betti == 2
    negative = shift_module(tm(space, 0, 1), -2)
    assert tor_bidegree(space, negative, 0, -2).betti == 2
    assert ext_bidegree(space, negative, 0, 2, QQ) == 2


def _graded_modules(space):
    """Valid modules over any space with components in several grades:
    representable rows and trivial pieces, summed and shifted by negative
    and fractional amounts."""
    x, y = space.points[0], space.points[-1]
    rep_x, rep_y = representable_module(space, x), representable_module(space, y)
    yield rep_x
    yield direct_sum(shift_module(rep_x, Fraction(-3, 2)), trivial_module(space, Fraction(1, 3), 2))
    yield direct_sum(shift_module(rep_y, Fraction(1, 2)), shift_module(rep_x, -1))
    yield shift_module(direct_sum(rep_x, rep_y), Fraction(-2, 3))


def test_grouped_spaces_equal_full_scan():
    from maghom.gen import random_space
    from maghom.space import attainable_grades

    spaces = [x2(), c3(), random_space(3, 19), random_space(4, 9)]  # 19: unreachable pairs
    for space in spaces:
        modules = list(_graded_modules(space))
        if space.denom == 1:
            modules += [random_module(space, seed) for seed in (2, 7)]
        left = bar_resolution(space, "left", 3, 3)
        right = bar_resolution(space, "right", 3, 3)
        for module in modules:
            hs = module.grades()
            grades = sorted(
                {g + h for g in attainable_grades(space, 3) for h in hs}
                | {g - h for g in attainable_grades(space, 3) for h in hs}
                | {Fraction(1, 7), Fraction(-5, 2)}
            )
            for k in range(4):
                for g in grades:
                    tor = [(gi, j) for gi, _, j in _components(left, module, k, g)]
                    assert tor == full_scan_tor_space(left, module, k, g)
                    ext = [(gi, j) for gi, _, j in _components(right, module, k, g)]
                    assert ext == full_scan_ext_space(right, module, k, g)


def test_tor_matches_chain_with_coefficients_on_fractional_distances():
    from maghom.gen import random_space
    from maghom.space import attainable_grades

    # seeds 19 and 28 also have unreachable pairs
    for seed in (5, 19, 28):
        space = random_space(3, seed)
        assert space.denom == 2
        for module in _graded_modules(space):
            hs = module.grades()
            grades = sorted({g + h for g in attainable_grades(space, 2) for h in hs})
            res = bar_resolution(space, "left", 3, grades[-1] - min(hs))
            for g in grades:
                cx = magnitude_complex_with_coefficients(space, module, g, 2)
                for n in range(3):
                    chain_h = cx.homology(n)
                    tor_h = tor_bidegree(space, module, n, g, resolution=res)
                    assert (chain_h.betti, chain_h.torsion) == (tor_h.betti, tor_h.torsion), (
                        seed,
                        module,
                        n,
                        g,
                    )


@st.composite
def coefficient_modules(draw):
    """A space of 1..4 points with a valid module over it: `random_module`
    over a random digraph, or over a space with half-unit and infinite
    distances a representable row shifted by a half-unit plus trivial
    pieces; either one summed with itself half the time, so that points
    carry pieces of rank 2 and more."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        space = digraph_to_space(random_digraph(n, draw(st.integers(0, 99))))
        module = random_module(space, draw(st.integers(0, 99)))
    else:
        space = random_space(n, draw(st.integers(0, 99)))
        rep = representable_module(space, draw(st.sampled_from(space.points)))
        shift = Fraction(draw(st.integers(-2, 2)), 2)
        trivial = trivial_module(space, Fraction(draw(st.integers(0, 4)), 2), draw(st.integers(0, 2)))
        module = direct_sum(shift_module(rep, shift), trivial)
    if draw(st.booleans()):
        module = direct_sum(module, module)
    return space, module


def _check_module_matrices(space, module, n_max=3, l_max=3):
    """_module_matrix equals the reference, entry by entry and in dict
    order, at every degree and every grade a component reaches, on both
    resolutions.  Returns how many source generators (counted once per
    matrix) hold an even run of equal points, and how many an odd run of
    three or more: the reference meets their repeated faces and one-point
    pairs, which the package's terms cancel."""
    hs = module.grades()
    grades = sorted({g + s * h for g in attainable_grades(space, l_max) for h in hs for s in (1, -1)})
    even = odd = 0
    for side in ("left", "right"):
        res = bar_resolution(space, side, n_max, l_max)
        for k in range(1, n_max + 1):
            for g in grades:
                src = _components(res, module, k, g)
                tgt = _components(res, module, k - 1, g)
                got = _module_matrix(res, module, k, src, tgt)
                want = reference_module_matrix(res, module, k, g, src, tgt)
                assert list(got.entries.items()) == list(want.entries.items()), (side, k, g)
                for gi in {gi for gi, _, _ in src}:
                    lengths = [length for _, length in _runs(res.gens[k][gi])]
                    even += any(length % 2 == 0 for length in lengths)
                    odd += any(length % 2 and length > 1 for length in lengths)
    return even, odd


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=coefficient_modules())
def test_module_matrix_matches_reference(case):
    _check_module_matrices(*case)


def test_module_matrix_reference_meets_doubled_points_and_repeated_faces():
    # X2 with the representable row at a, twice: in the reference the left
    # generator (a, b, b) reaches (a, b) by deleting either b, and (a, a, b)
    # frees the pair (a, a); the package's terms cancel both runs first
    space = x2()
    rep = representable_module(space, "a")
    even, odd = _check_module_matrices(space, direct_sum(rep, rep))
    assert even and odd
