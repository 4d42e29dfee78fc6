import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import dense_rows, dense_solve, reference_ring_products

from maghom.chain import enumerate_tuples, magnitude_cochain_complex
from maghom.errors import NotACocycle, ResolutionTooShort, SpaceMismatch
from maghom.gen import random_digraph, random_space
from maghom.instances import c3, k2, x2
from maghom.linalg import QQ, FieldColumnSpan, PrimeField
from maghom.resolution import bar_resolution
from maghom.space import digraph_to_space
from maghom.ring import (
    Cochain,
    _class_coordinates,
    coboundary_of,
    cochain_vector,
    cohomology_classes,
    cup,
    lift_square_commutes,
    ring_table,
    unit_cochain,
    yoneda_lift,
    yoneda_product,
)


def duals(space, n, grade, fld=QQ):
    return [
        Cochain(space, n, grade, fld, {t: 1})
        for t in enumerate_tuples(space, n, grade)
    ]


def test_cochain_support_invariant():
    s = k2()
    with pytest.raises(ValueError):
        Cochain(s, 1, 1, QQ, {(0, 0): 1})  # not normalized
    with pytest.raises(ValueError):
        Cochain(s, 1, 2, QQ, {(0, 1): 1})  # wrong grade
    with pytest.raises(ValueError):
        Cochain(s, 2, 1, QQ, {(0, 1): 1})  # wrong arity


def test_classes_k2_1_1():
    cs = cohomology_classes(k2(), 1, 1, QQ)
    assert cs.dim() == 2
    supports = sorted(tuple(sorted(r.coeffs)) for r in cs.representatives)
    assert supports == [(((0, 1)),), (((1, 0)),)]


def test_classes_grade_zero_point_duals():
    for s in (k2(), c3(), x2()):
        cs = cohomology_classes(s, 0, 0, QQ)
        assert cs.dim() == len(s)
        for i, rep in enumerate(cs.representatives):
            assert rep.coeffs == {(i,): Fraction(1)}


def test_classes_empty_bidegree():
    assert cohomology_classes(k2(), 1, 2, QQ).dim() == 0


def test_classes_are_cocycles_and_independent():
    for s in (c3(), x2()):
        for n, g in [(1, 1), (1, 2), (2, 2), (2, 3)]:
            cs = cohomology_classes(s, n, g, QQ)
            for rep in cs.representatives:
                assert coboundary_of(rep).is_zero()
            vecs = [cochain_vector(r, cs.basis_tuples) for r in cs.representatives]
            span = FieldColumnSpan(QQ)
            for v in vecs:
                assert span.add(v)


def test_cup_k2_examples():
    s = k2()
    psi = Cochain(s, 1, 1, QQ, {(0, 1): 1})
    phi = Cochain(s, 1, 1, QQ, {(1, 0): 1})
    assert cup(psi, phi).coeffs == {(0, 1, 0): Fraction(1)}
    assert cup(psi, psi).is_zero()  # middle point cannot be both y and x


def test_cup_unit_two_sided():
    s = c3()
    u = unit_cochain(s, QQ)
    for phi in duals(s, 1, 1) + duals(s, 2, 2):
        assert cup(u, phi).coeffs == phi.coeffs
        assert cup(phi, u).coeffs == phi.coeffs


def test_cup_bidegrees_add():
    s = c3()
    psi = duals(s, 1, 1)[0]
    phi = duals(s, 1, 2)[0] if duals(s, 1, 2) else None
    if phi is not None:
        prod = cup(psi, phi)
        assert (prod.n, prod.grade) == (2, 3)


def test_cup_space_and_field_mismatch():
    psi = Cochain(k2(), 1, 1, QQ, {(0, 1): 1})
    phi = Cochain(c3(), 1, 1, QQ, {(0, 1): 1})
    with pytest.raises(SpaceMismatch):
        cup(psi, phi)
    phi2 = Cochain(k2(), 1, 1, PrimeField(2), {(1, 0): 1})
    with pytest.raises(SpaceMismatch):
        cup(psi, phi2)


def test_product_of_cocycles_is_cocycle():
    for s in (k2(), c3()):
        reps = []
        for n, g in [(0, 0), (1, 1), (1, 2)]:
            reps += cohomology_classes(s, n, g, QQ).representatives
        for psi, phi in itertools.product(reps, repeat=2):
            assert coboundary_of(cup(psi, phi)).is_zero()


def _coboundary_span(space, n, grade, fld):
    cx = magnitude_cochain_complex(space, grade, n, fld)
    dim = cx.dim(n)
    span = FieldColumnSpan(fld)
    if n >= 1:
        prev = cx.coboundary(n - 1)
        for col in range(prev.cols):
            vec = [fld.of(0)] * dim
            for (r, c), v in prev.entries.items():
                if c == col:
                    vec[r] = fld.of(v)
            span.add(vec)
    return cx, span


def test_cocycle_times_coboundary_is_coboundary():
    s = c3()
    # tau in degree 1 grade 2, phi = delta(tau) in degree 2 grade 2
    for tau in duals(s, 1, 2):
        phi = coboundary_of(tau)
        if phi.is_zero():
            continue
        for psi in cohomology_classes(s, 0, 0, QQ).representatives:
            for prod in (cup(psi, phi), cup(phi, psi)):
                cx, span = _coboundary_span(s, prod.n, prod.grade, QQ)
                vec = cochain_vector(prod, cx.bases[prod.n])
                assert span.contains(vec)


def test_cup_associative_at_chain_level():
    s = c3()
    cochains = duals(s, 0, 0) + duals(s, 1, 1)
    for chi, psi, phi in itertools.product(cochains, repeat=3):
        left = cup(cup(chi, psi), phi)
        right = cup(chi, cup(psi, phi))
        assert left.coeffs == right.coeffs


def test_yoneda_lift_k0_formula():
    # the degree-0 lift sends (y, x_0..x_n) to (y, x_0) scaled by phi's value
    s = c3()
    res = bar_resolution(s, "left", 3, 3)
    (phi,) = [
        r
        for r in cohomology_classes(s, 1, 1, QQ).representatives
        if (0, 1) in r.coeffs
    ][:1]
    lift = yoneda_lift(res, phi, 0)
    assert lift.images
    # the image of a basis tuple t = (t_0, t_1) . generator t[1:] is read
    # off its generator's image (t[1:] in degree 1, length 2 here)
    for t in res.basis[1]:
        image = lift.images.get(res.gen_index[1][t[1:]])
        expected = phi.coeffs.get(t[1:])
        if expected is None:
            assert image is None
            continue
        b, v = image
        assert ((t[0],) + res.gens[0][b], v) == (t[:2], expected)


def test_yoneda_lift_zero_cochain():
    s = c3()
    res = bar_resolution(s, "left", 3, 3)
    zero = Cochain(s, 1, 1, QQ, {})
    lift = yoneda_lift(res, zero, 2)
    assert lift.images == {}


def test_lift_chain_map_identity():
    # the square check reduces both sides into the field
    for fld, s in itertools.product((QQ, PrimeField(2), PrimeField(3)), (k2(), c3())):
        res = bar_resolution(s, "left", 4, 4)
        for n, g in [(1, 1), (1, 2), (2, 2)]:
            for phi in cohomology_classes(s, n, g, fld).representatives:
                lifts = {k: yoneda_lift(res, phi, k) for k in range(0, 4 - n + 1)}
                for k in range(1, 4 - n + 1):
                    assert lift_square_commutes(lifts[k], lifts[k - 1]), (fld, n, g, k)
    # a cocycle over Q whose two terms cancel in the coboundary: over F_2 and
    # F_3 its -1 is stored as 1 and 2, so the integer coboundary is 2 or 3
    # times a nonzero one, and the square holds only once reduced into the field
    s = c3()
    res = bar_resolution(s, "left", 4, 4)
    for fld in (QQ, PrimeField(2), PrimeField(3)):
        phi = Cochain(s, 3, 4, fld, {(0, 2, 0, 1): 1, (0, 1, 2, 1): -1})
        assert coboundary_of(phi).is_zero()
        assert lift_square_commutes(yoneda_lift(res, phi, 1), yoneda_lift(res, phi, 0)), fld
        # one term alone is no cocycle, and its lift is no chain map
        phi = Cochain(s, 3, 4, fld, {(0, 2, 0, 1): 1})
        assert not lift_square_commutes(yoneda_lift(res, phi, 1), yoneda_lift(res, phi, 0))


def test_lift_requires_long_enough_resolution():
    s = k2()
    res = bar_resolution(s, "left", 2, 2)
    phi = cohomology_classes(s, 1, 1, QQ).representatives[0]
    with pytest.raises(ResolutionTooShort):
        yoneda_lift(res, phi, 2)
    with pytest.raises(ResolutionTooShort, match="negative"):
        yoneda_lift(res, phi, -1)


def test_lift_square_rejects_unmatched_lift_pairs():
    s = k2()
    res = bar_resolution(s, "left", 3, 3)
    phi = cohomology_classes(s, 1, 1, QQ).representatives[0]
    lift_1, lift_0 = yoneda_lift(res, phi, 1), yoneda_lift(res, phi, 0)
    assert lift_square_commutes(lift_1, lift_0)
    with pytest.raises(ValueError):
        lift_square_commutes(lift_1, lift_1)
    with pytest.raises(ValueError):
        lift_square_commutes(lift_1, yoneda_lift(bar_resolution(s, "left", 3, 3), phi, 0))
    # lifts of two different cocycles are no square to check, not a failed one
    res = bar_resolution(c3(), "left", 3, 3)
    phi, chi = cohomology_classes(c3(), 1, 1, QQ).representatives[:2]
    assert lift_square_commutes(yoneda_lift(res, chi, 1), yoneda_lift(res, chi, 0))
    with pytest.raises(ValueError, match="different cocycles"):
        lift_square_commutes(yoneda_lift(res, phi, 1), yoneda_lift(res, chi, 0))


def test_negative_degree_has_no_classes():
    cs = cohomology_classes(c3(), -1, 0, QQ)
    assert cs.basis_tuples == [] and cs.dim() == 0 and cs.coboundary_columns == []


def test_yoneda_product_equals_cup_k2():
    s = k2()
    res = bar_resolution(s, "left", 2, 2)
    psi = Cochain(s, 1, 1, QQ, {(0, 1): 1})
    phi = Cochain(s, 1, 1, QQ, {(1, 0): 1})
    assert yoneda_product(psi, phi, res).coeffs == cup(psi, phi).coeffs


def test_yoneda_product_equals_cup_everywhere():
    for s in (x2(), c3()):
        res = bar_resolution(s, "left", 3, 4)
        reps = []
        for n, g in [(0, 0), (1, 1), (1, 2), (2, 2)]:
            reps += cohomology_classes(s, n, g, QQ).representatives
        for psi, phi in itertools.product(reps, repeat=2):
            if psi.n + phi.n > 3 or psi.grade + phi.grade > 4:
                continue
            yp = yoneda_product(psi, phi, res)
            assert yp.coeffs == cup(psi, phi).coeffs


def test_yoneda_product_over_prime_field():
    s = c3()
    res = bar_resolution(s, "left", 2, 2)
    fld = PrimeField(2)
    reps = cohomology_classes(s, 1, 1, fld).representatives
    for psi, phi in itertools.product(reps, repeat=2):
        assert yoneda_product(psi, phi, res).coeffs == cup(psi, phi).coeffs


def test_yoneda_unit_class_acts_as_identity_in_cohomology():
    s = c3()
    res = bar_resolution(s, "left", 2, 2)
    u = unit_cochain(s, QQ)
    for phi in cohomology_classes(s, 1, 1, QQ).representatives:
        prod = yoneda_product(u, phi, res)
        # difference must be a coboundary (here: exactly zero already)
        cx, span = _coboundary_span(s, phi.n, phi.grade, QQ)
        diff = [
            a - b
            for a, b in zip(
                cochain_vector(prod, cx.bases[phi.n]),
                cochain_vector(phi, cx.bases[phi.n]),
            )
        ]
        assert span.contains(diff) or all(v == 0 for v in diff)


def test_yoneda_rejects_resolution_over_another_space():
    # C3's resolution failed with ResolutionTooShort, which names no space
    s = k2()
    psi = Cochain(s, 1, 1, QQ, {(0, 1): 1})
    phi = Cochain(s, 1, 1, QQ, {(1, 0): 1})
    with pytest.raises(SpaceMismatch, match="resolution lives over a different space"):
        yoneda_product(psi, phi, bar_resolution(c3(), "left", 2, 2))


def test_yoneda_rejects_non_cocycle():
    s = c3()
    res = bar_resolution(s, "left", 2, 3)
    tau = duals(s, 1, 2)[0]
    not_cocycle = coboundary_of(tau)  # degree 2 coboundary, but use a raw non-cocycle
    raw = Cochain(s, 1, 2, QQ, {(0, 2): 1})
    assert not coboundary_of(raw).is_zero()
    with pytest.raises(NotACocycle):
        yoneda_product(raw, duals(s, 0, 0)[0], res)


def test_ring_table_k2():
    table = ring_table(k2(), 2, 2, QQ)
    dims = {key: cs.dim() for key, cs in table.classes.items()}
    assert dims == {(0, 0): 2, (1, 1): 2, (2, 2): 2}
    # products of the (1,1) classes span the (2,2) bidegree
    hit = set()
    for p in table.products:
        if p["lhs"][0] == 1 and p["rhs"][0] == 1:
            hit.update(k for _, k in p["result"])
    assert hit == {0, 1}


def test_ring_table_point_duals_are_orthogonal_idempotents():
    table = ring_table(c3(), 1, 1, QQ)
    zero_block = [
        p for p in table.products if p["lhs"][:2] == (0, 0) and p["rhs"][:2] == (0, 0)
    ]
    assert zero_block
    for p in zero_block:
        i, j = p["lhs"][2], p["rhs"][2]
        if i == j:
            assert p["result"] == [(QQ.of(1), i)]
        else:
            assert p["result"] == []


def test_ring_table_builds_each_bidegree_once(monkeypatch):
    # zero-dimensional targets are hit by several (left, right) pairs
    import maghom.ring as ring
    from maghom.gen import random_space

    for space, n_max, l_max in ((c3(), 2, 2), (random_space(4, 3), 2, 2)):
        calls = []

        def counted(space, n, grade, fld, orig=ring.cohomology_classes, **kwargs):
            calls.append((n, grade))
            return orig(space, n, grade, fld, **kwargs)

        monkeypatch.setattr(ring, "cohomology_classes", counted)
        table = ring_table(space, n_max, l_max, QQ)
        monkeypatch.undo()
        assert len(calls) == len(set(calls))
        assert all(cs.dim() for cs in table.classes.values())


def test_shared_complex_gives_the_same_classes():
    space = random_space(5, 4)
    for fld in (QQ, PrimeField(3)):
        for g in (0, Fraction(3, 2), 2):
            cx = magnitude_cochain_complex(space, g, 3, fld)
            for n in range(4):
                alone = cohomology_classes(space, n, g, fld)
                assert cohomology_classes(space, n, g, fld, cx=cx) == alone
    cx = magnitude_cochain_complex(space, 2, 2, QQ)
    for n, g in ((3, 2), (1, 1)):
        with pytest.raises(ValueError, match="does not serve"):
            cohomology_classes(space, n, g, QQ, cx=cx)
    # a complex carries no field: one built for QQ serves every field
    for fld in (PrimeField(2), PrimeField(3)):
        for n in range(3):
            alone = cohomology_classes(space, n, 2, fld)
            assert cohomology_classes(space, n, 2, fld, cx=cx) == alone


def _meet(psi, phi):
    return not {t[-1] for t in psi.coeffs}.isdisjoint(t[0] for t in phi.coeffs)


@st.composite
def ring_cases(draw):
    """Random spaces (half-unit and infinite distances) and random digraphs,
    with a field and a box."""
    seed = draw(st.integers(0, 10**6))
    if draw(st.booleans()):
        space = random_space(draw(st.integers(3, 5)), seed)
    else:
        space = digraph_to_space(random_digraph(draw(st.integers(4, 6)), seed, 0.35))
    fld = draw(st.sampled_from((QQ, PrimeField(2), PrimeField(3))))
    n_max = draw(st.integers(1, 3))
    l_max = draw(st.sampled_from([Fraction(k, 2) for k in range(2, 7)]))
    return space, n_max, l_max, fld


def test_ring_table_matches_reference_products_and_skips_what_cannot_meet():
    import maghom.ring as ring
    from maghom.space import attainable_grades

    skipped = []

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=ring_cases())
    def check(case):
        space, n_max, l_max, fld = case
        cups, nonzero, solved, solves, grades = [], set(), [], [], []

        def counted_cup(psi, phi, orig=ring.cup):
            assert _meet(psi, phi)
            out = orig(psi, phi)
            cups.append(out)
            if out.coeffs:
                nonzero.add((out.n, out.grade))
            return out

        def counted_coordinates(target, cochains, fld, orig=ring._class_coordinates):
            solved.append((target.n, target.grade))
            return orig(target, cochains, fld)

        def counted_solve(*args, orig=ring.solve_in_span):
            solves.append(1)
            return orig(*args)

        def counted_complex(space, grade, n_max, fld, orig=ring.magnitude_cochain_complex):
            grades.append(grade)
            return orig(space, grade, n_max, fld)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ring, "cup", counted_cup)
            mp.setattr(ring, "_class_coordinates", counted_coordinates)
            mp.setattr(ring, "solve_in_span", counted_solve)
            mp.setattr(ring, "magnitude_cochain_complex", counted_complex)
            table = ring_table(space, n_max, l_max, fld)
        assert table.products == reference_ring_products(space, n_max, l_max, fld)
        reps = {key: cs.representatives for key, cs in table.classes.items()}
        meeting = sum(
            _meet(reps[p["lhs"][:2]][p["lhs"][2]], reps[p["rhs"][:2]][p["rhs"][2]])
            for p in table.products
        )
        assert len(cups) == meeting
        assert sorted(solved) == sorted(nonzero) and len(solves) == len(nonzero)
        assert grades == attainable_grades(space, l_max)
        skipped.append(len(table.products) - len(cups))

    check()
    assert sum(skipped) > 1000


def test_ring_table_sends_no_zero_product_to_a_solve(monkeypatch):
    # a pair whose endpoints meet has a nonzero cup, so the table sends every
    # cupped product to a solve unfiltered and none of them is zero
    import maghom.ring as ring

    solved = []
    real = ring._class_coordinates

    def spy(target, cochains, fld):
        solved.extend(cochains)
        return real(target, cochains, fld)

    monkeypatch.setattr(ring, "_class_coordinates", spy)
    for space in (random_space(5, 2), digraph_to_space(random_digraph(6, 1, 0.35))):
        for fld in (QQ, PrimeField(2)):
            ring_table(space, 2, 2, fld)
    assert solved and all(c.coeffs for c in solved)


def _dense_target(space, n, grade, fld):
    """Basis and dense [representative vectors | coboundary columns] of a
    target bidegree, rebuilt from the cochain complex."""
    cx = magnitude_cochain_complex(space, grade, n, fld)
    basis = cx.bases[n]
    reps = cohomology_classes(space, n, grade, fld).representatives
    columns = [cochain_vector(r, basis) for r in reps]
    if n >= 1:
        columns += [list(col) for col in zip(*dense_rows(cx.coboundary(n - 1)))]
    return basis, len(reps), columns


@pytest.mark.parametrize("fld", [QQ, PrimeField(2)], ids=["Q", "F2"])
def test_ring_table_matches_dense_oracle(fld):
    # each product gets its own Gauss-Jordan solve against its target
    cases = [(c3(), 3, 3), (k2(), 3, 3)]
    cases += [(random_space(5, seed), 2, 2) for seed in (1, 2, 3)]
    cases += [(digraph_to_space(random_digraph(6, seed, 0.35)), 2, 3) for seed in (1, 2)]
    checked = 0
    for space, n_max, l_max in cases:
        table = ring_table(space, n_max, l_max, fld)
        targets = {}
        for p in table.products:
            (m, s, i), (n, l, j) = p["lhs"], p["rhs"]
            psi = table.classes[(m, s)].representatives[i]
            prod = cup(psi, table.classes[(n, l)].representatives[j])
            key = (m + n, s + l)
            if key not in targets:
                targets[key] = _dense_target(space, *key, fld)
            basis, dim, columns = targets[key]
            sol = dense_solve(columns, cochain_vector(prod, basis), getattr(fld, "p", None))
            assert sol is not None
            assert p["result"] == [(v, k) for k, v in enumerate(sol[:dim]) if v != 0]
            checked += 1
    assert checked > 1000


def test_class_coordinates_rejects_non_cocycle():
    s = c3()
    target = cohomology_classes(s, 2, 3, QQ)
    assert target.dim() and not target.coboundary_columns
    raw = [c for c in duals(s, 2, 3) if not coboundary_of(c).is_zero()]
    assert raw
    with pytest.raises(NotACocycle, match="not a cocycle"):
        _class_coordinates(target, [target.representatives[0], raw[0]], QQ)


def test_class_coordinates_rejects_nonzero_cochain_in_empty_bidegree():
    # c3 at (1, 2): three tuples, no cocycle and no coboundary
    s = c3()
    target = cohomology_classes(s, 1, 2, QQ)
    assert target.basis_tuples and not target.representatives and not target.coboundary_columns
    zero = Cochain(s, 1, 2, QQ, {})
    assert _class_coordinates(target, [zero], QQ) == [{}]
    with pytest.raises(NotACocycle, match="empty bidegree"):
        _class_coordinates(target, [zero, duals(s, 1, 2)[0]], QQ)


def test_class_coordinates_rejects_support_outside_target_basis():
    s = c3()
    target = cohomology_classes(s, 2, 3, QQ)
    stray = duals(s, 2, 2)[0]
    with pytest.raises(NotACocycle, match="outside the target basis"):
        _class_coordinates(target, [stray], QQ)
