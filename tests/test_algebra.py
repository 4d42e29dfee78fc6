import random
from fractions import Fraction

import pytest

from maghom.algebra import DistanceAlgebra, algebra_multiply, radical_power_is_zero
from maghom.distmod import trivial_module, validate_module
from maghom.instances import c3, k2, x2
from maghom.space import validate_space


def pair(algebra, x, y):
    return algebra.pair_of_labels(x, y)


def test_product_c3():
    alg = DistanceAlgebra(c3())
    ab, bc, ba, ca = pair(alg, "a", "b"), pair(alg, "b", "c"), pair(alg, "b", "a"), pair(alg, "c", "a")
    assert algebra_multiply(alg, {ab: 1}, {bc: 1}) == {pair(alg, "a", "c"): 1}
    assert algebra_multiply(alg, {ab: 1}, {ba: 1}) == {}
    assert algebra_multiply(alg, {ab: 1, bc: 1}, {ca: 1}) == {pair(alg, "b", "a"): 1}


def test_unit_laws():
    alg = DistanceAlgebra(c3())
    one = alg.unit()
    ab = pair(alg, "a", "b")
    assert algebra_multiply(alg, alg.e("a"), {ab: 1}) == {ab: 1}
    assert algebra_multiply(alg, {ab: 1}, alg.e("b")) == {ab: 1}
    rng = random.Random(0)
    for _ in range(10):
        elem = {p: rng.randrange(-3, 4) for p in alg.basis}
        elem = {p: v for p, v in elem.items() if v}
        assert algebra_multiply(alg, elem, one) == elem
        assert algebra_multiply(alg, one, elem) == elem


def test_idempotents_orthogonal_and_complete():
    alg = DistanceAlgebra(k2())
    ex, ey = alg.e("x"), alg.e("y")
    assert algebra_multiply(alg, ex, ex) == ex
    assert algebra_multiply(alg, ex, ey) == {}
    total = dict(ex)
    total.update(ey)
    assert total == alg.unit()


def test_grading_is_additive():
    alg = DistanceAlgebra(c3())
    ab, bc = pair(alg, "a", "b"), pair(alg, "b", "c")
    prod = algebra_multiply(alg, {ab: 1}, {bc: 1})
    ((pq, _),) = prod.items()
    assert alg.grade(pq) == alg.grade(ab) + alg.grade(bc) == 2


def test_associativity_on_all_basis_triples(suite):
    for _, space in suite:
        alg = DistanceAlgebra(space)
        for p in alg.basis:
            for q in alg.basis:
                pq = alg.mul_pairs(p, q)
                for r in alg.basis:
                    qr = alg.mul_pairs(q, r)
                    left = alg.mul_pairs(pq, r) if pq is not None else None
                    right = alg.mul_pairs(p, qr) if qr is not None else None
                    assert left == right, (p, q, r)


def test_nilpotency_of_positive_ideal(suite):
    for _, space in suite:
        alg = DistanceAlgebra(space)
        assert radical_power_is_zero(alg, len(space))


def test_nilpotency_is_sharp_on_x2():
    alg = DistanceAlgebra(x2())
    assert not radical_power_is_zero(alg, 1)
    assert radical_power_is_zero(alg, 2)


def test_radical_power_zero_is_the_whole_algebra():
    # A_+^0 = A, which is nonzero on every nonempty space
    assert not radical_power_is_zero(DistanceAlgebra(c3()), 0)
    one_point = DistanceAlgebra(validate_space(["a"], [[0]]))
    assert not radical_power_is_zero(one_point, 0)
    assert radical_power_is_zero(one_point, 1)
    assert radical_power_is_zero(DistanceAlgebra(validate_space([], [])), 0)
    with pytest.raises(ValueError):
        radical_power_is_zero(DistanceAlgebra(c3()), -1)


def test_idempotent_of_an_int_label():
    # labels that are ints are still labels, never point indices
    alg = DistanceAlgebra(validate_space([1, 0], [[0, 1], [2, 0]]))
    assert alg.e(0) == {(1, 1): 1}
    assert alg.e(1) == {(0, 0): 1}
    assert algebra_multiply(alg, alg.e(1), {alg.pair_of_labels(1, 0): 1}) == {(0, 1): 1}


# the grade-zero quotient A / A_+ that Tor and Ext resolve is the trivial module


def test_quotient_dims():
    S = trivial_module(c3(), 0, 1)
    assert S.total_rank(Fraction(0)) == 3
    assert S.total_rank(Fraction(1)) == 0 and S.total_rank(Fraction(1, 2)) == 0


def test_quotient_action_rules():
    space = c3()
    S = trivial_module(space, 0, 1)
    # no stored action: e_x acts as the identity on its own piece, every
    # positive-degree pair as zero
    assert S.actions == {}
    a, b = space.idx("a"), space.idx("b")
    assert S.action_matrix(a, a, Fraction(0)) == ((1,),)
    assert S.action_matrix(a, b, Fraction(0)) == ()  # M(b) is zero in grade 1


def test_quotient_as_distance_module():
    space = k2()
    S = trivial_module(space, 0, 1)
    assert S.total_rank(Fraction(0)) == 2 and S.validated
    assert validate_module(space, S) == []
