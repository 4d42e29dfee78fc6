import random
from fractions import Fraction

import pytest

from maghom.errors import InvalidField, NotAComplex
from maghom.linalg import (
    QQ,
    FieldColumnSpan,
    HomologySummary,
    PrimeField,
    SparseMatrix,
    homology_at,
    integer_kernel_basis,
    kernel_basis_over_field,
    rank_over_field,
    snf,
    solve_in_span,
    xgcd,
)

from oracles import dense_kernel_rref, dense_rank_qq, dense_rref, dense_snf, dense_solve


def M(rows, **kw):
    return SparseMatrix.from_dense(rows, **kw)


def test_xgcd():
    for a, b in [(12, 18), (-4, 6), (0, 5), (7, 0), (0, 0), (270, -192)]:
        g, x, y = xgcd(a, b)
        assert x * a + y * b == g
        assert g >= 0


def test_snf_identity():
    assert snf(SparseMatrix.identity(2)) == [1, 1]


def test_snf_textbook_example():
    # oracle: dense elimination; |det| = 2*4 = 8, gcd of entries = 2
    mat = [[2, 4], [6, 8]]
    assert dense_snf(mat) == [2, 4]
    assert snf(M(mat)) == [2, 4]


def test_snf_zero_matrix():
    assert snf(SparseMatrix(3, 2)) == []


def test_snf_divisibility_chain():
    rng = random.Random(11)
    for _ in range(30):
        rows = [[rng.randrange(-6, 7) for _ in range(4)] for _ in range(4)]
        factors = snf(M(rows))
        assert factors == dense_snf(rows)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0


def _random_unimodular(n, rng):
    # product of elementary matrices: determinant 1
    out = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randrange(-2, 3)
        for k in range(n):
            out[i][k] += q * out[j][k]
    return out


def test_snf_invariant_under_unimodular_multiplication():
    rng = random.Random(5)
    for _ in range(20):
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        rows = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(m)]
        base = snf(M(rows))
        U = _random_unimodular(m, rng)
        V = _random_unimodular(n, rng)
        product = M(U).matmul(M(rows)).matmul(M(V))
        assert snf(product) == base


def test_rank_examples():
    assert rank_over_field(SparseMatrix.identity(3), QQ) == 3
    assert rank_over_field(M([[2]]), PrimeField(2)) == 0
    assert rank_over_field(M([[2, 4], [6, 8]]), QQ) == 2


def test_rank_rejects_non_field():
    with pytest.raises(InvalidField):
        rank_over_field(SparseMatrix.identity(1), "Z")
    with pytest.raises(InvalidField):
        PrimeField(6)


def test_rank_matches_snf_count():
    rng = random.Random(7)
    for _ in range(25):
        m, n = rng.randrange(1, 6), rng.randrange(1, 6)
        rows = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(m)]
        mat = M(rows)
        assert rank_over_field(mat, QQ) == len(snf(mat)) == dense_rank_qq(rows)
        for p in (2, 3, 5):
            assert rank_over_field(mat, PrimeField(p)) == len(dense_rref(rows, p)[1])


def test_homology_at_free():
    h = homology_at(SparseMatrix(0, 2), SparseMatrix(2, 0), 2, n=0)
    assert h.betti == 2 and h.torsion == ()


def test_homology_at_torsion():
    h = homology_at(SparseMatrix(0, 1), M([[2]]), 1, n=0)
    assert h.betti == 0 and h.torsion == (2,)


def test_homology_at_k2_chain_boundaries():
    # boundaries handed over from the chain module at the alternating grade
    from maghom.chain import magnitude_complex
    from maghom.instances import k2

    cx = magnitude_complex(k2(), 2, 2)
    h = homology_at(cx.boundary(2), cx.boundary(3), cx.dim(2), n=2)
    assert h.betti == 2 and h.torsion == ()


def test_homology_at_rejects_non_complex():
    with pytest.raises(NotAComplex):
        homology_at(M([[1]]), M([[1]]), 1)


def test_homology_summary_checks_chain():
    with pytest.raises(ValueError):
        HomologySummary(n=0, grade=Fraction(0), betti=0, torsion=(4, 6))


def test_integer_kernel_basis():
    rng = random.Random(13)
    for trial in range(60):
        m, n = rng.randrange(1, 5), rng.randrange(1, 6)
        density = (1.0, 0.5, 0.25)[trial % 3]
        rows = [
            [rng.randrange(-4, 5) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(m)
        ]
        if trial % 4 == 0:
            zero_col = rng.randrange(n)
            for row in rows:
                row[zero_col] = 0
        mat = M(rows)
        basis = integer_kernel_basis(mat)
        for vec in basis:
            assert all(
                sum(rows[i][j] * vec[j] for j in range(n)) == 0 for i in range(m)
            )
        assert len(basis) == n - dense_rank_qq(rows)
        # saturated: the basis spans the whole kernel lattice, not a sublattice
        if basis:
            assert dense_snf(basis) == [1] * len(basis)


def test_kernel_basis_over_field_and_span():
    mat = M([[1, 1, 0], [0, 0, 0]])
    basis = kernel_basis_over_field(mat, QQ)
    assert basis == [[1, -1, 0], [0, 0, 1]]
    span = FieldColumnSpan(3, QQ)
    for v in basis:
        assert span.add(v)
    assert span.contains([Fraction(-1), Fraction(1), Fraction(5)])
    assert not span.contains([1, 0, 0])


def test_kernel_over_prime_field():
    mat = M([[2, 1], [0, 0]])
    assert len(kernel_basis_over_field(mat, PrimeField(2))) == 1
    assert len(kernel_basis_over_field(mat, QQ)) == 1


def test_kernel_is_the_reduced_echelon_basis():
    # not just some basis: the unique one whose vectors start with 1 and
    # vanish at every other vector's leading position
    rng = random.Random(19)
    for fld, p in ((QQ, None), (PrimeField(3), 3)):
        for _ in range(40):
            m, n = rng.randrange(1, 5), rng.randrange(1, 7)
            rows = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(m)]
            assert kernel_basis_over_field(M(rows), fld) == dense_kernel_rref(rows, n, p)


def test_span_keeps_reduced_echelon_form():
    rng = random.Random(23)
    for fld in (QQ, PrimeField(3)):
        span = FieldColumnSpan(6, fld)
        for _ in range(8):
            span.add([rng.randrange(-2, 3) for _ in range(6)])
            for piv, vec in span.pivots.items():
                assert min(vec) == piv and vec[piv] == 1
                assert all(vec.get(q, 0) == 0 for q in span.pivots if q != piv)


def test_solve_in_span():
    cols = [[1, 0, 1], [0, 1, 1]]
    sol = solve_in_span(cols, [2, 3, 5], QQ)
    assert sol == [Fraction(2), Fraction(3)]
    assert solve_in_span(cols, [1, 0, 0], QQ) is None
    # a duplicated column and a dependent one get coefficient 0
    cols = [[1, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 2]]
    assert solve_in_span(cols, [2, 3, 5], QQ) == [2, 0, 3, 0]


def test_solve_in_span_matches_gauss_jordan():
    rng = random.Random(29)
    for fld, p in ((QQ, None), (PrimeField(3), 3)):
        for _ in range(40):
            m = rng.randrange(1, 6)
            base = [[rng.randrange(-3, 4) for _ in range(m)] for _ in range(rng.randrange(1, 4))]
            extra = [list(rng.choice(base)), [a - 2 * b for a, b in zip(base[0], rng.choice(base))]]
            cols = base + extra
            rng.shuffle(cols)
            weights = [rng.randrange(-2, 3) for _ in cols]
            inside = [sum(w * c[i] for w, c in zip(weights, cols)) for i in range(m)]
            outside = [rng.randrange(-3, 4) for _ in range(m)]
            for target in (inside, outside):
                expected = dense_solve(cols, target, p)
                assert solve_in_span(cols, target, fld) == expected
            assert dense_solve(cols, inside, p) is not None


def test_block_helpers():
    a = M([[1]])
    b = M([[2, 0], [0, 3]])
    d = SparseMatrix.block_diag([a, b])
    assert d.rows == 3 and d.cols == 3 and d[(2, 2)] == 3
    h = SparseMatrix.hstack([M([[1], [0]]), M([[0], [5]])])
    assert h.rows == 2 and h.cols == 2 and h[(1, 1)] == 5


def test_matmul_and_transpose():
    a = M([[1, 2], [3, 4]])
    b = M([[0, 1], [1, 0]])
    assert a.matmul(b).to_dense() == [[2, 1], [4, 3]]
    assert a.transpose().to_dense() == [[1, 3], [2, 4]]
    assert M([[4, 2]]).reduce_mod(2).to_dense() == [[0, 0]]


def test_coefficient_growth_is_exact():
    # Hilbert-ish matrix scaled to integers: elimination must stay exact
    n = 6
    rows = [[(i + j + 1) for j in range(n)] for i in range(n)]
    rows[0][0] = 10**12 + 1
    mat = M(rows)
    assert rank_over_field(mat, QQ) == dense_rank_qq(rows)
    assert snf(mat) == dense_snf(rows)
