import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maghom.chain import magnitude_complex
from maghom.errors import InvalidField, NotAComplex
from maghom.gen import random_digraph
from maghom.linalg import (
    QQ,
    FieldColumnSpan,
    HomologySummary,
    PrimeField,
    SparseMatrix,
    _components,
    _diagonalize,
    _lines,
    homology_at,
    integer_kernel_basis,
    kernel_basis_over_field,
    rank_over_field,
    snf,
    solve_in_span,
    xgcd,
)
from maghom.space import digraph_to_space

from oracles import (
    dense_kernel_rref,
    dense_rank_qq,
    dense_rows,
    dense_rref,
    dense_snf,
    dense_solve,
    divisibility_chain_fixpoint,
    reference_diagonalize,
)


def M(rows):
    return SparseMatrix.from_dense(rows)


def sparse(vec):
    """A dense oracle vector as the {index: value} dict the field routines
    return, zeros dropped; None stays None."""
    return None if vec is None else {i: x for i, x in enumerate(vec) if x}


def sparse_kernel(rows, n, p=None):
    return [sparse(v) for v in dense_kernel_rref(rows, n, p)]


def test_xgcd():
    for a, b in [(12, 18), (-4, 6), (0, 5), (7, 0), (0, 0), (270, -192)]:
        g, x, y = xgcd(a, b)
        assert x * a + y * b == g
        assert g >= 0


def test_snf_identity():
    assert snf(M([[1, 0], [0, 1]])) == [1, 1]


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


def test_snf_one_pass_matches_the_fixpoint_loop():
    # snf of a diagonal matrix fixes up its entries, in order, into the chain;
    # pivot lists share primes so that most of them need merging
    rng = random.Random(13)
    for _ in range(20000):
        k = rng.randrange(0, 8)
        pivots = [
            rng.choice((1, -1))
            * rng.choice((1, 2, 3, 5, 7))
            * 2 ** rng.randrange(4)
            * 3 ** rng.randrange(3)
            for _ in range(k)
        ]
        mat = SparseMatrix(k, k)
        for i, d in enumerate(pivots):
            mat.add_at(i, i, d)
        assert snf(mat) == divisibility_chain_fixpoint([abs(d) for d in pivots])


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
    assert rank_over_field(M([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), QQ) == 3
    assert rank_over_field(M([[2]]), PrimeField(2)) == 0
    assert rank_over_field(M([[2, 4], [6, 8]]), QQ) == 2


def test_rank_rejects_non_field():
    with pytest.raises(InvalidField):
        rank_over_field(M([[1]]), "Z")
    with pytest.raises(InvalidField):
        PrimeField(6)


def test_prime_field_decides_primality_exactly_below_2_64():
    # 561 is a Carmichael number: it passes the Fermat test to every base prime to it
    for composite in (0, 1, 561, 10**18 + 1, (2**31 - 1) * (2**31 + 11)):
        with pytest.raises(InvalidField):
            PrimeField(composite)
    for prime in (2, 37, 41, 2**61 - 1, 10**18 + 3, 2**64 - 59):
        assert PrimeField(prime).p == prime
    with pytest.raises(InvalidField):
        PrimeField(2**64 + 13)


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


def test_clearing_needs_unit_pivots_when_chosen():
    # the pivot 2 ends at 1 only through a gcd step; dropping row 0 of
    # d_(n+1) would turn its Smith form [1] into [2]
    d_n, d_np1 = M([[2, 3]]), M([[-3], [2]])
    h = homology_at(d_n, d_np1, 2)
    assert (h.betti, h.torsion) == (0, ())
    assert d_n._pivots == (1,) and d_n._cleared == ()
    assert snf(d_np1) == [1]
    assert snf(M([[2]])) == [2]


def test_only_unit_pivot_blocks_are_cleared():
    # block one (columns 0, 1) is eliminated through a unit pivot; block two
    # (columns 2, 3) first picks the pivot 2
    rows = [[1, 1, 0, 0], [0, 0, 2, 3]]
    cleared = []
    assert _diagonalize(M(rows), cleared=cleared) == ([1, 1], [0, 2])
    assert cleared == [0]
    # a unit pivot followed by the pivot 2 in one block clears nothing
    cleared = []
    assert _diagonalize(M([[1, 1], [1, 3]]), cleared=cleared) == ([1, 2], [0, 1])
    assert cleared == []
    # row 0 of d_(n+1) is dropped; the kernel (-1, 1, 0, 0), (0, 0, 3, -2) is
    # hit twice and three times: Z/2 + Z/3 = Z/6
    d_n = M(rows)
    d_np1 = M([[-2, 0], [2, 0], [0, 9], [0, -6]])
    h = homology_at(d_n, d_np1, 4)
    assert d_n._cleared == (0,)
    assert (h.betti, h.torsion) == (0, (6,))
    assert snf(d_np1) == snf(M(dense_rows(d_np1))) == [1, 6]


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


def _shuffled(blocks, rng, spare_rows=0, spare_cols=0):
    """Dense rows of the block-diagonal matrix of the blocks plus zero lines,
    rows and columns shuffled."""
    width = sum(len(b[0]) for b in blocks)
    diag, c0 = [], 0
    for b in blocks:
        diag += [[0] * c0 + row + [0] * (width - c0 - len(row)) for row in b]
        c0 += len(b[0])
    n = len(diag[0]) + spare_cols if diag else spare_cols
    dense = [row + [0] * spare_cols for row in diag] + [[0] * n for _ in range(spare_rows)]
    perm = list(range(n))
    rng.shuffle(perm)
    dense = [[row[j] for j in perm] for row in dense]
    rng.shuffle(dense)
    return dense


def _random_blocks(rng, side=3):
    blocks = []
    for _ in range(rng.randrange(1, 7)):
        m, n = rng.randrange(1, side + 1), rng.randrange(1, side + 1)
        density = rng.choice((1.0, 0.7, 0.4))
        blocks.append(
            [
                [rng.randrange(-6, 7) if rng.random() < density else 0 for _ in range(n)]
                for _ in range(m)
            ]
        )
    return blocks


def test_block_diagonal_matrices_match_dense_oracles():
    rng = random.Random(31)
    for _ in range(120):
        rows = _shuffled(_random_blocks(rng), rng, rng.randrange(3), rng.randrange(3))
        n = len(rows[0])
        mat = M(rows)
        factors = snf(mat)
        assert factors == dense_snf(rows)
        assert rank_over_field(mat, QQ) == dense_rank_qq(rows) == len(factors)
        for p in (2, 3):
            assert rank_over_field(mat, PrimeField(p)) == len(dense_rref(rows, p)[1])
        basis = integer_kernel_basis(mat)
        for vec in basis:
            assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows)
        assert len(basis) == n - len(factors)
        if basis:
            assert dense_snf(basis) == [1] * len(basis)


def _blocks(matrix):
    """The entries of each block of the component walk, in the matrix's order."""
    return [
        [(key, v) for key, v in matrix.entries.items() if key[0] in rows]
        for rows in map(set, _components(*_lines(matrix)))
    ]


def test_blocks_are_the_connected_components():
    rows = _shuffled([[[1]], [[2]], [[4]], [[6]]], random.Random(37), 2, 1)
    blocks = _blocks(M(rows))
    assert sorted(len(b) for b in blocks) == [1, 1, 1, 1]
    chain = M([[1, 1, 0], [0, 1, 1], [0, 0, 0], [5, 0, 0]])
    assert [[key for key, _ in b] for b in _blocks(chain)] == [
        [(0, 0), (0, 1), (1, 1), (1, 2), (3, 0)]
    ]
    # a block keeps its rows in the order they first appear, not in walk order
    mat = SparseMatrix(3, 2, {(2, 0): 1, (0, 1): 1, (1, 0): 1, (0, 0): 1})
    assert _components(*_lines(mat)) == [[2, 0, 1]]


def test_torsion_merges_across_blocks():
    rng = random.Random(41)
    # Z/2 + Z/3 in two blocks is the single factor 6
    assert snf(M(_shuffled([[[2]], [[3]]], rng, 1, 2))) == [1, 6]
    assert snf(M(_shuffled([[[1]], [[2]], [[4]], [[6]]], rng, 2, 0))) == [1, 2, 2, 12]
    # many unit pivots, some in non-diagonal unimodular blocks, beside one torsion block
    units = [[[1]]] * 12 + [[[1, 1], [0, 1]]] * 4 + [[[2, 1], [1, 1]]] * 3
    rows = _shuffled(units + [[[2, 4], [6, 8]]], rng, 3, 3)
    assert snf(M(rows)) == [1] * 26 + [2, 4] == dense_snf(rows)


def _assert_reference_pivots(mat):
    """Equal pivot values, pivot columns and tracked Q to the reference."""
    q, q_ref = ([{j: 1} for j in range(mat.cols)] for _ in range(2))
    assert _diagonalize(mat, q) == reference_diagonalize(mat, q_ref)
    assert q == q_ref


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32))
def test_pivots_match_reference_elimination(seed):
    """Shuffled blocks with zero lines, entered in a shuffled order, so rows
    first appear out of index order."""
    rng = random.Random(seed)
    rows = _shuffled(_random_blocks(rng, 6), rng, rng.randrange(3), rng.randrange(3))
    _assert_reference_pivots(_shuffled_entries(rows, rng))


def test_pivots_match_reference_on_boundary_maps():
    space = digraph_to_space(random_digraph(8, 1, 0.35))
    maps = [d for g in range(5) for d in magnitude_complex(space, g, 4).maps if d.nnz()]
    assert sum(d.nnz() for d in maps) > 1000
    for d in maps:
        _assert_reference_pivots(d)


def _peelable(rng):
    """Dense rows of a small core with single lines forced onto it: columns
    and then rows holding one entry, a unit or +-2 or 3, plus zero lines,
    rows and columns shuffled."""
    values = (1, -1, 1, -1, 2, -2, 3)
    m, n = rng.randrange(1, 5), rng.randrange(1, 5)
    dense = [[rng.choice(values) if rng.random() < 0.4 else 0 for _ in range(n)] for _ in range(m)]
    for _ in range(rng.randrange(4)):
        r = rng.randrange(m)
        for i, row in enumerate(dense):
            row.append(rng.choice(values) if i == r else 0)
    for _ in range(rng.randrange(4)):
        row = [0] * len(dense[0])
        row[rng.randrange(len(row))] = rng.choice(values)
        dense.append(row)
    return _shuffled([dense], rng, rng.randrange(3), rng.randrange(3))


def _shuffled_entries(rows, rng):
    items = list(M(rows).entries.items())
    rng.shuffle(items)
    return SparseMatrix(len(rows), len(rows[0]), dict(items))


def _integral_kernel(rows, n):
    """Integer multiples of a QQ kernel basis, from the dense oracle."""
    basis = []
    for vec in dense_kernel_rref(rows, n):
        den = lcm(*(Fraction(x).denominator for x in vec))
        basis.append([int(x * den) for x in vec])
    return basis


def _assert_homology_like_dense(d_n, d_np1):
    rows_n, rows_np1 = dense_rows(d_n), dense_rows(d_np1)
    h = homology_at(d_n, d_np1, d_n.cols)
    factors = dense_snf(rows_np1)
    assert h.betti == d_n.cols - len(dense_snf(rows_n)) - len(factors)
    assert h.torsion == tuple(d for d in factors if d > 1)
    return h


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32))
def test_peeled_elimination_matches_dense_oracles(seed):
    """Forced single lines, units and not, are peeled or left to the block
    search; d_(n+1) is an integer combination of d_n's kernel, with one
    column scaled for torsion, and is eliminated cleared by d_n."""
    rng = random.Random(seed)
    rows = _peelable(rng)
    n = len(rows[0])
    mat = _shuffled_entries(rows, rng)
    assert snf(mat) == dense_snf(rows)
    _assert_reference_pivots(mat)
    basis = integer_kernel_basis(mat)
    for vec in basis:
        assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows)
    assert len(basis) == n - dense_rank_qq(rows)
    kernel = _integral_kernel(rows, n)
    if not kernel:
        return
    width = rng.randrange(1, 4)
    mix = [[rng.choice((0, 1, -1, 2)) for _ in range(width)] for _ in kernel]
    mix[rng.randrange(len(kernel))][rng.randrange(width)] = rng.choice((2, 3, 6))
    rows_np1 = [
        [sum(vec[i] * mix[k][j] for k, vec in enumerate(kernel)) for j in range(width)]
        for i in range(n)
    ]
    _assert_homology_like_dense(_shuffled_entries(rows, rng), _shuffled_entries(rows_np1, rng))


def test_peeled_pivots_clear_beside_torsion():
    # a unit alone in its column (first pair) or alone in its row (second)
    # shares a block with the pivot 2: its column is cleared, the block's
    # is not, and H_n is Z/2 or Z/3
    pairs = [
        ([[1, 1, 0], [0, 2, 2]], [[2], [-2], [2]], (2,)),
        ([[1, 0, 0], [1, 2, 2]], [[0], [3], [-3]], (3,)),
    ]
    for rows, rows_np1, torsion in pairs:
        d_n = M(rows)
        assert len(_components(*_lines(d_n))) == 1
        h = _assert_homology_like_dense(d_n, M(rows_np1))
        assert d_n._pivots == (1, 2) and d_n._cleared == (0,)
        assert (h.betti, h.torsion) == (0, torsion)


@st.composite
def int_block_matrices(draw):
    """Dense rows of a shuffled block-diagonal int matrix with small entries;
    zero rows and columns come from sparse blocks and spare lines."""
    entry = st.one_of(st.just(0), st.integers(-4, 4))
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        blocks.append([draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)])
    rng = random.Random(draw(st.integers(0, 2**16)))
    return _shuffled(blocks, rng, draw(st.integers(0, 2)), draw(st.integers(0, 2)))


def _mod(v, p):
    """The value of an int or a Fraction in GF(p)."""
    v = Fraction(v)
    return v.numerator * pow(v.denominator, -1, p) % p


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows=int_block_matrices())
def test_rational_rank_matches_dense_elimination(rows):
    mat = M(rows)
    assert rank_over_field(mat, QQ) == dense_rank_qq(rows) == len(snf(mat))
    for p in (2, 3, 5):
        reduced = [[v % p for v in row] for row in rows]
        assert rank_over_field(mat, PrimeField(p)) == len(dense_rref(reduced, p)[1])


def test_prime_rank_counts_the_pivots_p_does_not_divide():
    # (rows, {p: rank over GF(p)}): [[2, 3]] has the pivot gcd(2, 3) = 1,
    # diag(4, 9) and [[2, 4], [6, 8]] (Smith form diag(2, 4)) prime powers
    cases = [
        ([[2, 3]], {2: 1, 3: 1, 5: 1}),
        ([[4, 0], [0, 9]], {2: 1, 3: 1, 5: 2}),
        ([[2, 4], [6, 8]], {2: 0, 3: 2, 5: 2}),
    ]
    for rows, ranks in cases:
        for p, rank in ranks.items():
            assert rank_over_field(M(rows), PrimeField(p)) == rank
            assert len(dense_rref(rows, p)[1]) == rank


def test_prime_ranks_of_boundary_maps_match_dense_elimination():
    space = digraph_to_space(random_digraph(8, 1, 0.35))
    maps = [d for g in range(5) for d in magnitude_complex(space, g, 4).maps if d.nnz()]
    for d in maps:
        rows = dense_rows(d)
        for p in (2, 3):
            assert rank_over_field(d, PrimeField(p)) == len(dense_rref(rows, p)[1])


def test_prime_field_reduces_fractions():
    F = Fraction
    gf3 = PrimeField(3)
    assert [gf3.of(v) for v in (F(1, 2), F(-1, 2), F(5, 4), F(6, 5), F(4, 2))] == [2, 1, 2, 0, 2]
    # 1/2 is 2 in GF(3), so the rows [2, 1] and [1, 2] are dependent
    mat = M([[F(1, 2), 1], [1, 2]])
    assert kernel_basis_over_field(mat, gf3) == [{0: 1, 1: 1}]
    with pytest.raises(InvalidField, match="GF\\(3\\)"):
        gf3.of(F(1, 3))

    rng = random.Random(43)
    for _ in range(40):
        m, n = rng.randrange(1, 5), rng.randrange(1, 6)
        rows = [
            [F(rng.randrange(-4, 5), rng.choice((1, 2, 4, 5))) for _ in range(n)]
            for _ in range(m)
        ]
        reduced = [[_mod(v, 3) for v in row] for row in rows]
        mat = M(rows)
        assert kernel_basis_over_field(mat, gf3) == sparse_kernel(reduced, n, 3)
        cols = [list(c) for c in zip(*rows)]
        target = [F(rng.randrange(-3, 4), rng.choice((1, 2))) for _ in range(m)]
        expected = dense_solve([list(c) for c in zip(*reduced)], [_mod(t, 3) for t in target], 3)
        assert solve_in_span(cols, [target], gf3) == [sparse(expected)]


def test_add_at_drops_the_pivot_memo():
    # diag(2, 3) has Smith form diag(1, 6); 1 more at (1, 1) makes it diag(2, 4)
    gf2 = PrimeField(2)
    for first, before in ((snf, [1, 6]), (lambda m: rank_over_field(m, gf2), 1)):
        mat = M([[2, 0], [0, 3]])
        assert first(mat) == before
        mat.add_at(1, 1, 1)
        assert snf(mat) == [2, 4]
        assert rank_over_field(mat, gf2) == 0
        assert rank_over_field(mat, QQ) == 2


def test_snf_result_is_the_callers_own():
    for mat, factors in ((M([[2, 0], [0, 3]]), [1, 6]), (M([[1, 0], [0, 1]]), [1, 1])):
        got = snf(mat)
        got[0] = 7
        got.append(5)
        assert snf(mat) == factors
        assert rank_over_field(mat, QQ) == 2


FIELDS = (QQ, PrimeField(2), PrimeField(3))


def _fresh(d):
    return SparseMatrix(d.rows, d.cols, d.entries)


def _assert_like_fresh_copies(cx, homology):
    """Run homology(n) for every degree in ascending order, so each boundary
    is eliminated cleared by the one before it; then each summary, and each
    boundary's Smith form and ranks read from its memo, must equal those of
    never-eliminated copies.  Returns the entries clearing kept out of the
    eliminations and the torsion factors seen."""
    summaries = [homology(n) for n in range(cx.n_max + 1)]
    kept_out = torsion = 0
    for n, h in enumerate(summaries):
        d_n, d_np1 = cx.boundary(n), cx.boundary(n + 1)
        factors = snf(_fresh(d_np1))
        assert h.betti == cx.dim(n) - rank_over_field(_fresh(d_n), QQ) - len(factors)
        assert h.torsion == tuple(d for d in factors if d > 1)
        drop = set(d_n._cleared)
        kept_out += sum(1 for r, _ in d_np1.entries if r in drop)
        torsion += len(h.torsion)
    for d in cx.maps:
        assert d._pivots is not None
        assert snf(d) == snf(_fresh(d))
        for fld in FIELDS:
            assert rank_over_field(d, fld) == rank_over_field(_fresh(d), fld), fld
    return kept_out, torsion


def test_memoized_boundaries_match_fresh_copies():
    # the benchmark's mh instances, at smaller degrees and grades
    from maghom.instances import directed_cycle

    graphs = [
        random_digraph(12, 1, 0.25),
        random_digraph(10, 7, 0.25),
        random_digraph(8, 1, 0.35),
        directed_cycle(8),
    ]
    kept_out = 0
    for graph in graphs:
        space = digraph_to_space(graph)
        for g in range(5):
            cx = magnitude_complex(space, g, 4)
            kept_out += _assert_like_fresh_copies(cx, cx.homology)[0]
    assert kept_out > 500


def test_cleared_coefficient_complexes_match_fresh_copies():
    from maghom.chain import magnitude_complex_with_coefficients
    from maghom.gen import random_module

    kept_out = torsion = 0
    for s in range(12):
        space = digraph_to_space(random_digraph(6, s, 0.4))
        module = random_module(space, s)
        for g in range(5):
            cx = magnitude_complex_with_coefficients(space, module, g, 3)
            found = _assert_like_fresh_copies(cx, cx.homology)
            kept_out += found[0]
            torsion += found[1]
    assert kept_out > 300 and torsion == 84


def test_cleared_tor_matches_fresh_copies():
    from maghom.gen import random_module
    from maghom.resolution import _module_complex, bar_resolution, tor_bidegree
    from maghom.space import attainable_grades

    space = digraph_to_space(random_digraph(6, 9, 0.4))
    module = random_module(space, 9)
    res = bar_resolution(space, "left", 5, 5)
    kept_out = torsion = 0
    for g in attainable_grades(space, 5):
        cx = _module_complex(space, module, 0, g, res, "left")
        found = _assert_like_fresh_copies(
            cx, lambda n: tor_bidegree(space, module, n, g, resolution=res)
        )
        assert res._module_complex[2] is cx
        kept_out += found[0]
        torsion += found[1]
    assert kept_out > 0 and torsion > 0

def test_kernel_basis_over_field_and_span():
    mat = M([[1, 1, 0], [0, 0, 0]])
    basis = kernel_basis_over_field(mat, QQ)
    assert basis == [{0: 1, 1: -1}, {2: 1}]
    span = FieldColumnSpan(QQ)
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
            kernel = kernel_basis_over_field(M(rows), fld)
            assert kernel == sparse_kernel(rows, n, p)
            assert all(list(v) == sorted(v) for v in kernel)


def test_span_keeps_reduced_echelon_form():
    rng = random.Random(23)
    for fld in (QQ, PrimeField(3)):
        span = FieldColumnSpan(fld)
        for _ in range(8):
            span.add([rng.randrange(-2, 3) for _ in range(6)])
            for piv, vec in span.pivots.items():
                assert min(vec) == piv and vec[piv] == 1
                assert all(vec.get(q, 0) == 0 for q in span.pivots if q != piv)


def test_solve_in_span():
    cols = [[1, 0, 1], [0, 1, 1]]
    sol, outside = solve_in_span(cols, [[2, 3, 5], [1, 0, 0]], QQ)
    assert sol == {0: Fraction(2), 1: Fraction(3)}
    assert outside is None
    # a duplicated column and a dependent one get coefficient 0
    cols = [[1, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 2]]
    assert solve_in_span(cols, [[2, 3, 5]], QQ) == [{0: 2, 2: 3}]


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
            expected = [dense_solve(cols, t, p) for t in (inside, outside)]
            assert solve_in_span(cols, [inside, outside], fld) == [sparse(e) for e in expected]
            assert expected[0] is not None


def test_solve_in_span_mixed_batch():
    # one batch of solvable, unsolvable and zero targets, dense and as dicts,
    # each checked against its own Gauss-Jordan solve
    rng = random.Random(31)
    outside = 0
    for fld, p in ((QQ, None), (PrimeField(2), 2), (PrimeField(3), 3)):
        for _ in range(30):
            m = rng.randrange(1, 7)
            cols = [[rng.randrange(-2, 3) for _ in range(m)] for _ in range(rng.randrange(1, 5))]
            cols.append([a + b for a, b in zip(cols[0], cols[-1])])
            targets = [[0] * m]
            for _ in range(4):
                weights = [rng.randrange(-2, 3) for _ in cols]
                targets.append([sum(w * c[i] for w, c in zip(weights, cols)) for i in range(m)])
                targets.append([rng.randrange(-3, 4) for _ in range(m)])
            expected = [dense_solve(cols, t, p) for t in targets]
            mixed = [
                t if k % 2 else {i: x for i, x in enumerate(t) if x} for k, t in enumerate(targets)
            ]
            assert solve_in_span(cols, mixed, fld) == [sparse(e) for e in expected]
            assert expected[0] == [0] * len(cols)
            outside += expected.count(None)
    assert outside > 0
    assert solve_in_span([[1, 0], [0, 1]], [], QQ) == []


def test_matmul_and_transpose():
    a = M([[1, 2], [3, 4]])
    b = M([[0, 1], [1, 0]])
    assert dense_rows(a.matmul(b)) == [[2, 1], [4, 3]]
    assert dense_rows(a.transpose()) == [[1, 3], [2, 4]]


def _with_entry(rows, cols, bad):
    """A matrix holding bad at (0, 0) and 3 in its last corner, written into
    entries directly: add_at would turn 0 + True into the int 1."""
    mat = SparseMatrix(rows, cols)
    mat.entries = {(0, 0): bad, (rows - 1, cols - 1): 3}
    return mat


# Fraction(2) equals 2 but is still not an int
@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(2), True], ids=["half", "two", "true"])
def test_integer_elimination_refuses_non_int_entries(bad):
    reads = (
        snf,
        integer_kernel_basis,
        lambda m: rank_over_field(m, QQ),
        lambda m: rank_over_field(m, PrimeField(2)),
        lambda m: rank_over_field(m, PrimeField(3)),
    )
    for read in reads:
        with pytest.raises(TypeError, match="not an int"):
            read(_with_entry(2, 2, bad))
    # in d_n, and in d_(n+1) with nothing cleared before it
    with pytest.raises(TypeError, match="not an int"):
        homology_at(_with_entry(1, 2, bad), SparseMatrix(2, 0), 2)
    with pytest.raises(TypeError, match="not an int"):
        homology_at(SparseMatrix(0, 2), _with_entry(2, 1, bad), 2)


def test_coefficient_growth_is_exact():
    # Hilbert-ish matrix scaled to integers: elimination must stay exact
    n = 6
    rows = [[(i + j + 1) for j in range(n)] for i in range(n)]
    rows[0][0] = 10**12 + 1
    mat = M(rows)
    assert rank_over_field(mat, QQ) == dense_rank_qq(rows)
    assert snf(mat) == dense_snf(rows)
