"""Exact sparse linear algebra: Smith normal form, ranks, kernels, homology.

Everything is arbitrary-precision.  Counts come from the Smith elimination,
bases from the echelon span: one integer elimination on Python ints gives
Smith forms, integer kernels and every rank (over QQ the number of its
pivots, over GF(p) the number that p does not divide), and one field
elimination on Fractions or on ints reduced mod p gives kernels and solves
over either field.  The integer elimination takes int matrices only and
raises TypeError on any other entry; every matrix the package builds is
one, and each field reads it through its own reduction.  It first peels
the unit pivots that need no arithmetic (a +-1 alone in its column or in
its row), then searches the rest block by block.  A matrix keeps its pivot
values once eliminated, so its Smith form and its ranks over every field
share one elimination.  Intermediate coefficient growth during elimination
is expected and harmless.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import InvalidField, NotAComplex


def xgcd(a: int, b: int):
    """Return (g, x, y) with x*a + y*b == g == gcd(a, b) >= 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


class RationalField:
    """The field of exact rationals; elements are Fractions."""

    p = None

    def of(self, n):
        return Fraction(n)

    def inv(self, a):
        return 1 / Fraction(a)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


# Miller-Rabin with these bases decides primality exactly below 2**64.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for a in _WITNESSES:
        if p % a == 0:
            return p == a
    odd, twos = p - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for a in _WITNESSES:
        x = pow(a, odd, p)
        if x in (1, p - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field with p elements, p a prime below 2**64; elements are ints in range(p)."""

    def __init__(self, p: int):
        if p >= 2**64:
            raise InvalidField("prime fields are supported for p < 2**64")
        if not _is_prime(p):
            raise InvalidField(f"{p} is not prime")
        self.p = p

    def of(self, n):
        """n mod p; a Fraction a/b maps to a * b^-1 mod p."""
        p = self.p
        if type(n) is Fraction:
            if n.denominator % p == 0:
                raise InvalidField(f"{n} has no value in GF({p}): {p} divides its denominator")
            return n.numerator * pow(n.denominator, -1, p) % p
        return n % p

    def inv(self, a):
        a = self.of(a)
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()


def check_field(fld):
    if not isinstance(fld, (RationalField, PrimeField)):
        raise InvalidField(f"not a supported field: {fld!r}")
    return fld


class SparseMatrix:
    """Sparse matrix as {(row, col): value}; zero entries are never stored.

    Values are exact scalars.  The integer routines (snf, rank_over_field,
    integer_kernel_basis, homology_at) take int entries only and raise
    TypeError on any other, a bool included; the field routines also read
    Fractions.  The pivot values of the matrix's Smith elimination are kept
    on it once snf() or rank_over_field() has run, so each matrix is
    eliminated once, beside the columns that elimination cleared (see
    `homology_at`); add_at() drops both.  Write `entries` directly only on
    a matrix that nothing has eliminated yet.
    """

    __slots__ = ("rows", "cols", "entries", "_pivots", "_cleared")

    def __init__(self, rows: int, cols: int, entries=None):
        self.rows = rows
        self.cols = cols
        self.entries = {}
        self._pivots = None
        self._cleared = ()
        if entries:
            for (r, c), v in entries.items():
                self.add_at(r, c, v)

    @classmethod
    def from_dense(cls, dense):
        out = cls(len(dense), len(dense[0]) if dense else 0)
        for r, row in enumerate(dense):
            for c, v in enumerate(row):
                out.add_at(r, c, v)
        return out

    def add_at(self, r, c, v):
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"entry ({r},{c}) out of bounds {self.rows}x{self.cols}")
        if v == 0:
            return
        self._pivots = None
        self._cleared = ()
        key = (r, c)
        new = self.entries.get(key, 0) + v
        if new == 0:
            self.entries.pop(key, None)
        else:
            self.entries[key] = new

    def __getitem__(self, key):
        return self.entries.get(key, 0)

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"

    def nnz(self):
        return len(self.entries)

    def is_zero(self):
        return not self.entries

    def transpose(self):
        out = SparseMatrix(self.cols, self.rows)
        out.entries = {(c, r): v for (r, c), v in self.entries.items()}
        return out

    def matmul(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        by_row = {}
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v))
        acc = {}
        for (r, k), v in self.entries.items():
            for c, w in by_row.get(k, ()):
                key = (r, c)
                acc[key] = acc.get(key, 0) + v * w
        out = SparseMatrix(self.rows, other.cols)
        out.entries = {k: v for k, v in acc.items() if v != 0}
        return out


def _set(major, minor, i, j, v):
    """major[i][j] = v, mirrored as minor[j][i]; a zero is dropped from both."""
    if v:
        major[i][j] = v
        minor[j][i] = v
    else:
        major[i].pop(j, None)
        minor[j].pop(i, None)


def _combine(v0, v1, x, y, u, w):
    """The pair (x*v0 + y*v1, u*v0 + w*v1) of sparse vectors, zeros dropped."""
    out0, out1 = {}, {}
    for k in v0.keys() | v1.keys():
        a, b = v0.get(k, 0), v1.get(k, 0)
        if s := x * a + y * b:
            out0[k] = s
        if t := u * a + w * b:
            out1[k] = t
    return out0, out1


def _clear(major, minor, i0, j0, track=None):
    """Zero line j0 of minor outside i0 by unimodular operations on major's lines.

    On (rows, cols) these are row operations clearing column j0 around the
    pivot (i0, j0); on (cols, rows) they are column operations clearing row
    j0.  track, when given, holds one sparse vector per line of major and
    receives every operation too.
    """
    for i in [i for i in minor[j0] if i != i0]:
        a = major[i0][j0]
        b = major[i][j0]
        line0, line = major[i0], major[i]
        if b % a == 0:
            q = b // a
            for j, v in line0.items():
                _set(major, minor, i, j, line.get(j, 0) - q * v)
            if track is not None:
                _axpy(track[i], q, track[i0], None)
        else:
            # gcd lands at (i0, j0), 0 at (i, j0)
            g, x, y = xgcd(a, b)
            u, w = -(b // g), a // g
            for j in set(line0) | set(line):
                aa = line0.get(j, 0)
                bb = line.get(j, 0)
                _set(major, minor, i0, j, x * aa + y * bb)
                _set(major, minor, i, j, u * aa + w * bb)
            if track is not None:
                track[i0], track[i] = _combine(track[i0], track[i], x, y, u, w)


def _pick_pivot(block, rows, cols):
    """Smallest |entry| first, then least fill-in, then position (determinism).

    The search runs over the rows of one block, in order, and skips the rows
    that are gone or empty; the first unit entry with no fill-in ends it.
    None when the block has no entry left.
    """
    best = None
    best_key = None
    for r in block:
        row = rows.get(r)
        if not row:
            continue
        rfill = len(row) - 1
        for c, v in row.items():
            size = abs(v)
            if best_key is not None and size > best_key[0]:
                continue
            key = (size, rfill * (len(cols[c]) - 1), r, c)
            if best_key is None or key < best_key:
                best_key = key
                best = (r, c)
                if size == 1 and key[1] == 0:
                    return best
    return best


def _lines(matrix: SparseMatrix):
    """The rows {r: {c: v}} and the columns {c: {r: v}} of a matrix, in entry order.

    Every entry must be an int (a bool is not): the Smith elimination is
    integer arithmetic, and on any other entry it would give a wrong answer
    where it should fail, so it raises TypeError.
    """
    rows, cols = {}, {}
    for (r, c), v in matrix.entries.items():
        if type(v) is not int:
            raise TypeError(f"entry ({r},{c}) of an integer elimination is {v!r}, not an int")
        rows.setdefault(r, {})[c] = v
        cols.setdefault(c, {})[r] = v
    return rows, cols


def _components(rows, cols) -> list[list]:
    """The rows of each connected block, as lists.

    Rows and columns are the nodes of a graph whose edges are the entries.
    A walk from each unseen row, in row order, labels its block; blocks come
    in the order of their first row, and each keeps its rows in the order of
    rows (the order in which they first appear among the entries), not in
    walk order.  Row and column operations inside one block never touch
    another, so each block can be eliminated alone.
    """
    label = {}
    seen_cols = set()
    count = 0
    for start in rows:
        if start in label:
            continue
        label[start] = count
        stack = [start]
        while stack:
            for c in rows[stack.pop()]:
                if c not in seen_cols:
                    seen_cols.add(c)
                    for r in cols[c]:
                        if r not in label:
                            label[r] = count
                            stack.append(r)
        count += 1
    blocks = [[] for _ in range(count)]
    for r in rows:
        blocks[label[r]].append(r)
    return blocks


def _peel(rows, cols, values, pivot_cols, track):
    """Take every +-1 entry alone in its column, then every one alone in its
    row, as a pivot, with no arithmetic.

    A unit alone in its column at (r, c) clears its row by the column
    operations col_j -= (b.v).col_c, which only delete row r (tracked); a
    unit alone in its row clears its column by row operations, which only
    delete column c.  Each pass is a worklist of the lines with one entry,
    in first-appearance order, and a line that a deletion leaves with one
    entry joins its end; a line whose entry is not a unit is passed over.
    The column pass shortens no row it keeps and the row pass no column, so
    after the two passes no unit stands alone in a line.  A row emptied by
    a deletion is dropped.
    """
    work = [c for c, col in cols.items() if len(col) == 1]
    for c in work:
        col = cols[c]
        if not col:
            continue
        ((r, v),) = col.items()
        if v != 1 and v != -1:
            continue
        del cols[c]
        for j, b in rows.pop(r).items():
            if j != c:
                col = cols[j]
                del col[r]
                if track is not None:
                    _axpy(track[j], b * v, track[c], None)
                if len(col) == 1:
                    work.append(j)
        values.append(1)
        pivot_cols.append(c)
    work = [r for r, row in rows.items() if len(row) == 1]
    for r in work:
        row = rows.get(r)
        if row is None:
            continue
        ((c, v),) = row.items()
        if v != 1 and v != -1:
            continue
        del rows[r]
        for i in cols.pop(c):
            if i != r:
                row = rows[i]
                del row[c]
                if not row:
                    del rows[i]
                elif len(row) == 1:
                    work.append(i)
        values.append(1)
        pivot_cols.append(c)


def _diagonalize(matrix: SparseMatrix, track=None, cleared=None):
    """Pivot values and pivot columns of a sparse Smith elimination.

    The matrix is held once as rows and as columns (`_lines`) and eliminated
    in place.  First `_peel` takes the unit pivots that need no arithmetic:
    on boundary maps, which are close to matchings, that is most of them.
    The rest is eliminated one connected block at a time.  Each pivot (min
    |entry|, then min fill-in) is isolated by alternating row and column
    passes and then removed, so unimodular U and Q bring the matrix to a
    diagonal form U.M.Q with |entries| = the pivot values on the pivot
    columns and zero columns elsewhere.  The rows left by the peel keep the
    order in which they first appear among the entries; a block's rows are
    searched in that order, so a block sees the pivots that one elimination
    of the whole peeled matrix would pick in it, in the same order.  An
    emptied line never refills, since every operation combines nonempty
    lines, so the search just skips it.  This is the only integer
    elimination loop; track, when given, is a list of one sparse vector per
    column that receives every column operation, turning a seeded identity
    into Q.

    cleared, when given, is a list that receives every peeled pivot column
    and the pivot columns of every block whose pivots all had |v| = 1 when
    `_pick_pivot` chose them.  A kernel vector is 0 on the column of a unit
    alone in its row, and on the column of a unit alone in its column it is
    an integer combination of the columns still standing at that peel, so
    projecting the kernel away from the peeled columns is an isomorphism
    onto the kernel of the peeled matrix.  A unit block's column operations
    are all col_j -= q.col_c0 with c0 a pivot column, so each kernel vector
    of the block is e_j plus a part on those pivot columns, and projecting
    the kernel away from them is an isomorphism onto a direct summand.  A
    pivot that only ends at 1 does not qualify: [[2, 3]] reaches pivot 1
    through a gcd step that mixes both columns, and its kernel (3, -2) does
    not project onto a summand.
    """
    rows, cols = _lines(matrix)
    values, pivot_cols = [], []
    _peel(rows, cols, values, pivot_cols, track)
    if cleared is not None:
        cleared.extend(pivot_cols)
    for block in _components(rows, cols):
        first, units = len(pivot_cols), True
        while (pivot := _pick_pivot(block, rows, cols)) is not None:
            r0, c0 = pivot
            units = units and abs(rows[r0][c0]) == 1
            while True:
                _clear(rows, cols, r0, c0)
                if len(rows[r0]) == 1:
                    break
                _clear(cols, rows, c0, r0, track)
                if len(cols[c0]) == 1:
                    break
            # the pivot is now alone in its row and its column
            values.append(abs(rows[r0][c0]))
            pivot_cols.append(c0)
            del rows[r0], cols[c0]
        if units and cleared is not None:
            cleared.extend(pivot_cols[first:])
    return values, pivot_cols


def _pivot_values(matrix: SparseMatrix) -> tuple[int, ...]:
    """The pivot values of the matrix's Smith elimination, eliminated once
    and kept on the matrix beside its cleared pivot columns (see
    `_diagonalize`: every peeled pivot and every pivot of a block whose
    pivots were all units)."""
    if matrix._pivots is None:
        cleared = []
        matrix._pivots = tuple(_diagonalize(matrix, cleared=cleared)[0])
        matrix._cleared = tuple(cleared)
    return matrix._pivots


def snf(matrix: SparseMatrix) -> list[int]:
    """Invariant factors d_1 | d_2 | ... | d_r of an integer matrix.

    The pivot values of the diagonalization, fixed up into a divisibility
    chain by one (gcd, lcm) pass over the pairs i < j: for each prime that
    pass is a selection sort of the valuations, so it ends on the unique
    chain.  Unit pivots divide everything, so only the others enter it.
    """
    diag = _pivot_values(matrix)
    units = diag.count(1)
    diag = [d for d in diag if d != 1]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            diag[i], diag[j] = gcd(diag[i], diag[j]), lcm(diag[i], diag[j])
    return [1] * units + diag


def integer_kernel_basis(matrix: SparseMatrix) -> list[list[int]]:
    """Basis of the kernel lattice {v : Mv = 0} of an integer matrix.

    The diagonalization's column transform Q is unimodular and M.Q is zero
    outside the pivot columns, so Q's other columns, in column order, are a
    basis of the kernel lattice.
    """
    n = matrix.cols
    q = [{j: 1} for j in range(n)]
    _, pivot_cols = _diagonalize(matrix, q)
    pivots = set(pivot_cols)
    return [[col.get(i, 0) for i in range(n)] for j, col in enumerate(q) if j not in pivots]


@dataclass(frozen=True)
class HomologySummary:
    """Betti number and torsion invariant factors at one bidegree."""

    n: int
    grade: Fraction
    betti: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError(f"torsion {self.torsion} is not a divisibility chain")

    def is_zero(self):
        return self.betti == 0 and not self.torsion

    def __str__(self):
        tors = ",".join(str(t) for t in self.torsion) if self.torsion else "-"
        return f"H_{self.n} grade {self.grade}: betti {self.betti}, torsion {tors}"


def homology_at(d_n: SparseMatrix, d_np1: SparseMatrix, dim_n: int, n=0, grade=Fraction(0)) -> HomologySummary:
    """H_n = ker d_n / im d_{n+1} of free integer chain groups.

    betti = dim_n - rank d_n - rank d_{n+1}; torsion is read from the Smith
    form of d_{n+1} alone, valid because the chain groups are free on the
    given bases.

    Clearing (the persistence "twist": Chen-Kerber 2011, Bauer-Kerber-
    Reininghaus 2014): the columns of d_n that its elimination cleared
    (see `_diagonalize`) index rows of d_{n+1}, and those rows are dropped
    before d_{n+1} is eliminated.  The image of d_{n+1} lies in ker d_n,
    a direct summand, and projecting ker d_n away from the cleared columns
    is an isomorphism onto a direct summand, so the smaller matrix has the
    same Smith form: the same torsion and the same rank over QQ and every
    GF(p).  Its pivots become the memo of d_{n+1}, and its cleared columns
    clear d_{n+2} in turn, since its kernel is ker d_{n+1}.  A peeled pivot
    column is always cleared, even beside a block that goes on to torsion.
    A pivot of the block search is cleared only when every pivot of its
    block was a unit when chosen: for d_n = [[2, 3]] and d_{n+1} =
    [[-3], [2]] the pivot 2 ends at 1 only through a gcd step, and dropping
    row 0 would turn the Smith form [1] into [2].  The shape and
    d_n.d_{n+1} = 0 checks run on the matrices as given.
    """
    if d_n.cols != dim_n or d_np1.rows != dim_n:
        raise NotAComplex(
            f"shape mismatch: d_n has {d_n.cols} columns, d_(n+1) has {d_np1.rows} rows, dim {dim_n}"
        )
    if not d_n.matmul(d_np1).is_zero():
        raise NotAComplex("d_n . d_(n+1) != 0")
    rank_n = rank_over_field(d_n, QQ)
    if d_np1._pivots is None and d_n._cleared:
        drop = set(d_n._cleared)
        kept = SparseMatrix(d_np1.rows, d_np1.cols)
        kept.entries = {k: v for k, v in d_np1.entries.items() if k[0] not in drop}
        factors = snf(kept)
        d_np1._pivots, d_np1._cleared = kept._pivots, kept._cleared
    else:
        factors = snf(d_np1)
    betti = dim_n - rank_n - len(factors)
    torsion = tuple(d for d in factors if d > 1)
    return HomologySummary(n=n, grade=grade, betti=betti, torsion=torsion)


# ---------------------------------------------------------------------------
# field elimination: one sparse reduced-echelon span


def sparse_columns(matrix: SparseMatrix, fld) -> list[dict]:
    """Columns of a matrix as {row: value} dicts over a field, in one pass."""
    cols = [{} for _ in range(matrix.cols)]
    for (r, c), v in matrix.entries.items():
        v = fld.of(v)
        if v:
            cols[c][r] = v
    return cols


def _sparse(vec, fld) -> dict:
    """A fresh {row: value} dict of a dense sequence or a dict, zeros dropped."""
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    return {i: y for i, x in items if x and (y := fld.of(x))}


def _axpy(v, f, w, p):
    """v -= f * w in place, reduced mod p when p is set; zeros are dropped."""
    for r, x in w.items():
        y = v.get(r, 0) - f * x
        if p:
            y %= p
        if y:
            v[r] = y
        else:
            del v[r]


def _scale(v, c, p):
    for r, x in v.items():
        v[r] = x * c % p if p else x * c


class FieldColumnSpan:
    """Span of column vectors over a field, kept in sparse reduced echelon form.

    Each stored vector is a {row: value} dict whose pivot is its first
    nonzero row; it holds 1 at its pivot and 0 at every other pivot row.
    A client that needs coordinates passes each inserted vector's own
    {key: coefficient} to `_insert` (every insertion or none); each stored
    vector then carries its coordinates in the inserted vectors.  This is
    the only field elimination loop, and it serves only the jobs that need
    a basis: kernels, solves and the ring's class spans.  Ranks are counts,
    and counts come from the Smith elimination (`rank_over_field`).
    """

    def __init__(self, fld):
        self.fld = check_field(fld)
        self.pivots = {}  # pivot row -> reduced vector
        self.coords = {}  # pivot row -> {key: coefficient}, when tracked

    def _reduce(self, v, coords=None):
        """Zero every pivot row of v in place, mirroring each step on coords.

        Subtracting a stored vector changes no other pivot row, so one step
        per pivot row in v's support suffices.
        """
        p = self.fld.p
        for row in [r for r in v if r in self.pivots]:
            f = v[row]
            _axpy(v, f, self.pivots[row], p)
            if coords is not None:
                _axpy(coords, f, self.coords[row], p)

    def _insert(self, v, coords=None) -> bool:
        """Reduce the dict v in place and store it if nonzero.

        coords, when given, holds v's coordinates; if v reduces to zero it is
        left holding a combination of the inserted vectors that equals 0.
        """
        self._reduce(v, coords)
        if not v:
            return False
        p = self.fld.p
        piv = min(v)
        inv = self.fld.inv(v[piv])
        _scale(v, inv, p)
        if coords is not None:
            _scale(coords, inv, p)
        for row, w in self.pivots.items():
            f = w.get(piv)
            if f:
                _axpy(w, f, v, p)
                if coords is not None:
                    _axpy(self.coords[row], f, coords, p)
        self.pivots[piv] = v
        if coords is not None:
            self.coords[piv] = coords
        return True

    def add(self, vec) -> bool:
        """Insert vec (a dense sequence or a {row: value} dict); True if it enlarged the span."""
        return self._insert(_sparse(vec, self.fld))

    def contains(self, vec) -> bool:
        v = _sparse(vec, self.fld)
        self._reduce(v)
        return not v


def rank_over_field(matrix: SparseMatrix, fld) -> int:
    """Exact rank of an integer matrix over QQ or GF(p): a count of the
    Smith elimination's pivots.

    Unimodular U and Q bring the matrix to the diagonal of pivot values, and
    both stay invertible mod p, so the rank over QQ is the number of pivots
    and the rank over GF(p) the number that p does not divide.
    """
    p = check_field(fld).p
    return sum(1 for d in _pivot_values(matrix) if p is None or d % p)


def kernel_basis_over_field(matrix: SparseMatrix, fld) -> list[dict]:
    """Kernel basis of a matrix over a field: the reduced echelon one.

    Columns enter a span with their coordinates from last to first, so
    dependent column j yields a kernel vector with 1 at j, 0 at every other
    dependent column and the rest of its support on later columns.  That is
    the canonical reduced echelon basis (pivot = first nonzero entry); it is
    returned pivots ascending, each vector a sparse {column: value} dict with
    its keys ascending and no zero stored.
    """
    span = FieldColumnSpan(fld)
    one = span.fld.of(1)
    cols = sparse_columns(matrix, span.fld)
    kernel = []
    for j in reversed(range(matrix.cols)):
        coords = {j: one}
        if not span._insert(cols[j], coords):
            kernel.append(dict(sorted(coords.items())))
    kernel.reverse()
    return kernel


def solve_in_span(columns, targets, fld):
    """Coefficients expressing each target as a combination of columns.

    columns and targets: dense vectors or {row: value} dicts.  The columns
    enter one span once, in order, and every target is reduced against it;
    the result holds one sparse {column: coefficient} dict per target (no
    zero stored), or None for a target outside the span.  Of all solutions
    each is the one on the leftmost independent columns: a column that
    depends on earlier ones gets 0.
    """
    span = FieldColumnSpan(fld)
    fld = span.fld
    for j, col in enumerate(columns):
        span._insert(_sparse(col, fld), {j: fld.of(1)})
    solutions = []
    for target in targets:
        residue, coords = _sparse(target, fld), {}
        span._reduce(residue, coords)
        solutions.append(None if residue else {j: fld.of(-c) for j, c in coords.items()})
    return solutions
