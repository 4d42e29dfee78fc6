"""Exact sparse linear algebra: Smith normal form, ranks, kernels, homology.

Everything is arbitrary-precision: integer matrices use Python ints, field
computations use Fraction (rationals) or ints reduced mod p.  Intermediate
coefficient growth during elimination is expected and harmless.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

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


class PrimeField:
    """The field with p elements; elements are ints in range(p)."""

    def __init__(self, p: int):
        if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
            raise InvalidField(f"{p} is not prime")
        self.p = p

    def of(self, n):
        return n % self.p

    def inv(self, a):
        a %= self.p
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

    Values are exact scalars (int or Fraction).  Integer-only routines such
    as snf() assume int entries.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries=None):
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (r, c), v in entries.items():
                self.add_at(r, c, v)

    @classmethod
    def from_dense(cls, dense, rows=None, cols=None):
        m = len(dense)
        n = len(dense[0]) if m else (cols or 0)
        out = cls(rows if rows is not None else m, cols if cols is not None else n)
        for r, row in enumerate(dense):
            for c, v in enumerate(row):
                out.add_at(r, c, v)
        return out

    @classmethod
    def identity(cls, n):
        out = cls(n, n)
        for i in range(n):
            out.entries[(i, i)] = 1
        return out

    def add_at(self, r, c, v):
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"entry ({r},{c}) out of bounds {self.rows}x{self.cols}")
        if v == 0:
            return
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

    def reduce_mod(self, p: int) -> "SparseMatrix":
        out = SparseMatrix(self.rows, self.cols)
        for k, v in self.entries.items():
            vv = v % p
            if vv:
                out.entries[k] = vv
        return out

    def to_dense(self):
        dense = [[0] * self.cols for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            dense[r][c] = v
        return dense

    @staticmethod
    def block_diag(blocks):
        rows = sum(b.rows for b in blocks)
        cols = sum(b.cols for b in blocks)
        out = SparseMatrix(rows, cols)
        r0 = c0 = 0
        for b in blocks:
            for (r, c), v in b.entries.items():
                out.entries[(r0 + r, c0 + c)] = v
            r0 += b.rows
            c0 += b.cols
        return out

    @staticmethod
    def hstack(blocks):
        if not blocks:
            return SparseMatrix(0, 0)
        rows = blocks[0].rows
        assert all(b.rows == rows for b in blocks)
        out = SparseMatrix(rows, sum(b.cols for b in blocks))
        c0 = 0
        for b in blocks:
            for (r, c), v in b.entries.items():
                out.entries[(r, c0 + c)] = v
            c0 += b.cols
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


def _pick_pivot(rows, cols):
    """Smallest |entry| first, then least fill-in, then position (determinism)."""
    best = None
    best_key = None
    for r, row in rows.items():
        rfill = len(row) - 1
        for c, v in row.items():
            key = (abs(v), rfill * (len(cols[c]) - 1), r, c)
            if best_key is None or key < best_key:
                best_key = key
                best = (r, c)
                if key[0] == 1 and key[1] == 0:
                    return best
    return best


def _diagonalize(matrix: SparseMatrix, track=None):
    """Pivot values and pivot columns of a sparse Smith elimination.

    The matrix is held as rows and as columns.  Each pivot (min |entry|,
    then min fill-in) is isolated by alternating row and column passes and
    then removed, so unimodular U and Q bring the matrix to a diagonal form
    U.M.Q with |entries| = the pivot values on the pivot columns and zero
    columns elsewhere.  This is the only integer elimination loop; track,
    when given, is a list of one sparse vector per column that receives
    every column operation, turning a seeded identity into Q.
    """
    rows = {}
    cols = {}
    for (r, c), v in matrix.entries.items():
        rows.setdefault(r, {})[c] = v
        cols.setdefault(c, {})[r] = v
    values, pivot_cols = [], []
    while rows:
        # drop empty rows/cols left behind by eliminations
        for r in [r for r, row in rows.items() if not row]:
            del rows[r]
        for c in [c for c, col in cols.items() if not col]:
            del cols[c]
        if not rows:
            break
        r0, c0 = _pick_pivot(rows, cols)
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
    return values, pivot_cols


def snf(matrix: SparseMatrix) -> list[int]:
    """Invariant factors d_1 | d_2 | ... | d_r of an integer matrix.

    The pivot values of the diagonalization, fixed up into a divisibility
    chain.
    """
    diag, _ = _diagonalize(matrix)
    changed = True
    while changed:
        changed = False
        for i in range(len(diag)):
            for j in range(i + 1, len(diag)):
                if diag[j] % diag[i] != 0:
                    g = gcd(diag[i], diag[j])
                    diag[i], diag[j] = g, diag[i] * diag[j] // g
                    changed = True
    diag.sort()
    return diag


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
    """
    if d_n.cols != dim_n or d_np1.rows != dim_n:
        raise NotAComplex(
            f"shape mismatch: d_n has {d_n.cols} columns, d_(n+1) has {d_np1.rows} rows, dim {dim_n}"
        )
    if not d_n.matmul(d_np1).is_zero():
        raise NotAComplex("d_n . d_(n+1) != 0")
    factors = snf(d_np1)
    betti = dim_n - rank_over_field(d_n, QQ) - len(factors)
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
    the only field elimination loop: field ranks, kernels and solves are
    its clients.
    """

    def __init__(self, dim: int, fld):
        self.dim = dim
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

    def rank(self) -> int:
        return len(self.pivots)


def rank_over_field(matrix: SparseMatrix, fld) -> int:
    """Exact rank over QQ or GF(p): the rank of the span of the columns."""
    span = FieldColumnSpan(matrix.rows, fld)
    for col in sparse_columns(matrix, span.fld):
        span._insert(col)
    return span.rank()


def kernel_basis_over_field(matrix: SparseMatrix, fld) -> list[list]:
    """Kernel basis of a matrix over a field: the reduced echelon one.

    Columns enter a span with their coordinates from last to first, so
    dependent column j yields a kernel vector with 1 at j, 0 at every other
    dependent column and the rest of its support on later columns.  That is
    the canonical reduced echelon basis (pivot = first nonzero entry); it is
    returned pivots ascending, as dense vectors.
    """
    span = FieldColumnSpan(matrix.rows, fld)
    one, zero = span.fld.of(1), span.fld.of(0)
    cols = sparse_columns(matrix, span.fld)
    kernel = []
    for j in reversed(range(matrix.cols)):
        coords = {j: one}
        if not span._insert(cols[j], coords):
            kernel.append([coords.get(i, zero) for i in range(matrix.cols)])
    kernel.reverse()
    return kernel


def solve_in_span(columns, target, fld):
    """Coefficients expressing target as a combination of columns, or None.

    columns: dense length-m vectors or {row: value} dicts; target: a dense
    length-m vector.  Of all solutions this is the one on the leftmost
    independent columns: a column that depends on earlier ones gets 0.
    """
    span = FieldColumnSpan(len(target), fld)
    fld = span.fld
    for j, col in enumerate(columns):
        span._insert(_sparse(col, fld), {j: fld.of(1)})
    residue, coords = _sparse(target, fld), {}
    span._reduce(residue, coords)
    if residue:
        return None
    return [fld.of(-coords.get(j, 0)) for j in range(len(columns))]
