"""Magnitude chain and cochain complexes of a space at a fixed grade.

A grade-l complex lives on normalized tuples (x_0, ..., x_n): consecutive
points distinct, all consecutive distances finite, summing to l.  The
boundary deletes interior points where betweenness holds; on normalized
generators the two outer faces vanish (deleting an endpoint drops the grade,
and tuples of lower grade are identified with zero).  Every complex is
built in full when it is made: all its bases, then all its boundaries.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import UnvalidatedModule
from .linalg import HomologySummary, SparseMatrix, check_field, homology_at, rank_over_field
from .space import INF, QuasimetricSpace, parse_dist


def tuple_grade(space: QuasimetricSpace, pts) -> Fraction:
    """Sum of consecutive distances; INF if some step is unreachable."""
    scaled = space.scaled
    total = 0
    for a, b in zip(pts, pts[1:]):
        d = scaled[a][b]
        if d is None:
            return INF
        total += d
    return space.grade_of(total)


def _walks(space: QuasimetricSpace, n: int, cap: int, normalized: bool):
    """All (n+1)-point tuples of grade <= cap units, as (tuple, units) pairs.

    Built one step at a time; each level keeps lexicographic order because
    every prefix is extended by its next points in increasing order.  A
    prefix is dropped once the steps it still needs, each at least the
    least allowed step, cannot fit under the cap, and an empty level ends
    the walk at once.  A negative n or cap has none, and neither has an n
    whose n least steps pass the cap.
    """
    if n < 0 or cap < 0:
        return []
    steps, least = space.walk_steps(normalized)
    if n * least > cap:
        return []
    level = [((i,), 0) for i in range(len(space))]
    for left in range(n - 1, -1, -1):
        if not level:
            return []
        bound = cap - left * least
        level = [
            (t + (j,), u + d)
            for t, u in level
            for j, d in steps[t[-1]]
            if u + d <= bound
        ]
    return level


def enumerate_tuples(space: QuasimetricSpace, n: int, grade, normalized: bool = True):
    """All (n+1)-point tuples of exactly the given grade, in lexicographic order.

    Normalized tuples have consecutive-distinct entries; every consecutive
    distance is finite.  The basis order of every complex comes from here,
    so identical inputs always give identical matrices.
    """
    target = space.to_units(parse_dist(grade))
    if target is None:
        return []
    return [t for t, u in _walks(space, n, target, normalized) if u == target]


def tuples_up_to_grade(space: QuasimetricSpace, n: int, cap, normalized: bool = True):
    """All (n+1)-point tuples of grade <= cap, as (tuple, grade) pairs, sorted."""
    cap = parse_dist(cap)
    if cap is INF:
        return []
    pairs = _walks(space, n, space.floor_units(cap), normalized)
    grades = {u: space.grade_of(u) for u in {u for _, u in pairs}}
    return [(t, grades[u]) for t, u in pairs]


class BasedComplex:
    """A chain complex of free abelian groups on explicit ordered bases,
    with sparse int boundaries.

    Built in full when made: basis_of(n) gives the degree-n basis for every
    n = 0..n_max+1, all bases first, then boundary_of(n, source, target) the
    boundary d_n on the degree-n and degree-(n-1) bases for n = 1..n_max+1.
    The complex keeps them as the lists `bases` and `maps` (d_0..d_(n_max+1),
    d_0 with zero rows) and no reference to the builders; each field rank is
    taken once.  Degrees run 0..n_max+1 so homology at n_max is exact, never
    extrapolated; outside them the complex is zero, so d_(n_max+2) is a zero
    map.  The dual cochain complex is read through coboundary().  The
    complex carries no field: homology and cohomology over QQ or GF(p) read
    the same int maps, each field through its own reduction.
    """

    def __init__(self, n_max: int, basis_of, boundary_of, grade=Fraction(0)):
        self.n_max = n_max
        self.grade = grade
        # the bases go first, in one run: interleaving the long-lived tuple
        # lists with each boundary's temporary index fragments the heap
        # (chain-z's peak RSS rose by 0.3 MB)
        bases = self.bases = [basis_of(n) for n in range(n_max + 2)]
        self.maps = [
            boundary_of(n, bases[n], bases[n - 1]) if n else SparseMatrix(0, len(bases[0]))
            for n in range(n_max + 2)
        ]
        self._ranks = {}

    def basis(self, n: int) -> list:
        return self.bases[n] if 0 <= n <= self.n_max + 1 else []

    def dim(self, n: int) -> int:
        return len(self.basis(n))

    def boundary(self, n: int) -> SparseMatrix:
        if 0 <= n <= self.n_max + 1:
            return self.maps[n]
        return SparseMatrix(self.dim(n - 1), self.dim(n))

    def verify(self) -> bool:
        """Exact check that consecutive boundaries compose to zero."""
        return all(
            self.boundary(n - 1).matmul(self.boundary(n)).is_zero()
            for n in range(1, self.n_max + 2)
        )

    def coboundary(self, n: int) -> SparseMatrix:
        """delta_n, degree n -> n+1: the transposed boundary d_(n+1), with
        int entries."""
        return self.boundary(n + 1).transpose()

    def _check_degree(self, n: int):
        if not 0 <= n <= self.n_max:
            raise ValueError(f"degree {n} outside computed range 0..{self.n_max}")

    def _rank(self, n: int, fld) -> int:
        key = (n, fld)
        if key not in self._ranks:
            self._ranks[key] = rank_over_field(self.boundary(n), fld)
        return self._ranks[key]

    def homology(self, n: int) -> HomologySummary:
        self._check_degree(n)
        d_n, d_np1 = self.boundary(n), self.boundary(n + 1)
        return homology_at(d_n, d_np1, self.dim(n), n=n, grade=self.grade)

    def homology_dim_over(self, n: int, fld) -> int:
        """dim over a field of homology at degree n; by duality over a field,
        also the dim of cohomology there."""
        check_field(fld)
        self._check_degree(n)
        return self.dim(n) - self._rank(n, fld) - self._rank(n + 1, fld)


def magnitude_complex(space: QuasimetricSpace, grade, n_max: int) -> BasedComplex:
    """Normalized chain complex with trivial coefficients at one grade.

    The boundary of (x_0,...,x_n) is the alternating sum, over interior
    positions whose point lies between its two neighbors, of the tuple with
    that point deleted; built through degree n_max+1.
    """
    grade = parse_dist(grade)
    return _trivial_complex(space, grade, n_max)


def _trivial_complex(space: QuasimetricSpace, grade: Fraction, n_max: int) -> BasedComplex:
    """The trivial-coefficient complex at one grade; the one assembly that
    the chain and cochain complexes share."""

    def boundary(n, src, tgt):
        # deleting distinct interior points of a tuple with no repeated
        # neighbours gives distinct faces, so each entry is written once
        middles = space.middles
        target_index = {t: k for k, t in enumerate(tgt)}
        mat = SparseMatrix(len(tgt), len(src))
        entries = mat.entries
        for col, t in enumerate(src):
            for i in range(1, n):
                if t[i] in middles[t[i - 1]][t[i + 1]]:
                    entries[target_index[t[:i] + t[i + 1 :]], col] = -1 if i % 2 else 1
        return mat

    return BasedComplex(n_max, lambda n: enumerate_tuples(space, n, grade), boundary, grade=grade)


def magnitude_complex_with_coefficients(space, module, grade, n_max: int) -> BasedComplex:
    """Normalized chain complex with coefficients in a distance module.

    Degree-n generators are pairs (t, j): a normalized tuple t = (x_0..x_n)
    of grade g together with the j-th basis vector of M(x_0) in grade
    l - g.  The outer face at position 0 pushes the coefficient along the
    module action into M(x_1); the face at position n vanishes on normalized
    generators (its x_{n-1} = x_n condition fails).
    """
    if module.space is not space and module.space != space:
        raise UnvalidatedModule("module lives over a different space")
    if not module.validated:
        raise UnvalidatedModule("run validate_module first")
    grade = parse_dist(grade)
    # a tuple of grade g meets M in grade l - g: below 0 only for a module
    # with components in negative grades
    cap = grade - min([0] + module.grades())

    def basis(n):
        return [
            (t, j)
            for t, g in tuples_up_to_grade(space, n, cap, normalized=True)
            for j in range(module.rank_at(t[0], grade - g))
        ]

    stored = module.actions

    def boundary(n, src, tgt):
        # normalized: face 0's targets start at x_1, the interior faces' at
        # x_0 != x_1, and distinct deletions give distinct faces, so each
        # entry is written once
        middles = space.middles
        target_index = {lab: k for k, lab in enumerate(tgt)}
        mat = SparseMatrix(len(tgt), len(src))
        entries = mat.entries
        for col, (t, j) in enumerate(src):
            # face 0: coefficient moves along the stored action M(x_0, x_1), if any
            action = stored.get(t[:2], {}).get(grade - tuple_grade(space, t))
            if action is not None:
                tail = t[1:]
                for i_row, row in enumerate(action):
                    if row[j]:
                        entries[target_index[(tail, i_row)], col] = row[j]
            # interior faces: betweenness deletion, coefficient untouched
            for i in range(1, n):
                if t[i] in middles[t[i - 1]][t[i + 1]]:
                    entries[target_index[(t[:i] + t[i + 1 :], j)], col] = -1 if i % 2 else 1
        return mat

    return BasedComplex(n_max, basis, boundary, grade=grade)


def magnitude_cochain_complex(space, grade, n_max: int, fld) -> BasedComplex:
    """The cochain complex at one grade: the chain complex's bases and int
    boundaries, read through coboundary(n), the transpose of boundary(n+1).

    fld is checked but not kept: the complex serves every field, and each
    reader reduces the int coboundaries into its own.
    """
    check_field(fld)
    grade = parse_dist(grade)
    return _trivial_complex(space, grade, n_max)
