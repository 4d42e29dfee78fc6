"""Magnitude chain and cochain complexes of a space at a fixed grade.

A grade-l complex lives on normalized tuples (x_0, ..., x_n): consecutive
points distinct, all consecutive distances finite, summing to l.  The
boundary deletes interior points where betweenness holds; on normalized
generators the two outer faces vanish (deleting an endpoint drops the grade,
and tuples of lower grade are identified with zero).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import UnvalidatedModule
from .linalg import (
    HomologySummary,
    PrimeField,
    SparseMatrix,
    check_field,
    homology_at,
    rank_over_field,
)
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
    least allowed step, cannot fit under the cap.
    """
    steps = space.steps(distinct=normalized)
    least = min((d for row in steps for _, d in row), default=0) if normalized else 0
    level = [((i,), 0) for i in range(len(space))]
    for left in range(n - 1, -1, -1):
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
    grade = parse_dist(grade)
    if grade is INF or grade < 0:
        return []
    target = space.to_units(grade)
    if target is None:
        return []
    return [t for t, u in _walks(space, n, target, normalized) if u == target]


def tuples_up_to_grade(space: QuasimetricSpace, n: int, cap, normalized: bool = True):
    """All (n+1)-point tuples of grade <= cap, as (tuple, grade) pairs, sorted."""
    cap = parse_dist(cap)
    if cap is INF or cap < 0:
        return []
    pairs = _walks(space, n, space.floor_units(cap), normalized)
    grades = {u: space.grade_of(u) for u in {u for _, u in pairs}}
    return [(t, grades[u]) for t, u in pairs]


@dataclass
class BasedComplex:
    """A chain complex on explicit ordered bases with sparse integer matrices.

    maps[n] is the boundary d_n from degree n to n-1, and maps[0] has zero
    rows.  Degrees run 0..n_max+1 so homology at n_max is exact, never
    extrapolated.  The dual cochain complex is read through coboundary();
    field tags the field that coboundaries are reduced into.
    """

    space: QuasimetricSpace
    grade: Fraction
    n_max: int
    bases: list
    maps: list
    field: object = None

    def dim(self, n: int) -> int:
        if 0 <= n < len(self.bases):
            return len(self.bases[n])
        return 0

    def top_degree(self) -> int:
        return len(self.bases) - 1

    def verify(self) -> bool:
        """Exact check that consecutive boundaries compose to zero."""
        return all(
            self.maps[n - 1].matmul(self.maps[n]).is_zero() for n in range(1, len(self.maps))
        )

    def boundary(self, n: int) -> SparseMatrix:
        if n < len(self.maps):
            return self.maps[n]
        return SparseMatrix(self.dim(n - 1), 0)

    def coboundary(self, n: int) -> SparseMatrix:
        """delta_n, degree n -> n+1: the transposed boundary d_(n+1), with
        entries reduced into the field when it is a prime field."""
        mat = self.boundary(n + 1).transpose()
        if isinstance(self.field, PrimeField):
            mat = mat.reduce_mod(self.field.p)
        return mat

    def homology(self, n: int) -> HomologySummary:
        if not 0 <= n <= self.n_max:
            raise ValueError(f"degree {n} outside computed range 0..{self.n_max}")
        d_n = self.boundary(n)
        d_np1 = self.boundary(n + 1)
        return homology_at(d_n, d_np1, self.dim(n), n=n, grade=self.grade)

    def homology_dim_over(self, n: int, fld) -> int:
        """dim over a field of homology at degree n; by duality over a field,
        also the dim of cohomology there."""
        check_field(fld)
        if not 0 <= n <= self.n_max:
            raise ValueError(f"degree {n} outside computed range 0..{self.n_max}")
        return (
            self.dim(n)
            - rank_over_field(self.boundary(n), fld)
            - rank_over_field(self.boundary(n + 1), fld)
        )


def magnitude_complex(space: QuasimetricSpace, grade, n_max: int) -> BasedComplex:
    """Normalized chain complex with trivial coefficients at one grade.

    The boundary of (x_0,...,x_n) is the alternating sum, over interior
    positions whose point lies between its two neighbors, of the tuple with
    that point deleted; built through degree n_max+1.
    """
    grade = parse_dist(grade)
    bases, maps = _boundaries(space, grade, n_max)
    return BasedComplex(space=space, grade=grade, n_max=n_max, bases=bases, maps=maps)


def _boundaries(space: QuasimetricSpace, grade: Fraction, n_max: int):
    """(bases, maps) of the trivial-coefficient chain complex at one grade;
    the one assembly that the chain and cochain complexes share."""
    bases = [enumerate_tuples(space, n, grade, normalized=True) for n in range(n_max + 2)]
    index = [{t: k for k, t in enumerate(b)} for b in bases]
    maps = [SparseMatrix(0, len(bases[0]))]
    for n in range(1, n_max + 2):
        mat = SparseMatrix(len(bases[n - 1]), len(bases[n]))
        target_index = index[n - 1]
        for col, t in enumerate(bases[n]):
            for i in range(1, n):
                if space.between_idx(t[i - 1], t[i], t[i + 1]):
                    face = t[:i] + t[i + 1 :]
                    mat.add_at(target_index[face], col, -1 if i % 2 else 1)
        maps.append(mat)
    return bases, maps


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
    bases = []
    for n in range(n_max + 2):
        basis = []
        for t, g in tuples_up_to_grade(space, n, cap, normalized=True):
            r = module.rank_at(t[0], grade - g)
            basis.extend((t, j) for j in range(r))
        bases.append(basis)
    index = [{lab: k for k, lab in enumerate(b)} for b in bases]
    maps = [SparseMatrix(0, len(bases[0]))]
    for n in range(1, n_max + 2):
        mat = SparseMatrix(len(bases[n - 1]), len(bases[n]))
        target_index = index[n - 1]
        for col, (t, j) in enumerate(bases[n]):
            g = tuple_grade(space, t)
            # face 0: coefficient moves along the action M(x_0, x_1)
            action = module.action_matrix(t[0], t[1], grade - g)
            tail = t[1:]
            for i_row, row in enumerate(action):
                if row[j]:
                    mat.add_at(target_index[(tail, i_row)], col, row[j])
            # interior faces: betweenness deletion, coefficient untouched
            for i in range(1, n):
                if space.between_idx(t[i - 1], t[i], t[i + 1]):
                    face = t[:i] + t[i + 1 :]
                    mat.add_at(target_index[(face, j)], col, -1 if i % 2 else 1)
        maps.append(mat)
    return BasedComplex(space=space, grade=grade, n_max=n_max, bases=bases, maps=maps)


def magnitude_cochain_complex(space, grade, n_max: int, fld) -> BasedComplex:
    """Dual complex over a field: same bases and boundaries, read through
    coboundary(n), the transpose of boundary(n+1) reduced into the field."""
    check_field(fld)
    grade = parse_dist(grade)
    bases, maps = _boundaries(space, grade, n_max)
    return BasedComplex(space=space, grade=grade, n_max=n_max, bases=bases, maps=maps, field=fld)
