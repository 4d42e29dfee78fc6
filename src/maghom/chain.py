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

from .errors import NoFiniteDistance, UnvalidatedModule
from .linalg import (
    HomologySummary,
    PrimeField,
    SparseMatrix,
    check_field,
    homology_at,
    rank_over_field,
)
from .space import INF, QuasimetricSpace, min_positive_distance, parse_dist


def tuple_grade(space: QuasimetricSpace, pts) -> Fraction:
    """Sum of consecutive distances; INF if some step is unreachable."""
    total = Fraction(0)
    for a, b in zip(pts, pts[1:]):
        d = space.d(a, b)
        if d is INF:
            return INF
        total += d
    return total


def _min_step(space):
    try:
        return min_positive_distance(space)
    except NoFiniteDistance:
        return None


def enumerate_tuples(space: QuasimetricSpace, n: int, grade, normalized: bool = True):
    """All (n+1)-point tuples of exactly the given grade, in lexicographic order.

    Normalized tuples have consecutive-distinct entries; every consecutive
    distance is finite.  The basis order of every complex comes from here,
    so identical inputs always give identical matrices.
    """
    grade = parse_dist(grade)
    if grade is INF or grade < 0:
        return []
    npts = len(space)
    if n == 0:
        return [(i,) for i in range(npts)] if grade == 0 else []
    delta = _min_step(space)
    if normalized and (delta is None or grade < n * delta):
        return []
    out = []
    dist = space.dist
    min_step = delta if normalized else Fraction(0)

    def extend(prefix, last, remaining, steps_left):
        if steps_left == 0:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        if remaining < steps_left * min_step:
            return
        for nxt in range(npts):
            if normalized and nxt == last:
                continue
            d = dist[last][nxt]
            if d is INF or d > remaining:
                continue
            prefix.append(nxt)
            extend(prefix, nxt, remaining - d, steps_left - 1)
            prefix.pop()

    for start in range(npts):
        extend([start], start, grade, n)
    return out


def tuples_up_to_grade(space: QuasimetricSpace, n: int, cap, normalized: bool = True):
    """All (n+1)-point tuples of grade <= cap, as (tuple, grade) pairs, sorted."""
    cap = parse_dist(cap)
    npts = len(space)
    if cap is INF or cap < 0:
        return []
    if n == 0:
        return [((i,), Fraction(0)) for i in range(npts)]
    delta = _min_step(space)
    if normalized and (delta is None or cap < n * delta):
        return []
    out = []
    dist = space.dist
    min_step = delta if normalized else Fraction(0)

    def extend(prefix, last, used, steps_left):
        if steps_left == 0:
            out.append((tuple(prefix), used))
            return
        if used + steps_left * min_step > cap:
            return
        for nxt in range(npts):
            if normalized and nxt == last:
                continue
            d = dist[last][nxt]
            if d is INF or used + d > cap:
                continue
            prefix.append(nxt)
            extend(prefix, nxt, used + d, steps_left - 1)
            prefix.pop()

    for start in range(npts):
        extend([start], start, Fraction(0), n)
    return out


@dataclass
class BasedComplex:
    """A complex on explicit ordered bases with sparse matrices.

    For a chain complex (ascending=False) maps[n] sends degree n to n-1 and
    maps[0] has zero rows.  For a cochain complex (ascending=True) maps[n]
    sends degree n to n+1.  Degrees run 0..n_max+1 so homology at n_max is
    exact, never extrapolated.
    """

    space: QuasimetricSpace
    grade: Fraction
    n_max: int
    bases: list
    maps: list
    ascending: bool = False
    field: object = None

    def dim(self, n: int) -> int:
        if 0 <= n < len(self.bases):
            return len(self.bases[n])
        return 0

    def top_degree(self) -> int:
        return len(self.bases) - 1

    def verify(self) -> bool:
        """Exact check that consecutive maps compose to zero.

        Products of mod-p matrices are reduced back into the field before
        the zero test."""
        def vanishes(product):
            if isinstance(self.field, PrimeField):
                product = product.reduce_mod(self.field.p)
            return product.is_zero()

        if self.ascending:
            for n in range(len(self.maps) - 1):
                if not vanishes(self.maps[n + 1].matmul(self.maps[n])):
                    return False
        else:
            for n in range(1, len(self.maps)):
                if not vanishes(self.maps[n - 1].matmul(self.maps[n])):
                    return False
        return True

    def boundary(self, n: int) -> SparseMatrix:
        if self.ascending:
            raise ValueError("cochain complex: use coboundary()")
        if n < len(self.maps):
            return self.maps[n]
        return SparseMatrix(self.dim(n - 1), 0)

    def coboundary(self, n: int) -> SparseMatrix:
        if not self.ascending:
            raise ValueError("chain complex: use boundary()")
        if n < len(self.maps):
            return self.maps[n]
        return SparseMatrix(0, self.dim(n))

    def homology(self, n: int) -> HomologySummary:
        if self.ascending:
            raise ValueError("integral homology is computed on the chain complex")
        if not 0 <= n <= self.n_max:
            raise ValueError(f"degree {n} outside computed range 0..{self.n_max}")
        d_n = self.boundary(n)
        d_np1 = self.boundary(n + 1)
        return homology_at(d_n, d_np1, self.dim(n), n=n, grade=self.grade)

    def homology_dim_over(self, n: int, fld) -> int:
        """dim over a field of (co)homology at degree n."""
        check_field(fld)
        if not 0 <= n <= self.n_max:
            raise ValueError(f"degree {n} outside computed range 0..{self.n_max}")
        if self.ascending:
            outgoing = self.coboundary(n)
            incoming = self.coboundary(n - 1) if n >= 1 else SparseMatrix(self.dim(0), 0)
        else:
            outgoing, incoming = self.boundary(n), self.boundary(n + 1)
        return self.dim(n) - rank_over_field(outgoing, fld) - rank_over_field(incoming, fld)


def magnitude_complex(space: QuasimetricSpace, grade, n_max: int) -> BasedComplex:
    """Normalized chain complex with trivial coefficients at one grade.

    The boundary of (x_0,...,x_n) is the alternating sum, over interior
    positions whose point lies between its two neighbors, of the tuple with
    that point deleted; built through degree n_max+1.
    """
    grade = parse_dist(grade)
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
    return BasedComplex(space=space, grade=grade, n_max=n_max, bases=bases, maps=maps)


def magnitude_complex_with_coefficients(space, module, grade, n_max: int) -> BasedComplex:
    """Normalized chain complex with coefficients in a distance module.

    Degree-n generators are pairs (t, j): a normalized tuple t = (x_0..x_n)
    of grade g <= l together with the j-th basis vector of M(x_0) in grade
    l - g.  The outer face at position 0 pushes the coefficient along the
    module action into M(x_1); the face at position n vanishes on normalized
    generators (its x_{n-1} = x_n condition fails).
    """
    if module.space is not space and module.space != space:
        raise UnvalidatedModule("module lives over a different space")
    if not module.validated:
        raise UnvalidatedModule("run validate_module first")
    grade = parse_dist(grade)
    bases = []
    for n in range(n_max + 2):
        basis = []
        for t, g in tuples_up_to_grade(space, n, grade, normalized=True):
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
    """Dual complex over a field: same bases, coboundaries are transposes.

    The coboundary matrix in degree n is the transpose of the boundary in
    degree n+1, entries reduced into the field; sign pattern identical.
    """
    check_field(fld)
    chain = magnitude_complex(space, grade, n_max)
    maps = []
    for n in range(n_max + 2):
        mat = chain.maps[n + 1].transpose() if n + 1 < len(chain.maps) else SparseMatrix(0, chain.dim(n))
        if isinstance(fld, PrimeField):
            mat = mat.reduce_mod(fld.p)
        maps.append(mat)
    return BasedComplex(
        space=space,
        grade=chain.grade,
        n_max=n_max,
        bases=chain.bases,
        maps=maps,
        ascending=True,
        field=fld,
    )
