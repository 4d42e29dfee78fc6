"""The distance algebra of a finite space.

The algebra has one basis element per finite-distance ordered pair (x, y),
graded by the distance, with product
(x,y).(y',z) = (x,z) when y = y' and d(x,y) + d(y,z) = d(x,z), else 0.
The pairs (x,x) form a complete set of orthogonal idempotents, and positive
degree pairs span a nilpotent ideal.  The quotient by it, one rank-1 piece
in grade 0 per point, is the distance module ``trivial_module(space, 0, 1)``
that Tor and Ext resolve.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import UnknownPoint
from .space import INF, QuasimetricSpace


class DistanceAlgebra:
    """Basis pairs, grading, and the betweenness product of a finite space."""

    __slots__ = ("space", "basis", "index")

    def __init__(self, space: QuasimetricSpace):
        self.space = space
        self.basis = tuple(sorted(space.finite_pairs()))
        self.index = {p: k for k, p in enumerate(self.basis)}

    def grade(self, pair) -> Fraction:
        return self.space.d(pair[0], pair[1])

    def mul_pairs(self, p, q):
        """Product of two basis pairs: a basis pair or None (zero)."""
        if p[1] == q[0] and p[1] in self.space.middles[p[0]][q[1]]:
            return (p[0], q[1])
        return None

    def unit(self):
        return {(i, i): 1 for i in range(len(self.space))}

    def e(self, x):
        """The idempotent of the point labelled x."""
        i = self.space.idx(x)
        return {(i, i): 1}

    def pair_of_labels(self, x, y):
        i, j = self.space.idx(x), self.space.idx(y)
        if self.space.d(i, j) is INF:
            raise UnknownPoint(f"({x}, {y}) is not a basis pair: distance is infinite")
        return (i, j)

    def __repr__(self):
        return f"DistanceAlgebra(points={len(self.space)}, pairs={len(self.basis)})"


def algebra_multiply(algebra: DistanceAlgebra, u: dict, v: dict) -> dict:
    """Bilinear extension of the basis product; elements are {pair: int}."""
    out = {}
    for p, a in u.items():
        if not a:
            continue
        for q, b in v.items():
            if not b:
                continue
            pq = algebra.mul_pairs(p, q)
            if pq is not None:
                c = out.get(pq, 0) + a * b
                if c:
                    out[pq] = c
                else:
                    del out[pq]
    return out


def radical_power_is_zero(algebra: DistanceAlgebra, power: int) -> bool:
    """Check that every product of `power` positive-degree pairs vanishes.

    Walks all chains x_0 -> x_1 -> ... -> x_power of distinct consecutive
    points with finite steps, folding the product; the ideal of positive
    pairs is nilpotent of order at most the number of points.  Its 0-th
    power is the whole algebra, zero only on the empty space.
    """
    if power < 0:
        raise ValueError("power must be nonnegative")
    space = algebra.space
    n = len(space)
    if power == 0:
        return n == 0

    def walk(current, steps, acc_pair):
        if acc_pair is None:
            return True
        if steps == power:
            return False  # a nonzero product of `power` positive pairs survived
        for nxt in range(n):
            if nxt == current or space.d(current, nxt) is INF:
                continue
            prod = algebra.mul_pairs(acc_pair, (current, nxt))
            if not walk(nxt, steps + 1, prod):
                return False
        return True

    for start in range(n):
        for first in range(n):
            if first == start or space.d(start, first) is INF:
                continue
            if not walk(first, 1, (start, first)):
                return False
    return True
