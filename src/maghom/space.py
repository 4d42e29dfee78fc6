"""Finite quasimetric spaces and digraphs.

Distances are exact: a distance is either a nonnegative ``Fraction`` or the
module-level singleton ``INF``.  Floats are never used, so betweenness
(``d(x,y) + d(y,z) == d(x,z)``) is a decidable equality test.

Every finite distance of a space lies on the lattice (1/D)Z, D the common
denominator of its distances, and so does every grade built from them.
Inside, a space keeps its distances as integers in units of 1/D
(``scaled``, ``None`` where unreachable) and the enumerations below work on
those; a ``Fraction`` is made only where a grade is handed back.  The
betweenness rule is decided here alone, once per space, in the table
``middles`` that every face rule, the algebra product and the module axioms
read.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import floor, lcm

from .errors import (
    InvalidInput,
    InvalidSpaceError,
    NonzeroDiagonal,
    TriangleViolation,
    UnknownPoint,
    ZeroOffDiagonal,
)


class _InfiniteDistance:
    """The distance of an unreachable pair: absorbing under +, above every rational."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return other is self

    def __ne__(self, other):
        return other is not self

    def __hash__(self):
        return hash("maghom-inf")

    def __repr__(self):
        return "inf"


INF = _InfiniteDistance()


def parse_dist(text):
    """Parse a distance: an int, a Fraction, or a string holding an integer,
    "p/q" or "inf".  A bool or a float (JSON's 0.1 is already rounded) is
    refused."""
    if isinstance(text, _InfiniteDistance):
        return INF
    if isinstance(text, (bool, float)):
        raise InvalidInput(f"bad distance literal {text!r}: give an integer or a string")
    if isinstance(text, (int, Fraction)):
        value = Fraction(text)
    else:
        s = str(text).strip()
        if s.lower() in ("inf", "infinity", "oo"):
            return INF
        try:
            value = Fraction(s)
        except (ValueError, ZeroDivisionError):
            raise InvalidInput(f"bad distance literal {text!r}") from None
    return value


def format_dist(d) -> str:
    if d is INF:
        return "inf"
    if d.denominator == 1:
        return str(d.numerator)
    return f"{d.numerator}/{d.denominator}"


class QuasimetricSpace:
    """Ordered finite point set with an exact directed distance matrix.

    Instances are built through :func:`validate_space` (or
    :func:`digraph_to_space`) which checks the axioms; everything here is
    immutable after construction and safe to share.
    """

    __slots__ = ("points", "dist", "denom", "scaled", "_index", "_walk_steps", "_middles")

    def __init__(self, points, dist):
        self.points = tuple(points)
        self.dist = tuple(tuple(row) for row in dist)
        self._index = {p: i for i, p in enumerate(self.points)}
        finite = [d for row in self.dist for d in row if d is not INF]
        self.denom = lcm(1, *(d.denominator for d in finite))
        self.scaled = tuple(
            tuple(None if d is INF else int(d * self.denom) for d in row)
            for row in self.dist
        )
        self._walk_steps = {}
        self._middles = None

    def __len__(self):
        return len(self.points)

    def __eq__(self, other):
        return (
            isinstance(other, QuasimetricSpace)
            and self.points == other.points
            and self.dist == other.dist
        )

    def __hash__(self):
        return hash((self.points, self.dist))

    def __repr__(self):
        return f"QuasimetricSpace({list(self.points)!r}, {len(self)}x{len(self)})"

    def idx(self, label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownPoint(f"unknown point {label!r}") from None

    def d(self, i: int, j: int):
        """Distance by point index."""
        return self.dist[i][j]

    def d_of(self, x, y):
        """Distance by point label."""
        return self.dist[self.idx(x)][self.idx(y)]

    def to_units(self, grade):
        """A grade in units of 1/D; None when it is infinite or off the lattice."""
        if grade is INF:
            return None
        scaled = grade * self.denom
        return int(scaled) if scaled.denominator == 1 else None

    def floor_units(self, grade) -> int:
        """The largest lattice grade <= a finite grade, in units of 1/D."""
        return floor(grade * self.denom)

    def grade_of(self, units) -> Fraction:
        """The grade of a lattice point given in units of 1/D."""
        return Fraction(units, self.denom)

    def steps(self, distinct: bool):
        """Per point, the (next point, distance in units) pairs of a walk
        with finite steps; distinct=True leaves out staying put."""
        return [
            [(j, d) for j, d in enumerate(row) if d is not None and not (distinct and j == i)]
            for i, row in enumerate(self.scaled)
        ]

    def walk_steps(self, distinct: bool):
        """steps(distinct) with the least of its distances (0 when it has
        none), computed once per space and shared by every walk over it."""
        if distinct not in self._walk_steps:
            steps = self.steps(distinct)
            least = min((d for row in steps for _, d in row), default=0)
            self._walk_steps[distinct] = steps, least
        return self._walk_steps[distinct]

    @property
    def middles(self):
        """middles[a][c]: the frozenset of points b between a and c, that is
        with all three distances finite and d(a,b) + d(b,c) = d(a,c); it
        holds a and c themselves whenever d(a,c) is finite.  Built once, on
        first read, by walking every two finite steps a -> b -> c."""
        if self._middles is None:
            steps = self.steps(distinct=False)
            empty = frozenset()
            table = []
            for a, row in enumerate(self.scaled):
                found = {}
                for b, ab in steps[a]:
                    for c, bc in steps[b]:
                        if ab + bc == row[c]:  # never equal to None
                            found.setdefault(c, []).append(b)
                line = [empty] * len(row)
                for c, middle in found.items():
                    line[c] = frozenset(middle)
                table.append(tuple(line))
            self._middles = tuple(table)
        return self._middles

    def between_idx(self, i: int, j: int, k: int) -> bool:
        return j in self.middles[i][k]

    def finite_pairs(self):
        """All ordered pairs (i, j) with finite distance, including i == j."""
        n = len(self.points)
        return [
            (i, j) for i in range(n) for j in range(n) if self.dist[i][j] is not INF
        ]


def validate_space(points, matrix) -> QuasimetricSpace:
    """Check the quasimetric axioms and return the validated space.

    Raises an error naming the first violated axiom together with a witness:
    NonzeroDiagonal, ZeroOffDiagonal, or TriangleViolation(x, y, z).
    """
    points = tuple(points)
    if len(set(points)) != len(points):
        raise InvalidSpaceError("point labels must be distinct")
    n = len(points)
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise InvalidSpaceError(f"distance matrix must be {n}x{n}")
    dist = [[parse_dist(v) for v in row] for row in matrix]
    for i in range(n):
        for j in range(n):
            d = dist[i][j]
            if d is not INF and d < 0:
                raise InvalidSpaceError(
                    f"negative distance d({points[i]},{points[j]}) = {format_dist(d)}"
                )
    for i in range(n):
        if dist[i][i] != 0:
            raise NonzeroDiagonal(
                f"d({points[i]},{points[i]}) = {format_dist(dist[i][i])} != 0"
            )
    for i in range(n):
        for j in range(n):
            if i != j and dist[i][j] == 0:
                raise ZeroOffDiagonal(
                    f"d({points[i]},{points[j]}) = 0 with {points[i]} != {points[j]}"
                )
    for i in range(n):
        for j in range(n):
            dij = dist[i][j]
            if dij is INF:
                continue
            for k in range(n):
                if dij + dist[j][k] < dist[i][k]:
                    raise TriangleViolation(
                        f"d({points[i]},{points[j]}) + d({points[j]},{points[k]}) "
                        f"< d({points[i]},{points[k]}) "
                        f"(witness triple ({points[i]}, {points[j]}, {points[k]}))"
                    )
    return QuasimetricSpace(points, dist)


class Digraph:
    """Directed graph without loops or multiple arcs (set semantics)."""

    __slots__ = ("vertices", "arcs", "_succ")

    def __init__(self, vertices, arcs):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise InvalidSpaceError("vertex labels must be distinct")
        known = set(self.vertices)
        cleaned = set()
        for u, v in arcs:
            if u not in known or v not in known:
                raise UnknownPoint(f"arc ({u!r}, {v!r}) references unknown vertex")
            if u == v:
                raise InvalidSpaceError(f"loop at {u!r} not allowed")
            cleaned.add((u, v))
        self.arcs = frozenset(cleaned)
        succ = {v: [] for v in self.vertices}
        for u, v in sorted(self.arcs):
            succ[u].append(v)
        self._succ = succ

    def successors(self, v):
        return self._succ[v]

    def __eq__(self, other):
        return (
            isinstance(other, Digraph)
            and self.vertices == other.vertices
            and self.arcs == other.arcs
        )

    def __repr__(self):
        return f"Digraph({list(self.vertices)!r}, {sorted(self.arcs)!r})"


def digraph_to_space(graph: Digraph) -> QuasimetricSpace:
    """Shortest directed path metric of a digraph; INF where unreachable."""
    n = len(graph.vertices)
    index = {v: i for i, v in enumerate(graph.vertices)}
    dist = [[INF] * n for _ in range(n)]
    for source in graph.vertices:
        si = index[source]
        dist[si][si] = Fraction(0)
        queue = deque([source])
        seen = {source}
        while queue:
            u = queue.popleft()
            for w in graph.successors(u):
                if w not in seen:
                    seen.add(w)
                    dist[si][index[w]] = dist[si][index[u]] + 1
                    queue.append(w)
    return validate_space(graph.vertices, dist)


def between(space: QuasimetricSpace, x, y, z) -> bool:
    """True iff all three distances are finite and d(x,y) + d(y,z) = d(x,z)."""
    return space.between_idx(space.idx(x), space.idx(y), space.idx(z))


def opposite_space(space: QuasimetricSpace) -> QuasimetricSpace:
    """Transpose the distance matrix; the result is again a valid space."""
    n = len(space)
    transposed = [[space.dist[j][i] for j in range(n)] for i in range(n)]
    return validate_space(space.points, transposed)


def attainable_grades(space: QuasimetricSpace, l_max) -> list[Fraction]:
    """All grades of tuples with consecutive finite distances, up to l_max.

    Computed by dynamic programming on (point, accumulated grade) states, so
    only sums realized by actual walks are reported.  Always contains 0.  An
    infinite l_max raises InvalidInput: a directed cycle walks to every
    multiple of its length.
    """
    l_max = parse_dist(l_max)
    if l_max is INF:
        raise InvalidInput("l_max must be finite")
    cap = space.floor_units(l_max)
    steps = space.walk_steps(distinct=True)[0]
    reached = [{0} for _ in steps]
    frontier = [(i, 0) for i in range(len(steps))]
    while frontier:
        new_frontier = []
        for i, g in frontier:
            for j, d in steps[i]:
                g2 = g + d
                if g2 <= cap and g2 not in reached[j]:
                    reached[j].add(g2)
                    new_frontier.append((j, g2))
        frontier = new_frontier
    return [space.grade_of(g) for g in sorted({0}.union(*reached))]
