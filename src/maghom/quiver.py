"""Bound-quiver presentation of the distance algebra of a digraph.

Paths are vertex sequences along arcs.  The defining relations identify any
two shortest paths with the same endpoints (R1) and kill every minimal
non-shortest path (R2): a non-shortest path both of whose maximal proper
subpaths are shortest.  The quotient of the path algebra by the ideal these
generate has one basis class per ordered pair at each finite distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, UnknownPoint
from .distmod import shape_mismatch, times_entries
from .linalg import QQ, SparseMatrix, rank_over_field
from .space import INF, Digraph, QuasimetricSpace, digraph_to_space


def paths_of_length(graph: Digraph, length: int):
    """All directed paths with `length` arcs, as vertex tuples, sorted."""
    if length == 0:
        return [(v,) for v in graph.vertices]
    out = []

    def extend(path):
        if len(path) == length + 1:
            out.append(tuple(path))
            return
        for w in graph.successors(path[-1]):
            path.append(w)
            extend(path)
            path.pop()

    for v in graph.vertices:
        extend([v])
    return sorted(out)


def is_shortest(space: QuasimetricSpace, path) -> bool:
    return space.d_of(path[0], path[-1]) == len(path) - 1


@dataclass(frozen=True)
class QuiverRelations:
    """R1: unordered pairs of distinct shortest paths with equal endpoints.
    R2: minimal non-shortest paths."""

    r1: tuple  # ((path, path), ...) with path < path lexicographically
    r2: tuple  # (path, ...)


def _diameter(space: QuasimetricSpace) -> Fraction:
    """The largest finite distance of the space; 0 when it has no points."""
    return max((d for row in space.dist for d in row if d is not INF), default=Fraction(0))


def quiver_relations(graph: Digraph) -> QuiverRelations:
    """Enumerate R1 and R2 generators up to the natural length bound.

    Shortest paths never exceed the diameter; minimal non-shortest paths are
    one arc longer than a shortest subpath, so diameter + 1 covers both.
    """
    return _relations(graph, digraph_to_space(graph))


def _relations(graph: Digraph, space: QuasimetricSpace) -> QuiverRelations:
    """quiver_relations on the graph's space, built by the caller."""
    r1 = []
    r2 = []
    for length in range(2, int(_diameter(space)) + 2):
        groups = {}
        for p in paths_of_length(graph, length):
            if is_shortest(space, p):
                groups.setdefault((p[0], p[-1]), []).append(p)
            else:
                head, tail = p[:-1], p[1:]
                if is_shortest(space, head) and is_shortest(space, tail):
                    r2.append(p)
        for (_, _), group in sorted(groups.items()):
            for a in range(len(group)):
                for b in range(a + 1, len(group)):
                    r1.append((group[a], group[b]))
    return QuiverRelations(r1=tuple(sorted(r1)), r2=tuple(sorted(r2)))


def _relation_span_at(relations, length, paths, path_index):
    """Degree-`length` span of the ideal generated by the relations.

    Generators are padded on both sides by arbitrary paths, read from
    paths[k], the paths with k arcs; each padded element is a vector over
    the paths of the given length.
    """
    span = []
    gens = [(a, b) for a, b in relations.r1] + [(p, None) for p in relations.r2]
    for left_len in range(0, length + 1):
        for g1, g2 in gens:
            core_len = len(g1) - 1
            right_len = length - left_len - core_len
            if right_len < 0:
                continue
            for left in paths[left_len]:
                if left[-1] != g1[0]:
                    continue
                for right in paths[right_len]:
                    if right[0] != g1[-1]:
                        continue
                    vec = {}
                    p1 = left[:-1] + g1 + right[1:]
                    vec[path_index[p1]] = vec.get(path_index[p1], 0) + 1
                    if g2 is not None:
                        p2 = left[:-1] + g2 + right[1:]
                        vec[path_index[p2]] = vec.get(path_index[p2], 0) - 1
                    if vec:
                        span.append(vec)
    return span


@dataclass(frozen=True)
class PresentationReport:
    """Graded dimension comparison of path algebra mod relations vs distances."""

    graph_vertices: tuple
    dims: tuple  # ((grade, quotient_dim, pair_count), ...)
    admissible_exponent: int
    relations_inside_square: bool

    def ok(self):
        return self.relations_inside_square and all(q == p for _, q, p in self.dims)


def check_bound_quiver_presentation(graph: Digraph, l_max: int) -> PresentationReport:
    """Compare dim (paths mod relations) per grade with distance-pair counts.

    Also verifies the admissibility window: every relation has length >= 2,
    and all paths one longer than the longest shortest path reduce to zero.
    Raises DimensionMismatch when a grade disagrees or that power does not
    vanish (either would indicate a bug, not a property of the input).
    """
    space = digraph_to_space(graph)
    relations = _relations(graph, space)
    relations_inside_square = all(len(a) - 1 >= 2 for a, _ in relations.r1) and all(
        len(p) - 1 >= 2 for p in relations.r2
    )
    exponent = int(_diameter(space)) + 1
    paths = [paths_of_length(graph, length) for length in range(max(l_max, exponent) + 1)]
    dims = []
    for length, level in enumerate(paths):
        path_index = {p: k for k, p in enumerate(level)}
        span_vecs = _relation_span_at(relations, length, paths, path_index)
        if span_vecs:
            mat = SparseMatrix(len(level), len(span_vecs))
            for c, vec in enumerate(span_vecs):
                for r, v in vec.items():
                    mat.add_at(r, c, v)
            quotient_dim = len(level) - rank_over_field(mat, QQ)
        else:
            quotient_dim = len(level)
        pair_count = sum(
            1
            for i in range(len(space))
            for j in range(len(space))
            if space.d(i, j) == length
        )
        if length <= l_max:
            dims.append((length, quotient_dim, pair_count))
            if quotient_dim != pair_count:
                raise DimensionMismatch(
                    f"grade {length}: quotient dim {quotient_dim} != pair count {pair_count}"
                )
        if length == exponent and quotient_dim != 0:
            raise DimensionMismatch(
                f"paths of length {exponent} do not all reduce to zero"
            )
    return PresentationReport(
        graph_vertices=graph.vertices,
        dims=tuple(dims),
        admissible_exponent=exponent,
        relations_inside_square=relations_inside_square,
    )


@dataclass(frozen=True)
class RelationViolation:
    relation: tuple
    grade: Fraction
    detail: str


def check_representation_relations(graph: Digraph, rep) -> list:
    """Check a graded representation of the digraph against R1 and R2.

    rep is a distance module over the digraph's space restricted to arcs:
    vertices carry graded free pieces and each arc a degree-1 map.  Every R1
    pair must induce equal composites and every R2 path the zero composite,
    grade by grade.  A stored arc map of the wrong shape is reported on its
    own, and then nothing is composed.
    """
    space = digraph_to_space(graph)
    if rep.space != space:
        raise UnknownPoint("representation lives over a different vertex set")
    violations = []
    for u, v in sorted(graph.arcs):
        ui, vi = space.idx(u), space.idx(v)
        for g, mat in sorted(rep.actions.get((ui, vi), {}).items()):
            wrong = shape_mismatch(mat, rep.rank_at(vi, g + 1), rep.rank_at(ui, g))
            if wrong:
                detail = f"arc map {u}->{v} at grade {g} is {wrong}"
                violations.append(RelationViolation(relation=((u, v),), grade=g, detail=detail))
    if violations:
        return violations
    relations = _relations(graph, space)

    def composite(path, grade):
        """Nonzero entries of the composite map along a path of arcs; an arc
        with no map stored at its grade makes it zero."""
        cur = {(c, c): 1 for c in range(rep.rank_at(space.idx(path[0]), grade))}
        for u, v in zip(path, path[1:]):
            step = rep.actions.get((space.idx(u), space.idx(v)), {}).get(grade)
            if step is None:
                return {}
            cur = times_entries(step, cur)
            grade += 1
        return cur

    for g in rep.grades():
        for a, b in relations.r1:
            if rep.rank_at(space.idx(a[0]), g) == 0:
                continue
            if composite(a, g) != composite(b, g):
                violations.append(
                    RelationViolation(relation=(a, b), grade=g, detail="R1 composites differ")
                )
        for p in relations.r2:
            if rep.rank_at(space.idx(p[0]), g) == 0:
                continue
            if composite(p, g):
                violations.append(
                    RelationViolation(relation=(p,), grade=g, detail="R2 composite is nonzero")
                )
    return violations
