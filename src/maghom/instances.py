"""Small named spaces and digraphs used throughout tests and demos."""

from __future__ import annotations

from .space import Digraph, QuasimetricSpace, digraph_to_space, validate_space

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def k2() -> QuasimetricSpace:
    """Two points at mutual distance 1."""
    return validate_space(["x", "y"], [[0, 1], [1, 0]])


def x2_digraph() -> Digraph:
    """A single arc a -> b."""
    return Digraph(["a", "b"], [("a", "b")])


def x2() -> QuasimetricSpace:
    return digraph_to_space(x2_digraph())


def directed_cycle(n: int) -> Digraph:
    verts = [_LETTERS[i] for i in range(n)]
    arcs = [(verts[i], verts[(i + 1) % n]) for i in range(n)]
    return Digraph(verts, arcs)


def c3() -> QuasimetricSpace:
    return digraph_to_space(directed_cycle(3))


def diamond_digraph() -> Digraph:
    """Two shortest paths a -> b -> d and a -> c -> d."""
    return Digraph(["a", "b", "c", "d"], [("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")])


def tournaments3() -> list[Digraph]:
    """All 8 labeled tournaments on vertices a, b, c."""
    out = []
    pairs = [("a", "b"), ("a", "c"), ("b", "c")]
    for mask in range(8):
        arcs = []
        for bit, (u, v) in enumerate(pairs):
            arcs.append((u, v) if mask & (1 << bit) else (v, u))
        out.append(Digraph(["a", "b", "c"], arcs))
    return out


def k2_digraph() -> Digraph:
    return Digraph(["x", "y"], [("x", "y"), ("y", "x")])


def standard_suite_digraphs() -> list[tuple[str, Digraph]]:
    named = [
        ("X2", x2_digraph()),
        ("K2", k2_digraph()),
        ("C3", directed_cycle(3)),
        ("C4", directed_cycle(4)),
        ("C5", directed_cycle(5)),
        ("diamond", diamond_digraph()),
    ]
    for i, t in enumerate(tournaments3()):
        named.append((f"T3_{i}", t))
    return named


def standard_suite() -> list[tuple[str, QuasimetricSpace]]:
    """The instances exercised by the crosscheck and ring test batteries:
    the single arc, the symmetric pair, directed cycles of length 3..5, the
    diamond, and every labeled tournament on three vertices."""
    return [(name, digraph_to_space(graph)) for name, graph in standard_suite_digraphs()]
