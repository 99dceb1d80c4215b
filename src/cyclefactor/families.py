"""Generators for the graph families used throughout the project.

Directed families: complete looped digraphs, looped bidirected cycles, the
six-class crossing gadget (the degree-d counterexample construction), and
its clique-padded extensions.  Undirected families: cycles, cliques, the
octahedron K_{2,2,2}, and the three-block clique splice.
"""

from __future__ import annotations

from .graphs import Arc, DiGraph, UGraph, disjoint_union


def complete_looped(m: int) -> DiGraph:
    """Complete looped digraph on m vertices: every ordered pair is an arc."""
    if m < 1:
        raise ValueError("complete looped digraph needs at least one vertex")
    return DiGraph(m, [range(m)] * m)


def looped_bidirected_cycle(n: int) -> DiGraph:
    """3-regular digraph on Z_n with arcs i->i, i->i+1, i->i-1 (mod n)."""
    if n < 4:
        raise ValueError("need n >= 4: below that the three arcs collide mod n")
    return DiGraph(n, [[(v - 1) % n, v, (v + 1) % n] for v in range(n)])


def crossing_gadget(d: int) -> tuple[DiGraph, dict[str, Arc]]:
    """The 2d-vertex d-regular gadget and its four named crossing arcs.

    Six classes A1, B1, C1, A2, B2, C2 of sizes 1, 1, d-2, 1, 1, d-2 take
    the vertices 0..2d-1 in order.  Each class is internally complete
    looped; consecutive classes in the cyclic order are joined by all arcs
    in both directions.  The crossing arcs u1: B1->A1, v1: A2->B2,
    u2: B2->A2, v2: A1->B1 are exactly the arcs between the two halves
    D1 = B1+C1+A2 and D2 = B2+C2+A1.  For d=3 the graph is arc-identical
    to looped_bidirected_cycle(6).
    """
    if d < 3:
        raise ValueError("gadget needs d >= 3 so the C classes are nonempty")
    n = 2 * d
    # the classes run through 0..n-1 in order
    bounds = (0, 1, 2, d, d + 1, d + 2, n)
    classes = [range(a, b) for a, b in zip(bounds, bounds[1:])]
    # a vertex's row is its class and the two classes beside it: three
    # distinct classes, so the sorted row is in range and free of duplicates
    rows = []
    for i, cls in enumerate(classes):
        rows += [tuple(sorted([*classes[i - 1], *cls, *classes[(i + 1) % 6]]))] * len(cls)
    crossing = {
        "u1": (1, 0),          # B1 -> A1
        "v1": (d, d + 1),      # A2 -> B2
        "u2": (d + 1, d),      # B2 -> A2
        "v2": (0, 1),          # A1 -> B1
    }
    return DiGraph._of_rows(tuple(rows)), crossing


def padded_gadget(k: int, d: int) -> DiGraph:
    """The kd-vertex d-regular graph: crossing gadget plus k-2 looped cliques."""
    if k < 2:
        raise ValueError("need k >= 2 (k=2 is the bare gadget)")
    gadget, _ = crossing_gadget(d)
    return disjoint_union([gadget] + [complete_looped(d)] * (k - 2))


# ---------------------------------------------------------------------------
# Undirected families
# ---------------------------------------------------------------------------


def cycle_graph(n: int) -> UGraph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return UGraph(n, [(v, (v + 1) % n) for v in range(n)])


def complete_graph(m: int) -> UGraph:
    if m < 1:
        raise ValueError("clique needs m >= 1")
    return UGraph(m, [(u, v) for u in range(m) for v in range(u + 1, m)])


def complete_tripartite_222() -> UGraph:
    """K_{2,2,2}, the octahedron: 4-regular, 12 edges."""
    parts = [(0, 1), (2, 3), (4, 5)]
    edges = [
        (u, v)
        for i, p in enumerate(parts)
        for q in parts[i + 1 :]
        for u in p
        for v in q
    ]
    return UGraph(6, edges)


def three_block_splice(m: int) -> UGraph:
    """Three K_m blocks, one edge deleted per block, exposed ends rejoined cyclically.

    In block i the deleted edge is {a_i, b_i} with a_i, b_i the two
    lowest-indexed vertices of the block; the new edges are b_1-a_2,
    b_2-a_3, b_3-a_1.  The result is (m-1)-regular on 3m vertices.
    """
    if m < 4:
        raise ValueError("splice needs m >= 4")
    edges = []
    anchors = []
    for i in range(3):
        off = i * m
        a, b = off, off + 1
        anchors.append((a, b))
        for u in range(m):
            for v in range(u + 1, m):
                if (off + u, off + v) != (a, b):
                    edges.append((off + u, off + v))
    for i in range(3):
        edges.append((anchors[i][1], anchors[(i + 1) % 3][0]))
    return UGraph(3 * m, edges)
