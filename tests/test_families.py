"""Family generators: regularity, sizes, labelings, and edge cases."""

import pytest

from cyclefactor.families import (
    complete_graph,
    complete_looped,
    complete_tripartite_222,
    crossing_gadget,
    cycle_graph,
    looped_bidirected_cycle,
    padded_gadget,
    three_block_splice,
)
from cyclefactor.graphs import DiGraph, disjoint_union, fingerprint, is_d_regular


def test_complete_looped_shape():
    g = complete_looped(4)
    assert g.n == 4 and g.num_arcs == 16 and g.loop_count == 4
    assert is_d_regular(g, 4)
    assert complete_looped(1).out == ((0,),)
    with pytest.raises(ValueError):
        complete_looped(0)


def test_looped_bidirected_cycle_shape():
    g = looped_bidirected_cycle(6)
    assert g.n == 6 and is_d_regular(g, 3) and g.loop_count == 6
    for v in range(6):
        assert set(g.out[v]) == {(v - 1) % 6, v, (v + 1) % 6}
    with pytest.raises(ValueError):
        looped_bidirected_cycle(3)


def gadget_classes(d):
    """Vertex ranges of the classes A1, B1, C1, A2, B2, C2, in cyclic order."""
    bounds = (0, 1, 2, d, d + 1, d + 2, 2 * d)
    return [set(range(a, b)) for a, b in zip(bounds, bounds[1:])]


@pytest.mark.parametrize("d", range(3, 13))
def test_crossing_gadget_is_d_regular(d):
    g, _ = crossing_gadget(d)
    assert g.n == 2 * d
    # the unchecked rows are in the checked constructor's form
    assert DiGraph(g.n, g.out).out == g.out
    assert is_d_regular(g, d)
    assert g.loop_count == 2 * d
    # each vertex's row is its class and the two classes beside it
    classes = gadget_classes(d)
    for i, cls in enumerate(classes):
        row = classes[i - 1] | cls | classes[(i + 1) % 6]
        for v in cls:
            assert set(g.out[v]) == row


@pytest.mark.parametrize("d", range(3, 9))
def test_crossing_arcs_are_the_only_half_cut(d):
    g, crossing = crossing_gadget(d)
    a1, b1, c1, a2, b2, c2 = gadget_classes(d)
    h1, h2 = b1 | c1 | a2, b2 | c2 | a1
    assert h1 | h2 == set(range(g.n)) and not h1 & h2
    cut = {
        (u, w)
        for u, w in g.arcs()
        if (u in h1) != (w in h1)
    }
    assert cut == set(crossing.values())
    # A1, B1, A2, B2 are one vertex each; u1: B1->A1, v1: A2->B2, u2: B2->A2, v2: A1->B1
    (x1,), (y1,), (x2,), (y2,) = a1, b1, a2, b2
    assert crossing == {"u1": (y1, x1), "v1": (x2, y2), "u2": (y2, x2), "v2": (x1, y1)}
    for u, w in crossing.values():
        assert g.has_arc(u, w)


def test_degree_three_gadget_is_the_looped_six_cycle():
    g, _ = crossing_gadget(3)
    h = looped_bidirected_cycle(6)
    assert g.out == h.out
    assert fingerprint(g) == fingerprint(h)


def test_gadget_rejects_small_degree():
    with pytest.raises(ValueError):
        crossing_gadget(2)


def test_padded_gadget_is_gadget_plus_cliques():
    g = padded_gadget(4, 3)
    assert g.n == 12 and is_d_regular(g, 3)
    gadget, _ = crossing_gadget(3)
    expect = disjoint_union([gadget, complete_looped(3), complete_looped(3)])
    assert g.out == expect.out
    assert padded_gadget(2, 5).out == crossing_gadget(5)[0].out
    with pytest.raises(ValueError):
        padded_gadget(1, 3)
    with pytest.raises(ValueError):
        padded_gadget(3, 2)


def test_cycle_and_clique():
    c = cycle_graph(5)
    assert {len(row) for row in c.adj} == {2} and c.num_edges == 5
    k = complete_graph(5)
    assert {len(row) for row in k.adj} == {4} and k.num_edges == 10
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_octahedron():
    g = complete_tripartite_222()
    assert g.n == 6 and {len(row) for row in g.adj} == {4} and g.num_edges == 12
    # non-edges are exactly the three part pairs
    non = [(u, v) for u in range(6) for v in range(u + 1, 6) if v not in g.adj[u]]
    assert non == [(0, 1), (2, 3), (4, 5)]


def test_three_block_splice_stays_regular():
    for m in (4, 5, 6):
        g = three_block_splice(m)
        assert g.n == 3 * m
        assert {len(row) for row in g.adj} == {m - 1}
    with pytest.raises(ValueError):
        three_block_splice(3)
