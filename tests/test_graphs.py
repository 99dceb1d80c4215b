"""Core graph containers, the text format, the fingerprint and the canonical form."""

import os
import random
import subprocess
import sys
import time
from hashlib import blake2b, sha256
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_force import relabeled
from cyclefactor import graphs
from cyclefactor.families import complete_looped, crossing_gadget
from cyclefactor.graphs import (
    DiGraph,
    UGraph,
    canonical_form,
    disjoint_union,
    double_cover,
    fingerprint,
    from_text,
    is_d_regular,
    to_text,
    u_disjoint_union,
    ugraph_to_digraph,
)
from cyclefactor.search import random_regular_digraph
from cyclefactor.verify import two_regular_candidates


def small_digraphs(max_n=7):
    # random adjacency as a strategy: n plus one out-set per vertex
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.sets(st.integers(0, n - 1), max_size=n), min_size=n, max_size=n
            ),
        )
    )


def test_digraph_rejects_bad_rows():
    with pytest.raises(ValueError):
        DiGraph(2, [[0, 0], [1]])
    with pytest.raises(ValueError):
        DiGraph(2, [[2], [0]])
    with pytest.raises(ValueError):
        DiGraph(2, [[0]])
    with pytest.raises(ValueError):
        DiGraph(-1, [])


def test_digraph_basics():
    g = DiGraph(3, [[1, 0], [2], [0, 2]])
    assert g.out == ((0, 1), (2,), (0, 2))
    assert g.in_adj == ((0, 2), (0,), (1, 2))
    assert g.has_arc(0, 1) and not g.has_arc(1, 0)
    assert g.num_arcs == 5
    assert g.loop_count == 2
    assert len(g.out[0]) == 2 and len(g.in_adj[0]) == 2
    assert list(g.arcs()) == [(0, 0), (0, 1), (1, 2), (2, 0), (2, 2)]


def test_regularity_and_union():
    a = DiGraph(2, [[0, 1], [0, 1]])
    assert is_d_regular(a, 2)
    u = disjoint_union([a, a, a])
    assert u.n == 6 and is_d_regular(u, 2)
    assert u.has_arc(4, 5) and not u.has_arc(0, 2)


def test_relabel_preserves_structure():
    g = DiGraph(3, [[1], [2], [0]])
    h = g.relabel([2, 0, 1])
    assert h.num_arcs == 3
    assert sorted(len(h.out[v]) for v in range(3)) == [1, 1, 1]
    assert h.has_arc(2, 0)


def test_ugraph_rejects_loops():
    with pytest.raises(ValueError):
        UGraph(2, [(0, 0)])


def test_ugraph_basics():
    g = UGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert {len(row) for row in g.adj} == {2}
    assert g.num_edges == 4
    assert 0 in g.adj[3] and 2 not in g.adj[0]
    uu = u_disjoint_union([g, g])
    assert uu.n == 8 and uu.num_edges == 8


def test_double_cover_shape():
    g = DiGraph(2, [[0, 1], [0, 1]])
    b = double_cover(g)
    assert b.n_left == b.n_right == 2
    rows = b.biadjacency_rows()
    assert [sum(r) for r in rows] == [2, 2]
    assert [sum(c) for c in zip(*rows)] == [2, 2]
    assert sorted(b.edges) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_text_round_trip_fixed():
    g = DiGraph(3, [[0, 1], [2], [0]])
    text = to_text(g, 2)
    g2, hint = from_text(text)
    assert g2 == g and hint == 2


def test_text_rejects_malformed():
    with pytest.raises(ValueError):
        from_text("2 1\n0: 1 1\n1: 0\n")
    with pytest.raises(ValueError):
        from_text("2 1\n1: 0\n0: 1\n")
    with pytest.raises(ValueError):
        from_text("1 1\n")


@settings(max_examples=60)
@given(small_digraphs())
def test_text_round_trip_random(data):
    n, rows = data
    g = DiGraph(n, [sorted(r) for r in rows])
    g2, hint = from_text(to_text(g))
    assert g2 == g and hint == -1


@settings(max_examples=40)
@given(small_digraphs(), st.randoms(use_true_random=False))
def test_fingerprint_relabel_invariant(data, rnd):
    n, rows = data
    g = DiGraph(n, [sorted(r) for r in rows])
    perm = list(range(n))
    rnd.shuffle(perm)
    assert fingerprint(g) == fingerprint(g.relabel(perm))


def test_fingerprint_of_a_given_form_is_the_fingerprint():
    rng = random.Random(11)
    for n, d in [(1, 1), (6, 2), (8, 4), (12, 3), (16, 4)]:
        for _ in range(5):
            g = random_regular_digraph(n, d, rng)
            assert fingerprint(g, canonical_form(g)[0]) == fingerprint(g)


def test_fingerprint_digest_is_hashlibs_blake2b():
    # the same object, so fingerprints stay what they were under hashlib
    assert graphs.blake2b is blake2b


def test_fingerprints_are_pinned():
    assert fingerprint(crossing_gadget(4)[0]) == 0x8BF87ADA9A0C23E7
    assert fingerprint(complete_looped(5)) == 0xA1CD53D2DD8E7E89


def test_importing_the_package_loads_no_openssl():
    # in a child process: pytest and several test modules import hashlib
    src = str(Path(graphs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, cyclefactor, cyclefactor.cli; print(sorted(m for m in"
        " ('hashlib', '_hashlib', '_ssl') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_fingerprint_separates_easy_cases():
    a = DiGraph(2, [[0, 1], [0, 1]])
    b = DiGraph(2, [[1], [0]])
    assert fingerprint(a) != fingerprint(b)


def brute_automorphisms(g):
    return sum(rows == g.out for rows in relabeled(g.out))


def assert_canonical_under_relabeling(g, rng, trials=5):
    rows, aut = canonical_form(g)
    # the form is a relabeling of g, so it is its own form
    assert canonical_form(DiGraph(g.n, rows)) == (rows, aut)
    for _ in range(trials):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_form(g.relabel(perm)) == (rows, aut)


def test_canonical_form_under_seeded_relabelings():
    rng = random.Random(20260)
    for d in (3, 4):
        for n in range(d, 9):
            for _ in range(3):
                g = random_regular_digraph(n, d, rng)
                assert_canonical_under_relabeling(g, rng)
        assert_canonical_under_relabeling(crossing_gadget(d)[0], rng)
    gadget = crossing_gadget(3)[0]
    assert canonical_form(gadget)[1] == brute_automorphisms(gadget)


# up to 720 leaves and 720 brute-force permutations per example
@settings(max_examples=40, deadline=None)
@given(small_digraphs(max_n=6), st.randoms(use_true_random=False))
def test_canonical_form_of_arbitrary_digraphs(data, rnd):
    n, rows = data
    g = DiGraph(n, [sorted(r) for r in rows])
    assert_canonical_under_relabeling(g, rnd, trials=2)
    assert canonical_form(g)[1] == brute_automorphisms(g)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_automorphism_counts_of_two_regular_classes(n):
    for rows in {canonical_form(g)[0] for g in two_regular_candidates(n)}:
        g = DiGraph(n, rows)
        assert canonical_form(g)[1] == brute_automorphisms(g)


def test_canonical_form_separates_and_counts_small_cases():
    loop_cycle = DiGraph(5, [[v, (v + 1) % 5] for v in range(5)])
    assert canonical_form(loop_cycle)[1] == 5
    assert canonical_form(complete_looped(4))[1] == 24
    assert canonical_form(DiGraph(0, [])) == ((), 1)
    a = DiGraph(3, [[1], [2], [0]])
    b = DiGraph(3, [[0], [2], [1]])
    assert canonical_form(a) != canonical_form(b)
    assert canonical_form(a)[1] == 3 and canonical_form(b)[1] == 2


def timed_automorphisms(g):
    start = time.perf_counter()
    aut = canonical_form(g)[1]
    return aut, time.perf_counter() - start


# orbit pruning visits a few leaves per orbit; without it each of these
# graphs would take at least |Aut| leaves (seconds at 40,320 already)
@pytest.mark.parametrize("d", range(4, 9))
def test_crossing_gadget_automorphisms_are_counted_without_visiting_them(d):
    # 4 symmetries of the ring of classes times each big class's own
    aut, seconds = timed_automorphisms(crossing_gadget(d)[0])
    assert aut == 4 * factorial(d - 2) ** 2
    assert seconds < 0.5


def test_clique_automorphisms_are_counted_without_visiting_them():
    aut, seconds = timed_automorphisms(complete_looped(8))
    assert (aut, seconds < 0.5) == (40_320, True)
    aut, seconds = timed_automorphisms(disjoint_union([complete_looped(4)] * 4))
    assert (aut, seconds < 0.5) == (24**4 * factorial(4), True)


def refinements(monkeypatch, g):
    calls = []
    real = graphs._refine
    monkeypatch.setattr(graphs, "_refine", lambda *args: calls.append(1) or real(*args))
    canonical_form(g)
    return len(calls)


def test_refinements_grow_with_n_not_with_the_group(monkeypatch):
    # about n^2/2 each; without orbit pruning or without the return to
    # where the paths part, several times that
    assert refinements(monkeypatch, complete_looped(16)) < 16**2
    assert refinements(monkeypatch, crossing_gadget(12)[0]) < 24**2


def test_refine_stops_at_a_discrete_partition(monkeypatch):
    # a discrete partition is equitable: one signature pass gives the
    # quotient, and no cell is split to confirm that none splits
    g = crossing_gadget(4)[0]
    colour = random.Random(4).sample(range(g.n), g.n)
    calls = []
    real = graphs._cells
    monkeypatch.setattr(graphs, "_cells", lambda sig: calls.append(1) or real(sig))
    width = g.n.bit_length()
    signatures = [
        (colour[v],
         sum(1 << width * colour[w] for w in g.out[v]),
         sum(1 << width * colour[w] for w in g.in_adj[v]))
        for v in range(g.n)
    ]
    assert graphs._refine(colour, g.out, g.in_adj) == (colour, tuple(sorted(signatures)))
    assert calls == []


def pinned_graphs():
    # the 170 two-regular classes with n <= 6, 200 random (8, 4) digraphs
    # and the crossing gadgets of degrees 3 to 8
    yield from (g for n in range(2, 7) for g in two_regular_candidates(n))
    yield from (random_regular_digraph(8, 4, random.Random(k)) for k in range(200))
    yield from (crossing_gadget(d)[0] for d in range(3, 9))


# count and leading sha256 hex digits of repr([canonical_form(g) for g in
# pinned_graphs()]), recorded before refinement stopped at discrete
# partitions: a change to the colour order or the leaf order fails here
CANONICAL_PIN = (376, "f8f04ad4d742bde2")


def test_canonical_forms_are_pinned():
    forms = [canonical_form(g) for g in pinned_graphs()]
    assert (len(forms), sha256(repr(forms).encode()).hexdigest()[:16]) == CANONICAL_PIN


def grid_cayley(steps):
    # the Cayley digraph of Z_4 x Z_4 with the given steps
    return DiGraph(
        16, [[4 * ((a + x) % 4) + (b + y) % 4 for x, y in steps] for a in range(4) for b in range(4)]
    )


def test_canonical_form_where_refinement_cannot_tell_subtrees_apart():
    # the Shrikhande and the 4x4 rook's graph are both strongly regular
    # (16, 6, 2, 2): a vertex individualized in either gives equal
    # quotients, so subtrees with equal traces need not be images of each
    # other, and pruning one of them as if it were loses the least leaf
    shrikhande = grid_cayley([(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)])
    rook = grid_cayley([(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)])
    ring = DiGraph(16, [[(v + s) % 16 for s in (1, 2, 3, 13, 14, 15)] for v in range(16)])
    assert canonical_form(shrikhande)[1] == 192
    assert canonical_form(rook)[1] == 1152
    rng = random.Random(48)
    for parts in ([ring, shrikhande, rook], [ring, rook, shrikhande]):
        g = disjoint_union(parts)
        rows, aut = canonical_form(g)
        assert aut == 32 * 192 * 1152
        assert_canonical_under_relabeling(g, rng, trials=3)


def parse_rows(spec):
    return DiGraph(8, [[int(w) for w in token.partition(":")[2]] for token in spec.split()])


def test_fingerprint_collides_where_the_canonical_form_does_not():
    # two 4-regular digraphs on 8 vertices with excesses -19/105 and -37/51
    # that colour refinement cannot tell apart; the canonical form's digest can
    a = parse_rows("0:0345 1:0127 2:1247 3:0357 4:1246 5:0356 6:3456 7:1267")
    b = parse_rows("0:2346 1:1345 2:0246 3:1357 4:0157 5:0145 6:0267 7:2367")
    assert fingerprint(a) != fingerprint(b)
    assert canonical_form(a) != canonical_form(b)
    assert b.out not in relabeled(a.out)


def test_undirected_encoding_round_trip():
    u = UGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    d = ugraph_to_digraph(u)
    assert list(d.arcs()) == [
        (0, 1), (0, 3), (1, 0), (1, 2), (2, 1), (2, 3), (3, 0), (3, 2)
    ]
