"""Seeded search: reproducibility, soundness of records, move mechanics."""

import gc
import hashlib
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from brute_force import relabeled
from cyclefactor import graphs, search
from cyclefactor.families import complete_looped, crossing_gadget, looped_bidirected_cycle
from cyclefactor.graphs import fingerprint, from_text, is_d_regular
from cyclefactor.search import (
    DEFAULT_SEED,
    SearchConfig,
    SearchRecord,
    SeedStream,
    apply_swap,
    random_regular_digraph,
    run_search,
    splitmix64,
    swap_move,
)
from cyclefactor.verify import Certificate, certify


def test_splitmix_is_pure():
    s1, out1 = splitmix64(0)
    s2, out2 = splitmix64(0)
    assert (s1, out1) == (s2, out2)
    assert 0 <= out1 < 1 << 64
    _, out_next = splitmix64(s1)
    assert out_next != out1


def test_seed_stream_reproduces():
    a, b = SeedStream(7), SeedStream(7)
    assert [a.next_seed() for _ in range(5)] == [b.next_seed() for _ in range(5)]
    r1, r2 = a.next_rng(), b.next_rng()
    assert r1.random() == r2.random()
    assert SeedStream(8).next_seed() != SeedStream(7).next_seed()


def test_config_validation():
    SearchConfig(6, 3, iterations=0)
    with pytest.raises(ValueError):
        SearchConfig(6, 1)
    with pytest.raises(ValueError):
        SearchConfig(7, 3)
    with pytest.raises(ValueError):
        SearchConfig(3, 4)
    with pytest.raises(ValueError):
        SearchConfig(6, 3, population=0)


@pytest.mark.parametrize("n,d", [(4, 2), (6, 3), (6, 2), (8, 4)])
def test_random_regular_digraph_is_regular(n, d):
    rng = random.Random(99)
    for _ in range(10):
        g = random_regular_digraph(n, d, rng)
        assert g.n == n and is_d_regular(g, d)


def test_random_regular_digraph_extremes():
    rng = random.Random(1)
    # n == d forces the complete looped digraph
    assert random_regular_digraph(4, 4, rng).out == complete_looped(4).out
    with pytest.raises(ValueError):
        random_regular_digraph(3, 4, rng)


def test_swap_is_a_present_arc_involution():
    rng = random.Random(5)
    g = random_regular_digraph(6, 3, rng)
    for _ in range(20):
        h = swap_move(g, rng)
        assert is_d_regular(h, 3)
        diff = set(g.arcs()) ^ set(h.arcs())
        if not diff:
            continue
        assert len(diff) == 4
        gained = sorted(set(h.arcs()) - set(g.arcs()))
        (u, y), (x, v) = gained if gained[0][0] < gained[1][0] else gained[::-1]
        back = apply_swap(h, (u, y), (x, v))
        assert back.out == g.out
        g = h


def test_swap_rejects_bad_pairs():
    g = complete_looped(3)
    with pytest.raises(ValueError):
        apply_swap(g, (0, 1), (0, 2))
    with pytest.raises(ValueError):
        apply_swap(g, (0, 1), (1, 2))  # would duplicate existing arcs
    # the looped clique admits no swap at all: every slot is occupied
    assert swap_move(g, random.Random(0)).out == g.out


def test_search_is_reproducible():
    cfg = SearchConfig(6, 3, seed=11, population=6, iterations=12)
    first = run_search(cfg)
    second = run_search(cfg)
    assert first == second
    changed = run_search(SearchConfig(6, 3, seed=12, population=6, iterations=12))
    assert changed != first


def test_search_records_are_sound():
    cfg = SearchConfig(6, 3, seed=DEFAULT_SEED, population=6, iterations=15)
    records = run_search(cfg)
    assert records
    excesses = [r.certificate.excess for r in records]
    assert excesses == sorted(excesses, reverse=True)
    assert len({r.fingerprint for r in records}) == len(records)
    for r in records[:3]:
        g, d_hint = from_text(r.certificate.graph_text)
        assert d_hint == 3
        again = certify(g, 3)
        assert again.excess == r.certificate.excess
        assert again.count == r.certificate.count
        assert again == r.certificate
    # every certificate of one search holds the same benchmark Fraction
    assert len({id(r.certificate.benchmark) for r in records}) == 1


def test_degree_two_search_never_beats_benchmark():
    cfg = SearchConfig(4, 2, seed=3, population=8, iterations=20)
    records = run_search(cfg)
    assert records
    assert all(r.certificate.excess <= 0 for r in records)
    assert records[0].certificate.excess == 0  # pair unions tie exactly


def test_sink_sees_every_leaderboard_entry():
    seen = []
    cfg = SearchConfig(6, 3, seed=4, population=4, iterations=8)
    records = run_search(cfg, sink=seen.append)
    by_fp = {}
    for rec in seen:
        by_fp[rec.fingerprint] = rec
    for rec in records:
        assert by_fp[rec.fingerprint].certificate.excess == rec.certificate.excess


def brute_form(g):
    # the least relabeled adjacency over all n! relabelings
    return min(relabeled(g.out))


def spy(monkeypatch, name):
    calls = []
    real = getattr(search, name)

    def wrapper(g, *args):
        calls.append(g)
        return real(g, *args)

    monkeypatch.setattr(search, name, wrapper)
    return calls


def test_search_certifies_each_isomorphism_class_once(monkeypatch):
    # every graph the search evaluates is put in canonical form first
    offered = spy(monkeypatch, "canonical_form")
    certified = spy(monkeypatch, "certify")
    run_search(SearchConfig(6, 3, seed=5, population=8, iterations=30))
    classes = {brute_form(g) for g in offered}
    assert len(offered) > len(classes)  # some isomorphs were offered
    assert len(certified) == len(classes)
    assert {brute_form(g) for g in certified} == classes


def test_each_labeled_graph_is_put_in_canonical_form_once(monkeypatch):
    # one counter at both bindings: the search's own and the one the
    # one-argument fingerprint reads, so a second form per class shows
    formed = []
    real_form = graphs.canonical_form

    def counted(g):
        formed.append(g)
        return real_form(g)

    monkeypatch.setattr(search, "canonical_form", counted)
    monkeypatch.setattr(graphs, "canonical_form", counted)
    produced = []

    def producing(name):
        real = getattr(search, name)

        def wrapper(*args):
            g = real(*args)
            produced.append(g)
            return g

        monkeypatch.setattr(search, name, wrapper)

    producing("random_regular_digraph")
    producing("swap_move")
    certified = spy(monkeypatch, "certify")
    run_search(SearchConfig(8, 4, seed=3, population=16, iterations=20))
    assert len(formed) == len(set(formed)) == len(set(produced))
    assert set(formed) == set(produced)
    assert len(certified) < len(formed)  # some graphs joined a class already certified


def test_search_keeps_no_graph_past_its_lineage():
    # the caches hold rank keys under integer keys, so the live digraphs are
    # the population, the graphs ranked this iteration and their children,
    # however many labeled graphs the search has met
    cfg = SearchConfig(8, 4, seed=2, population=16, iterations=60)

    def live():
        return sum(isinstance(o, graphs.DiGraph) for o in gc.get_objects())

    before = live()
    counts = []
    sunk = []

    def sink(rec):
        sunk.append(rec)
        if len(sunk) % 150 == 0:
            counts.append(live() - before)

    run_search(cfg, sink=sink)
    assert len(sunk) > 4 * 150  # classes met, each from a labeled graph or more
    assert len(counts) >= 4
    assert max(counts) <= 4 * cfg.population, counts


def test_search_keeps_records_only_on_its_leaderboard():
    # the caches hold each class's rank key, so the live records and
    # certificates are the leaderboard's and the one being sunk, however
    # many classes were met
    cfg = SearchConfig(8, 4, seed=2, population=16, iterations=60)

    def live():
        return sum(isinstance(o, (SearchRecord, Certificate)) for o in gc.get_objects())

    before = live()
    counts = []
    met = 0

    def sink(rec):
        nonlocal met
        met += 1
        if met % 150 == 0:
            counts.append(live() - before)

    run_search(cfg, sink=sink)
    assert met > 4 * 150
    assert len(counts) >= 4
    assert max(counts) <= 2 * cfg.population + 2, counts


def test_leaders_match_the_sorted_prefix():
    cert = certify(crossing_gadget(4)[0], 4)
    rng = random.Random(8)
    records = [
        SearchRecord(
            replace(cert, excess=Fraction(rng.randrange(-4, 1), 3)),
            rng.randrange(3),
            rng.randrange(3),
            str(i),  # tells apart records equal in every ranked field
        )
        for i in range(200)
    ]
    for size in (1, 5, 64, 200, 300):
        expected = sorted(
            records, key=lambda r: (-r.certificate.excess, r.fingerprint, r.iteration)
        )[:size]
        top = []
        for rec in records:
            search._admit(top, rec, size)
        assert top == expected


def test_swap_move_needs_equal_out_degrees():
    g = graphs.DiGraph(3, [[0, 1], [1], [2]])
    with pytest.raises(ValueError):
        swap_move(g, random.Random(0))


def test_swap_move_draws_arcs_in_arc_order():
    # the k-th arc drawn is the k-th of g.arcs(): replay the draws
    rng = random.Random(4)
    for _ in range(30):
        g = random_regular_digraph(8, 4, rng)
        state = rng.getstate()
        h = swap_move(g, rng)
        rng.setstate(state)
        arcs = list(g.arcs())
        for _ in range(search.SWAP_TRIES):
            (u, v), (x, y) = arcs[rng.randrange(len(arcs))], arcs[rng.randrange(len(arcs))]
            if u != x and v != y and not g.has_arc(u, y) and not g.has_arc(x, v):
                assert h == apply_swap(g, (u, v), (x, y))
                break
        else:
            assert h is g


def test_rank_key_orders_float_ties_by_the_exact_excess():
    cert = certify(crossing_gadget(4)[0], 4)
    low = Fraction(-1, 3)
    high = low + Fraction(1, 10**30)
    assert low < high and float(low) == float(high)
    # the higher excess has the larger fingerprint, so only the exact
    # excess can put it first
    a = SearchRecord(replace(cert, excess=high), 1, 2, "random")
    b = SearchRecord(replace(cert, excess=low), 1, 1, "random")
    for records in ([a, b], [b, a]):
        assert sorted(records, key=search._rank_key) == [a, b]
    c = SearchRecord(replace(cert, excess=high), 1, 1, "random")
    assert sorted([a, c], key=search._rank_key) == [c, a]


def test_fingerprint_collisions_drop_no_class(monkeypatch):
    # with every fingerprint equal, the leaderboard and the per-iteration
    # dedup still tell the classes apart by canonical form
    monkeypatch.setattr(search, "fingerprint", lambda g, form=None: 0)
    certified = spy(monkeypatch, "certify")
    drawn = spy(monkeypatch, "random_regular_digraph")
    cfg = SearchConfig(6, 3, seed=5, population=8, iterations=30)
    records = run_search(cfg)
    assert len(records) == min(cfg.population, len(certified)) == 8
    best = sorted((certify(g, 3).excess for g in certified), reverse=True)
    assert [r.certificate.excess for r in records] == best[: cfg.population]
    # no lineage is lost to a dedup collision and refilled by a fresh draw
    assert len(drawn) == cfg.population


def test_relabeled_isomorph_costs_no_certify_call(monkeypatch):
    base = random_regular_digraph(8, 4, random.Random(3))
    perms = [[(v * k) % 8 for v in range(8)] for k in (1, 3, 5, 7)]
    draws = iter([base.relabel(p) for p in perms])
    monkeypatch.setattr(search, "random_regular_digraph", lambda n, d, rng: next(draws))
    certified = spy(monkeypatch, "certify")
    records = run_search(SearchConfig(8, 4, population=4, iterations=0))
    assert certified == [base]
    assert [r.certificate for r in records] == [certify(base, 4)]


def test_looped_clique_start_is_fast():
    # n == d: every lineage is the looped clique, whose group has 8! elements
    start = time.perf_counter()
    records = run_search(SearchConfig(8, 8, population=2, iterations=3))
    assert time.perf_counter() - start < 0.5
    assert [r.certificate.excess for r in records] == [0]


# Recorded from run_search and fingerprint as of this file; a change to the
# seed stream, the ranking, the restarts or the fingerprint shows up here.
GOLDEN_LEADERBOARDS = [
    (
        SearchConfig(6, 3, seed=5, population=4, iterations=6),
        [
            (6, "2f89a17d8a95f16d", "d6474a34537c070b", "-11/30"),
            (3, "5a46f65ef6896a8b", "310a17dadd8edc47", "-7/18"),
            (5, "d6474a34537c070b", "5a46f65ef6896a8b", "-7/15"),
            (1, "214a2e574200956d", "30d63415d72473be", "-1/2"),
        ],
    ),
    (
        SearchConfig(8, 4, seed=7, population=16, iterations=20),
        [
            (19, "d2602c0315c3a73c", "e0c66b6f419ff7a8", "-41/399"),
            (20, "236a549f0591920f", "237f9a02fb72244d", "-49/402"),
            (8, "237f9a02fb72244d", "1afba14170ecd1ba", "-49/402"),
            (18, "081463e4627c1362", "f524fa0b109efbf2", "-65/408"),
            (9, "f524fa0b109efbf2", "237f9a02fb72244d", "-71/408"),
            (17, "21bbdcd8a5305649", "15b91043e4b5e0f3", "-2/11"),
            (19, "e4ce76947038de0c", "624c94a43fd689e3", "-38/201"),
            (17, "624c94a43fd689e3", "237f9a02fb72244d", "-10/51"),
            (17, "69b415a89f8ff370", "4839898c3e2e9f01", "-77/390"),
            (19, "c202b9080c7272ab", "237f9a02fb72244d", "-83/408"),
            (18, "7e4d6a5f8c3c576b", "87c286db161db2ef", "-83/399"),
            (13, "377f534cf5c5814c", "8897fe5942fd6e5c", "-9/43"),
            (20, "0f72aefdb336029e", "e4ce76947038de0c", "-91/402"),
            (20, "5d38b2348f960fc7", "f524fa0b109efbf2", "-46/195"),
            (18, "e0c66b6f419ff7a8", "377f534cf5c5814c", "-32/129"),
            (20, "834de16bcf4798d8", "15b91043e4b5e0f3", "-49/195"),
        ],
    ),
]


@pytest.mark.parametrize("cfg,expected", GOLDEN_LEADERBOARDS, ids=["n6d3", "n8d4"])
def test_search_matches_golden_leaderboard(cfg, expected):
    got = [
        (r.iteration, f"{r.fingerprint:016x}", r.lineage, str(r.certificate.excess))
        for r in run_search(cfg)
    ]
    assert got == expected


def test_search_matches_golden_sink_stream():
    # 100 iterations reach lineage restarts, which the leaderboards above do not
    seen = []
    run_search(SearchConfig(6, 3, seed=5, population=8, iterations=100), sink=seen.append)
    lines = "".join(
        f"{r.iteration} {r.fingerprint:016x} {r.lineage} {r.certificate.excess}\n" for r in seen
    )
    assert len(seen) == 149
    assert (
        hashlib.sha256(lines.encode()).hexdigest()
        == "1ae29812aad01078a74105abe66e903836b47fb5502ce7e9a4b5c88d1a6439bf"
    )


def test_fingerprint_matches_golden_values():
    # the d=3 gadget is the looped bidirected 6-cycle itself
    assert fingerprint(crossing_gadget(3)[0]) == 0x47727A5C661E29D1
    assert fingerprint(crossing_gadget(4)[0]) == 0x8BF87ADA9A0C23E7
    assert fingerprint(looped_bidirected_cycle(6)) == 0x47727A5C661E29D1
    assert fingerprint(complete_looped(4)) == 0xEED103D7AE67D749
