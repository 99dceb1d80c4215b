"""Seeded search: reproducibility, soundness of records, move mechanics."""

import hashlib
import random

import pytest

from cyclefactor.families import complete_looped, crossing_gadget, looped_bidirected_cycle
from cyclefactor.graphs import fingerprint, from_text, is_d_regular
from cyclefactor.search import (
    DEFAULT_SEED,
    SearchConfig,
    SeedStream,
    apply_swap,
    random_regular_digraph,
    run_search,
    splitmix64,
    swap_move,
)
from cyclefactor.verify import certify


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


# Recorded from run_search and fingerprint as of this file; a change to the
# seed stream, the ranking, the restarts or the fingerprint shows up here.
GOLDEN_LEADERBOARDS = [
    (
        SearchConfig(6, 3, seed=5, population=4, iterations=6),
        [
            (6, "31cd1c1ef2545c4b", "9252e9680014acf2", "-11/30"),
            (3, "b9fd0296d717a26d", "710b4a75c1bfc82a", "-7/18"),
            (5, "9252e9680014acf2", "b9fd0296d717a26d", "-7/15"),
            (3, "08031a52dd3f5892", "516cf36b99ca6ac7", "-1/2"),
        ],
    ),
    (
        SearchConfig(8, 4, seed=7, population=16, iterations=20),
        [
            (19, "43a60e741b74c6fc", "233d63a2772e0b54", "-41/408"),
            (20, "22bba615a5b4577b", "911ad1c0d6a90645", "-49/402"),
            (8, "911ad1c0d6a90645", "1464ba7c0cf938db", "-49/402"),
            (15, "a756e54cc777af1e", "c526f95e19870af6", "-13/105"),
            (18, "a187ee51ff047531", "00700cc0656bc50b", "-65/408"),
            (9, "00700cc0656bc50b", "911ad1c0d6a90645", "-71/408"),
            (17, "e73eced24fa3fd2d", "911ad1c0d6a90645", "-10/51"),
            (17, "826fed78663c9817", "19bf618492ff247c", "-77/390"),
            (13, "aa8e93198ece07f2", "762db70568fc1ff1", "-19/96"),
            (19, "5fcf126889fd6312", "911ad1c0d6a90645", "-83/408"),
            (17, "403a5e9fa7fec1ab", "aa8e93198ece07f2", "-85/402"),
            (16, "ac1925d1da683645", "6ad1133a9ebec75f", "-14/57"),
            (16, "bdd2c5af0ad95557", "233d63a2772e0b54", "-1/4"),
            (18, "46871b5eb11f668e", "780465954cff0e59", "-49/195"),
            (18, "d8dd5f64697aebbb", "5e5213c384e24d98", "-13/51"),
            (14, "c526f95e19870af6", "6ad1133a9ebec75f", "-113/408"),
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
    assert len(seen) == 144
    assert (
        hashlib.sha256(lines.encode()).hexdigest()
        == "a43593cd845b4e5eeb8793ed3354bf14d1fecede1b6aadaf6bf8cbeea123f79f"
    )


def test_fingerprint_matches_golden_values():
    # the d=3 gadget is the looped bidirected 6-cycle itself
    assert fingerprint(crossing_gadget(3)[0]) == 0xDFE34B2EE0886AC3
    assert fingerprint(crossing_gadget(4)[0]) == 0x8E47928C948D73F9
    assert fingerprint(looped_bidirected_cycle(6)) == 0xDFE34B2EE0886AC3
    assert fingerprint(complete_looped(4)) == 0x048B039C46EB7E46
