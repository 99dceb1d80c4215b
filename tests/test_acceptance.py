"""Acceptance gate: the ten headline claims, each with its runtime budget.

Every test times its operative work with time.perf_counter and fails when
the stated budget is exceeded, so a pass here certifies both the values
and the performance envelope.  The degree-7, degree-8 and degree-12
cross-validation legs, the 7- and 8-vertex legs of the 2-regular suite and
the 8-vertex degree-4 search carry the slow marker.  The search is the one
expensive leg: the degree legs build the gadget's factor table on the
frontier engine, in about 3 ms and 7 ms, where a walk over every factor
took about 40 s at degree 7, and the degree-12 leg checks
every degree through 12 in about 1.5 s; the 2-regular suite covers the
190,711,867 labeled graphs with n <= 8 through their 5,936 isomorphism
classes in about 3 s, and `expect --edge-usage` gives the per-arc usage
of the degree-8 gadget in about 10 ms, by the frontier engine's backward
pass, where a walk over its 1,047,168,000 factors took about 20 min, and
of the 60-vertex padded degree-12 gadget in about 6 ms, its twin heads
merged, where one frontier per labelled head set took about 2.5 s.
"""

import json
import random
import time
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from brute_force import (
    closed_cycles_in,
    excess_numerator_positive,
    partial_perm_count,
    partial_perm_cycle_sum,
    restricted,
)
from cyclefactor.cli import main
from cyclefactor.enumeration import (
    cycle_factor_stats,
    ryser_permanent,
    two_factor_stats,
)
from cyclefactor.exact import benchmark_excess, harmonic, scaled_excess
from cyclefactor.families import (
    complete_graph,
    complete_looped,
    complete_tripartite_222,
    crossing_gadget,
    cycle_graph,
    looped_bidirected_cycle,
    padded_gadget,
)
from cyclefactor.graphs import DiGraph, double_cover, to_text, u_disjoint_union
from cyclefactor.search import SearchConfig, run_search
from cyclefactor.verify import (
    certify,
    gadget_cross_validation,
    looped_cycle_suite,
    two_regular_suite,
)


class Budget:
    """Context manager asserting the block finishes inside `seconds`."""

    def __init__(self, label, seconds):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        print(f"{self.label}: {elapsed:.2f}s (budget {self.seconds}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.label} took {elapsed:.2f}s, budget {self.seconds}s"
            )
        return False


def test_c01_looped_six_cycle_exact_profile():
    with Budget("criterion 1", 1.0):
        stats = cycle_factor_stats(looped_bidirected_cycle(6))
        assert stats.count == 20
        assert stats.histogram == {1: 2, 3: 2, 4: 9, 5: 6, 6: 1}
        assert stats.mean() == Fraction(4)
        benchmark = 2 * harmonic(3)
        assert benchmark == Fraction(11, 3)
        assert stats.mean() - benchmark == Fraction(1, 3)


def test_c02_gadget_closed_forms_cross_validated():
    with Budget("criterion 2 (d<=6)", 5.0):
        report = gadget_cross_validation(6)
        assert report.ok, report.failures
        assert report.checked == 4


@pytest.mark.slow
def test_c02_degree_seven_leg():
    with Budget("criterion 2 (d=7)", 10.0):
        report = gadget_cross_validation(7)
        assert report.ok, report.failures


@pytest.mark.slow
def test_c02_degree_eight_leg():
    with Budget("criterion 2 (d=8)", 5.0):
        report = gadget_cross_validation(8)
        assert report.ok, report.failures
        assert report.checked == 6


@pytest.mark.slow
def test_c02_degree_twelve_leg():
    with Budget("criterion 2 (d=12)", 20.0):
        report = gadget_cross_validation(12)
        assert report.ok, report.failures
        assert report.checked == 10


def test_c03_excess_positivity_and_scaled_limit():
    with Budget("criterion 3", 1.0):
        assert excess_numerator_positive(500)
        for d in range(3, 501):
            assert benchmark_excess(d) > 0
        assert Fraction(29, 5) < scaled_excess(500) < Fraction(31, 5)


def test_c04_padded_gadget_margins():
    with Budget("criterion 4", 10.0):
        for k, d in ((3, 3), (4, 3), (3, 4), (3, 6), (4, 6), (3, 8)):
            cert = certify(padded_gadget(k, d), d)
            assert cert.expectation == k * harmonic(d) + benchmark_excess(d)
            assert cert.expectation > k * harmonic(d)
            assert cert.excess == benchmark_excess(d)


def test_c05_two_regular_exhaustive_suite():
    with Budget("criterion 5", 5.0):
        report = two_regular_suite(6)
        assert report.ok, report.failures[:3]
        assert report.checked == 1 + 6 + 90 + 2040 + 67950


@pytest.mark.slow
def test_c05_two_regular_order_seven_leg():
    with Budget("criterion 5 (n=7)", 5.0):
        report = two_regular_suite(7)
        assert report.ok, report.failures[:3]
        assert report.checked == 1 + 6 + 90 + 2040 + 67950 + 3110940


@pytest.mark.slow
def test_c05_two_regular_order_eight_leg():
    with Budget("criterion 5 (n=8)", 10.0):
        report = two_regular_suite(8)
        assert report.ok, report.failures[:3]
        assert report.checked == 190711867


def test_c05_edge_usage_of_the_degree_eight_gadget(tmp_path, capsys):
    # per-arc usage from the frontier engine's backward pass, without a
    # walk over the gadget's 1,047,168,000 factors: each tail's arcs, and
    # each head's, split the factors between them
    path = tmp_path / "gadget8.txt"
    path.write_text(to_text(crossing_gadget(8)[0], 8))
    with Budget("expect --edge-usage (gadget d=8)", 10.0):
        assert main(["expect", "--graph", str(path), "--edge-usage"]) == 0
        # read before the budget prints its own line
        doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 1047168000
    by_tail, by_head = {}, {}
    for arc, used in doc["edge_usage"].items():
        tail, head = arc.split("->")
        by_tail[tail] = by_tail.get(tail, 0) + used
        by_head[head] = by_head.get(head, 0) + used
    assert len(by_tail) == len(by_head) == 16
    assert set(by_tail.values()) == set(by_head.values()) == {1047168000}


def test_c05_edge_usage_of_the_padded_degree_twelve_gadget(tmp_path, capsys):
    # the conjecture's extremal shape beside the gadget: three K_12 looped
    # copies (vertices 24..59) next to the d = 12 gadget, 60 vertices.  Each
    # copy's heads merge into one token, so the backward pass steps a few
    # frontiers per level, where one frontier per labelled head set took
    # about 2.5 s; a factor is a uniform permutation of each copy, which
    # takes each of its arcs in 1/12 of the factors
    path = tmp_path / "padded12.txt"
    path.write_text(to_text(padded_gadget(5, 12), 12))
    with Budget("expect --edge-usage (padded gadget k=5, d=12)", 1.0):
        assert main(["expect", "--graph", str(path), "--edge-usage"]) == 0
        # read before the budget prints its own line
        doc = json.loads(capsys.readouterr().out)
    count = doc["count"]
    assert count % 12 == 0
    by_tail, by_head, clique = {}, {}, []
    for arc, used in doc["edge_usage"].items():
        tail, head = map(int, arc.split("->"))
        by_tail[tail] = by_tail.get(tail, 0) + used
        by_head[head] = by_head.get(head, 0) + used
        if tail >= 24:
            assert (tail - 24) // 12 == (head - 24) // 12
            clique.append(used)
    assert len(by_tail) == len(by_head) == 60
    assert set(by_tail.values()) == set(by_head.values()) == {count}
    assert clique == [count // 12] * (3 * 12 * 12)


def test_c06_looped_cycle_classification():
    with Budget("criterion 6", 5.0):
        report = looped_cycle_suite(12)
        assert report.ok, report.failures


def iter_partial_permutations(n):
    """Every injective arc set on [n]: tails chosen, heads injected."""
    for r in range(n + 1):
        for tails in combinations(range(n), r):
            for heads in permutations(range(n), r):
                yield dict(zip(tails, heads))


def test_c07_constrained_completion_oracle():
    with Budget("criterion 7", 10.0):
        for n in range(1, 7):
            g = complete_looped(n)
            for pinned in iter_partial_permutations(n):
                r = len(pinned)
                stats = cycle_factor_stats(DiGraph(n, restricted(g.out, pinned.items())))
                assert stats.count == partial_perm_count(n, r)
                q = closed_cycles_in(pinned)
                assert stats.cycle_sum == partial_perm_cycle_sum(n, r, q)


def test_c08_undirected_partition_values():
    with Budget("criterion 8", 10.0):
        c6 = two_factor_stats(cycle_graph(6), allow_edge_as_2cycle=True)
        assert c6.mean() == Fraction(7, 3)
        two_k3 = two_factor_stats(u_disjoint_union([complete_graph(3)] * 2))
        assert two_k3.mean() == Fraction(2)
        octa = two_factor_stats(complete_tripartite_222())
        assert octa.mean() == Fraction(6, 5)
        k5 = two_factor_stats(complete_graph(5))
        assert k5.mean() == Fraction(1)
        assert two_factor_stats(
            u_disjoint_union([complete_graph(5)] * 6)
        ).mean() == Fraction(6)
        assert two_factor_stats(
            u_disjoint_union([complete_tripartite_222()] * 5)
        ).mean() == Fraction(6)


def test_c09_permanent_equivalence_corpus():
    with Budget("criterion 9", 5.0):
        rng = random.Random(20260813)
        for _ in range(50):
            n = rng.randint(1, 7)
            rows = [
                [w for w in range(n) if rng.random() < 0.5] for _ in range(n)
            ]
            g = DiGraph(n, rows)
            mat = double_cover(g).biadjacency_rows()
            assert cycle_factor_stats(g).count == ryser_permanent(mat)


def test_c10_search_rediscovery():
    with Budget("criterion 10", 10.0):
        first = run_search(SearchConfig(6, 3))
        again = run_search(SearchConfig(6, 3))
        assert first == again
        assert first[0].certificate.excess >= Fraction(1, 3)

        streamed = []
        records = run_search(SearchConfig(4, 2), sink=streamed.append)
        assert streamed
        assert all(rec.certificate.excess <= 0 for rec in streamed)
        assert records[0].certificate.excess == 0


@pytest.mark.slow
def test_large_search_example_finds_positive_excess():
    with Budget("search (8,4)", 40.0):
        records = run_search(SearchConfig(8, 4, population=64, iterations=500))
        assert records[0].certificate.excess > 0
