"""Acceptance gate: the ten headline claims, each with its runtime budget.

Every test times its operative work with time.perf_counter and fails when
the stated budget is exceeded, so a pass here certifies both the values
and the performance envelope.  The two expensive legs (degree 7
cross-validation, the 8-vertex degree-4 search) carry the slow marker.
"""

import random
import time
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from closed_cycles import closed_cycles_in
from cyclefactor.enumeration import (
    ArcConstraints,
    cycle_factor_stats,
    ryser_permanent,
    two_factor_stats,
)
from cyclefactor.exact import (
    benchmark_excess,
    excess_numerator_positive,
    harmonic,
    partial_perm_count,
    partial_perm_cycle_sum,
    scaled_excess,
)
from cyclefactor.families import (
    complete_graph,
    complete_looped,
    complete_tripartite_222,
    cycle_graph,
    looped_bidirected_cycle,
    padded_gadget,
    undirected_family,
)
from cyclefactor.graphs import DiGraph, double_cover
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
    with Budget("criterion 2 (d=7)", 120.0):
        report = gadget_cross_validation(7)
        assert report.ok, report.failures


def test_c03_excess_positivity_and_scaled_limit():
    with Budget("criterion 3", 1.0):
        assert excess_numerator_positive(500)
        for d in range(3, 501):
            assert benchmark_excess(d) > 0
        assert Fraction(29, 5) < scaled_excess(500) < Fraction(31, 5)


def test_c04_padded_gadget_margins():
    with Budget("criterion 4", 10.0):
        for k, d in ((3, 3), (4, 3), (3, 4)):
            cert = certify(padded_gadget(k, d), d)
            assert cert.expectation == k * harmonic(d) + benchmark_excess(d)
            assert cert.expectation > k * harmonic(d)
            assert cert.excess == benchmark_excess(d)


def test_c05_two_regular_exhaustive_suite():
    with Budget("criterion 5", 60.0):
        report = two_regular_suite(6)
        assert report.ok, report.failures[:3]
        assert report.checked == 1 + 6 + 90 + 2040 + 67950


def test_c06_looped_cycle_classification():
    with Budget("criterion 6", 30.0):
        report = looped_cycle_suite(12)
        assert report.ok, report.failures


def iter_partial_permutations(n):
    """Every injective arc set on [n]: tails chosen, heads injected."""
    for r in range(n + 1):
        for tails in combinations(range(n), r):
            for heads in permutations(range(n), r):
                yield dict(zip(tails, heads))


def test_c07_constrained_completion_oracle():
    with Budget("criterion 7", 120.0):
        for n in range(1, 7):
            g = complete_looped(n)
            for pinned in iter_partial_permutations(n):
                r = len(pinned)
                required = frozenset(pinned.items())
                stats = cycle_factor_stats(g, ArcConstraints(required=required))
                assert stats.count == partial_perm_count(n, r)
                q = closed_cycles_in(pinned)
                assert stats.cycle_sum == partial_perm_cycle_sum(n, r, q)


def test_c08_undirected_partition_values():
    with Budget("criterion 8", 10.0):
        c6 = two_factor_stats(cycle_graph(6), allow_edge_as_2cycle=True)
        assert c6.mean() == Fraction(7, 3)
        two_k3 = two_factor_stats(undirected_family("clique", 3, copies=2))
        assert two_k3.mean() == Fraction(2)
        octa = two_factor_stats(complete_tripartite_222())
        assert octa.mean() == Fraction(6, 5)
        k5 = two_factor_stats(complete_graph(5))
        assert k5.mean() == Fraction(1)
        assert two_factor_stats(
            undirected_family("clique", 5, copies=6)
        ).mean() == Fraction(6)
        assert two_factor_stats(
            undirected_family("k222", copies=5)
        ).mean() == Fraction(6)


def test_c09_permanent_equivalence_corpus():
    with Budget("criterion 9", 60.0):
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
    with Budget("criterion 10", 120.0):
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
    with Budget("search (8,4)", 120.0):
        records = run_search(SearchConfig(8, 4, population=64, iterations=500))
        assert records[0].certificate.excess > 0
