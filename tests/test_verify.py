"""Benchmark certificates and the exhaustive verification suites."""

from dataclasses import replace
from fractions import Fraction
from functools import cache
from hashlib import sha256
from itertools import permutations
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_force import generated_group, layout_generators
from cyclefactor import verify
from cyclefactor.enumeration import MAX_FAST_VERTICES
from cyclefactor.errors import IndivisibleOrderError, NotRegularError
from cyclefactor.exact import benchmark_excess, gadget_closed_form, harmonic
from cyclefactor.families import (
    complete_looped,
    crossing_gadget,
    looped_bidirected_cycle,
    padded_gadget,
)
from cyclefactor.graphs import (
    DiGraph,
    canonical_form,
    disjoint_union,
    from_text,
    is_d_regular,
)
from cyclefactor.verify import (
    MAX_TWO_REGULAR_N,
    SuiteReport,
    certify,
    cycle_types,
    gadget_cross_validation,
    iter_two_regular_digraphs,
    looped_cycle_suite,
    two_regular_candidates,
    two_regular_count,
    two_regular_suite,
)


def test_certificate_for_the_degree_three_gadget():
    g, _ = crossing_gadget(3)
    cert = certify(g, 3, provenance="gadget d=3")
    assert (cert.n, cert.d) == (6, 3)
    assert (cert.count, cert.cycle_sum) == (20, 80)
    assert cert.expectation == Fraction(4)
    assert cert.benchmark == Fraction(11, 3)
    assert cert.excess == Fraction(1, 3)
    assert cert.verdict == "beats_benchmark"
    assert cert.provenance == "gadget d=3"
    back, hint = from_text(cert.graph_text)
    assert back == g and hint == 3


def test_clique_unions_tie_the_benchmark():
    for m in range(1, 6):
        cert = certify(complete_looped(m), m)
        assert cert.verdict == "ties" and cert.excess == 0
    two = disjoint_union([complete_looped(3)] * 2)
    cert = certify(two, 3)
    assert cert.verdict == "ties"
    assert cert.expectation == 2 * harmonic(3)


def test_certificates_of_one_order_share_one_benchmark():
    a = certify(looped_bidirected_cycle(6), 3)
    b = certify(disjoint_union([complete_looped(3)] * 2), 3)
    assert a.benchmark is b.benchmark
    assert a.benchmark == Fraction(6, 3) * harmonic(3)
    assert certify(complete_looped(6), 6).benchmark == harmonic(6)


def test_below_verdict():
    triangle = DiGraph(3, [[1], [2], [0]])
    cert = certify(triangle, 1)
    assert cert.expectation == 1
    assert cert.benchmark == 3
    assert cert.verdict == "below" and cert.excess == -2


def test_padded_gadget_keeps_the_gadget_margin():
    cert = certify(padded_gadget(3, 3), 3)
    assert cert.expectation == Fraction(35, 6)
    assert cert.excess == Fraction(1, 3)
    for k, d in ((3, 3), (4, 3), (3, 4)):
        assert certify(padded_gadget(k, d), d).excess == benchmark_excess(d)


def test_certify_preconditions():
    with pytest.raises(ValueError):
        certify(complete_looped(3), 0)
    with pytest.raises(NotRegularError):
        certify(complete_looped(3), 2)
    pentagon = DiGraph(5, [[v, (v + 1) % 5] for v in range(5)])
    assert is_d_regular(pentagon, 2)
    with pytest.raises(IndivisibleOrderError):
        certify(pentagon, 2)


@pytest.mark.parametrize("n,total", [(2, 1), (3, 6), (4, 90), (5, 2040)])
def test_two_regular_census(n, total):
    seen = set()
    for g in iter_two_regular_digraphs(n):
        assert is_d_regular(g, 2)
        seen.add(g.out)
    assert len(seen) == total == two_regular_count(n)


def classes(graphs):
    return {canonical_form(g)[0] for g in graphs}


# isomorphism classes of 2-regular digraphs on n vertices
CLASS_COUNTS = {2: 1, 3: 3, 4: 8, 5: 27, 6: 131}


@pytest.mark.parametrize("n", sorted(CLASS_COUNTS))
def test_cycle_type_candidates_cover_every_class(n):
    candidates = list(two_regular_candidates(n))
    assert len(candidates) == len(classes(candidates)) == CLASS_COUNTS[n]
    assert all(is_d_regular(g, 2) for g in candidates)
    if n <= 5:
        assert classes(candidates) == classes(iter_two_regular_digraphs(n))


def layout_graph(succ, pi):
    return DiGraph(len(pi), [(pi[t], pi[succ[t]]) for t in range(len(pi))])


def every_cycle_type():
    return [shape for n in range(2, MAX_TWO_REGULAR_N + 1) for shape in cycle_types(n)]


@cache
def layout_group(shape):
    return verify._layout_group(shape)


def act(element, pi):
    # sigma o pi o rho^-1 by indexing, the reference for the byte translation
    rho_inv, sigma = element
    return tuple([sigma[pi[s]] for s in rho_inv])


def test_layout_group_has_every_element_once():
    # a rotation group of order m and a reflection per part, and the
    # permutations of each run of equal parts: 12, 32, 72 and 384 for the
    # types of n = 6, and 6,144 for (2, 2, 2, 2); as a set, the group
    # layout_generators' generators generate, closed by brute force
    for shape in every_cycle_type():
        group = layout_group(shape)
        runs = [shape.count(m) for m in set(shape)]
        order = prod(2 * m for m in shape) * prod(map(factorial, runs))
        assert len(set(group)) == len(group) == order
        assert group[0] == (bytes(range(sum(shape))), bytes(range(256)))
        assert set(group) == set(generated_group(sum(shape), layout_generators(shape)[1]))


# every cycle type with n <= MAX_TWO_REGULAR_N: each of up to 11
# generators, then each of the 7,818 group elements
@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False))
def test_layout_symmetries_preserve_the_class(rnd):
    for shape in every_cycle_type():
        n = sum(shape)
        succ, gens = layout_generators(shape)
        pi = rnd.sample(range(n), n)
        g = layout_graph(succ, pi)
        form = canonical_form(g)
        for sigma, rho_inv in gens:
            image = layout_graph(succ, [sigma[pi[s]] for s in rho_inv])
            assert image == g.relabel(sigma)
            assert canonical_form(image) == form
        # arc sets, cheaper than a DiGraph per element
        tails = bytes(v for v, row in enumerate(g.out) for _ in row)
        heads = bytes(w for row in g.out for w in row)
        for element in layout_group(shape):
            q, sigma = act(element, pi), element[1]
            image = set(zip(range(n), q)) | set(zip(range(n), [q[s] for s in succ]))
            assert image == set(zip(tails.translate(sigma), heads.translate(sigma)))


# at n = 8 the orbit split below takes about 1.3 s, the pinned digest 0.3 s
SLOW_AT_EIGHT = [pytest.param(n, marks=pytest.mark.slow) if n == 8 else n for n in range(2, 9)]


@pytest.mark.parametrize("n", SLOW_AT_EIGHT)
def test_candidates_are_the_first_placement_of_each_orbit(monkeypatch, n):
    # per type, the group's orbits, taken by indexing, split S_n: their
    # sizes sum to n!, and the graphs of their lexicographically first
    # placements are the candidates of that type, in order
    for shape in cycle_types(n):
        succ = layout_generators(shape)[0]
        group = layout_group(shape)
        seen, firsts, covered = set(), [], 0
        for pi in permutations(range(n)):
            if pi not in seen:
                orbit = {act(element, pi) for element in group}
                covered += len(orbit)
                seen |= orbit
                firsts.append(layout_graph(succ, pi))
        assert covered == len(seen) == factorial(n)
        monkeypatch.setattr(verify, "cycle_types", lambda n, shape=shape: [shape])
        assert list(two_regular_candidates(n)) == firsts


# count and leading sha256 hex digits of repr([g.out for g in
# two_regular_candidates(n)]), as the orbit flood through the generators
# gave them before the group was enumerated
CANDIDATE_DIGESTS = {
    2: (1, "5b853cb4de4d5fa8"),
    3: (3, "599788379df82772"),
    4: (8, "0165d7b9a2b7daf8"),
    5: (27, "d7e3c81bff81fc10"),
    6: (131, "a2ba50c52326275d"),
    7: (711, "e6b99e7b83d4b757"),
    8: (5055, "781a6420a6110d07"),
}


@pytest.mark.parametrize("n", SLOW_AT_EIGHT)
def test_two_regular_candidates_are_pinned(n):
    rows = [g.out for g in two_regular_candidates(n)]
    assert (len(rows), sha256(repr(rows).encode()).hexdigest()[:16]) == CANDIDATE_DIGESTS[n]


def test_two_regular_suite_fails_on_a_missing_class(monkeypatch):
    every = cycle_types
    monkeypatch.setattr(verify, "cycle_types", lambda n: [t for t in every(n) if t != (3, 2)])
    report = two_regular_suite(5)
    assert report.ok is False
    assert report.checked < 1 + 6 + 90 + 2040
    assert len(report.failures) == 1
    assert report.failures[0].startswith("n=5: ")
    assert "short of A001499(5) = 2040" in report.failures[0]


def doubled_candidates(n):
    # each class twice: the representative and a relabeled copy
    shift = [(v + 1) % n for v in range(n)]
    for g in two_regular_candidates(n):
        yield g
        yield g.relabel(shift)


def test_two_regular_suite_fails_on_a_form_that_is_not_canonical(monkeypatch):
    # the identity labeling as the key: one class, several keys
    monkeypatch.setattr(verify, "canonical_form", lambda g: (g.out, canonical_form(g)[1]))
    monkeypatch.setattr(verify, "two_regular_candidates", doubled_candidates)
    report = two_regular_suite(5)
    assert report.ok is False
    assert report.checked > 1 + 6 + 90 + 2040
    coverage = [f for f in report.failures if " labeled graphs, " in f]
    assert coverage and all(" over A001499(" in f for f in coverage)
    assert any(f.startswith("n=5: ") for f in coverage)


def test_two_regular_suite_dedups_repeated_classes(monkeypatch):
    monkeypatch.setattr(verify, "two_regular_candidates", doubled_candidates)
    report = two_regular_suite(5)
    assert report.ok
    assert report.checked == 1 + 6 + 90 + 2040


def one_arc_overused(st, g):
    usage = dict(st.edge_usage)
    arc = next(a for a in usage if a[0] != a[1])
    usage[arc] += 1
    return replace(st, edge_usage=usage)


def one_loop_overused(st, g):
    usage = dict(st.edge_usage)
    loop = next((a for a in usage if a[0] == a[1]), None)
    if loop is not None:
        usage[loop] += 1
    return replace(st, edge_usage=usage)


def cycle_sum_raised(st, g):
    # mean cycles up by n, past n/2 + loops/4 <= 3n/4
    return replace(st, cycle_sum=st.cycle_sum + g.n * st.count)


def cycle_sum_lowered(st, g):
    # a looped pair union's mean falls below its 3n/4
    return replace(st, cycle_sum=st.cycle_sum - 1)


@pytest.mark.parametrize(
    "defect,message",
    [
        (one_arc_overused, "some arc marginal differs from 1/2"),
        (one_loop_overused, "mean fixed points differ from loops/2"),
        (cycle_sum_raised, "mean cycles exceed n/2 + loops/4"),
        (cycle_sum_lowered, "3n/4 equality does not match the pair-union shape"),
    ],
)
def test_two_regular_suite_fails_each_per_class_claim(monkeypatch, defect, message):
    real = verify.cycle_factor_stats
    monkeypatch.setattr(verify, "cycle_factor_stats", lambda g, **kw: defect(real(g, **kw), g))
    report = two_regular_suite(4)
    assert report.ok is False
    assert report.checked == 1 + 6 + 90
    assert any(message in f.split("\n")[0].split("; ") for f in report.failures)


def test_two_regular_suite_holds_below_six():
    report = two_regular_suite(5)
    assert report.ok
    assert report.checked == 1 + 6 + 90 + 2040
    with pytest.raises(ValueError):
        two_regular_suite(1)
    with pytest.raises(ValueError):
        two_regular_suite(MAX_TWO_REGULAR_N + 1)


def test_gadget_cross_validation_small():
    report = gadget_cross_validation(5)
    assert report.ok and report.checked == 3
    with pytest.raises(ValueError, match="need 3 <= d_max <= 32"):
        gadget_cross_validation(MAX_FAST_VERTICES // 2 + 1)


# each perturbed field of the degree-3 closed form and the failure it must give
WRONG_CLOSED_FORM = {
    "row count": "pattern row u1v2/v1u2",
    "row cycle sum": "pattern row u1v2/v1u2",
    "cycle sum": "cycle sum",
    "factor count": "factor count 20 != 21",
}


@pytest.mark.parametrize("field", WRONG_CLOSED_FORM)
def test_gadget_cross_validation_reports_a_wrong_closed_form(monkeypatch, field):
    def perturbed(d):
        form = gadget_closed_form(d)
        if d != 3:
            return form
        if field == "cycle sum":
            return replace(form, cycle_sum=form.cycle_sum + 1)
        if field == "factor count":
            return replace(form, count=form.count + 1)
        row = form.rows[1]
        if field == "row count":
            bumped = replace(row, count=row.count + 1)
        else:
            bumped = replace(row, cycle_sum=row.cycle_sum + 1)
        return replace(form, rows=(form.rows[0], bumped) + form.rows[2:])

    monkeypatch.setattr(verify, "gadget_closed_form", perturbed)
    report = gadget_cross_validation(4)
    assert report.ok is False
    assert report.checked == 2
    assert len(report.failures) == 1
    assert report.failures[0].startswith("d=3: ")
    assert WRONG_CLOSED_FORM[field] in report.failures[0]


def test_looped_cycle_suite_small():
    report = looped_cycle_suite(8)
    assert report.ok and report.checked == 5
    with pytest.raises(ValueError):
        looped_cycle_suite(3)
    with pytest.raises(ValueError):
        looped_cycle_suite(MAX_FAST_VERTICES + 1)


def one_more_matching(real):
    # a matching of size 1 too many is one factor with n - 1 cycles that
    # the graph does not have
    def counts(n):
        m = real(n)
        m[1] += 1
        return m

    return counts


def one_factor_short(real):
    def stats(g):
        s = real(g)
        hist = dict(s.histogram)
        hist[g.n] -= 1  # drop the identity, every vertex on its loop
        return replace(s, count=s.count - 1, histogram=hist)

    return stats


@pytest.mark.parametrize(
    "name,defect",
    [("cycle_matching_counts", one_more_matching), ("cycle_factor_stats", one_factor_short)],
)
def test_looped_cycle_suite_fails_on_a_miscount(monkeypatch, name, defect):
    monkeypatch.setattr(verify, name, defect(getattr(verify, name)))
    report = looped_cycle_suite(8)
    assert report.checked == 5
    # the bumped matching count also breaks the suite's literal 6-cycle row
    literal = ("matching counts of the 6-cycle differ from (1, 6, 9, 2)",)
    assert report.failures == tuple(
        f"n={n}: factors are not two rotations plus matchings" for n in range(4, 9)
    ) + (literal if name == "cycle_matching_counts" else ())

def test_suite_report_flag():
    assert SuiteReport("x", 1, ()).ok
    assert not SuiteReport("x", 1, ("boom",)).ok
