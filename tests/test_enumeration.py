"""Exhaustive enumeration engines vs independent brute-force oracles."""

import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial, lgamma, log

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cyclefactor.enumeration import (
    MAX_FAST_VERTICES,
    MAX_GADGET_DEGREE,
    ArcConstraints,
    _candidate_rows,
    _factor_table,
    _leaf_order,
    _log2_bregman,
    _subset_table,
    _subset_wins,
    classify_crossing_patterns,
    cycle_factor_stats,
    cycle_matching_counts,
    expected_cycles,
    gn_classification_check,
    iter_cycle_factors,
    permutation_cycles,
    ryser_permanent,
    two_factor_stats,
)
from cyclefactor.errors import GenerationError, NoCycleFactorError
from cyclefactor.exact import (
    ALLOWED_PATTERNS,
    CROSSING_ARC_ORDER,
    ROW_GROUPS,
    crossing_pattern_table,
    harmonic,
    pattern_name,
)
from cyclefactor.families import (
    complete_graph,
    complete_looped,
    complete_tripartite_222,
    crossing_gadget,
    cycle_graph,
    looped_bidirected_cycle,
)
from cyclefactor.graphs import DiGraph, UGraph, disjoint_union, double_cover
from cyclefactor.search import random_regular_digraph
from cyclefactor.verify import iter_two_regular_digraphs


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------


def brute_stats(g, required=(), forbidden=()):
    """Filtered itertools.permutations oracle for every FactorStats field."""
    req = dict(required)
    bad = set(forbidden)
    count = 0
    cycle_sum = 0
    fix_sum = 0
    hist = {}
    usage = {}
    for p in permutations(range(g.n)):
        if not all(g.has_arc(v, p[v]) for v in range(g.n)):
            continue
        if any(p[t] != h for t, h in req.items()):
            continue
        if any((v, p[v]) in bad for v in range(g.n)):
            continue
        c = permutation_cycles(p)
        count += 1
        cycle_sum += c
        fix_sum += sum(p[v] == v for v in range(g.n))
        hist[c] = hist.get(c, 0) + 1
        for v in range(g.n):
            usage[v, p[v]] = usage.get((v, p[v]), 0) + 1
    return count, cycle_sum, fix_sum, hist, usage


def brute_permanent(rows):
    n = len(rows)
    total = 0
    for p in permutations(range(n)):
        prod = 1
        for i in range(n):
            prod *= rows[i][p[i]]
        total += prod
    return total


def brute_partition_stats(g, allow_edges):
    """Vertex partitions into cycles (>=3) and, optionally, matched edges.

    Every component contributes one unit to the cycle count, a matched
    edge included.  Enumerates edge subsets with all degrees in {1, 2}.
    """
    edges = g.edges()
    count = 0
    cycle_sum = 0
    hist = {}
    for k in range(len(edges) + 1):
        for sub in combinations(edges, k):
            deg = [0] * g.n
            for u, v in sub:
                deg[u] += 1
                deg[v] += 1
            if any(x == 0 or x > 2 for x in deg):
                continue
            # components of the chosen subgraph
            adj = [[] for _ in range(g.n)]
            for u, v in sub:
                adj[u].append(v)
                adj[v].append(u)
            seen = [False] * g.n
            units = 0
            ok = True
            for v0 in range(g.n):
                if seen[v0]:
                    continue
                stack = [v0]
                seen[v0] = True
                verts = []
                while stack:
                    x = stack.pop()
                    verts.append(x)
                    for y in adj[x]:
                        if not seen[y]:
                            seen[y] = True
                            stack.append(y)
                nedges = sum(deg[x] for x in verts) // 2
                if nedges == len(verts) and len(verts) >= 3:
                    units += 1  # a cycle
                elif allow_edges and len(verts) == 2 and nedges == 1:
                    units += 1  # a matched edge
                else:
                    ok = False
                    break
            if ok:
                count += 1
                cycle_sum += units
                hist[units] = hist.get(units, 0) + 1
    return count, cycle_sum, hist


def small_digraphs():
    return st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.sets(st.integers(0, n - 1), max_size=n), min_size=n, max_size=n
            ),
        )
    )


def check_against_brute(g, constraints=None):
    req = constraints.required if constraints else ()
    bad = constraints.forbidden if constraints else ()
    count, cycle_sum, fix_sum, hist, usage = brute_stats(g, req, bad)
    stats = cycle_factor_stats(g, constraints, want_edge_usage=True)
    assert stats.count == count
    assert stats.cycle_sum == cycle_sum
    assert stats.fix_sum == fix_sum
    assert stats.histogram == hist
    assert (stats.edge_usage or {}) == usage


# ---------------------------------------------------------------------------
# stats on fixed graphs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", range(1, 7))
def test_looped_clique_mean_is_harmonic(m):
    g = complete_looped(m)
    stats = cycle_factor_stats(g)
    assert stats.count == factorial(m)
    assert stats.mean() == harmonic(m)
    assert expected_cycles(g) == harmonic(m)


def test_looped_six_cycle_profile():
    stats = cycle_factor_stats(looped_bidirected_cycle(6), want_edge_usage=True)
    assert stats.count == 20
    assert stats.cycle_sum == 80
    assert stats.histogram == {1: 2, 3: 2, 4: 9, 5: 6, 6: 1}
    assert stats.mean() == Fraction(4)
    # every arc of a 2-in 2-out... here 3-regular graph: usage varies, but
    # row sums must equal the factor count
    for v in range(6):
        assert sum(stats.edge_usage.get((v, w), 0) for w in range(6)) == 20


def test_small_looped_clique_pinned_counts():
    s3 = cycle_factor_stats(complete_looped(3))
    assert (s3.count, s3.cycle_sum) == (6, 11)
    s4 = cycle_factor_stats(
        complete_looped(4),
        ArcConstraints(required=frozenset({(0, 1), (1, 0)})),
    )
    assert (s4.count, s4.cycle_sum) == (2, 5)


def test_empty_and_tiny_graphs():
    s = cycle_factor_stats(DiGraph(0, []))
    assert (s.count, s.cycle_sum, s.histogram) == (1, 0, {0: 1})
    loop = cycle_factor_stats(DiGraph(1, [[0]]))
    assert (loop.count, loop.cycle_sum, loop.fix_sum) == (1, 1, 1)
    bare = cycle_factor_stats(DiGraph(1, [[]]))
    assert bare.count == 0
    with pytest.raises(NoCycleFactorError):
        bare.mean()
    with pytest.raises(NoCycleFactorError):
        expected_cycles(DiGraph(2, [[0], [0]]))
    assert list(iter_cycle_factors(DiGraph(0, []))) == [()]
    assert list(iter_cycle_factors(DiGraph(1, [[]]))) == []


def test_order_cap_is_enforced():
    loops = DiGraph(MAX_FAST_VERTICES + 1, [[v] for v in range(MAX_FAST_VERTICES + 1)])
    with pytest.raises(ValueError):
        cycle_factor_stats(loops)


# ---------------------------------------------------------------------------
# randomized equivalence with the permutation oracle
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(small_digraphs())
def test_stats_match_brute_force(data):
    n, rows = data
    check_against_brute(DiGraph(n, [sorted(r) for r in rows]))


def draw_constraints(picks, n):
    arcs = [(u, w) for u in range(n) for w in range(n)]
    req_tails = picks.draw(st.sets(st.integers(0, n - 1), max_size=2))
    req_heads = picks.draw(st.permutations(list(range(n))))
    required = {(t, req_heads[i]) for i, t in enumerate(sorted(req_tails))}
    forbidden = picks.draw(
        st.sets(st.sampled_from(arcs), max_size=3).map(
            lambda s: frozenset(s) - required
        )
    )
    return ArcConstraints(frozenset(required), forbidden)


@settings(max_examples=60, deadline=None)
@given(small_digraphs(), st.data())
def test_constrained_stats_match_brute_force(data, picks):
    n, rows = data
    g = DiGraph(n, [sorted(r) for r in rows])
    check_against_brute(g, draw_constraints(picks, n))


@settings(max_examples=60, deadline=None)
@given(small_digraphs())
def test_count_equals_permanent_of_double_cover(data):
    n, rows = data
    g = DiGraph(n, [sorted(r) for r in rows])
    mat = double_cover(g).biadjacency_rows()
    assert cycle_factor_stats(g).count == ryser_permanent(mat)


@settings(max_examples=40, deadline=None)
@given(small_digraphs())
def test_iterate_agrees_with_stats(data):
    n, rows = data
    g = DiGraph(n, [sorted(r) for r in rows])
    sigmas = list(iter_cycle_factors(g))
    assert len(set(sigmas)) == len(sigmas)
    stats = cycle_factor_stats(g)
    assert len(sigmas) == stats.count
    assert sum(permutation_cycles(s) for s in sigmas) == stats.cycle_sum
    for s in sigmas:
        assert sorted(s) == list(range(n))
        assert all(g.has_arc(v, s[v]) for v in range(n))


def test_constraint_validation():
    with pytest.raises(ValueError):
        ArcConstraints(required=frozenset({(0, 1), (0, 2)}))
    with pytest.raises(ValueError):
        ArcConstraints(required=frozenset({(1, 2), (0, 2)}))
    with pytest.raises(ValueError):
        ArcConstraints(required=frozenset({(0, 1)}), forbidden=frozenset({(0, 1)}))
    # a required arc missing from the graph zeroes the count, no error
    s = cycle_factor_stats(
        looped_bidirected_cycle(4), ArcConstraints(required=frozenset({(0, 2)}))
    )
    assert s.count == 0


# ---------------------------------------------------------------------------
# the leaf engine's tail order and deadlines
# ---------------------------------------------------------------------------


def factor_table_by_iteration(g, constraints, weights):
    """Nonzero (key, cycles) counts and arc usage from iter_cycle_factors."""
    required = constraints.required if constraints else frozenset()
    forbidden = constraints.forbidden if constraints else frozenset()
    table = {}
    usage = {}
    for sigma in iter_cycle_factors(g):
        arcs = set(enumerate(sigma))
        if not required <= arcs or arcs & forbidden:
            continue
        key = sum(weights.get(arc, 0) for arc in arcs)
        cell = (key, permutation_cycles(sigma))
        table[cell] = table.get(cell, 0) + 1
        for arc in arcs:
            usage[arc] = usage.get(arc, 0) + 1
    return table, usage


def nonzero_cells(table):
    return {(k, c): h for k, row in enumerate(table) for c, h in enumerate(row) if h}


def random_constraints(g, rng):
    """One or two required arcs with distinct tails and heads, a few forbidden."""
    arcs = sorted(g.arcs())
    required = set()
    for tail, head in rng.sample(arcs, 2):
        if all(tail != t and head != h for t, h in required):
            required.add((tail, head))
    forbidden = set(rng.sample(arcs, 3)) - required
    return ArcConstraints(frozenset(required), frozenset(forbidden))


def seeded_regular_digraph(n, d, rng):
    while True:
        try:
            return random_regular_digraph(n, d, rng)
        except GenerationError:
            continue


def test_leaf_engine_matches_iteration_on_reordered_regular_digraphs():
    reordered = 0
    for n, d, seed in product(range(9, 13), (3, 4), range(2)):
        rng = random.Random(f"{n} {d} {seed}")
        g = seeded_regular_digraph(n, d, rng)
        arcs = sorted(g.arcs())
        weights = {arc: rng.randrange(1, 3) for arc in rng.sample(arcs, 4)}
        for constraints in (None, random_constraints(g, rng)):
            rows = _candidate_rows(g, constraints)
            reordered += _leaf_order(rows) != list(range(n))
            table, usage = _factor_table(rows, weights, True)
            assert (nonzero_cells(table), usage) == factor_table_by_iteration(
                g, constraints, weights
            )
    assert reordered  # the relabeled search, not only the identity order


def test_leaf_order_is_a_permutation_and_the_identity_below_the_gate():
    for n in (8, 12, 16):
        rows = random_regular_digraph(n, 4, random.Random(n)).out
        order = _leaf_order(rows)
        assert sorted(order) == list(range(n))
        assert order != list(range(n))
    # every 2-regular digraph has a Bregman bound 2^(n/2), at most n^2
    for n in range(2, 6):
        for g in iter_two_regular_digraphs(n):
            assert _leaf_order(g.out) == list(range(n))
    assert _leaf_order(()) == []


def test_log2_bregman_matches_the_lgamma_formula():
    for rows in ([[0]], [[0, 1], [1, 2, 3], [0], [0, 1, 2, 3]], complete_looped(9).out):
        direct = sum(lgamma(len(row) + 1) / len(row) for row in rows) / log(2)
        assert _log2_bregman(rows) == direct
    # a row without candidates bounds the factor count by 0
    assert _log2_bregman([[0, 1], []]) == float("-inf")
    assert not _subset_wins([[0, 1], []], False)


def test_unreachable_head_gives_no_factor():
    g = complete_looped(5)
    dead = ArcConstraints(forbidden=frozenset((v, 3) for v in range(5)))
    stats = cycle_factor_stats(g, dead, want_edge_usage=True)
    assert (stats.count, stats.edge_usage) == (0, {})
    table, usage = _factor_table(_candidate_rows(g, dead), {}, True)
    assert (table, usage) == ([[0] * 6], {})


def test_two_heads_due_at_one_tail_prune_to_zero():
    # heads 0 and 1 both have tail 2 as their only candidate
    rows = [[2, 3], [2, 3], [0, 1], [2, 3]]
    assert _factor_table(rows, {}, True) == ([[0] * 5], {})
    # with head 1 also reachable from tail 3, tail 2 is forced to head 0
    rows = [[2, 3], [2, 3], [0, 1], [1, 2, 3]]
    table, usage = _factor_table(rows, {}, True)
    brute = factor_table_by_iteration(DiGraph(4, rows), None, {})
    assert (nonzero_cells(table), usage) == brute


# ---------------------------------------------------------------------------
# the subset engine against the leaf engine, table for table
# ---------------------------------------------------------------------------


def gadget_rows_and_weights(d):
    """The gadget's rows with each crossing arc weighted by its pattern bit."""
    g, labeling = crossing_gadget(d)
    bit_of = {name: 1 << i for i, name in enumerate(CROSSING_ARC_ORDER)}
    weights = {arc: bit_of[name] for name, arc in labeling.crossing_arcs.items()}
    return g.out, weights


def loop_weights(rows):
    return {(v, v): 1 for v, row in enumerate(rows) if v in row}


def assert_engines_agree(rows, weights):
    assert _subset_table(rows, weights) == _factor_table(rows, weights, False)[0]


@settings(max_examples=80, deadline=None)
@given(small_digraphs(), st.data())
def test_subset_engine_matches_leaf_engine(data, picks):
    n, rows = data
    g = DiGraph(n, [sorted(r) for r in rows])
    cand = _candidate_rows(g, draw_constraints(picks, n))
    pairs = [(u, w) for u in range(n) for w in range(n)]
    weights = picks.draw(
        st.dictionaries(st.sampled_from(pairs), st.integers(0, 3), max_size=6)
    )
    assert_engines_agree(cand, weights)


# (n, d) with n <= 14 and 2 <= d <= 7 whose Bregman bound (d!)^(n/d) keeps
# the leaf-engine oracle under 2e5 factors per example
REGULAR_PAIRS = [
    (n, d)
    for n in range(2, 15)
    for d in range(2, min(n, 7) + 1)
    if factorial(d) ** (n / d) <= 2e5
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(REGULAR_PAIRS), st.integers(0, 2**32 - 1))
def test_subset_engine_matches_leaf_engine_on_regular_digraphs(pair, seed):
    n, d = pair
    try:
        g = random_regular_digraph(n, d, random.Random(seed))
    except GenerationError:
        assume(False)
    assert_engines_agree(g.out, loop_weights(g.out))


@pytest.mark.parametrize("d", range(3, 7))
def test_subset_engine_matches_leaf_engine_on_gadget_patterns(d):
    assert_engines_agree(*gadget_rows_and_weights(d))


def test_subset_engine_on_the_empty_graph():
    assert _subset_table(DiGraph(0, []).out, {}) == [[1]]
    assert _factor_table(DiGraph(0, []).out, {}, False)[0] == [[1]]
    assert _factor_table(DiGraph(0, []).out, {}, True) == ([[1]], {})


def test_engine_choice_follows_the_bregman_bound():
    leaf = [random_regular_digraph(n, 4, random.Random(n)) for n in (8, 16)]
    leaf += [random_regular_digraph(14, 2, random.Random(14))]
    leaf += list(iter_two_regular_digraphs(4))
    for g in leaf:
        assert not _subset_wins(g.out, False)
    subset = [crossing_gadget(d)[0] for d in range(5, MAX_GADGET_DEGREE + 1)]
    subset += [complete_looped(8), random_regular_digraph(12, 6, random.Random(12))]
    for g in subset:
        assert _subset_wins(g.out, False)
        assert not _subset_wins(g.out, True)  # edge usage needs the leaf engine


# ---------------------------------------------------------------------------
# crossing-pattern classification
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", (3, 4, 5))
def test_classified_buckets_match_closed_table(d):
    got = classify_crossing_patterns(d)
    want = crossing_pattern_table(d)
    assert [(r.patterns, r.count, r.mean) for r in got] == [
        (r.patterns, r.count, r.mean) for r in want
    ]


def test_classifier_guards():
    with pytest.raises(ValueError):
        classify_crossing_patterns(2)
    with pytest.raises(ValueError):
        classify_crossing_patterns(MAX_GADGET_DEGREE + 1)


@pytest.mark.parametrize("d", (3, 4))
def test_classifier_matches_permutation_oracle(d):
    # bucket every permutation factor by the crossing arcs it uses
    g, labeling = crossing_gadget(d)
    buckets = {}
    for p in permutations(range(g.n)):
        if not all(g.has_arc(v, p[v]) for v in range(g.n)):
            continue
        used = {name for name, (t, h) in labeling.crossing_arcs.items() if p[t] == h}
        count, total = buckets.get(pattern_name(used), (0, 0))
        buckets[pattern_name(used)] = (count + 1, total + permutation_cycles(p))
    assert set(buckets) <= ALLOWED_PATTERNS
    want = []
    for group in ROW_GROUPS:
        count = sum(buckets.get(name, (0, 0))[0] for name in group)
        total = sum(buckets.get(name, (0, 0))[1] for name in group)
        want.append((group, count, total))
    got = [(r.patterns, r.count, r.count * r.mean) for r in classify_crossing_patterns(d)]
    assert got == want


def test_classifier_row_totals_match_plain_enumeration():
    g, _ = crossing_gadget(4)
    stats = cycle_factor_stats(g)
    rows = classify_crossing_patterns(4)
    assert sum(r.count for r in rows) == stats.count
    assert sum((r.count * r.mean for r in rows), Fraction(0)) == stats.cycle_sum


# ---------------------------------------------------------------------------
# looped bidirected cycles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(4, 11))
def test_cycle_factor_inventory_of_looped_cycles(n):
    assert gn_classification_check(n)


def test_inventory_guard():
    with pytest.raises(ValueError):
        gn_classification_check(3)
    with pytest.raises(ValueError):
        gn_classification_check(17)


def brute_cycle_matchings(n):
    """Matchings of the plain n-cycle graph, bucketed by size."""
    edges = [(v, (v + 1) % n) for v in range(n)]
    out = {}
    for k in range(n + 1):
        for sub in combinations(edges, k):
            used = [v for e in sub for v in e]
            if len(set(used)) == len(used):
                out[k] = out.get(k, 0) + 1
    return [out.get(k, 0) for k in range(max(out) + 1)]


@pytest.mark.parametrize("n", range(3, 11))
def test_cycle_matching_counts_match_brute(n):
    assert cycle_matching_counts(n) == brute_cycle_matchings(n)


def test_cycle_matching_known_rows():
    assert cycle_matching_counts(3) == [1, 3]
    assert cycle_matching_counts(6) == [1, 6, 9, 2]
    assert cycle_matching_counts(8) == [1, 8, 20, 16, 2]
    with pytest.raises(ValueError):
        cycle_matching_counts(2)


# ---------------------------------------------------------------------------
# undirected partitions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "g",
    [
        cycle_graph(6),
        complete_graph(4),
        complete_graph(5),
        complete_tripartite_222(),
        UGraph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]),
    ],
    ids=["C6", "K4", "K5", "K222", "bowtie"],
)
@pytest.mark.parametrize("allow", (False, True), ids=["strict", "permissive"])
def test_partition_stats_match_brute(g, allow):
    count, cycle_sum, hist = brute_partition_stats(g, allow)
    stats = two_factor_stats(g, allow_edge_as_2cycle=allow)
    assert (stats.count, stats.cycle_sum, stats.histogram) == (count, cycle_sum, hist)


def test_partition_known_values():
    c6 = two_factor_stats(cycle_graph(6), allow_edge_as_2cycle=True)
    assert c6.count == 3 and c6.mean() == Fraction(7, 3)
    k222 = two_factor_stats(complete_tripartite_222())
    assert k222.count == 20 and k222.mean() == Fraction(6, 5)
    assert k222.histogram == {1: 16, 2: 4}
    k5 = two_factor_stats(complete_graph(5))
    assert k5.count == 12 and k5.mean() == Fraction(1)


def test_three_block_splice_measured_values():
    # regression anchors: the splice stays below the plain three-clique
    # union, so it is a measured data point, not an improvement
    from cyclefactor.families import three_block_splice, undirected_family

    spliced = two_factor_stats(three_block_splice(5))
    assert (spliced.count, spliced.cycle_sum) == (432, 864)
    assert spliced.histogram == {1: 216, 3: 216}
    assert spliced.mean() == Fraction(2)
    plain = two_factor_stats(undirected_family("clique", 5, copies=3))
    assert plain.mean() == Fraction(3)
    assert spliced.mean() < plain.mean()


def test_partition_convolution_over_components():
    from cyclefactor.graphs import u_disjoint_union

    one = two_factor_stats(complete_tripartite_222())
    five = two_factor_stats(u_disjoint_union([complete_tripartite_222()] * 5))
    assert five.count == one.count**5
    assert five.mean() == 5 * one.mean()
    assert five.mean() == Fraction(6)


def test_partition_empty_cases():
    none = two_factor_stats(UGraph(3, []))  # 3 isolated vertices
    assert none.count == 0
    with pytest.raises(NoCycleFactorError):
        none.mean()


# ---------------------------------------------------------------------------
# permanent oracle
# ---------------------------------------------------------------------------


@settings(max_examples=60)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 3), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_ryser_matches_expansion(rows):
    assert ryser_permanent(rows) == brute_permanent(rows)


def test_ryser_basics():
    assert ryser_permanent([]) == 1
    assert ryser_permanent([[1, 1], [1, 1]]) == 2
    assert ryser_permanent([[1] * 5 for _ in range(5)]) == 120
    with pytest.raises(ValueError):
        ryser_permanent([[1, 2]])


# ---------------------------------------------------------------------------
# composition laws
# ---------------------------------------------------------------------------


def test_union_multiplies_counts_and_adds_means():
    a = complete_looped(3)
    b = looped_bidirected_cycle(4)
    u = disjoint_union([a, b])
    sa, sb, su = map(cycle_factor_stats, (a, b, u))
    assert su.count == sa.count * sb.count
    assert su.mean() == sa.mean() + sb.mean()
    assert su.cycle_sum == sa.cycle_sum * sb.count + sb.cycle_sum * sa.count
