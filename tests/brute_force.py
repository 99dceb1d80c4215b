"""Brute-force oracles shared by the tests, each written once.

Only the standard library is imported, so no oracle shares code with the
cyclefactor engine it checks.  A digraph is given by its successor rows
out; a cycle-factor is a permutation p with p[v] in out[v] for every v.
The closed forms only the tests use live here too.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial, prod


def factors(out):
    """Each cycle-factor of out.

    Filters all n! permutations, visiting each factor the engine counts.
    """
    for p in permutations(range(len(out))):
        if all(w in out[v] for v, w in enumerate(p)):
            yield p


def restricted(out, required=(), forbidden=()):
    """The rows whose cycle-factors are those of out using every required
    and no forbidden arc.

    required is a partial permutation, given as (tail, head) arcs.  A tail
    with a required arc keeps only that head, and only if out has the arc;
    every other tail drops its forbidden arcs and the required heads.
    """
    req = dict(required)
    heads = set(req.values())
    bad = set(forbidden)
    return [
        ([req[v]] if req[v] in row else [])
        if v in req
        else [w for w in row if (v, w) not in bad and w not in heads]
        for v, row in enumerate(out)
    ]


def walk_factors(out):
    """Each cycle-factor of out, by a depth-first walk over its rows.

    Assigns heads tail by tail, each head at most once, so it visits only
    partial maps that extend and reaches orders where filtering the n!
    permutations, as factors does, would not finish.
    """
    n = len(out)
    if n == 0:
        yield ()
        return
    succ = [-1] * n
    used = 0
    # an explicit stack: one iterator over out[v] per level, each level
    # undoing its previous choice before taking the next
    stack = [iter(out[0])]
    while stack:
        v = len(stack) - 1
        if succ[v] >= 0:
            used ^= 1 << succ[v]
            succ[v] = -1
        for w in stack[v]:
            if not used >> w & 1:
                break
        else:
            stack.pop()
            continue
        succ[v] = w
        used |= 1 << w
        if v + 1 == n:
            yield tuple(succ)
        else:
            stack.append(iter(out[v + 1]))


def relabeled(out):
    """The rows of out relabeled by each of the n! permutations p.

    Vertex v becomes p[v], so row p[v] holds the sorted p[w] for w in
    out[v]; each result is a tuple of tuples, comparable with DiGraph.out.
    """
    n = len(out)
    for p in permutations(range(n)):
        rows = [()] * n
        for image, row in zip(p, out):
            rows[image] = tuple(sorted(p[w] for w in row))
        yield tuple(rows)


def layout_generators(shape):
    """The double-cover layout of a cycle type and its symmetry generators.

    A part of size m at offset a has tails t_j = a+j over head slots
    s_j = a+j, and t_j's arcs go to the heads in slots s_j and
    s_(j+1 mod m); succ maps each slot to the next slot on its cycle.
    Each generator is a pair (sigma, rho^-1): sigma relabels the tails
    (the vertices), rho the slots, and sigma o pi o rho^-1 is a head
    placement whose graph is pi's relabeled by sigma.  Per part a
    rotation (sigma = rho = j -> j+1) and a reflection (sigma: t_j ->
    t_(-j), rho: s_j -> s_(1-j)); per pair of consecutive equal parts a
    swap (sigma = rho).  Returns succ and the generators.
    """
    n = sum(shape)
    ident = list(range(n))
    succ = []
    gens = []
    for k, m in enumerate(shape):
        a = len(succ)
        succ += [a + (j + 1) % m for j in range(m)]
        turn, back, flip, mirror = ident[:], ident[:], ident[:], ident[:]
        for j in range(m):
            turn[a + j] = a + (j + 1) % m
            back[a + j] = a + (j - 1) % m
            flip[a + j] = a + -j % m
            mirror[a + j] = a + (1 - j) % m  # its own inverse
        gens += [(tuple(turn), tuple(back)), (tuple(flip), tuple(mirror))]
        if k and shape[k - 1] == m:
            swap = ident[:]
            swap[a - m : a + m] = ident[a : a + m] + ident[a - m : a]
            gens.append((tuple(swap), tuple(swap)))
    return succ, gens


def generated_group(n, gens):
    """Every element of the group that gens generate, identity first.

    Each generator is (sigma, rho^-1), permutations of range(n), as
    layout_generators gives them; an element is (rho^-1, sigma) as
    verify._layout_group lists it: rho^-1 as n bytes and sigma as a
    256-byte bytes.translate table.  The list is closed under composition
    with each generator on the right, so it is the whole group, found by
    walking the list while it grows.
    """
    pad = bytes(range(256))
    steps = [(bytes(rho_inv) + pad[n:], bytes(sigma) + pad[n:]) for sigma, rho_inv in gens]
    group = [(pad[:n], pad)]
    seen = set(group)
    for rho_inv, sigma in group:  # grows while it is walked
        for r, s in steps:
            element = (rho_inv.translate(r), s.translate(sigma))
            if element not in seen:
                seen.add(element)
                group.append(element)
    return group


def closed_cycles_in(succ):
    """Cycles closed inside a partial injective map.

    succ is a dict {tail: head}, or a permutation given as its sequence of
    successors, all of whose cycles are closed.
    """
    seen = set()
    cycles = 0
    # a dict yields its tails; a permutation's values are all its points
    for start in succ:
        if start in seen:
            continue
        v = start
        try:
            while v not in seen:
                seen.add(v)
                v = succ[v]
        except KeyError:  # an open path, ending at a head that is no tail
            continue
        cycles += v == start
    return cycles


def brute_permanent(rows):
    n = len(rows)
    return sum(prod(rows[i][p[i]] for i in range(n)) for p in permutations(range(n)))


def brute_partition_stats(g, allow_edges):
    """Vertex partitions into cycles (>=3) and, optionally, matched edges.

    Every component contributes one unit to the cycle count, a matched
    edge included.  Enumerates edge subsets with all degrees in {1, 2};
    such a subset has between n/2 and n edges, so no other size is tried.
    Its components are cycles and paths, and a path longer than one edge
    has an edge from an end (degree 1) to a vertex of degree 2.
    """
    hist = Counter()
    for k in range((g.n + 1) // 2, g.n + 1):
        for sub in combinations(g.edges(), k):
            deg = [0] * g.n
            for u, v in sub:
                deg[u] += 1
                deg[v] += 1
            if any(x == 0 or x > 2 for x in deg):
                continue
            if any(deg[u] + deg[v] == 3 for u, v in sub) or (1 in deg and not allow_edges):
                continue
            # n rounds label every vertex by the least vertex of its component
            comp = list(range(g.n))
            for _ in range(g.n):
                for u, v in sub:
                    comp[u] = comp[v] = min(comp[u], comp[v])
            hist[len(set(comp))] += 1
    return sum(hist.values()), sum(k * c for k, c in hist.items()), dict(hist)


def cycle_matchings(n):
    """Each matching of the plain n-cycle graph, as a tuple of edges (v, v+1 mod n)."""
    edges = [(v, (v + 1) % n) for v in range(n)]
    for k in range(n + 1):
        for sub in combinations(edges, k):
            if len({v for e in sub for v in e}) == 2 * k:
                yield sub


def brute_cycle_matchings(n):
    """Matchings of the plain n-cycle graph, bucketed by size."""
    sizes = Counter(map(len, cycle_matchings(n)))
    return [sizes[k] for k in range(max(sizes) + 1)]


def harmonic_by_terms(m):
    """H_m = 1 + 1/2 + ... + 1/m as a Fraction, one term at a time; H_0 = 0."""
    return sum((Fraction(1, j) for j in range(1, m + 1)), Fraction(0))


def stirling_cycle_counts(m):
    """c(m, j) for j = 0..m: permutations of m points with j cycles.

    The unsigned Stirling numbers of the first kind, by their recurrence
    c(k + 1, j) = k c(k, j) + c(k, j - 1): point k + 1 joins one of the k
    cycle slots of a permutation of k points, or is a cycle of its own.
    """
    row = [1]
    for k in range(m):
        row = [k * a + b for a, b in zip(row + [0], [0] + row)]
    return row


def block_counts_by_harmonics(d):
    """(N0, S0) of one crossing-gadget half with both crossing arcs unused.

    The half is the looped d-clique minus one pair of opposite arcs;
    inclusion-exclusion over the two missing arcs gives N0 and, through
    harmonic numbers, S0 = d! H_d - 2 (d-1)! H_(d-1) + (d-2)! (H_(d-2) + 1)
    as a Fraction.  d >= 2, with 0! = 1 and H_0 = 0.
    """
    n0 = factorial(d) - 2 * factorial(d - 1) + factorial(d - 2)
    s0 = (
        factorial(d) * harmonic_by_terms(d)
        - 2 * factorial(d - 1) * harmonic_by_terms(d - 1)
        + factorial(d - 2) * (harmonic_by_terms(d - 2) + 1)
    )
    return n0, s0


def pattern_table_by_harmonics(d):
    """(count, mean) of each crossing-pattern row of the degree-d gadget, d >= 3.

    Rows in the package's order: no crossing arc; one two-cycle across a
    half boundary; both; one long cycle through both halves.  Means are
    Fractions through harmonic numbers.
    """
    n0, s0 = block_counts_by_harmonics(d)
    h1, h2 = harmonic_by_terms(d - 1), harmonic_by_terms(d - 2)
    return [
        (n0 * n0, 2 * s0 / n0),
        (2 * factorial(d - 1) ** 2, 2 * h1 + 1),
        (factorial(d - 2) ** 2, 2 * h2 + 2),
        (2 * (factorial(d - 2) * (d - 2)) ** 2, 2 * h2 - 1),
    ]


def partial_perm_count(n, r):
    """Permutations of n points extending a fixed partial permutation of r arcs.

    On the complete looped digraph every extension is admissible, so the
    value is (n-r)! regardless of the shape of the prescribed arcs.
    """
    if not 0 <= r <= n:
        raise ValueError("need 0 <= r <= n")
    return factorial(n - r)


def partial_perm_cycle_sum(n, r, q):
    """Total cycle count over all extensions of a partial permutation.

    r is the number of prescribed arcs, q the number of cycles they already
    close; the sum is (n-r)!*(H_{n-r} + q), always an integer.
    """
    if not 0 <= r <= n:
        raise ValueError("need 0 <= r <= n")
    if not 0 <= q <= r:
        raise ValueError("a prescribed cycle consumes at least one arc: 0 <= q <= r")
    total = factorial(n - r) * (harmonic_by_terms(n - r) + q)
    assert total.denominator == 1, "cycle sum came out non-integral"
    return total.numerator


def excess_numerator_positive(d_max):
    """True iff the gadget's excess cubic and its derivative are positive on 3..d_max.

    The cubic 3d^3 - 14d^2 + 25d - 10 is the excess numerator's one factor
    that is not plainly positive; its derivative is 9d^2 - 28d + 25.
    """
    if d_max < 3:
        raise ValueError("need d_max >= 3")
    return all(
        3 * d**3 - 14 * d**2 + 25 * d - 10 > 0 and 9 * d**2 - 28 * d + 25 > 0
        for d in range(3, d_max + 1)
    )
