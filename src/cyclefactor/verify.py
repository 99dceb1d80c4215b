"""Benchmark certificates and exhaustive verification suites.

certify compares a d-regular digraph's exact mean cycle count against the
looped-clique benchmark (n/d)*H_d and classifies the sign of the margin.
The suites re-derive the closed forms by brute force: every 2-regular
digraph up to a size cap, one per isomorphism class (generated from the
symmetry group of each cycle type's double-cover layout) with an
orbit-count certificate that no labeled graph is missed, the crossing
gadget across degrees, and the looped bidirected cycles against their
matching description, by comparing factor histograms with counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate, groupby, permutations
from math import factorial
from typing import Iterator, Sequence

from .enumeration import (
    MAX_FAST_VERTICES,
    classify_crossing_patterns,
    cycle_factor_stats,
    cycle_factor_totals,
    cycle_matching_counts,
)
from .errors import IndivisibleOrderError, NotRegularError
from .exact import gadget_closed_form, harmonic
# unused here; perfbench/workloads.py traces crossing_gadget at this binding
from .families import crossing_gadget  # noqa: F401
from .families import looped_bidirected_cycle
from .graphs import DiGraph, canonical_form, is_d_regular, to_text

# largest order the two-regular suite walks: n_max = 8 covers 190,711,867
# labeled graphs through 5,936 classes in about 1.1 s, against about 0.13 s
# at n_max = 7 (2-core Xeon, CPython 3.11.7); n = 9 would walk S_9 and hold
# a seen set of its 362,880 placements per cycle type, and check 41,607
# candidates against n = 8's 5,055
MAX_TWO_REGULAR_N = 8


@dataclass(frozen=True)
class Certificate:
    """Exact comparison of one graph against the clique benchmark."""

    graph_text: str
    n: int
    d: int
    count: int
    cycle_sum: int
    expectation: Fraction
    benchmark: Fraction
    excess: Fraction
    verdict: str
    provenance: str = ""


@dataclass(frozen=True)
class SuiteReport:
    name: str
    checked: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


@cache
def _benchmark(n: int, d: int) -> Fraction:
    # (n/d)*H_d, one Fraction per (n, d): the certificates of one search
    # share it instead of each holding its own
    return Fraction(n, d) * harmonic(d)


def certify(g: DiGraph, d: int, provenance: str = "") -> Certificate:
    """Certify the graph's exact excess over the benchmark (n/d)*H_d.

    Preconditions: g has a vertex, g is d-regular, d divides n, and at
    least one cycle-factor exists (automatic for regular graphs, but
    checked).
    """
    if d < 1:
        raise ValueError("need d >= 1")
    if g.n == 0:
        raise ValueError("graph has no vertex")
    if not is_d_regular(g, d):
        raise NotRegularError(f"graph is not {d}-regular")
    if g.n % d != 0:
        raise IndivisibleOrderError(f"benchmark needs d | n, got n={g.n}, d={d}")
    stats = cycle_factor_totals(g)
    expectation = stats.mean()
    benchmark = _benchmark(g.n, d)
    excess = expectation - benchmark
    if excess > 0:
        verdict = "beats_benchmark"
    elif excess == 0:
        verdict = "ties"
    else:
        verdict = "below"
    return Certificate(
        to_text(g, d),
        g.n,
        d,
        stats.count,
        stats.cycle_sum,
        expectation,
        benchmark,
        excess,
        verdict,
        provenance,
    )


def iter_two_regular_digraphs(n: int) -> Iterator[DiGraph]:
    """Every labeled digraph on n vertices with all in- and out-degrees 2.

    Backtracks over each vertex's out-neighbor 2-subset (loops allowed,
    parallel arcs impossible) while tracking in-degrees; a branch dies as
    soon as some vertex can no longer reach in-degree 2.  The suite walks
    two_regular_candidates instead; this is the labeled oracle their
    cover is tested against.
    """
    if n < 2:
        return
    subsets = [(a, b) for a in range(n) for b in range(a + 1, n)]
    # depth-first on an explicit stack: (next vertex, in-degrees, rows so far)
    stack = [(0, (0,) * n, ())]
    while stack:
        v, indeg, chosen = stack.pop()
        if v == n:
            yield DiGraph(n, chosen)
            continue
        left = n - v - 1
        children = []
        for a, b in subsets:
            if indeg[a] < 2 and indeg[b] < 2:
                deg = list(indeg)
                deg[a] += 1
                deg[b] += 1
                if all(2 - k <= left for k in deg):
                    children.append((v + 1, tuple(deg), chosen + ((a, b),)))
        stack += reversed(children)


def _is_loop_pair_union(g: DiGraph) -> bool:
    # disjoint 2-vertex blocks: a loop at each vertex plus one mutual arc
    for v in range(g.n):
        row = g.out[v]
        if len(row) != 2 or v not in row:
            return False
        p = row[0] if row[1] == v else row[1]
        if p == v or set(g.out[p]) != {p, v}:
            return False
    return True


def two_regular_count(n: int) -> int:
    """Labeled 2-regular digraphs on n vertices, loops allowed (OEIS A001499).

    These are the 0/1 matrices with every row and column sum 2:
    a(n) = n(n-1)/2 * (2 a(n-1) + (n-1) a(n-2)), a(0) = 1, a(1) = 0.
    """
    a = [1, 0]
    for k in range(2, n + 1):
        a.append(k * (k - 1) // 2 * (2 * a[k - 1] + (k - 1) * a[k - 2]))
    return a[n]


def cycle_types(n: int) -> list[tuple[int, ...]]:
    """Partitions of n into parts >= 2, largest part first.

    The cycles of a 2-regular digraph's double cover have 2m vertices,
    m tails and m heads, with m >= 2 since no arc is parallel; their m's
    partition n.
    """
    types = []
    # depth-first on an explicit stack: (parts so far, rest of n)
    stack = [((), n)]
    while stack:
        head, rest = stack.pop()
        if rest == 0:
            types.append(head)
            continue
        cap = min(rest, head[-1] if head else n)
        stack += ((head + (p,), rest - p) for p in range(2, cap + 1))
    return types


def _layout_group(shape: Sequence[int]) -> list[tuple[bytes, bytes]]:
    """Every element of the layout symmetry group of a cycle type, identity first.

    An element is (rho^-1, sigma): rho^-1 as n bytes and sigma as a
    256-byte bytes.translate table, so that for a placement p padded to
    256 bytes, rho_inv.translate(p).translate(sigma) is sigma o p o rho^-1.
    The group is the product of one dihedral group per part, of order 2m
    (per i, the rotation sigma = rho: j -> j+i and the reflection
    sigma: t_j -> t_(i-j), rho: s_j -> s_(i+1-j)), and the permutations
    of each run of equal parts (sigma = rho, moving whole parts).  Every
    element is a product of one member of each factor in exactly one way
    (Butler, Fundamental Algorithms for Permutation Groups, 1991), so the
    list is built factor by factor and each element is composed once,
    with one pair of bytes.translate calls.
    """
    n = sum(shape)
    # per factor, its offset and its elements as (rho^-1, sigma) there
    factors = []
    a = 0
    for m in shape:
        dihedral = []
        for i in range(m):
            # the rotation by i, then the reflection whose rho is its own inverse
            dihedral.append(([(j - i) % m for j in range(m)], [(j + i) % m for j in range(m)]))
            dihedral.append(([(i + 1 - j) % m for j in range(m)], [(i - j) % m for j in range(m)]))
        factors.append((a, dihedral))
        a += m
    a = 0
    for m, run in groupby(shape):
        r = len(list(run))
        if r > 1:
            blocks = [range(b * m, b * m + m) for b in range(r)]
            factors.append((a, [
                ([x for b in sorted(range(r), key=q.__getitem__) for x in blocks[b]],
                 [x for b in q for x in blocks[b]])
                for q in permutations(range(r))
            ]))
        a += r * m
    pad = bytes(range(256))
    group = [(pad[:n], pad)]
    for a, factor in factors:
        lifted = [
            (pad[:a] + bytes(a + x for x in r) + pad[a + len(r) :],
             pad[:a] + bytes(a + x for x in s) + pad[a + len(s) :])
            for r, s in factor
        ]
        # g h for each g listed so far and each h of the factor
        group = [(r1.translate(r2), s2.translate(s1)) for r2, s2 in lifted for r1, s1 in group]
    return group


def two_regular_candidates(n: int) -> Iterator[DiGraph]:
    """One 2-regular digraph of each isomorphism class on n vertices.

    For each cycle type, the double-cover layout gives a part of size m at
    offset a the tails t_j = a+j over the head slots s_j = a+j, and succ
    maps each slot to the next on its cycle, s_j to s_(j+1 mod m).  The
    graph of a head placement pi in S_n gives tail t_j the arcs to pi(s_j)
    and pi(s_(j+1 mod m)).  Walking each cycle of any 2-regular digraph's
    double cover and naming its tails and slots this way gives one of these
    graphs.  The layout's symmetry group acts on S_n by
    pi -> sigma o pi o rho^-1; any isomorphism between two layout graphs
    maps double-cover cycles to double-cover cycles, so its orbits are
    exactly the classes of the type.  The group is listed once per type
    (_layout_group) and S_n is walked in lexicographic order as bytes: the
    first unseen pi represents its orbit, the whole orbit is marked seen
    with one pair of bytes.translate calls per group element, and the
    representative's graph is yielded.  Its rows are built sorted and
    unchecked: every part has m >= 2, so s_j and s_(j+1) differ and no arc
    is doubled.
    """
    pad = bytes(range(256))
    for shape in cycle_types(n):
        offsets = accumulate(shape, initial=0)
        succ = bytes(a + (j + 1) % m for a, m in zip(offsets, shape) for j in range(m))
        group = _layout_group(shape)
        seen: set[bytes] = set()
        for pi in map(bytes, permutations(range(n))):
            if pi in seen:
                continue
            p = pi + pad[n:]
            seen.update([rho_inv.translate(p).translate(sigma) for rho_inv, sigma in group])
            yield DiGraph._of_rows(
                tuple([(u, w) if u < w else (w, u) for u, w in zip(pi, succ.translate(p))])
            )


def two_regular_suite(n_max: int = 6) -> SuiteReport:
    """Exhaustive degree-2 checks on every 2-regular digraph with n <= n_max.

    Per graph: every arc lies in exactly half the factors, the mean number
    of fixed points (the loops a factor uses, summed from their usage) is
    half the loop count, the mean cycle count is at most
    n/2 + loops/4, and it equals 3n/4 exactly when the graph is a disjoint
    union of looped mutual pairs.  Every claim is invariant under
    relabeling, so each isomorphism class is checked once, on its
    canonical form.  two_regular_candidates yields one graph per class;
    the suite still keys each on its canonical form, so a repeated class
    is checked once and a missing one fails the orbit sum below.  None is
    skipped: a 2-regular digraph always has a cycle-factor (Hall's theorem
    on its 2-regular double cover).

    checked counts labeled graphs: each class adds its orbit size
    n!/|Aut|.  Per n that sum must equal A001499(n), or the suite fails: a
    missing class leaves it short, a form that is not canonical (two keys
    for one class) makes it overshoot.
    """
    if not 2 <= n_max <= MAX_TWO_REGULAR_N:
        raise ValueError(f"need 2 <= n_max <= {MAX_TWO_REGULAR_N}")
    failures = []
    checked = 0
    for n in range(2, n_max + 1):
        seen = set()
        covered = 0
        for candidate in two_regular_candidates(n):
            rows, aut = canonical_form(candidate)
            if rows in seen:
                continue
            seen.add(rows)
            covered += factorial(n) // aut
            # canonical rows are sorted, in range and free of duplicates
            g = DiGraph._of_rows(rows)
            st = cycle_factor_totals(g, want_edge_usage=True)
            loops = g.loop_count
            usage = st.edge_usage or {}
            problems = []
            # usage omits the arcs in no factor, so each of the 2n arcs
            # lies in half the factors exactly when usage has 2n entries,
            # each half the count
            if len(usage) != 2 * n or any(2 * c != st.count for c in usage.values()):
                problems.append("some arc marginal differs from 1/2")
            fixed = sum(c for (v, w), c in usage.items() if v == w)
            if 2 * fixed != loops * st.count:
                problems.append("mean fixed points differ from loops/2")
            if 4 * st.cycle_sum > (2 * n + loops) * st.count:
                problems.append("mean cycles exceed n/2 + loops/4")
            tight = 4 * st.cycle_sum == 3 * n * st.count
            if tight != _is_loop_pair_union(g):
                problems.append("3n/4 equality does not match the pair-union shape")
            if problems:
                failures.append("; ".join(problems) + "\n" + to_text(g, 2))
        checked += covered
        want = two_regular_count(n)
        if covered != want:
            side = "short of" if covered < want else "over"
            failures.append(
                f"n={n}: the class orbits cover {covered} labeled graphs, "
                f"{side} A001499({n}) = {want}"
            )
    return SuiteReport("two-regular", checked, tuple(failures))


def gadget_cross_validation(d_max: int = 6) -> SuiteReport:
    """Brute force versus closed forms for the crossing gadget, d = 3..d_max.

    One factor table per degree: the crossing-pattern rows partition the
    factors (any other pattern raises), so their totals give the factor
    count and cycle sum.  The frontier engine merges partial factors by
    their open paths and does not visit each factor; that is what makes
    degree 8 (about 10^9 factors) and degree 32 (about 6.1 * 10^70)
    reachable.  The gadget has 2d vertices, so d_max stops at
    MAX_FAST_VERTICES // 2, and a bound outside 3..32 raises ValueError
    before any degree is checked.  Compares, in integers, count, total cycle sum and each
    aggregated row's count and cycle sum; reports the first differing
    quantity per degree.  The mean is their quotient, so it needs no
    comparison of its own.
    """
    if not 3 <= d_max <= MAX_FAST_VERTICES // 2:
        raise ValueError(f"need 3 <= d_max <= {MAX_FAST_VERTICES // 2}")
    failures = []
    for d in range(3, d_max + 1):
        form = gadget_closed_form(d)
        observed = classify_crossing_patterns(d)
        count = sum(row.count for row in observed)
        cycle_sum = sum(row.cycle_sum for row in observed)
        mismatch = None
        if count != form.count:
            mismatch = f"factor count {count} != {form.count}"
        elif cycle_sum != form.cycle_sum:
            mismatch = f"cycle sum {cycle_sum} != {form.cycle_sum}"
        else:
            for got, want in zip(observed, form.rows):
                if got != want:
                    mismatch = (
                        f"pattern row {'/'.join(want.patterns)}: "
                        f"({got.count}, {got.mean}) != ({want.count}, {want.mean})"
                    )
                    break
        if mismatch:
            failures.append(f"d={d}: {mismatch}")
    return SuiteReport("gadget-cross", d_max - 2, tuple(failures))


def looped_cycle_suite(n_max: int = 12) -> SuiteReport:
    """Factor-set classification of the looped bidirected cycles, n = 4..n_max.

    In the looped C_n every vertex has its loop and both arcs to v +- 1,
    so the two full rotations (one cycle each) and one swap-factor per
    matching of the n-cycle (matched pairs transposed, everything else
    fixed by its loop; k pairs leave n - k cycles) are 2 + sum_k m_k
    distinct cycle-factors.  If the factor histogram equals {1: 2} plus
    {n - k: m_k}, the factor count is that sum, so the factor set is
    exactly that set.  No factor is visited, so n_max reaches the
    engine's order limit.
    """
    if not 4 <= n_max <= MAX_FAST_VERTICES:
        raise ValueError(f"need 4 <= n_max <= {MAX_FAST_VERTICES}")
    failures = []
    for n in range(4, n_max + 1):
        g = looped_bidirected_cycle(n)
        # n - k >= n/2 >= 2, so no swap-factor shares a cycle count with a rotation
        expected = {1: 2} | {n - k: m for k, m in enumerate(cycle_matching_counts(n))}
        if not (
            all(g.has_arc(v, (v + s) % n) for v in range(n) for s in (0, 1, -1))
            and cycle_factor_stats(g).histogram == expected
        ):
            failures.append(f"n={n}: factors are not two rotations plus matchings")
    if cycle_matching_counts(6) != [1, 6, 9, 2]:
        failures.append("matching counts of the 6-cycle differ from (1, 6, 9, 2)")
    return SuiteReport("looped-cycle", n_max - 3, tuple(failures))
