"""Exact brute-force engines for factor statistics.

Directed side: cycle-factor counts, cycle-count histograms, fixed-point
sums, per-arc usage, constrained enumeration with prescribed or forbidden
arcs, and the crossing-pattern table of the gadget.  Undirected side:
spanning partitions into cycles (optionally also single matched edges),
matchings of cycles, and a Ryser permanent used as an independent
counting oracle.

Every directed statistic comes from one enumeration core, _factor_table.
It assigns successors in increasing vertex order under a used-heads
bitmask, sums integer arc weights along each factor into a key, and counts
factors by (key, cycle count).  cycle_factor_stats weights each loop 1, so
the key is the number of fixed points; classify_crossing_patterns weights
each crossing arc by its pattern bit, so the key is the crossing pattern.
Cycle counts are maintained incrementally: each open path keeps its two
endpoints spliced together in a successor/predecessor table, so closing a
path into a cycle is an O(1) test instead of a decomposition pass at every
leaf.  iter_cycle_factors stays a separate plain recursion, as an oracle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterator, Sequence

from .errors import InternalCheckError, NoCycleFactorError
from .exact import (
    ALLOWED_PATTERNS,
    CROSSING_ARC_ORDER,
    ROW_GROUPS,
    TableRow,
    pattern_name,
)
from .families import crossing_gadget, looped_bidirected_cycle
from .graphs import Arc, DiGraph, UGraph

MAX_FAST_VERTICES = 64
# largest crossing-gadget degree the pattern classifier enumerates
MAX_GADGET_DEGREE = 7
# largest looped bidirected cycle whose factor set is classified
MAX_LOOPED_CYCLE = 16


@dataclass(frozen=True)
class FactorStats:
    """Exact aggregate statistics over a set of factors.

    histogram maps a cycle count to the number of factors attaining it.
    fix_sum totals the fixed points (loops used) across all factors.
    edge_usage, when requested, maps each arc to the number of factors
    containing it; arcs in no factor are omitted.
    """

    count: int
    cycle_sum: int
    histogram: dict[int, int]
    fix_sum: int = 0
    edge_usage: dict[Arc, int] | None = None

    def mean(self) -> Fraction:
        if self.count == 0:
            raise NoCycleFactorError("no cycle-factor")
        return Fraction(self.cycle_sum, self.count)


@dataclass(frozen=True)
class ArcConstraints:
    """Prescribed and excluded arcs for constrained enumeration.

    required must form a partial permutation: no two arcs may share a tail
    or share a head.  required and forbidden must be disjoint.  Required
    arcs absent from the graph make the count 0 rather than erroring.
    """

    required: frozenset[Arc] = frozenset()
    forbidden: frozenset[Arc] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "required", frozenset(self.required))
        object.__setattr__(self, "forbidden", frozenset(self.forbidden))
        tails = [a[0] for a in self.required]
        heads = [a[1] for a in self.required]
        if len(set(tails)) != len(tails) or len(set(heads)) != len(heads):
            raise ValueError("required arcs must form a partial permutation")
        if self.required & self.forbidden:
            raise ValueError("an arc cannot be both required and forbidden")


def _candidate_rows(g: DiGraph, constraints: ArcConstraints | None) -> list[list[int]]:
    req_head: dict[int, int] = {}
    req_heads: set[int] = set()
    forbidden: frozenset[Arc] = frozenset()
    if constraints is not None:
        for tail, head in constraints.required:
            req_head[tail] = head
            req_heads.add(head)
        forbidden = constraints.forbidden
    rows = []
    for v in range(g.n):
        if v in req_head:
            h = req_head[v]
            rows.append([h] if g.has_arc(v, h) else [])
        else:
            rows.append(
                [w for w in g.out[v] if (v, w) not in forbidden and w not in req_heads]
            )
    return rows


def _factor_table(
    rows: Sequence[Sequence[int]], weights: dict[Arc, int], want_usage: bool
) -> tuple[list[list[int]], dict[Arc, int] | None]:
    """Tabulate every cycle-factor whose arcs come from the candidate rows.

    Each arc weighs weights.get(arc, 0) >= 0, and a factor's key is the sum
    of its arc weights, so no key exceeds sum(weights.values()).  Returns
    table with table[key][cycles] the number of factors of that key and
    cycle count, and, when want_usage is set, the number of factors
    through each arc (arcs in no factor omitted).
    """
    n = len(rows)
    stride = n + 1
    nkeys = 1 + sum(weights.values())
    # key and cycle count share one flat index key * stride + cycles, so
    # each arc carries its weight pre-scaled and a closed cycle adds 1
    cand = [
        [(w, 1 << w, weights.get((v, w), 0) * stride) for w in row]
        for v, row in enumerate(rows)
    ]
    flat = [0] * (nkeys * stride)
    usage: dict[Arc, int] | None = {} if want_usage else None
    start = list(range(n))
    end = list(range(n))

    def rec(v, used, index):
        # returns the number of factors below this node
        if v == n:
            flat[index] += 1
            return 1
        nxt = v + 1
        s = start[v]
        below = 0
        for w, bit, wt in cand[v]:
            if used & bit:
                continue
            if w == s:
                found = rec(nxt, used | bit, index + wt + 1)
            else:
                e = end[w]
                start[e] = s
                end[s] = e
                found = rec(nxt, used | bit, index + wt)
                start[e] = w
                end[s] = v
            if found:
                below += found
                if usage is not None:
                    usage[v, w] = usage.get((v, w), 0) + found
        return below

    if all(rows):  # a vertex without candidates admits no factor
        rec(0, 0, 0)
    return [flat[k * stride : (k + 1) * stride] for k in range(nkeys)], usage


def cycle_factor_stats(
    g: DiGraph,
    constraints: ArcConstraints | None = None,
    want_edge_usage: bool = False,
) -> FactorStats:
    """Exact statistics over every cycle-factor of g meeting the constraints.

    A cycle-factor is a permutation sigma of the vertices with v -> sigma(v)
    an arc for every v.  One pass of the enumeration core assigns sigma(v)
    in increasing vertex order under a used-heads bitmask, with each loop
    weighted 1, so a factor's key is its number of fixed points.  Count,
    cycle sum, fixed-point sum and histogram are all read off the table.
    """
    n = g.n
    if n > MAX_FAST_VERTICES:
        raise ValueError(
            f"graph order {n} exceeds the fast-path limit {MAX_FAST_VERTICES}"
        )
    rows = _candidate_rows(g, constraints)
    loops = {(v, v): 1 for v, row in enumerate(rows) if v in row}
    table, usage = _factor_table(rows, loops, want_edge_usage)
    by_fix = list(map(sum, table))
    by_cycles = list(map(sum, zip(*table)))
    hist = {c: h for c, h in enumerate(by_cycles) if h}
    cycle_sum = sum(map(mul, range(n + 1), by_cycles))
    fix_sum = sum(map(mul, range(len(by_fix)), by_fix))
    return FactorStats(sum(by_fix), cycle_sum, hist, fix_sum, usage)


def iter_cycle_factors(
    g: DiGraph, constraints: ArcConstraints | None = None
) -> Iterator[tuple[int, ...]]:
    """Yield each cycle-factor as a successor tuple sigma."""
    n = g.n
    if n == 0:
        yield ()
        return
    rows = _candidate_rows(g, constraints)
    if any(not row for row in rows):
        return
    sigma = [-1] * n

    def rec(v, used):
        if v == n:
            yield tuple(sigma)
            return
        for w in rows[v]:
            bit = 1 << w
            if used & bit:
                continue
            sigma[v] = w
            yield from rec(v + 1, used | bit)

    yield from rec(0, 0)


def permutation_cycles(sigma: Sequence[int]) -> int:
    """Number of cycles of a permutation given as a successor table."""
    seen = [False] * len(sigma)
    cycles = 0
    for v in range(len(sigma)):
        if not seen[v]:
            cycles += 1
            w = v
            while not seen[w]:
                seen[w] = True
                w = sigma[w]
    return cycles


def expected_cycles(g: DiGraph) -> Fraction:
    """Mean cycle count over all cycle-factors, exact."""
    return cycle_factor_stats(g).mean()


def classify_crossing_patterns(d: int) -> list[TableRow]:
    """Bucket the crossing gadget's factors by which crossing arcs they use.

    One pass of the enumeration core with each crossing arc weighted by its
    pattern bit.  The four crossing arcs have distinct tails, so a factor
    uses each at most once and its key is its 4-bit pattern.  Degree balance
    between the two gadget halves permits only six patterns; observing any
    other raises InternalCheckError.  Buckets are aggregated into the four
    fixed row groups so the result is comparable to crossing_pattern_table.
    """
    if d < 3:
        raise ValueError("need d >= 3")
    if d > MAX_GADGET_DEGREE:
        raise ValueError(f"degree {d} above the enumeration limit {MAX_GADGET_DEGREE}")
    g, labeling = crossing_gadget(d)
    bit_of = {name: 1 << i for i, name in enumerate(CROSSING_ARC_ORDER)}
    weights = {arc: bit_of[name] for name, arc in labeling.crossing_arcs.items()}
    table, _ = _factor_table(g.out, weights, False)
    bucket_count = [sum(by_cycles) for by_cycles in table]
    bucket_sum = [sum(c * h for c, h in enumerate(by_cycles)) for by_cycles in table]
    name_of = [
        pattern_name({nm for nm in CROSSING_ARC_ORDER if bit_of[nm] & mask})
        for mask in range(16)
    ]
    for mask in range(16):
        if bucket_count[mask] and name_of[mask] not in ALLOWED_PATTERNS:
            raise InternalCheckError(
                f"impossible crossing pattern {name_of[mask]} observed"
            )
    rows = []
    for group in ROW_GROUPS:
        cnt = sum(bucket_count[m] for m in range(16) if name_of[m] in group)
        tot = sum(bucket_sum[m] for m in range(16) if name_of[m] in group)
        if cnt == 0:
            raise InternalCheckError(f"crossing pattern row {group} is empty")
        rows.append(TableRow(group, cnt, Fraction(tot, cnt)))
    return rows


# ---------------------------------------------------------------------------
# Looped bidirected cycles: factors versus matchings
# ---------------------------------------------------------------------------


def _cycle_matchings(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    # matchings of the undirected n-cycle with edges (i, i+1 mod n)
    edges = [(i, (i + 1) % n) for i in range(n)]

    def rec(i, used, cur):
        if i == len(edges):
            yield tuple(cur)
            return
        yield from rec(i + 1, used, cur)
        u, v = edges[i]
        if not used >> u & 1 and not used >> v & 1:
            cur.append((u, v))
            yield from rec(i + 1, used | 1 << u | 1 << v, cur)
            cur.pop()

    yield from rec(0, 0, [])


def gn_classification_check(n: int) -> bool:
    """Factors of the looped bidirected n-cycle = 2 rotations + matchings.

    Compares the enumerated factor set against the set built from the two
    full rotations plus one swap-factor per matching of the n-cycle (matched
    pairs transposed, everything else fixed by its loop).
    """
    if not 4 <= n <= MAX_LOOPED_CYCLE:
        raise ValueError(f"need 4 <= n <= {MAX_LOOPED_CYCLE}")
    g = looped_bidirected_cycle(n)
    found = set(iter_cycle_factors(g))
    expected = {
        tuple((v + 1) % n for v in range(n)),
        tuple((v - 1) % n for v in range(n)),
    }
    for matching in _cycle_matchings(n):
        sigma = list(range(n))
        for u, v in matching:
            sigma[u], sigma[v] = v, u
        expected.add(tuple(sigma))
    return found == expected


def _poly_add_shift(a: list[int], b: list[int]) -> list[int]:
    # a(x) + x*b(x) as coefficient lists
    out = list(a) + [0] * max(0, len(b) + 1 - len(a))
    for i, c in enumerate(b):
        out[i + 1] += c
    return out


def cycle_matching_counts(n: int) -> list[int]:
    """Matchings of the n-cycle counted by size, for sizes 0..n//2.

    Path DP: appending a vertex either leaves it unmatched or matches it to
    its predecessor; the cycle closes by splitting on the wrap-around edge.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    paths = [[1], [1]]
    for _ in range(2, n + 1):
        paths.append(_poly_add_shift(paths[-1], paths[-2]))
    return _poly_add_shift(paths[n], paths[n - 2])


# ---------------------------------------------------------------------------
# Undirected engine: partitions into cycles (and optionally single edges)
# ---------------------------------------------------------------------------


def _components(g: UGraph) -> list[list[int]]:
    seen = [False] * g.n
    comps = []
    for v0 in range(g.n):
        if seen[v0]:
            continue
        stack = [v0]
        seen[v0] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in g.adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def _partition_histogram(g: UGraph, comp: list[int], allow_edges: bool) -> dict[int, int]:
    # histogram {number of parts: ways} over spanning partitions of the
    # component into cycle parts (length >= 3) and, optionally, edge parts
    adj = g.adj
    unassigned = set(comp)
    hist: Counter[int] = Counter()

    def grow(path, nparts):
        # extend the current part's open path, or close it into a cycle;
        # the path is anchored at its minimal vertex path[0], and the
        # direction is fixed by path[1] < path[-1] at closing time
        u = path[-1]
        if len(path) >= 3 and path[1] < u and g.has_edge(path[0], u):
            rec(nparts + 1)
        for w in adj[u]:
            if w in unassigned:
                unassigned.discard(w)
                path.append(w)
                grow(path, nparts)
                path.pop()
                unassigned.add(w)

    def rec(nparts):
        if not unassigned:
            hist[nparts] += 1
            return
        v = min(unassigned)
        unassigned.discard(v)
        if allow_edges:
            for w in adj[v]:
                if w in unassigned:
                    unassigned.discard(w)
                    rec(nparts + 1)
                    unassigned.add(w)
        grow([v], nparts)
        unassigned.add(v)

    rec(0)
    return dict(hist)


def _convolve(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = ka + kb
            out[k] = out.get(k, 0) + va * vb
    return out


def two_factor_stats(g: UGraph, allow_edge_as_2cycle: bool = False) -> FactorStats:
    """Statistics of spanning partitions of g into cycles, scored by part count.

    With allow_edge_as_2cycle False the parts are cycles of length >= 3
    only, i.e. exactly the 2-factors of g.  With it True a part may also be
    a single matched edge, which counts as one cycle.  Components are
    enumerated independently and combined by histogram convolution.
    """
    hists = []
    for comp in _components(g):
        h = _partition_histogram(g, comp, allow_edge_as_2cycle)
        if not h:
            return FactorStats(0, 0, {})
        hists.append(h)
    total = {0: 1}
    for h in hists:
        total = _convolve(total, h)
    count = sum(total.values())
    cycle_sum = sum(k * v for k, v in total.items())
    return FactorStats(count, cycle_sum, dict(sorted(total.items())))


def ryser_permanent(matrix: Sequence[Sequence[int]]) -> int:
    """Permanent of a square nonnegative integer matrix by Ryser's formula.

    Exponential inclusion-exclusion over column subsets; independent of the
    factor enumeration, so the two can cross-check each other.
    """
    rows = [tuple(r) for r in matrix]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1
    total = 0
    for s in range(1, 1 << n):
        cols = [j for j in range(n) if s >> j & 1]
        prod = 1
        for r in rows:
            prod *= sum(r[j] for j in cols)
            if prod == 0:
                break
        if prod:
            total += prod if (n - len(cols)) % 2 == 0 else -prod
    return total
