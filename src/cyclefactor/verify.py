"""Benchmark certificates and exhaustive verification suites.

certify compares a d-regular digraph's exact mean cycle count against the
looped-clique benchmark (n/d)*H_d and classifies the sign of the margin.
The suites re-derive the closed forms by brute force: every 2-regular
digraph up to a size cap, the crossing gadget across degrees, and the
looped bidirected cycles against their matching description.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .enumeration import (
    MAX_GADGET_DEGREE,
    MAX_LOOPED_CYCLE,
    classify_crossing_patterns,
    cycle_factor_stats,
    cycle_matching_counts,
    gn_classification_check,
)
from .errors import IndivisibleOrderError, NotRegularError
from .exact import gadget_closed_form, harmonic
# unused here; perfbench/workloads.py traces crossing_gadget at this binding
from .families import crossing_gadget  # noqa: F401
from .graphs import DiGraph, is_d_regular, to_text

VERDICTS = ("beats_benchmark", "ties", "below")


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


def certify(g: DiGraph, d: int, provenance: str = "") -> Certificate:
    """Certify the graph's exact excess over the benchmark (n/d)*H_d.

    Preconditions: g is d-regular, d divides n, and at least one
    cycle-factor exists (automatic for regular graphs, but checked).
    """
    if d < 1:
        raise ValueError("need d >= 1")
    if not is_d_regular(g, d):
        raise NotRegularError(f"graph is not {d}-regular")
    if g.n % d != 0:
        raise IndivisibleOrderError(f"benchmark needs d | n, got n={g.n}, d={d}")
    stats = cycle_factor_stats(g)
    expectation = stats.mean()
    benchmark = Fraction(g.n, d) * harmonic(d)
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
    soon as some vertex can no longer reach in-degree 2.
    """
    if n < 2:
        return
    subsets = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen: list[tuple[int, int]] = []
    indeg = [0] * n

    def rec(v):
        if v == n:
            yield DiGraph(n, [list(p) for p in chosen])
            return
        left = n - v - 1
        for a, b in subsets:
            if indeg[a] < 2 and indeg[b] < 2:
                indeg[a] += 1
                indeg[b] += 1
                if all(2 - indeg[w] <= left for w in range(n)):
                    chosen.append((a, b))
                    yield from rec(v + 1)
                    chosen.pop()
                indeg[a] -= 1
                indeg[b] -= 1

    yield from rec(0)


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


def two_regular_suite(n_max: int = 6) -> SuiteReport:
    """Exhaustive degree-2 checks on every 2-regular digraph with n <= n_max.

    Per graph: every arc lies in exactly half the factors, the mean number
    of fixed points is half the loop count, the mean cycle count is at most
    n/2 + loops/4, and it equals 3n/4 exactly when the graph is a disjoint
    union of looped mutual pairs.  No fingerprint dedup: the claims are
    per-graph, so every labeled graph is checked outright.
    """
    if n_max < 2:
        raise ValueError("need n_max >= 2")
    failures = []
    checked = 0
    for n in range(2, n_max + 1):
        for g in iter_two_regular_digraphs(n):
            st = cycle_factor_stats(g, want_edge_usage=True)
            if st.count == 0:
                continue
            checked += 1
            loops = g.loop_count
            usage = st.edge_usage or {}
            problems = []
            if any(2 * usage.get(a, 0) != st.count for a in g.arcs()):
                problems.append("some arc marginal differs from 1/2")
            if 2 * st.fix_sum != loops * st.count:
                problems.append("mean fixed points differ from loops/2")
            if 4 * st.cycle_sum > (2 * n + loops) * st.count:
                problems.append("mean cycles exceed n/2 + loops/4")
            tight = 4 * st.cycle_sum == 3 * n * st.count
            if tight != _is_loop_pair_union(g):
                problems.append("3n/4 equality does not match the pair-union shape")
            if problems:
                failures.append("; ".join(problems) + "\n" + to_text(g, 2))
    return SuiteReport("two-regular", checked, tuple(failures))


def gadget_cross_validation(d_max: int = 6) -> SuiteReport:
    """Brute force versus closed forms for the crossing gadget, d = 3..d_max.

    One enumeration per degree: the crossing-pattern rows partition the
    factors (any other pattern raises), so their totals give the factor
    count and cycle sum.  Compares count, total cycle sum, mean, and each
    aggregated row; reports the first differing quantity per degree.
    """
    if not 3 <= d_max <= MAX_GADGET_DEGREE:
        raise ValueError(f"need 3 <= d_max <= {MAX_GADGET_DEGREE}")
    failures = []
    for d in range(3, d_max + 1):
        form = gadget_closed_form(d)
        observed = classify_crossing_patterns(d)
        count = sum(row.count for row in observed)
        cycle_sum = sum(row.count * row.mean for row in observed)
        mean = cycle_sum / count
        mismatch = None
        if count != form.count:
            mismatch = f"factor count {count} != {form.count}"
        elif cycle_sum != form.cycle_sum:
            mismatch = f"cycle sum {cycle_sum} != {form.cycle_sum}"
        elif mean != form.expectation:
            mismatch = f"mean {mean} != {form.expectation}"
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
    """Factor-set classification of the looped bidirected cycles, n = 4..n_max."""
    if not 4 <= n_max <= MAX_LOOPED_CYCLE:
        raise ValueError(f"need 4 <= n_max <= {MAX_LOOPED_CYCLE}")
    failures = []
    for n in range(4, n_max + 1):
        if not gn_classification_check(n):
            failures.append(f"n={n}: factors are not two rotations plus matchings")
    if cycle_matching_counts(6) != [1, 6, 9, 2]:
        failures.append("matching counts of the 6-cycle differ from (1, 6, 9, 2)")
    return SuiteReport("looped-cycle", n_max - 3, tuple(failures))
