"""Independent checks of each workload's outputs, run outside the timed phase.

Each check returns a list of problems; an empty list means the output is
correct.  The checks recompute what they can without the package's
enumeration engine: factor counts come from a permanent, cycle sums from
plain backtracking, the gadget's excess from the paper's closed-form
polynomial, and the number of 2-regular digraphs from its recurrence.
"""

from __future__ import annotations

import random
from collections import defaultdict
from fractions import Fraction

from cyclefactor import enumeration, graphs, verify

GADGET_D_MAX = 6
TWO_REGULAR_N_MAX = 6


def harmonic(m: int) -> Fraction:
    """H_m, computed here rather than taken from the package under test."""
    return sum((Fraction(1, j) for j in range(1, m + 1)), Fraction(0))


def matching_count(rows) -> int:
    """Permanent of a 0/1 matrix, by dynamic programming over used columns."""
    n = len(rows)
    cols = [[j for j, x in enumerate(row) if x] for row in rows]
    ways = {0: 1}
    for i in range(n):
        nxt: dict[int, int] = defaultdict(int)
        for used, w in ways.items():
            for j in cols[i]:
                if not used >> j & 1:
                    nxt[used | 1 << j] += w
        ways = nxt
    return ways.get((1 << n) - 1, 0)


def adjacency_rows(n: int, out) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for v, ws in enumerate(out):
        for w in ws:
            rows[v][w] = 1
    return rows


def factor_stats(n: int, out) -> tuple[int, int]:
    """Count the cycle-factors and total their cycles by plain backtracking.

    Each leaf walks the permutation's cycles.  This is written apart from
    the package's engine, which tracks open paths instead.
    """
    sigma = [0] * n
    count = total = 0

    def rec(v, used):
        nonlocal count, total
        if v == n:
            seen = 0
            for s in range(n):
                if not seen >> s & 1:
                    total += 1
                    w = s
                    while not seen >> w & 1:
                        seen |= 1 << w
                        w = sigma[w]
            count += 1
            return
        for w in out[v]:
            if not used >> w & 1:
                sigma[v] = w
                rec(v + 1, used | 1 << w)

    rec(0, 0)
    return count, total


def two_regular_count(n: int) -> int:
    """Labeled digraphs on n vertices, loops allowed, all degrees 2 (OEIS A001499).

    These are the 0/1 matrices with every row and column sum 2; the
    recurrence is a(n) = n(n-1)/2 * (2 a(n-1) + (n-1) a(n-2)).
    """
    a = [1, 0]
    for k in range(2, n + 1):
        a.append(k * (k - 1) // 2 * (2 * a[k - 1] + (k - 1) * a[k - 2]))
    return a[n]


def gadget_excess(d: int) -> Fraction:
    """The paper's closed-form excess of the 2d-vertex crossing gadget over 2 H_d."""
    num = 2 * (d - 2) * (3 * d**3 - 14 * d**2 + 25 * d - 10)
    den = d * (d - 1) * (d**4 - 6 * d**3 + 19 * d**2 - 30 * d + 20)
    return Fraction(num, den)


def check_suite_report(report, name: str, checked: int) -> list[str]:
    problems = []
    if report.name != name:
        problems.append(f"suite name {report.name!r} != {name!r}")
    if report.checked != checked:
        problems.append(f"{name}: checked {report.checked} != {checked}")
    if not report.ok or report.failures:
        problems.append(f"{name}: {len(report.failures)} failures: {report.failures[:1]}")
    return problems


def check_gadget_report(report) -> list[str]:
    return check_suite_report(report, "gadget-cross", GADGET_D_MAX - 2)


def check_two_regular_report(report) -> list[str]:
    total = sum(two_regular_count(n) for n in range(2, TWO_REGULAR_N_MAX + 1))
    return check_suite_report(report, "two-regular", total)


def check_gadget_forms(forms, gadgets) -> list[str]:
    """The closed forms the gadget suite compares against, checked independently.

    forms[d] is a GadgetClosedForm and gadgets[d] the crossing gadget of
    degree d.  If the enumeration and the closed forms drifted together,
    the suite would still pass; these checks would not.
    """
    problems = []
    for d, form in sorted(forms.items()):
        g = gadgets[d]
        count = matching_count(adjacency_rows(g.n, g.out))
        if form.count != count:
            problems.append(f"d={d}: closed-form count {form.count} != permanent {count}")
        if form.count and form.expectation != Fraction(form.cycle_sum, form.count):
            problems.append(f"d={d}: expectation is not cycle_sum/count")
        if form.excess != gadget_excess(d):
            problems.append(f"d={d}: excess {form.excess} != paper formula {gadget_excess(d)}")
        if form.excess != form.expectation - 2 * harmonic(d):
            problems.append(f"d={d}: excess is not expectation - 2 H_d")
        row_count = sum(r.count for r in form.rows)
        row_sum = sum(r.count * r.mean for r in form.rows)
        if row_count != form.count or row_sum != form.cycle_sum:
            problems.append(f"d={d}: pattern rows do not add up to count and cycle_sum")
    return problems


def parse_graph(text: str) -> tuple[int, list[list[int]]]:
    """Read the `n d_hint` / `v: w ...` text format without the package's parser."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    n = int(lines[0].split()[0])
    out = [[int(w) for w in ln.partition(":")[2].split()] for ln in lines[1 : n + 1]]
    if len(out) != n:
        raise ValueError(f"expected {n} vertex lines")
    return n, out


def regularity_problem(n: int, out, d: int) -> str | None:
    indeg = [0] * n
    for ws in out:
        if len(ws) != d or len(set(ws)) != d:
            return f"some out-degree is not {d}"
        for w in ws:
            indeg[w] += 1
    if any(k != d for k in indeg):
        return f"some in-degree is not {d}"
    return None


def check_certificate_numbers(n, d, count, cycle_sum, excess, verdict) -> list[str]:
    want = Fraction(cycle_sum, count) - Fraction(n, d) * harmonic(d)
    problems = []
    if excess != want:
        problems.append(f"excess {excess} != cycle_sum/count - (n/d) H_d = {want}")
    sign = "beats_benchmark" if want > 0 else "ties" if want == 0 else "below"
    if verdict != sign:
        problems.append(f"verdict {verdict!r} != {sign!r}")
    return problems


def check_search_records(records, n: int, d: int, population: int):
    """Re-certify a run_search leaderboard; returns [(record, problem), ...].

    The count is re-derived by Ryser's permanent of the double cover, as
    the search never computes a permanent itself.
    """
    bad = []
    if len(records) > population:
        bad.append((None, f"{len(records)} records exceed population {population}"))
    excesses = [r.certificate.excess for r in records]
    if excesses != sorted(excesses, reverse=True):
        bad.append((None, "leaderboard is not sorted by descending excess"))
    if len({r.fingerprint for r in records}) != len(records):
        bad.append((None, "leaderboard repeats a fingerprint"))
    for rec in records:
        cert = rec.certificate
        g_n, out = parse_graph(cert.graph_text)
        problem = regularity_problem(g_n, out, d)
        if cert.n != n or cert.d != d or g_n != n:
            problem = f"certificate is for n={cert.n}, d={cert.d}"
        if problem is None:
            g = graphs.DiGraph(g_n, out)
            count = enumeration.ryser_permanent(graphs.double_cover(g).biadjacency_rows())
            brute = factor_stats(g_n, out)
            if cert.count != count:
                problem = f"count {cert.count} != Ryser permanent {count}"
            elif (cert.count, cert.cycle_sum) != brute:
                problem = f"(count, cycle_sum) ({cert.count}, {cert.cycle_sum}) != backtracking {brute}"
            else:
                problem = "; ".join(
                    check_certificate_numbers(
                        n, d, cert.count, cert.cycle_sum, cert.excess, cert.verdict
                    )
                ) or None
        if problem:
            bad.append((rec, problem))
    return bad


def check_certify_doc(doc: dict, graph_text: str, d: int, relabel_seed: int) -> list[str]:
    """Check one `cyclefactor verify` JSON document against its input graph.

    The count must equal an independent permanent and the cycle sum plain
    backtracking's, a randomly relabeled copy must give the same count and
    cycle sum, and the rationals must be consistent with each other.
    """
    n, out = parse_graph(graph_text)
    problems = []
    if doc.get("n") != n or doc.get("d") != d:
        problems.append(f"document is for n={doc.get('n')}, d={doc.get('d')}")
        return problems
    count = matching_count(adjacency_rows(n, out))
    if doc["count"] != count:
        problems.append(f"count {doc['count']} != permanent {count}")
    _, cycle_sum = factor_stats(n, out)
    if doc["cycle_sum"] != cycle_sum:
        problems.append(f"cycle_sum {doc['cycle_sum']} != backtracking {cycle_sum}")
    perm = list(range(n))
    random.Random(relabel_seed).shuffle(perm)
    twin = verify.certify(graphs.DiGraph(n, out).relabel(perm), d)
    if (twin.count, twin.cycle_sum) != (doc["count"], doc["cycle_sum"]):
        problems.append(
            f"relabeled copy gives ({twin.count}, {twin.cycle_sum}) "
            f"!= ({doc['count']}, {doc['cycle_sum']})"
        )
    problems += check_certificate_numbers(
        n, d, doc["count"], doc["cycle_sum"], Fraction(doc["excess"]), doc["verdict"]
    )
    return problems
