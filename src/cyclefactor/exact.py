"""Closed forms for cycle-factor statistics, evaluated exactly.

Covers harmonic numbers, the per-crossing-pattern table of the six-class
gadget, the gadget's excess over the looped-clique benchmark 2*H_d, and a
proof that this excess is positive for every d >= 3.
The table is carried in integers from its rows to the gadget's totals:
a row holds its count and its cycle sum, count * mean, and every sum
k! * H_k it needs is the integer a_k = [k+1 over 2], the unsigned
Stirling number of the first kind (Graham, Knuth and Patashnik, Concrete
Mathematics, eq. 6.58), from a_0 = 0 and a_k = k * a_(k-1) + (k-1)!.
Fractions appear only for the means and the excess the caller reads;
floats only in report rendering.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import InternalCheckError

CROSSING_ARC_ORDER = ("u1", "v1", "u2", "v2")

# Row grouping of the pattern table: patterns in one row share count & mean.
# Counting in/out arcs across the two gadget halves forces the number of
# used arcs among {u1, v1} to equal the number among {u2, v2}, which kills
# 10 of the 16 conceivable patterns; the rows hold the other six.
ROW_GROUPS = (("none",), ("u1v2", "v1u2"), ("u1v1u2v2",), ("u1u2", "v1v2"))

# Row index of each allowed pattern by its mask, bit i = CROSSING_ARC_ORDER[i].
# A label is a letter then a digit, so it occurs in a name only as itself.
ROW_OF_MASK = {
    sum(1 << i for i, arc in enumerate(CROSSING_ARC_ORDER) if arc in name): row
    for row, group in enumerate(ROW_GROUPS) for name in group
}


@dataclass(frozen=True)
class TableRow:
    """One row of the pattern table: its factor count and their total cycle count."""

    patterns: tuple[str, ...]
    count: int
    cycle_sum: int

    @property
    def mean(self) -> Fraction:
        return Fraction(self.cycle_sum, self.count)


@dataclass(frozen=True)
class GadgetClosedForm:
    """Exact cycle-factor statistics of the 2d-vertex crossing gadget.

    count and cycle_sum are the number of cycle-factors and their total
    cycle count, and expectation is their quotient; excess =
    expectation - 2*H_d is the margin over two disjoint looped d-cliques
    on the same vertex count.
    """

    d: int
    count: int
    cycle_sum: int
    excess: Fraction
    rows: tuple[TableRow, ...]

    @property
    def expectation(self) -> Fraction:
        return Fraction(self.cycle_sum, self.count)


def harmonic(m: int) -> Fraction:
    """H_m = 1 + 1/2 + ... + 1/m exactly; H_0 = 0.

    One Fraction, a_m / m! with a_m = m! H_m from _factorial_harmonic.
    """
    if m < 0:
        raise ValueError("harmonic number needs m >= 0")
    return Fraction(_factorial_harmonic(m), factorial(m))


def _factorial_harmonic(m: int) -> int:
    """a_m = m! * H_m, an integer: [m+1 over 2].

    k! * H_k = k * (k-1)! * H_(k-1) + (k-1)!, so a_0 = 0 and
    a_k = k * a_(k-1) + (k-1)!; the a_k are the unsigned Stirling numbers
    of the first kind [k+1 over 2] (Concrete Mathematics, eq. 6.58).
    Only a_m is kept, so memory stays linear in its size; a caller that
    needs a_(m-1) divides it back out: a_(m-1) = (a_m - (m-1)!) / m.
    """
    if m < 0:
        raise ValueError("need m >= 0")
    a, f = 0, 1  # a_(k-1) and (k-1)! at step k
    for k in range(1, m + 1):
        a = k * a + f
        f *= k
    return a


def no_crossing_block_counts(d: int) -> tuple[int, int]:
    """Count and cycle sum for one gadget half with both crossing arcs unused.

    The half induces a complete looped digraph on d vertices minus one pair
    of opposite non-loop arcs; inclusion-exclusion over the two missing
    arcs gives the pair (N0, S0), with
    S0 = d! H_d - 2 (d-1)! H_(d-1) + (d-2)! (H_(d-2) + 1), evaluated as
    a_d - 2 a_(d-1) + a_(d-2) + (d-2)! with a_k = k! H_k
    (_factorial_harmonic).  d=2 is admitted for degenerate oracle tests
    under the conventions 0! = 1 and H_0 = 0.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    return _block_counts(d, _factorial_harmonic(d))


def _block_counts(d: int, ad: int) -> tuple[int, int]:
    # no_crossing_block_counts(d) given ad = a_d
    f1, f2 = factorial(d - 1), factorial(d - 2)
    n0 = factorial(d) - 2 * f1 + f2
    if n0 != f2 * (d * d - 3 * d + 3):
        raise InternalCheckError("two routes to the block count disagree")
    a1 = (ad - f1) // d
    a2 = (a1 - f2) // (d - 1)
    return n0, ad - 2 * a1 + a2 + f2


def crossing_pattern_table(d: int) -> list[TableRow]:
    """The four-row table of (patterns, count, cycle sum) for the gadget.

    Rows, in fixed order: no crossing arc used; one two-cycle closed across
    a half boundary (two symmetric patterns); both such two-cycles; one
    long cycle threading both halves (two symmetric patterns).  Their means
    are 2 S0 / N0, 2 H_(d-1) + 1, 2 H_(d-2) + 2 and 2 H_(d-2) - 1; each
    cycle sum, count * mean, is evaluated in integers through
    a_k = k! H_k, so row 1's is 2 (d-1)! (2 a_(d-1) + (d-1)!).
    """
    if d < 3:
        raise ValueError("need d >= 3")
    return _pattern_table(d, _factorial_harmonic(d))


def _pattern_table(d: int, ad: int) -> list[TableRow]:
    # crossing_pattern_table(d) given ad = a_d; a_(d-1) and a_(d-2) are
    # divided back out of it rather than recomputed
    n0, s0 = _block_counts(d, ad)
    f1, f2 = factorial(d - 1), factorial(d - 2)
    a1 = (ad - f1) // d
    a2 = (a1 - f2) // (d - 1)
    return [
        TableRow(ROW_GROUPS[0], n0 * n0, 2 * n0 * s0),
        TableRow(ROW_GROUPS[1], 2 * f1 * f1, 2 * f1 * (2 * a1 + f1)),
        TableRow(ROW_GROUPS[2], f2 * f2, 2 * f2 * (a2 + f2)),
        TableRow(ROW_GROUPS[3], 2 * (f2 * (d - 2)) ** 2, 2 * (d - 2) ** 2 * f2 * (2 * a2 - f2)),
    ]


def _excess_cubic(d: int) -> int:
    return 3 * d**3 - 14 * d**2 + 25 * d - 10


def _gadget_quartic(d: int) -> int:
    return d**4 - 6 * d**3 + 19 * d**2 - 30 * d + 20


def benchmark_excess(d: int) -> Fraction:
    """Closed-form excess of the gadget mean over 2*H_d, without any table."""
    if d < 3:
        raise ValueError("need d >= 3")
    return Fraction(
        2 * (d - 2) * _excess_cubic(d), d * (d - 1) * _gadget_quartic(d)
    )


def gadget_closed_form(d: int) -> GadgetClosedForm:
    """Aggregate the pattern table into exact N, T, mean, and excess.

    N and T are integer sums over the rows.  The excess T/N - 2 H_d is
    built as one Fraction, (d! T - 2 a_d N) / (d! N) with a_d = d! H_d.
    Cross-checks the aggregate against the product formula for N and the
    closed-form excess; a mismatch raises InternalCheckError.
    """
    if d < 3:
        raise ValueError("need d >= 3")
    ad = _factorial_harmonic(d)  # the one O(d) recurrence of the closed form
    rows = _pattern_table(d, ad)
    count = sum(r.count for r in rows)
    if count != factorial(d - 2) ** 2 * _gadget_quartic(d):
        raise InternalCheckError("factor count disagrees with the closed form")
    cycle_sum = sum(r.cycle_sum for r in rows)
    fd = factorial(d)
    excess = Fraction(fd * cycle_sum - 2 * ad * count, fd * count)
    if excess != benchmark_excess(d):
        raise InternalCheckError("table excess disagrees with the closed form")
    return GadgetClosedForm(d, count, cycle_sum, excess, tuple(rows))


def excess_positive_for_every_degree() -> bool:
    """Check the proof that benchmark_excess(d) > 0 for every integer d >= 3.

    The excess is 2(d-2)*cubic(d) / (d(d-1)*quartic(d)), and 2(d-2) and
    d(d-1) are positive for d >= 3.  The quartic
    d^4 - 6d^3 + 19d^2 - 30d + 20 is (d^2 - 3d)^2 + 10(d-1)(d-2), positive
    for d >= 3.  The cubic 3d^3 - 14d^2 + 25d - 10 has the derivative
    9d^2 - 28d + 25, whose discriminant 784 - 900 = -116 is negative, so
    the cubic increases, and it is 20 at d = 3.  Polynomials of degree k
    that agree at k + 1 points are equal, so comparing these forms with
    _excess_cubic at 4 points and _gadget_quartic at 5 makes the proof
    about the polynomials benchmark_excess evaluates.
    """
    a, b, c, e = 3, -14, 25, -10  # the cubic a*d^3 + b*d^2 + c*d + e
    return (
        (2 * b) ** 2 - 4 * (3 * a) * c < 0 < 3 * a  # so the derivative is positive
        and 27 * a + 9 * b + 3 * c + e > 0  # the cubic at d = 3
        and all(_excess_cubic(d) == a * d**3 + b * d**2 + c * d + e for d in range(4))
        and all(
            _gadget_quartic(d) == (d * d - 3 * d) ** 2 + 10 * (d - 1) * (d - 2)
            for d in range(5)
        )
    )


def scaled_excess(d: int) -> Fraction:
    """d^2 times the closed-form excess; approaches 6 for large d."""
    return d * d * benchmark_excess(d)
