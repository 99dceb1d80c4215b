"""Closed-form arithmetic against brute-force itertools oracles."""

from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closed_cycles import closed_cycles_in
from cyclefactor.enumeration import permutation_cycles
from cyclefactor.exact import (
    ALLOWED_PATTERNS,
    CROSSING_ARC_ORDER,
    benchmark_excess,
    crossing_pattern_table,
    excess_numerator_positive,
    gadget_closed_form,
    harmonic,
    no_crossing_block_counts,
    partial_perm_count,
    partial_perm_cycle_sum,
    pattern_name,
    scaled_excess,
)


@pytest.mark.parametrize("m,value", [(0, 0), (1, 1), (2, Fraction(3, 2)), (6, Fraction(49, 20))])
def test_harmonic_values(m, value):
    assert harmonic(m) == value


def test_harmonic_recurrence_and_errors():
    for m in range(1, 40):
        assert harmonic(m) - harmonic(m - 1) == Fraction(1, m)
    with pytest.raises(ValueError):
        harmonic(-1)


@st.composite
def partial_injections(draw):
    n = draw(st.integers(1, 6))
    tails = draw(st.sets(st.integers(0, n - 1), max_size=n))
    heads = draw(st.permutations(list(range(n))))
    pick = {}
    used = set()
    for t in sorted(tails):
        for h in heads:
            if h not in used:
                pick[t] = h
                used.add(h)
                break
    return n, pick


@settings(max_examples=120)
@given(partial_injections())
def test_partial_perm_formulas_match_exhaustion(case):
    n, pinned = case
    r = len(pinned)
    hits = [
        p for p in permutations(range(n)) if all(p[t] == h for t, h in pinned.items())
    ]
    assert len(hits) == partial_perm_count(n, r)
    q = closed_cycles_in(pinned)
    assert sum(permutation_cycles(p) for p in hits) == partial_perm_cycle_sum(n, r, q)


def test_partial_perm_validation():
    with pytest.raises(ValueError):
        partial_perm_count(3, 4)
    with pytest.raises(ValueError):
        partial_perm_count(3, -1)
    with pytest.raises(ValueError):
        partial_perm_cycle_sum(5, 2, 3)
    with pytest.raises(ValueError):
        partial_perm_cycle_sum(5, 2, -1)
    assert partial_perm_cycle_sum(4, 4, 2) == 2
    assert partial_perm_cycle_sum(3, 0, 0) == 11  # 3! * H_3


@pytest.mark.parametrize("d", range(2, 8))
def test_block_counts_match_filtered_permutations(d):
    # the block is the looped d-clique minus both arcs between two vertices;
    # vertices 0,1 stand in for the missing pair by symmetry
    n0, s0 = no_crossing_block_counts(d)
    kept = [p for p in permutations(range(d)) if p[0] != 1 and p[1] != 0]
    assert len(kept) == n0
    assert sum(permutation_cycles(p) for p in kept) == s0


def test_block_count_identity():
    for d in range(2, 30):
        n0, _ = no_crossing_block_counts(d)
        assert n0 == factorial(d) - 2 * factorial(d - 1) + factorial(d - 2)


def test_pattern_names():
    assert pattern_name(frozenset()) == "none"
    assert pattern_name({"u2", "u1"}) == "u1u2"
    assert pattern_name({"v2", "u1", "v1", "u2"}) == "u1v1u2v2"
    with pytest.raises(ValueError):
        pattern_name({"u1", "w9"})
    assert ALLOWED_PATTERNS == {"none", "u1u2", "v1v2", "u1v2", "v1u2", "u1v1u2v2"}
    assert CROSSING_ARC_ORDER == ("u1", "v1", "u2", "v2")


def test_table_rows_degree_three():
    rows = crossing_pattern_table(3)
    assert [(r.patterns, r.count, r.mean) for r in rows] == [
        (("none",), 9, Fraction(14, 3)),
        (("u1v2", "v1u2"), 8, Fraction(4)),
        (("u1v1u2v2",), 1, Fraction(4)),
        (("u1u2", "v1v2"), 2, Fraction(1)),
    ]


def test_table_rows_degree_four():
    rows = crossing_pattern_table(4)
    assert [r.count for r in rows] == [196, 72, 4, 32]
    assert [r.mean for r in rows] == [
        Fraction(33, 7),
        Fraction(14, 3),
        Fraction(5),
        Fraction(2),
    ]


@pytest.mark.parametrize("d", range(3, 30))
def test_closed_form_internally_consistent(d):
    form = gadget_closed_form(d)
    assert form.count == sum(r.count for r in form.rows)
    assert form.expectation == Fraction(form.cycle_sum, form.count)
    assert form.excess == form.expectation - 2 * harmonic(d)
    assert form.excess == benchmark_excess(d)
    assert form.excess > 0


def test_known_closed_forms():
    f3 = gadget_closed_form(3)
    assert (f3.count, f3.cycle_sum, f3.expectation, f3.excess) == (
        20,
        80,
        Fraction(4),
        Fraction(1, 3),
    )
    f4 = gadget_closed_form(4)
    assert (f4.count, f4.cycle_sum, f4.expectation, f4.excess) == (
        304,
        1344,
        Fraction(84, 19),
        Fraction(29, 114),
    )


def test_excess_sign_certificate():
    assert excess_numerator_positive(500)
    assert excess_numerator_positive(3)
    with pytest.raises(ValueError):
        excess_numerator_positive(2)


def test_scaled_excess_brackets():
    assert Fraction(5) < scaled_excess(50) < Fraction(7)
    assert Fraction(29, 5) < scaled_excess(500) < Fraction(31, 5)
    # approach to 6 is from above: d^2*excess - 6 ~ 2/d for large d
    assert Fraction(6) < scaled_excess(10**5) < Fraction(601, 100)


def test_errors_on_small_degree():
    for fn in (crossing_pattern_table, benchmark_excess, gadget_closed_form):
        with pytest.raises(ValueError):
            fn(2)
    with pytest.raises(ValueError):
        no_crossing_block_counts(1)
