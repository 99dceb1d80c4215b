"""Closed-form arithmetic against brute-force itertools oracles."""

import ast
import sys
import tracemalloc
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_force import (
    block_counts_by_harmonics,
    closed_cycles_in,
    excess_numerator_positive,
    factors,
    harmonic_by_terms,
    partial_perm_count,
    partial_perm_cycle_sum,
    pattern_table_by_harmonics,
    restricted,
)
from cyclefactor import exact
from cyclefactor.exact import (
    CROSSING_ARC_ORDER,
    ROW_GROUPS,
    ROW_OF_MASK,
    benchmark_excess,
    crossing_pattern_table,
    gadget_closed_form,
    harmonic,
    no_crossing_block_counts,
    scaled_excess,
)


@pytest.mark.parametrize("m,value", [(0, 0), (1, 1), (2, Fraction(3, 2)), (6, Fraction(49, 20))])
def test_harmonic_values(m, value):
    assert harmonic(m) == value


def test_harmonic_equals_the_fraction_sum():
    for m in range(61):
        assert harmonic(m) == harmonic_by_terms(m)
    with pytest.raises(ValueError):
        harmonic(-1)


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
    return n, dict(zip(sorted(tails), heads))


@settings(max_examples=120)
@given(partial_injections())
def test_partial_perm_formulas_match_exhaustion(case):
    n, pinned = case
    r = len(pinned)
    hits = list(factors(restricted([range(n)] * n, pinned.items())))
    assert len(hits) == partial_perm_count(n, r)
    q = closed_cycles_in(pinned)
    assert sum(closed_cycles_in(p) for p in hits) == partial_perm_cycle_sum(n, r, q)


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
    kept = list(factors(restricted([range(d)] * d, forbidden={(0, 1), (1, 0)})))
    assert len(kept) == n0
    assert sum(closed_cycles_in(p) for p in kept) == s0


def test_factorial_harmonics_are_k_factorial_times_h_k():
    for k in range(41):
        assert exact._factorial_harmonic(k) == factorial(k) * harmonic_by_terms(k)
    with pytest.raises(ValueError):
        exact._factorial_harmonic(-1)


def test_closed_form_keeps_only_the_harmonic_terms_it_reads():
    # the table reads a_k = k! H_k at k = d, d - 1 and d - 2 only; a list
    # of all d + 1 terms peaked at about 16.5 MiB at d = 5000, the few
    # numbers of about 54,000 bits each that it needs take a few hundred KiB
    tracemalloc.start()
    try:
        gadget_closed_form(5000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("d", range(3, 9))
def test_closed_form_runs_the_harmonic_recurrence_once(monkeypatch, d):
    # a_(d-1) and a_(d-2) are divided back out of a_d, never recomputed
    calls = []
    recurrence = exact._factorial_harmonic
    monkeypatch.setattr(
        exact, "_factorial_harmonic", lambda m: calls.append(m) or recurrence(m)
    )
    gadget_closed_form(d)
    assert calls == [d]


@pytest.mark.parametrize("d", range(2, 41))
def test_block_counts_match_the_harmonic_oracle(d):
    n0, s0 = block_counts_by_harmonics(d)
    assert s0.denominator == 1
    assert no_crossing_block_counts(d) == (n0, s0.numerator)


@pytest.mark.parametrize("d", range(3, 41))
def test_closed_forms_match_the_harmonic_oracle(d):
    # the integer rows and totals against the H_k formulation, in Fractions
    want = pattern_table_by_harmonics(d)
    rows = crossing_pattern_table(d)
    assert [r.patterns for r in rows] == list(ROW_GROUPS)
    assert [(r.count, r.mean) for r in rows] == want
    assert [r.cycle_sum for r in rows] == [count * mean for count, mean in want]
    count = sum(c for c, _ in want)
    cycle_sum = sum(c * m for c, m in want)
    assert cycle_sum.denominator == 1
    form = gadget_closed_form(d)
    assert form.rows == tuple(rows)
    assert (form.count, form.cycle_sum) == (count, cycle_sum)
    assert form.expectation == cycle_sum / count
    assert form.excess == cycle_sum / count - 2 * harmonic_by_terms(d)


def test_block_count_identity():
    for d in range(2, 30):
        n0, _ = no_crossing_block_counts(d)
        assert n0 == factorial(d) - 2 * factorial(d - 1) + factorial(d - 2)


def test_row_of_mask_sends_each_allowed_pattern_to_its_row():
    assert CROSSING_ARC_ORDER == ("u1", "v1", "u2", "v2")
    allowed = frozenset().union(*ROW_GROUPS)
    assert allowed == {"none", "u1u2", "v1v2", "u1v2", "v1u2", "u1v1u2v2"}
    assert sum(map(len, ROW_GROUPS)) == len(allowed)  # no pattern in two rows
    assert ROW_OF_MASK == {0b0000: 0, 0b1001: 1, 0b0110: 1, 0b1111: 2, 0b0101: 3, 0b1010: 3}
    # the mask's name, its arcs in CROSSING_ARC_ORDER, is in the mask's row group
    for mask in range(16):
        name = "".join(a for i, a in enumerate(CROSSING_ARC_ORDER) if mask >> i & 1) or "none"
        assert (mask in ROW_OF_MASK) == (name in allowed)
        if mask in ROW_OF_MASK:
            assert name in ROW_GROUPS[ROW_OF_MASK[mask]]


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


def test_excess_positivity_proof_checks_the_evaluated_cubic(monkeypatch):
    assert exact.excess_positive_for_every_degree()
    # 20 at d = 3 like the true cubic, but with a root near d = 4.26
    monkeypatch.setattr(exact, "_excess_cubic", lambda d: 20 - 10 * (d - 3) ** 3)
    assert not exact.excess_positive_for_every_degree()


def test_brute_force_oracles_import_only_the_standard_library():
    # the oracles must share no code with the engine they check
    tree = ast.parse(Path(__file__).with_name("brute_force.py").read_text(encoding="utf-8"))
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):  # "" stands for a relative import
            roots.add("" if node.level else node.module.partition(".")[0])
    assert roots and "cyclefactor" not in roots
    assert roots <= sys.stdlib_module_names


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
