"""Brute-force oracle shared by the tests: cycles closed inside a partial map."""

from fractions import Fraction


def closed_cycles_in(point_map):
    """Cycles fully contained in a partial map {tail: head}."""
    q = Fraction(0)
    for start in point_map:
        v = point_map[start]
        length = 1
        while v in point_map and v != start:
            v = point_map[v]
            length += 1
        if v == start:
            q += Fraction(1, length)  # each cycle counted once per member
    assert q.denominator == 1
    return q.numerator
