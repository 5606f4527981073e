"""The minor kernel ``exact.minors``/``exact.det`` against a Leibniz-formula oracle."""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from grfock.exact import GF, IntPoly, det, minors
from grfock.grassmann import enumerate_points, plucker_vector


def leibniz_det(grid, one):
    """Sum over all permutations; independent of the kernel."""
    n = len(grid)
    total = one - one
    for perm in permutations(range(n)):
        term = one
        for i in range(n):
            term = term * grid[i][perm[i]]
        inversions = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        total = total + term if inversions % 2 == 0 else total - term
    return total


def leibniz_minors(rows, ncols, one):
    out = {}
    for cols in combinations(range(ncols), len(rows)):
        m = leibniz_det([[row[c] for c in cols] for row in rows], one)
        if m:
            out[cols] = m
    return out


def _random_rows(rng, k, n, entry):
    return [[entry(rng.randint(-3, 3)) for _ in range(n)] for _ in range(k)]


RINGS = [
    ("ZZ", 1, lambda x: x),
    ("GF(5)", GF(5).one, GF(5).from_int),
    ("ZZ[t]", IntPoly.const(1), lambda x: IntPoly((x, x * x - 2))),
]


@pytest.mark.parametrize("name, one, entry", RINGS, ids=[r[0] for r in RINGS])
def test_minors_match_leibniz(name, one, entry):
    rng = random.Random(7)
    for n in range(1, 6):
        for k in range(0, n + 1):
            for _ in range(4):
                rows = _random_rows(rng, k, n, entry)
                assert minors(rows, one) == leibniz_minors(rows, n, one), (name, rows)


@pytest.mark.parametrize("name, one, entry", RINGS, ids=[r[0] for r in RINGS])
def test_det_matches_leibniz(name, one, entry):
    rng = random.Random(11)
    for n in range(0, 6):
        for _ in range(4):
            grid = _random_rows(rng, n, n, entry)
            assert det(grid, one) == leibniz_det(grid, one), (name, grid)


@pytest.mark.parametrize("one", [1, GF(5).one, IntPoly.const(1), Fraction(1)])
def test_minors_of_no_rows_is_the_empty_minor(one):
    assert minors([], one) == {(): one}
    assert det([], one) == one


def test_minors_of_dependent_rows_vanish():
    rng = random.Random(3)
    for name, one, entry in RINGS:
        for n in range(2, 6):
            for k in range(2, n + 1):
                rows = _random_rows(rng, k - 1, n, entry)
                rows.append([a + a + b for a, b in zip(rows[0], rows[-1])])
                assert minors(rows, one) == {}, name
        zero = det([[entry(2), entry(1)], [entry(2), entry(1)]], one)
        assert not zero and zero == one - one and type(zero) is type(one)


def test_minors_at_full_width_is_the_determinant():
    grid = [[2, 0, 1], [1, 3, 0], [0, 1, 4]]
    assert minors(grid) == {(0, 1, 2): 25} and det(grid) == 25
    # keys are sorted column tuples; the sign follows the column order
    assert minors([[0, 1], [1, 0]]) == {(0, 1): -1}
    assert minors([[1, 2, 3]]) == {(0,): 1, (1,): 2, (2,): 3}


def test_plucker_vector_matches_leibniz_mod_p():
    p = 3
    points = list(enumerate_points(p, 4, 2))
    assert len(points) == 130
    for U in points:
        table = leibniz_minors(U.rows, 4, 1)
        expected = {tuple(c + 1 for c in cols): m % p for cols, m in table.items() if m % p}
        assert plucker_vector(U) == expected, U.rows
