from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from grfock.exact import (
    Cyclo,
    Fp,
    GF,
    IntMatrix,
    IntPoly,
    MixedRingError,
    PolyMatrix,
    QQ,
    cyclotomic_polynomial,
    cyclotomic_reduce,
    hermite_normal_form,
    invert_unitriangular,
    lattice_basis,
    lattice_equal,
    lattice_rank,
)


# ---------------------------------------------------------------------------
# scalars

small_ints = st.integers(min_value=-30, max_value=30)


@given(small_ints, small_ints, small_ints, small_ints, small_ints, small_ints)
def test_rational_field_axioms(a, b, c, d, e, f):
    x, y, z = Fraction(a, 7), Fraction(b, max(c, 1) or 1), Fraction(d or 1, e or 1)
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    if f:
        w = Fraction(f)
        assert w * QQ.inv(w) == 1


@given(st.sampled_from([2, 3, 5, 7]), small_ints, small_ints, small_ints)
def test_prime_field_axioms(p, a, b, c):
    F = GF(p)
    x, y, z = F.from_int(a), F.from_int(b), F.from_int(c)
    assert (x + y) * z == x * z + y * z
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    if x.value:
        assert x * x.inv() == F.one


def test_prime_field_rejects_mixed_rings():
    with pytest.raises(MixedRingError):
        Fp(1, 3) + Fp(1, 5)
    with pytest.raises(TypeError):
        Fp(1, 3) + Fraction(1, 2)
    with pytest.raises(TypeError):
        Fraction(1, 2) + Fp(1, 3)


def test_intpoly_basics():
    t = IntPoly.t()
    assert (t + 1) * (t - 1) == IntPoly((-1, 0, 1))
    assert IntPoly((0, 0, 0)) == IntPoly()
    assert (t * t - 1).divmod_monic(t - 1) == (t + 1, IntPoly())
    assert IntPoly((1, 2))(3) == 7


def test_cyclotomic_examples():
    assert cyclotomic_polynomial(1) == IntPoly((-1, 1))
    assert cyclotomic_polynomial(2) == IntPoly((1, 1))
    assert cyclotomic_polynomial(4) == IntPoly((1, 0, 1))
    assert cyclotomic_polynomial(6) == IntPoly((1, -1, 1))
    # n=2: t -> -1
    assert cyclotomic_reduce(IntPoly.t(), 2).residue == IntPoly((-1,))
    # n=3: t^3 -> 1
    assert cyclotomic_reduce(IntPoly.t(3), 3).integer_value() == 1
    # n=4: t^2+1 -> 0
    assert cyclotomic_reduce(IntPoly((1, 0, 1)), 4).is_zero()


@pytest.mark.parametrize("n", [2, 3, 5, 7, 11])
def test_cyclotomic_prime_geometric_sum(n):
    geo = IntPoly((1,) * n)
    assert cyclotomic_reduce(geo, n).is_zero()


def test_cyclo_ring_arithmetic():
    z = Cyclo(IntPoly.t(), 3)
    assert (z * z + z + 1).is_zero()
    assert (z * z * z).integer_value() == 1


# ---------------------------------------------------------------------------
# Hermite normal form


def test_hnf_examples():
    h, rank = hermite_normal_form(IntMatrix.identity(2))
    assert h == IntMatrix.identity(2) and rank == 2
    h, rank = hermite_normal_form(IntMatrix.from_rows([[0, 0, 0]] * 3))
    assert rank == 0 and all(all(x == 0 for x in row) for row in h.entries)
    h, rank = hermite_normal_form(IntMatrix.from_rows([[2, 4], [0, 3]]))
    assert h.entries == ((2, 1), (0, 3)) and rank == 2


def _box_points(vectors, radius, coeff_bound=3):
    """All lattice points of span(vectors) inside [-radius, radius]^dim."""
    pts = set()
    dim = len(vectors[0]) if vectors else 0
    for coeffs in product(range(-coeff_bound, coeff_bound + 1), repeat=len(vectors)):
        v = tuple(sum(c * vec[i] for c, vec in zip(coeffs, vectors)) for i in range(dim))
        if all(abs(x) <= radius for x in v):
            pts.add(v)
    return pts


def test_lattice_equal_examples():
    assert lattice_equal([(1, 0)], [(1, 0)])
    assert not lattice_equal([(2, 0)], [(1, 0)])
    a = [(1, 1), (0, 2)]
    b = [(1, -1), (0, 2)]
    assert lattice_equal(a, b)
    # independent oracle: compare small lattice points in a box
    assert _box_points(a, 4) == _box_points(b, 4)
    with pytest.raises(ValueError):
        lattice_equal([(1, 0)], [(1, 0, 0)])


vec_st = st.lists(st.tuples(small_ints, small_ints, small_ints), min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(vec_st)
def test_hnf_idempotent(vectors):
    m = IntMatrix.from_rows(vectors, 3)
    h, rank = hermite_normal_form(m)
    h2, rank2 = hermite_normal_form(h)
    assert h == h2 and rank == rank2


@settings(max_examples=40, deadline=None)
@given(vec_st, vec_st)
def test_lattice_equal_is_equivalence(a, b):
    assert lattice_equal(a, a)
    assert lattice_equal(a, b) == lattice_equal(b, a)
    shuffled = list(reversed(a)) + [tuple(x + y for x, y in zip(a[0], a[-1]))]
    assert lattice_equal(a, shuffled)


def _in_span(vec, generators):
    """Membership of vec in the Z-span, by a plain integer echelon reduction
    (no pivot normalization, structured differently from hermite_normal_form).
    """
    work = [list(g) for g in generators if any(g)]
    ncols = len(vec)
    basis = []
    for c in range(ncols):
        while True:
            nz = [row for row in work if row[c]]
            if not nz:
                break
            piv = min(nz, key=lambda row: abs(row[c]))
            clean = True
            for row in work:
                if row is not piv and row[c]:
                    q = row[c] // piv[c]
                    row[:] = [a - q * b for a, b in zip(row, piv)]
                    if row[c]:
                        clean = False
            if clean:
                work.remove(piv)
                basis.append(piv)
                break
    v = list(vec)
    for row in basis:
        lead = next(i for i, x in enumerate(row) if x)
        if v[lead]:
            if v[lead] % row[lead]:
                return False
            q = v[lead] // row[lead]
            v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


@settings(max_examples=40, deadline=None)
@given(vec_st)
def test_hnf_preserves_row_space(vectors):
    m = IntMatrix.from_rows(vectors, 3)
    h, rank = hermite_normal_form(m)
    assert lattice_equal(vectors, [r for r in h.entries])
    hnf_rows = [r for r in h.entries if any(r)]
    assert len(hnf_rows) == rank
    for row in hnf_rows:
        assert _in_span(row, vectors)
    for v in vectors:
        assert _in_span(v, hnf_rows)


# ---------------------------------------------------------------------------
# unitriangular inversion over Z[t]


def _poly_matrix_from_ints(rows):
    ents = tuple(tuple(IntPoly.const(x) if isinstance(x, int) else x for x in row) for row in rows)
    return PolyMatrix(tuple(range(len(rows))), ents)


def test_invert_unitriangular_examples():
    t = IntPoly.t()
    ident = _poly_matrix_from_ints([[1, 0], [0, 1]])
    assert invert_unitriangular(ident).entries == ident.entries
    m = _poly_matrix_from_ints([[1, t], [0, 1]])
    inv = invert_unitriangular(m)
    assert inv.entries == ((IntPoly((1,)), -t), (IntPoly(), IntPoly((1,))))
    assert m.matmul(inv).entries == ident.entries
    with pytest.raises(ValueError):
        invert_unitriangular(_poly_matrix_from_ints([[2, 0], [0, 1]]))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.data())
def test_invert_unitriangular_random(size, data):
    rows = []
    for i in range(size):
        row = []
        for j in range(size):
            if j < i:
                row.append(IntPoly())
            elif j == i:
                row.append(IntPoly.const(1))
            else:
                deg = data.draw(st.integers(min_value=0, max_value=4))
                coeffs = data.draw(
                    st.lists(st.integers(min_value=-4, max_value=4), min_size=deg + 1, max_size=deg + 1))
                row.append(IntPoly(coeffs))
        rows.append(tuple(row))
    m = PolyMatrix(tuple(range(size)), tuple(rows))
    inv = invert_unitriangular(m)
    prod = m.matmul(inv)
    for i in range(size):
        for j in range(size):
            expected = IntPoly.const(1) if i == j else IntPoly()
            assert prod.entries[i][j] == expected


def test_invert_unitriangular_degree2_kostka():
    # rows (2), (1,1): K = [[1, t], [0, 1]] from the charge statistic
    from grfock.symfunc import kostka_foulkes

    t = IntPoly.t()
    assert kostka_foulkes((2,), (1, 1)) == t
    assert kostka_foulkes((2,), (2,)) == IntPoly((1,))
    m = _poly_matrix_from_ints([[1, t], [0, 1]])
    assert invert_unitriangular(m).entries[0][1] == -t


def test_lattice_basis_gives_rank_and_equality():
    a = [(2, 4, 6), (1, 2, 3), (0, 1, 1)]
    b = [(1, 2, 3), (0, 3, 3)]
    assert lattice_basis(a) == ((1, 0, 1), (0, 1, 1))
    assert lattice_rank(a) == 2 and lattice_rank([], 3) == 0
    assert lattice_equal(a, b) is False and lattice_equal(a, a[1:])
