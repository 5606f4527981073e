from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from grfock import exact
from grfock.exact import (
    IntMatrix,
    cyclotomic_polynomial,
    divmod_monic,
    hermite_normal_form,
    invert_unitriangular,
    lattice_basis,
    lattice_equal,
    lattice_rank,
    matmul,
)
from grfock.exterior import ExtTensor, TwoTensor
from grfock.fock import FockVector
from grfock.grassmann import SubspaceBasis
from grfock.partitions import MayaDiagram, maya_of_partition
from grfock.symfunc import HPoly, SymPoly, _HSeries, kf_transition_matrices
from oracles import Fp, ZtPoly, zt_matrix


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
        assert w * (1 / w) == 1


@given(st.sampled_from([2, 3, 5, 7]), small_ints, small_ints, small_ints)
def test_prime_field_axioms(p, a, b, c):
    x, y, z = Fp(a, p), Fp(b, p), Fp(c, p)
    assert (x + y) * z == x * z + y * z
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    if x.value:
        assert x * x.inv() == Fp(1, p)


def test_prime_field_rejects_mixed_rings():
    with pytest.raises(TypeError):
        Fp(1, 3) + Fp(1, 5)
    with pytest.raises(TypeError):
        Fp(1, 3) + Fraction(1, 2)
    with pytest.raises(TypeError):
        Fraction(1, 2) + Fp(1, 3)


def test_intpoly_basics():
    t = ZtPoly.t()
    assert (t + 1) * (t - 1) == (-1, 0, 1)
    assert ZtPoly((0, 0, 0)) == () and not ZtPoly((0, 0, 0))
    assert (t * t - 1).divmod_monic(t - 1) == (t + 1, ZtPoly())
    assert divmod_monic((-1, 0, 1), (-1, 1)) == ((1, 1), ())
    assert divmod_monic((1, 2), (0, 0, 1)) == ((), (1, 2))
    for divisor in ((), (1, 2)):
        with pytest.raises(ValueError, match="monic"):
            divmod_monic((1, 1), divisor)
    assert ZtPoly((1, 2))(3) == 7


def test_cyclotomic_examples():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    # n=2: t -> -1
    assert ZtPoly.t().divmod_monic(cyclotomic_polynomial(2))[1] == (-1,)
    # n=3: t^3 -> 1
    assert ZtPoly.t(3).divmod_monic(cyclotomic_polynomial(3))[1] == (1,)
    # n=4: t^2+1 -> 0
    assert not divmod_monic((1, 0, 1), cyclotomic_polynomial(4))[1]


@pytest.mark.parametrize("n", [2, 3, 5, 7, 11])
def test_cyclotomic_prime_geometric_sum(n):
    assert not divmod_monic((1,) * n, cyclotomic_polynomial(n))[1]


def test_residues_mod_phi3():
    t, phi = ZtPoly.t(), cyclotomic_polynomial(3)
    assert not (t * t + t + 1).divmod_monic(phi)[1]
    assert (t * t * t).divmod_monic(phi)[1] == (1,)
    # t^2 is not an integer at a primitive cube root of unity
    assert (t * t).divmod_monic(phi)[1] == -t - 1


# ---------------------------------------------------------------------------
# Hermite normal form


def test_hnf_examples():
    identity = IntMatrix.from_rows([[1, 0], [0, 1]])
    h, rank = hermite_normal_form(identity)
    assert h == identity and rank == 2
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
    """The coefficient tuples of a matrix of ints and ZtPoly."""
    return tuple(tuple((ZtPoly.const(x) if isinstance(x, int) else x).coeffs for x in row)
                 for row in rows)


def test_invert_unitriangular_examples():
    t = ZtPoly.t()
    ident = _poly_matrix_from_ints([[1, 0], [0, 1]])
    assert invert_unitriangular(ident) == ident
    m = _poly_matrix_from_ints([[1, t], [0, 1]])
    inv = invert_unitriangular(m)
    assert inv == (((1,), -t), ((), (1,)))
    assert matmul(zt_matrix(m), zt_matrix(inv), ZtPoly()) == ident
    with pytest.raises(ValueError):
        invert_unitriangular(_poly_matrix_from_ints([[2, 0], [0, 1]]))
    with pytest.raises(ValueError):
        invert_unitriangular(_poly_matrix_from_ints([[1, 0], [t, 1]]))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.data())
def test_invert_unitriangular_random(size, data):
    rows = []
    for i in range(size):
        row = []
        for j in range(size):
            if j < i:
                row.append(ZtPoly())
            elif j == i:
                row.append(ZtPoly.const(1))
            else:
                deg = data.draw(st.integers(min_value=0, max_value=4))
                coeffs = data.draw(
                    st.lists(st.integers(min_value=-4, max_value=4), min_size=deg + 1, max_size=deg + 1))
                row.append(ZtPoly(coeffs))
        rows.append(tuple(row))
    m = _poly_matrix_from_ints(rows)
    inv = invert_unitriangular(m)
    prod = matmul(tuple(rows), zt_matrix(inv), ZtPoly())
    for i in range(size):
        for j in range(size):
            expected = (1,) if i == j else ()
            assert prod[i][j] == expected
    keep = data.draw(st.lists(st.integers(min_value=0, max_value=size - 1), unique=True))
    assert invert_unitriangular(m, keep) == tuple(inv[i] for i in keep)


def test_invert_unitriangular_degree2_kostka():
    # rows (2), (1,1): K = [[1, t], [0, 1]] from the vertex operator
    from grfock.symfunc import kostka_foulkes

    t = ZtPoly.t()
    assert kostka_foulkes((2,), (1, 1)) == t
    assert kostka_foulkes((2,), (2,)) == (1,)
    m = _poly_matrix_from_ints([[1, t], [0, 1]])
    assert invert_unitriangular(m)[0][1] == -t


def test_lattice_basis_gives_rank_and_equality():
    a = [(2, 4, 6), (1, 2, 3), (0, 1, 1)]
    b = [(1, 2, 3), (0, 3, 3)]
    assert lattice_basis(a) == ((1, 0, 1), (0, 1, 1))
    assert lattice_rank(a) == 2 and lattice_rank([], 3) == 0
    assert lattice_equal(a, b) is False and lattice_equal(a, a[1:])


# ---------------------------------------------------------------------------
# bad input raises, also under python -O


def test_cyclotomic_polynomial_raises_on_a_nonzero_remainder(monkeypatch):
    monkeypatch.setattr(exact, "divmod_monic",
                        lambda a, divisor: (divmod_monic(a, divisor)[0], (1,)))
    with pytest.raises(ArithmeticError):
        cyclotomic_polynomial.__wrapped__(6)


def test_int_matrix_rejects_entries_of_the_wrong_shape():
    assert IntMatrix(2, 1, ((1,), (2,))).cols == 1
    with pytest.raises(ValueError):
        IntMatrix(2, 1, ((1,),))
    with pytest.raises(ValueError):
        IntMatrix(2, 1, ((1,), (2, 3)))


def test_matmul_and_inversion_reject_bad_shapes():
    one, zero = (1,), ()
    a = ((one, zero), (zero, one))
    with pytest.raises(ValueError):
        invert_unitriangular(((one, zero),))
    with pytest.raises(ValueError):
        invert_unitriangular(((one,), (zero, one)))
    for keep in ([2], [-1]):
        with pytest.raises(ValueError):
            invert_unitriangular(a, keep)
    with pytest.raises(ValueError):
        matmul(a, ((one,),), zero)
    with pytest.raises(ValueError):
        matmul(((1, 2),), ((1,), (2, 3)))
    assert matmul(((1, 2),), ((3,), (4,))) == ((11,),)
    assert matmul(((1, 2), (3, 4)), ((0, 1), (1, 0))) == ((2, 1), (4, 3))


# ---------------------------------------------------------------------------
# sparse vectors


def _one_vector_of_each_type():
    return [
        ExtTensor(4, 2, {(1, 2): 3, (2, 4): -1}),
        TwoTensor(4, (2, 1), {((1, 3), (2,)): Fraction(2)}),
        FockVector(0, {maya_of_partition((2, 1)): Fp(4, 5)}, dual=True),
        SymPoly(3, {(1, 0, 0): 2, (0, 1, 0): 2, (0, 0, 1): 2}),
        HPoly({((1, 2),): 3, ((2, 1),): -1}),
        _HSeries(2, {0: HPoly.const(1), 2: HPoly.gen(1)}),
    ]


def test_sparse_vectors_share_one_arithmetic():
    vectors = _one_vector_of_each_type()
    for v in vectors:
        assert not (v - v)
        scaled = v.scale(2)
        assert scaled._space() == v._space() and type(scaled) is type(v)
        assert scaled == v + v
    for v, w in product(vectors, repeat=2):
        if type(v) is type(w):
            continue
        assert v != w
        with pytest.raises(TypeError):
            v + w




# ---------------------------------------------------------------------------
# the record classes: equality, hashing, frozen fields, validating constructors


def test_record_classes_keep_their_contracts():
    kf = kf_transition_matrices(2, 2)
    # the frozen ones: (record, the tuple of its compared fields, another of its class)
    records = [
        (IntMatrix(1, 2, ((1, 2),)), (1, 2, ((1, 2),)), IntMatrix.from_rows([[1, 3]])),
        (MayaDiagram(1, [2, 1]), (1, (2, 1)), MayaDiagram(0, (2, 1))),
        (SubspaceBasis(3, 3, ((1, 0, 2), (0, 1, 1))), (3, 3, ((1, 0, 2), (0, 1, 1))),
         SubspaceBasis(3, 3, ((1, 0, 0), (0, 1, 1)))),
        (kf, (kf.labels, kf.regular_labels, kf.K, kf.A, kf.B, kf.D),
         kf_transition_matrices(2, 3)),
    ]
    for x, fields, other in records:
        copy = type(x)(*fields)
        assert x == copy and not x != copy and x is not copy
        assert x != other and not x == other and x != fields
        assert hash(x) == hash(copy) == hash(fields)
        name = next(iter(vars(x)))
        with pytest.raises(AttributeError):
            setattr(x, name, fields[0])
        with pytest.raises(AttributeError):
            delattr(x, name)
        assert type(x)(*fields) == x  # neither attempt changed a field
    # a SubspaceBasis compares and hashes without its pivots
    basis, fields, _ = records[2]
    odd = SubspaceBasis(*fields)
    vars(odd)["pivots"] = (2, 1)
    assert basis.pivots == (0, 1) and odd == basis and hash(odd) == hash(basis)
    # the sparse vectors: zeros dropped, one space per sum
    for v in _one_vector_of_each_type():
        key, c = next(iter(v.coeffs.items()))
        space = dict(zip(v._space_fields, v._space()))
        assert type(v)(coeffs=dict(v.coeffs), **space) == v
        assert key not in type(v)(coeffs={**v.coeffs, key: c - c}, **space).coeffs
        assert not v.scale(0).coeffs and not (v + v.scale(-1)).coeffs
        for name in space:  # the same table in another space is another vector
            moved = v._like(v.coeffs)
            setattr(moved, name, "elsewhere")
            assert moved != v
            with pytest.raises(ValueError):
                v + moved
    with pytest.raises(ValueError):
        ExtTensor(3, 1, {(1,): 1}) + ExtTensor(4, 1, {(1,): 1})
    # every constructor rejects fields that do not fit
    for build in (lambda: IntMatrix(2, 1, ((1,),)),
                  lambda: MayaDiagram(0, (1, 2)),
                  lambda: SubspaceBasis(2, 2, ((0, 1), (1, 0))),
                  lambda: SubspaceBasis(2, 2, ((1, 2),)),
                  lambda: ExtTensor(3, 2, {(2, 1): 1}),
                  lambda: ExtTensor(3, 2, {(1, 4): 1}),
                  lambda: TwoTensor(3, (1, 1), {((1, 2), (1,)): 1}),
                  lambda: FockVector(1, {maya_of_partition((1,)): 1}),
                  lambda: SymPoly(2, {(1,): 1}),
                  lambda: _HSeries(1, {2: HPoly.gen(1)})):
        with pytest.raises(ValueError):
            build()


@pytest.mark.parametrize("call, match", [
    (lambda: cyclotomic_polynomial(0), "n must be >= 1"),
    (lambda: IntMatrix.from_rows([]), "explicit column count"),
], ids=["cyclotomic-0", "from_rows-empty"])
def test_bad_input_raises_value_error(call, match):
    with pytest.raises(ValueError, match=match):
        call()
