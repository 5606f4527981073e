from itertools import combinations, product
from math import comb

import pytest

from grfock.exact import lattice_basis
from grfock.exterior import ExtTensor, t_shuffle
from grfock.grassmann import (
    SubspaceBasis,
    _gather_source,
    _pair_weight,
    _rank,
    degree2_ideal_equal,
    enumerate_points,
    fpoints_rows,
    gaussian_binomial,
    gt_count,
    gt_points,
    incidence_degree2_ideal_equal,
    incidence_quadrics,
    is_invariant,
    is_nilpotent,
    jordan_matrix,
    omega_bihom_functionals,
    omega_functional,
    omega_quadric_functionals,
    plucker_quadrics,
    plucker_vector,
    st_forms,
    st_points,
    tangent_dim_gt,
    vectors_over,
)
from grfock.partitions import partitions_of, transpose
from oracles import Fp, in_st, omega_family, quadric_family, unordered, wedge_of_rows


def test_jordan_matrix_rejects_blocks_of_the_wrong_size():
    assert jordan_matrix((2, 1), 3) == ((0, 1, 0), (0, 0, 0), (0, 0, 0))
    with pytest.raises(ValueError):
        jordan_matrix((2, 1), 4)


def test_is_nilpotent_on_jordan_types_and_non_examples():
    for n in range(1, 6):
        for blocks in partitions_of(n):
            assert is_nilpotent(jordan_matrix(blocks))
    assert not is_nilpotent(((0, 1), (1, 0)))
    assert not is_nilpotent(((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def test_gaussian_binomial():
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(5, 0, 2) == gaussian_binomial(5, 5, 2) == 1
    assert gaussian_binomial(3, 4, 2) == 0
    with pytest.raises(ValueError):
        gaussian_binomial(4, 2, 1)


def test_degree2_ideal_equal_reports_both_ranks():
    # Gr(2,4): one Pluecker quadric, spanned by the KP two-tensors as well
    assert degree2_ideal_equal(2, 4) == (True, 1, 1)
    assert degree2_ideal_equal(1, 4) == (True, 0, 0)


def _generator_families(n):
    """(label, dicts) for every generator family with n <= 6: the Grassmannian
    side for k <= n and the incidence side for l <= k <= n."""
    for k in range(n + 1):
        yield (k, n), plucker_quadrics(k, n)
        yield (k, n), omega_quadric_functionals(k, n)
        for l in range(k + 1):
            yield (k, l, n), incidence_quadrics(k, l, n)
            yield (k, l, n), omega_bihom_functionals(k, l, n)


@pytest.mark.parametrize("n", range(1, 7))
def test_every_degree2_generator_lies_in_one_torus_weight(n):
    # the premise of the graded comparison: the block key of a generator is
    # the same whichever of its pairs it is read from
    for label, dicts in _generator_families(n):
        for q in dicts:
            assert q, label
            assert len({_pair_weight(key) for key in q}) == 1, (label, q)


def _sign_classes(dicts) -> list:
    """Each dict as the set of its items, with the sign that makes the
    coefficient of its least pair positive."""
    out = []
    for q in dicts:
        sign = 1 if q[min(q)] > 0 else -1
        out.append(frozenset((pair, sign * c) for pair, c in q.items()))
    return out


def _assert_family_matches_the_oracle(got, want, label):
    # the same generators up to sign, none of them 0 and none twice
    assert all(got), label
    classes = _sign_classes(got)
    assert len(set(classes)) == len(classes), label
    assert set(classes) == set(_sign_classes(filter(None, want))), label


@pytest.mark.parametrize("n", range(1, 8))
def test_generator_families_match_the_per_triple_oracle(n):
    # the oracle builds every (alpha, beta, d) and every exchange, every
    # d-subset of C, and the Grassmannian quadrics for d = k too
    for k in range(n + 1):
        for l in range(k + 1):
            quadrics, omegas = quadric_family(k, l, n), omega_family(k, l, n)
            _assert_family_matches_the_oracle(incidence_quadrics(k, l, n), quadrics, (k, l, n))
            _assert_family_matches_the_oracle(omega_bihom_functionals(k, l, n), omegas, (k, l, n))
            if l == k:
                _assert_family_matches_the_oracle(plucker_quadrics(k, n),
                                                  map(unordered, quadrics), (k, n))
                _assert_family_matches_the_oracle(omega_quadric_functionals(k, n),
                                                  map(unordered, omegas), (k, n))


def test_grassmannian_generators_match_the_oracle_at_k_equal_n_minus_k():
    # Gr(4,8) is the case where d runs up to both k and n - k
    quadrics, omegas = quadric_family(4, 4, 8), omega_family(4, 4, 8)
    _assert_family_matches_the_oracle(plucker_quadrics(4, 8), map(unordered, quadrics), (4, 8))
    _assert_family_matches_the_oracle(omega_quadric_functionals(4, 8), map(unordered, omegas),
                                      (4, 8))


def _dense_lattice(index, plucker, omega):
    """(equal, Pluecker rank, KP rank) from one Hermite normal form per side
    over the whole pair index."""
    pl = lattice_basis(vectors_over(index, plucker), len(index))
    om = lattice_basis(vectors_over(index, omega), len(index))
    return pl == om, len(pl), len(om)


@pytest.mark.parametrize("n", range(1, 7))
def test_graded_degree2_comparison_matches_the_dense_one(n):
    subsets = {k: list(combinations(range(1, n + 1), k)) for k in range(n + 1)}
    for k in range(n + 1):
        keys = subsets[k]
        index = [(a, b) for i, a in enumerate(keys) for b in keys[i:]]
        dense = _dense_lattice(index, plucker_quadrics(k, n), omega_quadric_functionals(k, n))
        assert degree2_ideal_equal(k, n) == dense, (k, n)
        for l in range(k + 1):
            index = [(a, b) for a in subsets[k] for b in subsets[l]]
            dense = _dense_lattice(index, incidence_quadrics(k, l, n),
                                   omega_bihom_functionals(k, l, n))
            assert incidence_degree2_ideal_equal(k, l, n) == dense[0], (k, l, n)


def test_omega_functional_rejects_an_unsorted_D():
    assert omega_functional((1, 2, 3), (1, 3), 1, 4) == {((1, 3), (1, 2, 3)): 1}
    with pytest.raises(ValueError):
        omega_functional((1, 2, 3), (3, 1), 1, 4)


@pytest.mark.parametrize("C, D", [
    ((1, 2, 3), (1, 1)),  # a repeated index in D
    ((3, 2, 1), (1,)),    # C decreasing
    ((1, 1, 2), (3,)),    # a repeated index in C
    ((1, 2, 9), (3,)),    # C leaves 1..4
    ((1, 2, 3), (0,)),    # D leaves 1..4
])
def test_omega_functional_rejects_sets_that_are_not_increasing_subsets(C, D):
    with pytest.raises(ValueError):
        omega_functional(C, D, 1, 4)


def _rank_modp(rows, p):
    """Rank over F_p by dense Gauss-Jordan elimination, the oracle for membership."""
    m = [[x % p for x in r] for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col] * inv % p
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def _oracle_row(T, k, p):
    """Counts of Gr, G^T and S^T points by rank tests and exterior-algebra shuffles."""
    n = len(T)
    gr = gt = st = 0
    same = True
    for U in enumerate_points(p, n, k):
        images = [tuple(sum(T[i][j] * row[j] for j in range(n)) % p for i in range(n))
                  for row in U.rows]
        g = all(_rank_modp(U.rows + (image,), p) == k for image in images)
        tau = wedge_of_rows(U.rows, n, lambda c: Fp(c, p))
        s = not any(t_shuffle(d, T, tau) for d in range(1, k + 1))
        gr, gt, st = gr + 1, gt + g, st + s
        same = same and g == s
    return {"p": p, "n": n, "k": k, "gr": gr, "gt": gt, "st": st, "equal": same}


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fpoints_rows_match_an_independent_recount(p, n):
    types = partitions_of(n)
    Ts = [jordan_matrix(blocks) for blocks in types]
    for k in range(n + 1):
        rows = fpoints_rows(types, k, p)
        assert len(rows) == len(types)
        for T, row in zip(Ts, rows):
            assert row == _oracle_row(T, k, p)
            assert row["gr"] == gaussian_binomial(n, k, p)


def _operator_modp(T, p):
    """T mod p as sparse rows: row i lists the (j, T[i][j] mod p) that are nonzero."""
    return tuple(tuple((j, x % p) for j, x in enumerate(row) if x % p) for row in T)


def _apply_modp(Tp, vec, p):
    """T vec mod p for T given as _operator_modp(T, p)."""
    return [sum([x * vec[j] for j, x in row]) % p for row in Tp]


def _invariant_by_sparse_rows(U, T):
    """The reference for the gather: T applied to each row as a sparse matrix,
    then a dense rank test."""
    Tp = _operator_modp(T, U.p)
    return all(_rank_modp(U.rows + (tuple(_apply_modp(Tp, row, U.p)),), U.p) == U.k
               for row in U.rows)


@pytest.mark.parametrize("p", [2, 3])
def test_gt_points_lists_the_invariant_points_of_each_operator(p):
    for n in range(1, 5):
        types = partitions_of(n)
        Ts = [jordan_matrix(blocks) for blocks in types]
        for k in range(n + 1):
            by_operator = gt_points(Ts, k, p)
            for T, pts, row in zip(Ts, by_operator, fpoints_rows(types, k, p)):
                assert len(pts) == row["gt"]
                assert all(_invariant_by_sparse_rows(U, T) for U in pts)


@pytest.mark.parametrize("p", [2, 3])
def test_each_point_test_matches_its_reference(p):
    # per point, not only per count: the gather against the sparse-row product,
    # and the S^T form filter against the shuffles over F_p
    for n in range(1, 5):
        Ts = [jordan_matrix(blocks) for blocks in partitions_of(n)]
        for k in range(n + 1):
            keys = list(combinations(range(1, n + 1), k))
            ops = [(T, _gather_source(T), st_forms(T, k, p)) for T in Ts]
            for U in enumerate_points(p, n, k):
                get = plucker_vector(U).get
                plucker = [get(key, 0) for key in keys]
                tau = wedge_of_rows(U.rows, n, lambda c: Fp(c, p))
                for T, src, forms in ops:
                    assert is_invariant(U, src) == _invariant_by_sparse_rows(U, T), (T, U)
                    by_shuffles = not any(t_shuffle(d, T, tau) for d in range(1, k + 1))
                    assert in_st(plucker, forms, p) == by_shuffles, (T, U)


@pytest.mark.parametrize("p", [2, 3])
def test_st_points_are_the_points_the_per_point_filter_keeps(p):
    # point by point: the cell-wise solve against each Pluecker vector paired
    # with every form, for every Jordan type with n <= 5 and every k
    for n in range(1, 6):
        Ts = [jordan_matrix(blocks) for blocks in partitions_of(n)]
        for k in range(n + 1):
            keys = list(combinations(range(1, n + 1), k))
            forms = [st_forms(T, k, p) for T in Ts]
            kept = [[] for _ in Ts]
            for U in enumerate_points(p, n, k):
                get = plucker_vector(U).get
                plucker = [get(key, 0) for key in keys]
                for f, pts in zip(forms, kept):
                    if in_st(plucker, f, p):
                        pts.append(U)
            solved = [[] for _ in Ts]
            for i, U in st_points(Ts, k, p):
                solved[i].append(U)
            for T, got, pts in zip(Ts, solved, kept):
                assert len(got) == len(set(got)), (T, k)
                assert set(got) == set(pts), (T, k)


def _gt_cases():
    for p, nmax in [(2, 5), (3, 5), (5, 4)]:
        for n in range(1, nmax + 1):
            yield from ((p, blocks) for blocks in partitions_of(n))


@pytest.mark.parametrize("p, blocks", list(_gt_cases()))
def test_gt_count_is_the_number_of_invariant_points(p, blocks):
    T = jordan_matrix(blocks)
    n = len(T)
    assert [gt_count(blocks, k, p) for k in range(n + 1)] == \
        [len(gt_points([T], k, p)[0]) for k in range(n + 1)]


@pytest.mark.parametrize("n", range(1, 7))
def test_gt_count_has_the_degree_of_dim_gt(n):
    # as a polynomial in q, |G^T(F_q)| has degree max over mu inside lam, |mu| = k,
    # of sum_i mu'_i (lam'_i - mu'_i); its coefficients are >= 0 and sum to less
    # than q = 2^64, so the degree is the d with q^d <= |G^T(F_q)| < q^(d+1)
    q = 2 ** 64
    for blocks in partitions_of(n):
        lam = transpose(blocks)
        for k in range(n + 1):
            dims = []
            for mu in partitions_of(k):
                if len(mu) <= len(blocks) and all(m <= b for m, b in zip(mu, blocks)):
                    mu = transpose(mu) + (0,) * len(lam)
                    dims.append(sum(m * (l - m) for m, l in zip(mu, lam)))
            count = gt_count(blocks, k, q)
            degree = (count.bit_length() - 1) // 64
            assert degree == max(dims), (blocks, k)


@pytest.mark.parametrize("p", [2, 3])
def test_st_forms_are_the_linear_part_of_the_points_of_gt(p):
    # the finite analogue of the shuffles spanning the linear part of the
    # ideal: the reduced forms number C(n,k) minus the rank of G^T's Pluecker
    # vectors, for every Jordan type with n <= 5 and every k
    for n in range(1, 6):
        Ts = [jordan_matrix(blocks) for blocks in partitions_of(n)]
        for k in range(n + 1):
            keys = list(combinations(range(1, n + 1), k))
            for T, pts in zip(Ts, gt_points(Ts, k, p)):
                vectors = [[pl.get(key, 0) for key in keys] for pl in map(plucker_vector, pts)]
                assert len(st_forms(T, k, p)) == comb(n, k) - _rank(vectors, p), (T, k)


def test_gather_source_rejects_other_operators():
    assert _gather_source(jordan_matrix((2, 1))) == (1, None, None)
    for T in [((0, 2), (0, 0)),    # an entry other than 0 and 1
              ((0, -1), (0, 0)),
              ((1, 1), (0, 0))]:   # two 1s in a row
        with pytest.raises(ValueError):
            _gather_source(T)
        with pytest.raises(ValueError):
            tangent_dim_gt(SubspaceBasis(2, 2, ((1, 0),)), T)


@pytest.mark.parametrize("rows", [
    ((1, 0, 0), (0, 0, 0)),  # a zero row
    ((1, 0, 0), (0, 2, 1)),  # a row that leads with 2
])
def test_subspace_basis_rejects_a_row_without_a_leading_1(rows):
    with pytest.raises(ValueError):
        SubspaceBasis(3, 3, rows)


@pytest.mark.parametrize("rows", [
    ((1, 5, 0), (1, 0, 0)),  # an entry outside [0, 3), then a repeated pivot
    ((1, 0), (0, 1)),        # rows of length 2 in F_3^3
    ((1, 3, 0),),            # an entry equal to p
    ((1, -1, 0),),           # a negative entry
    ((0, 1, 0), (1, 0, 0)),  # pivots that decrease
    ((1, 0, 0), (1, 0, 1)),  # a repeated pivot
    ((1, 1, 0), (0, 1, 0)),  # pivot column 1 holds a 1 in the row above
])
def test_subspace_basis_rejects_rows_that_are_not_reduced_echelon(rows):
    with pytest.raises(ValueError):
        SubspaceBasis(3, 3, rows)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_st_forms_span_the_shuffles_over_the_prime_field(p):
    # the forms span exactly the rows of the sh_d^T, d = 1..k, taken over F_p
    for blocks in [(3,), (2, 2), (3, 1, 1), (4, 2)]:
        T = jordan_matrix(blocks)
        n = len(T)
        for k in range(1, n + 1):
            keys = list(combinations(range(1, n + 1), k))
            images = [[t_shuffle(d, T, ExtTensor(n, k, {B: Fp(1, p)})).coeffs for B in keys]
                      for d in range(1, k + 1)]
            shuffles = [[image.get(A, Fp(0, p)).value for image in by_key]
                        for by_key in images for A in keys]
            forms = []
            for form in st_forms(T, k, p):
                v = [0] * len(keys)
                for j, c in form:
                    v[j] = c
                forms.append(v)
            rank = _rank_modp(shuffles, p)
            assert len(forms) == rank == _rank_modp(forms, p) == _rank_modp(shuffles + forms, p)


def _apply(T, v, p):
    return tuple(sum(T[i][j] * v[j] for j in range(len(v))) % p for i in range(len(T)))


def _tangent_count(U, T):
    """Number of maps phi: U -> V/U with T phi(u) - phi(T u) in U for every basis
    row u, by brute force: phi(u_i) is lifted to the span of the non-pivot unit
    vectors, T u_i is written in the rows of U by search, and membership in U is
    a dense rank test."""
    p, n, k, rows = U.p, U.n, U.k, U.rows
    nonpivots = [j for j in range(n) if j not in U.pivots]
    combos = {_apply(tuple(zip(*rows)), c, p): c
              for c in product(range(p), repeat=k)}  # sum_j c_j u_j -> c
    coords = [combos[_apply(T, row, p)] for row in rows]
    count = 0
    for values in product(range(p), repeat=k * len(nonpivots)):
        lift = []
        for i in range(k):
            v = [0] * n
            for a, j in enumerate(nonpivots):
                v[j] = values[i * len(nonpivots) + a]
            lift.append(v)
        ok = True
        for i in range(k):
            w = [(x - sum(c * lift[j][m] for j, c in enumerate(coords[i]))) % p
                 for m, x in enumerate(_apply(T, lift[i], p))]
            if _rank_modp(rows + (tuple(w),), p) != k:
                ok = False
                break
        count += ok
    return count


@pytest.mark.parametrize("p", [2, 3])
def test_tangent_dim_gt_counts_the_first_order_deformations(p):
    for n in range(1, 5):
        Ts = [jordan_matrix(blocks) for blocks in partitions_of(n)]
        for k in range(n + 1):
            for T, pts in zip(Ts, gt_points(Ts, k, p)):
                for U in pts:
                    assert _tangent_count(U, T) == p ** tangent_dim_gt(U, T), (T, U)
