from fractions import Fraction
from math import prod

import pytest

from grfock.exact import cyclotomic_polynomial, det, invert_unitriangular, matmul
from grfock.partitions import (
    Cmp, MayaDiagram, compare_dominance, maya_of_partition, partitions_of, transpose,
)
from grfock.symfunc import (
    DegreeOverflowError,
    SymPoly,
    HPoly,
    charge,
    det_coeffs_principal_nilpotent,
    e_poly,
    frobenius_twist,
    h_poly,
    is_symmetric,
    kf_transition_matrices,
    kostka_foulkes,
    kostka_foulkes_tables,
    m_poly,
    p_poly,
    power_sum_in_h,
    s_poly,
    schur_expand,
    twist_in_h_basis,
    _HSeries,
)
from oracles import ZtPoly, kf_column_by_charge, n_of, zt_matrix


NV = 7


# ---------------------------------------------------------------------------
# bases and expansion


def test_basis_examples():
    assert s_poly((1,), NV) == h_poly(1, NV) == m_poly((1,), NV)
    assert s_poly((1, 1), NV) == h_poly(1, NV) * h_poly(1, NV) - h_poly(2, NV)
    assert m_poly((1, 1), NV) == e_poly(2, NV)
    with pytest.raises(DegreeOverflowError):
        m_poly((3,), 2)


def test_schur_expand_examples():
    assert schur_expand(h_poly(2, NV)) == {(2,): 1}
    assert schur_expand(e_poly(2, NV)) == {(1, 1): 1}
    assert schur_expand(p_poly(2, NV)) == {(2,): 1, (1, 1): -1}
    bad = m_poly((2,), 3)
    bad.coeffs[(2, 0, 0)] += 1  # break symmetry
    with pytest.raises(ValueError):
        schur_expand(bad)


def test_schur_expand_jacobi_trudi_consistency():
    for total in range(0, 8):
        for lam in partitions_of(total):
            assert schur_expand(s_poly(lam, NV)) == {lam: 1}, lam


def test_stable_range_soundness():
    for nv in (5, 6, 7):
        f = p_poly(3, nv) * e_poly(2, nv)
        exp = schur_expand(f)
        assert exp == schur_expand(p_poly(3, 8) * e_poly(2, 8))


def test_symmetry_check():
    assert is_symmetric(s_poly((2, 1), 5))
    g = m_poly((2, 1), 4)
    g.coeffs[(2, 1, 0, 0)] -= 1
    assert not is_symmetric(g)


def test_frobenius_twist_examples():
    for n, d in ((2, 1), (2, 2), (3, 1), (3, 2)):
        assert frobenius_twist(e_poly(d, NV), n) == m_poly((n,) * d, NV)
    assert frobenius_twist(p_poly(2, NV), 3) == p_poly(6, NV)
    assert frobenius_twist(h_poly(1, NV), 2) == p_poly(2, NV)
    with pytest.raises(DegreeOverflowError):
        frobenius_twist(h_poly(4, NV), 2)


# ---------------------------------------------------------------------------
# tableaux, charge, Kostka-Foulkes


def _semistandard_tableaux(shape, content):
    """All SSYT of the given shape and content, filled one cell at a time
    (rows weak, columns strict): an oracle for the strip enumeration."""
    shape = tuple(shape)
    letters = len(content)
    remaining = list(content)
    rows: list = [[] for _ in shape]

    def fill(r: int, c: int):
        if r == len(shape):
            yield [tuple(row) for row in rows]
            return
        nr, nc = (r, c + 1) if c + 1 < shape[r] else (r + 1, 0)
        lo = rows[r][c - 1] if c > 0 else 1
        above = rows[r - 1][c] + 1 if r > 0 else 1
        lo = max(lo, above)
        for letter in range(lo, letters + 1):
            if remaining[letter - 1] > 0:
                remaining[letter - 1] -= 1
                rows[r].append(letter)
                yield from fill(nr, nc)
                rows[r].pop()
                remaining[letter - 1] += 1

    if sum(shape) != sum(content):
        return
    yield from fill(0, 0) if shape else iter([[]])


def _reading_word(tableau) -> tuple:
    """Rows read left to right, bottom row first."""
    word = []
    for row in reversed(tableau):
        word.extend(row)
    return tuple(word)


def _charge_oracle(word) -> int:
    """Charge by scanning: each standard subword is found by rescanning the
    unused positions, and its index grows when a letter sits to the right of
    the letter before."""
    word = list(word)
    total = 0
    positions = list(range(len(word)))
    while positions:
        present = {word[i] for i in positions}
        ones = [i for i in positions if word[i] == 1]
        if not ones:
            raise ValueError("content is not a partition")
        cur = max(ones)
        selected = [cur]
        letter = 2
        while letter in present:
            scan = [i for i in positions if i < cur][::-1] + [i for i in positions if i > cur][::-1]
            found = None
            for i in scan:
                if word[i] == letter and i not in selected:
                    found = i
                    break
            if found is None:
                break
            selected.append(found)
            cur = found
            letter += 1
        ordered = sorted(selected)
        letters_in_order = [word[i] for i in ordered]
        pos_of = {letter: idx for idx, letter in enumerate(letters_in_order)}
        index = 0
        for r in range(2, len(selected) + 1):
            if pos_of[r] > pos_of[r - 1]:
                index += 1
            total += index
        positions = [i for i in positions if i not in selected]
    return total


def test_reading_word_and_charge():
    assert _reading_word([(1, 2), (3,)]) == (3, 1, 2)
    assert charge((1, 2)) == 1
    assert charge((2, 1)) == 0
    assert charge((3, 1, 2)) == 2
    assert charge((1, 1, 2)) == 1


def test_kostka_foulkes_examples():
    t = ZtPoly.t()
    assert kostka_foulkes((2,), (1, 1)) == t
    assert kostka_foulkes((1, 1), (2,)) == ()
    assert kostka_foulkes((3, 1), (2, 1, 1)) == t + t * t
    assert kostka_foulkes((3,), (1, 1, 1)) == ZtPoly.t(3)
    for total in range(0, 7):
        for lam in partitions_of(total):
            assert kostka_foulkes(lam, lam) == (1,)
    with pytest.raises(ValueError):
        kostka_foulkes((2,), (1, 1, 1))


def test_charge_matches_the_scanning_oracle():
    words = 0
    for total in range(0, 9):
        for lam in partitions_of(total):
            for mu in partitions_of(total):
                for T in _semistandard_tableaux(lam, mu):
                    word = _reading_word(T)
                    assert charge(word) == _charge_oracle(word), word
                    words += 1
    assert words == 2768  # every SSYT of partition content with at most 8 cells


@pytest.mark.parametrize("word", [(1, 0), (2,), (1, 3), (1, 2, 2)])
def test_charge_rejects_content_that_is_not_a_partition(word):
    with pytest.raises(ValueError):
        charge(word)


def test_kostka_foulkes_matches_the_cell_by_cell_oracle():
    phi = cyclotomic_polynomial(2)
    for total, (labels, K, ring) in enumerate(kostka_foulkes_tables(8)):
        assert labels == partitions_of(total) and ring is None
        own = kf_transition_matrices(total, 2).K  # in Z[zeta_2], from a memo of its own
        for i, lam in enumerate(labels):
            for j, mu in enumerate(labels):
                by_charge = [0] * (n_of(mu) + 1)
                for T in _semistandard_tableaux(lam, mu):
                    by_charge[_charge_oracle(_reading_word(T))] += 1
                expected = ZtPoly(by_charge)
                assert K[i][j] == expected, (lam, mu)
                assert own[i][j] == expected.divmod_monic(phi)[1], (lam, mu)


def test_vertex_operator_matches_the_charged_strip_pass():
    # Jing's vertex operator and charge derive K independently
    for total, (labels, K, _) in enumerate(kostka_foulkes_tables(9)):
        assert labels == partitions_of(total)
        for j, mu in enumerate(labels):
            column = kf_column_by_charge(mu, (total,) * len(mu))
            assert {lam: K[i][j] for i, lam in enumerate(labels) if K[i][j]} == column, mu


def test_unknown_convention_and_non_partitions_are_rejected():
    for lam, mu in (((2,), (2, 0)), ((3,), (1, 2)), ((1, 2), (2, 1))):
        with pytest.raises(ValueError):
            kostka_foulkes(lam, mu)


def _kostka_count_oracle(lam, mu):
    """Kostka number by the horizontal-strip branching recursion."""
    lam, mu = tuple(lam), tuple(mu)
    if not mu:
        return 1 if not lam else 0
    if sum(lam) != sum(mu):
        return 0
    last = mu[-1]
    rest = mu[:-1]
    total = 0

    def strips(shape, amount):
        # all nu <= shape with shape/nu a horizontal strip of size amount
        rows = len(shape)

        def rec(i, left, prev_upper):
            if i == rows:
                if left == 0:
                    yield ()
                return
            lo_bound = shape[i + 1] if i + 1 < rows else 0
            hi = min(shape[i], prev_upper)
            for nu_i in range(lo_bound, hi + 1):
                take = shape[i] - nu_i
                if take <= left:
                    for tail in rec(i + 1, left - take, nu_i):
                        yield (nu_i,) + tail

        for nu in rec(0, amount, 10**9):
            yield tuple(x for x in nu if x)

    for nu in strips(lam, last):
        total += _kostka_count_oracle(nu, rest)
    return total


def test_kostka_at_one_counts_ssyt():
    for labels, K, _ in kostka_foulkes_tables(6):
        for i, lam in enumerate(labels):
            for j, mu in enumerate(labels):
                k1 = ZtPoly(K[i][j])(1)
                assert k1 == _kostka_count_oracle(lam, mu), (lam, mu)
                assert k1 == sum(1 for _ in _semistandard_tableaux(lam, mu))


def test_kostka_degree_bound():
    for labels, K, _ in kostka_foulkes_tables(6):
        for i, lam in enumerate(labels):
            for j, mu in enumerate(labels):
                k = K[i][j]
                if k:
                    assert len(k) - 1 == n_of(mu) - n_of(lam), (lam, mu)
                    assert k[-1] == 1  # monic


def test_kostka_dominance_unitriangular():
    for labels, K, _ in kostka_foulkes_tables(6):
        for i, lam in enumerate(labels):
            for j, mu in enumerate(labels):
                if K[i][j]:
                    assert compare_dominance(lam, mu) in (Cmp.GREATER, Cmp.EQUAL)


def test_hall_littlewood_oracle_small():
    """s_lam = sum_mu K_{lam,mu}(t) P_mu(x;t) at several rational t.

    The P_mu are built by Gram-Schmidt against the t-deformed power-sum inner
    product, in ascending dominance order -- a tableau-free construction of
    the Hall-Littlewood basis, so this cross-checks the charge statistic.
    """
    from math import factorial

    def z_lam(lam):
        out = 1
        mult = {}
        for part in lam:
            mult[part] = mult.get(part, 0) + 1
        for part, m in mult.items():
            out *= part**m * factorial(m)
        return out

    tables = list(kostka_foulkes_tables(5))
    for tval in (Fraction(0), Fraction(2), Fraction(-1, 2), Fraction(3, 5)):
        for total in range(0, 6):
            labels, K, _ = tables[total]  # descending lex
            nv = max(total, 1)

            def m_coeff(poly, mu):
                exp = tuple(mu) + (0,) * (poly.nvars - len(mu))
                return poly.coeffs.get(exp, 0)

            # p_lam expanded in the m-basis, then inverted over Q
            pm = {}
            for lam in labels:
                poly = m_poly((), nv)
                for part in lam:
                    poly = poly * p_poly(part, nv)
                pm[lam] = poly
            size = len(labels)
            A = [[Fraction(m_coeff(pm[labels[j]], labels[i])) for j in range(size)]
                 for i in range(size)]  # column j = p_{labels[j]} in m-coordinates
            Inv = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
            for col in range(size):
                piv = next(r for r in range(col, size) if A[r][col])
                A[col], A[piv] = A[piv], A[col]
                Inv[col], Inv[piv] = Inv[piv], Inv[col]
                f = A[col][col]
                A[col] = [x / f for x in A[col]]
                Inv[col] = [x / f for x in Inv[col]]
                for r in range(size):
                    if r != col and A[r][col]:
                        g = A[r][col]
                        A[r] = [x - g * y for x, y in zip(A[r], A[col])]
                        Inv[r] = [x - g * y for x, y in zip(Inv[r], Inv[col])]
            # now p-coordinates of a m-coordinate vector v are Inv @ v
            def to_p(m_vec):
                out = {}
                for i, lam in enumerate(labels):
                    val = sum((Inv[i][j] * m_vec.get(labels[j], Fraction(0))
                               for j in range(size)), Fraction(0))
                    if val:
                        out[lam] = val
                return out

            def ip(avec, bvec):
                acc = Fraction(0)
                for lam in labels:
                    ca, cb = avec.get(lam, Fraction(0)), bvec.get(lam, Fraction(0))
                    if ca and cb:
                        w = Fraction(z_lam(lam))
                        for part in lam:
                            w /= 1 - tval**part
                        acc += ca * cb * w
                return acc

            P = {}
            for mu in reversed(labels):  # ascending dominance-compatible order
                vec = to_p({mu: Fraction(1)})
                for nu, pvec in P.items():
                    c = ip(vec, pvec) / ip(pvec, pvec)
                    if c:
                        for lam2, cv in pvec.items():
                            vec[lam2] = vec.get(lam2, Fraction(0)) - c * cv
                P[mu] = {k: v for k, v in vec.items() if v}

            for i, lam in enumerate(labels):
                spoly = s_poly(lam, nv)
                svec_p = to_p({mu: Fraction(m_coeff(spoly, mu)) for mu in labels})
                rhs = {}
                for j, mu in enumerate(labels):
                    Kval = Fraction(ZtPoly(K[i][j])(tval))
                    if Kval:
                        for lam2, cv in P[mu].items():
                            rhs[lam2] = rhs.get(lam2, Fraction(0)) + Kval * cv
                for lam2 in labels:
                    assert svec_p.get(lam2, Fraction(0)) == rhs.get(lam2, Fraction(0)), \
                        (tval, total, lam, lam2)


# ---------------------------------------------------------------------------
# transition matrices


def test_kf_transition_size2():
    # in Z[t] from a Z[t] table, and in Z[zeta_2] (t = -1) by default
    kf = kf_transition_matrices(2, 2, list(kostka_foulkes_tables(2))[2])
    t = ZtPoly.t()
    one = (1,)
    assert kf.labels == ((2,), (1, 1))
    assert kf.K == ((one, t), ((), one))
    assert kf.regular_labels == ((2,),)
    assert kf.D == ((one, -t),)
    kf = kf_transition_matrices(2, 2)
    assert kf.K == ((one, (-1,)), ((), one)) and kf.B == kf.D == ((one, one),)


def test_kf_transition_rejects_a_negative_size_and_a_foreign_table():
    with pytest.raises(ValueError):
        kf_transition_matrices(-1, 2)
    zt = list(kostka_foulkes_tables(4))
    by_3 = list(kostka_foulkes_tables(4, 3))
    assert kf_transition_matrices(4, 2, zt[4]).labels == partitions_of(4)
    for total, n, table in ((3, 2, zt[4]), (4, 2, zt[3]), (-1, 2, zt[0]), (4, 2, by_3[4]),
                            (3, 3, by_3[4]), (4, 3, list(kostka_foulkes_tables(4, 2))[4])):
        with pytest.raises(ValueError):
            kf_transition_matrices(total, n, table)
    assert kf_transition_matrices(4, 3, by_3[4]) == kf_transition_matrices(4, 3)


def test_kf_transition_size0():
    kf = kf_transition_matrices(0, 2)
    assert kf.K == (((1,),),)
    assert kf.D == (((1,),),)


@pytest.mark.parametrize("n", [2, 3])
def test_kf_regular_block_is_identity(n):
    for total in range(0, 7):
        kf = kf_transition_matrices(total, n)
        reg_cols = [kf.labels.index(p) for p in kf.regular_labels]
        for i in range(len(kf.regular_labels)):
            for jj, j in enumerate(reg_cols):
                expected = (1,) if i == jj else ()
                assert kf.D[i][j] == expected


@pytest.mark.parametrize("n", [2, 3, 5])
def test_b_is_the_regular_rows_of_the_full_inverse(n):
    for total, table in enumerate(kostka_foulkes_tables(9)):
        kf = kf_transition_matrices(total, n, table)
        C = invert_unitriangular(kf.K)
        assert kf.B == tuple(C[kf.labels.index(p)] for p in kf.regular_labels), total


def _mod_phi(value, n):
    """A Z[t] value's residue mod Phi_n, by division: no fold table."""
    return ZtPoly(value).divmod_monic(cyclotomic_polynomial(n))[1]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_the_build_in_z_zeta_n_is_the_build_in_z_t_reduced(n):
    # reduction mod Phi_n is a ring homomorphism, so K, B, A and D commute with it
    tables = zip(kostka_foulkes_tables(9), kostka_foulkes_tables(9, n))
    for total, (zt_table, table) in enumerate(tables):
        kf = kf_transition_matrices(total, n, table)
        zt = kf_transition_matrices(total, n, zt_table)
        assert (kf.labels, kf.regular_labels) == (zt.labels, zt.regular_labels)
        for name in ("K", "B", "A", "D"):
            reduced = tuple(tuple(_mod_phi(x, n) for x in row) for row in getattr(zt, name))
            assert getattr(kf, name) == reduced, (total, name)


def test_the_build_in_z_zeta_n_matches_the_charged_strip_pass():
    # charge counts K without the vertex operator; reduce its columns mod Phi_n
    builds = {n: list(kostka_foulkes_tables(8, n)) for n in range(2, 7)}
    for total in range(0, 9):
        labels = partitions_of(total)
        for j, mu in enumerate(labels):
            column = kf_column_by_charge(mu, (total,) * len(mu))
            for n, tables in builds.items():
                K = tables[total][1]
                expected = {lam: _mod_phi(c.coeffs, n) for lam, c in column.items()}
                assert {lam: K[i][j] for i, lam in enumerate(labels) if K[i][j]} == {
                    lam: c for lam, c in expected.items() if c}, (n, mu)


def test_kf_inverses_by_the_generic_product():
    # exact.matmul over Z[t] shares no code with the coefficient-tuple
    # products that build C = K^-1, A and D = A B, here all in Z[t]
    one, zero = ZtPoly((1,)), ZtPoly()

    def identity(size):
        return tuple(tuple(one if i == j else zero for j in range(size)) for i in range(size))

    for total, table in enumerate(kostka_foulkes_tables(8)):
        kf = kf_transition_matrices(total, 2, table)
        K, C = zt_matrix(kf.K), zt_matrix(invert_unitriangular(kf.K))
        assert matmul(K, C, zero) == identity(len(kf.labels)) == matmul(C, K, zero)
        for n in (2, 3):
            kf = kf_transition_matrices(total, n, table)
            AB = matmul(zt_matrix(kf.A), zt_matrix(kf.B), zero)
            reg_cols = [kf.labels.index(p) for p in kf.regular_labels]
            assert AB == kf.D, (total, n)
            assert tuple(tuple(row[j] for j in reg_cols) for row in AB) == identity(len(reg_cols))


def test_kostka_at_one_matches_kf_matrix():
    kf = kf_transition_matrices(4, 2, list(kostka_foulkes_tables(4))[4])
    for i, lam in enumerate(kf.labels):
        for j, mu in enumerate(kf.labels):
            assert ZtPoly(kf.K[i][j])(1) == _kostka_count_oracle(lam, mu)


# ---------------------------------------------------------------------------
# determinant coefficients and twists in the h-generators


def test_det_coeffs_examples():
    assert det_coeffs_principal_nilpotent(1, 4) == [HPoly.gen(k) for k in range(1, 5)]
    d2 = det_coeffs_principal_nilpotent(2, 3)
    assert d2[0] == HPoly.gen(2) * 2 - HPoly.gen(1) * HPoly.gen(1)


def test_symmetric_function_scalars_take_an_int_only_through_mul():
    h1, h2 = HPoly.gen(1), HPoly.gen(2)
    x = SymPoly(2, {(1, 0): 1, (0, 1): 1})
    for y in (h1, x, _HSeries(1, {0: h1})):
        with pytest.raises(TypeError):
            y + 1
        assert y != 1
    for y in (h1, x):
        assert y * 3 == y.scale(3) and not y * 0
    # int entries lift through the products with the typed one
    assert det([[h1, 1], [1, h2]], HPoly.const(1)) == h1 * h2 - HPoly.const(1)
    with pytest.raises(ValueError):
        _HSeries(1, {2: h1})


def test_a_product_with_another_scalar_type_raises_type_error():
    h1 = HPoly.gen(1)
    x = SymPoly(2, {(1, 0): 1, (0, 1): 1})
    for a, b in ((h1, Fraction(1)), (h1, ZtPoly.const(1)), (x, Fraction(2)),
                 (x, h1), (_HSeries(1, {0: h1}), h1)):
        with pytest.raises(TypeError):
            a * b
        with pytest.raises(TypeError):
            b * a


def test_trace_of_principal_nilpotent_powers():
    # tr E^k = n t^{-j} iff k = j n, else 0; E built explicitly over Z[s]
    s = ZtPoly.t()
    for n in range(1, 5):
        E = [[ZtPoly() for _ in range(n)] for _ in range(n)]
        for i in range(1, n):
            E[i - 1][i] = ZtPoly((1,))
        E[n - 1][0] = s
        M = [[ZtPoly((1,)) if i == j else ZtPoly() for j in range(n)] for i in range(n)]
        for k in range(1, 13):
            M = [[sum((M[i][a] * E[a][j] for a in range(n)), ZtPoly()) for j in range(n)]
                 for i in range(n)]
            tr = sum((M[i][i] for i in range(n)), ZtPoly())
            if k % n == 0:
                assert tr == ZtPoly.t(k // n, n), (n, k)
            else:
                assert not tr, (n, k)


def test_newton_power_sums():
    h1, h2, h3 = HPoly.gen(1), HPoly.gen(2), HPoly.gen(3)
    assert power_sum_in_h(1) == h1
    assert power_sum_in_h(2) == h2 * 2 - h1 * h1
    assert power_sum_in_h(3) == h3 * 3 - h1 * h2 * 3 + h1 * h1 * h1


def test_twist_in_h_examples():
    assert twist_in_h_basis(1, 4) == HPoly.gen(4)
    assert twist_in_h_basis(2, 1) == HPoly.gen(2) * 2 - HPoly.gen(1) * HPoly.gen(1)
    assert twist_in_h_basis(2, 2) == det_coeffs_principal_nilpotent(2, 2)[1]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_det_equals_twist(n):
    dets = det_coeffs_principal_nilpotent(n, 5)
    for k in range(1, 6):
        assert dets[k - 1] == twist_in_h_basis(n, k), (n, k)


def test_twist_in_h_matches_polynomial_model():
    # evaluate both sides on the h-values of concrete symmetric polynomials
    nv = 8
    for n, k in ((2, 1), (2, 2), (3, 1)):
        lhs = frobenius_twist(h_poly(k, nv), n)
        expr = twist_in_h_basis(n, k)
        acc = None
        for key, c in expr.coeffs.items():
            term = m_poly((), nv).scale(c)
            for idx, e in key:
                for _ in range(e):
                    term = term * h_poly(idx, nv)
            acc = term if acc is None else acc + term
        assert acc == lhs, (n, k)


# ---------------------------------------------------------------------------
# Toeplitz minors


def _h_at(hvals, d):
    """h_d at the given values of h_1, h_2, ...: 0 below degree 0, 1 in degree 0."""
    return Fraction(0) if d < 0 else Fraction(1) if d == 0 else hvals.get(d, Fraction(0))


def _toeplitz_minor(hvals, m):
    """Oracle: the minor of the upper-triangular Toeplitz matrix (entries
    h_{j-i}) on columns 0, 1, 2, ... and rows the beads of the charge-0 diagram
    m, reduced to a finite determinant; h_i = hvals[i] (missing means 0)."""
    L = len(m.mu)
    grid = [[_h_at(hvals, (j - 1) - m.bead(r)) for j in range(1, L + 1)] for r in range(1, L + 1)]
    return det(grid, Fraction(1))


def _jacobi_trudi_value(lam, hvals):
    """Oracle: det(h_{lam_i - i + j}) at the given h-values."""
    ell = len(lam)
    grid = [[_h_at(hvals, lam[i - 1] - i + j) for j in range(1, ell + 1)]
            for i in range(1, ell + 1)]
    return det(grid, Fraction(1))


def test_toeplitz_minor_examples():
    hv = {1: Fraction(5), 2: Fraction(-3), 3: Fraction(7), 4: Fraction(2)}
    vac = MayaDiagram(0, ())
    assert _toeplitz_minor(hv, vac) == Fraction(1)
    for k in (1, 2, 3, 4):
        assert _toeplitz_minor(hv, MayaDiagram(0, (k,))) == hv[k]
    assert _toeplitz_minor(hv, MayaDiagram(0, (1, 1))) == hv[1] ** 2 - hv[2]


def test_toeplitz_minor_is_jacobi_trudi():
    import random

    rng = random.Random(11)
    hv = {i: Fraction(rng.randint(-4, 4)) for i in range(1, 13)}
    for total in range(0, 7):
        for lam in partitions_of(total):
            m = MayaDiagram(0, lam)  # storage mu = lam directly
            assert _toeplitz_minor(hv, m) == _jacobi_trudi_value(lam, hv), lam


def test_toeplitz_minor_of_partition_label_is_transposed_jt():
    hv = {i: Fraction(i + 1) for i in range(1, 10)}
    for total in range(0, 6):
        for lam in partitions_of(total):
            m = maya_of_partition(lam)
            assert _toeplitz_minor(hv, m) == _jacobi_trudi_value(transpose(lam), hv)


def _at(f, x):
    """The value of a SymPoly at the point x."""
    return sum(c * prod(v**e for v, e in zip(x, exp)) for exp, c in f.coeffs.items())


def test_toeplitz_minor_is_the_schur_polynomial_at_a_point():
    # at h_i = h_i(x) for a point x of the stable range, the minor is s_lam(x)
    x = (2, -1, 3, 1, 0, -2, 1)
    hv = {i: Fraction(_at(h_poly(i, NV), x)) for i in range(1, NV + 1)}
    for total in range(0, 6):
        for lam in partitions_of(total):
            value = _at(s_poly(lam, NV), x)
            assert _toeplitz_minor(hv, MayaDiagram(0, lam)) == value, lam
            assert _toeplitz_minor(hv, maya_of_partition(transpose(lam))) == value, lam


def test_sym_poly_rejects_mixed_variable_counts():
    x = SymPoly(2, {(1, 0): 1, (0, 1): 1})
    with pytest.raises(ValueError):
        SymPoly(2, {(1, 0, 0): 1})
    with pytest.raises(ValueError):
        x + SymPoly(3, {})
    with pytest.raises(ValueError):
        x * SymPoly(3, {})


@pytest.mark.parametrize("call, error, match", [
    (lambda: det_coeffs_principal_nilpotent(0, 1), ValueError, "need n >= 1 and K >= 1"),
    (lambda: m_poly((1, 1, 1), 2), DegreeOverflowError, "needs at least 3 variables"),
], ids=["det-n0", "m-poly-too-many-parts"])
def test_bad_input_raises(call, error, match):
    with pytest.raises(error, match=match):
        call()
