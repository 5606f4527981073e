import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from grfock.exact import GF, IntPoly, QQ, ZT, ZZ
from grfock.exterior import (
    ExtTensor,
    TwoTensor,
    add_operators,
    basis_wedge,
    clifford,
    epsilon_d,
    eta_T,
    ext_word_on_key,
    identity_operator,
    omega,
    omega_apply,
    omega_diag,
    omega_T,
    omega_T_apply,
    omega_T_diag,
    operator,
    sgn_IJK,
    sgn_KJ,
    shuffle_generating_identity,
    sign_R_minus_one,
    sort_with_sign,
    subset_word,
    sym_operator_apply,
    t_shuffle,
    t_shuffle_subset_form,
    tensor_product,
    wedge_apply,
    zero_operator,
)
from grfock.grassmann import wedge_of_rows


rng = random.Random(2024)


def rnd_ext(n, k, ring, lo=-3, hi=3):
    coeffs = {}
    for key in combinations(range(1, n + 1), k):
        c = rng.randint(lo, hi)
        if c:
            coeffs[key] = ring.from_int(c)
    return ExtTensor(n, k, coeffs, ring)


def rnd_op(n, ring, lo=-2, hi=2):
    return tuple(tuple(ring.from_int(rng.randint(lo, hi)) for _ in range(n)) for _ in range(n))


def rnd_decomposable(n, k, ring):
    while True:
        rows = [[ring.from_int(rng.randint(-2, 2)) for _ in range(n)] for _ in range(k)]
        tau = wedge_of_rows(rows, n, ring)
        if not tau.is_zero():
            return tau


# ---------------------------------------------------------------------------
# signs


def test_sign_R_minus_one_examples():
    assert sign_R_minus_one({1}) == 1
    assert sign_R_minus_one({2, 3}) == -1


def test_sgn_KJ_examples():
    assert sgn_KJ((1, 2), (1, 2)) == 1  # K = J: L empty
    assert sgn_KJ((), (3,)) == 1


def test_epsilon_examples():
    for d in range(1, 5):
        for J in combinations(range(1, 7), d):
            assert epsilon_d(J, J, d) == (-1) ** (d * (d - 1) // 2)


def test_epsilon_independence_of_auxiliary():
    for d in range(1, 5):
        for J in [(1,), (2, 5), (1, 3, 4), (2, 3, 5, 6)]:
            if len(J) > d:
                continue
            for m in range(min(len(J), d) + 1):
                for K in combinations(J, m):
                    if d < len(K):
                        continue
                    vals = set()
                    for extra in combinations([x for x in range(1, 10) if x not in K], d - len(K)):
                        I = tuple(sorted(set(K) | set(extra)))
                        vals.add(sgn_IJK(J, I, K) * sgn_KJ(K, I))
                    assert len(vals) == 1, (J, K, d)


def test_sgn_IJK_containment_error():
    with pytest.raises(ValueError):
        sgn_IJK((1,), (2,), (3,))


def test_sort_with_sign():
    assert sort_with_sign((3, 1, 2)) == (1, (1, 2, 3))
    assert sort_with_sign((2, 1)) == (-1, (1, 2))
    assert sort_with_sign((1, 1)) is None


# ---------------------------------------------------------------------------
# Clifford operators


def test_clifford_examples():
    e2 = basis_wedge(3, (2,))
    r = clifford((1,), False, e2)
    assert r.coeffs == {(1, 2): 1}
    e12 = basis_wedge(3, (1, 2))
    r = clifford((2,), True, e12)
    assert r.coeffs == {(1,): -1}
    e13 = basis_wedge(3, (1, 3))
    assert clifford((1,), False, e13).is_zero()


def test_finite_clifford_relations_exhaustive():
    n = 5
    keys = [tuple(c) for r in range(n + 1) for c in combinations(range(1, n + 1), r)]
    for key in keys:
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                def word_result(word):
                    res = ext_word_on_key(word, key)
                    return {} if res is None else {res[1]: res[0]}

                anti = word_result(((i, False), (j, True)))
                for k2, v in word_result(((j, True), (i, False))).items():
                    anti[k2] = anti.get(k2, 0) + v
                anti = {k2: v for k2, v in anti.items() if v}
                assert anti == ({key: 1} if i == j else {})


# ---------------------------------------------------------------------------
# KP two-tensors


def test_omega_examples():
    # d = 0 leaves the tensor unchanged
    u = rnd_ext(4, 2, QQ)
    v = rnd_ext(4, 2, QQ)
    assert omega(0, u, v) == tensor_product(u, v)
    # Omega_1(e_1 (x) e_2) = -(e_1 ^ e_2) (x) 1
    e1 = basis_wedge(2, (1,))
    e2 = basis_wedge(2, (2,))
    r = omega(1, e1, e2)
    assert r.coeffs == {((1, 2), ()): -1}


def test_divided_powers_random():
    for _ in range(60):
        n = rng.randint(2, 6)
        k = rng.randint(0, n - 2)
        l = rng.randint(2, n)
        tt = tensor_product(rnd_ext(n, k, QQ), rnd_ext(n, l, QQ))
        for d in (2, 3):
            if d > l:
                continue
            it = tt
            for _ in range(d):
                it = omega_apply(1, it)
            assert it == omega_apply(d, tt).scale(QQ.from_int(math.factorial(d)))


def test_omega_bilinear_and_bidegree():
    n = 5
    u1, u2 = rnd_ext(n, 2, QQ), rnd_ext(n, 2, QQ)
    v = rnd_ext(n, 3, QQ)
    d = 2
    lhs = omega(d, u1 + u2, v)
    assert lhs == omega(d, u1, v) + omega(d, u2, v)
    out = omega(d, u1, v)
    assert out.degrees == (2 + d, 3 - d)


def test_omega_T_zero_and_identity():
    n = 5
    u, v = rnd_ext(n, 1, QQ), rnd_ext(n, 3, QQ)
    assert omega_T(1, zero_operator(n, QQ), u, v).is_zero()
    for d in (1, 2):
        assert omega_T(d, identity_operator(n, QQ), u, v) == omega(d, u, v)


def test_omega_T_additivity_QQ_and_F5():
    for ring in (QQ, GF(5)):
        for _ in range(30):
            n = rng.randint(2, 5)
            k = rng.randint(0, n - 1)
            l = rng.randint(1, n)
            T1, T2 = rnd_op(n, ring), rnd_op(n, ring)
            tt = tensor_product(rnd_ext(n, k, ring), rnd_ext(n, l, ring))
            for d in range(1, min(l, n - k) + 1):
                lhs = omega_T_apply(d, add_operators(T1, T2, ring), tt)
                rhs = None
                for a in range(d + 1):
                    term = omega_T_apply(a, T1, omega_T_apply(d - a, T2, tt))
                    rhs = term if rhs is None else rhs + term
                assert lhs == rhs


def test_eta_T_matches_omega_of_wedged():
    n = 4
    T = rnd_op(n, QQ)
    tau = rnd_ext(n, 2, QQ)
    assert eta_T(1, T, tau) == omega(1, wedge_apply(T, tau), tau)


# ---------------------------------------------------------------------------
# T-shuffles


def test_t_shuffle_top_degree_is_wedge_power():
    for _ in range(10):
        n = rng.randint(2, 5)
        k = rng.randint(1, n)
        T = rnd_op(n, QQ)
        tau = rnd_ext(n, k, QQ)
        assert t_shuffle(k, T, tau, check=True) == wedge_apply(T, tau)


def test_t_shuffle_zero_and_identity_degrees():
    n, k = 4, 2
    T = rnd_op(n, QQ)
    tau = rnd_ext(n, k, QQ)
    assert t_shuffle(0, T, tau) == tau
    assert t_shuffle(k + 1, T, tau).is_zero()


def test_generating_identity_random():
    for _ in range(25):
        n = rng.randint(2, 5)
        k = rng.randint(1, n)
        T = rnd_op(n, ZT)
        tau = rnd_ext(n, k, ZT)
        lhs, rhs = shuffle_generating_identity(T, tau, IntPoly.t(), ZT)
        assert lhs == rhs


def test_both_shuffle_formulas_agree():
    for _ in range(20):
        n = rng.randint(2, 5)
        k = rng.randint(1, n)
        T = rnd_op(n, QQ)
        tau = rnd_ext(n, k, QQ)
        for d in range(1, k + 1):
            assert t_shuffle(d, T, tau) == t_shuffle_subset_form(d, T, tau)


def test_omega_T_via_shuffles_on_decomposables():
    # omega_d^T(tau) = (-1)^d sum_I e_I ^ (sh_d^T tau) (x) iota_{e*_I}(tau),
    # exactly on the Pluecker cone
    for _ in range(40):
        n = rng.randint(2, 5)
        k = rng.randint(1, n - 1)
        T = rnd_op(n, QQ)
        tau = rnd_decomposable(n, k, QQ)
        for d in range(1, min(k, n - k) + 1):
            lhs = omega_T_diag(d, T, tau)
            sh = t_shuffle(d, T, tau)
            acc = None
            for I in combinations(range(1, n + 1), d):
                term = tensor_product(clifford(I, False, sh), clifford(I, True, tau))
                acc = term if acc is None else acc + term
            assert lhs == acc.scale(QQ.from_int((-1) ** d)), (n, k, d)


def test_omega_T_via_shuffles_fails_off_cone():
    # frozen witness: tau = e_12 + e_34, T = E_11, d = 1
    n = 4
    T = operator(((1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)), QQ)
    tau = ExtTensor(n, 2, {(1, 2): QQ.one, (3, 4): QQ.one}, QQ)
    lhs = omega_T_diag(1, T, tau)
    assert lhs.coeffs == {((1, 3, 4), (2,)): Fraction(1)}
    sh = t_shuffle(1, T, tau)
    acc = None
    for I in combinations(range(1, n + 1), 1):
        term = tensor_product(clifford(I, False, sh), clifford(I, True, tau))
        acc = term if acc is None else acc + term
    rhs = {((1, 2, 3), (4,)): Fraction(1), ((1, 2, 4), (3,)): Fraction(-1)}
    assert acc.coeffs == rhs
    assert lhs != acc and lhs != acc.scale(QQ.from_int(-1))


# ---------------------------------------------------------------------------
# operators from symmetric polynomials


def test_sym_operator_examples():
    from grfock.symfunc import SymPoly, e_poly

    for _ in range(10):
        n = rng.randint(2, 4)
        k = rng.randint(1, n)
        T = rnd_op(n, QQ)
        tau = rnd_ext(n, k, QQ)
        for d in range(0, k + 1):
            assert sym_operator_apply(e_poly(d, k), T, tau) == t_shuffle(d, T, tau)
        const = SymPoly(k, {(0,) * k: 1})
        assert sym_operator_apply(const, T, tau) == tau


def test_sym_operator_rejects_nonsymmetric():
    from grfock.symfunc import SymPoly

    n, k = 3, 2
    T = rnd_op(n, QQ)
    tau = rnd_ext(n, k, QQ)
    f = SymPoly(2, {(1, 0): 1})
    with pytest.raises(ValueError):
        sym_operator_apply(f, T, tau)
    with pytest.raises(ValueError):
        sym_operator_apply(SymPoly(3, {(0, 0, 0): 1}), T, tau)


def test_sym_operator_power_sum_vs_iterated():
    # p_1 = e_1: the operator is sh_1^T
    from grfock.symfunc import p_poly

    n, k = 4, 2
    T = rnd_op(n, QQ)
    tau = rnd_ext(n, k, QQ)
    assert sym_operator_apply(p_poly(1, k), T, tau) == t_shuffle(1, T, tau)
