import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from grfock.exterior import (
    ExtTensor,
    TwoTensor,
    _accumulate_slot_products,
    clifford,
    epsilon_d,
    eta_T,
    ext_word_on_key,
    identity_operator,
    omega_apply,
    omega_T_apply,
    sgn_IJK,
    sgn_KJ,
    shuffle_generating_identity,
    sort_with_sign,
    sym_operator_apply,
    t_shuffle,
    tensor_product,
    wedge_apply,
    wedge_image,
)
from oracles import Fp, ZtPoly, wedge_of_rows


rng = random.Random(2024)


def f5(c):
    return Fp(c, 5)


def rnd_ext(n, k, lift, lo=-3, hi=3):
    coeffs = {}
    for key in combinations(range(1, n + 1), k):
        c = rng.randint(lo, hi)
        if c:
            coeffs[key] = lift(c)
    return ExtTensor(n, k, coeffs)


def rnd_op(n, lift, lo=-2, hi=2):
    return tuple(tuple(lift(rng.randint(lo, hi)) for _ in range(n)) for _ in range(n))


def _basis_wedge(n, key, lift=int):
    return ExtTensor(n, len(key), {key: lift(1)})


def _t_shuffle_subset_form(d, T, tau):
    """Oracle: sh_d^T by replacing the factors at each d-subset of slots with T-images."""
    if d == 0:
        return tau
    n = tau.n
    out = {}
    for key, c in tau.coeffs.items():
        for R in combinations(range(len(key)), d):
            # factors: e_{key[r]} for r not in R, T e_{key[r]} for r in R
            columns = [[(1, key[r])] if r not in R else
                       [(T[i - 1][key[r] - 1], i) for i in range(1, n + 1)
                        if T[i - 1][key[r] - 1]]
                       for r in range(len(key))]
            _accumulate_slot_products(out, c, columns)
    return ExtTensor(tau.n, tau.k, out)


def rnd_decomposable(n, k, lift):
    while True:
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
        tau = wedge_of_rows(rows, n, lift)
        if tau:
            return tau


# ---------------------------------------------------------------------------
# signs


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


def _bubble_sort_with_sign(seq):
    """Oracle: sort by adjacent swaps, flipping the sign at each swap."""
    seq = list(seq)
    if len(set(seq)) != len(seq):
        return None
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1, i, -1):
            if seq[j - 1] > seq[j]:
                seq[j - 1], seq[j] = seq[j], seq[j - 1]
                sign = -sign
    return sign, tuple(seq)


def test_sort_with_sign_matches_the_bubble_sort():
    for r in range(5):
        for seq in product(range(1, 6), repeat=r):
            assert sort_with_sign(seq) == _bubble_sort_with_sign(seq), seq


# ---------------------------------------------------------------------------
# Clifford operators


def test_clifford_examples():
    e2 = _basis_wedge(3, (2,))
    r = clifford((1,), False, e2)
    assert r.coeffs == {(1, 2): 1}
    e12 = _basis_wedge(3, (1, 2))
    r = clifford((2,), True, e12)
    assert r.coeffs == {(1,): -1}
    e13 = _basis_wedge(3, (1, 3))
    assert not clifford((1,), False, e13)


def _psi_oracle(i, key):
    """psi_i on a sorted tuple: sign (-1)^(number of entries below i)."""
    if i in key:
        return None
    below = sum(1 for a in key if a < i)
    return (-1 if below % 2 else 1), tuple(sorted(key + (i,)))


def _psi_star_oracle(i, key):
    """psi*_i on a sorted tuple: sign (-1)^(position of i)."""
    if i not in key:
        return None
    pos = key.index(i)
    return (-1 if pos % 2 else 1), key[:pos] + key[pos + 1 :]


def _word_oracle(word, key):
    sign = 1
    for index, star in reversed(word):
        res = _psi_star_oracle(index, key) if star else _psi_oracle(index, key)
        if res is None:
            return None
        s, key = res
        sign *= s
    return sign, key


def test_ext_word_on_key_matches_the_tuple_scan():
    letters = [(i, star) for i in range(1, 6) for star in (False, True)]
    keys = [c for r in range(6) for c in combinations(range(1, 6), r)]
    for r in range(4):
        for word in product(letters, repeat=r):
            for key in keys:
                assert ext_word_on_key(word, key) == _word_oracle(word, key), (word, key)


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
    u = rnd_ext(4, 2, Fraction)
    v = rnd_ext(4, 2, Fraction)
    assert omega_apply(0, tensor_product(u, v)) == tensor_product(u, v)
    # Omega_1(e_1 (x) e_2) = -(e_1 ^ e_2) (x) 1
    e1 = _basis_wedge(2, (1,))
    e2 = _basis_wedge(2, (2,))
    r = omega_apply(1, tensor_product(e1, e2))
    assert r.coeffs == {((1, 2), ()): -1}


def test_divided_powers_random():
    for _ in range(60):
        n = rng.randint(2, 6)
        k = rng.randint(0, n - 2)
        l = rng.randint(2, n)
        tt = tensor_product(rnd_ext(n, k, Fraction), rnd_ext(n, l, Fraction))
        for d in (2, 3):
            if d > l:
                continue
            it = tt
            for _ in range(d):
                it = omega_apply(1, it)
            assert it == omega_apply(d, tt).scale(math.factorial(d))


def test_omega_bilinear_and_bidegree():
    n = 5
    u1, u2 = rnd_ext(n, 2, Fraction), rnd_ext(n, 2, Fraction)
    v = rnd_ext(n, 3, Fraction)
    d = 2
    lhs = omega_apply(d, tensor_product(u1 + u2, v))
    out = omega_apply(d, tensor_product(u1, v))
    assert lhs == out + omega_apply(d, tensor_product(u2, v))
    assert out.degrees == (2 + d, 3 - d)


def test_omega_T_zero_and_identity():
    n = 5
    u, v = rnd_ext(n, 1, Fraction), rnd_ext(n, 3, Fraction)
    tt = tensor_product(u, v)
    assert not omega_T_apply(1, ((0,) * n,) * n, tt)
    for d in (1, 2):
        assert omega_T_apply(d, identity_operator(n), tt) == omega_apply(d, tt)


def test_omega_T_additivity_QQ_and_F5():
    for lift in (Fraction, f5):
        for _ in range(30):
            n = rng.randint(2, 5)
            k = rng.randint(0, n - 1)
            l = rng.randint(1, n)
            T1, T2 = rnd_op(n, lift), rnd_op(n, lift)
            T12 = tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(T1, T2))
            tt = tensor_product(rnd_ext(n, k, lift), rnd_ext(n, l, lift))
            for d in range(1, min(l, n - k) + 1):
                lhs = omega_T_apply(d, T12, tt)
                rhs = None
                for a in range(d + 1):
                    term = omega_T_apply(a, T1, omega_T_apply(d - a, T2, tt))
                    rhs = term if rhs is None else rhs + term
                assert lhs == rhs


def _wedge_left(T, tt):
    """(Lambda T (x) 1) on a two-tensor: T on every wedge factor of the left side."""
    out = {}
    for (a, b), c in tt.coeffs.items():
        for J, m in wedge_image(T, a).items():
            out[(J, b)] = out.get((J, b), 0) + c * m
    return TwoTensor(tt.n, tt.degrees, out)


def test_eta_T_by_omega_T_and_by_hand():
    # psi_1 (T e_1) (x) psi*_1 e_1 = e_1 ^ (2 e_1 + 5 e_2) (x) 1 = 5 e_12 (x) 1
    T = ((2, 3), (5, 7))
    assert eta_T(1, T, _basis_wedge(2, (1,), Fraction)) == TwoTensor(2, (2, 0), {((1, 2), ()): 5})
    # (T e_I) ^ Lambda T (x) = Lambda T (e_I ^ x) for every T, so
    # Omega_d^T(Lambda (T S) tau (x) tau) = (Lambda T (x) 1) eta_d^S(tau)
    for n in (3, 4, 5):
        for k in range(1, n):
            T, S, tau = rnd_op(n, Fraction), rnd_op(n, Fraction), rnd_ext(n, k, Fraction)
            wedged = tensor_product(wedge_apply(T, wedge_apply(S, tau)), tau)
            for d in range(1, min(k, n - k) + 1):
                assert omega_T_apply(d, T, wedged) == _wedge_left(T, eta_T(d, S, tau)), (n, k, d)


# ---------------------------------------------------------------------------
# T-shuffles


def test_t_shuffle_top_degree_is_wedge_power():
    for _ in range(10):
        n = rng.randint(2, 5)
        k = rng.randint(1, n)
        T = rnd_op(n, Fraction)
        tau = rnd_ext(n, k, Fraction)
        assert t_shuffle(k, T, tau) == _t_shuffle_subset_form(k, T, tau) == wedge_apply(T, tau)


def test_t_shuffle_zero_and_identity_degrees():
    n, k = 4, 2
    T = rnd_op(n, Fraction)
    tau = rnd_ext(n, k, Fraction)
    assert t_shuffle(0, T, tau) == tau
    assert not t_shuffle(k + 1, T, tau)


def test_generating_identity_random():
    for _ in range(25):
        n = rng.randint(2, 5)
        k = rng.randint(1, n)
        T = rnd_op(n, ZtPoly.const)
        tau = rnd_ext(n, k, ZtPoly.const)
        lhs, rhs = shuffle_generating_identity(T, tau, ZtPoly.t())
        assert lhs == rhs


def test_both_shuffle_formulas_agree():
    for _ in range(20):
        n = rng.randint(2, 5)
        k = rng.randint(1, n)
        T = rnd_op(n, Fraction)
        tau = rnd_ext(n, k, Fraction)
        for d in range(1, k + 1):
            assert t_shuffle(d, T, tau) == _t_shuffle_subset_form(d, T, tau)


def test_omega_T_via_shuffles_on_decomposables():
    # omega_d^T(tau) = (-1)^d sum_I e_I ^ (sh_d^T tau) (x) iota_{e*_I}(tau),
    # exactly on the Pluecker cone
    for _ in range(40):
        n = rng.randint(2, 5)
        k = rng.randint(1, n - 1)
        T = rnd_op(n, Fraction)
        tau = rnd_decomposable(n, k, Fraction)
        for d in range(1, min(k, n - k) + 1):
            lhs = omega_T_apply(d, T, tensor_product(tau, tau))
            sh = t_shuffle(d, T, tau)
            acc = None
            for I in combinations(range(1, n + 1), d):
                term = tensor_product(clifford(I, False, sh), clifford(I, True, tau))
                acc = term if acc is None else acc + term
            assert lhs == acc.scale((-1) ** d), (n, k, d)


def test_omega_T_via_shuffles_fails_off_cone():
    # frozen witness: tau = e_12 + e_34, T = E_11, d = 1
    n = 4
    T = ((1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))
    tau = ExtTensor(n, 2, {(1, 2): Fraction(1), (3, 4): Fraction(1)})
    lhs = omega_T_apply(1, T, tensor_product(tau, tau))
    assert lhs.coeffs == {((1, 3, 4), (2,)): Fraction(1)}
    sh = t_shuffle(1, T, tau)
    acc = None
    for I in combinations(range(1, n + 1), 1):
        term = tensor_product(clifford(I, False, sh), clifford(I, True, tau))
        acc = term if acc is None else acc + term
    rhs = {((1, 2, 3), (4,)): Fraction(1), ((1, 2, 4), (3,)): Fraction(-1)}
    assert acc.coeffs == rhs
    assert lhs != acc and lhs != acc.scale(-1)


# ---------------------------------------------------------------------------
# operators from symmetric polynomials


def test_sym_operator_examples():
    from grfock.symfunc import SymPoly, e_poly

    for _ in range(10):
        n = rng.randint(2, 4)
        k = rng.randint(1, n)
        T = rnd_op(n, Fraction)
        tau = rnd_ext(n, k, Fraction)
        for d in range(0, k + 1):
            assert sym_operator_apply(e_poly(d, k), T, tau) == t_shuffle(d, T, tau)
        const = SymPoly(k, {(0,) * k: 1})
        assert sym_operator_apply(const, T, tau) == tau


def test_sym_operator_rejects_nonsymmetric():
    from grfock.symfunc import SymPoly

    n, k = 3, 2
    T = rnd_op(n, Fraction)
    tau = rnd_ext(n, k, Fraction)
    f = SymPoly(2, {(1, 0): 1})
    with pytest.raises(ValueError):
        sym_operator_apply(f, T, tau)
    with pytest.raises(ValueError):
        sym_operator_apply(SymPoly(3, {(0, 0, 0): 1}), T, tau)


def test_sym_operator_power_sum_vs_iterated():
    # p_1 = e_1: the operator is sh_1^T
    from grfock.symfunc import p_poly

    n, k = 4, 2
    T = rnd_op(n, Fraction)
    tau = rnd_ext(n, k, Fraction)
    assert sym_operator_apply(p_poly(1, k), T, tau) == t_shuffle(1, T, tau)


def test_ext_tensor_rejects_bad_keys_and_mixed_degrees():
    with pytest.raises(ValueError):
        ExtTensor(3, 2, {(1,): 1})
    with pytest.raises(ValueError):
        ExtTensor(3, 2, {(2, 1): 1})
    with pytest.raises(ValueError):
        ExtTensor(3, 2, {(1, 4): 1})
    with pytest.raises(ValueError):
        _basis_wedge(3, (1, 2)) + _basis_wedge(3, (1,))
    with pytest.raises(ValueError):
        _basis_wedge(3, (1, 2)) + _basis_wedge(4, (1, 2))


def test_two_tensor_rejects_bad_keys_and_mixed_degrees():
    with pytest.raises(ValueError):
        TwoTensor(3, (2, 1), {((1,), (2,)): 1})
    u = tensor_product(_basis_wedge(3, (1, 2)), _basis_wedge(3, (3,)))
    with pytest.raises(ValueError):
        u + tensor_product(_basis_wedge(3, (1,)), _basis_wedge(3, (2, 3)))
    with pytest.raises(ValueError):
        u + tensor_product(_basis_wedge(4, (1, 2)), _basis_wedge(4, (3,)))


def test_tensor_product_rejects_mixed_dimensions_and_rings():
    with pytest.raises(ValueError):
        tensor_product(_basis_wedge(3, (1,)), _basis_wedge(4, (1,)))
    with pytest.raises(TypeError):
        tensor_product(_basis_wedge(3, (1,), f5), _basis_wedge(3, (1,), Fraction))
    # an int coefficient lifts into F_5
    lifted = tensor_product(_basis_wedge(3, (1,)), _basis_wedge(3, (2,), f5))
    assert lifted == TwoTensor(3, (1, 1), {((1,), (2,)): Fp(1, 5)})


@pytest.mark.parametrize("call, error, match", [
    (lambda: epsilon_d((1, 2), (3,), 2), ValueError, "K must be a subset of J"),
    (lambda: epsilon_d((1, 2, 3), (1, 2), 1), ValueError, r"need \|I\| = d >= \|K\|"),
    (lambda: sym_operator_apply(1, ((1, 0), (0, 1)), ExtTensor(2, 1, {(1,): 1})),
     TypeError, "need a SymPoly"),
], ids=["epsilon-K-outside-J", "epsilon-d-below-K", "sym-operator-of-an-int"])
def test_bad_input_raises(call, error, match):
    with pytest.raises(error, match=match):
        call()
