"""Finite-dimensional exterior algebra over exact scalars: Clifford
operators, the sign bookkeeping of the commutation lemmas, KP two-tensors and
their T-deformations, and T-shuffle operators.

Basis indices are 1..n and keys are sorted index tuples.  Inside a signed
operation a key becomes the int with bit i set for each index i, and every
sign comes from ``fock._move``, the one Clifford kernel of the Fock space too.
``sgn_KJ``, ``sgn_IJK`` and ``epsilon_d`` are closed-form oracles that the
``signs`` suite checks the kernel against.

Paper claims that only tier-1 pins (tests/test_exterior.py): the generating
identity, ``shuffle_generating_identity`` (``test_generating_identity_random``);
Omega^T through the shuffles, ``omega_T_apply`` and ``eta_T``
(``test_omega_T_additivity_QQ_and_F5``, ``test_eta_T_by_omega_T_and_by_hand``);
the Frobenius-twist reading sh_d^T = e_d(T_1, ..., T_k), ``sym_operator_apply``
(``test_sym_operator_examples``).

The subset-replacement form of sh_d^T, the oracle that ``t_shuffle`` is
compared against, lives in tests/test_exterior.py; the wedge of the rows of a
matrix, which the exterior and the Grassmannian tests both build decomposable
tensors with, lives in tests/oracles.py.
"""

from __future__ import annotations

from itertools import combinations, product

from .exact import SparseVector, matmul, minors
from .fock import _move


# ---------------------------------------------------------------------------
# sign functions


def sgn_KJ(K, J) -> int:
    """(-1)^|L(K,J)| with L(K,J) = {(k,j) in K x J : j in J-K and k < j}."""
    K, J = set(K), set(J)
    count = sum(1 for k in K for j in J if j not in K and k < j)
    return -1 if count % 2 else 1


def sgn_IJK(I, J, K) -> int:
    """(-1)^|L(I,J,K)|, L(I,J,K) = I x J minus pairs i <= j with i or j in K."""
    Is, Js, Ks = set(I), set(J), set(K)
    if not Ks <= (Is & Js):
        raise ValueError("K must be contained in both I and J")
    count = sum(1 for i in Is for j in Js if not (i <= j and (i in Ks or j in Ks)))
    return -1 if count % 2 else 1


def epsilon_d(J, K, d: int) -> int:
    """sgn(J,I,K) * sgn(K,I) for any I containing K with |I| = d.

    Independence of the auxiliary I is checked by evaluating on two choices;
    ArithmeticError if they differ.
    """
    J, K = set(J), set(K)
    if not K <= J:
        raise ValueError("K must be a subset of J")
    if d < len(K):
        raise ValueError("need |I| = d >= |K|")
    fillers = [x for x in range(1, max(J | {1}) + d + 2) if x not in K]
    need = d - len(K)
    values = set()
    for pick in (fillers[:need], fillers[1 : need + 1]):
        I = K | set(pick)
        values.add(sgn_IJK(J, I, K) * sgn_KJ(K, I))
    if len(values) != 1:
        raise ArithmeticError("epsilon depends on the auxiliary set")
    return values.pop()


def _mask(key) -> int:
    mask = 0
    for i in key:
        mask |= 1 << i
    return mask


def _key(mask: int) -> tuple:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def sort_with_sign(seq) -> tuple[int, tuple] | None:
    """Sort a sequence of indices, returning (sign, sorted tuple); None on repeats.
    The wedge of the e_s is the psi_s applied to 1, last index first."""
    res = _move(0, (), reversed(seq))
    return None if res is None else (res[0], _key(res[1]))


# ---------------------------------------------------------------------------
# tensors


class ExtTensor(SparseVector):
    """Element of the k-th exterior power of an n-dimensional space."""

    _space_fields = ("n", "k")

    def __init__(self, n: int, k: int, coeffs: dict | None = None):
        clean = {}  # sorted k-tuple of 1..n -> scalar
        for key, c in (coeffs or {}).items():
            if len(key) != k or list(key) != sorted(key) or not all(0 < i <= n for i in key):
                raise ValueError(f"key {key} is not a sorted {k}-tuple from 1..{n}")
            if c:
                clean[key] = c
        self.n, self.k, self.coeffs = n, k, clean


class TwoTensor(SparseVector):
    """Element of (k-th wedge) tensor (l-th wedge) of one n-dimensional space."""

    _space_fields = ("n", "degrees")

    def __init__(self, n: int, degrees: tuple, coeffs: dict | None = None):
        k, l = degrees
        clean = {}  # (k-key, l-key) -> scalar
        for (a, b), c in (coeffs or {}).items():
            if len(a) != k or len(b) != l:
                raise ValueError(f"key {(a, b)} does not have degrees {(k, l)}")
            if c:
                clean[(a, b)] = c
        self.n, self.degrees, self.coeffs = n, degrees, clean


def _pair_keys(out: dict) -> dict:
    """{(mask, mask): c} as {(key, key): c}, in the same order."""
    return {(_key(a), _key(b)): c for (a, b), c in out.items()}


def tensor_product(u: ExtTensor, v: ExtTensor) -> TwoTensor:
    if u.n != v.n:
        raise ValueError(f"tensor of vectors in dimensions {u.n} and {v.n}")
    out = {}
    for a, ca in u.coeffs.items():
        for b, cb in v.coeffs.items():
            out[(a, b)] = ca * cb
    return TwoTensor(u.n, (u.k, v.k), out)


# ---------------------------------------------------------------------------
# Clifford generators on keys


def ext_word_on_key(word, key) -> tuple[int, tuple] | None:
    """Apply a product of (index, star) generators, rightmost factor first."""
    mask, sign = _mask(key), 1
    for index, star in reversed(word):
        res = _move(mask, (index,), ()) if star else _move(mask, (), (index,))
        if res is None:
            return None
        s, mask = res
        sign *= s
    return sign, _key(mask)


def clifford(I, star: bool, v: ExtTensor) -> ExtTensor:
    """Apply psi_I or psi*_I to a tensor: psi_I = psi_{i_1} ... psi_{i_r} for
    increasing I (likewise starred), so the largest index acts first."""
    down = sorted(I, reverse=True)
    sources, targets = (down, ()) if star else ((), down)
    out: dict = {}
    for key, c in v.coeffs.items():
        res = _move(_mask(key), sources, targets)
        if res is None:
            continue
        sign, mask = res
        val = c * sign
        out[mask] = out[mask] + val if mask in out else val
    shift = -len(down) if star else len(down)
    return ExtTensor(v.n, v.k + shift, {_key(m): c for m, c in out.items()})


# ---------------------------------------------------------------------------
# linear operators


def identity_operator(n: int) -> tuple:
    """The n x n identity as a tuple of row tuples; an operator T is one with
    T e_j = sum_i T[i][j] e_i."""
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def wedge_image(T, J) -> dict:
    """T e_J = sum_I det(T[I, J]) e_I, as {sorted 1-based index tuple I: nonzero det}.

    One minor pass over the columns of T at J, read as rows (a determinant
    does not change under transposition).
    """
    columns = [[row[j - 1] for row in T] for j in J]
    return {tuple(i + 1 for i in I): m for I, m in minors(columns).items()}


def wedge_apply(T, v: ExtTensor) -> ExtTensor:
    """Apply T to every wedge factor: the k-th exterior power of T."""
    out: dict = {}
    for key, c in v.coeffs.items():
        for target, m in wedge_image(T, key).items():
            val = c * m
            out[target] = out[target] + val if target in out else val
    return ExtTensor(v.n, v.k, out)


# ---------------------------------------------------------------------------
# KP two-tensors


def omega_apply(d: int, tt: TwoTensor) -> TwoTensor:
    """Omega_d = sum over d-subsets I of psi_I (x) psi*_I on a two-tensor."""
    k, l = tt.degrees
    out: dict = {}
    for (a, b), c in tt.coeffs.items():
        am, bm = _mask(a), _mask(b)
        for I in combinations(b, d):
            down = I[::-1]
            left = _move(am, (), down)
            if left is None:
                continue
            sl, a2 = left
            sr, b2 = _move(bm, down, ())
            val = c * (sl * sr)
            out[(a2, b2)] = out[(a2, b2)] + val if (a2, b2) in out else val
    return TwoTensor(tt.n, (k + d, l - d), _pair_keys(out))


def omega_T_apply(d: int, T, tt: TwoTensor) -> TwoTensor:
    """Omega_d^T = sum over |I| = d of (T e_I) wedge (.) (x) psi*_I (.).

    Sign convention: none beyond the Clifford compositions, anchored by
    Omega_d^Identity = Omega_d and by the additivity lemma in T.
    """
    k, l = tt.degrees
    out: dict = {}
    for (a, b), c in tt.coeffs.items():
        am, bm = _mask(a), _mask(b)
        for I in combinations(b, d):
            sr, b2 = _move(bm, I[::-1], ())
            for J, m in wedge_image(T, I).items():
                left = _move(am, (), J[::-1])
                if left is None:
                    continue
                sl, a2 = left
                val = c * m * (sl * sr)
                out[(a2, b2)] = out[(a2, b2)] + val if (a2, b2) in out else val
    return TwoTensor(tt.n, (k + d, l - d), _pair_keys(out))


def eta_T(d: int, T, tau: ExtTensor) -> TwoTensor:
    """eta_d^T(tau) = Omega_d(T tau (x) tau), with T applied to every factor."""
    return omega_apply(d, tensor_product(wedge_apply(T, tau), tau))


# ---------------------------------------------------------------------------
# T-shuffle operators


def t_shuffle(d: int, T, tau: ExtTensor) -> ExtTensor:
    """sh_d^T in the basis-free form sum_I e_I wedge iota_{T*(e*_I)}(.)

    The interior products compose in decreasing index order, so the smallest
    j is contracted first; that is the unique reading that agrees with the
    defining subset-replacement formula (the oracle in tests/test_exterior.py)
    and with the (I + tT) expansion.
    """
    if d == 0:
        return tau
    if d > tau.k:
        return ExtTensor(tau.n, tau.k)
    out: dict = {}
    for key, c in tau.coeffs.items():
        mask = _mask(key)
        for J in combinations(key, d):
            for I, m in wedge_image(T, J).items():
                res = _move(mask, J, I[::-1])
                if res is None:
                    continue
                sign, mask2 = res
                val = c * m * sign
                out[mask2] = out[mask2] + val if mask2 in out else val
    return ExtTensor(tau.n, tau.k, {_key(m): c for m, c in out.items()})


def t_shuffle_matrices(T, k: int) -> list:
    """Matrices of sh_d^T on the k-th wedge over Z, d = 1..k, as column dicts
    {key: {key2: nonzero int}}; every entry is an integer polynomial in the
    entries of T, so reducing it mod p gives the matrix over F_p."""
    n = len(T)
    keys = list(combinations(range(1, n + 1), k))
    return [{key: t_shuffle(d, T, ExtTensor(n, k, {key: 1})).coeffs for key in keys}
            for d in range(1, k + 1)]


def _accumulate_slot_products(out: dict, c, columns: list) -> None:
    """Add c times the wedge of one (coefficient, index) pick per slot to out,
    for every pick from the per-slot column lists."""
    for pick in product(*columns):
        coeff = c
        letters = []
        for val, idx in pick:
            coeff = coeff * val
            letters.append(idx)
        res = sort_with_sign(letters)
        if res is None:
            continue
        sign, skey = res
        val = coeff * sign
        out[skey] = out[skey] + val if skey in out else val


def shuffle_generating_identity(T, tau: ExtTensor, t_scalar) -> tuple:
    """Both sides of (I + tT)^wedge tau = tau + sum_d t^d sh_d^T(tau)."""
    n = tau.n
    one_plus = tuple(tuple(int(i == j) + t_scalar * T[i][j] for j in range(n)) for i in range(n))
    lhs = wedge_apply(one_plus, tau)
    rhs = tau
    power = 1
    for d in range(1, tau.k + 1):
        power = power * t_scalar
        rhs = rhs + t_shuffle(d, T, tau).scale(power)
    return lhs, rhs


# ---------------------------------------------------------------------------
# operators from symmetric polynomials in k variables


def sym_operator_apply(f, T, tau: ExtTensor) -> ExtTensor:
    """Descend f(T_1, ..., T_k) from the tensor power to the k-th wedge.

    f must be symmetric in exactly k = tau.k variables; each monomial acts on a
    pure tensor slotwise and the result is projected back to the wedge.
    """
    from .symfunc import SymPoly, is_symmetric

    if not isinstance(f, SymPoly):
        raise TypeError("need a SymPoly")
    if f.nvars != tau.k:
        raise ValueError(f"need a symmetric polynomial in exactly {tau.k} variables")
    if not is_symmetric(f):
        raise ValueError("polynomial is not symmetric")
    n = tau.n
    maxpow = max((max(exp) for exp in f.coeffs if exp), default=0)
    powers = [identity_operator(n)]
    for _ in range(maxpow):
        powers.append(matmul(powers[-1], T))
    out: dict = {}
    for exp, fc in f.coeffs.items():
        for key, c in tau.coeffs.items():
            columns = []
            for slot in range(tau.k):
                M = powers[exp[slot]]
                col = [(M[i - 1][key[slot] - 1], i) for i in range(1, n + 1)
                       if M[i - 1][key[slot] - 1]]
                columns.append(col)
            _accumulate_slot_products(out, c * fc, columns)
    return ExtTensor(tau.n, tau.k, out)
