"""Finite-dimensional exterior algebra over an exact scalar ring: Clifford
operators, the sign bookkeeping of the commutation lemmas, KP two-tensors and
their T-deformations, and T-shuffle operators.

Basis indices are 1..n.  All signed operations are compositions of the two
generator actions on sorted index tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product

from .exact import Ring, ZZ, minors


# ---------------------------------------------------------------------------
# sign functions


def sign_R_minus_one(R) -> int:
    """(-1)^(r_1 - 1) ... (-1)^(r_d - 1) for a set of positions."""
    return -1 if sum(r - 1 for r in R) % 2 else 1


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


def epsilon_d(J, K, d: int, universe=None) -> int:
    """sgn(J,I,K) * sgn(K,I) for any I containing K with |I| = d.

    Independence of the auxiliary I is checked by evaluating on two choices;
    ArithmeticError if they differ.
    """
    J, K = set(J), set(K)
    if not K <= J:
        raise ValueError("K must be a subset of J")
    if d < len(K):
        raise ValueError("need |I| = d >= |K|")
    if universe is None:
        universe = range(1, max(J | K | {1}) + d + 2)
    fillers = [x for x in universe if x not in K]
    need = d - len(K)
    if len(fillers) < need + 1:
        raise ValueError("universe too small to probe independence")
    values = set()
    for pick in (fillers[:need], fillers[1 : need + 1]):
        I = K | set(pick)
        values.add(sgn_IJK(J, I, K) * sgn_KJ(K, I))
    if len(values) != 1:
        raise ArithmeticError("epsilon depends on the auxiliary set")
    return values.pop()


def sort_with_sign(seq) -> tuple[int, tuple] | None:
    """Sort a sequence of indices, returning (sign, sorted tuple); None on repeats."""
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


# ---------------------------------------------------------------------------
# tensors


@dataclass
class ExtTensor:
    """Element of the k-th exterior power of an n-dimensional space."""

    n: int
    k: int
    coeffs: dict = field(default_factory=dict)  # sorted k-tuple of 1..n -> scalar
    ring: Ring = ZZ

    def __post_init__(self):
        clean = {}
        for key, c in self.coeffs.items():
            assert len(key) == self.k and all(1 <= i <= self.n for i in key)
            assert tuple(sorted(key)) == tuple(key)
            if not self.ring.is_zero(c):
                clean[key] = c
        self.coeffs = clean

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "ExtTensor") -> "ExtTensor":
        assert (self.n, self.k) == (other.n, other.k)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out[key] + c if key in out else c
        return ExtTensor(self.n, self.k, out, self.ring)

    def __sub__(self, other: "ExtTensor") -> "ExtTensor":
        return self + other.scale(self.ring.from_int(-1))

    def scale(self, c) -> "ExtTensor":
        return ExtTensor(self.n, self.k, {key: c * v for key, v in self.coeffs.items()}, self.ring)

    def __eq__(self, other):
        return (
            isinstance(other, ExtTensor)
            and (self.n, self.k) == (other.n, other.k)
            and self.coeffs == other.coeffs
        )


def basis_wedge(n: int, key, ring: Ring = ZZ) -> ExtTensor:
    key = tuple(sorted(key))
    return ExtTensor(n, len(key), {key: ring.one}, ring)


@dataclass
class TwoTensor:
    """Element of (k-th wedge) tensor (l-th wedge) of one n-dimensional space."""

    n: int
    degrees: tuple  # (k, l)
    coeffs: dict = field(default_factory=dict)  # (k-key, l-key) -> scalar
    ring: Ring = ZZ

    def __post_init__(self):
        k, l = self.degrees
        clean = {}
        for (a, b), c in self.coeffs.items():
            assert len(a) == k and len(b) == l
            if not self.ring.is_zero(c):
                clean[(a, b)] = c
        self.coeffs = clean

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "TwoTensor") -> "TwoTensor":
        assert self.degrees == other.degrees and self.n == other.n
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out[key] + c if key in out else c
        return TwoTensor(self.n, self.degrees, out, self.ring)

    def __sub__(self, other: "TwoTensor") -> "TwoTensor":
        return self + other.scale(self.ring.from_int(-1))

    def scale(self, c) -> "TwoTensor":
        return TwoTensor(self.n, self.degrees, {key: c * v for key, v in self.coeffs.items()}, self.ring)

    def __eq__(self, other):
        return (
            isinstance(other, TwoTensor)
            and self.n == other.n
            and self.degrees == other.degrees
            and self.coeffs == other.coeffs
        )


def tensor_product(u: ExtTensor, v: ExtTensor) -> TwoTensor:
    assert u.n == v.n and u.ring is v.ring
    out = {}
    for a, ca in u.coeffs.items():
        for b, cb in v.coeffs.items():
            out[(a, b)] = ca * cb
    return TwoTensor(u.n, (u.k, v.k), out, u.ring)


# ---------------------------------------------------------------------------
# Clifford generators on keys


def ext_psi_key(i: int, key) -> tuple[int, tuple] | None:
    if i in key:
        return None
    below = sum(1 for a in key if a < i)
    sign = -1 if below % 2 else 1
    return sign, tuple(sorted(key + (i,)))


def ext_psi_star_key(i: int, key) -> tuple[int, tuple] | None:
    if i not in key:
        return None
    pos = key.index(i)  # 0-based; sign is (-1)^pos
    sign = -1 if pos % 2 else 1
    return sign, key[:pos] + key[pos + 1 :]


def ext_word_on_key(word, key) -> tuple[int, tuple] | None:
    """Apply a product of (index, star) generators, rightmost factor first."""
    sign = 1
    for index, star in reversed(word):
        res = ext_psi_star_key(index, key) if star else ext_psi_key(index, key)
        if res is None:
            return None
        s, key = res
        sign *= s
    return sign, key


def subset_word(I, star: bool):
    """psi_I = psi_{i_1} ... psi_{i_r} for increasing I (or the starred version)."""
    return tuple((i, star) for i in sorted(I))


def clifford(I, star: bool, v: ExtTensor) -> ExtTensor:
    """Apply psi_I or psi*_I to a tensor."""
    word = subset_word(I, star)
    shift = -len(tuple(I)) if star else len(tuple(I))
    out: dict = {}
    for key, c in v.coeffs.items():
        res = ext_word_on_key(word, key)
        if res is None:
            continue
        sign, key2 = res
        val = c * sign
        out[key2] = out[key2] + val if key2 in out else val
    return ExtTensor(v.n, v.k + shift, out, v.ring)


# ---------------------------------------------------------------------------
# linear operators


def operator(rows, ring: Ring = ZZ) -> tuple:
    """An n x n operator as a tuple of row tuples; T e_j = sum_i rows[i][j] e_i."""
    return tuple(tuple(ring.from_int(x) if isinstance(x, int) else x for x in row) for row in rows)

def zero_operator(n: int, ring: Ring = ZZ) -> tuple:
    return tuple(tuple(ring.zero for _ in range(n)) for _ in range(n))


def identity_operator(n: int, ring: Ring = ZZ) -> tuple:
    return tuple(tuple(ring.one if i == j else ring.zero for j in range(n)) for i in range(n))


def add_operators(S, T, ring: Ring = ZZ) -> tuple:
    return tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(S, T))


def compose_operators(S, T, ring: Ring = ZZ) -> tuple:
    n = len(S)
    return tuple(
        tuple(sum((S[i][k] * T[k][j] for k in range(n)), ring.zero) for j in range(n))
        for i in range(n)
    )


def wedge_image(T, J, ring: Ring = ZZ) -> dict:
    """T e_J = sum_I det(T[I, J]) e_I, as {sorted 1-based index tuple I: nonzero det}.

    One minor pass over the columns of T at J, read as rows (a determinant
    does not change under transposition).
    """
    columns = [[row[j - 1] for row in T] for j in J]
    return {tuple(i + 1 for i in I): m for I, m in minors(columns, ring.one).items()}


def wedge_apply(T, v: ExtTensor) -> ExtTensor:
    """Apply T to every wedge factor: the k-th exterior power of T."""
    out: dict = {}
    for key, c in v.coeffs.items():
        for target, m in wedge_image(T, key, v.ring).items():
            val = c * m
            out[target] = out[target] + val if target in out else val
    return ExtTensor(v.n, v.k, out, v.ring)


# ---------------------------------------------------------------------------
# KP two-tensors


def omega_apply(d: int, tt: TwoTensor) -> TwoTensor:
    """Omega_d = sum over d-subsets I of psi_I (x) psi*_I on a two-tensor."""
    k, l = tt.degrees
    out: dict = {}
    ring = tt.ring
    for (a, b), c in tt.coeffs.items():
        for I in combinations(b, d):
            right = ext_word_on_key(subset_word(I, True), b)
            left = ext_word_on_key(subset_word(I, False), a)
            if right is None or left is None:
                continue
            sl, a2 = left
            sr, b2 = right
            val = c * (sl * sr)
            out[(a2, b2)] = out[(a2, b2)] + val if (a2, b2) in out else val
    return TwoTensor(tt.n, (k + d, l - d), out, ring)


def omega(d: int, u: ExtTensor, v: ExtTensor) -> TwoTensor:
    return omega_apply(d, tensor_product(u, v))


def omega_diag(d: int, tau: ExtTensor) -> TwoTensor:
    """The quadratic two-tensor omega_d(tau) = Omega_d(tau (x) tau)."""
    return omega(d, tau, tau)


def omega_T_apply(d: int, T, tt: TwoTensor) -> TwoTensor:
    """Omega_d^T = sum over |I| = d of (T e_I) wedge (.) (x) psi*_I (.).

    Sign convention: none beyond the Clifford compositions, anchored by
    Omega_d^Identity = Omega_d and by the additivity lemma in T.
    """
    k, l = tt.degrees
    ring = tt.ring
    out: dict = {}
    for (a, b), c in tt.coeffs.items():
        for I in combinations(b, d):
            right = ext_word_on_key(subset_word(I, True), b)
            if right is None:
                continue
            sr, b2 = right
            for J, m in wedge_image(T, I, ring).items():
                left = ext_word_on_key(subset_word(J, False), a)
                if left is None:
                    continue
                sl, a2 = left
                val = c * m * (sl * sr)
                out[(a2, b2)] = out[(a2, b2)] + val if (a2, b2) in out else val
    return TwoTensor(tt.n, (k + d, l - d), out, ring)


def omega_T(d: int, T, u: ExtTensor, v: ExtTensor) -> TwoTensor:
    return omega_T_apply(d, T, tensor_product(u, v))


def omega_T_diag(d: int, T, tau: ExtTensor) -> TwoTensor:
    return omega_T(d, T, tau, tau)


def eta_T(d: int, T, tau: ExtTensor) -> TwoTensor:
    """eta_d^T(tau) = Omega_d(T tau (x) tau), with T applied to every factor."""
    return omega(d, wedge_apply(T, tau), tau)


# ---------------------------------------------------------------------------
# T-shuffle operators


def t_shuffle(d: int, T, tau: ExtTensor, check: bool = False) -> ExtTensor:
    """sh_d^T in the basis-free form sum_I e_I wedge iota_{T*(e*_I)}(.)

    The interior products compose in decreasing index order; that is the
    unique reading that agrees with the defining subset-replacement formula
    (and with the (I + tT) expansion).  With check=True the subset form is
    evaluated too and the two must agree exactly.
    """
    if d == 0:
        return tau
    if d > tau.k:
        return ExtTensor(tau.n, tau.k, {}, tau.ring)
    ring = tau.ring
    out: dict = {}
    for key, c in tau.coeffs.items():
        for J in combinations(key, d):
            # contraction word psi*_{j_d} ... psi*_{j_1}: smallest index first
            word = tuple((j, True) for j in sorted(J, reverse=True))
            res = ext_word_on_key(word, key)
            if res is None:
                continue
            sj, key2 = res
            for I, m in wedge_image(T, J, ring).items():
                left = ext_word_on_key(subset_word(I, False), key2)
                if left is None:
                    continue
                si, key3 = left
                val = c * m * (si * sj)
                out[key3] = out[key3] + val if key3 in out else val
    result = ExtTensor(tau.n, tau.k, out, ring)
    if check and result != t_shuffle_subset_form(d, T, tau):
        raise ArithmeticError("shuffle formulas disagree")
    return result


def t_shuffle_subset_form(d: int, T, tau: ExtTensor) -> ExtTensor:
    """sh_d^T by replacing the factors at each d-subset of slots with T-images."""
    if d == 0:
        return tau
    ring = tau.ring
    n = tau.n
    out: dict = {}
    for key, c in tau.coeffs.items():
        for R in combinations(range(len(key)), d):
            # factors: e_{key[r]} for r not in R, T e_{key[r]} for r in R
            columns = [[(ring.one, key[r])] if r not in R else
                       [(T[i - 1][key[r] - 1], i) for i in range(1, n + 1)
                        if not ring.is_zero(T[i - 1][key[r] - 1])]
                       for r in range(len(key))]
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
    return ExtTensor(tau.n, tau.k, out, ring)


def shuffle_generating_identity(T, tau: ExtTensor, t_scalar, ring: Ring) -> tuple:
    """Both sides of (I + tT)^wedge tau = tau + sum_d t^d sh_d^T(tau)."""
    n = tau.n
    one_plus = tuple(
        tuple((ring.one if i == j else ring.zero) + t_scalar * T[i][j] for j in range(n))
        for i in range(n)
    )
    lhs = wedge_apply(one_plus, tau)
    rhs = tau
    power = ring.one
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
    ring = tau.ring
    n = tau.n
    maxpow = max((max(exp) for exp in f.coeffs if exp), default=0)
    powers = [identity_operator(n, ring)]
    for _ in range(maxpow):
        powers.append(compose_operators(powers[-1], T, ring))
    out: dict = {}
    for exp, fc in f.coeffs.items():
        coeff_f = ring.from_int(fc) if isinstance(fc, int) else fc
        for key, c in tau.coeffs.items():
            columns = []
            for slot in range(tau.k):
                M = powers[exp[slot]]
                col = [(M[i - 1][key[slot] - 1], i) for i in range(1, n + 1)
                       if not ring.is_zero(M[i - 1][key[slot] - 1])]
                columns.append(col)
            for pick in product(*columns):
                coeff = c * coeff_f
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
    return ExtTensor(tau.n, tau.k, out, ring)
