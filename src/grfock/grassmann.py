"""Pluecker generators, degree-2 ideal comparison against the KP two-tensors,
invariant-subspace schemes at the level of generators and finite-field points,
and tangent-space probes.

Finite-field point enumeration works with plain ints reduced mod p for speed;
everything signed goes through the exterior-algebra Clifford compositions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .exact import Ring, ZZ, GF, lattice_basis, lattice_equal, minors
from .exterior import (
    ExtTensor,
    ext_word_on_key,
    subset_word,
    sort_with_sign,
    t_shuffle,
    wedge_image,
)


DEFAULT_POINT_BUDGET = 500_000


class BudgetError(RuntimeError):
    """Enumeration would exceed the configured budget."""


def gaussian_binomial(n: int, k: int, q: int) -> int:
    if q < 2:
        raise ValueError(f"need q >= 2, got {q}")
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    quotient, remainder = divmod(num, den)
    if remainder:
        raise ArithmeticError(f"[{n} choose {k}]_{q} is not an integer")
    return quotient


# ---------------------------------------------------------------------------
# subspaces over F_p as reduced-echelon row tuples


@dataclass(frozen=True)
class SubspaceBasis:
    """Reduced row echelon basis of a k-plane in F_p^n."""

    p: int
    n: int
    rows: tuple  # k row tuples of ints in [0, p)

    @property
    def k(self) -> int:
        return len(self.rows)

    def pivots(self) -> tuple:
        out = []
        for row in self.rows:
            out.append(next(j for j, x in enumerate(row) if x))
        return tuple(out)

    def reduce(self, vec) -> tuple:
        """Residual of vec after subtracting the unique row combination."""
        v = list(vec)
        for row, piv in zip(self.rows, self.pivots()):
            c = v[piv] % self.p
            if c:
                v = [(x - c * y) % self.p for x, y in zip(v, row)]
        return tuple(x % self.p for x in v)

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))


def enumerate_points(p: int, n: int, k: int, max_points: int = DEFAULT_POINT_BUDGET):
    """Every k-plane in F_p^n exactly once, canonical reduced-echelon order."""
    from .exact import _is_prime

    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    count = gaussian_binomial(n, k, p)
    if count > max_points:
        raise BudgetError(f"Gr({k},{n})(F_{p}) has {count} points, budget {max_points}")
    if k == 0:
        yield SubspaceBasis(p, n, ())
        return
    for pivots in combinations(range(n), k):
        free = []
        for i in range(k):
            for j in range(pivots[i] + 1, n):
                if j not in pivots:
                    free.append((i, j))
        for values in product(range(p), repeat=len(free)):
            rows = [[0] * n for _ in range(k)]
            for i, piv in enumerate(pivots):
                rows[i][piv] = 1
            for (i, j), v in zip(free, values):
                rows[i][j] = v
            yield SubspaceBasis(p, n, tuple(tuple(r) for r in rows))


# ---------------------------------------------------------------------------
# Pluecker vectors


def wedge_of_rows(rows, n: int, ring: Ring = ZZ) -> ExtTensor:
    """row_1 ^ ... ^ row_k as an ExtTensor; coefficients are the k x k minors."""
    coeffs = {tuple(c + 1 for c in cols): m for cols, m in minors(rows, ring.one).items()}
    return ExtTensor(n, len(rows), coeffs, ring)


def plucker_vector(basis: SubspaceBasis) -> dict:
    """Minor table {k-subset of 1..n -> int in [0,p)} of an echelon basis.

    The minors are taken over Z and reduced mod p after the pass.
    """
    p = basis.p
    return {tuple(c + 1 for c in cols): m % p
            for cols, m in minors(basis.rows).items() if m % p}


# ---------------------------------------------------------------------------
# Pluecker relation generators (exact, over Z)


def plucker_quadrics(k: int, n: int) -> list:
    """All P_{alpha,beta,d} as dicts over unordered pairs of k-subsets."""
    out = []
    subsets = list(combinations(range(1, n + 1), k))
    for alpha in subsets:
        for beta in subsets:
            for d in range(1, k + 1):
                q = _plucker_quadric(alpha, beta, d, symmetric=True)
                if q:
                    out.append(q)
    return out


def incidence_quadrics(k: int, l: int, n: int) -> list:
    """All P_{alpha (x) beta, d} as dicts over ordered pairs (k-subset, l-subset)."""
    if not (n >= k >= l >= 0):
        raise ValueError("need n >= k >= l >= 0")
    out = []
    for alpha in combinations(range(1, n + 1), k):
        for beta in combinations(range(1, n + 1), l):
            for d in range(1, l + 1):
                q = _plucker_quadric(alpha, beta, d, symmetric=False)
                if q:
                    out.append(q)
    return out


def _plucker_quadric(alpha: tuple, beta: tuple, d: int, symmetric: bool) -> dict:
    """X_alpha X_beta minus the d-fold exchange sum, with wedge-reordering signs."""
    k, l = len(alpha), len(beta)
    out: dict = {}

    def accumulate(A_seq, B_seq, coeff):
        ra = sort_with_sign(A_seq)
        rb = sort_with_sign(B_seq)
        if ra is None or rb is None:
            return
        sa, A = ra
        sb, B = rb
        key = (A, B) if (not symmetric or A <= B) else (B, A)
        out[key] = out.get(key, 0) + coeff * sa * sb
        if not out[key]:
            del out[key]

    accumulate(alpha, beta, 1)
    for positions in combinations(range(k), d):
        first = list(alpha)
        for j, t in enumerate(positions):
            first[t] = beta[j]
        second = [alpha[t] for t in positions] + list(beta[d:])
        accumulate(tuple(first), tuple(second), -1)
    return out


# ---------------------------------------------------------------------------
# degree-2 functionals of the KP two-tensors


def omega_functional(C: tuple, D: tuple, d: int, n: int, T=None) -> dict:
    """(e*_C (x) e*_D) composed with Omega_d (or Omega_d^T), over ordered pairs.

    Coefficient of X_A (x) X_B is <e*_C, (T)e_I ^ e_A> <e*_D, psi*_I e_B>
    summed over d-subsets I.
    """
    out: dict = {}
    for I in combinations(range(1, n + 1), d):
        if set(I) & set(D):
            continue
        B = tuple(sorted(I + D))
        res = ext_word_on_key(subset_word(I, True), B)
        assert res is not None and res[1] == D
        sign_r = res[0]
        targets = {I: 1} if T is None else wedge_image(T, I)
        for J, weight in targets.items():
            if not set(J) <= set(C):
                continue
            A = tuple(sorted(set(C) - set(J)))
            res2 = ext_word_on_key(subset_word(J, False), A)
            if res2 is None or res2[1] != C:
                continue
            sign_l = res2[0]
            key = (A, B)
            out[key] = out.get(key, 0) + weight * sign_l * sign_r
            if not out[key]:
                del out[key]
    return out


def _symmetrize(ordered: dict) -> dict:
    out: dict = {}
    for (A, B), c in ordered.items():
        key = (A, B) if A <= B else (B, A)
        out[key] = out.get(key, 0) + c
        if not out[key]:
            del out[key]
    return out


def omega_quadric_functionals(k: int, n: int, T=None, dmin: int = 1) -> list:
    """All lambda . omega_d (or omega_d^T) as dicts over unordered pairs."""
    out = []
    for d in range(dmin, min(k, n - k) + 1):
        for C in combinations(range(1, n + 1), k + d):
            for D in combinations(range(1, n + 1), k - d):
                q = _symmetrize(omega_functional(C, D, d, n, T))
                if q:
                    out.append(q)
    return out


def omega_bihom_functionals(k: int, l: int, n: int) -> list:
    """All (kappa (x) lambda) . Omega_d as dicts over ordered pairs."""
    out = []
    for d in range(1, l + 1):
        if k + d > n:
            break
        for C in combinations(range(1, n + 1), k + d):
            for D in combinations(range(1, n + 1), l - d):
                q = omega_functional(C, D, d, n)
                if q:
                    out.append(q)
    return out


def grassmann_pair_index(k: int, n: int) -> list:
    keys = list(combinations(range(1, n + 1), k))
    return [(a, b) for i, a in enumerate(keys) for b in keys[i:]]


def incidence_pair_index(k: int, l: int, n: int) -> list:
    return [(a, b) for a in combinations(range(1, n + 1), k) for b in combinations(range(1, n + 1), l)]


def vectors_over(index: list, dicts: list) -> list:
    pos = {key: i for i, key in enumerate(index)}
    out = []
    for d in dicts:
        v = [0] * len(index)
        for key, c in d.items():
            v[pos[key]] = c
        out.append(tuple(v))
    return out


def degree2_ideal_equal(k: int, n: int) -> tuple[bool, int, int]:
    """(Pluecker lattice == KP-two-tensor lattice, Pluecker rank, KP rank) inside
    the degree-2 coordinates, from one Hermite normal form per side."""
    index = grassmann_pair_index(k, n)
    pl = lattice_basis(vectors_over(index, plucker_quadrics(k, n)), len(index))
    om = lattice_basis(vectors_over(index, omega_quadric_functionals(k, n)), len(index))
    return pl == om, len(pl), len(om)


def incidence_degree2_ideal_equal(k: int, l: int, n: int) -> bool:
    index = incidence_pair_index(k, l, n)
    pl = vectors_over(index, incidence_quadrics(k, l, n))
    om = vectors_over(index, omega_bihom_functionals(k, l, n))
    return lattice_equal(pl, om) if index else True


# ---------------------------------------------------------------------------
# integer operators, nilpotency, the invariant-subspace generators


def jordan_matrix(blocks, n: int | None = None) -> tuple:
    """Nilpotent lowering operator with the given Jordan block sizes (T e_1 = 0)."""
    total = sum(blocks)
    if n is None:
        n = total
    if total != n:
        raise ValueError(f"Jordan blocks {tuple(blocks)} do not sum to {n}")
    rows = [[0] * n for _ in range(n)]
    start = 0
    for b in blocks:
        for i in range(1, b):
            rows[start + i - 1][start + i] = 1
        start += b
    return tuple(tuple(r) for r in rows)


def int_matmul(A, B) -> tuple:
    n = len(A)
    return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)) for i in range(n))


def is_nilpotent(T) -> bool:
    n = len(T)
    M = T
    for _ in range(n):
        if all(all(x == 0 for x in row) for row in M):
            return True
        M = int_matmul(M, T)
    return all(all(x == 0 for x in row) for row in M)


def gt_generators(T, k: int) -> tuple[list, list]:
    """Degree-2 vectors of the omega^T functionals plus the Pluecker lattice.

    Only nilpotent T is accepted here (the invertible variant is the primed
    scheme; its equations use omega^T directly without the I+T detour).
    """
    n = len(T)
    if not is_nilpotent(T):
        raise ValueError("gt_generators needs a nilpotent operator")
    index = grassmann_pair_index(k, n)
    shuffle_vecs = vectors_over(index, omega_quadric_functionals(k, n, T=T))
    plucker_vecs = vectors_over(index, plucker_quadrics(k, n))
    return shuffle_vecs, plucker_vecs


# ---------------------------------------------------------------------------
# field points of G^T and S^T


def _operator_modp(T, p: int) -> tuple:
    return tuple(tuple(x % p for x in row) for row in T)


def apply_modp(T, vec, p: int) -> tuple:
    n = len(vec)
    return tuple(sum(T[i][j] * vec[j] for j in range(n)) % p for i in range(n))


def is_invariant(basis: SubspaceBasis, T) -> bool:
    Tp = _operator_modp(T, basis.p)
    return all(not any(basis.reduce(apply_modp(Tp, row, basis.p))) for row in basis.rows)


def shuffle_matrices_modp(T, k: int, p: int) -> list:
    """Matrices of sh_d^T on the k-th wedge over F_p, d = 1..k, as column dicts."""
    n = len(T)
    ring = GF(p)
    Tring = tuple(tuple(ring.from_int(x) for x in row) for row in T)
    keys = list(combinations(range(1, n + 1), k))
    mats = []
    for d in range(1, k + 1):
        cols = {}
        for key in keys:
            tau = ExtTensor(n, k, {key: ring.one}, ring)
            img = t_shuffle(d, Tring, tau)
            cols[key] = {key2: c.value for key2, c in img.coeffs.items()}
        mats.append(cols)
    return mats


def _st_member(plucker: dict, sh_mats: list, p: int) -> bool:
    for cols in sh_mats:
        acc: dict = {}
        for B, v in plucker.items():
            for A, c in cols[B].items():
                acc[A] = (acc.get(A, 0) + c * v) % p
        if any(acc.values()):
            return False
    return True


def gt_points(T, k: int, p: int, max_points: int = DEFAULT_POINT_BUDGET) -> list:
    return [U for U in enumerate_points(p, len(T), k, max_points) if is_invariant(U, T)]


def fpoints_row(T, k: int, p: int, max_points: int = DEFAULT_POINT_BUDGET) -> dict:
    """One report row: counts of Gr, G^T, S^T points and whether the sets agree."""
    n = len(T)
    sh = shuffle_matrices_modp(T, k, p)
    total = gt = st = 0
    same = True
    for U in enumerate_points(p, n, k, max_points):
        total += 1
        g = is_invariant(U, T)
        s = _st_member(plucker_vector(U), sh, p)
        gt += g
        st += s
        if g != s:
            same = False
    return {"p": p, "n": n, "k": k, "gr": total, "gt": gt, "st": st, "equal": same}


# ---------------------------------------------------------------------------
# tangent spaces of G^T at a field point


def tangent_dim_gt(U: SubspaceBasis, T) -> int:
    """dim of {phi: U -> V/U | Tbar . phi = phi . T|_U} over F_p.

    This is the kernel of the linearization of the invariance condition at U;
    U must itself be T-invariant.
    """
    p, n, k = U.p, U.n, U.k
    Tp = _operator_modp(T, p)
    pivots = U.pivots()
    nonpivots = [j for j in range(n) if j not in pivots]
    q = n - k
    if k == 0 or q == 0:
        return 0

    def reduce_with_coeffs(vec):
        v = list(vec)
        coeffs = []
        for row, piv in zip(U.rows, pivots):
            c = v[piv] % p
            coeffs.append(c)
            if c:
                v = [(x - c * y) % p for x, y in zip(v, row)]
        return coeffs, tuple(v[j] % p for j in nonpivots)

    A = []
    for row in U.rows:
        coeffs, resid = reduce_with_coeffs(apply_modp(Tp, row, p))
        if any(resid):
            raise ValueError("subspace is not T-invariant")
        A.append(coeffs)
    Tbar = []  # q x q, columns indexed by nonpivot basis vectors
    for j in nonpivots:
        e = [0] * n
        e[j] = 1
        _, resid = reduce_with_coeffs(apply_modp(Tp, e, p))
        Tbar.append(resid)
    # unknowns phi[i][a]; equations Tbar . phi_i - sum_j A[i][j] phi_j = 0
    rows = []
    for i in range(k):
        for b in range(q):
            row = [0] * (k * q)
            for a in range(q):
                row[i * q + a] = (row[i * q + a] + Tbar[a][b]) % p
            for j in range(k):
                row[j * q + b] = (row[j * q + b] - A[i][j]) % p
            rows.append(row)
    rank = _rank_modp(rows, p)
    return k * q - rank


def _rank_modp(rows, p: int) -> int:
    m = [list(r) for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(m)) if m[r][col] % p), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        for r in range(len(m)):
            if r != rank and m[r][col] % p:
                f = m[r][col] * inv % p
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank
