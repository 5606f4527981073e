"""Symmetric functions as honest symmetric polynomials in a stable range of
variables (``SymPoly``), plus the charge statistic, Kostka-Foulkes polynomials
from Jing's vertex operator (Pieri steps only, no tableaux) in Z[t] or, for the
kf check, in Z[zeta_n] (``_residues``), Hall-Littlewood transition matrices, the
block-Toeplitz determinant coefficients (a truncated series ``_HSeries``) and
Frobenius twists, both expressed in the h-generators (``HPoly``).  The three
polynomial types take their sum, difference, negation, scaling, equality and
truth from ``exact.SparseVector`` and define only their product.

A paper claim that only tier-1 pins (tests/test_symfunc.py): the Frobenius-twist
reading of the shuffles, through ``SymPoly``, ``schur_expand``
(``test_schur_expand_jacobi_trudi_consistency``) and ``frobenius_twist``
(``test_frobenius_twist_examples``).

The oracles live in tests/test_symfunc.py: the cell-by-cell tableau filler and
the scanning charge that ``charge`` and ``kostka_foulkes`` are checked against,
and the minors of the Toeplitz matrix (h_{j-i}) on the beads of a diagram with
the Jacobi-Trudi determinant they equal, both at given values of the h_i.  The
charged strip pass over tableaux, an independent derivation of K, is in
tests/oracles.py.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import permutations, product, zip_longest
from math import factorial
from operator import lt

from . import Record
from .exact import SparseVector, _dot, _trim, det, invert_unitriangular
from .exact import cyclotomic_polynomial, divmod_monic
from .partitions import (
    Partition, check_partition, is_n_regular, multiplicities, partitions_of, transpose,
)


class DegreeOverflowError(ValueError):
    """Requested element does not fit in the declared stable range."""


# ---------------------------------------------------------------------------
# symmetric polynomials


class SymPoly(SparseVector):
    """Sparse symmetric polynomial in nvars variables, of total degree <= nvars:
    the stable range, where the monomial coefficients agree with those of the
    abstract symmetric function."""

    _space_fields = ("nvars",)

    def __init__(self, nvars: int, coeffs: dict | None = None):
        clean = {}  # exponent tuple -> coefficient
        for exp, c in (coeffs or {}).items():
            if len(exp) != nvars:
                raise ValueError(f"exponent {exp} does not have {nvars} variables")
            if sum(exp) > nvars:
                raise DegreeOverflowError(f"monomial {exp} leaves the stable range of {nvars} variables")
            if c:
                clean[exp] = c
        self.nvars, self.coeffs = nvars, clean

    def __mul__(self, other) -> "SymPoly":
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, SymPoly):
            return NotImplemented
        if self.nvars != other.nvars:
            raise ValueError(f"{self.nvars} variables times {other.nvars}")
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return SymPoly(self.nvars, out)

    def degree(self) -> int:
        return max((sum(e) for e in self.coeffs), default=0)


def is_symmetric(f: SymPoly) -> bool:
    """Invariance under every adjacent-variable transposition."""
    for i in range(f.nvars - 1):
        for exp, c in f.coeffs.items():
            swapped = list(exp)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            if f.coeffs.get(tuple(swapped), 0) != c:
                return False
    return True


def _distinct_perms(values):
    seen = set()
    for p in permutations(values):
        if p not in seen:
            seen.add(p)
            yield p


def m_poly(lam: Partition, nvars: int) -> SymPoly:
    """Monomial symmetric polynomial m_lambda."""
    lam = tuple(lam)
    if len(lam) > nvars:
        raise DegreeOverflowError(f"m_{lam} needs at least {len(lam)} variables")
    if sum(lam) > nvars:
        raise DegreeOverflowError(f"degree {sum(lam)} exceeds the stable range of {nvars} variables")
    exp0 = lam + (0,) * (nvars - len(lam))
    return SymPoly(nvars, {e: 1 for e in _distinct_perms(exp0)})


def e_poly(k: int, nvars: int) -> SymPoly:
    return m_poly((1,) * k, nvars) if k else SymPoly(nvars, {(0,) * nvars: 1})


def p_poly(k: int, nvars: int) -> SymPoly:
    return m_poly((k,), nvars) if k else SymPoly(nvars, {(0,) * nvars: 1})


def h_poly(k: int, nvars: int) -> SymPoly:
    if k == 0:
        return SymPoly(nvars, {(0,) * nvars: 1})
    out = SymPoly(nvars, {})
    for lam in partitions_of(k):
        out = out + m_poly(lam, nvars)
    return out


def s_poly(lam: Partition, nvars: int) -> SymPoly:
    """Schur polynomial via the Jacobi-Trudi determinant det(h_{lam_i - i + j})."""
    lam = tuple(lam)
    if sum(lam) > nvars:
        raise DegreeOverflowError(f"degree {sum(lam)} exceeds the stable range of {nvars} variables")
    ell = len(lam)
    one = SymPoly(nvars, {(0,) * nvars: 1})
    zero = SymPoly(nvars, {})
    # grid row j is column j of the Jacobi-Trudi matrix: the minors of its
    # first rows then have degree at most |lam| and stay in the stable range
    grid = [[h_poly(lam[i] - i + j, nvars) if lam[i] - i + j >= 0 else zero for i in range(ell)]
            for j in range(ell)]
    return det(grid, one)


def schur_expand(f: SymPoly) -> dict:
    """Coefficients c_lam with f = sum c_lam s_lam, by leading-term subtraction."""
    result: dict = {}
    work = SymPoly(f.nvars, dict(f.coeffs))
    while work:
        lead = max(work.coeffs)
        if any(lead[i] < lead[i + 1] for i in range(len(lead) - 1)):
            raise ValueError("not symmetric: leading exponent is not a partition")
        c = work.coeffs[lead]
        for orbit in _distinct_perms(lead):
            if work.coeffs.get(orbit, 0) != c:
                raise ValueError("not symmetric: leading-monomial orbit mismatch")
        lam = tuple(x for x in lead if x)
        result[lam] = c
        work = work - s_poly(lam, f.nvars).scale(c)
    return result


def frobenius_twist(f: SymPoly, n: int) -> SymPoly:
    """Substitute x_i -> x_i^n."""
    if n * f.degree() > f.nvars:
        raise DegreeOverflowError(f"twist by {n} leaves the stable range")
    return SymPoly(f.nvars, {tuple(n * e for e in exp): c for exp, c in f.coeffs.items()})


# ---------------------------------------------------------------------------
# charge, and Kostka-Foulkes polynomials by Jing's vertex operator


def _charge_step(cur, idx, total, pos):
    """One letter of charge: subword j, at cur[j] with index idx[j], takes the
    nearest unused position in ``pos`` (ascending, used up) left of cur[j], or
    else wraps to the rightmost and its index goes up by one.  Subwords go in
    order and those past len(pos) end; returns (cur, idx, total + new indices).
    """
    nxt, nidx = [], []
    for c, x in zip(cur, idx):
        if not pos:
            break
        left = bisect_left(pos, c)
        if left:
            c = pos.pop(left - 1)
        else:
            c = pos.pop()
            x += 1
        nxt.append(c)
        nidx.append(x)
        total += x
    return nxt, nidx, total


def charge(word) -> int:
    """Lascoux-Schutzenberger charge of a word whose content is a partition.

    Its standard subwords are extracted one letter at a time (``_charge_step``):
    subword j takes the j-th 1 from the right, with index 0, and the charge is
    the sum of the indices of all letters.
    """
    at: dict = {}  # letter -> its positions, ascending
    for i, letter in enumerate(word):
        at.setdefault(letter, []).append(i)
    counts = [len(at.get(letter, ())) for letter in range(1, len(at) + 1)]
    if not all(counts) or any(map(lt, counts, counts[1:])):
        raise ValueError("content is not a partition")
    state = [len(word)] * len(word), [0] * len(word), 0  # right of the word: no wrap to a 1
    for letter in range(1, len(at) + 1):
        state = _charge_step(*state, at[letter])
    return state[2]


def _interlacing(shape: Partition):
    """Every sigma with shape[i+1] <= sigma[i] <= shape[i], as a partition: the
    rho with shape/rho a horizontal strip, and the rows after the first of the
    lam with lam/shape one."""
    for sigma in product(*map(range, shape[1:] + (0,), [part + 1 for part in shape])):
        yield tuple(filter(None, sigma))


def _horizontal_strips_added(shape: Partition, size: int) -> list:
    """The lam with lam/shape a horizontal strip of ``size`` >= 1 cells (Pieri's
    rule for h_size s_shape): the first row takes the cells the others leave."""
    first = shape[0] if shape else 0
    below = sum(shape) - first  # the cells of the other rows
    return [(first + size + below - sum(tail),) + tail for tail in _interlacing(shape)
            if sum(tail) - below <= size]


def _d_image(shape: Partition) -> dict:
    """D(s_shape) = sum_j D_j(s_shape), with D_j = sum_{a+b=j} (-1)^a t^b
    e_a^perp h_b^perp, as {kappa: coefficients in t}; the kappa of |shape| - j
    cells carry D_j.  A term takes a horizontal strip of b cells off shape, then
    a vertical strip of a cells, the transpose of a horizontal one."""
    size = sum(shape)
    acc: dict = {}  # kappa -> coefficient list
    for rho in _interlacing(shape):
        b = size - sum(rho)
        for kappa_t in _interlacing(transpose(rho)):
            coeffs = acc.setdefault(transpose(kappa_t), [0] * (size + 1))
            coeffs[b] += -1 if (sum(rho) - sum(kappa_t)) & 1 else 1
    return {kappa: c for kappa, coeffs in acc.items() if (c := _trim(coeffs))}


def _add(values) -> tuple:
    """The sum of coefficient tuples, trimmed."""
    return _trim(map(sum, zip_longest(*values, fillvalue=0)))


def _residues(n):
    """The reduction of a coefficient list: trimmed in Z[t] (n None), else folded
    into Z[zeta_n] by the residues of t^i mod Phi_n, i < n, as t^n = 1 mod Phi_n."""
    if n is None:
        return _trim
    fold = [divmod_monic((0,) * i + (1,), cyclotomic_polynomial(n))[1] for i in range(n)]
    return lambda coeffs: _add([[c * f for f in fold[i % n]] for i, c in enumerate(coeffs) if c])


def _kf_columns(reduce=_trim):
    """mu -> Q'_mu = sum_lam K_{lam,mu}(t) s_lam as {lam: coefficients in t, low
    degree first, each passed through ``reduce`` (``_residues``)}, from Jing's
    vertex operator (N. Jing, Adv. Math. 87, 1991; Macdonald, ch. III):
    Q'_mu = sum_j h_{mu_1 + j} D_j(Q'_nu) with nu = (mu_2, ...), and Q'_() = 1.
    Reduction mod Phi_n is a ring homomorphism, so the steps run in Z[zeta_n].

    One call makes the memo of one run: every column built, D(Q'_nu) for each
    suffix nu (every first part reuses it), D(s_lam) for each shape and the
    horizontal strips added to each (shape, size).  No term needs pruning: a
    shape of Q'_mu has at most one row more than one of Q'_nu, so at most
    len(mu) rows, as every lam with K_{lam,mu} != 0 (lam dominates mu) does.
    """
    d_schur = lru_cache(None)(lambda shape: {kappa: c for kappa, d in _d_image(shape).items()
                                             if (c := reduce(d))})
    strips = lru_cache(None)(_horizontal_strips_added)

    @lru_cache(None)
    def images(nu):  # D(Q'_nu) = sum_lam K_{lam,nu} D(s_lam), one reduction per kappa
        pairs: dict = {}  # kappa -> ([K_{lam,nu}], [coefficient of s_kappa in D(s_lam)])
        for lam, k in columns(nu).items():
            for kappa, d in d_schur(lam).items():
                ks, ds = pairs.setdefault(kappa, ([], []))
                ks.append(k)
                ds.append(d)
        return {kappa: c for kappa, (ks, ds) in pairs.items() if (c := reduce(_dot(ks, ds)))}

    @lru_cache(None)
    def columns(mu):
        if not mu:
            return {(): (1,)}
        total, terms = sum(mu), {}  # lam -> its coefficients, one from each kappa
        for kappa, c in images(mu[1:]).items():
            for lam in strips(kappa, total - sum(kappa)):
                terms.setdefault(lam, []).append(c)
        return {lam: c for lam, cs in terms.items() if (c := _add(cs))}

    return columns


def kostka_foulkes_tables(top: int, n=None):
    """(labels, K, n) for each size 0..top, one memo for all: labels descending lex,
    K[i][j] = K_{labels[i], labels[j]}(t) in Z[t] (n None) or else in Z[zeta_n]."""
    columns = _kf_columns(_residues(n))
    for total in range(top + 1):
        labels = partitions_of(total)
        by_mu = [columns(mu) for mu in labels]
        yield labels, tuple(tuple(col.get(lam, ()) for col in by_mu) for lam in labels), n


def kostka_foulkes(lam: Partition, mu: Partition) -> tuple:
    """K_{lam,mu}(t) as coefficients, read from the vertex-operator column of mu."""
    lam, mu = check_partition(lam), check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError("sizes differ")
    return _kf_columns()(mu).get(lam, ())


class KFMatrices(Record):
    """Kostka-Foulkes transition data at one size: K, A, B and D = A B.

    ``labels`` are all partitions of the size in a dominance-compatible order
    and ``regular_labels`` the n-regular ones in the same order.  K has rows and
    columns indexed by labels, A both by regular_labels, and B (the n-regular
    rows of K^-1) and D rows by regular_labels and columns by labels.  Every
    entry is a trimmed coefficient tuple, low degree first, in Z[zeta_n] or Z[t].
    """

    _fields = ("labels", "regular_labels", "K", "A", "B", "D")

    def __init__(self, labels: tuple, regular_labels: tuple, K: tuple, A: tuple, B: tuple,
                 D: tuple):
        vars(self).update(labels=labels, regular_labels=regular_labels, K=K, A=A, B=B, D=D)


def kf_transition_matrices(total: int, n: int, table=None) -> KFMatrices:
    """The matrices built from K for n, in the ring of ``table``: the (labels, K,
    ring) of total from ``kostka_foulkes_tables`` for n (Z[zeta_n]) or for None
    (Z[t]), or None to build it for n; each dot product is reduced once."""
    labels, K, ring = table or list(kostka_foulkes_tables(max(total, 0), n))[-1]
    if total < 0 or labels != partitions_of(total) or ring not in (None, n):
        raise ValueError(f"no table of size {total} for n = {n}")
    reduce = _residues(ring)
    regular = tuple(p for p in labels if is_n_regular(p, n))
    reg_idx = [labels.index(p) for p in regular]
    B = invert_unitriangular(K, reg_idx, reduce)
    A = invert_unitriangular(tuple(tuple(row[j] for j in reg_idx) for row in B), None, reduce)
    cols = list(zip(*B))
    D = tuple(tuple(reduce(_dot(row, col)) for col in cols) for row in A)
    return KFMatrices(labels, regular, K, A, B, D)


# ---------------------------------------------------------------------------
# polynomials in the h-generators


class HPoly(SparseVector):
    """Sparse polynomial in formal generators h_1, h_2, ...; a key is a tuple of
    (index, exponent) pairs sorted by index."""

    def __init__(self, coeffs: dict | None = None):
        coeffs = coeffs or {}  # key -> coefficient
        self.coeffs = coeffs if all(coeffs.values()) else {k: c for k, c in coeffs.items() if c}

    @staticmethod
    def const(c) -> "HPoly":
        return HPoly({(): c})

    @staticmethod
    def gen(i: int) -> "HPoly":
        return HPoly({((i, 1),): 1})

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, HPoly):
            return NotImplemented
        out: dict = {}
        for k1, c1 in self.coeffs.items():
            d1 = dict(k1)
            for k2, c2 in other.coeffs.items():
                d = dict(d1)
                for i, e in k2:
                    d[i] = d.get(i, 0) + e
                key = tuple(sorted(d.items()))
                out[key] = out.get(key, 0) + c1 * c2
        return HPoly(out)

    __rmul__ = __mul__

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in sorted(self.coeffs.items()):
            mono = "*".join(f"h{i}" + (f"^{e}" if e > 1 else "") for i, e in k) or "1"
            parts.append(f"{c}*{mono}")
        return " + ".join(parts)


class _HSeries(SparseVector):
    """A power series in s with HPoly coefficients, truncated after s^K."""

    _space_fields = ("K",)

    def __init__(self, K: int, coeffs: dict | None = None):
        coeffs = coeffs or {}  # power of s -> HPoly
        if not all(0 <= w <= K for w in coeffs):
            raise ValueError(f"powers {sorted(coeffs)} of s outside 0..{K}")
        self.K = K
        self.coeffs = coeffs if all(coeffs.values()) else {w: a for w, a in coeffs.items() if a}

    def __mul__(self, other):
        if not isinstance(other, _HSeries):
            return NotImplemented
        out: dict = {}
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                if i + j <= self.K:
                    out[i + j] = out[i + j] + a * b if i + j in out else a * b
        return _HSeries(self.K, out)


def det_coeffs_principal_nilpotent(n: int, K: int) -> list:
    """det(sum_k h_k E^k) as a series in s = t^{-1}, coefficients of s^1..s^K.

    E is the n x n principal nilpotent with a t^{-1} in the corner; entry (i,j)
    of the series matrix is sum_w h_{j-i+n w} s^w.
    """
    if n < 1 or K < 1:
        raise ValueError("need n >= 1 and K >= 1")

    def h(k: int) -> HPoly:
        return HPoly() if k < 0 else HPoly.const(1) if k == 0 else HPoly.gen(k)

    grid = [[_HSeries(K, {w: h(j - i + n * w) for w in range(K + 1)}) for j in range(n)]
            for i in range(n)]
    series = det(grid, _HSeries(K, {0: HPoly.const(1)})).coeffs
    total = [series.get(w, HPoly()) for w in range(K + 1)]
    if total[0] != HPoly.const(1):
        raise ArithmeticError(f"constant term of the determinant is {total[0]!r}, not 1")
    return total[1:]


def z_of(lam: Partition) -> int:
    z = 1
    for part, m in multiplicities(lam).items():
        z *= part**m * factorial(m)
    return z


@lru_cache(maxsize=None)
def power_sum_in_h(j: int) -> HPoly:
    """p_j as an integer polynomial in the h-generators (Newton's identities)."""
    if j == 0:
        return HPoly.const(1)
    out = HPoly.gen(j) * j
    for i in range(1, j):
        out = out - HPoly.gen(i) * power_sum_in_h(j - i)
    return out


def twist_in_h_basis(n: int, k: int) -> HPoly:
    """h_k^{(n)} expressed in the h-generators, from k! h_k(x^n) = sum over
    lam |- k of (k!/z_lam) p_{n lam}: summed over Z, then divided exactly by k!."""
    if n == 1:
        return HPoly.gen(k) if k else HPoly.const(1)
    total = HPoly()
    for lam in partitions_of(k):
        term = HPoly.const(factorial(k) // z_of(lam))
        for part in lam:
            term = term * power_sum_in_h(n * part)
        total = total + term
    out = {}
    for key, c in total.coeffs.items():
        out[key], remainder = divmod(c, factorial(k))
        if remainder:
            raise ArithmeticError("twist did not clear to integer coefficients")
    return HPoly(out)
