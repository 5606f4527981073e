"""Symmetric functions as honest symmetric polynomials in a stable range of
variables (``SymPoly``), plus Kostka-Foulkes polynomials via the charge
statistic, Hall-Littlewood transition matrices, the block-Toeplitz determinant
coefficients (a truncated series ``_HSeries``) and Frobenius twists, both
expressed in the h-generators (``HPoly``).  The three polynomial types take
their sum, difference, negation, scaling, equality and truth from
``exact.SparseVector`` and define only their product.

A paper claim that only tier-1 pins (tests/test_symfunc.py): the Frobenius-twist
reading of the shuffles, through ``SymPoly``, ``schur_expand``
(``test_schur_expand_jacobi_trudi_consistency``) and ``frobenius_twist``
(``test_frobenius_twist_examples``).

The oracles live in tests/test_symfunc.py: the cell-by-cell tableau filler and
the scanning charge that ``charge`` and ``kostka_foulkes`` are checked against,
and the minors of the Toeplitz matrix (h_{j-i}) on the beads of a diagram with
the Jacobi-Trudi determinant they equal, both at given values of the h_i.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations
from math import factorial
from operator import lt

from .exact import IntPoly, SparseVector, det, intpoly_matmul, invert_unitriangular
from .partitions import Partition, check_partition, is_n_regular, partitions_of


class DegreeOverflowError(ValueError):
    """Requested element does not fit in the declared stable range."""


# ---------------------------------------------------------------------------
# symmetric polynomials


@dataclass(eq=False)
class SymPoly(SparseVector):
    """Sparse symmetric polynomial in nvars variables, of total degree <= nvars:
    the stable range, where the monomial coefficients agree with those of the
    abstract symmetric function."""

    nvars: int
    coeffs: dict = field(default_factory=dict)  # exponent tuple -> coefficient

    def __post_init__(self):
        clean = {}
        for exp, c in self.coeffs.items():
            if len(exp) != self.nvars:
                raise ValueError(f"exponent {exp} does not have {self.nvars} variables")
            if sum(exp) > self.nvars:
                raise DegreeOverflowError(f"monomial {exp} leaves the stable range of {self.nvars} variables")
            if c:
                clean[exp] = c
        self.coeffs = clean

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
# tableaux, charge, Kostka-Foulkes


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


def n_of(lam: Partition) -> int:
    """n(lambda) = sum (i-1) lam_i."""
    return sum(i * part for i, part in enumerate(lam))


def _kf_column(mu: Partition, cap: Partition) -> dict:
    """{lam: K_{lam,mu}(t)} over the shapes lam inside cap with a tableau of
    content mu, from one pass over those tableaux.  Cell (r, c) has the
    reading-order key c - r * radix (bottom row first), which later strips
    never change, so ``_charge_step`` settles each strip's share of the charge
    as it is placed and a finished tableau only counts its charge.
    """
    top = n_of(mu)
    counts = defaultdict(lambda: [0] * (top + 1))  # row lengths -> count by charge
    radix = sum(mu) + 1
    lens = [0] * len(cap)  # row lengths of the tableau grown so far

    def add_strips(i, state):
        if i == len(mu):
            counts[tuple(lens)][state[2]] += 1
        else:  # the strip reaches one row below the shape, inside cap
            fill_strip(i, min(len(lens) - 1, len(lens) - lens.count(0)), mu[i], state, [])

    def fill_strip(i, r, left, state, keys):
        """Place `left` cells of the strip of letter i+1 in rows r, r-1, ..., 0;
        ``keys`` holds those placed in the rows below r.  Rows are filled bottom
        up, so row r may gain at most the length of row r-1 minus its own; row 0
        takes what is left, and then the strip's letters join the subwords.  No
        row grows past cap[r].
        """
        start = lens[r]
        if r == 0:
            if start + left <= cap[0]:
                lens[0] = start + left
                add_strips(i + 1, _charge_step(*state, keys + list(range(start, start + left))))
                lens[0] = start
            return
        key = start - r * radix
        for k in range(min(left, cap[r] - start, lens[r - 1] - start) + 1):
            fill_strip(i, r - 1, left - k, state, keys)
            lens[r] += 1
            keys.append(key + k)
        lens[r] = start
        del keys[len(keys) - k - 1:]

    add_strips(0, ([radix] * radix, [0] * radix, 0))  # subwords start right of row 0
    return {tuple(filter(None, shape)): IntPoly(c) for shape, c in counts.items()}


def kostka_foulkes(lam: Partition, mu: Partition) -> IntPoly:
    """K_{lam,mu}(t) as the t-count of SSYT(lam, mu) by charge.

    Only shapes inside lam are grown, so one pair costs a fraction of its column.
    """
    lam, mu = check_partition(lam), check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError("sizes differ")
    return _kf_column(mu, lam).get(lam, IntPoly())


@dataclass(frozen=True)
class KFMatrices:
    """Kostka-Foulkes transition data at one size: K, C = K^-1, A, B, D = A B."""

    labels: tuple            # all partitions of the size, dominance-compatible order
    regular_labels: tuple    # the n-regular ones, same order
    K: tuple                 # rows and columns indexed by labels
    C: tuple                 # rows and columns indexed by labels
    A: tuple                 # rows and columns indexed by regular_labels
    B: tuple                 # rows indexed by regular_labels, columns by labels
    D: tuple                 # rows indexed by regular_labels, columns by labels


def kostka_foulkes_matrix(total: int) -> tuple:
    """(labels, K, C): partitions of total in descending lex order, K by charge, C = K^-1."""
    labels = partitions_of(total)
    columns = [_kf_column(mu, (total,) * len(mu)) for mu in labels]
    K = tuple(tuple(col.get(lam, IntPoly()) for col in columns) for lam in labels)
    return labels, K, invert_unitriangular(K)


def kf_transition_matrices(total: int, n: int, table=None) -> KFMatrices:
    """The matrices built from K^-1 for n; ``table`` is kostka_foulkes_matrix(total) or None."""
    labels, K, C = kostka_foulkes_matrix(total) if table is None else table
    regular = tuple(p for p in labels if is_n_regular(p, n))
    reg_idx = [labels.index(p) for p in regular]
    B = tuple(C[i] for i in reg_idx)
    A = invert_unitriangular(tuple(tuple(row[j] for j in reg_idx) for row in B))
    return KFMatrices(labels, regular, K, C, A, B, intpoly_matmul(A, B))


# ---------------------------------------------------------------------------
# polynomials in the h-generators


@dataclass(eq=False)
class HPoly(SparseVector):
    """Sparse polynomial in formal generators h_1, h_2, ...; a key is a tuple of
    (index, exponent) pairs sorted by index."""

    coeffs: dict = field(default_factory=dict)  # key -> coefficient

    def __post_init__(self):
        if not all(self.coeffs.values()):
            self.coeffs = {k: c for k, c in self.coeffs.items() if c}

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


@dataclass(eq=False)
class _HSeries(SparseVector):
    """A power series in s with HPoly coefficients, truncated after s^K."""

    K: int
    coeffs: dict = field(default_factory=dict)  # power of s -> HPoly

    def __post_init__(self):
        if not all(0 <= w <= self.K for w in self.coeffs):
            raise ValueError(f"powers {sorted(self.coeffs)} of s outside 0..{self.K}")
        if not all(self.coeffs.values()):
            self.coeffs = {w: a for w, a in self.coeffs.items() if a}

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
    mult: dict = {}
    for part in lam:
        mult[part] = mult.get(part, 0) + 1
    for part, m in mult.items():
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
