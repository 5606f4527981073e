"""Symmetric functions as honest symmetric polynomials in a stable range of
variables, plus Kostka-Foulkes polynomials via the charge statistic,
Hall-Littlewood transition matrices, the block-Toeplitz determinant
coefficients, and Frobenius twists expressed in the h-generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial

from .exact import IntPoly, PolyMatrix, Ring, QQ, det, invert_unitriangular
from .partitions import MayaDiagram, Partition, is_n_regular, partitions_of


class DegreeOverflowError(ValueError):
    """Requested element does not fit in the declared stable range."""


# ---------------------------------------------------------------------------
# symmetric polynomials


@dataclass
class SymPoly:
    """Sparse symmetric polynomial in nvars variables, total degree <= degree_bound.

    With nvars >= degree_bound the monomial coefficients agree with those of
    the abstract symmetric function (the stable range).
    """

    nvars: int
    coeffs: dict = field(default_factory=dict)  # exponent tuple -> coefficient
    degree_bound: int | None = None

    def __post_init__(self):
        if self.degree_bound is None:
            self.degree_bound = self.nvars
        if self.degree_bound > self.nvars:
            raise DegreeOverflowError(f"degree bound {self.degree_bound} exceeds nvars {self.nvars}")
        clean = {}
        for exp, c in self.coeffs.items():
            assert len(exp) == self.nvars
            if sum(exp) > self.degree_bound:
                raise DegreeOverflowError(f"monomial {exp} exceeds degree bound {self.degree_bound}")
            if c:
                clean[exp] = c
        self.coeffs = clean

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other: "SymPoly") -> "SymPoly":
        assert self.nvars == other.nvars
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            out[exp] = out.get(exp, 0) + c
        return SymPoly(self.nvars, out, max(self.degree_bound, other.degree_bound))

    def __neg__(self) -> "SymPoly":
        return self.scale(-1)

    def __sub__(self, other: "SymPoly") -> "SymPoly":
        return self + (-other)

    def scale(self, c) -> "SymPoly":
        return SymPoly(self.nvars, {e: c * v for e, v in self.coeffs.items()}, self.degree_bound)

    def __mul__(self, other: "SymPoly") -> "SymPoly":
        assert self.nvars == other.nvars
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return SymPoly(self.nvars, out, self.nvars)

    def __eq__(self, other):
        return isinstance(other, SymPoly) and self.nvars == other.nvars and self.coeffs == other.coeffs

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


def sym_basis(kind: str, index, nvars: int, degree_bound: int | None = None) -> SymPoly:
    """Dispatcher over the five bases: kind in {"h","e","p","m","s"}."""
    if kind in ("h", "e", "p"):
        out = {"h": h_poly, "e": e_poly, "p": p_poly}[kind](int(index), nvars)
    elif kind == "m":
        out = m_poly(tuple(index), nvars)
    elif kind == "s":
        out = s_poly(tuple(index), nvars)
    else:
        raise ValueError(f"unknown basis kind {kind!r}")
    if degree_bound is not None and out.degree() > degree_bound:
        raise DegreeOverflowError(f"{kind} element exceeds degree bound {degree_bound}")
    return out


def schur_expand(f: SymPoly) -> dict:
    """Coefficients c_lam with f = sum c_lam s_lam, by leading-term subtraction."""
    result: dict = {}
    work = SymPoly(f.nvars, dict(f.coeffs))
    while not work.is_zero():
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
    return SymPoly(f.nvars, {tuple(n * e for e in exp): c for exp, c in f.coeffs.items()}, f.nvars)


# ---------------------------------------------------------------------------
# tableaux, charge, Kostka-Foulkes


def semistandard_tableaux(shape: Partition, content: Partition):
    """All SSYT of the given shape and content (rows weak, columns strict)."""
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


def reading_word(tableau) -> tuple:
    """Rows read left to right, bottom row first."""
    word = []
    for row in reversed(tableau):
        word.extend(row)
    return tuple(word)


def charge(word) -> int:
    """Lascoux-Schutzenberger charge of a word with partition content.

    Standard subwords are extracted by picking the rightmost 1 and then each
    next letter scanning leftward cyclically; the charge of a standard word
    adds index(r)+1 ... indices grow by one exactly when the next letter sits
    to the right of the previous one.
    """
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


def n_of(lam: Partition) -> int:
    """n(lambda) = sum (i-1) lam_i."""
    return sum(i * part for i, part in enumerate(lam))


def kostka_foulkes(lam: Partition, mu: Partition, convention: str = "charge") -> IntPoly:
    """K_{lam,mu}(t) as the t-count of SSYT(lam, mu) by charge.

    convention="cocharge" is the documented fallback switch: it grades by
    n(mu) - charge instead.
    """
    lam, mu = tuple(lam), tuple(mu)
    if sum(lam) != sum(mu):
        raise ValueError("sizes differ")
    coeffs: dict = {}
    for T in semistandard_tableaux(lam, mu):
        ch = charge(reading_word(T))
        if convention == "cocharge":
            ch = n_of(mu) - ch
        coeffs[ch] = coeffs.get(ch, 0) + 1
    if not coeffs:
        return IntPoly()
    out = [0] * (max(coeffs) + 1)
    for deg, c in coeffs.items():
        out[deg] = c
    return IntPoly(out)


@dataclass(frozen=True)
class KFMatrices:
    """Kostka-Foulkes transition data at one size: K, C = K^-1, A, B, D = A B."""

    labels: tuple            # all partitions of the size, dominance-compatible order
    regular_labels: tuple    # the n-regular ones, same order
    K: PolyMatrix
    C: PolyMatrix
    A: PolyMatrix
    B: tuple                 # rows indexed by regular_labels, columns by labels
    D: tuple                 # rows indexed by regular_labels, columns by labels


def kf_transition_matrices(total: int, n: int, convention: str = "charge") -> KFMatrices:
    labels = partitions_of(total)  # descending lex refines dominance
    size = len(labels)
    K_rows = tuple(
        tuple(kostka_foulkes(labels[i], labels[j], convention) for j in range(size))
        for i in range(size)
    )
    K = PolyMatrix(labels, K_rows)
    C = invert_unitriangular(K)
    regular = tuple(p for p in labels if is_n_regular(p, n))
    reg_idx = [labels.index(p) for p in regular]
    C_reg = PolyMatrix(regular, tuple(tuple(C.entries[i][j] for j in reg_idx) for i in reg_idx))
    A = invert_unitriangular(C_reg)
    B = tuple(tuple(C.entries[i][j] for j in range(size)) for i in reg_idx)
    D_rows = []
    for i in range(len(regular)):
        row = []
        for j in range(size):
            s = IntPoly()
            for k in range(len(regular)):
                s = s + A.entries[i][k] * B[k][j]
            row.append(s)
        D_rows.append(tuple(row))
    return KFMatrices(labels, regular, K, C, A, B, tuple(D_rows))


# ---------------------------------------------------------------------------
# polynomials in the h-generators


@dataclass(frozen=True)
class HPoly:
    """Sparse polynomial in formal generators h_1, h_2, ...; keys are sorted
    tuples of (index, exponent) pairs."""

    coeffs: tuple = ()  # tuple of (key, coefficient) pairs, sorted by key

    @staticmethod
    def from_dict(d: dict) -> "HPoly":
        items = tuple(sorted((k, c) for k, c in d.items() if c))
        return HPoly(items)

    @staticmethod
    def const(c) -> "HPoly":
        return HPoly.from_dict({(): c})

    @staticmethod
    def gen(i: int) -> "HPoly":
        return HPoly.from_dict({((i, 1),): 1})

    def as_dict(self) -> dict:
        return dict(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = HPoly.const(other)
        out = self.as_dict()
        for k, c in other.coeffs:
            out[k] = out.get(k, 0) + c
        return HPoly.from_dict(out)

    __radd__ = __add__

    def __neg__(self):
        return HPoly(tuple((k, -c) for k, c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = HPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return HPoly()
            return HPoly(tuple((k, c * other) for k, c in self.coeffs))
        out: dict = {}
        for k1, c1 in self.coeffs:
            d1 = dict(k1)
            for k2, c2 in other.coeffs:
                d = dict(d1)
                for i, e in k2:
                    d[i] = d.get(i, 0) + e
                key = tuple(sorted(d.items()))
                out[key] = out.get(key, 0) + c1 * c2
        return HPoly.from_dict(out)

    __rmul__ = __mul__

    def degree(self) -> int:
        return max((sum(i * e for i, e in k) for k, _ in self.coeffs), default=0)

    def map_coefficients(self, fn) -> "HPoly":
        return HPoly.from_dict({k: fn(c) for k, c in self.coeffs})

    def is_integral(self) -> bool:
        return all(Fraction(c).denominator == 1 for _, c in self.coeffs)

    def to_integer(self) -> "HPoly":
        if not self.is_integral():
            raise ValueError("non-integral coefficients")
        return HPoly.from_dict({k: int(c) for k, c in self.coeffs})

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in self.coeffs:
            mono = "*".join(f"h{i}" + (f"^{e}" if e > 1 else "") for i, e in k) or "1"
            parts.append(f"{c}*{mono}")
        return " + ".join(parts)


@dataclass(frozen=True)
class _HSeries:
    """A power series in s with HPoly coefficients, truncated after s^K."""

    terms: tuple  # coefficients of s^0 .. s^K

    def __bool__(self):
        return any(self.terms)

    def __add__(self, other: "_HSeries") -> "_HSeries":
        return _HSeries(tuple(a + b for a, b in zip(self.terms, other.terms)))

    def __neg__(self) -> "_HSeries":
        return _HSeries(tuple(-a for a in self.terms))

    def __sub__(self, other: "_HSeries") -> "_HSeries":
        return self + (-other)

    def __mul__(self, other: "_HSeries") -> "_HSeries":
        out = [HPoly()] * len(self.terms)
        for i, a in enumerate(self.terms):
            if a:
                for j, b in enumerate(other.terms[: len(out) - i]):
                    if b:
                        out[i + j] = out[i + j] + a * b
        return _HSeries(tuple(out))


def det_coeffs_principal_nilpotent(n: int, K: int) -> list:
    """det(sum_k h_k E^k) as a series in s = t^{-1}, coefficients of s^1..s^K.

    E is the n x n principal nilpotent with a t^{-1} in the corner; entry (i,j)
    of the series matrix is sum_w h_{j-i+n w} s^w.
    """
    if n < 1 or K < 1:
        raise ValueError("need n >= 1 and K >= 1")

    def h(k: int) -> HPoly:
        return HPoly() if k < 0 else HPoly.const(1) if k == 0 else HPoly.gen(k)

    grid = [[_HSeries(tuple(h(j - i + n * w) for w in range(K + 1))) for j in range(n)]
            for i in range(n)]
    total = det(grid, _HSeries((HPoly.const(1),) + (HPoly(),) * K)).terms
    if total[0] != HPoly.const(1):
        raise ArithmeticError(f"constant term of the determinant is {total[0]!r}, not 1")
    return list(total[1:])


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
    """h_k^{(n)} expressed in the h-generators; the result clears to Z."""
    if n == 1:
        return HPoly.gen(k) if k else HPoly.const(1)
    total = HPoly()
    for lam in partitions_of(k):
        term = HPoly.const(Fraction(1, z_of(lam)))
        for part in lam:
            term = term * power_sum_in_h(n * part)
        total = total + term
    if not total.is_integral():
        raise ArithmeticError("twist did not clear to integer coefficients")
    return total.to_integer()


# ---------------------------------------------------------------------------
# Toeplitz minors


def _h_at(hvals: dict, d: int, ring: Ring):
    """h_d at the given values of h_1, h_2, ...: 0 below degree 0, 1 in degree 0."""
    if d < 0:
        return ring.zero
    return ring.one if d == 0 else hvals.get(d, ring.zero)


def toeplitz_minor(hvals: dict, m: MayaDiagram, ring: Ring = QQ):
    """Minor of the upper-triangular Toeplitz matrix (entries h_{j-i}) on
    columns 0,1,2,... and rows the beads of m, reduced to a finite determinant.

    hvals maps i >= 1 to the value of h_i (missing means 0); h_0 = 1.
    """
    if m.charge != 0:
        raise ValueError("Toeplitz minors are taken at charge 0")
    L = len(m.mu)
    grid = [[_h_at(hvals, (j - 1) - m.bead(r), ring) for j in range(1, L + 1)]
            for r in range(1, L + 1)]
    return det(grid, ring.one)


def jacobi_trudi_value(lam: Partition, hvals: dict, ring: Ring = QQ):
    """det(h_{lam_i - i + j}) evaluated at the given h-values (test oracle)."""
    lam = tuple(lam)
    ell = len(lam)
    grid = [[_h_at(hvals, lam[i - 1] - i + j, ring) for j in range(1, ell + 1)]
            for i in range(1, ell + 1)]
    return det(grid, ring.one)
