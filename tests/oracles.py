"""Oracles that more than one test module compares the package against, the
per-point S^T filter that the cell-wise solve replaced, the per-triple
degree-2 generators that the package's generator families replaced, and the
prime-field scalar that the tests over F_p build."""

from dataclasses import dataclass
from itertools import combinations

from grfock.exact import minors
from grfock.exterior import ExtTensor, ext_word_on_key, sort_with_sign


# ---------------------------------------------------------------------------
# the prime field F_p; the package's F_p points use plain ints instead


@dataclass(frozen=True)
class Fp:
    """An element of the prime field F_p, stored reduced into [0, p).  Ints lift
    into it; an element of another prime field or another scalar type does not,
    and it equals only an Fp."""

    value: int
    p: int

    def __post_init__(self):
        object.__setattr__(self, "value", self.value % self.p)

    def _check(self, other: "Fp"):
        if self.p != other.p:
            raise TypeError(f"F_{self.p} vs F_{other.p}")

    def __add__(self, other):
        if isinstance(other, int):
            return Fp(self.value + other, self.p)
        if isinstance(other, Fp):
            self._check(other)
            return Fp(self.value + other.value, self.p)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Fp(-self.value, self.p)

    def __sub__(self, other):
        return self + (-other if isinstance(other, (Fp, int)) else NotImplemented)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return Fp(self.value * other, self.p)
        if isinstance(other, Fp):
            self._check(other)
            return Fp(self.value * other.value, self.p)
        return NotImplemented

    __rmul__ = __mul__

    def inv(self) -> "Fp":
        if self.value == 0:
            raise ZeroDivisionError(f"inverse of 0 in F_{self.p}")
        return Fp(pow(self.value, self.p - 2, self.p), self.p)

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"{self.value}%{self.p}"


# ---------------------------------------------------------------------------
# bead lookups on one Maya diagram, by walking its beads from the lowest


def bead_index(m, i):
    """1-based index k with m.bead(k) == i, or None."""
    k = 1
    while m.bead(k) < i:
        k += 1
    return k if m.bead(k) == i else None


def is_bead(m, i) -> bool:
    return i >= m.tail_start() or bead_index(m, i) is not None


def beads_below(m, i) -> int:
    """Number of beads of m at positions < i."""
    count = 0
    while m.bead(count + 1) < i:
        count += 1
    return count


# ---------------------------------------------------------------------------
# decomposable tensors


def wedge_of_rows(rows, n, lift=int) -> ExtTensor:
    """row_1 ^ ... ^ row_k as an ExtTensor; coefficients are the k x k minors,
    with the entries lifted into the scalars that ``lift`` makes of an int."""
    coeffs = {tuple(c + 1 for c in cols): m for cols, m in minors(rows, lift(1)).items()}
    return ExtTensor(n, len(rows), coeffs)


# ---------------------------------------------------------------------------
# the per-point S^T filter


def in_st(plucker: list, forms: list, p: int) -> bool:
    """Whether the Pluecker vector, dense over the sorted k-subsets, pairs to 0
    mod p with every form of grassmann.st_forms; stops at the first form that
    does not."""
    for form in forms:
        if sum([c * plucker[j] for j, c in form]) % p:
            return False
    return True


# ---------------------------------------------------------------------------
# the degree-2 generators, one (alpha, beta, d) or (C, D, d) at a time


def plucker_quadric(alpha: tuple, beta: tuple, d: int) -> dict:
    """X_alpha X_beta minus the exchange of beta[:d] with every d positions of
    alpha, with wedge-reordering signs; an exchange that repeats an index is 0."""
    out: dict = {}

    def accumulate(A_seq, B_seq, coeff):
        ra, rb = sort_with_sign(A_seq), sort_with_sign(B_seq)
        if ra is not None and rb is not None:
            key = (ra[1], rb[1])
            out[key] = out.get(key, 0) + coeff * ra[0] * rb[0]

    accumulate(alpha, beta, 1)
    for positions in combinations(range(len(alpha)), d):
        first = list(alpha)
        for j, t in enumerate(positions):
            first[t] = beta[j]
        accumulate(first, [alpha[t] for t in positions] + list(beta[d:]), -1)
    return {key: c for key, c in out.items() if c}


def omega_functional(C: tuple, D: tuple, d: int) -> dict:
    """Coefficient of X_A (x) X_B in (e*_C (x) e*_D) . Omega_d, by the Clifford
    words psi_I and psi*_I for every d-subset I of C."""
    out: dict = {}
    for I in combinations(C, d):
        if set(I) & set(D):
            continue
        A = tuple(c for c in C if c not in I)
        B = tuple(sorted(I + D))
        sign_A, _ = ext_word_on_key([(i, False) for i in I], A)
        sign_B, _ = ext_word_on_key([(i, True) for i in I], B)
        out[(A, B)] = sign_A * sign_B
    return out


def unordered(ordered: dict) -> dict:
    """A dict over ordered pairs (A, B) read where X_A X_B = X_B X_A."""
    out: dict = {}
    for (A, B), c in ordered.items():
        key = (min(A, B), max(A, B))
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def quadric_family(k: int, l: int, n: int) -> list:
    """Every P_{alpha (x) beta, d}, d = 1..l, over ordered pairs, zero ones
    included."""
    return [plucker_quadric(alpha, beta, d)
            for alpha in combinations(range(1, n + 1), k)
            for beta in combinations(range(1, n + 1), l) for d in range(1, l + 1)]


def omega_family(k: int, l: int, n: int) -> list:
    """Every (e*_C (x) e*_D) . Omega_d, d = 1..min(l, n - k), over ordered pairs,
    zero ones included."""
    return [omega_functional(C, D, d) for d in range(1, min(l, n - k) + 1)
            for C in combinations(range(1, n + 1), k + d)
            for D in combinations(range(1, n + 1), l - d)]
