"""Oracles that more than one test module compares the package against, the
per-point S^T filter that the cell-wise solve replaced, and the prime-field
scalar that the tests over F_p build."""

from dataclasses import dataclass

from grfock.exact import minors
from grfock.exterior import ExtTensor


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
