"""Exact arithmetic kernel: rationals, prime fields, Z[t], cyclotomic quotients,
the one determinant and minor routine of the package (``minors``, with ``det``
its entry on a square grid), integer matrices with Hermite normal form, and
unitriangular inversion over Z[t].

Scalars form a closed set of ring roles.  Elements of different rings never
coerce into each other (a PrimeField value added to a Fraction is a TypeError);
plain Python ints lift canonically into every ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


class MixedRingError(TypeError):
    """Arithmetic between elements of different scalar rings."""


# ---------------------------------------------------------------------------
# prime fields


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class Fp:
    """An element of the prime field F_p, stored reduced into [0, p)."""

    value: int
    p: int

    def __post_init__(self):
        object.__setattr__(self, "value", self.value % self.p)

    def _check(self, other: "Fp"):
        if self.p != other.p:
            raise MixedRingError(f"F_{self.p} vs F_{other.p}")

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
# univariate integer polynomials in t


def _trim(coeffs) -> tuple:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


@dataclass(frozen=True)
class IntPoly:
    """A polynomial over Z in the variable t, low-degree coefficients first.

    No trailing zero coefficients are stored; the zero polynomial is ().
    """

    coeffs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(self.coeffs))

    @staticmethod
    def const(c: int) -> "IntPoly":
        return IntPoly((c,))

    @staticmethod
    def t(power: int = 1, coeff: int = 1) -> "IntPoly":
        return IntPoly((0,) * power + (coeff,))

    @property
    def degree(self) -> int:
        # degree of the zero polynomial is -1 by convention
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def _lift(self, other):
        if isinstance(other, int):
            return IntPoly.const(other)
        if isinstance(other, IntPoly):
            return other
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if not self.coeffs or not o.coeffs:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def divmod_monic(self, divisor: "IntPoly") -> tuple["IntPoly", "IntPoly"]:
        """Quotient and remainder by a monic divisor; exact over Z."""
        if divisor.is_zero() or divisor.coeffs[-1] != 1:
            raise ValueError("divisor must be monic")
        rem = list(self.coeffs)
        d = divisor.degree
        quot = [0] * max(0, len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c:
                quot[i - d] = c
                for j, b in enumerate(divisor.coeffs):
                    rem[i - d + j] -= c * b
        return IntPoly(quot), IntPoly(rem)

    def __call__(self, x):
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                base = "t" if i == 1 else f"t^{i}"
                if c == 1:
                    parts.append(base)
                elif c == -1:
                    parts.append(f"-{base}")
                else:
                    parts.append(f"{c}*{base}")
        return " + ".join(parts).replace("+ -", "- ")


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial, via division of t^n - 1 by the proper-divisor factors."""
    if n < 1:
        raise ValueError("n must be >= 1")
    num = IntPoly((-1,) + (0,) * (n - 1) + (1,))
    for d in range(1, n):
        if n % d == 0:
            q, r = num.divmod_monic(cyclotomic_polynomial(d))
            assert r.is_zero()
            num = q
    return num


@dataclass(frozen=True)
class Cyclo:
    """An element of Z[t]/Phi_n(t), stored as the residue of degree < deg Phi_n."""

    residue: IntPoly
    n: int

    def __post_init__(self):
        phi = cyclotomic_polynomial(self.n)
        if self.residue.degree >= phi.degree:
            _, r = self.residue.divmod_monic(phi)
            object.__setattr__(self, "residue", r)

    def _check(self, other: "Cyclo"):
        if self.n != other.n:
            raise MixedRingError(f"Z[zeta_{self.n}] vs Z[zeta_{other.n}]")

    def _lift(self, other):
        if isinstance(other, int):
            return Cyclo(IntPoly.const(other), self.n)
        if isinstance(other, IntPoly):
            return Cyclo(other, self.n)
        if isinstance(other, Cyclo):
            self._check(other)
            return other
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Cyclo(self.residue + o.residue, self.n)

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(-self.residue, self.n)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Cyclo(self.residue * o.residue, self.n)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.residue.is_zero()

    def is_integer(self) -> bool:
        return self.residue.degree <= 0

    def integer_value(self) -> int:
        if not self.is_integer():
            raise ValueError(f"{self!r} is not a rational integer")
        return self.residue.coeffs[0] if self.residue.coeffs else 0

    def __repr__(self):
        return f"({self.residue!r} mod Phi_{self.n})"


def cyclotomic_reduce(p: IntPoly, n: int) -> Cyclo:
    """Residue of p modulo the n-th cyclotomic polynomial."""
    return Cyclo(p, n)


# ---------------------------------------------------------------------------
# ring descriptors, for code generic over the scalar role


class Ring:
    name = "?"

    def from_int(self, k: int):
        raise NotImplementedError

    @property
    def zero(self):
        return self.from_int(0)

    @property
    def one(self):
        return self.from_int(1)

    def is_zero(self, x) -> bool:
        return x == self.zero

    def inv(self, x):
        raise NotImplementedError(f"{self.name} is not a field")

    def __repr__(self):
        return self.name


class _IntegerRing(Ring):
    name = "ZZ"

    def from_int(self, k):
        return k


class _RationalField(Ring):
    name = "QQ"

    def from_int(self, k):
        return Fraction(k)

    def inv(self, x):
        return 1 / Fraction(x)


class PrimeField(Ring):
    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"GF({p})"

    def from_int(self, k):
        return Fp(k, self.p)

    def is_zero(self, x):
        return x.value == 0

    def inv(self, x):
        return x.inv()


class _IntPolyRing(Ring):
    name = "ZZ[t]"

    def from_int(self, k):
        return IntPoly.const(k)

    def is_zero(self, x):
        return x.is_zero()


ZZ = _IntegerRing()
QQ = _RationalField()
ZT = _IntPolyRing()


@lru_cache(maxsize=None)
def GF(p: int) -> PrimeField:
    return PrimeField(p)


# ---------------------------------------------------------------------------
# minors and determinants


def minors(rows, one=1) -> dict:
    """The nonzero maximal minors of a k x n matrix, {sorted column k-tuple: value}.

    One division-free Laplace pass down the rows: the table of minors on the
    first r rows is expanded along row r + 1, so a minor on columns S + {j}
    gains (-1)^#{s in S : s > j} * minor(S) * rows[r][j].  Only ring operations
    and truth tests touch the entries, so any commutative ring whose elements
    are falsy exactly at zero works, zero divisors included.  ``one`` is the
    ring's unit and the value of the empty minor; an int entry is lifted into
    the ring by its first product with it.
    """
    table = {(): one}
    for row in rows:
        grown: dict = {}
        for cols, m in table.items():
            t = 0  # columns of cols below j
            for j, x in enumerate(row):
                if t < len(cols) and cols[t] == j:
                    t += 1
                    continue
                if not x:
                    continue
                key = cols[:t] + (j,) + cols[t:]
                term = m * x if (len(cols) - t) % 2 == 0 else -(m * x)
                grown[key] = grown[key] + term if key in grown else term
        table = {key: m for key, m in grown.items() if m}
    return table


def det(grid, one=1):
    """Determinant of a square grid: its single maximal minor."""
    return minors(grid, one).get(tuple(range(len(grid))), one - one)


# ---------------------------------------------------------------------------
# integer matrices and Hermite normal form


@dataclass(frozen=True)
class IntMatrix:
    rows: int
    cols: int
    entries: tuple  # tuple of row tuples of ints

    def __post_init__(self):
        assert len(self.entries) == self.rows
        assert all(len(r) == self.cols for r in self.entries)

    @staticmethod
    def from_rows(rows, cols: int | None = None) -> "IntMatrix":
        rows = [tuple(int(x) for x in r) for r in rows]
        if cols is None:
            if not rows:
                raise ValueError("empty matrix needs an explicit column count")
            cols = len(rows[0])
        return IntMatrix(len(rows), cols, tuple(rows))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def row(self, i: int) -> tuple:
        return self.entries[i]


def hermite_normal_form(m: IntMatrix) -> tuple[IntMatrix, int]:
    """Row-style Hermite normal form.

    Convention: row echelon, pivots positive, entries above a pivot reduced
    into [0, pivot).  Zero rows sink to the bottom.  The form is canonical for
    the row space, so lattice equality is equality of forms.
    """
    a = [list(r) for r in m.entries]
    nrows, ncols = m.rows, m.cols
    r = 0
    for c in range(ncols):
        # Euclid on the column entries at or below row r
        while True:
            pivots = [i for i in range(r, nrows) if a[i][c] != 0]
            if not pivots:
                break
            i0 = min(pivots, key=lambda i: abs(a[i][c]))
            a[r], a[i0] = a[i0], a[r]
            done = True
            for i in range(r + 1, nrows):
                if a[i][c]:
                    q = a[i][c] // a[r][c]
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                    if a[i][c]:
                        done = False
            if done:
                break
        if r < nrows and a[r][c] != 0:
            if a[r][c] < 0:
                a[r] = [-x for x in a[r]]
            for i in range(r):
                q = a[i][c] // a[r][c]
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
            r += 1
            if r == nrows:
                break
    h = IntMatrix(nrows, ncols, tuple(tuple(row) for row in a))
    return h, r


def lattice_equal(a, b) -> bool:
    """Whether two lists of integer vectors span the same Z-lattice."""
    a = [tuple(v) for v in a]
    b = [tuple(v) for v in b]
    lengths = {len(v) for v in a} | {len(v) for v in b}
    if len(lengths) > 1:
        raise ValueError(f"vectors of mixed lengths {sorted(lengths)}")
    if not lengths:
        return True
    ncols = lengths.pop()
    return lattice_basis(a, ncols) == lattice_basis(b, ncols)


def lattice_basis(vecs, ncols: int | None = None) -> tuple:
    """The nonzero rows of the Hermite normal form: a canonical basis of the Z-span."""
    vecs = [tuple(v) for v in vecs]
    if not vecs:
        return ()
    h, rank = hermite_normal_form(IntMatrix.from_rows(vecs, ncols))
    return h.entries[:rank]


def lattice_rank(vecs, ncols: int | None = None) -> int:
    return len(lattice_basis(vecs, ncols))


# ---------------------------------------------------------------------------
# polynomial matrices over Z[t]


@dataclass(frozen=True)
class PolyMatrix:
    """A square matrix over Z[t], rows/columns tied to an ordered index set."""

    labels: tuple
    entries: tuple  # tuple of row tuples of IntPoly

    def __post_init__(self):
        n = len(self.labels)
        assert len(self.entries) == n
        assert all(len(r) == n for r in self.entries)

    @property
    def size(self) -> int:
        return len(self.labels)

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def is_unitriangular(self) -> bool:
        one = IntPoly.const(1)
        for i in range(self.size):
            if self.entries[i][i] != one:
                return False
            for j in range(i):
                if not self.entries[i][j].is_zero():
                    return False
        return True

    def matmul(self, other: "PolyMatrix") -> "PolyMatrix":
        assert self.size == other.size
        n = self.size
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                s = IntPoly()
                for k in range(n):
                    s = s + self.entries[i][k] * other.entries[k][j]
                row.append(s)
            rows.append(tuple(row))
        return PolyMatrix(self.labels, tuple(rows))

    def submatrix(self, row_labels, col_labels=None) -> "PolyMatrix | tuple":
        """Rows (and optionally a square relabeling) by label; general case returns raw rows."""
        idx = {lab: i for i, lab in enumerate(self.labels)}
        ri = [idx[lab] for lab in row_labels]
        ci = [idx[lab] for lab in (col_labels if col_labels is not None else row_labels)]
        rows = tuple(tuple(self.entries[i][j] for j in ci) for i in ri)
        if col_labels is None or tuple(row_labels) == tuple(col_labels):
            return PolyMatrix(tuple(row_labels), rows)
        return rows


def invert_unitriangular(m: PolyMatrix) -> PolyMatrix:
    """Inverse of an upper unitriangular matrix over Z[t]; exact back substitution."""
    if not m.is_unitriangular():
        raise ValueError("matrix is not unitriangular for its index order")
    n = m.size
    inv = [[IntPoly.const(1) if i == j else IntPoly() for j in range(n)] for i in range(n)]
    for j in range(n):
        for i in range(j - 1, -1, -1):
            s = IntPoly()
            for k in range(i + 1, j + 1):
                s = s + m.entries[i][k] * inv[k][j]
            inv[i][j] = -s
    return PolyMatrix(m.labels, tuple(tuple(row) for row in inv))
