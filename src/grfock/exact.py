"""Exact arithmetic kernel: Z[t] polynomials with division by a monic divisor
(``divmod_monic``), their text (``poly_repr``) and the cyclotomic polynomials,
the one sparse arithmetic (``SparseVector``, of the exterior tensors, the Fock
vectors and the symmetric-function polynomials ``SymPoly``, ``HPoly`` and
``_HSeries``), the one determinant and minor routine (``minors``, with ``det``
its entry on a square grid), integer matrices with Hermite normal form, and
``matmul``.  A Z[t] value is a trimmed coefficient tuple, low degree first,
with no trailing zeros and () for zero; ``invert_unitriangular`` inverts a
matrix of them in Z[t] or, through symfunc's reduction mod Phi_n, in Z[zeta_n],
where a value is a residue of degree below phi(n).  The tests compute in Z[t]
with the ring ``ZtPoly`` of tests/oracles.py, which equals the tuple of its
coefficients.  Outside Hermite normal form a matrix is a tuple of row tuples.

The scalar contract.  A scalar is an int, a Fraction, one of the
symmetric-function polynomials or any other exact type with ring arithmetic;
there is no ring descriptor.  Plain ints lift into Fractions and the like
through all their arithmetic, so 0, 1 and -1 serve as zero, unit and sign
there.  Into ``SymPoly`` and ``HPoly`` an int lifts only through ``*``, as a
scale, and into ``_HSeries`` not at all; the ``+``, ``-`` and ``==`` of all
three take only their own type.  That is enough for ``minors`` and ``det``
given a unit ``one`` of the entry type: every minor starts at ``one`` and grows
by products with entries, and ``one`` also gives the empty minor and the zero
determinant their type, which is the one scalar role left.  Two different
non-int scalar types do not mix: their sum and their product raise TypeError.
Every scalar is falsy exactly at zero.  Equality does not lift: compare a
scalar with one of its own type.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul

from . import Record


# ---------------------------------------------------------------------------
# primes


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# univariate integer polynomials in t, as trimmed coefficient tuples


def _trim(coeffs) -> tuple:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def divmod_monic(a: tuple, divisor: tuple) -> tuple[tuple, tuple]:
    """Quotient and remainder of a by a monic divisor; exact over Z."""
    if not divisor or divisor[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(a)
    d = len(divisor) - 1
    quot = [0] * max(0, len(rem) - d)
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if c:
            quot[i - d] = c
            for j, b in enumerate(divisor):
                rem[i - d + j] -= c * b
    return _trim(quot), _trim(rem)


def poly_repr(coeffs: tuple) -> str:
    """The polynomial as text in t, low degree first, as in 1 - t + 2*t^3."""
    if not coeffs:
        return "0"
    parts = []
    for i, c in enumerate(coeffs):
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
def cyclotomic_polynomial(n: int) -> tuple:
    """The n-th cyclotomic polynomial, via division of t^n - 1 by the proper-divisor factors."""
    if n < 1:
        raise ValueError("n must be >= 1")
    num = (-1,) + (0,) * (n - 1) + (1,)
    for d in range(1, n):
        if n % d == 0:
            q, r = divmod_monic(num, cyclotomic_polynomial(d))
            if r:
                raise ArithmeticError(f"Phi_{d} does not divide t^{n} - 1 over the smaller factors")
            num = q
    return num


# ---------------------------------------------------------------------------
# sparse vectors


class SparseVector:
    """The arithmetic of a table ``coeffs`` (key -> nonzero scalar): sum,
    difference, negation, ``scale``, ``==`` and truth, false exactly at zero.
    The fields that ``_space_fields`` names fix the space the vector lies in:
    vectors of one type add only within one space, and never across types.
    Every result is built through the subclass's constructor, which takes those
    fields and ``coeffs`` by name, validates the keys and drops the zero
    coefficients.  A subclass that is also a scalar adds its own product."""

    _space_fields: tuple = ()

    def _space(self) -> tuple:
        return tuple([getattr(self, name) for name in self._space_fields])

    def _like(self, coeffs):
        """A vector of this type and space with the given table."""
        space = {name: getattr(self, name) for name in self._space_fields}
        return type(self)(coeffs=coeffs, **space)

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self._space() != other._space():
            raise ValueError(f"{type(self).__name__} in {self._space()} plus one in {other._space()}")
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out[key] + c if key in out else c
        return self._like(out)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        return self._like({key: c * v for key, v in self.coeffs.items()})

    def __eq__(self, other):
        return (type(other) is type(self) and self._space() == other._space()
                and self.coeffs == other.coeffs)


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


class IntMatrix(Record):
    """A rows x cols integer matrix, as a tuple of row tuples of ints."""

    _fields = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple):
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError(f"entries do not form a {rows} x {cols} matrix")
        vars(self).update(rows=rows, cols=cols, entries=entries)

    @staticmethod
    def from_rows(rows, cols: int | None = None) -> "IntMatrix":
        rows = [tuple(int(x) for x in r) for r in rows]
        if cols is None:
            if not rows:
                raise ValueError("empty matrix needs an explicit column count")
            cols = len(rows[0])
        return IntMatrix(len(rows), cols, tuple(rows))


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
# matrices as tuples of row tuples


def matmul(A, B, zero=0) -> tuple:
    """The product A B of two matrices given as sequences of rows.

    Entries may come from any ring; ``zero`` is that ring's zero and starts
    every sum, so an entry is a ring element even where A or B holds ints.
    """
    widths = set(map(len, B))
    if len(widths) > 1 or any(len(row) != len(B) for row in A):
        raise ValueError(f"rows of lengths {sorted(set(map(len, A)))} "
                         f"times {len(B)} rows of lengths {sorted(widths)}")
    columns = tuple(zip(*B))
    return tuple(tuple(sum(map(mul, row, col), zero) for col in columns) for row in A)


def _dot(xs, ys) -> list:
    """Coefficients of sum x y over pairs of coefficient tuples; zeros cost nothing."""
    out = []
    for x, y in zip(xs, ys):
        if x and y:
            if len(out) < len(x) + len(y) - 1:
                out.extend([0] * (len(x) + len(y) - 1 - len(out)))
            for i, a in enumerate(x):
                if a:
                    for j, b in enumerate(y, i):
                        out[j] += a * b
    return out


def invert_unitriangular(rows, keep=None, reduce=_trim) -> tuple:
    """Rows ``keep`` (indices; every row when None) of the inverse C of an upper
    unitriangular matrix K of coefficient tuples, by forward substitution: C[i][i]
    = 1 and C[i][j] = -sum_{i<=m<j} C[i][m] K[m][j], each sum reduced by ``reduce``."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError(f"rows of lengths {sorted(set(map(len, rows)))} do not form a {n} x {n} matrix")
    if any(rows[i][i] != (1,) or any(rows[i][:i]) for i in range(n)):
        raise ValueError("matrix is not unitriangular for its index order")
    keep = range(n) if keep is None else tuple(keep)
    if any(not 0 <= i < n for i in keep):
        raise ValueError(f"row indices {sorted(keep)} outside 0..{n - 1}")
    cols = list(zip(*rows))
    out = []
    for i in keep:
        row = [()] * i + [(1,)]
        for j in range(i + 1, n):
            row.append(reduce(-c for c in _dot(row[i:j], cols[j][i:j])))
        out.append(tuple(row))
    return tuple(out)
