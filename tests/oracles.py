"""Oracles that more than one test module compares the package against, the
pass over Gr(k,n)(F_p) and the per-point tangent solve that the (type, cotype)
strata replaced, the per-point S^T filter that the cell-wise solve replaced,
the slot-vector form of that solve that the per-cell templates replaced,
the shuffle's filter over bead subsets that the legal abacus moves replaced,
the n-jumps as Maya squeezes and their components by depth-first search that
the moves on beta-numbers and the union-find replaced,
the per-triple degree-2 generators, grouped by weight, that the package's
blocks per standardized weight replaced, the charged strip pass over
semistandard tableaux that the vertex operator replaced, the prime-field scalar
that the tests over F_p build, the ring arithmetic of Z[t] that the tests
compute with, and a corrupted Kostka-Foulkes matrix that the klmw and
command-line tests both feed in."""

from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations, product

from grfock.exact import divmod_monic, minors, poly_repr
from grfock.exterior import ExtTensor, ext_word_on_key, sort_with_sign
from grfock.fock import _apply
from grfock.grassmann import (SubspaceBasis, _affine_forms, _cell_rows, _echelon, _gather_source,
                              _residual, enumerate_points, is_invariant, st_forms)
from grfock.partitions import (maya_from_beads, maya_of_partition, partition_of_maya,
                               partitions_of, weight_class)
from grfock.symfunc import KFMatrices, _charge_step, kf_transition_matrices


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
# the ring Z[t]; the package's Z[t] values are plain coefficient tuples


class ZtPoly:
    """A polynomial over Z in t with the ring arithmetic of Z[t]: sum,
    difference, negation and product, with ints lifting into it, plus division
    by a monic divisor, evaluation and degree.  ``coeffs`` is the package's form
    of a Z[t] value, the trimmed coefficient tuple low degree first, and a
    ZtPoly equals that tuple, so the package's results compare with it."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def const(c: int) -> "ZtPoly":
        return ZtPoly((c,))

    @staticmethod
    def t(power: int = 1, coeff: int = 1) -> "ZtPoly":
        return ZtPoly((0,) * power + (coeff,))

    @staticmethod
    def _lift(other):
        if isinstance(other, int):
            return ZtPoly((other,))
        return other if isinstance(other, ZtPoly) else None

    @property
    def degree(self) -> int:
        # degree of the zero polynomial is -1 by convention
        return len(self.coeffs) - 1

    def __eq__(self, other):
        if isinstance(other, ZtPoly):
            other = other.coeffs
        return self.coeffs == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return poly_repr(self.coeffs)

    def __call__(self, x):
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def divmod_monic(self, divisor) -> tuple["ZtPoly", "ZtPoly"]:
        """Quotient and remainder by a monic divisor, a ZtPoly or a tuple."""
        divisor = divisor.coeffs if isinstance(divisor, ZtPoly) else divisor
        return tuple(map(ZtPoly, divmod_monic(self.coeffs, divisor)))

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
        return ZtPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return ZtPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if not self.coeffs or not o.coeffs:
            return ZtPoly()
        out = [0] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    out[i + j] += a * b
        return ZtPoly(out)

    __rmul__ = __mul__


def zt_matrix(rows) -> tuple:
    """A matrix of the package's coefficient tuples with ZtPoly entries, for
    the generic product ``exact.matmul``."""
    return tuple(tuple(map(ZtPoly, row)) for row in rows)


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
# the shuffle's filter over bead subsets, which the legal abacus moves replaced


def _candidate_beads(m, n: int, d: int, leftward: bool) -> list:
    """Beads that can take part in a d-fold move by n slots (chains included)."""
    if leftward:
        limit = len(m.mu) + n * d + 2  # chain tops sit within n*d of the lowest hole
        return [m.bead(k) for k in range(1, limit + 1)]
    hi = m.tail_start()  # rightward: the topmost moved bead must land on a hole
    out = []
    k = 1
    while m.bead(k) < hi:
        out.append(m.bead(k))
        k += 1
    return out


def shuffle_by_filter(n: int, d: int, v, offset: int):
    """The word psi_{j_d+o} ... psi_{j_1+o} psi*_{j_1} ... psi*_{j_d} summed
    over every d-subset of the candidate beads whose landing slots hold no bead
    that stays: ``shuffle`` at offset n, ``shuffle_adjoint`` at -n, and
    ``alpha(d)`` as n = d, d = 1 at offset -d."""
    leftward = offset < 0

    def moves(m, mask, lo):
        bits = [1 << (b - lo) for b in _candidate_beads(m, n, d, leftward)]
        for subset in combinations(bits, d):
            moved = sum(subset)
            landing = moved >> n if leftward else moved << n
            if (mask ^ moved) & landing:  # a target is a bead that stays
                continue
            js = [bit.bit_length() - 1 for bit in subset]
            yield js[::-1], [j + offset for j in js]

    return _apply(v, n * d, moves)


# ---------------------------------------------------------------------------
# the n-jumps as Maya squeezes, and their components by depth-first search,
# which the moves on beta-numbers and the union-find replaced


def n_jump_raises_on_maya(p, n: int) -> tuple:
    """Partitions one n-jump above p.

    A move picks bead indices a < b of Maya(p) with i_a + n <= i_b, target
    slots i_a + n and i_b - n distinct and unoccupied (apart from the moved
    beads), and squeezes the pair together.  A valid lower bead i_b sits below
    tail_start + n (its target must be a hole or the vacated upper slot), so a
    finite window sees every move.
    """
    m = maya_of_partition(p)
    hi = m.tail_start() + n
    window = []
    k = 1
    while m.bead(k) < hi:
        window.append(m.bead(k))
        k += 1
    bead_set = set(window)
    out = set()
    for ai in range(len(window)):
        for bi in range(ai + 1, len(window)):
            ia, ib = window[ai], window[bi]
            if ia + n > ib:
                continue
            ta, tb = ia + n, ib - n
            if ta == tb or {ta, tb} == {ia, ib}:
                continue
            others = bead_set - {ia, ib}
            if ta in others or tb in others:
                continue
            m2 = maya_from_beads(sorted(others | {ta, tb}), hi)
            out.add(partition_of_maya(m2))
    out.discard(p)
    return tuple(sorted(out, reverse=True))


def n_dominance_components_by_search(n: int, total: int) -> dict:
    """Connected components of the n-jump graph, by depth-first search, vs
    (n-core, size) classes; each class is scanned against every component."""
    parts = list(partitions_of(total))
    adj = {p: set() for p in parts}
    for p in parts:
        for q in n_jump_raises_on_maya(p, n):
            adj[p].add(q)
            adj[q].add(p)
    components = []
    seen = set()
    for p in parts:
        if p in seen:
            continue
        comp = set()
        stack = [p]
        while stack:
            x = stack.pop()
            if x in comp:
                continue
            comp.add(x)
            stack.extend(adj[x] - comp)
        seen |= comp
        components.append(frozenset(comp))
    classes: dict = {}
    for p in parts:
        classes.setdefault(weight_class(p, n), set()).add(p)
    class_sets = {k: frozenset(v) for k, v in classes.items()}
    split = []
    for wc, members in class_sets.items():
        covering = {comp for comp in components if comp & members}
        if len(covering) != 1:
            split.append({"class": wc, "members": sorted(members), "components": len(covering)})
    return {
        "components": components,
        "classes": class_sets,
        "match": not split and len(components) == len(class_sets),
        "split_classes": split,
    }


# ---------------------------------------------------------------------------
# decomposable tensors


def wedge_of_rows(rows, n, lift=int) -> ExtTensor:
    """row_1 ^ ... ^ row_k as an ExtTensor; coefficients are the k x k minors,
    with the entries lifted into the scalars that ``lift`` makes of an int."""
    coeffs = {tuple(c + 1 for c in cols): m for cols, m in minors(rows, lift(1)).items()}
    return ExtTensor(n, len(rows), coeffs)


# ---------------------------------------------------------------------------
# the points of G^T, and the tangent space of G^T at each


def _rank(vectors, p: int) -> int:
    """Rank over F_p."""
    return len(_echelon(vectors, p)[0])


def gt_points(Ts, k: int, p: int) -> list:
    """The T-invariant points of Gr(k,n)(F_p), one list per n x n operator T in
    Ts, in enumeration order, from a single pass over Gr(k,n)(F_p)."""
    ops = [_gather_source(T) for T in Ts]
    out = [[] for _ in ops]
    for U in enumerate_points(p, len(Ts[0]), k):
        for src, pts in zip(ops, out):
            if is_invariant(U, src):
                pts.append(U)
    return out


def tangent_dim_gt(U, T) -> int:
    """dim of {phi: U -> V/U | Tbar . phi = phi . T|_U} over F_p.

    This is the kernel of the linearization of the invariance condition at U;
    T must be 0/1 with at most one 1 per row and U must be T-invariant.  T|_U
    is the gathered image of U's reduced basis read at its pivots, and Tbar on
    V/U is the residual of T's columns at the non-pivots.
    """
    p, n, k = U.p, U.n, U.k
    q = n - k
    if k == 0 or q == 0:
        return 0
    src = _gather_source(T)
    rows, pivots = U.rows, U.pivots
    nonpivots = [j for j in range(n) if j not in pivots]
    A = []
    for row in rows:
        image = [0 if j is None else row[j] for j in src]
        if any(_residual(image, rows, pivots, p)):
            raise ValueError("subspace is not T-invariant")
        A.append([image[piv] for piv in pivots])
    Tbar = []  # q x q, columns indexed by nonpivot basis vectors
    for j in nonpivots:
        resid = _residual([T[i][j] % p for i in range(n)], rows, pivots, p)
        Tbar.append([resid[b] for b in nonpivots])
    # unknowns phi[i][a]; equations Tbar . phi_i - sum_j A[i][j] phi_j = 0
    equations = []
    for i in range(k):
        for b in range(q):
            row = [0] * (k * q)
            row[i * q:(i + 1) * q] = [Tbar[a][b] for a in range(q)]
            for j in range(k):
                row[j * q + b] = (row[j * q + b] - A[i][j]) % p
            equations.append(row)
    return k * q - _rank(equations, p)


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
# the cell-wise S^T solve on slot vectors


def st_points_by_slots(Ts, k: int, p: int):
    """(i, U) for each point U of S^T(F_p) in Gr(k,n) of each operator Ts[i], in
    grassmann.st_points' order: per Schubert cell, each solution x of the
    affine forms is a vector over x's slots (its free columns, then the
    constant 1), remapped to the echelon row once solved."""
    n = len(Ts[0])
    forms = [st_forms(T, k, p) for T in Ts]
    if k == 0:
        yield from ((i, SubspaceBasis(p, n, ())) for i, f in enumerate(forms) if not f)
        return
    keys = list(combinations(range(n), k))
    drops = [[(c, C[:t] + C[t + 1:], (-1) ** t) for t, c in enumerate(C)] for C in keys]
    for pivots in keys:
        slot = {c: s for s, c in enumerate(j for j in range(pivots[0] + 1, n) if j not in pivots)}
        m = slot[pivots[0]] = len(slot)
        entry = [slot.get(j) for j in range(n)]
        systems = [[[(slot[c], S, a * e) for j, a in form for c, S, e in drops[j] if c in slot]
                    for form in f] for f in forms]
        for others in product(*_cell_rows(pivots[1:], n, p)):
            get = minors(others).get
            for i, system in enumerate(systems):
                for x in _slot_solutions(_affine_forms(system, get, m, p), m, p):
                    x = tuple(0 if s is None else x[s] for s in entry)
                    yield i, SubspaceBasis(p, n, (x, *others))


def _slot_solutions(vectors, m: int, p: int):
    """Every x with x[m] = 1 and v . x = 0 mod p for each v in vectors."""
    rows, pivots = _echelon(vectors, p, stop=m)
    if m in pivots:
        return
    free = [j for j in range(m) if j not in pivots]
    solved = list(zip(rows, pivots))[::-1]  # each row is 0 at the pivots before it
    for values in product(range(p), repeat=len(free)):
        x = [0] * m + [1]
        for j, v in zip(free, values):
            x[j] = v
        for row, piv in solved:
            x[piv] = -sum([a * b for a, b in zip(row, x)]) % p
        yield x


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


def pair_weight(key: tuple) -> tuple:
    """Torus weight of the pair (A, B): the multiset A + B, sorted."""
    return tuple(sorted(key[0] + key[1]))


def standardized_blocks(dicts) -> dict:
    """The nonzero dicts grouped by the weight of their first pair, each group
    relabelled onto 1..m by the order-preserving map from the weight's support
    U: {(m, D, U): dicts}, D the relabelled indices that the weight has twice."""
    out: dict = {}
    for q in filter(None, dicts):
        w = pair_weight(next(iter(q)))
        U = tuple(sorted(set(w)))
        label = {u: i for i, u in enumerate(U, 1)}
        D = tuple(label[u] for u in U if w.count(u) == 2)
        out.setdefault((len(U), D, U), []).append(
            {(tuple(label[a] for a in A), tuple(label[b] for b in B)): c
             for (A, B), c in q.items()})
    return out


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


# ---------------------------------------------------------------------------
# Kostka-Foulkes columns by charge, one pass over the tableaux of a content


def n_of(lam) -> int:
    """n(lambda) = sum (i-1) lam_i, the degree of K_{lam',lam}(t)."""
    return sum(i * part for i, part in enumerate(lam))


def kf_column_by_charge(mu, cap) -> dict:
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
    return {tuple(filter(None, shape)): ZtPoly(c) for shape, c in counts.items()}


# ---------------------------------------------------------------------------
# a Kostka-Foulkes transition matrix with one wrong entry


def kf_with_d00_equal_to_t(total, n, table=None):
    """kf_transition_matrices(total, n, table) with D[0][0] replaced by t.  In
    the default build D lies in Z[zeta_n]: for n = 2 this t is then a value
    left unreduced, for n >= 3 a residue that is not an integer."""
    kf = kf_transition_matrices(total, n, table)
    row0 = ((0, 1),) + kf.D[0][1:]
    return KFMatrices(kf.labels, kf.regular_labels, kf.K, kf.A, kf.B, (row0,) + kf.D[1:])
