"""Pluecker generators, degree-2 ideal comparison against the KP two-tensors,
finite-field points of the invariant-subspace schemes G^T and S^T, and
tangent-space probes.

The degree-2 lattices are compared one torus-weight block at a time: every
Pluecker quadric and KP functional is homogeneous for the weight A + B (a
multiset) of its pairs (A, B), so each lattice is the direct sum of its blocks,
the lattices are equal exactly when every block is, and ranks add over blocks.

The Gr(k,n) generators are the k = l incidence generators, symmetrised: a
quadric or functional on Gr(k,n) is the bihomogeneous one on wedge^k (x)
wedge^k read on the diagonal tau (x) tau, where X_A X_B = X_B X_A, so its
ordered pairs (A, B) and (B, A) merge into one unordered pair.  For l = k the
bihomogeneous range d <= l, k + d <= n is the Grassmannian's d <= min(k, n - k).

No generator that is identically 0 is built, and each reaches the lattices once:
- on Gr(k,n), P_{alpha,beta,k} = X_alpha X_beta - X_beta X_alpha symmetrises to
  0, so d < k there; the incidence quadrics keep d <= l;
- when beta[:d] lies in alpha, the one exchange that repeats no index gives
  X_alpha X_beta back with sign +1, which cancels, so P_{alpha,beta,d} = 0;
- an exchange at positions S of alpha repeats an index unless alpha_S holds
  every index of beta[:d] that alpha has and none of beta[d:], so only those S
  are visited;
- in a KP functional only the d-subsets I of C - D count (the others meet D),
  and each sign is one Clifford move per tensor factor;
- a family keeps a generator only when no generator kept before it is +- it
  (``_distinct_up_to_sign``): -q lies in the Z-span of q, so each block's
  span, and its Hermite normal form, are unchanged.

Finite-field points are plain ints reduced mod p; every sign comes from the
exterior-algebra Clifford kernel.  ``_residual`` is the one F_p reduction:
invariance, the tangent spaces of G^T, the S^T systems and the rank all use it.

- G^T is counted by Birkhoff's formula (``gt_count``) where only its size is
  needed; ``gt_points`` lists it from one pass over Gr(k,n)(F_p).
- S^T is solved, not filtered.  ``st_forms`` stacks the rows of every sh_d^T
  (d = 1..k) mod p as functionals on the Pluecker coordinates and reduces them
  to semi-echelon form (``_echelon``, which ``_rank`` shares); ``st_points``
  solves them one Schubert cell at a time.
- Invariance is a gather.  Every operator here (``jordan_matrix``) is 0/1 with
  at most one 1 per row, so T v is v read through a source-index table,
  ``_gather_source(T)``; ``is_invariant`` and ``tangent_dim_gt`` reduce that
  image with ``_residual``.  An operator of any other shape raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product

# lattice_equal and ext_word_on_key are not called here: perfbench/selftest.py
# checks that the tracer rebinds these copies of them
from .exact import _is_prime, lattice_basis, lattice_equal, matmul, minors
from .exterior import ext_word_on_key, sort_with_sign, t_shuffle_matrices
from .fock import _move
from .partitions import partitions_of, transpose


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
    """Reduced row echelon basis of a k-plane in F_p^n; any other rows raise
    ValueError."""

    p: int
    n: int
    rows: tuple  # k row tuples of ints in [0, p)
    pivots: tuple = field(init=False, repr=False, compare=False)  # leading column per row

    def __post_init__(self):
        p, n, rows = self.p, self.n, self.rows
        pivots = []
        for row in rows:
            if len(row) != n or min(row) < 0 or max(row) >= p:
                raise ValueError(f"row {row} is not a vector of {n} entries in [0, {p})")
            piv = row.index(1) if 1 in row else 0
            if row[piv] != 1 or any(row[:piv]):
                raise ValueError(f"echelon row {row} does not lead with a 1")
            if pivots and piv <= pivots[-1]:
                raise ValueError(f"pivots {(*pivots, piv)} do not strictly increase")
            pivots.append(piv)
        # the entries are >= 0 and each row has its own 1, so the pivot columns
        # are unit vectors exactly when they hold k in all
        if sum([r[j] for r in rows for j in pivots]) != len(rows):
            raise ValueError(f"pivot columns {tuple(pivots)} are not unit vectors")
        object.__setattr__(self, "pivots", tuple(pivots))

    @property
    def k(self) -> int:
        return len(self.rows)


def _grassmannian_size(p: int, n: int, k: int, max_points: int) -> int:
    """|Gr(k,n)(F_p)|; BudgetError when it exceeds max_points."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    count = gaussian_binomial(n, k, p)
    if count > max_points:
        raise BudgetError(f"Gr({k},{n})(F_{p}) has {count} points, budget {max_points}")
    return count


def enumerate_points(p: int, n: int, k: int, max_points: int = DEFAULT_POINT_BUDGET):
    """Every k-plane in F_p^n exactly once, canonical reduced-echelon order."""
    _grassmannian_size(p, n, k, max_points)
    for pivots in combinations(range(n), k):
        for rows in product(*_cell_rows(pivots, n, p)):
            yield SubspaceBasis(p, n, rows)


def _cell_rows(pivots: tuple, n: int, p: int) -> list:
    """Per row of the Schubert cell of pivots, the echelon rows it can take."""
    out = []
    for piv in pivots:
        cols = [j for j in range(piv + 1, n) if j not in pivots]
        row = [0] * n
        row[piv] = 1
        choices = []
        for values in product(range(p), repeat=len(cols)):
            for j, v in zip(cols, values):
                row[j] = v
            choices.append(tuple(row))
        out.append(choices)
    return out


# ---------------------------------------------------------------------------
# Pluecker vectors


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
    """Each nonzero P_{alpha,beta,d}, d < k, once up to sign, as a dict over
    unordered pairs of k-subsets."""
    return _distinct_up_to_sign(map(_symmetrize, _quadrics(k, k, n, k - 1)))


def incidence_quadrics(k: int, l: int, n: int) -> list:
    """Each nonzero P_{alpha (x) beta, d} once up to sign, as a dict over ordered
    pairs (k-subset, l-subset)."""
    return _distinct_up_to_sign(_quadrics(k, l, n, l))


def _quadrics(k: int, l: int, n: int, top: int):
    """P_{alpha (x) beta, d} over ordered pairs for d <= top, except those with
    beta[:d] inside alpha, which are 0."""
    if not (n >= k >= l >= 0):
        raise ValueError("need n >= k >= l >= 0")
    for alpha in combinations(range(1, n + 1), k):
        for beta in combinations(range(1, n + 1), l):
            inside = 0  # the longest prefix of beta inside alpha
            while inside < l and beta[inside] in alpha:
                inside += 1
            for d in range(inside + 1, top + 1):
                yield _plucker_quadric(alpha, beta, d)


def _plucker_quadric(alpha: tuple, beta: tuple, d: int) -> dict:
    """X_alpha X_beta minus the d-fold exchange sum, with wedge-reordering signs.

    Only the exchanges that repeat no index are built: their positions S of
    alpha hold every index of beta[:d] that alpha has, and none of beta[d:].
    """
    head, tail = beta[:d], beta[d:]
    fixed = tuple(t for t, a in enumerate(alpha) if a in head)
    free = [t for t, a in enumerate(alpha) if a not in beta]
    out = {(alpha, beta): 1}
    for extra in combinations(free, d - len(fixed)):
        positions = sorted(fixed + extra)
        first = list(alpha)
        for t, b in zip(positions, head):
            first[t] = b
        sa, A = sort_with_sign(first)
        sb, B = sort_with_sign([alpha[t] for t in positions] + list(tail))
        out[(A, B)] = out.get((A, B), 0) - sa * sb
    return {key: c for key, c in out.items() if c}


# ---------------------------------------------------------------------------
# degree-2 functionals of the KP two-tensors


def omega_functional(C: tuple, D: tuple, d: int, n: int) -> dict:
    """(e*_C (x) e*_D) composed with Omega_d, over ordered pairs.

    Coefficient of X_A (x) X_B is <e*_C, e_I ^ e_A> <e*_D, psi*_I e_B>
    summed over d-subsets I; C and D are strictly increasing subsets of 1..n.
    """
    for S in (C, D):
        if tuple(S) != tuple(sorted(set(S))) or not set(S) <= set(range(1, n + 1)):
            raise ValueError(f"{S} is not a strictly increasing subset of 1..{n}")
    return _omega_functional(tuple(C), tuple(D), d)


def _omega_functional(C: tuple, D: tuple, d: int) -> dict:
    """omega_functional for valid C and D: I runs over the d-subsets of C - D
    (an I that meets D gives 0), and each sign is one Clifford move per factor,
    psi_I on e_A and psi*_I on e_B."""
    out: dict = {}
    cmask = sum(1 << c for c in C)
    dmask = sum(1 << c for c in D)
    for I in combinations([c for c in C if c not in D], d):
        imask = sum(1 << i for i in I)
        down = I[::-1]
        sign_A, _ = _move(cmask ^ imask, (), down)
        sign_B, _ = _move(dmask | imask, down, ())
        A = tuple(c for c in C if c not in I)
        out[(A, tuple(sorted(I + D)))] = sign_A * sign_B
    return out


def _symmetrize(ordered: dict) -> dict:
    out: dict = {}
    for (A, B), c in ordered.items():
        key = (A, B) if A <= B else (B, A)
        out[key] = out.get(key, 0) + c
        if not out[key]:
            del out[key]
    return out


def _distinct_up_to_sign(dicts) -> list:
    """The nonzero dicts, each dropped when it is +-1 times one kept before it;
    the Z-span is unchanged."""
    seen, out = set(), []
    for q in dicts:
        if q:
            sign = 1 if q[min(q)] > 0 else -1
            key = frozenset((pair, sign * c) for pair, c in q.items())
            if key not in seen:
                seen.add(key)
                out.append(q)
    return out


def omega_quadric_functionals(k: int, n: int) -> list:
    """Each nonzero lambda . omega_d once up to sign, as a dict over unordered
    pairs."""
    return _distinct_up_to_sign(map(_symmetrize, _omega_functionals(k, k, n)))


def omega_bihom_functionals(k: int, l: int, n: int) -> list:
    """Each nonzero (kappa (x) lambda) . Omega_d once up to sign, as a dict over
    ordered pairs."""
    return _distinct_up_to_sign(_omega_functionals(k, l, n))


def _omega_functionals(k: int, l: int, n: int):
    """Each (kappa (x) lambda) . Omega_d over ordered pairs, zero ones included."""
    for d in range(1, min(l, n - k) + 1):
        for C in combinations(range(1, n + 1), k + d):
            for D in combinations(range(1, n + 1), l - d):
                yield _omega_functional(C, D, d)


def vectors_over(index: list, dicts: list) -> list:
    pos = {key: i for i, key in enumerate(index)}
    out = []
    for d in dicts:
        v = [0] * len(index)
        for key, c in d.items():
            v[pos[key]] = c
        out.append(tuple(v))
    return out


def _pair_weight(key: tuple) -> tuple:
    """Torus weight of the pair (A, B): the multiset A + B, sorted."""
    return tuple(sorted(key[0] + key[1]))


def _graded_lattices(plucker: list, omega: list) -> tuple[bool, int, int]:
    """(equal lattices, Pluecker rank, KP rank), one weight block at a time; a
    block's index is the sorted union of the keys that occur in it."""
    blocks: dict = {}
    for side, dicts in enumerate((plucker, omega)):
        for q in dicts:
            blocks.setdefault(_pair_weight(next(iter(q))), ([], []))[side].append(q)
    equal, pl_rank, om_rank = True, 0, 0
    for sides in blocks.values():
        index = sorted({key for qs in sides for q in qs for key in q})
        pl, om = (lattice_basis(vectors_over(index, qs), len(index)) for qs in sides)
        equal, pl_rank, om_rank = equal and pl == om, pl_rank + len(pl), om_rank + len(om)
    return equal, pl_rank, om_rank


def degree2_ideal_equal(k: int, n: int) -> tuple[bool, int, int]:
    """(Pluecker lattice == KP-two-tensor lattice, Pluecker rank, KP rank) inside
    the degree-2 coordinates."""
    return _graded_lattices(plucker_quadrics(k, n), omega_quadric_functionals(k, n))


def incidence_degree2_ideal_equal(k: int, l: int, n: int) -> bool:
    return _graded_lattices(incidence_quadrics(k, l, n), omega_bihom_functionals(k, l, n))[0]


# ---------------------------------------------------------------------------
# integer operators and nilpotency


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


def is_nilpotent(T) -> bool:
    """Whether T^n = 0 for the n x n matrix T."""
    M = T
    for _ in range(len(T) - 1):
        M = matmul(M, T)
    return not any(map(any, M))


# ---------------------------------------------------------------------------
# field points of G^T and S^T


def _residual(v, rows, pivots, p: int) -> list:
    """v (entries in [0, p)) reduced mod p by rows, each 1 at its pivot and 0 at
    the pivots before it; zero exactly when v lies in the span of rows."""
    for r, piv in zip(rows, pivots):
        c = v[piv]
        if c:
            v = [(x - c * y) % p for x, y in zip(v, r)]
    return v


def _echelon(vectors, p: int, stop: int | None = None) -> tuple:
    """(rows, pivots) spanning the vectors over F_p in semi-echelon form: each
    vector's residual against the rows kept before is kept, scaled to 1 at its
    first nonzero entry, when it is not zero.  A row with pivot stop is the last
    one taken, and the vectors after it are not read."""
    rows, pivots = [], []
    for v in vectors:
        r = _residual(v, rows, pivots, p)
        piv = next((j for j, x in enumerate(r) if x), None)
        if piv is not None:
            inv = pow(r[piv], p - 2, p)
            rows.append([x * inv % p for x in r])
            pivots.append(piv)
            if piv == stop:
                break
    return rows, pivots


def _rank(vectors, p: int) -> int:
    """Rank over F_p."""
    return len(_echelon(vectors, p)[0])


def _gather_source(T) -> tuple:
    """src with (T v)[i] = v[src[i]], or 0 where src[i] is None, for an n x n
    0/1 matrix T with at most one 1 per row; any other T raises ValueError."""
    src = []
    for row in T:
        ones = [j for j, x in enumerate(row) if x]
        if len(ones) > 1 or any(row[j] != 1 for j in ones):
            raise ValueError(f"operator row {row} is not 0/1 with at most one 1")
        src.append(ones[0] if ones else None)
    return tuple(src)


def is_invariant(basis: SubspaceBasis, src) -> bool:
    """Whether T maps the row space of basis into itself, for T given as
    _gather_source(T)."""
    p, rows, pivots = basis.p, basis.rows, basis.pivots
    for row in rows:
        if any(_residual([0 if j is None else row[j] for j in src], rows, pivots, p)):
            return False
    return True


def st_forms(T, k: int, p: int) -> list:
    """The linear forms that cut S^T out of Gr(k,n) over F_p: every row of every
    sh_d^T (d = 1..k), a functional on the Pluecker coordinates, reduced to
    semi-echelon form and stored sparsely as ((j, coefficient), ...), j the
    position of a k-subset in the sorted k-subsets of 1..n."""
    keys = list(combinations(range(1, len(T) + 1), k))
    pos = {key: i for i, key in enumerate(keys)}
    functionals = []
    for cols in t_shuffle_matrices(T, k):
        by_row: dict = {}
        for B, col in cols.items():
            for A, c in col.items():
                by_row.setdefault(A, [0] * len(keys))[pos[B]] = c % p
        functionals.extend(by_row.values())
    rows, _ = _echelon(functionals, p)
    return [tuple((j, c) for j, c in enumerate(r) if c) for r in rows]


def gt_points(Ts, k: int, p: int, max_points: int = DEFAULT_POINT_BUDGET) -> list:
    """The T-invariant points of Gr(k,n)(F_p), one list per n x n operator T in
    Ts, in enumeration order, from a single pass over Gr(k,n)(F_p)."""
    ops = [_gather_source(T) for T in Ts]
    out = [[] for _ in ops]
    for U in enumerate_points(p, len(Ts[0]), k, max_points):
        for src, pts in zip(ops, out):
            if is_invariant(U, src):
                pts.append(U)
    return out


def gt_count(blocks, k: int, q: int) -> int:
    """|G^T(F_q)| in Gr(k,n) for T nilpotent of Jordan type lam = blocks: the sum
    over submodule types mu inside lam, |mu| = k, of Birkhoff's count prod_i
    q^(mu'_(i+1) (lam'_i - mu'_i)) [lam'_i - mu'_(i+1) choose mu'_i - mu'_(i+1)]_q."""
    lam = transpose(tuple(sorted(blocks, reverse=True)))
    total = 0
    for mu in map(transpose, partitions_of(k)):
        if len(mu) > len(lam) or any(m > l for m, l in zip(mu, lam)):
            continue  # mu' is not inside lam', so mu is not inside lam
        mu += (0,) * (len(lam) + 1 - len(mu))
        term = 1
        for i, l in enumerate(lam):
            term *= q ** (mu[i + 1] * (l - mu[i])) * gaussian_binomial(
                l - mu[i + 1], mu[i] - mu[i + 1], q)
        total += term
    return total


def st_points(Ts, k: int, p: int):
    """(i, U) for each point U of S^T(F_p) in Gr(k,n) of each operator Ts[i].

    In a Schubert cell the first echelon row x has the most free entries, and
    X_C = sum_t (-1)^t x_(C_t) M(C - C_t), M the (k-1)-minors of the other rows.
    So once those rows are fixed, the forms are affine in x's free entries.
    """
    n = len(Ts[0])
    forms = [st_forms(T, k, p) for T in Ts]
    if k == 0:  # the zero subspace, whose one Pluecker coordinate is 1
        yield from ((i, SubspaceBasis(p, n, ())) for i, f in enumerate(forms) if not f)
        return
    keys = list(combinations(range(n), k))
    # per k-subset C: (C_t, C - C_t, (-1)^t) for each position t
    drops = [[(c, C[:t] + C[t + 1:], (-1) ** t) for t, c in enumerate(C)] for C in keys]
    for pivots in keys:
        slot = {c: s for s, c in enumerate(j for j in range(pivots[0] + 1, n) if j not in pivots)}
        m = slot[pivots[0]] = len(slot)  # x's leading 1: the constant term
        entry = [slot.get(j) for j in range(n)]
        # per operator and form: (slot of x, (k-1)-subset, signed coefficient)
        systems = [[[(slot[c], S, a * e) for j, a in form for c, S, e in drops[j] if c in slot]
                    for form in f] for f in forms]
        for others in product(*_cell_rows(pivots[1:], n, p)):
            get = minors(others).get
            for i, system in enumerate(systems):
                for x in _affine_solutions(_affine_forms(system, get, m, p), m, p):
                    x = tuple(0 if s is None else x[s] for s in entry)
                    yield i, SubspaceBasis(p, n, (x, *others))


def _affine_forms(system, get, m: int, p: int):
    """Each form of a cell's system as a vector over x's slots 0..m, slot m the
    constant term, at the other rows' (k-1)-minors ``get``."""
    for terms in system:
        v = [0] * (m + 1)
        for s, S, a in terms:
            v[s] += a * get(S, 0)
        yield [c % p for c in v]


def _affine_solutions(vectors, m: int, p: int):
    """Every x with x[m] = 1 and v . x = 0 mod p for each v in vectors; the
    vectors are read up to the first that leaves 0 = c with c nonzero."""
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


def fpoints_rows(types, k: int, p: int, max_points: int = DEFAULT_POINT_BUDGET) -> list:
    """One report row per Jordan type in types, all of size n: counts of Gr, G^T
    and S^T points over F_p, and whether S^T(F_p) = G^T(F_p), which holds exactly
    when every S^T point is T-invariant and there are gt_count of them."""
    n = sum(types[0])
    gr = _grassmannian_size(p, n, k, max_points)
    Ts = [jordan_matrix(blocks) for blocks in types]
    srcs = [_gather_source(T) for T in Ts]
    st = [0] * len(Ts)
    invariant = [True] * len(Ts)
    for i, U in st_points(Ts, k, p):
        st[i] += 1
        invariant[i] = is_invariant(U, srcs[i]) and invariant[i]
    gt = [gt_count(blocks, k, p) for blocks in types]
    return [{"p": p, "n": n, "k": k, "gr": gr, "gt": gt[i], "st": st[i],
             "equal": invariant[i] and st[i] == gt[i]} for i in range(len(Ts))]


# ---------------------------------------------------------------------------
# tangent spaces of G^T at a field point


def tangent_dim_gt(U: SubspaceBasis, T) -> int:
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
