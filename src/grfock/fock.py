"""Charge-graded fermion Fock space over an exact scalar ring.

Vectors are finitely supported tables MayaDiagram -> scalar at a fixed charge.
Every signed operation (shuffles, power-sum operators, the monomial operator)
is built by composing the two generator actions psi/psi_star, so there is a
single source of truth for signs.

Charge bookkeeping follows the storage convention i_k = (k-1) + charge - mu_k:
adding a wedge factor (psi) lowers the stored charge by one, removing one
(psi_star) raises it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .exact import Ring, ZZ
from .partitions import (
    MayaDiagram,
    Partition,
    maya_from_beads,
    maya_of_partition,
    partition_of_maya,
    partitions_of,
)


@dataclass
class FockVector:
    """Finitely supported coefficient table over Maya diagrams of one charge."""

    charge: int
    coeffs: dict = field(default_factory=dict)  # MayaDiagram -> scalar
    ring: Ring = ZZ
    dual: bool = False

    def __post_init__(self):
        clean = {}
        for m, c in self.coeffs.items():
            assert m.charge == self.charge, "mixed charges in one vector"
            if not self.ring.is_zero(c):
                clean[m] = c
        self.coeffs = clean

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "FockVector") -> "FockVector":
        assert self.charge == other.charge and self.dual == other.dual
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out[m] + c if m in out else c
        return FockVector(self.charge, out, self.ring, self.dual)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + other.scale(self.ring.from_int(-1))

    def scale(self, c) -> "FockVector":
        return FockVector(self.charge, {m: c * v for m, v in self.coeffs.items()}, self.ring, self.dual)

    def coefficient(self, m: MayaDiagram):
        return self.coeffs.get(m, self.ring.zero)

    def __eq__(self, other):
        return (
            isinstance(other, FockVector)
            and self.charge == other.charge
            and self.dual == other.dual
            and self.coeffs == other.coeffs
        )

    def support_partitions(self) -> tuple:
        return tuple(sorted(partition_of_maya(m) for m in self.coeffs))

    def to_json(self) -> list:
        items = sorted(self.coeffs.items(), key=lambda kv: kv[0].mu)
        return [{"maya": m.to_json(), "coefficient": repr(c)} for m, c in items]


def basis_vector(p: Partition, ring: Ring = ZZ, dual: bool = False) -> FockVector:
    m = maya_of_partition(p)
    return FockVector(0, {m: ring.one}, ring, dual)


# ---------------------------------------------------------------------------
# generator actions on a single diagram


def psi_key(i: int, m: MayaDiagram) -> tuple[int, MayaDiagram] | None:
    """Wedge a factor at slot i: None if occupied, else (sign, diagram).

    The sign is (-1)^(number of beads below i), from normal ordering.
    """
    if m.is_bead(i):
        return None
    sign = -1 if m.beads_below(i) % 2 else 1
    hi = max(m.tail_start(), i + 1)
    below = []
    k = 1
    while m.bead(k) < hi:
        below.append(m.bead(k))
        k += 1
    below.append(i)
    return sign, maya_from_beads(below, hi)


def psi_star_key(i: int, m: MayaDiagram) -> tuple[int, MayaDiagram] | None:
    """Remove the bead at slot i: None if absent, else (sign, diagram).

    The sign is (-1)^(position-1) where position is the 1-based bead index.
    """
    pos = m.bead_index(i) if i < m.tail_start() else i - m.tail_start() + len(m.mu) + 1
    if pos is None:
        return None
    sign = -1 if (pos - 1) % 2 else 1
    hi = max(m.tail_start(), i + 1)
    below = []
    k = 1
    while m.bead(k) < hi:
        below.append(m.bead(k))
        k += 1
    below.remove(i)
    return sign, maya_from_beads(below, hi)


def _apply_key_op(op, v: FockVector, charge_shift: int) -> FockVector:
    out: dict = {}
    for m, c in v.coeffs.items():
        res = op(m)
        if res is None:
            continue
        sign, m2 = res
        val = c * sign
        out[m2] = out[m2] + val if m2 in out else val
    return FockVector(v.charge + charge_shift, out, v.ring, v.dual)


def psi(i: int, v: FockVector) -> FockVector:
    return _apply_key_op(lambda m: psi_key(i, m), v, -1)


def psi_star(i: int, v: FockVector) -> FockVector:
    return _apply_key_op(lambda m: psi_star_key(i, m), v, +1)


CliffordWord = tuple  # of (index, star) pairs, leftmost factor first


def apply_word(word: CliffordWord, v: FockVector) -> FockVector:
    """Apply a product of generators; the rightmost factor acts first."""
    for index, star in reversed(word):
        v = psi_star(index, v) if star else psi(index, v)
        if v.is_zero():
            return v
    return v


def _word_on_key(word: CliffordWord, m: MayaDiagram) -> tuple[int, MayaDiagram] | None:
    sign = 1
    for index, star in reversed(word):
        res = psi_star_key(index, m) if star else psi_key(index, m)
        if res is None:
            return None
        s, m = res
        sign *= s
    return sign, m


def _accumulate(out: dict, m: MayaDiagram, val):
    out[m] = out[m] + val if m in out else val


# ---------------------------------------------------------------------------
# shuffle operators and the power-sum operators


def _move_word(sources, offset: int) -> CliffordWord:
    """The word psi_{j_d+o} ... psi_{j_1+o} psi*_{j_1} ... psi*_{j_d} for sorted sources."""
    js = sorted(sources)
    creators = [(j + offset, False) for j in reversed(js)]
    annihilators = [(j, True) for j in js]
    return tuple(creators + annihilators)


def _candidate_beads(m: MayaDiagram, n: int, d: int, leftward: bool) -> list:
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


def _shuffle_apply(n: int, d: int, v: FockVector, offset: int) -> FockVector:
    out: dict = {}
    leftward = offset < 0
    for m, c in v.coeffs.items():
        for subset in combinations(_candidate_beads(m, n, d, leftward), d):
            res = _word_on_key(_move_word(subset, offset), m)
            if res is None:
                continue
            sign, m2 = res
            _accumulate(out, m2, c * sign)
    return FockVector(v.charge, out, v.ring, v.dual)


def shuffle(n: int, d: int, v: FockVector) -> FockVector:
    """Move d beads right by n with Clifford signs (degree drops by n*d)."""
    if n < 2 or d < 1:
        raise ValueError("need n >= 2 and d >= 1")
    return _shuffle_apply(n, d, v, +n)


def shuffle_adjoint(n: int, d: int, v: FockVector) -> FockVector:
    """Move d beads left by n with Clifford signs (degree rises by n*d)."""
    if n < 2 or d < 1:
        raise ValueError("need n >= 2 and d >= 1")
    return _shuffle_apply(n, d, v, -n)


def alpha(d: int, v: FockVector) -> FockVector:
    """Single-bead left shift by d: sum_j psi_{j-d} psi*_j."""
    if d < 1:
        raise ValueError("need d >= 1")
    out: dict = {}
    for m, c in v.coeffs.items():
        for j in _candidate_beads(m, d, 1, leftward=True):
            res = _word_on_key(((j - d, False), (j, True)), m)
            if res is None:
                continue
            sign, m2 = res
            _accumulate(out, m2, c * sign)
    return FockVector(v.charge, out, v.ring, v.dual)


# ---------------------------------------------------------------------------
# the monomial-symmetric-function operator M


def _distinct_placements(beads, parts):
    """Assignments of the multiset `parts` onto distinct beads, one per unordered placement."""
    distinct = sorted(set(parts), reverse=True)
    counts = {p: parts.count(p) for p in distinct}

    def rec(i, remaining):
        if i == len(distinct):
            yield ()
            return
        part = distinct[i]
        for chosen in combinations(remaining, counts[part]):
            rest = [b for b in remaining if b not in chosen]
            for tail in rec(i + 1, rest):
                yield tuple((b, part) for b in chosen) + tail

    yield from rec(0, list(beads))


def monomial_operator(lam: Partition, v: FockVector) -> FockVector:
    """The operator M(m_lam): multi-bead left shifts over injective placements.

    Each unordered placement of the parts of lam onto distinct beads is summed
    once, which realizes the division by the stabilizer order exactly over Z.
    """
    lam = tuple(lam)
    if not lam:
        return v
    out: dict = {}
    for m, c in v.coeffs.items():
        # any surviving multi-move keeps bead indices within sum(lam) of the prefix
        limit = len(m.mu) + sum(lam) + 2
        cands = [m.bead(k) for k in range(1, limit + 1)]
        bead_window = set(cands)
        tail = cands[-1] + 1
        for placement in _distinct_placements(cands, list(lam)):
            removed = {b for b, _ in placement}
            # each target must be a hole or a slot being vacated
            dead = False
            for b, part in placement:
                t = b - part
                if t not in removed and (t in bead_window or t >= tail):
                    dead = True
                    break
            if dead:
                continue
            # fixed representative word: psi_{i_l - a_l} ... psi_{i_1 - a_1} psi*_{i_1} ... psi*_{i_l}
            pairs = sorted(placement)  # by bead; any single representative per orbit works
            js = [b for b, _ in pairs]
            creators = [(b - part, False) for b, part in reversed(pairs)]
            annihilators = [(b, True) for b in js]
            res = _word_on_key(tuple(creators + annihilators), m)
            if res is None:
                continue
            sign, m2 = res
            _accumulate(out, m2, c * sign)
    return FockVector(v.charge, out, v.ring, v.dual)


def multiply_p_times_m(s: int, lam: Partition) -> dict:
    """Expansion of p_s * m_lam in the monomial basis, straight from the
    multiplication rule: add a part s, or grow an existing part t to s+t."""
    lam = tuple(lam)
    out: dict = {}
    mult = {}
    for part in lam:
        mult[part] = mult.get(part, 0) + 1

    def add(partition, coeff):
        out[partition] = out.get(partition, 0) + coeff

    grown = tuple(sorted(lam + (s,), reverse=True))
    add(grown, mult.get(s, 0) + 1)
    for t in sorted(set(lam)):
        rest = list(lam)
        rest.remove(t)
        new = tuple(sorted(rest + [s + t], reverse=True))
        add(new, mult.get(s + t, 0) + 1)
    return out


# ---------------------------------------------------------------------------
# pairing and matrices


def pairing(w: FockVector, v: FockVector):
    """<w, v> for a dual vector w and a primal vector v of the same charge."""
    assert w.dual and not v.dual
    assert w.charge == v.charge
    ring = v.ring
    total = ring.zero
    for m, c in w.coeffs.items():
        if m in v.coeffs:
            total = total + c * v.coeffs[m]
    return total


def operator_matrix(op, degree_in: int, degree_out: int, ring: Ring = ZZ, dual: bool = False):
    """Matrix of op between charge-0 graded pieces, columns/rows labeled by partitions."""
    cols = partitions_of(degree_in)
    rows = partitions_of(degree_out)
    row_index = {p: i for i, p in enumerate(rows)}
    mat = []
    for p in cols:
        image = op(basis_vector(p, ring, dual))
        col = [ring.zero] * len(rows)
        for m, c in image.coeffs.items():
            col[row_index[partition_of_maya(m)]] = c
        mat.append(col)
    return rows, cols, mat
