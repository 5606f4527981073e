"""Charge-graded fermion Fock space over exact scalars.

Vectors are finitely supported tables MayaDiagram -> scalar at a fixed charge.
Every signed operation (psi/psi_star, the shuffles, alpha and the monomial
operator) runs on one bitmask kernel, ``_move``.  It is the
exterior algebra's kernel too, and so the single source of Clifford signs.
Inside a window of slots [lo, hi), a diagram is an int whose bit i - lo marks
a bead at slot i (slots below lo are holes, slots from hi up beads), and psi_i
sets that bit, psi*_i clears it, each with sign (-1)^(popcount of the bits
below it).  MayaDiagram stays the public type.

Charge bookkeeping follows the storage convention i_k = (k-1) + charge - mu_k:
adding a wedge factor (psi) lowers the stored charge by one, removing one
(psi_star) raises it.

The shuffles and alpha run only the legal moves of the n-abacus (James & Kerber,
The Representation Theory of the Symmetric Group, 1981): on each runner (the
slots of one residue mod n) a set of beads moves left by n exactly when it meets
each run of consecutive beads in a bottom segment, and right by n in a top one.

A paper claim that only tier-1 pins (tests/test_fock.py): boson-fermion
multiplicativity, through ``monomial_operator`` and ``multiply_p_times_m``
(``test_monomial_operator_is_multiplicative``).

The oracle for the generators, the shuffles and alpha composes psi and psi*
word by word on the bead list of one diagram; it lives in tests/test_fock.py,
and the bead lookups it uses in tests/oracles.py.
"""

from __future__ import annotations

from itertools import combinations

from .exact import SparseVector
from .partitions import (
    MayaDiagram,
    Partition,
    maya_from_beads,  # unused here; perfbench/selftest.py checks the traced binding
    maya_of_partition,
    multiplicities,
)


class FockVector(SparseVector):
    """Finitely supported coefficient table over Maya diagrams of one charge."""

    _space_fields = ("charge", "dual")

    def __init__(self, charge: int, coeffs: dict | None = None, dual: bool = False):
        coeffs = coeffs or {}  # MayaDiagram -> scalar
        for m in coeffs:
            if m.charge != charge:
                raise ValueError(f"diagram of charge {m.charge} in a charge-{charge} vector")
        self.charge, self.dual = charge, dual
        self.coeffs = coeffs if all(coeffs.values()) else {m: c for m, c in coeffs.items() if c}


def basis_vector(p: Partition, dual: bool = False) -> FockVector:
    return FockVector(0, {maya_of_partition(p): 1}, dual)


# ---------------------------------------------------------------------------
# the bitmask kernel


def _move(mask: int, sources, targets) -> tuple[int, int] | None:
    """Clear the bits `sources`, then set the bits `targets`, one at a time in
    the order given: (sign, mask), or None if a source is clear or a target set.

    psi*_i clears bit i and psi_i sets it, each with sign (-1)^(beads below i),
    the parity of the bits below it.  Every Clifford sign, in the Fock space
    and in the exterior algebra (``exterior``, where bit i is index i), arises
    here.
    """
    odd = 0
    for b in sources:
        bit = 1 << b
        if not mask & bit:
            return None
        mask ^= bit
        odd ^= (mask & (bit - 1)).bit_count()
    for b in targets:
        bit = 1 << b
        if mask & bit:
            return None
        odd ^= (mask & (bit - 1)).bit_count()
        mask |= bit
    return (-1 if odd & 1 else 1), mask


def _apply(v: FockVector, reach: int, moves, charge_shift: int = 0, slot=None) -> FockVector:
    """Sum of c * (the move on m) over the terms c m of v and the (sources,
    targets) bit offsets that moves(m, mask, lo) yields.

    The window holds the beads of v below its tails, `reach` slots either side
    (two more above, for the monomial operator's candidates) and `slot`.  Each diagram
    becomes a mask once; each distinct nonzero output becomes a diagram once,
    in the order the outputs first appear.
    """
    charge = v.charge + charge_shift
    lo, hi = (None, None) if slot is None else (slot, slot + 1)
    for m in v.coeffs:
        first, tail = m.bead(1) - reach, m.tail_start() + reach + 2
        if lo is None or first < lo:
            lo = first
        if hi is None or tail > hi:
            hi = tail
    out: dict = {}
    for m, c in v.coeffs.items():
        tail = m.tail_start()
        mask = ((1 << (hi - tail)) - 1) << (tail - lo)
        for k, part in enumerate(m.mu):
            mask |= 1 << (k + m.charge - part - lo)
        for sources, targets in moves(m, mask, lo):
            res = _move(mask, sources, targets)
            if res is not None:
                sign, m2 = res
                val = c * sign
                out[m2] = out[m2] + val if m2 in out else val
    coeffs = {}
    full = (1 << (hi - lo)) - 1
    for mask, c in out.items():
        if c:  # bits from tail up are set and bit tail - 1 is clear, so no mu_k is 0
            tail = (full & ~mask).bit_length()
            beads = [b for b in range(tail) if mask >> b & 1]
            k = tail - len(beads)  # the diagram's charge - lo; mu_k = (k-1) + charge - bead k
            coeffs[MayaDiagram(lo + k, tuple([k + i - b for i, b in enumerate(beads)]))] = c
    return FockVector(charge, coeffs, v.dual)


# ---------------------------------------------------------------------------
# the generators


def psi(i: int, v: FockVector) -> FockVector:
    """Wedge a factor at slot i; the sign is (-1)^(number of beads below i)."""
    return _apply(v, 0, lambda m, mask, lo: (((), (i - lo,)),), -1, i)


def psi_star(i: int, v: FockVector) -> FockVector:
    """Remove the bead at slot i; the sign is (-1)^(number of beads below i)."""
    return _apply(v, 0, lambda m, mask, lo: (((i - lo,), ()),), +1, i)


def _on_key(op, i: int, m: MayaDiagram) -> tuple[int, MayaDiagram] | None:
    image = op(i, FockVector(m.charge, {m: 1}))
    return next(((c, m2) for m2, c in image.coeffs.items()), None)


def psi_key(i: int, m: MayaDiagram) -> tuple[int, MayaDiagram] | None:
    """psi_i on one diagram: None if slot i holds a bead, else (sign, diagram)."""
    return _on_key(psi, i, m)


def psi_star_key(i: int, m: MayaDiagram) -> tuple[int, MayaDiagram] | None:
    """psi*_i on one diagram: None if slot i is a hole, else (sign, diagram)."""
    return _on_key(psi_star, i, m)


# ---------------------------------------------------------------------------
# shuffle operators and the power-sum operators


def _legal_moves(mask: int, n: int, d: int, leftward: bool) -> list:
    """The d-sets of beads of `mask` that can all move left (right) by n, as
    ascending lists in lexicographic order: a bottom (top) segment of each run
    of beads n apart, d beads in all.  Every slot above the window is a bead,
    so the run at the window's top on each runner has no top segment."""
    runs = []
    for r in range(n):
        run = []
        for b in range(r, mask.bit_length(), n):
            if mask >> b & 1:
                run.append(b)
            elif run:
                runs.append(run)
                run = []
        if leftward:
            runs.append(run)
    out = []

    def place(start, left, chosen):
        if not left:
            out.append(sorted(chosen))
            return
        for i in range(start, len(runs)):
            run = runs[i]
            for k in range(1, min(left, len(run)) + 1):
                place(i + 1, left - k, chosen + (run[:k] if leftward else run[-k:]))

    place(0, d, [])
    out.sort()
    return out


def _shuffle_apply(n: int, d: int, v: FockVector, offset: int) -> FockVector:
    """The word psi_{j_d+o} ... psi_{j_1+o} psi*_{j_1} ... psi*_{j_d} summed
    over the legal d-sets j_1 < ... < j_d of beads."""
    def moves(m, mask, lo):
        return ((js[::-1], [j + offset for j in js]) for js in _legal_moves(mask, n, d, offset < 0))

    return _apply(v, n * d, moves)


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
    """Single-bead left shift by d, the one-bead adjoint shuffle: sum_j psi_{j-d} psi*_j."""
    if d < 1:
        raise ValueError("need d >= 1")
    return _shuffle_apply(d, 1, v, -d)


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
    reach = sum(lam)

    def moves(m, mask, lo):
        # any surviving multi-move keeps bead indices within sum(lam) of the prefix
        cands = [m.bead(k) - lo for k in range(1, len(m.mu) + reach + 3)]
        for placement in _distinct_placements(cands, list(lam)):
            removed = targets = 0
            for b, part in placement:
                removed |= 1 << b
                targets |= 1 << (b - part)
            if targets & mask & ~removed:  # a target is a bead that stays
                continue
            # fixed representative word: psi_{i_l - a_l} ... psi_{i_1 - a_1} psi*_{i_1} ... psi*_{i_l}
            pairs = sorted(placement)  # by bead; any single representative per orbit works
            yield [b for b, _ in reversed(pairs)], [b - part for b, part in pairs]

    return _apply(v, reach, moves)


def multiply_p_times_m(s: int, lam: Partition) -> dict:
    """Expansion of p_s * m_lam in the monomial basis, straight from the
    multiplication rule: add a part s, or grow an existing part t to s+t."""
    lam = tuple(lam)
    out: dict = {}
    mult = multiplicities(lam)

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
# pairing


def pairing(w: FockVector, v: FockVector):
    """<w, v> for a dual vector w and a primal vector v of the same charge."""
    if not w.dual or v.dual:
        raise ValueError("pairing needs a dual vector on the left and a primal one on the right")
    if w.charge != v.charge:
        raise ValueError("pairing vectors of different charge")
    total = 0
    for m, c in w.coeffs.items():
        if m in v.coeffs:
            total = total + c * v.coeffs[m]
    return total

