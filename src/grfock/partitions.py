"""Partitions, charge-0 Maya diagrams, the transpose bijection between them,
the orders used by the straightening machinery (mlex, dominance and the
n-jump covers), n-regularity, the gap/regularize maps, and n-cores.

A partition is a plain tuple of weakly decreasing positive ints; () is empty.
The n-jumps and n-cores run on its beta-numbers p_i + L - i.  Maya diagrams
are the Fock space's type and its oracles' type, stored canonically as
(charge, mu) where mu is a partition and the bead positions are
i_k = (k-1) + charge - mu_k; the charge-0 partition label is mu's transpose.

The oracles live beside their tests: tests/test_partitions.py holds the n-jump
comparison by breadth-first search over the covers, the rim-hook n-core and
the hook lengths; tests/oracles.py holds the n-jumps as Maya squeezes and the
bead lookups on one diagram that the Fock space's bead-list oracle composes.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from operator import lt

from . import Record


Partition = tuple  # tuple[int, ...], weakly decreasing, strictly positive entries


def check_partition(p) -> Partition:
    p = tuple(map(int, p))
    if p and min(p) <= 0:
        raise ValueError(f"nonpositive part in {p}")
    if any(map(lt, p, p[1:])):
        raise ValueError(f"parts not weakly decreasing in {p}")
    return p


def transpose(p: Partition) -> Partition:
    if not p:
        return ()
    out = [0] * p[0]
    for part in p:
        for i in range(part):
            out[i] += 1
    return tuple(out)


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in descending lexicographic order."""
    if n < 0:
        return ()
    if n == 0:
        return ((),)

    def gen(remaining, maxpart):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, maxpart), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(gen(n, n))


def multiplicities(p: Partition) -> dict:
    out: dict = {}
    for part in p:
        out[part] = out.get(part, 0) + 1
    return out


def is_n_regular(p: Partition, n: int) -> bool:
    """True iff no part value occurs n or more times."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return all(m < n for m in multiplicities(p).values())


def n_regular_partitions(n: int, total: int) -> tuple[Partition, ...]:
    return tuple(p for p in partitions_of(total) if is_n_regular(p, n))


# ---------------------------------------------------------------------------
# Maya diagrams


class MayaDiagram(Record):
    """Bead positions i_k = (k-1) + charge - mu_k, mu a partition."""

    _fields = ("charge", "mu")

    def __init__(self, charge: int, mu: Partition):
        vars(self).update(charge=charge, mu=check_partition(mu))

    def bead(self, k: int) -> int:
        """Position of the k-th bead, k >= 1; strictly increasing in k."""
        muk = self.mu[k - 1] if k <= len(self.mu) else 0
        return (k - 1) + self.charge - muk

    def beads(self, count: int) -> tuple:
        return tuple(self.bead(k) for k in range(1, count + 1))

    def tail_start(self) -> int:
        """All slots >= this value are beads, and bead k = k-1+charge from index len(mu)+1 on."""
        return len(self.mu) + self.charge


def maya_from_beads(beads, tail_start: int) -> MayaDiagram:
    """Diagram whose beads below tail_start are exactly `beads`, all slots from tail_start on full."""
    beads = sorted(beads)
    if beads and beads[-1] >= tail_start:
        raise ValueError("bead at or above tail_start")
    if len(set(beads)) != len(beads):
        raise ValueError("repeated bead")
    charge = tail_start - len(beads)
    # strictly increasing beads below the tail give a partition padded with zeros
    mu = [k + charge - b for k, b in enumerate(beads)]
    while mu and not mu[-1]:
        mu.pop()
    return MayaDiagram(charge, tuple(mu))


def maya_of_partition(p: Partition) -> MayaDiagram:
    """The charge-0 diagram whose partition label is p (storage mu = p^T)."""
    return MayaDiagram(0, transpose(check_partition(p)))


def partition_of_maya(m: MayaDiagram) -> Partition:
    """Partition label of a charge-0 diagram: the transpose of the stored mu."""
    if m.charge != 0:
        raise ValueError("partition labels are defined for charge-0 diagrams")
    return transpose(m.mu)


# ---------------------------------------------------------------------------
# the gap map ell_n and the regularize map rho_n


def gap_and_regularize(p: Partition, n: int) -> tuple[int | None, Partition]:
    """(ell_n(p), rho_n(p)): least ell with a bead gap > n, and the diagram with
    the first ell beads shifted right by n; ell is None (infinite) exactly when
    p is n-regular, and then rho_n(p) = p.  The gap after bead k is one more than
    the number of parts equal to k (the drop from column k of p to the next), so
    ell is the least part that p repeats n times and rho_n(p) drops n of them.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    p = check_partition(p)
    for i in range(len(p) - n, -1, -1):
        if p[i] == p[i + n - 1]:
            return p[i], p[:i] + p[i + n:]
    return None, p


# ---------------------------------------------------------------------------
# orders


class Cmp(Enum):
    LESS = "less"
    GREATER = "greater"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def mlex_key(p: Partition) -> Partition:
    # lex on transposes == bead-sequence order with earlier smaller bead greater
    return transpose(p)


def compare_mlex(p: Partition, q: Partition) -> Cmp:
    a, b = mlex_key(p), mlex_key(q)
    if a == b:
        return Cmp.EQUAL
    return Cmp.GREATER if a > b else Cmp.LESS


def compare_dominance(p: Partition, q: Partition) -> Cmp:
    """Classical dominance by partial sums; partitions of different sizes are incomparable."""
    if sum(p) != sum(q):
        return Cmp.INCOMPARABLE
    if p == q:
        return Cmp.EQUAL
    ge = le = True
    sp = sq = 0
    for i in range(max(len(p), len(q))):
        sp += p[i] if i < len(p) else 0
        sq += q[i] if i < len(q) else 0
        if sp < sq:
            ge = False
        if sp > sq:
            le = False
    if ge:
        return Cmp.GREATER
    if le:
        return Cmp.LESS
    return Cmp.INCOMPARABLE


def n_jump_raises(p: Partition, n: int) -> tuple[Partition, ...]:
    """Partitions one n-jump above p, on the beta-numbers of p.

    The L = len(p) + n beads are b_i = p_i + L - i, with p padded by n zeros.  A
    jump moves a bead x down to x - n and another bead y up to y + n, both onto
    holes, with x < y + n; the label of the moved beads dominates p.  These are
    the squeezes of a pair of Maya(p)'s beads, since the holes of Maya(p) are
    p's beads shifted by -L; every slot below n holds a bead, so no jump leaves
    the window.
    """
    p = check_partition(p)
    L = len(p) + n
    beads = {part + L - i for i, part in enumerate(p + (0,) * n, 1)}
    downs = [x for x in beads if x >= n and x - n not in beads]
    ups = [y for y in beads if y + n not in beads]
    out = set()
    for x in downs:
        for y in ups:
            if x != y and x < y + n:
                moved = sorted(beads - {x, y} | {x - n, y + n}, reverse=True)
                out.add(tuple(b - L + i for i, b in enumerate(moved, 1) if b - L + i))
    return tuple(sorted(out, reverse=True))


# ---------------------------------------------------------------------------
# n-cores via the abacus


def n_core(p: Partition, n: int) -> Partition:
    """Remove rim n-hooks until none remain, by justifying the abacus runners.

    The beta-numbers p_i + len(p) - i are grouped by residue mod n; pushing
    every bead as far down its runner as it goes yields the beta-numbers of the
    core, independent of order.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    p = check_partition(p)
    counts = [0] * n
    for i, part in enumerate(p, 1):
        counts[(part + len(p) - i) % n] += 1
    beta = sorted((r + n * j for r in range(n) for j in range(counts[r])), reverse=True)
    return tuple(b - len(p) + i for i, b in enumerate(beta, 1) if b - len(p) + i)


def weight_class(p: Partition, n: int) -> tuple:
    """(n-core, size): the invariant shared by diagrams connected by n-jumps."""
    return (n_core(p, n), sum(p))
