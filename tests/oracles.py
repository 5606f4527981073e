"""Oracles that more than one test module compares the package against."""

from grfock.exact import ZZ, minors
from grfock.exterior import ExtTensor


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


def wedge_of_rows(rows, n, ring=ZZ) -> ExtTensor:
    """row_1 ^ ... ^ row_k as an ExtTensor; coefficients are the k x k minors."""
    coeffs = {tuple(c + 1 for c in cols): m for cols, m in minors(rows, ring.one).items()}
    return ExtTensor(n, len(rows), coeffs, ring)
