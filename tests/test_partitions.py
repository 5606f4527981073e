import pytest
from hypothesis import given, settings, strategies as st

from grfock.partitions import (
    Cmp,
    compare_dominance,
    compare_mlex,
    gap_and_regularize,
    is_n_regular,
    maya_from_beads,
    maya_of_partition,
    n_core,
    n_jump_raises,
    partition_of_maya,
    partitions_of,
    transpose,
    weight_class,
)
from oracles import beads_below, is_bead, n_jump_raises_on_maya


@st.composite
def partition_st(draw, max_total=12):
    total = draw(st.integers(min_value=0, max_value=max_total))
    opts = partitions_of(total)
    return opts[draw(st.integers(min_value=0, max_value=len(opts) - 1))]


# ---------------------------------------------------------------------------
# bijection


def test_partition_of_maya_examples():
    assert partition_of_maya(maya_from_beads([], 0)) == ()           # vacuum (0,1,2,...)
    m = maya_from_beads([-3, -1, 0], 3)                              # (-3,-1,0,3,4,5,...)
    assert m.mu == (3, 2, 2)
    assert partition_of_maya(m) == (3, 3, 1)
    m2 = maya_from_beads([-2], 1)                                    # (-2,1,2,3,...)
    assert partition_of_maya(m2) == (1, 1)


def test_maya_beads_and_membership():
    m = maya_of_partition((3, 3, 1))
    assert m.beads(6) == (-3, -1, 0, 3, 4, 5)
    assert is_bead(m, -3) and not is_bead(m, -2)
    assert is_bead(m, 100)
    assert beads_below(m, 0) == 2


@settings(max_examples=120, deadline=None)
@given(partition_st())
def test_bijection_roundtrip(p):
    assert partition_of_maya(maya_of_partition(p)) == p


@settings(max_examples=120, deadline=None)
@given(partition_st())
def test_transpose_involution(p):
    assert transpose(transpose(p)) == p
    assert sum(transpose(p)) == sum(p)


def test_maya_roundtrip_via_beads_all_small():
    for total in range(0, 9):
        for p in partitions_of(total):
            m = maya_of_partition(p)
            beads = [m.bead(k) for k in range(1, len(m.mu) + 1)]
            assert maya_from_beads(beads, m.tail_start()) == m


# ---------------------------------------------------------------------------
# regularity and the gap map


def test_is_n_regular_examples():
    assert is_n_regular((2, 1), 2)
    assert not is_n_regular((1, 1), 2)
    assert is_n_regular((3, 3, 1), 3)


def test_gap_and_regularize_examples():
    assert gap_and_regularize((1, 1), 2) == (1, ())
    assert gap_and_regularize((2, 1), 2) == (None, (2, 1))
    assert gap_and_regularize((2, 2), 2) == (2, ())


@settings(max_examples=150, deadline=None)
@given(partition_st(), st.sampled_from([2, 3, 4]))
def test_gap_infinite_iff_regular(p, n):
    ell, rho = gap_and_regularize(p, n)
    assert (ell is None) == is_n_regular(p, n)
    if ell is None:
        assert rho == p
    else:
        # rho drops exactly n parts equal to the gap value
        assert sum(rho) == sum(p) - n * ell
        removed = sorted(p)
        for _ in range(n):
            removed.remove(ell)
        assert tuple(sorted(removed, reverse=True)) == rho


def _gap_and_regularize_on_beads(p, n):
    """Oracle: the first bead gap > n of Maya(p), and the first ell beads moved right by n."""
    m = maya_of_partition(p)
    ell = None
    for k in range(1, len(m.mu) + 1):  # gaps beyond the stored prefix are all 1
        if m.bead(k + 1) - m.bead(k) > n:
            ell = k
            break
    if ell is None:
        return None, p
    new_below = [m.bead(k) + n for k in range(1, ell + 1)]
    new_below += [m.bead(k) for k in range(ell + 1, len(m.mu) + 1)]
    return ell, partition_of_maya(maya_from_beads(new_below, m.tail_start()))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_gap_and_regularize_matches_the_bead_oracle_exhaustive(n):
    for total in range(17):
        for p in partitions_of(total):
            assert gap_and_regularize(p, n) == _gap_and_regularize_on_beads(p, n), (p, n)


# ---------------------------------------------------------------------------
# orders


def _n_jump_up_closure(p, n) -> set:
    seen = {p}
    frontier = [p]
    while frontier:
        for r in n_jump_raises(frontier.pop(), n):
            if r not in seen:
                seen.add(r)
                frontier.append(r)
    return seen


def _compare_n_jump(p, q, n) -> Cmp:
    """Oracle: breadth-first search over the n-jump covers; GREATER refines dominance."""
    if sum(p) != sum(q):
        return Cmp.INCOMPARABLE
    if p == q:
        return Cmp.EQUAL
    if p in _n_jump_up_closure(q, n):
        return Cmp.GREATER
    if q in _n_jump_up_closure(p, n):
        return Cmp.LESS
    return Cmp.INCOMPARABLE


def test_compare_examples():
    assert compare_dominance((2,), (1, 1)) is Cmp.GREATER
    assert _compare_n_jump((2,), (1, 1), 2) is Cmp.GREATER
    assert _compare_n_jump((1, 1, 1), (3,), 2) is Cmp.LESS
    assert compare_mlex((2, 2), (2, 2)) is Cmp.EQUAL
    assert compare_dominance((3, 1), (2, 2)) is Cmp.GREATER
    assert compare_dominance((2, 2), (3, 1)) is Cmp.LESS
    assert compare_dominance((3, 1, 1, 1), (2, 2, 2)) is Cmp.INCOMPARABLE
    assert compare_dominance((2,), (1,)) is Cmp.INCOMPARABLE


def test_mlex_total_on_fixed_size():
    for total in range(0, 9):
        parts = partitions_of(total)
        for p in parts:
            for q in parts:
                c = compare_mlex(p, q)
                if p == q:
                    assert c is Cmp.EQUAL
                else:
                    assert c in (Cmp.LESS, Cmp.GREATER)


def test_one_jump_is_dominance():
    # squeezing the Maya pair of (1,1) by one step gives the label (2)
    assert n_jump_raises((1, 1), 1) == ((2,),)


@pytest.mark.parametrize("n", [2, 3])
def test_n_jump_refines_dominance_exhaustive(n):
    for total in range(0, 11):
        for q in partitions_of(total):
            for x in _n_jump_up_closure(q, n):
                assert compare_dominance(x, q) in (Cmp.GREATER, Cmp.EQUAL), (n, q, x)
                for r in n_jump_raises(x, n):
                    assert compare_dominance(r, x) is Cmp.GREATER, (n, x, r)
                    assert weight_class(r, n) == weight_class(x, n)
                    assert sum(r) == sum(x)


def test_two_jump_pair_example():
    # (2) is one 2-jump above (1,1): beads (-2,1) -> (0,-1)
    assert n_jump_raises((1, 1), 2) == ((2,),)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_n_jump_raises_match_the_maya_oracle_exhaustive(n):
    for total in range(15):
        for p in partitions_of(total):
            assert n_jump_raises(p, n) == n_jump_raises_on_maya(p, n), (p, n)


# ---------------------------------------------------------------------------
# n-cores


def _hook_lengths(p) -> list:
    pt = transpose(p)
    return [[p[i] - j + pt[j] - i - 1 for j in range(p[i])] for i in range(len(p))]


def _n_core_by_rim_hooks(p, n):
    """Oracle: strip rim n-hooks one at a time until none remain."""
    beta_len = max(len(p), 1)
    beta = sorted(p[i] + (beta_len - 1 - i) if i < len(p) else beta_len - 1 - i
                  for i in range(beta_len))
    # removing a rim n-hook == lowering some beta value by n onto a free slot
    changed = True
    while changed:
        changed = False
        bs = set(beta)
        for i, b in enumerate(beta):
            if b - n >= 0 and (b - n) not in bs:
                beta[i] = b - n
                beta.sort()
                changed = True
                break
    parts = sorted((b - i for i, b in enumerate(beta)), reverse=True)
    return tuple(x for x in parts if x > 0)


def test_n_core_examples():
    assert n_core((), 2) == ()
    assert n_core((2,), 2) == ()
    assert n_core((2, 1), 2) == (2, 1)
    assert _hook_lengths((2, 1)) == [[3, 1], [1]]
    # p is an n-core exactly when none of its hook lengths is divisible by n
    for total in range(0, 9):
        for p in partitions_of(total):
            for n in (2, 3, 4):
                no_hook = all(h % n for row in _hook_lengths(p) for h in row)
                assert (n_core(p, n) == p) == no_hook, (p, n)


@settings(max_examples=200, deadline=None)
@given(partition_st(), st.sampled_from([2, 3, 4, 5]))
def test_n_core_matches_rim_hook_oracle(p, n):
    assert n_core(p, n) == _n_core_by_rim_hooks(p, n)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_n_core_matches_rim_hook_oracle_exhaustive(n):
    for total in range(17):
        for p in partitions_of(total):
            assert n_core(p, n) == _n_core_by_rim_hooks(p, n), (p, n)


@settings(max_examples=100, deadline=None)
@given(partition_st(), st.sampled_from([2, 3]))
def test_n_core_is_idempotent_and_core_regularish(p, n):
    c = n_core(p, n)
    assert n_core(c, n) == c
    assert (sum(p) - sum(c)) % n == 0


@pytest.mark.parametrize("call, match", [
    (lambda: is_n_regular((1, 1), 1), "n must be >= 2"),
    (lambda: gap_and_regularize((1, 1), 1), "n must be >= 2"),
    (lambda: n_core((1, 1), 1), "n must be >= 2"),
    (lambda: n_jump_raises((1, 2), 2), "not weakly decreasing"),
    (lambda: maya_from_beads([-1, 2], 2), "bead at or above tail_start"),
    (lambda: maya_from_beads([-1, -1], 2), "repeated bead"),
    (lambda: partition_of_maya(maya_from_beads([], 1)), "charge-0"),
], ids=["is_n_regular-n1", "gap_and_regularize-n1", "n_core-n1", "n_jump-of-a-non-partition",
        "bead-at-tail-start", "repeated-bead", "partition-of-charge-1"])
def test_bad_input_raises_value_error(call, match):
    with pytest.raises(ValueError, match=match):
        call()
