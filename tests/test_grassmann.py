import pytest

from grfock.exact import GF
from grfock.exterior import t_shuffle
from grfock.grassmann import (
    _rank_modp,
    degree2_ideal_equal,
    enumerate_points,
    fpoints_rows,
    gaussian_binomial,
    is_nilpotent,
    jordan_matrix,
    omega_functional,
    wedge_of_rows,
)
from grfock.partitions import partitions_of


def test_jordan_matrix_rejects_blocks_of_the_wrong_size():
    assert jordan_matrix((2, 1), 3) == ((0, 1, 0), (0, 0, 0), (0, 0, 0))
    with pytest.raises(ValueError):
        jordan_matrix((2, 1), 4)


def test_is_nilpotent_on_jordan_types_and_non_examples():
    for n in range(1, 6):
        for blocks in partitions_of(n):
            assert is_nilpotent(jordan_matrix(blocks))
    assert not is_nilpotent(((0, 1), (1, 0)))
    assert not is_nilpotent(((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def test_gaussian_binomial():
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(5, 0, 2) == gaussian_binomial(5, 5, 2) == 1
    assert gaussian_binomial(3, 4, 2) == 0
    with pytest.raises(ValueError):
        gaussian_binomial(4, 2, 1)


def test_degree2_ideal_equal_reports_both_ranks():
    # Gr(2,4): one Pluecker quadric, spanned by the KP two-tensors as well
    assert degree2_ideal_equal(2, 4) == (True, 1, 1)
    assert degree2_ideal_equal(1, 4) == (True, 0, 0)


def test_omega_functional_rejects_an_unsorted_D():
    assert omega_functional((1, 2, 3), (1, 3), 1, 4) == {((1, 3), (1, 2, 3)): 1}
    with pytest.raises(ValueError):
        omega_functional((1, 2, 3), (3, 1), 1, 4)


@pytest.mark.parametrize("C, D", [
    ((1, 2, 3), (1, 1)),  # a repeated index in D
    ((3, 2, 1), (1,)),    # C decreasing
    ((1, 1, 2), (3,)),    # a repeated index in C
    ((1, 2, 9), (3,)),    # C leaves 1..4
    ((1, 2, 3), (0,)),    # D leaves 1..4
])
def test_omega_functional_rejects_sets_that_are_not_increasing_subsets(C, D):
    with pytest.raises(ValueError):
        omega_functional(C, D, 1, 4)


def _oracle_row(T, k, p):
    """Counts of Gr, G^T and S^T points by rank tests and exterior-algebra shuffles."""
    n, ring = len(T), GF(p)
    gr = gt = st = 0
    same = True
    for U in enumerate_points(p, n, k):
        images = [tuple(sum(T[i][j] * row[j] for j in range(n)) % p for i in range(n))
                  for row in U.rows]
        g = all(_rank_modp(U.rows + (image,), p) == k for image in images)
        tau = wedge_of_rows(U.rows, n, ring)
        s = all(t_shuffle(d, T, tau).is_zero() for d in range(1, k + 1))
        gr, gt, st = gr + 1, gt + g, st + s
        same = same and g == s
    return {"p": p, "n": n, "k": k, "gr": gr, "gt": gt, "st": st, "equal": same}


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fpoints_rows_match_an_independent_recount(p, n):
    types = partitions_of(n)
    Ts = [jordan_matrix(blocks) for blocks in types]
    for k in range(n + 1):
        rows = fpoints_rows(Ts, k, p)
        assert len(rows) == len(types)
        for T, row in zip(Ts, rows):
            assert row == _oracle_row(T, k, p)
            assert row["gr"] == gaussian_binomial(n, k, p)
