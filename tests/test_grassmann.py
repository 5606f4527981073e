import pytest

from grfock.grassmann import degree2_ideal_equal, gaussian_binomial, jordan_matrix


def test_jordan_matrix_rejects_blocks_of_the_wrong_size():
    assert jordan_matrix((2, 1), 3) == ((0, 1, 0), (0, 0, 0), (0, 0, 0))
    with pytest.raises(ValueError):
        jordan_matrix((2, 1), 4)


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
