from grfock.klmw import d_matrix, shuffle_span_dim, straighten
from grfock.partitions import Cmp, compare_mlex, is_n_regular, n_regular_partitions, partitions_of


def test_straighten_trace_repeats_across_calls():
    first = straighten((1, 1, 1, 1), 2)
    second = straighten((1, 1, 1, 1), 2)
    assert len(first.trace) == 2
    assert (second.trace, second.coeffs) == (first.trace, first.coeffs)


def test_d_matrix_is_unitriangular_in_mlex_order():
    for n in (2, 3):
        for total in range(0, 9):
            dm = d_matrix(n, total)
            for nu in n_regular_partitions(n, total):
                assert dm[(nu, nu)] == 1
            for (lam, nu), c in dm.items():
                assert c != 0 and is_n_regular(lam, n)
                assert lam == nu or compare_mlex(lam, nu) is Cmp.LESS, (n, lam, nu)


def test_shuffle_span_dim_counts_the_non_regular_partitions():
    for n in (2, 3):
        for m in range(0, 9):
            expected = len(partitions_of(m)) - len(n_regular_partitions(n, m))
            assert shuffle_span_dim(n, m) == expected, (n, m)
