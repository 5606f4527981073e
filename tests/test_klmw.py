import hashlib
import json
import re

import pytest

from grfock import klmw
from grfock.exact import poly_repr
from grfock.klmw import (d_matrix, kf_compare, n_dominance_components, shuffle_span_dim,
                         straighten_coeffs)
from grfock.partitions import (
    Cmp,
    compare_mlex,
    is_n_regular,
    mlex_key,
    n_jump_raises,
    n_regular_partitions,
    partitions_of,
)
import oracles
from oracles import kf_with_d00_equal_to_t, n_dominance_components_by_search


def test_straighten_trace_repeats_across_calls():
    assert straighten_coeffs(2, 4) == straighten_coeffs(2, 4)


# sha256 of every straightening table for n = 2 up to size 18 and n = 3 up to
# size 14, as canonical JSON; the straighten suite's report holds only whether
# each table is sound, so a wrong coefficient moves this digest and no report
STRAIGHTENING_VALUES = "c15765630e21614226b04d7e7c0ac696fbbdbfa3e8d71194ef5925289a2247e2"


def test_straightening_values_are_pinned():
    tables = [[n, s, [[list(lam), [[list(q), c] for q, c in sorted(coeffs.items())]]
                      for lam, coeffs in sorted(straighten_coeffs(n, s).items())]]
              for n, smax in ((2, 18), (3, 14)) for s in range(smax + 1)]
    canonical = json.dumps(tables, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == STRAIGHTENING_VALUES


def test_straightening_out_of_mlex_order_raises(monkeypatch):
    # a rewrite reaching a partition not yet done is an error, not a recursion
    order = sorted(partitions_of(6), key=mlex_key)
    reversed_rank = {lam: -i for i, lam in enumerate(order)}
    monkeypatch.setattr(klmw, "mlex_key", reversed_rank.__getitem__)
    with pytest.raises(ArithmeticError, match="not mlex-smaller"):
        straighten_coeffs(2, 6)


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


def test_kf_compare_reads_each_entry_at_a_root_of_unity():
    report = kf_compare(2, 2, kf_with_d00_equal_to_t(2, 2))
    assert report["entries"][((2,), (2,))] == -1  # t at zeta_2 = -1
    assert not report["match"]
    assert report["mismatches"][0]["d_straighten"] == 1


def test_kf_compare_rejects_an_entry_that_is_not_an_integer():
    with pytest.raises(ArithmeticError, match="not an integer"):
        kf_compare(3, 2, kf_with_d00_equal_to_t(2, 3))


def test_the_mismatch_witness_prints_d_of_t_as_text():
    # the text of D(t) that kf's mismatch witness and its error carry
    for coeffs, text in (((), "0"), ((0, 1), "t"), ((-3,), "-3"), ((0, 0, -1), "-t^2"),
                         ((1, -1, 0, 2), "1 - t + 2*t^3")):
        assert poly_repr(coeffs) == text
    report = kf_compare(2, 2, kf_with_d00_equal_to_t(2, 2))
    assert sorted(report) == ["entries", "match", "mismatches"]
    assert report["mismatches"] == [
        {"lam": (2,), "nu": (2,), "d_zeta": -1, "d_straighten": 1, "D_poly": "t"}]
    error = "D((2,),(2,)) at zeta_3 is not an integer: t mod Phi_3"
    with pytest.raises(ArithmeticError, match=f"^{re.escape(error)}$"):
        kf_compare(3, 2, kf_with_d00_equal_to_t(2, 3))


@pytest.mark.parametrize("n", [1, 0])
def test_straightening_rejects_n_below_2(n):
    with pytest.raises(ValueError, match="n must be >= 2"):
        straighten_coeffs(n, 3)


@pytest.mark.parametrize("thinned", [False, True], ids=["every-jump", "all-but-the-last-jump"])
def test_n_dominance_components_match_the_search_oracle(thinned, monkeypatch):
    # with each partition's last raise dropped, classes split, on both sides alike
    if thinned:
        jumps = lambda p, n: n_jump_raises(p, n)[:-1]
        monkeypatch.setattr(klmw, "n_jump_raises", jumps)
        monkeypatch.setattr(oracles, "n_jump_raises_on_maya", jumps)
    splits = 0
    for n in (2, 3, 4):
        for total in range(13):
            got = n_dominance_components(n, total)
            want = n_dominance_components_by_search(n, total)
            assert {frozenset(c) for c in got["components"].values()} == set(want["components"])
            assert {wc: frozenset(c) for wc, c in got["classes"].items()} == want["classes"]
            assert got["split_classes"] == [{"class": s["class"], "members": s["members"]}
                                            for s in want["split_classes"]], (n, total)
            assert got["match"] == want["match"]
            splits += len(got["split_classes"])
    assert (splits > 0) == thinned
