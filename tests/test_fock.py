import random
from itertools import combinations

import pytest

from grfock.fock import (
    FockVector,
    alpha,
    basis_vector,
    monomial_operator,
    multiply_p_times_m,
    pairing,
    psi,
    psi_key,
    psi_star,
    psi_star_key,
    shuffle,
    shuffle_adjoint,
)
from grfock.partitions import (
    MayaDiagram,
    maya_from_beads,
    maya_of_partition,
    partition_of_maya,
    partitions_of,
)
from oracles import bead_index, beads_below, is_bead, shuffle_by_filter


def labels(v: FockVector) -> dict:
    assert v.charge == 0
    return {partition_of_maya(m): c for m, c in v.coeffs.items()}


def dual(p):
    return basis_vector(p, dual=True)


# ---------------------------------------------------------------------------
# an oracle: the generators on the bead list of one diagram, composed word by word


def oracle_psi_key(i, m):
    if is_bead(m, i):
        return None
    hi = max(m.tail_start(), i + 1)
    beads = list(m.beads(beads_below(m, hi))) + [i]
    return (-1) ** beads_below(m, i), maya_from_beads(beads, hi)


def oracle_psi_star_key(i, m):
    tail = m.tail_start()
    pos = bead_index(m, i) if i < tail else i - tail + len(m.mu) + 1
    if pos is None:
        return None
    hi = max(tail, i + 1)
    beads = [b for b in m.beads(beads_below(m, hi)) if b != i]
    return (-1) ** (pos - 1), maya_from_beads(beads, hi)


def oracle_sum(words, m) -> dict:
    """The sum of the words (rightmost factor first) on m, as {diagram: coefficient}."""
    out = {}
    for word in words:
        sign = 1
        m2 = m
        for index, star in reversed(word):
            res = (oracle_psi_star_key if star else oracle_psi_key)(index, m2)
            if res is None:
                break
            s, m2 = res
            sign *= s
        else:
            out[m2] = out.get(m2, 0) + sign
    return {k: v for k, v in out.items() if v}


def diagrams(max_size, charges):
    return [MayaDiagram(c, mu) for c in charges for t in range(max_size + 1)
            for mu in partitions_of(t)]


def test_generators_match_the_oracle():
    for m in diagrams(7, range(-2, 3)):
        for i in range(m.bead(1) - 2, m.tail_start() + 3):
            assert psi_key(i, m) == oracle_psi_key(i, m), (i, m)
            assert psi_star_key(i, m) == oracle_psi_star_key(i, m), (i, m)


def test_shuffles_and_alpha_match_the_oracle():
    for m in diagrams(3, (-1, 0, 1)):
        v = FockVector(m.charge, {m: 1})
        for n in (2, 3):
            for d in (1, 2, 3):
                # every d-subset of the first beads, a wider set than the kernel's candidates
                beads = m.beads(len(m.mu) + n * d + 3)
                for op, o in ((shuffle, n), (shuffle_adjoint, -n)):
                    words = [tuple([(j + o, False) for j in reversed(js)] + [(j, True) for j in js])
                             for js in combinations(beads, d)]
                    assert op(n, d, v).coeffs == oracle_sum(words, m), (op, n, d, m)
        for d in (1, 2, 3, 4):
            words = [((j - d, False), (j, True)) for j in m.beads(len(m.mu) + d + 3)]
            assert alpha(d, v).coeffs == oracle_sum(words, m), (d, m)


def test_legal_moves_give_the_filter_terms_in_its_order():
    rng = random.Random(1708)
    for _ in range(150):
        charge = rng.randint(-1, 1)
        v = FockVector(charge, {MayaDiagram(charge, rng.choice(partitions_of(rng.randint(0, 12)))):
                                rng.choice((-2, -1, 1, 3)) for _ in range(rng.randint(1, 3))})
        for n in (2, 3, 4):
            for d in (1, 2, 3):
                for op, o in ((shuffle, n), (shuffle_adjoint, -n)):
                    got, want = op(n, d, v).coeffs, shuffle_by_filter(n, d, v, o).coeffs
                    assert list(got.items()) == list(want.items()), (op, n, d, v)
        for d in (1, 2, 3, 4):
            assert list(alpha(d, v).coeffs.items()) == \
                list(shuffle_by_filter(d, 1, v, -d).coeffs.items()), (d, v)


# ---------------------------------------------------------------------------
# generators


def test_psi_examples():
    vac = basis_vector(())
    r = psi(-1, vac)
    (m, c), = r.coeffs.items()
    assert c == 1 and m.beads(4) == (-1, 0, 1, 2)
    assert r.charge == -1  # storage convention: wedging lowers the tail offset
    assert not psi(0, vac)
    # one transposition past e_0: psi_1 on beads (0,2,3,...)
    v = FockVector(1, {maya_from_beads([0], 2): 1})
    r = psi(1, v)
    (m, c), = r.coeffs.items()
    assert c == -1 and m.beads(3) == (0, 1, 2)


def test_psi_star_examples():
    vac = basis_vector(())
    r = psi_star(0, vac)
    (m, c), = r.coeffs.items()
    assert c == 1 and m.beads(3) == (1, 2, 3) and r.charge == 1
    r = psi_star(1, vac)
    (m, c), = r.coeffs.items()
    assert c == -1 and m.beads(3) == (0, 2, 3)
    # removing twice kills
    assert not psi_star(5, psi_star(5, vac))


def test_clifford_relations_small():
    for total in range(0, 6):
        for lam in partitions_of(total):
            v = basis_vector(lam)
            for i in range(-4, 5):
                for j in range(-4, 5):
                    s = psi(i, psi_star(j, v)) + psi_star(j, psi(i, v))
                    assert s == v if i == j else not s
                    assert not (psi(i, psi(j, v)) + psi(j, psi(i, v)))
                    assert not (psi_star(i, psi_star(j, v)) + psi_star(j, psi_star(i, v)))


# ---------------------------------------------------------------------------
# shuffle operators


def test_shuffle_adjoint_vacuum_example():
    # two legal single-bead left moves on (0,1,2,...): +(-2,1,2,...) - (-1,0,2,...)
    assert labels(shuffle_adjoint(2, 1, dual(()))) == {(1, 1): 1, (2,): -1}


def test_shuffle_on_vacuum_is_zero():
    assert not shuffle(2, 1, basis_vector(()))


def test_shuffle_single_term():
    r = shuffle(2, 1, basis_vector((1, 1)))
    assert labels(r) == {(): 1}


def test_shuffle_degree_and_charge_bookkeeping():
    for n, d in ((2, 1), (2, 2), (3, 1)):
        for total in range(0, 7):
            for lam in partitions_of(total):
                up = shuffle_adjoint(n, d, dual(lam))
                assert up.charge == 0
                assert all(sum(q) == total + n * d for q in labels(up))
                down = shuffle(n, d, basis_vector(lam))
                assert all(sum(q) == total - n * d for q in labels(down))


def test_adjointness_pairing():
    for n, d in ((2, 1), (3, 1), (2, 2)):
        for t1 in range(0, 6):
            for lam in partitions_of(t1):
                left = shuffle_adjoint(n, d, dual(lam))
                for mu in partitions_of(t1 + n * d):
                    rhs = shuffle(n, d, basis_vector(mu))
                    lhs_val = left.coeffs.get(maya_of_partition(mu), 0)
                    rhs_val = rhs.coeffs.get(maya_of_partition(lam), 0)
                    assert lhs_val == rhs_val, (n, d, lam, mu)


def test_psi_adjoint_of_psi_star():
    # <psi_i w, v> = <w, psi*_i v> across charge -1 slices reached from charge 0
    duals = [dual(lam) for t in range(0, 5) for lam in partitions_of(t)]
    primals_lower = []
    for t in range(0, 5):
        for lam in partitions_of(t):
            for j in range(-4, 5):
                img = psi(j, basis_vector(lam))
                if img:
                    primals_lower.append(img)
    for w in duals:
        for i in range(-4, 5):
            lw = psi(i, w)
            for v in primals_lower[:40]:
                lhs = pairing(lw, v)
                rhs = pairing(w, psi_star(i, v))
                assert lhs == rhs, (i,)


# ---------------------------------------------------------------------------
# alpha and the monomial operator


def test_alpha_examples():
    assert labels(alpha(1, dual(()))) == {(1,): 1}
    # under the transpose labeling multiplication by p_2 picks up the omega twist:
    # the Murnaghan-Nakayama value s2 - s11 transposes to s11 - s2
    assert labels(alpha(2, dual(()))) == {(1, 1): 1, (2,): -1}
    assert labels(alpha(1, alpha(1, dual(())))) == {(2,): 1, (1, 1): 1}
    assert labels(alpha(3, dual(()))) == {(1, 1, 1): 1, (2, 1): -1, (3,): 1}


def test_alpha_equals_single_column_monomial_operator():
    for d in (1, 2, 3):
        for total in range(0, 6):
            for lam in partitions_of(total):
                assert alpha(d, dual(lam)) == monomial_operator((d,), dual(lam))


def test_monomial_operator_m1_is_alpha1():
    for total in range(0, 7):
        for mu in partitions_of(total):
            assert monomial_operator((1,), dual(mu)) == alpha(1, dual(mu))


@pytest.mark.parametrize("n,d", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_monomial_operator_rectangular_is_shuffle_adjoint(n, d):
    for total in range(0, 7):
        for mu in partitions_of(total):
            assert monomial_operator((n,) * d, dual(mu)) == shuffle_adjoint(n, d, dual(mu))


def test_p_times_m_rule_examples():
    assert multiply_p_times_m(2, (1,)) == {(2, 1): 1, (3,): 1}
    assert multiply_p_times_m(1, (1,)) == {(1, 1): 2, (2,): 1}
    assert multiply_p_times_m(2, (2, 1)) == {(2, 2, 1): 2, (4, 1): 1, (3, 2): 1}


def test_p_times_m_rule_against_polynomials():
    from grfock.symfunc import m_poly, p_poly

    nvars = 7
    for s in (1, 2, 3):
        for total in range(0, 5):
            for lam in partitions_of(total):
                lhs = p_poly(s, nvars) * m_poly(lam, nvars)
                rhs_terms = multiply_p_times_m(s, lam)
                acc = None
                for q, c in rhs_terms.items():
                    term = m_poly(q, nvars).scale(c)
                    acc = term if acc is None else acc + term
                assert acc == lhs, (s, lam)


def test_monomial_operator_is_multiplicative():
    # M(p_s) M(m_lam) = M(p_s m_lam) with the product expanded by the rule
    for s in (1, 2, 3):
        for total in range(0, 6):
            for lam in partitions_of(total):
                for mu in ((), (1,), (1, 1), (2,)):
                    w = dual(mu)
                    lhs = alpha(s, monomial_operator(lam, w))
                    rhs = None
                    for q, c in multiply_p_times_m(s, lam).items():
                        term = monomial_operator(q, w).scale(c)
                        rhs = term if rhs is None else rhs + term
                    assert lhs == rhs, (s, lam, mu)


def test_homomorphism_on_vacuum_example():
    w = dual(())
    lhs = alpha(2, monomial_operator((1,), w))
    rhs = monomial_operator((2, 1), w) + monomial_operator((3,), w)
    assert lhs == rhs


def test_pairing_orthonormal():
    for total in range(0, 6):
        for lam in partitions_of(total):
            for mu in partitions_of(total):
                val = pairing(dual(lam), basis_vector(mu))
                assert val == (1 if lam == mu else 0)


def test_bad_vectors_and_pairings_raise():
    vac = basis_vector(())
    with pytest.raises(ValueError):
        FockVector(1, {maya_of_partition((1,)): 1})
    with pytest.raises(ValueError):
        vac + psi(-1, vac)
    with pytest.raises(ValueError):
        vac + dual(())
    with pytest.raises(ValueError):
        pairing(vac, vac)
    with pytest.raises(ValueError):
        pairing(psi(-1, dual(())), vac)


@pytest.mark.parametrize("call", [
    lambda: shuffle(1, 1, basis_vector(())),
    lambda: shuffle(2, 0, basis_vector(())),
    lambda: shuffle_adjoint(1, 1, dual(())),
    lambda: shuffle_adjoint(2, 0, dual(())),
    lambda: alpha(0, dual(())),
], ids=["shuffle-n1", "shuffle-d0", "shuffle_adjoint-n1", "shuffle_adjoint-d0", "alpha-d0"])
def test_shuffles_reject_n_below_2_and_d_below_1(call):
    with pytest.raises(ValueError, match="need"):
        call()
