"""The fault table: each row injects one fault into a computation of the
package and names the suites that must then fail (exit 1) at small parameters.
A check that passes whatever its kernel computes proves nothing, so every
suite should be the target of a row.

Faults go into computations, not into predicates: a predicate forced to True
cannot be caught on a correct program (``fpoints`` passes with
``is_invariant`` always True, because S^T(F_p) and G^T(F_p) are equal anyway).
Each row also runs its suites without the fault, where they must pass."""

import pytest

from grfock import cli, exterior, fock, grassmann, klmw, symfunc
from oracles import kf_with_d00_equal_to_t


def flip_the_clifford_sign_at_bit_3(monkeypatch):
    # exterior and grassmann hold their own binding of the one kernel
    move = fock._move

    def flipped(mask, sources, targets):
        targets = tuple(targets)
        res = move(mask, sources, targets)
        return res if res is None or 3 not in targets else (-res[0], res[1])

    for module in (fock, exterior, grassmann):
        monkeypatch.setattr(module, "_move", flipped)


def negate_every_rewritten_coefficient(monkeypatch):
    straighten_coeffs = klmw.straighten_coeffs

    def negated(n, total):
        return {lam: row if row == {lam: 1} else {reg: -c for reg, c in row.items()}
                for lam, row in straighten_coeffs(n, total).items()}

    monkeypatch.setattr(klmw, "straighten_coeffs", negated)


def drop_the_largest_exchange_at_d_2(monkeypatch):
    # Gr(2,n) has d = 1 only, so Gr(3,6) is the smallest case that sees it
    plucker_quadric = grassmann._plucker_quadric

    def dropped(alpha, beta, d):
        q = plucker_quadric(alpha, beta, d)
        if d == 2 and len(q) > 2:
            del q[max(q.keys() - {(alpha, beta)})]
        return q

    monkeypatch.setattr(grassmann, "_plucker_quadric", dropped)


def zero_the_residual_on_one_shape(monkeypatch):
    # vectors of length 6: the Pluecker coordinates of Gr(2,4)
    residual = grassmann._residual
    monkeypatch.setattr(grassmann, "_residual", lambda v, rows, pivots, p:
                        [0] * 6 if len(v) == 6 else residual(v, rows, pivots, p))


def shift_one_solved_entry(monkeypatch):
    # in the cell of Gr(1,3) that leads at column 0, x_1 is back-substituted for
    # both operators with a form, of types (3) and (2,1)
    solutions = grassmann._affine_solutions

    def shifted(vectors, template, free, p):
        for x in solutions(vectors, template, free, p):
            yield (x[0], (x[1] + 1) % p, *x[2:]) if free == [1, 2] and len(x) == 3 else x

    monkeypatch.setattr(grassmann, "_affine_solutions", shifted)


def put_the_gaussian_binomial_off_by_one(monkeypatch):
    gaussian_binomial = grassmann.gaussian_binomial
    monkeypatch.setattr(grassmann, "gaussian_binomial",
                        lambda n, k, q: gaussian_binomial(n, k, q) + 1)


def set_d00_to_t(monkeypatch):
    monkeypatch.setattr(symfunc, "kf_transition_matrices", kf_with_d00_equal_to_t)


def shift_the_t_power_of_one_d_term(monkeypatch):
    # D_1(s_1) = (t - 1) s_(): its term t h_1^perp s_1 becomes t^2 s_()
    d_image = symfunc._d_image
    monkeypatch.setattr(symfunc, "_d_image", lambda shape:
                        {**d_image(shape), (): (-1, 0, 1)} if shape == (1,) else d_image(shape))


def double_z_of_two_part_partitions(monkeypatch):
    z_of = symfunc.z_of
    monkeypatch.setattr(symfunc, "z_of", lambda lam: z_of(lam) * (2 if len(lam) == 2 else 1))


def double_omega_of_degree_2(monkeypatch):
    omega_apply = exterior.omega_apply
    monkeypatch.setattr(exterior, "omega_apply",
                        lambda d, tt: omega_apply(d, tt).scale(2 if d == 2 else 1))


def drop_every_n_jump(monkeypatch):
    monkeypatch.setattr(klmw, "n_jump_raises", lambda p, n: ())


def drop_the_last_n_jump(monkeypatch):
    n_jump_raises = klmw.n_jump_raises
    monkeypatch.setattr(klmw, "n_jump_raises", lambda p, n: n_jump_raises(p, n)[:-1])


def drop_the_last_adjoint_image(monkeypatch):
    adjoint_images = klmw._adjoint_images
    monkeypatch.setattr(klmw, "_adjoint_images",
                        lambda n, total: list(adjoint_images(n, total))[:-1])


# (fault, the suites that must fail under it)
FAULTS = [
    (flip_the_clifford_sign_at_bit_3, [["clifford", "--n", "4", "--size", "4"],
                                       ["signs", "--n", "4"],
                                       ["pluecker-ideal", "--k", "2", "--n", "4"],
                                       ["shuffle-span", "--n", "2", "--size", "6"],
                                       ["kf", "--n", "2", "--size", "4"],
                                       ["kf", "--n", "3", "--size", "6"]]),
    (drop_the_largest_exchange_at_d_2, [["pluecker-ideal"],
                                        ["pluecker-ideal", "--k", "3", "--n", "6"]]),
    (negate_every_rewritten_coefficient, [["kf", "--n", "2", "--size", "4"],
                                          ["kf", "--n", "3", "--size", "4"]]),
    (zero_the_residual_on_one_shape, [["fpoints", "--p", "2", "--dim", "4"]]),
    (shift_one_solved_entry, [["fpoints", "--p", "2", "--dim", "4"],
                              ["fpoints", "--p", "3", "--dim", "3"]]),
    (put_the_gaussian_binomial_off_by_one, [["fpoints", "--p", "2", "--dim", "3"],
                                            ["tangent", "--p", "2", "--dim", "4"]]),
    (set_d00_to_t, [["kf", "--n", "2", "--size", "2"], ["kf", "--n", "3", "--size", "4"]]),
    (shift_the_t_power_of_one_d_term, [["kf", "--n", "2", "--size", "4"],
                                       ["kf", "--n", "3", "--size", "4"]]),
    (double_z_of_two_part_partitions, [["det-identity", "--n", "2", "--k", "4"]]),
    (double_omega_of_degree_2, [["divided-powers"]]),
    (drop_every_n_jump, [["ndominance", "--n", "2", "--size", "4"]]),
    (drop_the_last_n_jump, [["ndominance", "--n", "2", "--size", "4"],
                            ["ndominance", "--n", "3", "--size", "6"]]),
    (drop_the_last_adjoint_image, [["shuffle-span"], ["shuffle-span", "--n", "2", "--size", "6"]]),
]


@pytest.mark.parametrize("fault, runs", FAULTS, ids=[fault.__name__ for fault, _ in FAULTS])
def test_each_fault_fails_its_suites(fault, runs, monkeypatch, capsys):
    assert [cli.main(argv) for argv in runs] == [0] * len(runs)
    fault(monkeypatch)
    assert [cli.main(argv) for argv in runs] == [1] * len(runs)
    capsys.readouterr()
