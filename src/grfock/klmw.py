"""The straightening algorithm for dual wedge vectors modulo the shuffle
relations, the d-matrix of the dual basis, finite-rank verification of the
shuffle-span theorem, the Kostka-Foulkes cross-check, n-dominance
connectivity experiments, and ideal-generator export.

Straightening is one pass over the partitions of a size in increasing mlex
order, resting on one invariant: every term of a rewrite other than the
partition rewritten is mlex-smaller, so it is done when it is needed.  The
pass checks this and raises ArithmeticError where it fails.

This module imports only ``exact`` (the Phi_n reduction and ``lattice_rank``),
``fock`` and ``partitions``; the Kostka-Foulkes and T-shuffle matrices that
``kf_compare`` and ``emit_t_shuffle_generators`` read are built by their callers.
"""

from __future__ import annotations

from .exact import cyclotomic_polynomial, divmod_monic, lattice_rank, poly_repr
from .fock import basis_vector, shuffle_adjoint
from .partitions import (
    MayaDiagram,
    gap_and_regularize,
    is_n_regular,
    mlex_key,
    n_jump_raises,
    partition_of_maya,
    partitions_of,
    weight_class,
)


# ---------------------------------------------------------------------------
# straightening


def straighten_coeffs(n: int, total: int) -> dict:
    """{lam: {n-regular partition: int}}: the coefficients of s*_lam modulo the
    shuffle relations on the n-regular dual basis, for every lam of size total.

    One pass in increasing mlex order: each non-regular lam has a unique
    (ell, rho) rewrite whose other terms nu are already done; a term that is not
    raises ArithmeticError.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    table: dict = {}
    for lam in sorted(partitions_of(total), key=mlex_key):
        if is_n_regular(lam, n):
            table[lam] = {lam: 1}
            continue
        ell, rho = gap_and_regularize(lam, n)
        image = shuffle_adjoint(n, ell, basis_vector(rho, dual=True))
        terms = {partition_of_maya(m): c for m, c in image.coeffs.items()}
        lead = terms.pop(lam, 0)
        if lead not in (1, -1):
            raise ArithmeticError(f"leading coefficient {lead} is not a unit at {lam}")
        result: dict = {}
        for nu, c in terms.items():
            if nu not in table:
                raise ArithmeticError(f"the rewrite of {lam} reaches {nu}, not mlex-smaller")
            for reg, c2 in table[nu].items():
                result[reg] = result.get(reg, 0) - lead * c * c2
        table[lam] = {reg: c for reg, c in result.items() if c}
    return table


def d_matrix(n: int, total: int) -> dict:
    """d_{lam,nu} for lam n-regular and nu arbitrary of the given size.

    By duality d_{lam,nu} is the coefficient of v*_lam in the straightening
    of s*_nu.
    """
    return {(lam, nu): c for nu, coeffs in straighten_coeffs(n, total).items()
            for lam, c in coeffs.items()}


# ---------------------------------------------------------------------------
# finite-rank shuffle span


def _adjoint_images(n: int, total: int):
    """shuffle_adjoint(n, d, v*_mu) for every d >= 1 and every mu of size
    total - n d: the adjoint-shuffle images that land in the given size."""
    for d in range(1, total // n + 1):
        for mu in partitions_of(total - n * d):
            yield shuffle_adjoint(n, d, basis_vector(mu, dual=True))


def shuffle_span_dim(n: int, total: int) -> int:
    """Rank of the span of all adjoint-shuffle images landing in the given degree."""
    parts = partitions_of(total)
    index = {p: i for i, p in enumerate(parts)}
    rows = []
    for image in _adjoint_images(n, total):
        row = [0] * len(parts)
        for m, c in image.coeffs.items():
            row[index[partition_of_maya(m)]] = c
        rows.append(row)
    return lattice_rank(rows, len(parts))


# ---------------------------------------------------------------------------
# Kostka-Foulkes cross-check


def kf_compare(n: int, total: int, kf) -> dict:
    """Compare D(zeta) entrywise with the straightening d-matrix.

    ``kf`` is ``symfunc.kf_transition_matrices(total, n)``, with entries in
    Z[zeta_n] (residues mod Phi_n) or Z[t].  Each entry reduced modulo Phi_n must
    be an integer, with no nonzero coordinate past the first, or ArithmeticError
    is raised.  The report holds whether every entry matches, the value at zeta_n
    of each entry by (lam, nu), and the mismatches with each entry as text (``D_poly``).
    """
    dm = d_matrix(n, total)
    phi = cyclotomic_polynomial(n)
    mismatches = []
    entries = {}
    for i, lam in enumerate(kf.regular_labels):
        for j, nu in enumerate(kf.labels):
            _, residue = divmod_monic(kf.D[i][j], phi)
            if len(residue) > 1:
                raise ArithmeticError(
                    f"D({lam},{nu}) at zeta_{n} is not an integer: {poly_repr(residue)} mod Phi_{n}")
            val = residue[0] if residue else 0
            entries[(lam, nu)] = val
            expected = dm.get((lam, nu), 0)
            if val != expected:
                mismatches.append({
                    "lam": lam, "nu": nu,
                    "d_zeta": val, "d_straighten": expected,
                    "D_poly": poly_repr(kf.D[i][j]),
                })
    return {"match": not mismatches, "entries": entries, "mismatches": mismatches}


# ---------------------------------------------------------------------------
# n-dominance connectivity


def n_dominance_components(n: int, total: int) -> dict:
    """The components of the n-jump graph, by union-find over the jumps, and the
    (n-core, size) classes, each as {key: members}; a class is split when it
    meets more than one component."""
    parts = partitions_of(total)
    root = {p: p for p in parts}

    def find(p):
        while root[p] != p:
            root[p] = root[root[p]]
            p = root[p]
        return p

    for p in parts:
        for q in n_jump_raises(p, n):
            root[find(q)] = find(p)
    components: dict = {}
    classes: dict = {}
    for p in parts:
        components.setdefault(find(p), []).append(p)
        classes.setdefault(weight_class(p, n), []).append(p)
    split = [{"class": wc, "members": sorted(members)} for wc, members in classes.items()
             if len({find(p) for p in members}) > 1]
    return {"components": components, "classes": classes, "split_classes": split,
            "match": not split and len(components) == len(classes)}


# ---------------------------------------------------------------------------
# generator export


def _serialize_ints(xs) -> str:
    return ",".join(str(x) for x in xs)


def _serialize_maya(m: MayaDiagram) -> str:
    return f"{m.charge};{_serialize_ints(m.mu)}"


def _format_generator(terms) -> str:
    body = " ".join(f"{'+' if c >= 0 else '-'}{abs(c)}*X[{idx}]" for idx, c in terms)
    return f"gen: {body}"


def emit_sato_shuffle_generators(n: int, max_degree: int) -> str:
    """Linear shuffle forms in Pluecker coordinates X[maya], output degree bounded.

    The generator attached to a diagram m and d >= 1 is the coordinate
    expansion of the adjoint shuffle applied to the dual basis vector of m;
    its terms sit in degree |m| + n d.
    """
    lines = ["ring: X indexed by maya(charge;mu); char: 0"]
    gens = {_format_generator(sorted((_serialize_maya(m), c) for m, c in image.coeffs.items()))
            for total in range(max_degree + 1) for image in _adjoint_images(n, total) if image}
    lines.extend(sorted(gens))
    return "\n".join(lines) + "\n"


def emit_t_shuffle_generators(matrices) -> str:
    """Linear forms lambda . sh_d^T in coordinates X[k-subset], d = 1..k, from
    the matrices ``exterior.t_shuffle_matrices(T, k)``."""
    lines = ["ring: X indexed by subset; char: 0"]
    gens = []
    for cols in matrices:
        rows: dict = {}
        for key, col in cols.items():
            for key2, c in col.items():
                rows.setdefault(key2, []).append((key, c))
        for key2 in sorted(rows):
            terms = sorted(((_serialize_ints(key), c) for key, c in rows[key2]))
            gens.append(_format_generator(terms))
    lines.extend(sorted(set(gens)))
    return "\n".join(lines) + "\n"
