"""The straightening algorithm for dual wedge vectors modulo the shuffle
relations, the d-matrix of the dual basis, finite-rank verification of the
shuffle-span theorem, the Kostka-Foulkes cross-check, n-dominance
connectivity experiments, and ideal-generator export.

Straightening is one pass over the partitions of a size in increasing mlex
order, resting on one invariant: every term of a rewrite other than the
partition rewritten is mlex-smaller, so it is done when it is needed.  The
pass checks this and raises ArithmeticError where it fails.

This module imports only ``exact``, ``fock`` and ``partitions``; the
Kostka-Foulkes and T-shuffle matrices that ``kf_compare`` and
``emit_t_shuffle_generators`` read are built by their callers.
"""

from __future__ import annotations

from .exact import IntMatrix, cyclotomic_polynomial, divmod_monic, hermite_normal_form, poly_repr
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


def shuffle_span_dim(n: int, total: int) -> int:
    """Rank of the span of all adjoint-shuffle images landing in the given degree."""
    if total == 0:
        return 0
    parts = partitions_of(total)
    index = {p: i for i, p in enumerate(parts)}
    vectors = []
    d = 1
    while n * d <= total:
        for mu in partitions_of(total - n * d):
            image = shuffle_adjoint(n, d, basis_vector(mu, dual=True))
            row = [0] * len(parts)
            for m, c in image.coeffs.items():
                row[index[partition_of_maya(m)]] = c
            vectors.append(tuple(row))
        d += 1
    if not vectors:
        return 0
    _, rank = hermite_normal_form(IntMatrix.from_rows(vectors, len(parts)))
    return rank


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
    """Connected components of the n-jump graph vs (n-core, size) classes."""
    parts = list(partitions_of(total))
    adj = {p: set() for p in parts}
    for p in parts:
        for q in n_jump_raises(p, n):
            adj[p].add(q)
            adj[q].add(p)
    components = []
    seen = set()
    for p in parts:
        if p in seen:
            continue
        comp = set()
        stack = [p]
        while stack:
            x = stack.pop()
            if x in comp:
                continue
            comp.add(x)
            stack.extend(adj[x] - comp)
        seen |= comp
        components.append(frozenset(comp))
    classes: dict = {}
    for p in parts:
        classes.setdefault(weight_class(p, n), set()).add(p)
    class_sets = {k: frozenset(v) for k, v in classes.items()}
    split = []
    for wc, members in class_sets.items():
        covering = {comp for comp in components if comp & members}
        if len(covering) != 1:
            split.append({"class": wc, "members": sorted(members), "components": len(covering)})
    return {
        "n": n, "size": total,
        "components": components,
        "classes": class_sets,
        "match": not split and len(components) == len(class_sets),
        "split_classes": split,
    }


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
    gens = []
    for total in range(0, max_degree + 1):
        for mu in partitions_of(total):
            d = 1
            while total + n * d <= max_degree:
                image = shuffle_adjoint(n, d, basis_vector(mu, dual=True))
                if image:
                    terms = sorted(
                        ((_serialize_maya(m), c) for m, c in image.coeffs.items()),
                    )
                    gens.append(_format_generator(terms))
                d += 1
    lines.extend(sorted(set(gens)))
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
