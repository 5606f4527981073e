"""Command-line entry point: named verification suites, conjecture experiments,
and report emission.

Exit codes: 0 all checks pass, 1 a mathematical check or an invariant
(ArithmeticError) failed, 2 usage or configuration error (an unwritable --out
too), 3 enumeration budget exceeded; every error is one JSON line on stderr.

Each suite imports the layers it runs, and this module only what every run needs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from itertools import combinations

from . import DEFAULT_POINT_BUDGET, BudgetError, __version__
from .exact import _is_prime
from . import partitions as pt


DEFAULT_SEED = 20250810
SCHEMA_VERSION = 1


def check(name: str, ok: bool, **witness) -> dict:
    return {"name": name, "status": "pass" if bool(ok) else "fail", "witness": witness}


def _bounded(value: int, flag: str, lo: int, hi: int | None = None) -> int:
    """An explicitly given integer flag, or a usage error when it is out of range."""
    if value < lo or (hi is not None and value > hi):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise UsageError(f"--{flag} must be {bound}, got {value}")
    return value


def _prime(p: int) -> int:
    if not _is_prime(p):
        raise UsageError(f"--p must be prime, got {p}")
    return p


# ---------------------------------------------------------------------------
# suites


def suite_clifford(args) -> list:
    from . import exterior as ext, fock
    n = 5 if args.n is None else _bounded(args.n, "n", 1)
    checks = []
    keys = [tuple(c) for r in range(n + 1) for c in combinations(range(1, n + 1), r)]
    bad = 0
    for key in keys:
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                a = ext.ext_word_on_key(((i, False), (j, True)), key)
                b = ext.ext_word_on_key(((j, True), (i, False)), key)
                bad += {a, b} != {None, (1, key)} if i == j else not _cancel(a, b)
                bad += not _cancel(ext.ext_word_on_key(((i, False), (j, False)), key),
                                   ext.ext_word_on_key(((j, False), (i, False)), key))
                bad += not _cancel(ext.ext_word_on_key(((i, True), (j, True)), key),
                                   ext.ext_word_on_key(((j, True), (i, True)), key))
    checks.append(check(f"finite-clifford-relations-n{n}", bad == 0,
                        basis_vectors=len(keys), index_pairs=n * n, violations=bad))

    size_cap = 6 if args.size is None else _bounded(args.size, "size", 0)
    lo, hi = -4, 6
    bad = count = 0
    for s in range(0, size_cap + 1):
        for lam in pt.partitions_of(s):
            v = fock.basis_vector(lam)
            for i in range(lo, hi + 1):
                for j in range(lo, hi + 1):
                    count += 1
                    s1 = fock.psi(i, fock.psi_star(j, v)) + fock.psi_star(j, fock.psi(i, v))
                    bad += s1 != v if i == j else bool(s1)
    checks.append(check(f"fock-clifford-relations-size{size_cap}", bad == 0,
                        pairs_checked=count, violations=bad))
    return checks


def _cancel(a, b) -> bool:
    """Whether two (sign, key)-or-None results sum to zero."""
    return a is b if a is None or b is None else a == (-b[0], b[1])


def suite_signs(args) -> list:
    from . import exterior as ext
    n = 5 if args.n is None else _bounded(args.n, "n", 1)
    allsub = [tuple(c) for r in range(n + 1) for c in combinations(range(1, n + 1), r)]
    psi = {S: tuple((i, False) for i in S) for S in allsub}
    psi_star = {S: tuple((i, True) for i in S) for S in allsub}
    bad1 = 0
    for J in allsub:
        for m in range(len(J) + 1):
            for K in combinations(J, m):
                # psi_J = sgn(K, J) psi_{J-K} psi_K
                s = ext.sgn_KJ(K, J)
                JK = tuple(j for j in J if j not in K)
                for b in allsub:
                    lhs = ext.ext_word_on_key(psi[J], b)
                    rhs = ext.ext_word_on_key(psi[JK] + psi[K], b)
                    bad1 += lhs != (None if rhs is None else (s * rhs[0], rhs[1]))
    bad2 = 0
    for I in allsub:
        for J in allsub:
            # psi_I psi*_J = sum over K in I & J of sgn(I, J, K) psi*_{J-K} psi_{I-K}
            inter = tuple(i for i in I if i in J)
            terms = [
                (ext.sgn_IJK(I, J, K),
                 psi_star[tuple(j for j in J if j not in K)] + psi[tuple(i for i in I if i not in K)])
                for m in range(len(inter) + 1) for K in combinations(inter, m)
            ]
            for b in allsub:
                lhs = ext.ext_word_on_key(psi[I] + psi_star[J], b)
                rhs = {}
                for s, word in terms:
                    r = ext.ext_word_on_key(word, b)
                    if r is not None:
                        rhs[r[1]] = rhs.get(r[1], 0) + s * r[0]
                rhs = {key: c for key, c in rhs.items() if c}
                bad2 += rhs != ({} if lhs is None else {lhs[1]: lhs[0]})
    bad3 = 0
    univ6 = range(1, 7)
    sub6 = [tuple(c) for r in range(5) for c in combinations(univ6, r)]
    for J in sub6:
        for m in range(len(J) + 1):
            for K in combinations(J, m):
                for d in range(len(K), 5):
                    vals = set()
                    for I_extra in combinations([x for x in range(1, 8) if x not in K], d - len(K)):
                        I = tuple(sorted(set(K) | set(I_extra)))
                        vals.add(ext.sgn_IJK(J, I, K) * ext.sgn_KJ(K, I))
                    bad3 += len(vals) > 1
    bad4 = sum(
        1 for d in range(1, 5) for J in combinations(range(1, 7), d)
        if ext.epsilon_d(J, J, d) != (-1) ** (d * (d - 1) // 2)
    )
    return [
        check(f"comm1-split-n{n}", bad1 == 0, violations=bad1),
        check(f"comm1-straighten-n{n}", bad2 == 0, violations=bad2),
        check("epsilon-independence-d4-J6", bad3 == 0, violations=bad3),
        check("epsilon-JJ-binomial-sign", bad4 == 0, violations=bad4),
    ]


def suite_pluecker_ideal(args) -> list:
    from . import grassmann as gr
    cases = [(1, 4), (2, 4), (2, 5), (3, 6)]
    if (args.k is None) != (args.n is None):
        raise UsageError("--k and --n are given together or not at all")
    if args.n is not None:
        n = _bounded(args.n, "n", 1)
        cases = [(_bounded(args.k, "k", 0, n), n)]
    checks = []
    for k, n in cases:
        equal, plucker_rank, omega_rank = gr.degree2_ideal_equal(k, n)
        checks.append(check(f"degree2-lattice-gr{k}-{n}", equal,
                            plucker_rank=plucker_rank, omega_rank=omega_rank))
    checks.append(check("degree2-lattice-incidence-2-1-4",
                        gr.incidence_degree2_ideal_equal(2, 1, 4)))
    return checks


def suite_divided_powers(args) -> list:
    import math
    import random
    from . import exterior as ext
    rng = random.Random(args.seed)
    trials = 200
    bad = 0
    for _ in range(trials):
        n = rng.randint(2, 6)
        k = rng.randint(0, n - 2)
        l = rng.randint(2, n)
        u = _random_ext(rng, n, k)
        v = _random_ext(rng, n, l)
        tt = ext.tensor_product(u, v)
        d = rng.randint(2, min(3, l))
        it = tt
        for _ in range(d):
            it = ext.omega_apply(1, it)
        bad += it != ext.omega_apply(d, tt).scale(math.factorial(d))
    return [check("divided-powers-omega", bad == 0, trials=trials, violations=bad)]


def _random_ext(rng, n, k):
    from fractions import Fraction
    from . import exterior as ext
    coeffs = {key: Fraction(c) for key in combinations(range(1, n + 1), k)
              if (c := rng.randint(-3, 3))}
    return ext.ExtTensor(n, k, coeffs)


def suite_det_identity(args) -> list:
    from . import symfunc as sf
    ns = (2, 3, 4) if args.n is None else (_bounded(args.n, "n", 1),)
    kmax = 5 if args.k is None else _bounded(args.k, "k", 1)
    checks = []
    for n in ns:
        dets = sf.det_coeffs_principal_nilpotent(n, kmax)
        ok = all(dets[k - 1] == sf.twist_in_h_basis(n, k) for k in range(1, kmax + 1))
        checks.append(check(f"det-equals-twist-n{n}", ok, k_max=kmax,
                            witness_k1=repr(dets[0])))
    return checks


def suite_shuffle_span(args) -> list:
    from . import klmw
    ns = (2, 3) if args.n is None else (_bounded(args.n, "n", 2),)
    mmax = 10 if args.size is None else _bounded(args.size, "size", 0)
    checks = []
    for n in ns:
        # (rank of the shuffle span, count of the non-regular partitions) by size
        dims = {str(m): (klmw.shuffle_span_dim(n, m),
                         len(pt.partitions_of(m)) - len(pt.n_regular_partitions(n, m)))
                for m in range(0, mmax + 1)}
        checks.append(check(f"shuffle-span-dims-n{n}", all(d == e for d, e in dims.values()),
                            dims=dims))
    return checks


def suite_straighten(args) -> list:
    from . import klmw
    ns = (2, 3) if args.n is None else (_bounded(args.n, "n", 2),)
    smax = 10 if args.size is None else _bounded(args.size, "size", 0)
    checks = []
    for n in ns:
        violations = []
        for s in range(0, smax + 1):
            table = klmw.straighten_coeffs(n, s)
            weight = {lam: pt.weight_class(lam, n) for lam in table}
            for lam in pt.partitions_of(s):
                coeffs = table[lam]
                regular = all(pt.is_n_regular(q, n) for q in coeffs)
                classes = all(weight.get(q) == weight[lam] for q in coeffs)
                if pt.is_n_regular(lam, n):
                    sound = coeffs == {lam: 1}
                    below = True
                else:
                    sound = lam not in coeffs
                    below = all(
                        pt.compare_mlex(q, lam) is pt.Cmp.LESS
                        and pt.compare_dominance(q, lam) is pt.Cmp.GREATER
                        for q in coeffs
                    )
                if not (regular and classes and sound and below):
                    violations.append(lam)
        checks.append(check(f"straighten-sound-n{n}", not violations,
                            max_size=smax, violations=[list(v) for v in violations]))
    return checks


def suite_kf(args) -> list:
    from . import klmw, symfunc as sf
    ns = (2, 3) if args.n is None else (_bounded(args.n, "n", 2),)
    smax = 6 if args.size is None else _bounded(args.size, "size", 0)
    checks = []
    for n in ns:  # K in Z[zeta_n], one memo for every size
        for s, table in enumerate(sf.kostka_foulkes_tables(smax, n)):
            r = klmw.kf_compare(n, s, sf.kf_transition_matrices(s, n, table))
            witness = {}
            if n == 2 and s == 2:
                witness["D_at_minus_1"] = [r["entries"][((2,), (2,))], r["entries"][((2,), (1, 1))]]
            checks.append(check(f"kf-match-n{n}-size{s}", r["match"],
                                mismatches=r["mismatches"], **witness))
    return checks


def suite_fpoints(args) -> list:
    from . import grassmann as gr
    ps = (2, 3) if args.p is None else (_prime(args.p),)
    nmax = 4 if args.dim is None else _bounded(args.dim, "dim", 1)
    budget = _bounded(args.budget, "budget", 0)
    rows = []
    for p in ps:
        for n in range(1, nmax + 1):
            types = pt.partitions_of(n)
            by_k = [gr.fpoints_rows(types, k, p, max_points=budget) for k in range(0, n + 1)]
            for i, blocks in enumerate(types):
                rows.extend({**k_rows[i], "jordan_type": list(blocks)} for k_rows in by_k)
    return [check("fpoints-st-equals-gt", all(r["equal"] for r in rows), rows=rows)]


def suite_tangent(args) -> list:
    import math
    from . import grassmann as gr
    p = 2 if args.p is None else _prime(args.p)
    nmax = 5 if args.dim is None else _bounded(args.dim, "dim", 1)
    _bounded(args.budget, "budget", 0)  # checked, though no point is enumerated
    checks = []
    for n in range(2, nmax + 1):
        for blocks in pt.partitions_of(n)[:-1]:  # all but (1^n), where T = 0
            best, points = None, 0
            for k in range(1, n):
                count = gr.gt_count(blocks, k, p)
                points += count
                dim, expectation = gr.max_tangent_dim(blocks, k), math.floor(math.log(count, p))
                if best is None or dim - expectation > best["excess"]:
                    best = {"k": k, "tangent": dim, "expected": expectation,
                            "excess": dim - expectation}
            checks.append(check(f"tangent-excess-type-{'-'.join(map(str, blocks))}",
                                best["excess"] > 0, best=best, points=points))
        # the single-block witness span(e_1..e_k): type (k), cotype (n - k)
        checks.extend(check(f"tangent-jordan-witness-n{n}-k{k}", min(k, n - k) >= 1,
                            tangent=min(k, n - k)) for k in range(1, n))
    return checks


def suite_ndominance(args) -> list:
    from . import klmw
    ns = (2, 3) if args.n is None else (_bounded(args.n, "n", 2),)
    smax = 8 if args.size is None else _bounded(args.size, "size", 0)
    checks = []
    for n in ns:
        for s in range(0, smax + 1):
            r = klmw.n_dominance_components(n, s)
            checks.append(check(f"ndominance-n{n}-size{s}", r["match"],
                                components=len(r["components"]),
                                classes=len(r["classes"]),
                                split_classes=[
                                    {"class": [list(split["class"][0]), split["class"][1]],
                                     "members": [list(x) for x in split["members"]]}
                                    for split in r["split_classes"]
                                ]))
    return checks


def suite_export_generators(args) -> list:
    from . import klmw
    target = args.target or "sato"
    if target == "sato":
        n = 2 if args.n is None else _bounded(args.n, "n", 2)
        window = 4 if args.size is None else _bounded(args.size, "size", 0)
        text = klmw.emit_sato_shuffle_generators(n, window)
    else:  # tshuffle, the parser's only other choice
        from . import exterior as ext, grassmann as gr
        blocks = args.jordan or (4,)
        k = 2 if args.k is None else _bounded(args.k, "k", 1, sum(blocks))
        text = klmw.emit_t_shuffle_generators(ext.t_shuffle_matrices(gr.jordan_matrix(blocks), k))
    if args.out:
        _write_out(args.out, text)
    return [check(f"export-{target}", True, lines=text.count("\n"),
                  sha256=hashlib.sha256(text.encode()).hexdigest(),
                  out=args.out or "-", preview=text.splitlines()[:4])]


SUITES = {
    "clifford": suite_clifford,
    "signs": suite_signs,
    "pluecker-ideal": suite_pluecker_ideal,
    "divided-powers": suite_divided_powers,
    "det-identity": suite_det_identity,
    "shuffle-span": suite_shuffle_span,
    "straighten": suite_straighten,
    "kf": suite_kf,
    "fpoints": suite_fpoints,
    "tangent": suite_tangent,
    "ndominance": suite_ndominance,
    "export-generators": suite_export_generators,
}


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are usage errors, reported as JSON."""

    def error(self, message):
        raise UsageError(message)


def list_commands() -> str:
    flags = [a.option_strings[-1] for a in build_parser()._actions
             if a.option_strings and a.dest != "help"]
    lines = ["available suites:"]
    lines.extend(f"  {name}" for name in SUITES)
    lines.append("run `grfock --help` for flags; common flags:")
    lines.append("  " + " ".join(flags))
    return "\n".join(lines)


def _parse_jordan(text: str) -> tuple:
    try:
        blocks = tuple(sorted((int(x) for x in text.split(",") if x.strip()), reverse=True))
    except ValueError:
        blocks = ()
    if not blocks or any(b < 1 for b in blocks):
        raise argparse.ArgumentTypeError(f"bad jordan type {text!r}")
    return blocks


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="grfock", add_help=True, description="exact verification suites")
    parser.add_argument("command", nargs="?", help="suite name; omit to list")
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--k", type=int, default=None)
    parser.add_argument("--p", type=int, default=None)
    parser.add_argument("--size", type=int, default=None)
    parser.add_argument("--dim", type=int, default=None)
    parser.add_argument("--jordan", type=_parse_jordan, default=None,
                        help="comma-separated block sizes")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", type=str, default=None)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--budget", type=int, default=DEFAULT_POINT_BUDGET)
    parser.add_argument("--target", choices=("sato", "tshuffle"), default=None,
                        help="export-generators target")
    return parser


def run(command: str, args) -> dict:
    params = {key: value for key, value in vars(args).items() if key not in ("command", "out")}
    config_hash = hashlib.sha256(
        json.dumps({"command": command, **params}, sort_keys=True).encode()
    ).hexdigest()
    t0 = time.monotonic()
    checks = SUITES[command](args)
    wall_ms = int((time.monotonic() - t0) * 1000)
    checks = sorted(checks, key=lambda c: c["name"])
    passed = sum(1 for c in checks if c["status"] == "pass")
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": "grfock",
        "version": __version__,
        "command": command,
        "parameters": params,
        "checks": checks,
        "totals": {"pass": passed, "fail": len(checks) - passed},
        "config_hash": config_hash,
        "wall_time_ms": wall_ms,
    }


def render_csv(report: dict) -> str:
    """The point rows of an fpoints report, as CSV."""
    import csv
    import io
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["p", "n", "k", "jordan_type", "gr", "gt", "st", "equal"])
    for c in report["checks"]:
        for row in c["witness"].get("rows", []):
            writer.writerow([row["p"], row["n"], row["k"],
                             "-".join(map(str, row.get("jordan_type", []))),
                             row["gr"], row["gt"], row["st"], row["equal"]])
    return buf.getvalue()


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if not args.command:
            print(list_commands())
            return 0
        if args.command not in SUITES:
            print(json.dumps({"error": "unknown command", "command": args.command}), file=sys.stderr)
            return 2
        if args.format == "csv" and args.command != "fpoints":
            raise UsageError(f"--format csv is for fpoints only, not {args.command}")
        if args.out and (os.path.isdir(args.out) or not os.access(
                args.out if os.path.exists(args.out) else os.path.dirname(os.path.abspath(args.out)),
                os.W_OK)):
            raise UsageError(f"cannot write --out {args.out}: not a writable file")
        report = run(args.command, args)
        text = (render_csv(report) if args.format == "csv"
                else json.dumps(report, indent=2, sort_keys=True) + "\n")
        if args.out and args.command != "export-generators":
            _write_out(args.out, text)
        else:
            sys.stdout.write(text)
    except SystemExit as exc:  # --help
        return exc.code
    except BudgetError as exc:
        print(json.dumps({"error": "budget exceeded", "detail": str(exc)}), file=sys.stderr)
        return 3
    except UsageError as exc:
        print(json.dumps({"error": "usage", "detail": str(exc)}), file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        if type(exc) is not ArithmeticError:  # ZeroDivisionError and its kin are bugs
            raise
        print(json.dumps({"error": "invariant failed", "detail": str(exc)}), file=sys.stderr)
        return 1
    return 0 if report["totals"]["fail"] == 0 else 1


def _write_out(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write --out {path}: {exc.strerror or exc}") from exc


if __name__ == "__main__":
    sys.exit(main())
