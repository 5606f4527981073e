"""Command-line entry point: named verification suites, conjecture experiments,
and report emission.

Exit codes: 0 all checks pass, 1 at least one mathematical check failed,
2 usage or configuration error, 3 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import random
import sys
import time
from itertools import combinations

from . import __version__
from .exact import QQ, ZZ, _is_prime
from . import exterior as ext
from . import fock
from . import grassmann as gr
from . import klmw
from . import partitions as pt
from . import symfunc as sf


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
    n = 5 if args.n is None else _bounded(args.n, "n", 1)
    checks = []
    ring = ZZ
    keys = [tuple(c) for r in range(n + 1) for c in combinations(range(1, n + 1), r)]
    bad = 0
    for key in keys:
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                a = _ext_apply([(i, False), (j, True)], key)
                b = _ext_apply([(j, True), (i, False)], key)
                expected = {key: 1} if i == j else {}
                if _dict_sum(a, b) != expected:
                    bad += 1
                if _dict_sum(_ext_apply([(i, False), (j, False)], key),
                             _ext_apply([(j, False), (i, False)], key)):
                    bad += 1
                if _dict_sum(_ext_apply([(i, True), (j, True)], key),
                             _ext_apply([(j, True), (i, True)], key)):
                    bad += 1
    checks.append(check(f"finite-clifford-relations-n{n}", bad == 0,
                        basis_vectors=len(keys), index_pairs=n * n, violations=bad))

    size_cap = 6 if args.size is None else _bounded(args.size, "size", 0)
    lo, hi = -4, 6
    bad = 0
    count = 0
    for s in range(0, size_cap + 1):
        for lam in pt.partitions_of(s):
            v = fock.basis_vector(lam)
            for i in range(lo, hi + 1):
                for j in range(lo, hi + 1):
                    count += 1
                    s1 = fock.psi(i, fock.psi_star(j, v)) + fock.psi_star(j, fock.psi(i, v))
                    ok = (s1 == v) if i == j else s1.is_zero()
                    if not ok:
                        bad += 1
    checks.append(check(f"fock-clifford-relations-size{size_cap}", bad == 0,
                        pairs_checked=count, violations=bad))
    return checks


def _ext_apply(word, key) -> dict:
    res = ext.ext_word_on_key(tuple(word), key)
    return {} if res is None else {res[1]: res[0]}


def _dict_sum(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def suite_signs(args) -> list:
    n = 5 if args.n is None else _bounded(args.n, "n", 1)
    univ = range(1, n + 1)
    allsub = [tuple(c) for r in range(n + 1) for c in combinations(univ, r)]
    basis = allsub
    bad1 = 0
    for J in allsub:
        for m in range(len(J) + 1):
            for K in combinations(J, m):
                s = ext.sgn_KJ(K, J)
                JK = tuple(sorted(set(J) - set(K)))
                for b in basis:
                    lhs = _ext_apply(ext.subset_word(J, False), b)
                    r = _ext_apply(ext.subset_word(K, False), b)
                    rhs = {}
                    for key, c in r.items():
                        for key2, c2 in _ext_apply(ext.subset_word(JK, False), key).items():
                            rhs[key2] = rhs.get(key2, 0) + s * c * c2
                    rhs = {k: v for k, v in rhs.items() if v}
                    if lhs != rhs:
                        bad1 += 1
    bad2 = 0
    for I in allsub:
        for J in allsub:
            for b in basis:
                lhs = {}
                for key, c in _ext_apply(ext.subset_word(J, True), b).items():
                    for key2, c2 in _ext_apply(ext.subset_word(I, False), key).items():
                        lhs[key2] = lhs.get(key2, 0) + c * c2
                lhs = {k: v for k, v in lhs.items() if v}
                rhs = {}
                inter = tuple(sorted(set(I) & set(J)))
                for m in range(len(inter) + 1):
                    for K in combinations(inter, m):
                        s = ext.sgn_IJK(I, J, K)
                        IK = tuple(sorted(set(I) - set(K)))
                        JK = tuple(sorted(set(J) - set(K)))
                        for key, c in _ext_apply(ext.subset_word(IK, False), b).items():
                            for key2, c2 in _ext_apply(ext.subset_word(JK, True), key).items():
                                rhs[key2] = rhs.get(key2, 0) + s * c * c2
                rhs = {k: v for k, v in rhs.items() if v}
                if lhs != rhs:
                    bad2 += 1
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
                    if len(vals) > 1:
                        bad3 += 1
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
    inc = (2, 1, 4)
    checks.append(check("degree2-lattice-incidence-2-1-4",
                        gr.incidence_degree2_ideal_equal(*inc)))
    return checks


def suite_divided_powers(args) -> list:
    rng = random.Random(args.seed)
    trials = 200
    bad = 0
    for _ in range(trials):
        n = rng.randint(2, 6)
        k = rng.randint(0, n - 2)
        l = rng.randint(2, n)
        u = _random_ext(rng, n, k, QQ)
        v = _random_ext(rng, n, l, QQ)
        tt = ext.tensor_product(u, v)
        d = rng.randint(2, min(3, l))
        it = tt
        for _ in range(d):
            it = ext.omega_apply(1, it)
        if it != ext.omega_apply(d, tt).scale(QQ.from_int(math.factorial(d))):
            bad += 1
    return [check("divided-powers-omega", bad == 0, trials=trials, violations=bad)]


def _random_ext(rng, n, k, ring):
    coeffs = {}
    for key in combinations(range(1, n + 1), k):
        c = rng.randint(-3, 3)
        if c:
            coeffs[key] = ring.from_int(c)
    return ext.ExtTensor(n, k, coeffs, ring)


def suite_det_identity(args) -> list:
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
    ns = (2, 3) if args.n is None else (_bounded(args.n, "n", 2),)
    mmax = 10 if args.size is None else _bounded(args.size, "size", 0)
    checks = []
    for n in ns:
        ok = True
        dims = {}
        for m in range(0, mmax + 1):
            d = klmw.shuffle_span_dim(n, m)
            expected = len(pt.partitions_of(m)) - len(pt.n_regular_partitions(n, m))
            dims[m] = (d, expected)
            ok = ok and d == expected
        checks.append(check(f"shuffle-span-dims-n{n}", ok,
                            dims={str(m): v for m, v in dims.items()}))
    return checks


def suite_straighten(args) -> list:
    ns = (2, 3) if args.n is None else (_bounded(args.n, "n", 2),)
    smax = 10 if args.size is None else _bounded(args.size, "size", 0)
    checks = []
    for n in ns:
        violations = []
        for s in range(0, smax + 1):
            for lam in pt.partitions_of(s):
                coeffs = klmw.straighten_coeffs(lam, n)
                regular = all(pt.is_n_regular(q, n) for q in coeffs)
                classes = all(pt.weight_class(q, n) == pt.weight_class(lam, n) for q in coeffs)
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
    ns = (2, 3) if args.n is None else (_bounded(args.n, "n", 2),)
    smax = 6 if args.size is None else _bounded(args.size, "size", 0)
    checks = []
    for n in ns:
        for s in range(0, smax + 1):
            r = klmw.kf_compare(n, s)
            witness = {}
            if n == 2 and s == 2:
                witness["D_at_minus_1"] = [r["entries"][((2,), (2,))], r["entries"][((2,), (1, 1))]]
            checks.append(check(f"kf-match-n{n}-size{s}", r["match"],
                                mismatches=r["mismatches"], **witness))
    return checks


def _jordan_types(nmax):
    for n in range(1, nmax + 1):
        for blocks in pt.partitions_of(n):
            yield blocks


def suite_fpoints(args) -> list:
    ps = (2, 3) if args.p is None else (_prime(args.p),)
    nmax = 4 if args.dim is None else _bounded(args.dim, "dim", 1)
    budget = args.budget
    checks = []
    rows = []
    for p in ps:
        for blocks in _jordan_types(nmax):
            n = sum(blocks)
            T = gr.jordan_matrix(blocks)
            for k in range(0, n + 1):
                row = gr.fpoints_row(T, k, p, max_points=budget)
                row["jordan_type"] = list(blocks)
                rows.append(row)
    ok = all(r["equal"] for r in rows)
    checks.append(check("fpoints-st-equals-gt", ok, rows=rows))
    return checks


def suite_tangent(args) -> list:
    p = 2 if args.p is None else _prime(args.p)
    nmax = 5 if args.dim is None else _bounded(args.dim, "dim", 1)
    budget = args.budget
    checks = []
    for blocks in _jordan_types(nmax):
        if all(b == 1 for b in blocks):
            continue  # zero operator
        n = sum(blocks)
        T = gr.jordan_matrix(blocks)
        best = None
        table = []
        for k in range(1, n):
            pts = gr.gt_points(T, k, p, max_points=budget)
            expectation = math.floor(math.log(max(len(pts), 1), p)) if pts else 0
            for U in pts:
                dim = gr.tangent_dim_gt(U, T)
                excess = dim - expectation
                table.append({"k": k, "pivots": list(U.pivots()), "tangent": dim,
                              "expected": expectation})
                if best is None or excess > best["excess"]:
                    best = {"k": k, "tangent": dim, "expected": expectation, "excess": excess}
        ok = best is not None and best["excess"] > 0
        checks.append(check(f"tangent-excess-type-{'-'.join(map(str, blocks))}", ok,
                            best=best, points=len(table)))
    # the single-block witness direction e_k -> e_{k+1}
    for n in range(2, nmax + 1):
        T = gr.jordan_matrix((n,))
        for k in range(1, n):
            U = gr.SubspaceBasis(p, n, tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(k)))
            dim = gr.tangent_dim_gt(U, T)
            checks.append(check(f"tangent-jordan-witness-n{n}-k{k}", dim >= 1, tangent=dim))
    return checks


def suite_ndominance(args) -> list:
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
                                    {"class": [list(w[0]), w[1]] if isinstance(w, tuple) else w,
                                     "members": [list(x) for x in s0["members"]]}
                                    for s0 in r["split_classes"]
                                    for w in [s0["class"]]
                                ]))
    return checks


def suite_export_generators(args) -> list:
    target = args.target or "sato"
    if target == "sato":
        n = 2 if args.n is None else _bounded(args.n, "n", 2)
        window = 4 if args.size is None else _bounded(args.size, "size", 0)
        text = klmw.emit_sato_shuffle_generators(n, window)
    elif target == "tshuffle":
        blocks = args.jordan or (4,)
        k = 2 if args.k is None else _bounded(args.k, "k", 1, sum(blocks))
        text = klmw.emit_t_shuffle_generators(gr.jordan_matrix(blocks), k)
    else:
        raise UsageError(f"unknown export target {target!r}")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
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


def list_commands() -> str:
    lines = ["available suites:"]
    lines.extend(f"  {name}" for name in SUITES)
    lines.append("run `grfock <suite> --help-params` for flags; common flags:")
    lines.append("  --n --k --p --size --dim --jordan --seed --jobs --out --format --budget")
    return "\n".join(lines)


def _parse_jordan(text: str) -> tuple:
    blocks = tuple(sorted((int(x) for x in text.split(",") if x.strip()), reverse=True))
    if not blocks or any(b < 1 for b in blocks):
        raise UsageError(f"bad jordan type {text!r}")
    return blocks


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="grfock", add_help=True,
                                     description="exact verification suites")
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
    parser.add_argument("--budget", type=int, default=gr.DEFAULT_POINT_BUDGET)
    parser.add_argument("--target", choices=("sato", "tshuffle"), default=None,
                        help="export-generators target")
    return parser


def job_parameters(args) -> dict:
    return {
        "n": args.n, "k": args.k, "p": args.p, "size": args.size, "dim": args.dim,
        "jordan": list(args.jordan) if args.jordan else None,
        "seed": args.seed, "jobs": args.jobs, "format": args.format,
        "budget": args.budget, "target": args.target,
    }


def run(command: str, args) -> dict:
    params = job_parameters(args)
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
    """Tabular output for point-count suites."""
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    if not args.command:
        print(list_commands())
        return 0
    if args.command not in SUITES:
        print(json.dumps({"error": "unknown command", "command": args.command}), file=sys.stderr)
        return 2
    try:
        report = run(args.command, args)
    except gr.BudgetError as exc:
        print(json.dumps({"error": "budget exceeded", "detail": str(exc)}), file=sys.stderr)
        return 3
    except UsageError as exc:
        print(json.dumps({"error": "usage", "detail": str(exc)}), file=sys.stderr)
        return 2
    if args.format == "csv":
        text = render_csv(report)
    else:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out and args.command != "export-generators":
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report["totals"]["fail"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
