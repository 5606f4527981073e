"""Guards on the package as a whole: its source, what the suites reach of it,
and the benchmark's view of it."""

import ast
import importlib
import sys
from pathlib import Path

import grfock
from grfock import cli, exact, exterior, grassmann
from grfock.exact import IntMatrix

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(grfock.__file__).parent

# Every function of the package that no suite reaches, with the tier-1 test
# that pins it.  Each entry is a function defined in src, as module.qualname.
PINNED_ONLY_BY_TESTS = {
    # paper claims: the generating identity, Omega^T through the shuffles, the
    # Frobenius-twist reading of sh_d^T and boson-fermion multiplicativity
    "exterior.shuffle_generating_identity": "test_exterior.py::test_generating_identity_random",
    "exterior.wedge_apply": "test_exterior.py::test_generating_identity_random",
    "exterior.omega_T_apply": "test_exterior.py::test_omega_T_additivity_QQ_and_F5",
    "exterior.eta_T": "test_exterior.py::test_eta_T_by_omega_T_and_by_hand",
    "exterior.clifford": "test_exterior.py::test_omega_T_via_shuffles_on_decomposables",
    "exterior.identity_operator": "test_exterior.py::test_omega_T_zero_and_identity",
    "exterior.sym_operator_apply": "test_exterior.py::test_sym_operator_examples",
    "exterior._accumulate_slot_products": "test_exterior.py::test_sym_operator_examples",
    "symfunc.is_symmetric": "test_exterior.py::test_sym_operator_rejects_nonsymmetric",
    "fock.monomial_operator": "test_fock.py::test_monomial_operator_is_multiplicative",
    "fock.monomial_operator.<locals>.moves": "test_fock.py::test_monomial_operator_is_multiplicative",
    "fock._distinct_placements": "test_fock.py::test_monomial_operator_is_multiplicative",
    "fock._distinct_placements.<locals>.rec": "test_fock.py::test_monomial_operator_is_multiplicative",
    "fock.multiply_p_times_m": "test_fock.py::test_monomial_operator_is_multiplicative",
    "fock.multiply_p_times_m.<locals>.add": "test_fock.py::test_monomial_operator_is_multiplicative",
    "fock.alpha": "test_fock.py::test_shuffles_and_alpha_match_the_oracle",
    "fock.shuffle": "test_fock.py::test_shuffles_and_alpha_match_the_oracle",
    "fock.pairing": "test_fock.py::test_pairing_orthonormal",
    "fock.FockVector.coefficient": "test_fock.py::test_adjointness_pairing",
    "fock.operator_matrix": "test_fock.py::test_operator_matrix_shapes",
    # symmetric functions: the Schur expansion and the twist checked against
    # Jacobi-Trudi and the polynomial model, Kostka-Foulkes cell by cell
    "symfunc.SymPoly.__post_init__": "test_symfunc.py::test_basis_examples",
    "symfunc.SymPoly.__mul__": "test_symfunc.py::test_basis_examples",
    "symfunc._distinct_perms": "test_symfunc.py::test_basis_examples",
    "symfunc.m_poly": "test_symfunc.py::test_basis_examples",
    "symfunc.e_poly": "test_symfunc.py::test_basis_examples",
    "symfunc.h_poly": "test_symfunc.py::test_basis_examples",
    "symfunc.s_poly": "test_symfunc.py::test_basis_examples",
    "symfunc.p_poly": "test_symfunc.py::test_schur_expand_examples",
    "symfunc.schur_expand": "test_symfunc.py::test_schur_expand_jacobi_trudi_consistency",
    "symfunc.SymPoly.degree": "test_symfunc.py::test_frobenius_twist_examples",
    "symfunc.frobenius_twist": "test_symfunc.py::test_frobenius_twist_examples",
    "symfunc.kostka_foulkes": "test_symfunc.py::test_kostka_foulkes_examples",
    "symfunc.charge": "test_symfunc.py::test_charge_matches_the_scanning_oracle",
    # scalars: Z[t] arithmetic
    "exact.IntPoly.t": "test_exact.py::test_intpoly_basics",
    "exact.IntPoly._lift": "test_exact.py::test_intpoly_basics",
    "exact.IntPoly.__add__": "test_exact.py::test_intpoly_basics",
    "exact.IntPoly.__sub__": "test_exact.py::test_intpoly_basics",
    "exact.IntPoly.__neg__": "test_exact.py::test_intpoly_basics",
    "exact.IntPoly.__mul__": "test_exact.py::test_intpoly_basics",
    "exact.IntPoly.__repr__": "test_klmw.py::test_kf_compare_rejects_an_entry_that_is_not_an_integer",
    # bindings the benchmark's tracer times, and the Maya-diagram helpers
    "exact.lattice_equal": "test_exact.py::test_lattice_equal_examples",
    "grassmann.plucker_vector": "test_minors.py::test_plucker_vector_matches_leibniz_mod_p",
    # the checked entry point; the suites build C and D valid and skip the check
    "grassmann.omega_functional": "test_grassmann.py::test_omega_functional_rejects_an_unsorted_D",
    "exact.lattice_rank": "test_exact.py::test_lattice_basis_gives_rank_and_equality",
    "fock.psi_key": "test_fock.py::test_generators_match_the_oracle",
    "fock.psi_star_key": "test_fock.py::test_generators_match_the_oracle",
    "fock._on_key": "test_fock.py::test_generators_match_the_oracle",
    "partitions.MayaDiagram.beads": "test_partitions.py::test_maya_beads_and_membership",
    # usage-error paths of the command line
    "cli._Parser.error": "test_cli.py::test_unknown_suite_and_unparsable_flag_exit_2",
    "cli._parse_jordan": "test_cli.py::test_unknown_suite_and_unparsable_flag_exit_2",
    "cli._prime": "test_cli.py::test_bad_parameter_exits_2_with_json_on_stderr",
}


def test_the_package_has_no_assert_statement():
    # a check that python -O strips is no check; bad input raises a real exception
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(grfock.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_every_per_layer_metric_names_a_function_that_exists(monkeypatch):
    # perfbench reports a metric whose function left the package as missing
    # (None); build the record its tracer would, without installing it
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    layers, tracer, run = (importlib.import_module(m) for m in ("layers", "tracer", "run"))
    names = [f"{layer}.{name}" for layer in layers.LAYERS
             for name, _ in tracer._public_functions(importlib.import_module(f"grfock.{layer}"))]
    if isinstance(vars(IntMatrix).get("from_rows"), staticmethod):
        names.append("exact.IntMatrix.from_rows")
    names += [f"cli.{suite.__name__}" for suite in cli.SUITES.values()]
    record = {"suite_s": 0.0, "functions": {name: {"calls": 0, "self_s": 0.0} for name in names}}
    for workload in run.WORKLOADS.values():
        table = layers.per_layer(record, workload.argv[0])
        assert [m for m, (value, _) in table.items() if value is None] == [], workload.argv


def test_grassmann_keeps_the_bindings_the_benchmark_selftest_asserts():
    # perfbench/selftest.py checks that the tracer rebinds these copies too;
    # pytest does not collect it, so a lost import would go unseen here
    assert grassmann.sort_with_sign is exterior.sort_with_sign
    assert grassmann.lattice_equal is exact.lattice_equal
    assert grassmann.ext_word_on_key is exterior.ext_word_on_key


def _defined_functions() -> dict:
    """{(source file, qualname): module.qualname} for every def in the package."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found[(str(path), prefix + child.name)] = f"{path.stem}.{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return found


def test_every_function_is_reached_by_a_suite_or_pinned_by_a_test(capsys):
    # every suite at its defaults, the other export target, the CSV report and
    # the command listing, under a profiler that records each function called
    runs = [[suite] for suite in cli.SUITES]
    runs += [["export-generators", "--target", "tshuffle"], ["fpoints", "--format", "csv"], []]
    for path in PACKAGE.glob("*.py"):  # what earlier tests cached is reached afresh
        for obj in vars(importlib.import_module(f"grfock.{path.stem}")).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(record)
    try:
        codes = [cli.main(argv) for argv in runs]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0] * len(runs)
    reached = {(code.co_filename, code.co_qualname) for code in called}
    defined = _defined_functions()
    unreached = {name for key, name in defined.items() if key not in reached}
    listed = set(PINNED_ONLY_BY_TESTS)
    assert sorted(unreached - listed) == []  # reach it from a suite, or pin it and list it
    assert sorted(listed - set(defined.values())) == []  # stale: no longer defined
    assert sorted(listed - unreached) == []  # stale: a suite reaches it now
    tests = {f"{path.name}::{node.name}" for path in Path(__file__).parent.glob("test_*.py")
             for node in ast.parse(path.read_text(encoding="utf-8")).body
             if isinstance(node, ast.FunctionDef)}
    assert sorted(set(PINNED_ONLY_BY_TESTS.values()) - tests) == []
