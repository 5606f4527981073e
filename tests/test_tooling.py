"""Guards on the package as a whole: its source and the benchmark's view of it."""

import ast
import importlib
from pathlib import Path

import grfock
from grfock import cli, exact, exterior, grassmann
from grfock.exact import IntMatrix

ROOT = Path(__file__).resolve().parents[1]


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
