"""Checks of the benchmark itself, kept out of the tier-1 test run.

    python3 perfbench/selftest.py

Uses small suite parameters, so it takes a few seconds.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest

import layers
import run
import tracer

SMALL = ("straighten", "--n", "2", "--size", "9")


def traced_run(argv, hash_seed: int) -> tuple[dict, str]:
    """({count metric: value}, report digest) of one traced child process."""
    sample, stdout, stderr = run.spawn("traced", [str(run.TRACER), *argv], run.TIMEOUT_S,
                                       hash_seed)
    if not sample.ok:
        raise AssertionError(sample.detail)
    record = json.loads(stderr.decode().strip().splitlines()[-1])
    table = layers.per_layer(record, argv[0])
    counts = {name: value for name, (value, unit) in table.items() if unit == "count"}
    return counts, run.report_digest(stdout)


class ColdState(unittest.TestCase):
    def test_counts_repeat_across_traced_runs(self):
        first, digest1 = traced_run(SMALL, hash_seed=0)
        second, digest2 = traced_run(SMALL, hash_seed=1)
        self.assertGreater(first["klmw.rewrites"], 0)
        self.assertEqual(first, second)
        self.assertEqual(digest1, digest2)

    def test_digest_ignores_only_wall_time(self):
        a = run.report_digest(b'{"checks": [1], "wall_time_ms": 5}')
        b = run.report_digest(b'{"wall_time_ms": 900, "checks": [1]}')
        c = run.report_digest(b'{"wall_time_ms": 5, "checks": [2]}')
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)


class Tracing(unittest.TestCase):
    def test_every_binding_is_patched(self):
        sys.path.insert(0, str(run.SRC))
        names = [f"grfock.{layer}" for layer in layers.LAYERS] + ["grfock.cli"]
        modules = {name: importlib.import_module(name) for name in names}
        originals = {id(fn): fn for name in names[:-1]
                     for _, fn in tracer._public_functions(modules[name])}
        tracer.install(tracer.Tracer())
        fock, klmw, grassmann = modules["grfock.fock"], modules["grfock.klmw"], \
            modules["grfock.grassmann"]
        self.assertIs(klmw.shuffle_adjoint, fock.shuffle_adjoint)
        self.assertIs(fock.maya_from_beads, modules["grfock.partitions"].maya_from_beads)
        self.assertIs(grassmann.sort_with_sign, modules["grfock.exterior"].sort_with_sign)
        self.assertIs(grassmann.lattice_equal, modules["grfock.exact"].lattice_equal)
        self.assertTrue(hasattr(grassmann.ext_word_on_key, "__wrapped__"))
        for name, module in modules.items():
            for attr, obj in vars(module).items():
                self.assertIsNot(originals.get(id(obj)), obj, f"{name}.{attr} not wrapped")

    def test_missing_function_is_reported_missing(self):
        record = {"suite_s": 1.0, "functions": {
            "partitions.maya_from_beads": {"calls": 3, "self_s": 0.5},
            "cli.suite_straighten": {"calls": 1, "self_s": 0.1},
        }}
        table = layers.per_layer(record, "straighten")
        self.assertIsNone(table["fock.psi_key.calls"][0])
        self.assertIsNone(table["fock.gen.self_s"][0])
        self.assertEqual(table["partitions.maya_from_beads.calls"][0], 3)
        self.assertEqual(table["cli.unattributed_s"][0], 0.1)


class Harness(unittest.TestCase):
    def test_results_carry_the_metrics_benchmark_json_lists(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())

        def sample(kind, wall, trace=None):
            return run.Sample(kind, wall, wall, 20.0, True, "", trace)

        record = {"suite_s": 1.0, "functions": {}}
        untraced = [sample("setup", 0.1), sample("reference", 0.3), sample("suite", 1.0),
                    sample("reference", 0.3)]
        traced = [sample("traced", 1.2, record), sample("suite", 1.0),
                  sample("traced", 1.2, record)]
        for samples, key in ((untraced, "end_to_end"), (traced, "per_layer")):
            with contextlib.redirect_stdout(io.StringIO()):
                result = run.summarize("kf", samples, trace=samples is traced)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            listed = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            self.assertEqual(got, listed)

    def test_timeout_is_a_failed_sample(self):
        sample, _, _ = run.spawn("suite", ["-c", "import time; time.sleep(30)"], 0.5, 0)
        self.assertFalse(sample.ok)
        self.assertTrue(sample.detail.startswith("timeout"))
        self.assertLess(sample.wall_s, 10)

    def test_no_sources_means_no_result(self):
        with tempfile.TemporaryDirectory(dir=run.ROOT) as bare:
            shutil.copytree(run.HERE, f"{bare}/perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "kf", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
