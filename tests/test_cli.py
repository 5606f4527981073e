"""Exit codes of ``grfock.cli.main``: 0 pass, 1 check failed, 2 usage, 3 budget;
``--out``; and the modules that each suite loads."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from grfock import cli, grassmann, klmw, symfunc
from oracles import kf_with_d00_equal_to_t

USAGE_ERRORS = [
    ["fpoints", "--p", "4"],
    ["fpoints", "--p", "1"],
    ["tangent", "--p", "4"],
    ["straighten", "--n", "1"],
    ["kf", "--n", "0"],
    ["det-identity", "--n", "0"],
    ["det-identity", "--n", "2", "--k", "0"],
    ["straighten", "--size", "-1"],
    ["clifford", "--n", "0"],
    ["fpoints", "--dim", "0"],
    ["pluecker-ideal", "--k", "2"],
    ["pluecker-ideal", "--k", "5", "--n", "3"],
    ["export-generators", "--target", "tshuffle", "--k", "7"],
    ["fpoints", "--budget", "-1"],
    ["tangent", "--budget", "-1"],
]


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
def test_bad_parameter_exits_2_with_json_on_stderr(argv, capsys):
    assert cli.main(argv) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "usage"


def test_unknown_suite_and_unparsable_flag_exit_2(capsys):
    assert cli.main(["no-such-suite"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "unknown command"
    # argparse's own errors are usage errors, reported like every other one
    for argv, detail in [(["kf", "--bogus"], "--bogus"),
                         (["fpoints", "--p", "two"], "'two'"),
                         (["export-generators", "--target", "tshuffle", "--jordan", "0"],
                          "bad jordan type '0'")]:
        assert cli.main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage" and detail in err["detail"], argv


@pytest.mark.parametrize("jordan", ["a,b", "2,x", "1.5"])
def test_jordan_block_that_is_not_an_integer_exits_2(jordan, capsys):
    # the same detail as a block below 1, not argparse's message naming the parser
    assert cli.main(["export-generators", "--target", "tshuffle", "--jordan", jordan]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "usage"
    assert err["detail"].endswith(f"bad jordan type {jordan!r}"), err


def test_explicit_zero_is_not_replaced_by_the_default(capsys):
    assert cli.main(["straighten", "--n", "2", "--size", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["parameters"]["size"] == 0
    assert [c["witness"]["max_size"] for c in report["checks"]] == [0]


def test_budget_exceeded_exits_3(capsys):
    assert cli.main(["fpoints", "--p", "2", "--dim", "2", "--budget", "0"]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "budget exceeded"


def test_first_enumeration_over_budget_is_reported(capsys):
    # Gr(1,4)(F_2) has 15 points; Gr(2,4)(F_2) is the first with more than 30
    assert cli.main(["fpoints", "--p", "2", "--dim", "4", "--budget", "30"]) == 3
    assert json.loads(capsys.readouterr().err) == {
        "error": "budget exceeded", "detail": "Gr(2,4)(F_2) has 35 points, budget 30"}


def test_listing_points_to_an_existing_help_flag(capsys):
    assert cli.main([]) == 0
    assert "`grfock --help`" in capsys.readouterr().out
    assert cli.main(["--help"]) == 0


def test_listing_names_every_flag_of_the_parser(capsys):
    assert cli.main([]) == 0
    listed = capsys.readouterr().out.split()
    flags = re.findall(r"\[(--[\w-]+)", cli.build_parser().format_usage())
    assert "--target" in flags
    assert [flag for flag in flags if flag not in listed] == []


def test_failed_check_exits_1(monkeypatch, capsys):
    monkeypatch.setitem(cli.SUITES, "clifford", lambda args: [cli.check("broken", False)])
    assert cli.main(["clifford"]) == 1
    assert json.loads(capsys.readouterr().out)["totals"] == {"pass": 0, "fail": 1}


def test_passing_suite_exits_0(capsys):
    assert cli.main(["pluecker-ideal", "--k", "2", "--n", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["totals"] == {"pass": 2, "fail": 0}


def test_tangent_enumerates_no_point_so_no_budget_binds(monkeypatch, capsys):
    # every number comes from the (type, cotype) strata; Gr(3,9)(F_2) alone has
    # 788,035 points
    def refuse(*args, **kwargs):
        raise AssertionError("tangent enumerated a Grassmannian")

    monkeypatch.setattr(grassmann, "enumerate_points", refuse)
    assert cli.main(["tangent", "--p", "2", "--dim", "9", "--budget", "0"]) == 0


def test_straightening_that_keeps_a_non_regular_partition_fails(monkeypatch, capsys):
    straighten_coeffs = klmw.straighten_coeffs

    def keeps_11(n, total):
        table = straighten_coeffs(n, total)
        if total == 2:
            table[(1, 1)] = {(1, 1): 1}  # (1, 1) is not 2-regular
        return table

    monkeypatch.setattr(klmw, "straighten_coeffs", keeps_11)
    assert cli.main(["straighten", "--n", "2", "--size", "3"]) == 1
    [check] = json.loads(capsys.readouterr().out)["checks"]
    assert check["status"] == "fail" and check["witness"]["violations"] == [[1, 1]]


def test_a_class_split_over_components_fails_ndominance(monkeypatch, capsys):
    # with no n-jumps, (2) and (1, 1), one class (2-core (), size 2), lie in two components
    monkeypatch.setattr(klmw, "n_jump_raises", lambda p, n: ())
    assert cli.main(["ndominance", "--n", "2", "--size", "2"]) == 1
    check = json.loads(capsys.readouterr().out)["checks"][-1]
    assert check["name"] == "ndominance-n2-size2" and check["status"] == "fail"
    assert check["witness"]["split_classes"] == [{"class": [[], 2], "members": [[1, 1], [2]]}]


def test_invariant_failure_exits_1_with_json_on_stderr(monkeypatch, capsys):
    # D[0][0] = t is not an integer at a cube root of unity
    monkeypatch.setattr(symfunc, "kf_transition_matrices", kf_with_d00_equal_to_t)
    assert cli.main(["kf", "--n", "3", "--size", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "invariant failed" and "not an integer" in err["detail"], err
    # a straightening pass out of mlex order breaks the pass's own invariant
    monkeypatch.setattr(klmw, "mlex_key", lambda lam: (-len(lam), lam))
    assert cli.main(["straighten", "--n", "2", "--size", "6"]) == 1
    assert "not mlex-smaller" in json.loads(capsys.readouterr().err)["detail"]
    # a division by zero is a bug, not a failed invariant
    monkeypatch.setitem(cli.SUITES, "clifford", lambda args: [cli.check("x", 1 // 0)])
    with pytest.raises(ZeroDivisionError):
        cli.main(["clifford"])


@pytest.mark.parametrize("argv", [["straighten", "--n", "2", "--size", "4"],
                                  ["fpoints", "--p", "2", "--dim", "2", "--format", "csv"]],
                         ids=" ".join)
def test_out_writes_the_bytes_stdout_would_hold(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "time", SimpleNamespace(monotonic=lambda: 0.0))  # wall_time_ms 0
    assert cli.main(argv) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "report"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == stdout.encode() and stdout


def test_export_generators_out_writes_the_exported_text(tmp_path, capsys):
    out = tmp_path / "gens.txt"
    assert cli.main(["export-generators", "--out", str(out)]) == 0
    check = json.loads(capsys.readouterr().out)["checks"][0]
    text = klmw.emit_sato_shuffle_generators(2, 4)
    assert out.read_text(encoding="utf-8") == text
    assert check["witness"]["out"] == str(out)
    assert check["witness"]["lines"] == text.count("\n")


@pytest.mark.parametrize("argv", [["straighten", "--size", "2"], ["export-generators"],
                                  ["fpoints", "--dim", "1", "--format", "csv"]],
                         ids=" ".join)
def test_unwritable_out_exits_2_with_json_on_stderr(argv, tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert cli.main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    err = json.loads(captured.err)
    assert err["error"] == "usage" and str(out) in err["detail"], err


def _recorded(monkeypatch, suite) -> list:
    """The args of every call to the suite from now on."""
    calls = []
    monkeypatch.setitem(cli.SUITES, suite, lambda args: calls.append(args) or [])
    return calls


@pytest.mark.parametrize("argv", [["straighten", "--n", "2", "--size", "2"], ["ndominance"]],
                         ids=" ".join)
def test_csv_for_a_suite_without_point_rows_exits_2_before_it_runs(argv, monkeypatch, capsys):
    calls = _recorded(monkeypatch, argv[0])
    assert cli.main(argv + ["--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and calls == []
    err = json.loads(captured.err)
    assert err["error"] == "usage" and "--format csv" in err["detail"], err


def test_unwritable_out_exits_2_before_the_suite_runs(tmp_path, monkeypatch, capsys):
    calls = _recorded(monkeypatch, "straighten")
    # a file in a missing directory, and a directory that exists
    for out in [tmp_path / "missing" / "x.json", tmp_path]:
        assert cli.main(["straighten", "--out", str(out)]) == 2
        assert calls == [] and not out.is_file()
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage" and str(out) in err["detail"], err


def test_out_is_neither_created_nor_truncated_by_a_usage_error(tmp_path, capsys):
    kept, new = tmp_path / "kept.json", tmp_path / "new.json"
    kept.write_text("kept", encoding="utf-8")
    assert cli.main(["straighten", "--n", "1", "--out", str(kept)]) == 2
    assert cli.main(["straighten", "--n", "1", "--out", str(new)]) == 2
    assert kept.read_text(encoding="utf-8") == "kept" and not new.exists()


# The grfock modules a process loads: after ``import grfock.cli`` alone, and
# after each benchmark suite.  pytest has imported every layer already, so
# each set is read in a fresh interpreter.  None of these processes loads
# ``dataclasses`` or the ``inspect`` it imports, which cost each about 4 ms.
CLOSURES = {
    "": {"cli", "exact", "partitions"},
    "straighten --n 2 --size 4": {"cli", "exact", "partitions", "fock", "klmw"},
    "kf --n 2 --size 4": {"cli", "exact", "partitions", "fock", "klmw", "symfunc"},
    "fpoints --p 2 --dim 3": {"cli", "exact", "partitions", "fock", "exterior", "grassmann"},
    "pluecker-ideal --k 2 --n 4": {"cli", "exact", "partitions", "fock", "exterior",
                                   "grassmann"},
}

# argv: the report path, then the suite's command line, if any
LOADED = """
import json, sys
from grfock import cli
code = cli.main(sys.argv[2:] + ["--out", sys.argv[1]]) if len(sys.argv) > 2 else 0
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("grfock.")),
                  [m for m in ("dataclasses", "inspect") if m in sys.modules]]))
"""


@pytest.mark.parametrize("argv", sorted(CLOSURES))
def test_each_suite_loads_only_the_layers_it_runs(argv, tmp_path):
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    done = subprocess.run([sys.executable, "-c", LOADED, str(tmp_path / "report"), *argv.split()],
                          env=env, capture_output=True, text=True, timeout=120)
    code, loaded, unwanted = json.loads(done.stdout)
    assert code == 0, done.stderr
    assert {name.removeprefix("grfock.") for name in loaded} == CLOSURES[argv]
    assert unwanted == []
