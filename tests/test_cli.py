"""Exit codes of ``grfock.cli.main``: 0 pass, 1 check failed, 2 usage, 3 budget."""

import json

import pytest

from grfock import cli

USAGE_ERRORS = [
    ["fpoints", "--p", "4"],
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
]


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
def test_bad_parameter_exits_2_with_json_on_stderr(argv, capsys):
    assert cli.main(argv) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "usage"


def test_unknown_suite_and_unparsable_flag_exit_2(capsys):
    assert cli.main(["no-such-suite"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "unknown command"
    assert cli.main(["fpoints", "--p", "two"]) == 2


def test_explicit_zero_is_not_replaced_by_the_default(capsys):
    assert cli.main(["straighten", "--n", "2", "--size", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["parameters"]["size"] == 0
    assert [c["witness"]["max_size"] for c in report["checks"]] == [0]


def test_budget_exceeded_exits_3(capsys):
    assert cli.main(["fpoints", "--p", "2", "--dim", "2", "--budget", "0"]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "budget exceeded"


def test_failed_check_exits_1(monkeypatch, capsys):
    monkeypatch.setitem(cli.SUITES, "clifford", lambda args: [cli.check("broken", False)])
    assert cli.main(["clifford"]) == 1
    assert json.loads(capsys.readouterr().out)["totals"] == {"pass": 0, "fail": 1}


def test_passing_suite_exits_0(capsys):
    assert cli.main(["pluecker-ideal", "--k", "2", "--n", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["totals"] == {"pass": 2, "fail": 0}
